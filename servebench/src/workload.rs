//! The closed-loop workloads and the engine that drives them.
//!
//! Every link runs one flow at a time: it opens a fresh connection,
//! sends one CRC-framed payload, waits for the verdict, checks it
//! against the payload it sent, and only then opens the next
//! connection. One round is one server tick followed by one tick of
//! every client, then `reap_closed`. A run is:
//!
//! 1. set-up, repeated and timed ([`RunResult::setup_ns`]);
//! 2. warm-up rounds, unmeasured;
//! 3. the restart phase: a fixed number of kills, one every
//!    `kill_every` rounds — `snapshot_into`, drop, `restore` — after
//!    each of which every unfinished link reconnects and sends RESUME;
//! 4. the steady phase, a fixed number of rounds sized from the run's
//!    seconds ([`Shape::steady_rounds`]), which gives every flow,
//!    latency and heap metric; only flows started in it are timed, so
//!    no measured latency spans a kill;
//! 5. the drain: no new flows, every open flow finishes, closed
//!    connections and verdict-replay entries expire, and the
//!    correctness gate checks the server's books.
//!
//! The restart phase comes first so every snapshot images a server of
//! the same age whatever the host's speed: the server's per-flow
//! records grow with its lifetime, and with them the snapshot.
//!
//! Every phase is a fixed amount of work, never a wall-clock deadline:
//! on loopback everything is a function of the seed and the round
//! count, so two runs with the same seed and seconds repeat every
//! verdict, failure and allocation exactly, however fast the host ran.

use std::net::SocketAddr;
use std::time::Instant;

use spinal_channel::{AwgnChannel, Channel};
use spinal_core::bits::BitVec;
use spinal_core::error::{SpinalError, WireErrorKind};
use spinal_link::{FaultPlan, FeedbackMode, LinkFault};
use spinal_serve::{
    loopback_pair, loopback_pair_chunked, ClientConfig, ClientOutcome, LoopbackTransport,
    ServeClient, ServeConfig, ServeStats, Server, TcpAcceptor, TcpTransport, Transport,
};
use spinal_sim::stats::derive_seed;

use crate::alloc;
use crate::hist::Histogram;
use crate::trace::{self, span, Layer, Totals};

/// Bytes in flight per direction of a loopback pipe.
const PIPE_CAPACITY: usize = 1 << 12;
/// Ticks a detached session (or a decoded verdict held for replay)
/// waits for its client before the server expires it.
const DETACH_TTL_TICKS: u64 = 16;
/// Bound on the rounds the drain may take before the run fails.
const MAX_DRAIN_ROUNDS: u64 = 100_000;
/// Bound on the server ticks a restart may take to answer every RESUME.
const MAX_RESUME_TICKS: u64 = 256;
/// Bound on accept polls after a localhost connect.
const ACCEPT_POLLS: u32 = 100_000;
/// Link `i`'s first flow is held back `i % STAGGER_ROUNDS` rounds,
/// about one flow's duration, so the closed loop runs out of step
/// instead of finishing flows in fleet-wide waves.
pub const STAGGER_ROUNDS: u64 = 8;

/// One workload: a traffic mix and the serving configuration it meets.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Shape {
    /// Workload name, as given to `--workload`.
    pub name: &'static str,
    /// Why the workload exists (one line).
    pub why: &'static str,
    /// Concurrent closed-loop links.
    pub links: usize,
    /// Decoder beam width `B`.
    pub beam: u32,
    /// Payload bytes per flow (CRC-16 framing adds two on the wire).
    pub payload_bytes: usize,
    /// Symbols per client tick.
    pub burst: usize,
    /// Mix feedback modes and pipes by link: every 3rd link NACK with a
    /// 15% drop plan, every 7th cumulative ACK, every 5th over a chunked
    /// pipe. Otherwise every link is ACK-only over a plain connection.
    pub feedback_mix: bool,
    /// AWGN at this SNR on every symbol, seeded per flow.
    pub snr_db: Option<f64>,
    /// Server shards; above 1 the server ticks with `tick_sharded`.
    pub shards: usize,
    /// Localhost TCP instead of in-process loopback pipes.
    pub tcp: bool,
    /// Unmeasured rounds before the restart phase (at least
    /// [`STAGGER_ROUNDS`]).
    pub warmup_rounds: u64,
    /// Kills in the restart phase.
    pub kills: u64,
    /// Rounds between kills in the restart phase.
    pub kill_every: u64,
    /// Steady rounds per second of run time: sized so that a whole run,
    /// restart phase included, takes about its seconds on the 2-vCPU
    /// Xeon host the benchmark was tuned on.
    pub rounds_per_s: f64,
    /// Windows the steady phase is split into: as many as leave each
    /// window over a thousand flows, so its p99 has ten beyond it.
    pub windows: u64,
    /// Timed set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
}

/// Every workload `--workload` accepts. `BENCHMARK.json` gates the two
/// loopback fleets; on the shared 2-vCPU host the benchmark was tuned
/// on, the other two swing past any bound the gate allows, so they are
/// run by hand. `awgn-sharded`: `tick_sharded` spawns a thread per shard
/// every tick, and its wall-clock metrics spread 12-41% across runs.
/// `tcp-pair`: socket calls slow by up to 1.8x with the host's load, so
/// its throughput and latency spread 29-46% across runs in two sets of
/// three.
pub const WORKLOADS: [Shape; 4] = [
    Shape {
        name: "clean-fleet",
        why: "1024 clean-I/Q loopback links at B=4 with the NACK/cum-ACK/chunked mix on serial \
              ticks: first attempts dominate, sessions overflow the caches; kills every 4 ticks",
        links: 1024,
        beam: 4,
        payload_bytes: 4,
        burst: 8,
        feedback_mix: true,
        snr_db: None,
        shards: 1,
        tcp: false,
        warmup_rounds: 12,
        kills: 16,
        kill_every: 4,
        rounds_per_s: 8.5,
        windows: 15,
        setup_reps: 101,
    },
    Shape {
        name: "awgn-fleet",
        why: "64 loopback links over 10 dB AWGN at B=16 with 48-bit payloads and the same mix on \
              serial ticks: the paper's noisy regime, where retries and checkpoints carry the work",
        links: 64,
        beam: 16,
        payload_bytes: 6,
        burst: 8,
        feedback_mix: true,
        snr_db: Some(10.0),
        shards: 1,
        tcp: false,
        warmup_rounds: 60,
        kills: 32,
        kill_every: 8,
        rounds_per_s: 50.0,
        windows: 15,
        setup_reps: 401,
    },
    Shape {
        name: "tcp-pair",
        why: "2 localhost TCP links, a new socket per flow, 16-symbol bursts that decode first \
              try: connect, accept, socket I/O and framing carry the time",
        links: 2,
        beam: 4,
        payload_bytes: 4,
        burst: 16,
        feedback_mix: false,
        snr_db: None,
        shards: 1,
        tcp: true,
        warmup_rounds: 2000,
        kills: 2000,
        kill_every: 16,
        rounds_per_s: 16_000.0,
        windows: 60,
        setup_reps: 1001,
    },
    Shape {
        name: "awgn-sharded",
        why: "awgn-fleet on 2 shards through tick_sharded: the one multi-core shape, run by hand \
              because its wall-clock metrics are not steady on a shared 2-vCPU host",
        links: 64,
        beam: 16,
        payload_bytes: 6,
        burst: 8,
        feedback_mix: true,
        snr_db: Some(10.0),
        shards: 2,
        tcp: false,
        warmup_rounds: 60,
        kills: 32,
        kill_every: 8,
        rounds_per_s: 50.0,
        windows: 15,
        setup_reps: 401,
    },
];

/// Looks a workload up by name.
pub fn shape(name: &str) -> Option<Shape> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

impl Shape {
    /// The steady rounds a run of `seconds` makes: the same on every
    /// host, so a faster program finishes sooner instead of serving
    /// different flows.
    pub fn steady_rounds(&self, seconds: f64) -> u64 {
        ((seconds * self.rounds_per_s).round() as u64).max(1)
    }
}

/// Knobs of one run besides the workload and its round count.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Workload seed: payloads, noise, fault plans and pipe chunking all
    /// derive from it.
    pub seed: u64,
    /// Overrides the workload's link count (small test runs).
    pub links: Option<usize>,
    /// Overrides the timed set-up count; the last set-up's fleet runs
    /// the workload.
    pub setup_reps: Option<usize>,
    /// Overrides the warm-up round count.
    pub warmup_rounds: Option<u64>,
    /// Overrides the restart phase's kill count.
    pub kills: Option<u64>,
    /// Test hook: every n-th flow's *expected* payload has a bit
    /// flipped, so its verdict must count as a mismatch.
    pub corrupt_expected_every: Option<u64>,
}

impl Options {
    /// Defaults for `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            links: None,
            setup_reps: None,
            warmup_rounds: None,
            kills: None,
            corrupt_expected_every: None,
        }
    }
}

/// Flow outcomes, counted as verdicts arrive.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Flows whose connection was attempted.
    pub started: u64,
    /// Verdicts `Decoded` with the payload that was sent.
    pub delivered: u64,
    /// Verdicts other than `Decoded`.
    pub not_decoded: u64,
    /// `Decoded` with a payload other than the one sent (a CRC-16 false
    /// accept).
    pub mismatched: u64,
    /// TCP connect or accept failures.
    pub connect_errors: u64,
    /// Decode attempts reported by ACK frames.
    pub attempts: u64,
    /// Delivered flows whose ACK reported attempts (cumulative-ACK
    /// verdicts carry none).
    pub attempt_flows: u64,
    /// Delivered flows whose latency was measured (started in the
    /// steady phase).
    pub timed: u64,
    /// Rounds from connection set-up to verdict, summed over timed
    /// flows.
    pub flow_rounds: u64,
}

impl Tally {
    /// Flows not delivered correctly.
    pub fn failed(&self) -> u64 {
        self.not_decoded + self.mismatched + self.connect_errors
    }

    /// Flows with a verdict (delivered or failed).
    pub fn finished(&self) -> u64 {
        self.delivered + self.failed()
    }

    fn since(&self, e: &Tally) -> Tally {
        Tally {
            started: self.started - e.started,
            delivered: self.delivered - e.delivered,
            not_decoded: self.not_decoded - e.not_decoded,
            mismatched: self.mismatched - e.mismatched,
            connect_errors: self.connect_errors - e.connect_errors,
            attempts: self.attempts - e.attempts,
            attempt_flows: self.attempt_flows - e.attempt_flows,
            timed: self.timed - e.timed,
            flow_rounds: self.flow_rounds - e.flow_rounds,
        }
    }
}

/// One equal share of the steady phase. End-to-end metrics are medians
/// over windows, so a burst of contention from outside the benchmark
/// spoils one window, not the run.
pub struct Window {
    /// Wall time of the window.
    pub wall_ns: u64,
    /// Flows whose verdict arrived in the window.
    pub tally: Tally,
    /// Median flow latency, connection set-up to verdict; `None` when
    /// no timed flow ended in the window.
    pub p50_ns: Option<f64>,
    /// 99th-percentile flow latency, unbounded when over 1% failed;
    /// `None` when no timed flow ended in the window.
    pub p99_ns: Option<f64>,
    /// Symbols the server ingested during the window.
    pub symbols_in: u64,
}

/// The steady phase's measurements.
pub struct Steady {
    /// Rounds run.
    pub rounds: u64,
    /// Wall time of the phase.
    pub wall_ns: u64,
    /// The phase in [`Shape::windows`] consecutive windows.
    pub windows: Vec<Window>,
    /// Flows whose verdict arrived in the phase.
    pub tally: Tally,
    /// Wall time of each server tick.
    pub tick_ns: Histogram,
    /// Server counters when the phase started.
    pub stats_start: ServeStats,
    /// Server counters when the phase ended.
    pub stats_end: ServeStats,
    /// Wall time spent opening connections.
    pub connect_ns: u64,
    /// Median over windows of each window's peak live heap, above the
    /// heap the benchmark held before building the server and its links.
    pub peak_heap: u64,
    /// Span totals over the phase (zero when untraced).
    pub trace: Totals,
}

/// The restart phase's measurements.
pub struct Restart {
    /// Kills made.
    pub kills: u64,
    /// Wall time of the phase.
    pub wall_ns: u64,
    /// Start of `snapshot_into` to every RESUME answered, per kill.
    pub outage_ns: Histogram,
    /// `snapshot_into`, per kill.
    pub write_ns: Histogram,
    /// Dropping the server plus `restore`, per kill.
    pub restore_ns: Histogram,
    /// The restored server's first tick, per kill.
    pub resume_tick_ns: Histogram,
    /// Snapshot bytes written, summed over kills.
    pub snapshot_bytes: u64,
    /// Sessions imaged (restored plus dropped), summed over kills.
    pub snapshot_sessions: u64,
    /// Sessions dropped by `restore`, summed over kills.
    pub restore_dropped: u64,
    /// Span totals over the phase (zero when untraced).
    pub trace: Totals,
}

/// What a run must repeat exactly when replayed on loopback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Server ticks through the end of the steady phase.
    pub ticks: u64,
    /// Symbols the server ingested.
    pub symbols_in: u64,
    /// Fold of every verdict: link, flow, outcome, symbols, attempts,
    /// payload check.
    pub verdicts: u64,
    /// Flows delivered intact.
    pub delivered: u64,
    /// Heap allocations from the start of warm-up.
    pub allocations: u64,
}

/// Everything one run measured.
pub struct RunResult {
    /// The workload run.
    pub shape: Shape,
    /// Links actually run.
    pub links: usize,
    /// Wall time of each timed set-up.
    pub setup_ns: Vec<u64>,
    /// The steady phase.
    pub steady: Steady,
    /// The restart phase.
    pub restart: Restart,
    /// Every flow of the run, drain included.
    pub total: Tally,
    /// The replay fingerprint (taken before the drain).
    pub fingerprint: Fingerprint,
    /// Server counters after the drain.
    pub final_stats: ServeStats,
}

impl Steady {
    /// How much counter `f` of the server's stats grew over the phase.
    pub fn stat(&self, f: impl Fn(&ServeStats) -> u64) -> u64 {
        f(&self.stats_end) - f(&self.stats_start)
    }
}

/// Runs `shape` once, with `steady_rounds` rounds in the steady phase.
///
/// # Errors
///
/// A message naming the first correctness check that failed: server
/// set-up, snapshot or restore errors, flows that never finish, an
/// unanswered RESUME, or a server whose books do not close.
pub fn run(
    shape: &Shape,
    opts: &Options,
    steady_rounds: u64,
    traced: bool,
) -> Result<RunResult, String> {
    if shape.tcp {
        run_with(shape, opts, steady_rounds, traced, || {
            let acceptor = TcpAcceptor::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
            let addr = acceptor
                .local_addr()
                .map_err(|e| format!("local_addr: {e}"))?;
            Ok(TcpConnector { acceptor, addr })
        })
    } else {
        let (seed, chunked) = (opts.seed, shape.feedback_mix);
        run_with(shape, opts, steady_rounds, traced, || {
            Ok(LoopbackConnector { seed, chunked })
        })
    }
}

/// Opens the two ends of a fresh connection.
trait Connector {
    type T: Transport + Send;

    /// Returns (client end, server end).
    fn open(&mut self, link: usize, flow: u64) -> Result<(Self::T, Self::T), SpinalError>;
}

struct LoopbackConnector {
    seed: u64,
    chunked: bool,
}

impl Connector for LoopbackConnector {
    type T = LoopbackTransport;

    fn open(&mut self, link: usize, flow: u64) -> Result<(Self::T, Self::T), SpinalError> {
        Ok(if self.chunked && link.is_multiple_of(5) {
            loopback_pair_chunked(PIPE_CAPACITY, flow_seed(self.seed, 93, link, flow))
        } else {
            loopback_pair(PIPE_CAPACITY)
        })
    }
}

struct TcpConnector {
    acceptor: TcpAcceptor,
    addr: SocketAddr,
}

impl Connector for TcpConnector {
    type T = TcpTransport;

    fn open(&mut self, _link: usize, _flow: u64) -> Result<(Self::T, Self::T), SpinalError> {
        let client = TcpTransport::connect(self.addr)?;
        for _ in 0..ACCEPT_POLLS {
            if let Some(server_end) = self.acceptor.accept()? {
                return Ok((client, server_end));
            }
            std::thread::yield_now();
        }
        Err(SpinalError::Wire {
            kind: WireErrorKind::Transport,
        })
    }
}

/// The benchmark's transport wrapper: spans and counts every call.
pub struct Metered<T>(T);

impl<T: Transport> Transport for Metered<T> {
    fn send(&mut self, bytes: &[u8]) -> Result<usize, SpinalError> {
        let r = span(Layer::Transport, || self.0.send(bytes));
        trace::io(*r.as_ref().unwrap_or(&0));
        r
    }

    fn recv(&mut self, out: &mut Vec<u8>) -> Result<usize, SpinalError> {
        let r = span(Layer::Transport, || self.0.recv(out));
        trace::io(0);
        r
    }
}

type Srv<C> = Server<Metered<<C as Connector>::T>>;
type Client<C> = ServeClient<Metered<<C as Connector>::T>>;

struct Link<C: Connector> {
    client: Option<Client<C>>,
    /// Rounds before the client is first ticked.
    hold: u64,
    expect: BitVec,
    flow: u64,
    started: Instant,
    started_round: u64,
}

struct Fleet<C: Connector> {
    shape: Shape,
    opts: Options,
    cfg: ServeConfig,
    conn: C,
    links: Vec<Link<C>>,
    rounds: u64,
    flows: u64,
    tally: Tally,
    verdicts: u64,
    measuring: bool,
    /// Round the steady phase started: only flows started from here on
    /// are timed, so no measured latency includes a restart.
    steady_from: u64,
    latency: Histogram,
    tick_ns: Histogram,
    connect_ns: u64,
    snapshot: Vec<u8>,
}

fn flow_seed(seed: u64, stream: u64, link: usize, flow: u64) -> u64 {
    derive_seed(derive_seed(seed, stream, link as u64), stream, flow)
}

fn outcome_code(o: Option<ClientOutcome>) -> u64 {
    match o {
        None => 0,
        Some(ClientOutcome::Decoded { .. }) => 1,
        Some(ClientOutcome::Busy) => 2,
        Some(ClientOutcome::Exhausted) => 3,
        Some(ClientOutcome::Abandoned) => 4,
        Some(ClientOutcome::ProtocolClosed) => 5,
        Some(ClientOutcome::TransportClosed) => 6,
        Some(ClientOutcome::Shed) => 7,
        Some(ClientOutcome::ResumeRejected) => 8,
    }
}

fn serve_config(shape: &Shape, seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig {
        shards: shape.shards,
        // Snapshots need a pinned secret for tokens to survive a restart.
        resume_secret: Some(derive_seed(seed, 94, 0)),
        ..ServeConfig::default()
    };
    cfg.pool.detach_ttl = DETACH_TTL_TICKS;
    cfg
}

impl<C: Connector> Fleet<C> {
    fn new(shape: &Shape, opts: &Options, conn: C) -> Self {
        let links = opts.links.unwrap_or(shape.links);
        Self {
            shape: *shape,
            opts: *opts,
            cfg: serve_config(shape, opts.seed),
            conn,
            links: (0..links)
                .map(|_| Link {
                    client: None,
                    hold: 0,
                    expect: BitVec::new(),
                    flow: 0,
                    started: Instant::now(),
                    started_round: 0,
                })
                .collect(),
            rounds: 0,
            flows: 0,
            tally: Tally::default(),
            verdicts: 0,
            measuring: false,
            steady_from: u64::MAX,
            latency: Histogram::unallocated(),
            tick_ns: Histogram::unallocated(),
            connect_ns: 0,
            snapshot: Vec::new(),
        }
    }

    fn client_config(&self, link: usize, flow: u64) -> ClientConfig {
        let mode = if !self.shape.feedback_mix {
            FeedbackMode::AckOnly
        } else if link.is_multiple_of(3) {
            FeedbackMode::Nack
        } else if link.is_multiple_of(7) {
            FeedbackMode::CumulativeAck { period: 3 }
        } else {
            FeedbackMode::AckOnly
        };
        ClientConfig {
            beam: self.shape.beam,
            burst: self.shape.burst,
            seed: flow_seed(self.opts.seed, 81, link, flow),
            mode,
            ..ClientConfig::default()
        }
    }

    /// Opens link `i`'s next flow.
    fn start(&mut self, i: usize, server: &mut Srv<C>) {
        self.flows += 1;
        self.tally.started += 1;
        let link = &mut self.links[i];
        link.flow += 1;
        let flow = link.flow;
        let seed = flow_seed(self.opts.seed, 82, i, flow);
        let payload = BitVec::from_bytes(&seed.to_le_bytes()[..self.shape.payload_bytes]);
        link.expect = payload.clone();
        if self
            .opts
            .corrupt_expected_every
            .is_some_and(|n| self.flows.is_multiple_of(n))
        {
            let bit = link.expect.get(0);
            link.expect.set(0, !bit);
        }
        link.started = Instant::now();
        link.started_round = self.rounds;
        let opened = span(Layer::Transport, || self.conn.open(i, flow));
        self.connect_ns += link.started.elapsed().as_nanos() as u64;
        let (local, remote) = match opened {
            Ok(ends) => ends,
            Err(_) => {
                self.tally.connect_errors += 1;
                self.verdicts = derive_seed(self.verdicts, i as u64, flow) ^ 0xC0;
                if self.measuring {
                    self.latency.record_unbounded();
                }
                return;
            }
        };
        span(Layer::Server, || server.add_connection(Metered(remote)));
        let ccfg = self.client_config(i, flow);
        let fault = (ccfg.mode == FeedbackMode::Nack).then(|| {
            FaultPlan::new(flow_seed(self.opts.seed, 84, i, flow)).with(LinkFault::Drop { p: 0.15 })
        });
        let noise = self
            .shape
            .snr_db
            .map(|db| AwgnChannel::from_snr_db(db, flow_seed(self.opts.seed, 85, i, flow)));
        let client = span(Layer::Client, || {
            let mut c = ServeClient::new(Metered(local), &ccfg, &payload)
                .expect("workload client shapes are valid");
            if let Some(plan) = &fault {
                c = c.with_fault(plan);
            }
            if let Some(mut ch) = noise {
                c = c.with_noise(Box::new(move |s| ch.transmit(s)));
            }
            c
        });
        self.links[i].client = Some(client);
    }

    /// Takes link `i`'s finished flow: checks the verdict, records it.
    fn finish(&mut self, i: usize) {
        let link = &mut self.links[i];
        let client = link.client.take().expect("finish needs an open flow");
        let elapsed = link.started.elapsed().as_nanos() as u64;
        let outcome = client.outcome();
        let intact = matches!(outcome, Some(ClientOutcome::Decoded { .. }))
            && client.decoded_payload() == Some(&link.expect);
        let (symbols, attempts) = match outcome {
            Some(ClientOutcome::Decoded {
                symbols_used,
                attempts,
            }) => (symbols_used, attempts),
            _ => (0, 0),
        };
        let mut v = derive_seed(self.verdicts, i as u64, link.flow);
        v = derive_seed(v, outcome_code(outcome), symbols);
        self.verdicts = derive_seed(v, u64::from(attempts), u64::from(intact));
        let rounds = self.rounds - link.started_round;
        let timed = self.measuring && link.started_round >= self.steady_from;
        span(Layer::Client, || drop(client));
        match outcome {
            Some(ClientOutcome::Decoded { .. }) if intact => {
                self.tally.delivered += 1;
                if timed {
                    self.tally.timed += 1;
                    self.tally.flow_rounds += rounds;
                }
                if attempts > 0 {
                    self.tally.attempts += u64::from(attempts);
                    self.tally.attempt_flows += 1;
                }
            }
            Some(ClientOutcome::Decoded { .. }) => self.tally.mismatched += 1,
            _ => self.tally.not_decoded += 1,
        }
        if timed {
            if intact {
                self.latency.record(elapsed);
            } else {
                self.latency.record_unbounded();
            }
        }
    }

    fn server_tick(&mut self, server: &mut Srv<C>, layer: Layer) {
        let t0 = Instant::now();
        let sharded = self.shape.shards > 1;
        span(layer, || {
            if sharded {
                server.tick_sharded();
            } else {
                server.tick();
            }
        });
        if self.measuring {
            self.tick_ns.record(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Ticks every client, replacing finished flows when `open_new`.
    fn client_round(&mut self, server: &mut Srv<C>, open_new: bool) {
        for i in 0..self.links.len() {
            let link = &mut self.links[i];
            if link.hold > 0 {
                link.hold -= 1;
                if link.hold == 0 {
                    link.started = Instant::now();
                    link.started_round = self.rounds;
                }
                continue;
            }
            let done = match link.client.as_mut() {
                Some(c) => {
                    span(Layer::Client, || c.tick());
                    c.is_done()
                }
                None => true,
            };
            if done {
                if self.links[i].client.is_some() {
                    self.finish(i);
                }
                if open_new {
                    self.start(i, server);
                }
            }
        }
        span(Layer::Server, || server.reap_closed());
    }

    fn round(&mut self, server: &mut Srv<C>, open_new: bool) {
        self.rounds += 1;
        self.server_tick(server, Layer::Server);
        self.client_round(server, open_new);
    }

    /// Kills the server and brings it back from its snapshot; every
    /// open flow reconnects. Returns the restored server.
    fn kill(&mut self, server: Srv<C>, rec: &mut Restart) -> Result<Srv<C>, String> {
        self.rounds += 1;
        let t0 = Instant::now();
        let before = server.stats();
        let mut server = server;
        span(Layer::Snapshot, || server.snapshot_into(&mut self.snapshot))
            .map_err(|e| format!("snapshot_into: {e}"))?;
        rec.write_ns.record(t0.elapsed().as_nanos() as u64);
        let t1 = Instant::now();
        let cfg = self.cfg;
        let image = &self.snapshot;
        let mut server = span(Layer::Snapshot, move || {
            drop(server);
            Server::restore(cfg, image)
        })
        .map_err(|e| format!("restore: {e}"))?;
        rec.restore_ns.record(t1.elapsed().as_nanos() as u64);
        let after = server.stats();
        rec.snapshot_bytes += self.snapshot.len() as u64;
        let dropped = after.restore_dropped - before.restore_dropped;
        rec.snapshot_sessions += after.restored - before.restored + dropped;
        rec.restore_dropped += dropped;

        let mut resuming = 0;
        for i in 0..self.links.len() {
            if self.links[i].client.is_none() {
                continue;
            }
            let flow = self.links[i].flow;
            let opened = span(Layer::Transport, || self.conn.open(i, flow));
            let Ok((local, remote)) = opened else {
                // The flow cannot reconnect: it fails as a connect error.
                let client = self.links[i].client.take();
                span(Layer::Client, || drop(client));
                self.tally.connect_errors += 1;
                self.verdicts = derive_seed(self.verdicts, i as u64, flow) ^ 0xC1;
                continue;
            };
            let client = self.links[i].client.as_mut().expect("checked open");
            span(Layer::Client, || drop(client.reconnect(Metered(local))));
            match client.resume_token() {
                Some(token) => {
                    span(Layer::Server, || {
                        server.add_resume_connection(Metered(remote), token)
                    });
                    resuming += 1;
                }
                None => {
                    span(Layer::Server, || server.add_connection(Metered(remote)));
                }
            }
            // Flush the RESUME (or replayed HELLO) onto the wire.
            span(Layer::Client, || client.tick());
        }

        let answered = |s: &Srv<C>| {
            let st = s.stats();
            (st.resumed - after.resumed) + (st.resume_rejected - after.resume_rejected)
        };
        let t2 = Instant::now();
        self.server_tick(&mut server, Layer::Snapshot);
        rec.resume_tick_ns.record(t2.elapsed().as_nanos() as u64);
        let mut extra = 0;
        while answered(&server) < resuming {
            if extra == MAX_RESUME_TICKS {
                return Err(format!(
                    "restored server answered {} of {resuming} RESUMEs in {MAX_RESUME_TICKS} ticks",
                    answered(&server)
                ));
            }
            extra += 1;
            self.rounds += 1;
            self.server_tick(&mut server, Layer::Snapshot);
        }
        rec.outage_ns.record(t0.elapsed().as_nanos() as u64);
        rec.kills += 1;
        Ok(server)
    }

    /// Finishes every open flow, lets the server retire what is left,
    /// and checks its books.
    fn drain(&mut self, mut server: Srv<C>) -> Result<ServeStats, String> {
        self.measuring = false;
        let mut n = 0;
        while self.links.iter().any(|l| l.client.is_some()) {
            if n == MAX_DRAIN_ROUNDS {
                return Err(format!(
                    "flows still open after {MAX_DRAIN_ROUNDS} drain rounds"
                ));
            }
            n += 1;
            self.round(&mut server, false);
        }
        // Closed connections are noticed, verdicts held for replay and
        // orphaned sessions expire after the detach TTL.
        for _ in 0..DETACH_TTL_TICKS + 4 {
            self.round(&mut server, false);
        }
        let st = server.stats();
        let ended =
            st.decoded + st.exhausted + st.abandoned + st.shed + st.expired + st.restore_dropped;
        if st.admitted != ended {
            return Err(format!(
                "conservation: admitted {} != decoded {} + exhausted {} + abandoned {} + shed {} \
                 + expired {} + restore_dropped {}",
                st.admitted,
                st.decoded,
                st.exhausted,
                st.abandoned,
                st.shed,
                st.expired,
                st.restore_dropped
            ));
        }
        if server.live_sessions() != 0 {
            return Err(format!(
                "{} sessions still live after the drain",
                server.live_sessions()
            ));
        }
        Ok(st)
    }
}

/// Builds the server and every link's first flow, up to the first tick.
fn set_up<C: Connector>(
    shape: &Shape,
    opts: &Options,
    conn: C,
) -> Result<(Fleet<C>, Srv<C>), String> {
    let mut fleet = Fleet::new(shape, opts, conn);
    let mut server: Srv<C> =
        span(Layer::Server, || Server::new(fleet.cfg)).map_err(|e| format!("Server::new: {e}"))?;
    for i in 0..fleet.links.len() {
        fleet.start(i, &mut server);
        fleet.links[i].hold = i as u64 % STAGGER_ROUNDS;
    }
    Ok((fleet, server))
}

fn run_with<C: Connector>(
    shape: &Shape,
    opts: &Options,
    steady_rounds: u64,
    traced: bool,
    mut connector: impl FnMut() -> Result<C, String>,
) -> Result<RunResult, String> {
    trace::set_enabled(false);
    // Every histogram the measured phases fill exists before set-up:
    // measuring allocates nothing, and the heap baseline taken before
    // the final set-up leaves the benchmark's own bookkeeping out of
    // the peak-heap metric.
    let n_windows = shape.windows.clamp(1, steady_rounds);
    let mut windows = Vec::with_capacity(n_windows as usize);
    let mut peaks = Vec::with_capacity(n_windows as usize);
    let mut restart = Restart {
        kills: 0,
        wall_ns: 0,
        outage_ns: Histogram::new(),
        write_ns: Histogram::new(),
        restore_ns: Histogram::new(),
        resume_tick_ns: Histogram::new(),
        snapshot_bytes: 0,
        snapshot_sessions: 0,
        restore_dropped: 0,
        trace: Totals::default(),
    };
    let latency = Histogram::new();
    let tick_ns = Histogram::new();

    let reps = opts.setup_reps.unwrap_or(shape.setup_reps).max(1);
    let mut setup_ns = Vec::with_capacity(reps);
    let mut built = None;
    let mut baseline = 0;
    for _ in 0..reps {
        // Every set-up but the last is timed and thrown away.
        drop(built.take());
        baseline = alloc::live_bytes();
        let t0 = Instant::now();
        let fleet = set_up(shape, opts, connector()?)?;
        setup_ns.push(t0.elapsed().as_nanos() as u64);
        built = Some(fleet);
    }
    let (mut fleet, mut server) = built.expect("the last rep builds the fleet");
    fleet.latency = latency;
    fleet.tick_ns = tick_ns;

    trace::set_enabled(traced);
    let allocs0 = alloc::allocations();
    let warmup = opts.warmup_rounds.unwrap_or(shape.warmup_rounds);
    for _ in 0..warmup {
        fleet.round(&mut server, true);
    }

    // Restart phase: a fixed number of kills, so every snapshot images a
    // server of the same age whatever the host's speed.
    let restart_trace = trace::totals();
    let restart_t0 = Instant::now();
    for _ in 0..opts.kills.unwrap_or(shape.kills) {
        server = fleet.kill(server, &mut restart)?;
        fleet.client_round(&mut server, true);
        for _ in 1..shape.kill_every {
            fleet.round(&mut server, true);
        }
    }
    restart.wall_ns = restart_t0.elapsed().as_nanos() as u64;
    restart.trace = trace::totals().since(&restart_trace);
    // The image buffer is the benchmark's, not the server's heap.
    fleet.snapshot = Vec::new();
    for _ in 0..STAGGER_ROUNDS {
        fleet.round(&mut server, true);
    }

    // Steady phase.
    fleet.measuring = true;
    fleet.steady_from = fleet.rounds;
    let steady_trace = trace::totals();
    let tally0 = fleet.tally;
    let stats_start = server.stats();
    let connect0 = fleet.connect_ns;
    alloc::reset_peak();
    let t0 = Instant::now();
    let mut rounds = 0u64;
    for w in 1..=n_windows {
        let tw = Instant::now();
        let tally_w = fleet.tally;
        let symbols_w = server.stats().symbols_in;
        while rounds < steady_rounds * w / n_windows {
            fleet.round(&mut server, true);
            rounds += 1;
        }
        peaks.push(alloc::peak_bytes().saturating_sub(baseline));
        alloc::reset_peak();
        let timed = fleet.latency.count() > 0;
        windows.push(Window {
            wall_ns: tw.elapsed().as_nanos() as u64,
            tally: fleet.tally.since(&tally_w),
            p50_ns: timed.then(|| fleet.latency.percentile(0.50)),
            p99_ns: timed.then(|| fleet.latency.percentile(0.99)),
            symbols_in: server.stats().symbols_in - symbols_w,
        });
        fleet.latency.clear();
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    fleet.measuring = false;
    let steady = Steady {
        rounds,
        wall_ns,
        windows,
        tally: fleet.tally.since(&tally0),
        tick_ns: std::mem::replace(&mut fleet.tick_ns, Histogram::unallocated()),
        stats_start,
        stats_end: server.stats(),
        connect_ns: fleet.connect_ns - connect0,
        peak_heap: {
            peaks.sort_unstable();
            peaks[peaks.len() / 2]
        },
        trace: trace::totals().since(&steady_trace),
    };
    trace::set_enabled(false);

    let end = server.stats();
    let fingerprint = Fingerprint {
        ticks: end.ticks,
        symbols_in: end.symbols_in,
        verdicts: fleet.verdicts,
        delivered: fleet.tally.delivered,
        allocations: alloc::allocations() - allocs0,
    };
    let final_stats = fleet.drain(server)?;
    Ok(RunResult {
        shape: *shape,
        links: fleet.links.len(),
        setup_ns,
        steady,
        restart,
        total: fleet.tally,
        fingerprint,
        final_stats,
    })
}
