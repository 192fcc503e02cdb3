//! Micro-benchmark: sessions lending one decoder scratch vs the
//! one-at-a-time serving loop.
//!
//! One measured iteration decodes a fixed fleet of 16 same-shape
//! receivers with per-symbol feedback: first pass chunked, then one
//! symbol per session per round until genie acceptance. The sessions
//! run every retry incrementally and whole through the one scratch the
//! loop lends them; the baseline re-decodes each session from scratch
//! on every arrival.
//! The `bench_multi_session` binary runs the full fleet-size sweep and
//! writes `BENCH_multi_session.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spinal_channel::{AwgnChannel, Channel};
use spinal_core::bits::BitVec;
use spinal_core::decode::{
    AwgnCost, BeamConfig, BeamDecoder, DecodeResult, DecoderScratch, Observations,
};
use spinal_core::encode::Encoder;
use spinal_core::frame::AnyTerminator;
use spinal_core::hash::Lookup3;
use spinal_core::map::LinearMapper;
use spinal_core::params::CodeParams;
use spinal_core::puncture::{PunctureSchedule, StridedPuncture};
use spinal_core::session::{Poll, RxConfig, RxSession};
use spinal_core::symbol::Slot;
use spinal_core::IqSymbol;
use std::hint::black_box;

const MESSAGE_BITS: u32 = 128;
const K: u32 = 4;
const C: u32 = 8;
const SESSIONS: usize = 16;
const MAX_SYMBOLS: usize = 1200;

struct Flow {
    params: CodeParams,
    seed: u64,
    message: BitVec,
    stream: Vec<(Slot, IqSymbol)>,
}

fn build_flows() -> Vec<Flow> {
    let sched = StridedPuncture::stride8();
    (0..SESSIONS as u64)
        .map(|i| {
            let seed = 0xC0DE ^ (i * 0x9e37 + 1);
            let params = CodeParams::builder()
                .message_bits(MESSAGE_BITS)
                .k(K)
                .seed(seed)
                .build()
                .unwrap();
            let mut message = BitVec::new();
            for b in 0..u64::from(MESSAGE_BITS) {
                message.push(seed.rotate_left((b % 59) as u32) & 1 == 1);
            }
            let enc =
                Encoder::new(&params, Lookup3::new(seed), LinearMapper::new(C), &message).unwrap();
            let mut channel = AwgnChannel::from_snr_db(8.0, seed + 17);
            let mut stream = Vec::new();
            let mut slots = Vec::new();
            let mut g = 0u32;
            while stream.len() < MAX_SYMBOLS {
                sched.subpass_slots_into(params.n_segments(), g, &mut slots);
                for &slot in &slots {
                    stream.push((slot, channel.transmit(enc.symbol(slot))));
                }
                g += 1;
            }
            Flow {
                params,
                seed,
                message,
                stream,
            }
        })
        .collect()
}

fn decoder(flow: &Flow) -> BeamDecoder<Lookup3, LinearMapper, AwgnCost> {
    BeamDecoder::new(
        &flow.params,
        Lookup3::new(flow.seed),
        LinearMapper::new(C),
        AwgnCost,
        BeamConfig::paper_default(),
    )
    .unwrap()
}

fn bench_multi_session(c: &mut Criterion) {
    let mut group = c.benchmark_group("multi_session");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));

    let flows = build_flows();
    let pass = (MESSAGE_BITS / K) as usize;

    group.bench_function(BenchmarkId::new("shared_scratch", SESSIONS), |b| {
        let mut scratch = DecoderScratch::new();
        b.iter(|| {
            let mut sessions: Vec<_> = flows
                .iter()
                .map(|f| {
                    RxSession::new(
                        decoder(f),
                        StridedPuncture::stride8(),
                        AnyTerminator::genie(f.message.clone()),
                        RxConfig::default(),
                    )
                    .unwrap()
                })
                .collect();
            let mut live = SESSIONS;
            let mut chunk = Vec::new();
            for (f, rx) in flows.iter().zip(sessions.iter_mut()) {
                chunk.clear();
                chunk.extend(f.stream[..pass].iter().map(|&(_, y)| y));
                if let Poll::Decoded { .. } = rx.ingest(&mut scratch, &chunk).unwrap() {
                    live -= 1;
                }
            }
            let mut cursors = [pass; SESSIONS];
            while live > 0 {
                for (lane, (f, rx)) in flows.iter().zip(sessions.iter_mut()).enumerate() {
                    if rx.is_finished() {
                        continue;
                    }
                    let (_s, y) = f.stream[cursors[lane]];
                    cursors[lane] += 1;
                    if let Poll::Decoded { .. } = rx.ingest(&mut scratch, &[y]).unwrap() {
                        live -= 1;
                    }
                }
            }
            black_box(live)
        })
    });

    group.bench_function(BenchmarkId::new("one_at_a_time", SESSIONS), |b| {
        let decs: Vec<_> = flows.iter().map(decoder).collect();
        let mut scratch = DecoderScratch::new();
        let mut result = DecodeResult::default();
        b.iter(|| {
            let mut obs: Vec<Observations<IqSymbol>> = flows
                .iter()
                .map(|f| Observations::new(f.params.n_segments()))
                .collect();
            let mut done = [false; SESSIONS];
            let mut cursors = [pass; SESSIONS];
            let mut live = SESSIONS;
            for (lane, f) in flows.iter().enumerate() {
                for &(s, y) in &f.stream[..pass] {
                    obs[lane].push(s, y);
                }
                decs[lane].decode_into(&obs[lane], &mut scratch, &mut result);
                if result.message == f.message {
                    done[lane] = true;
                    live -= 1;
                }
            }
            while live > 0 {
                for (lane, f) in flows.iter().enumerate() {
                    if done[lane] {
                        continue;
                    }
                    let (s, y) = f.stream[cursors[lane]];
                    cursors[lane] += 1;
                    obs[lane].push(s, y);
                    decs[lane].decode_into(&obs[lane], &mut scratch, &mut result);
                    if result.message == f.message {
                        done[lane] = true;
                        live -= 1;
                    }
                }
            }
            black_box(live)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_multi_session);
criterion_main!(benches);
