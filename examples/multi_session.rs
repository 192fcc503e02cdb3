//! Multi-session decoding: one scheduler core serving 32 concurrent
//! receivers over mixed links.
//!
//! The deployment story of §1 — a base station decoding many
//! spinal-coded flows at once. Two [`MultiDecoder`] pools (one per
//! symbol type) serve 16 AWGN flows at staggered SNRs and 16 BSC flows
//! at staggered crossover probabilities. Every drive runs each due
//! attempt whole through the pool's one shared scratch, and retries
//! resume from per-session checkpoints.
//!
//! Run with: `cargo run --release --example multi_session`

use spinal_codes::channel::{AwgnChannel, BscChannel, Channel};
use spinal_codes::{
    AnyTerminator, BeamConfig, BitVec, MultiConfig, MultiDecoder, Poll, RxConfig, SessionEvent,
    SpinalCode,
};
use spinal_core::decode::{AwgnCost, BscCost};
use spinal_core::hash::Lookup3;
use spinal_core::map::{BinaryMapper, LinearMapper};
use spinal_core::puncture::{NoPuncture, StridedPuncture};
use spinal_core::session::{RxSession, TxSession};

const FLOWS_PER_LINK: usize = 16;
const MESSAGE_BITS: u32 = 96;

/// One flow's sender side plus its channel.
struct AwgnFlow {
    tx: TxSession<Lookup3, LinearMapper, StridedPuncture>,
    channel: AwgnChannel,
    snr_db: f64,
}

struct BscFlow {
    tx: TxSession<Lookup3, BinaryMapper, NoPuncture>,
    channel: BscChannel,
    p: f64,
}

fn message(i: u64) -> BitVec {
    let mut m = BitVec::new();
    for b in 0..u64::from(MESSAGE_BITS) {
        m.push(
            (i + 1)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .rotate_left((b % 61) as u32)
                & 1
                == 1,
        );
    }
    m
}

fn main() {
    // --- AWGN pool: 16 flows from 6 to 21 dB.
    let mut awgn_pool: MultiDecoder<Lookup3, LinearMapper, AwgnCost, StridedPuncture> =
        MultiDecoder::new(MultiConfig::default());
    let mut awgn_flows = Vec::new();
    let mut awgn_ids = Vec::new();
    for i in 0..FLOWS_PER_LINK as u64 {
        let snr_db = 6.0 + i as f64;
        let msg = message(i);
        let code = SpinalCode::fig2(MESSAGE_BITS, 100 + i).unwrap();
        awgn_flows.push(AwgnFlow {
            tx: code.tx_session(&msg).unwrap(),
            channel: AwgnChannel::from_snr_db(snr_db, 900 + i),
            snr_db,
        });
        let rx = code
            .awgn_rx_session(
                AnyTerminator::genie(msg),
                RxConfig {
                    max_symbols: 4000,
                    ..RxConfig::default()
                },
            )
            .unwrap();
        awgn_ids.push(awgn_pool.insert(rx).unwrap());
    }

    // --- BSC pool: 16 flows from p = 0.01 to 0.08, deep-first order.
    let mut bsc_pool: MultiDecoder<Lookup3, BinaryMapper, BscCost, NoPuncture> =
        MultiDecoder::new(MultiConfig::default());
    let mut bsc_flows = Vec::new();
    let mut bsc_ids = Vec::new();
    for i in 0..FLOWS_PER_LINK as u64 {
        let p = 0.01 + 0.0045 * i as f64;
        let msg = message(100 + i);
        let code = SpinalCode::bsc(MESSAGE_BITS, 4, 200 + i).unwrap();
        bsc_flows.push(BscFlow {
            tx: TxSession::new(code.encoder(&msg).unwrap(), NoPuncture::new()),
            channel: BscChannel::new(p, 700 + i),
            p,
        });
        let rx = RxSession::new(
            code.bsc_beam_decoder(BeamConfig::paper_default()).unwrap(),
            NoPuncture::new(),
            AnyTerminator::genie(msg),
            RxConfig {
                max_symbols: 6000,
                ..RxConfig::default()
            },
        )
        .unwrap();
        bsc_ids.push(bsc_pool.insert(rx).unwrap());
    }

    // --- Drive both pools round-robin: one symbol per live flow per
    // round (per-symbol feedback), one drive per pool per round.
    let mut events: Vec<SessionEvent> = Vec::new();
    let mut bsc_events: Vec<SessionEvent> = Vec::new();
    let mut sub = Vec::new();
    let mut live = 2 * FLOWS_PER_LINK;
    let mut round = 0u64;
    while live > 0 {
        round += 1;
        for (flow, &id) in awgn_flows.iter_mut().zip(&awgn_ids) {
            if awgn_pool.get(id).unwrap().is_finished() {
                continue;
            }
            // Sub-pass granularity for the strided AWGN flows.
            flow.tx.next_subpass_into(&mut sub);
            if sub.is_empty() {
                continue;
            }
            let noisy: Vec<_> = sub.iter().map(|&(_, x)| flow.channel.transmit(x)).collect();
            awgn_pool.ingest(id, &noisy).unwrap();
        }
        awgn_pool.drive_into(&mut events);
        for ev in &events {
            if let Some(Poll::Decoded {
                symbols_used,
                attempts,
            }) = ev.poll()
            {
                let lane = awgn_ids.iter().position(|&i| i == ev.id).unwrap();
                println!(
                    "awgn {:>5.1} dB  decoded: {:>4} symbols, {:>3} attempts, rate {:.2} b/s",
                    awgn_flows[lane].snr_db,
                    symbols_used,
                    attempts,
                    f64::from(MESSAGE_BITS) / symbols_used as f64,
                );
                live -= 1;
            }
        }

        for (flow, &id) in bsc_flows.iter_mut().zip(&bsc_ids) {
            if bsc_pool.get(id).unwrap().is_finished() {
                continue;
            }
            let (_slot, x) = flow.tx.next_symbol();
            bsc_pool.ingest(id, &[flow.channel.transmit(x)]).unwrap();
        }
        bsc_pool.drive_into(&mut bsc_events);
        for ev in &bsc_events {
            if let Some(Poll::Decoded {
                symbols_used,
                attempts,
            }) = ev.poll()
            {
                let lane = bsc_ids.iter().position(|&i| i == ev.id).unwrap();
                println!(
                    "bsc  p={:.3}  decoded: {:>4} symbols, {:>3} attempts, rate {:.2} b/s",
                    bsc_flows[lane].p,
                    symbols_used,
                    attempts,
                    f64::from(MESSAGE_BITS) / symbols_used as f64,
                );
                live -= 1;
            }
        }
        assert!(round < 20_000, "mixed fleet must drain");
    }

    // Pool-level accounting.
    println!(
        "\nawgn pool: {} rounds, {} KiB checkpoint memory",
        awgn_pool.rounds(),
        awgn_pool.checkpoint_bytes() / 1024,
    );
    println!(
        "bsc pool:  {} rounds, {} KiB checkpoint memory",
        bsc_pool.rounds(),
        bsc_pool.checkpoint_bytes() / 1024,
    );
    let resumed: u64 = bsc_ids
        .iter()
        .map(|&id| bsc_pool.get(id).unwrap().checkpoints().levels_resumed())
        .sum();
    let run: u64 = bsc_ids
        .iter()
        .map(|&id| bsc_pool.get(id).unwrap().checkpoints().levels_run())
        .sum();
    println!(
        "bsc pool:  {:.1}% of tree levels resumed from checkpoints",
        100.0 * resumed as f64 / (resumed + run) as f64
    );
}
