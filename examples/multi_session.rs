//! Multi-session decoding: 32 concurrent receivers over mixed links,
//! every decode attempt run through one lent scratch.
//!
//! The deployment story of §1 — a base station decoding many
//! spinal-coded flows at once. 16 AWGN flows at staggered SNRs and 16
//! BSC flows at staggered crossover probabilities each own their
//! receiver session; the loop lends every attempt the same
//! [`DecoderScratch`], which is tied to no symbol type, and every retry
//! decodes its session again from the root.
//!
//! Run with: `cargo run --release --example multi_session`

use spinal_codes::channel::{AwgnChannel, BscChannel, Channel};
use spinal_codes::{AnyTerminator, BeamConfig, BitVec, DecoderScratch, Poll, RxConfig, SpinalCode};
use spinal_core::decode::{AwgnCost, BscCost};
use spinal_core::hash::Lookup3;
use spinal_core::map::{BinaryMapper, LinearMapper};
use spinal_core::puncture::{NoPuncture, StridedPuncture};
use spinal_core::session::{RxSession, TxSession};

const FLOWS_PER_LINK: usize = 16;
const MESSAGE_BITS: u32 = 96;

/// One AWGN flow: sender, channel and receiver.
struct AwgnFlow {
    tx: TxSession<Lookup3, LinearMapper, StridedPuncture>,
    channel: AwgnChannel,
    rx: RxSession<Lookup3, LinearMapper, AwgnCost, StridedPuncture>,
    snr_db: f64,
}

/// One BSC flow: sender, channel and receiver.
struct BscFlow {
    tx: TxSession<Lookup3, BinaryMapper, NoPuncture>,
    channel: BscChannel,
    rx: RxSession<Lookup3, BinaryMapper, BscCost, NoPuncture>,
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
    // --- AWGN flows: 16 from 6 to 21 dB.
    let mut awgn_flows = Vec::new();
    for i in 0..FLOWS_PER_LINK as u64 {
        let snr_db = 6.0 + i as f64;
        let msg = message(i);
        let code = SpinalCode::fig2(MESSAGE_BITS, 100 + i).unwrap();
        awgn_flows.push(AwgnFlow {
            tx: code.tx_session(&msg).unwrap(),
            channel: AwgnChannel::from_snr_db(snr_db, 900 + i),
            rx: code
                .awgn_rx_session(
                    AnyTerminator::genie(msg),
                    RxConfig {
                        max_symbols: 4000,
                        ..RxConfig::default()
                    },
                )
                .unwrap(),
            snr_db,
        });
    }

    // --- BSC flows: 16 from p = 0.01 to 0.08, deep-first order.
    let mut bsc_flows = Vec::new();
    for i in 0..FLOWS_PER_LINK as u64 {
        let p = 0.01 + 0.0045 * i as f64;
        let msg = message(100 + i);
        let code = SpinalCode::bsc(MESSAGE_BITS, 4, 200 + i).unwrap();
        bsc_flows.push(BscFlow {
            tx: TxSession::new(code.encoder(&msg).unwrap(), NoPuncture::new()),
            channel: BscChannel::new(p, 700 + i),
            rx: RxSession::new(
                code.bsc_beam_decoder(BeamConfig::paper_default()).unwrap(),
                NoPuncture::new(),
                AnyTerminator::genie(msg),
                RxConfig {
                    max_symbols: 6000,
                    ..RxConfig::default()
                },
            )
            .unwrap(),
            p,
        });
    }

    // --- Round-robin: one sub-pass per live AWGN flow and one symbol
    // per live BSC flow per round (per-symbol feedback), every attempt
    // through the one scratch.
    let mut scratch = DecoderScratch::new();
    let mut sub = Vec::new();
    let mut live = 2 * FLOWS_PER_LINK;
    let mut round = 0u64;
    while live > 0 {
        round += 1;
        for flow in awgn_flows.iter_mut().filter(|f| !f.rx.is_finished()) {
            // Sub-pass granularity for the strided AWGN flows.
            flow.tx.next_subpass_into(&mut sub);
            if sub.is_empty() {
                continue;
            }
            let noisy: Vec<_> = sub.iter().map(|&(_, x)| flow.channel.transmit(x)).collect();
            if let Poll::Decoded {
                symbols_used,
                attempts,
            } = flow.rx.ingest(&mut scratch, &noisy).unwrap()
            {
                println!(
                    "awgn {:>5.1} dB  decoded: {:>4} symbols, {:>3} attempts, rate {:.2} b/s",
                    flow.snr_db,
                    symbols_used,
                    attempts,
                    f64::from(MESSAGE_BITS) / symbols_used as f64,
                );
                live -= 1;
            }
        }
        for flow in bsc_flows.iter_mut().filter(|f| !f.rx.is_finished()) {
            let (_slot, x) = flow.tx.next_symbol();
            if let Poll::Decoded {
                symbols_used,
                attempts,
            } = flow
                .rx
                .ingest(&mut scratch, &[flow.channel.transmit(x)])
                .unwrap()
            {
                println!(
                    "bsc  p={:.3}  decoded: {:>4} symbols, {:>3} attempts, rate {:.2} b/s",
                    flow.p,
                    symbols_used,
                    attempts,
                    f64::from(MESSAGE_BITS) / symbols_used as f64,
                );
                live -= 1;
            }
        }
        assert!(round < 20_000, "mixed fleet must drain");
    }

    println!("\n{round} rounds through one scratch");
}
