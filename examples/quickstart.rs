//! Quickstart: one message, one AWGN channel, rateless operation —
//! through the streaming session API.
//!
//! Encodes a 24-bit message with the paper's Figure 2 code, opens a
//! sender session ([`spinal_codes::TxSession`]) and a receiver session
//! ([`spinal_codes::RxSession`]), streams symbols through an AWGN
//! channel one at a time, and polls the receiver until its genie says
//! stop (use `examples/session_link.rs` for the genie-free CRC
//! receiver). Shows the defining property of a rateless code: the
//! *same* sender code lands at whatever rate the channel supports —
//! and, through the session, each retry reuses the previous attempt's
//! tree work instead of re-searching from scratch.
//!
//! ```text
//! cargo run --release --example quickstart [-- <snr_db>]
//! ```

use spinal_codes::channel::{AwgnChannel, Channel};
use spinal_codes::info::awgn_capacity_db;
use spinal_codes::{AnyTerminator, BitVec, DecoderScratch, Poll, RxConfig, SpinalCode};

fn main() {
    let snr_db: f64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("SNR must be a number"))
        .unwrap_or(15.0);

    let code = SpinalCode::fig2(24, 2024).expect("24 bits, k=8 is valid");
    let message = BitVec::from_bytes(&[0xca, 0xfe, 0x42]);
    println!("message   : {message:?}");
    println!("code      : m=24, k=8, c=10, stride-8 puncturing, B=16 beam");
    println!(
        "channel   : AWGN at {snr_db} dB (capacity {:.2} bits/symbol)",
        awgn_capacity_db(snr_db)
    );

    let mut tx = code.tx_session(&message).expect("length matches");
    let mut rx = code
        .awgn_rx_session(
            AnyTerminator::genie(message.clone()),
            RxConfig {
                max_symbols: 5000,
                ..RxConfig::default()
            },
        )
        .expect("valid session configuration");
    let mut channel = AwgnChannel::from_snr_db(snr_db, 7);
    let mut scratch = DecoderScratch::new();

    loop {
        let (_slot, x) = tx.next_symbol();
        match rx
            .ingest(&mut scratch, &[channel.transmit(x)])
            .expect("session open")
        {
            Poll::NeedMore { .. } => continue,
            Poll::Decoded { symbols_used, .. } => {
                println!(
                    "decoded after {symbols_used} symbols -> rate {:.2} bits/symbol",
                    24.0 / symbols_used as f64
                );
                println!(
                    "decoder cost: {} tree edges",
                    rx.last_result().stats.nodes_expanded
                );
                return;
            }
            Poll::Exhausted { symbols_used } => {
                println!("gave up after {symbols_used} symbols (SNR too low for this budget)");
                return;
            }
        }
    }
}
