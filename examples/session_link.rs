//! A full streaming session over a noisy channel: the rateless protocol
//! loop as a real receiver would run it.
//!
//! The sender opens a [`TxSession`] for a CRC-framed payload and streams
//! symbols; the receiver pushes each received symbol into an
//! [`RxSession`] and polls. No genie anywhere: termination is the CRC
//! check on the beam's candidates, exactly the paper's §3.2 receiver.
//! Every decode retry runs the beam search again from the root over
//! everything received so far.
//!
//! ```text
//! cargo run --release --example session_link [-- <snr_db>]
//! ```

use spinal_codes::channel::{AwgnChannel, Channel};
use spinal_codes::info::awgn_capacity_db;
use spinal_codes::{
    frame_encode, AnyTerminator, BitVec, Checksum, DecoderScratch, Poll, RxConfig, SpinalCode,
};

fn main() {
    let snr_db: f64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("SNR must be a number"))
        .unwrap_or(12.0);

    // 24 payload bits + CRC-16 = 40 framed bits, the spinal message.
    let payload = BitVec::from_bytes(&[0xca, 0xfe, 0x42]);
    let framed = frame_encode(&payload, Checksum::Crc16);
    let code = SpinalCode::fig2(framed.len() as u32, 2026).expect("valid fig2 configuration");

    println!("payload   : {payload:?}");
    println!(
        "framing   : CRC-16 -> {} framed bits, k=8, c=10, stride-8 puncturing",
        framed.len()
    );
    println!(
        "channel   : AWGN at {snr_db} dB (capacity {:.2} bits/symbol)",
        awgn_capacity_db(snr_db)
    );

    // Sender and receiver halves of the session.
    let mut tx = code.tx_session(&framed).expect("message matches code");
    let mut rx = code
        .awgn_rx_session(
            AnyTerminator::crc(Checksum::Crc16),
            RxConfig {
                max_symbols: 5000,
                ..RxConfig::default()
            },
        )
        .expect("valid session configuration");
    let mut channel = AwgnChannel::from_snr_db(snr_db, 7);
    let mut scratch = DecoderScratch::new();

    // The protocol loop: one symbol per feedback round.
    loop {
        let (_slot, x) = tx.next_symbol();
        match rx
            .ingest(&mut scratch, &[channel.transmit(x)])
            .expect("session open")
        {
            Poll::NeedMore { .. } => continue,
            Poll::Decoded {
                symbols_used,
                attempts,
            } => {
                let decoded = rx.payload().expect("decoded session has a payload");
                println!(
                    "decoded after {symbols_used} symbols / {attempts} attempts -> rate {:.2} payload bits/symbol",
                    payload.len() as f64 / symbols_used as f64
                );
                println!(
                    "payload ok : {} (CRC-verified, no genie)",
                    *decoded == payload
                );
                break;
            }
            Poll::Exhausted { symbols_used } => {
                println!("gave up after {symbols_used} symbols (SNR too low for this budget)");
                break;
            }
        }
    }

    // Bonus: the sender can replay any suffix after a NACK — position
    // marks are O(1), replay costs the same hashes as first transmission.
    let mark = tx.position();
    let a: Vec<_> = (0..4).map(|_| tx.next_symbol()).collect();
    tx.seek(mark);
    let b: Vec<_> = (0..4).map(|_| tx.next_symbol()).collect();
    assert_eq!(a, b, "replay after NACK is bit-identical");
    println!("replay     : 4 symbols after a simulated NACK matched exactly");
}
