//! Session ⇔ batch equivalence: the determinism contract of the
//! streaming API.
//!
//! * Feeding a receiver session the same noisy symbol stream in **any
//!   chunking** — one symbol at a time, sub-pass by sub-pass, or all at
//!   once — must produce decode attempts that are **bit-identical**
//!   (message, cost bits, candidate list, work counters) to the batch
//!   `BeamDecoder::decode` over the same observation prefix: chunking
//!   decides only when attempts run, never what they compute.
//! * A `TxSession` that seeks back after a NACK must replay exactly the
//!   symbols a fresh encoder produces.

use proptest::prelude::*;
use spinal_codes::channel::{AwgnChannel, Channel};
use spinal_codes::{
    AnyTerminator, BeamConfig, BitVec, DecoderScratch, Poll, RxConfig, SpinalCode, TxPosition,
};

/// Runs one chunked session against a lock-step batch decoder and
/// checks bit-identity after every attempt. Returns the number of
/// attempts compared.
fn check_chunking(msg_bytes: &[u8], seed: u64, snr_db: f64, chunks: &[usize]) -> u32 {
    let code = SpinalCode::fig2(8 * msg_bytes.len() as u32, seed).unwrap();
    let message = BitVec::from_bytes(msg_bytes);
    let mut tx = code.tx_session(&message).unwrap();
    // Genie that never accepts (wrong truth), so every attempt of the
    // stream is compared rather than stopping at the first success.
    let mut never = message.clone();
    never.set(0, !never.get(0));
    let mut rx = code
        .awgn_rx_session(AnyTerminator::genie(never), RxConfig::default())
        .unwrap();

    // The lock-step batch decoder over the same prefix.
    let decoder = code.awgn_beam_decoder(BeamConfig::paper_default()).unwrap();
    let mut obs = code.observations();
    let mut scratch = DecoderScratch::new();
    let mut channel = AwgnChannel::from_snr_db(snr_db, seed ^ 0x5eed);

    let mut attempts = 0u32;
    for &n in chunks {
        // Draw the next `n` symbols of the stream through the channel.
        let mut syms = Vec::with_capacity(n);
        for _ in 0..n {
            let (slot, x) = tx.next_symbol();
            let y = channel.transmit(x);
            obs.push(slot, y);
            syms.push(y);
        }
        match rx.ingest(&mut scratch, &syms).unwrap() {
            Poll::NeedMore { symbols_consumed } => assert_eq!(symbols_consumed, n),
            other => panic!("never-accepting genie returned {other:?}"),
        }
        if n == 0 {
            continue;
        }
        // growth = 1.0: the session attempted after this ingest. Compare
        // against a from-scratch batch decode of the same prefix.
        attempts += 1;
        let batch = decoder.decode_with_scratch(&obs, &mut scratch);
        let inc = rx.last_result();
        assert_eq!(inc.message, batch.message, "chunking {chunks:?}");
        assert_eq!(inc.cost.to_bits(), batch.cost.to_bits());
        assert_eq!(inc.candidates, batch.candidates);
        assert_eq!(inc.stats, batch.stats, "stats are as-if-from-scratch");
    }
    assert_eq!(rx.attempts(), attempts);
    attempts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any chunking of the stream is bit-identical to batch decoding.
    #[test]
    fn prop_any_chunking_matches_batch(
        bytes in proptest::collection::vec(any::<u8>(), 3),
        seed in any::<u64>(),
        chunks in proptest::collection::vec(0usize..5, 4..10),
    ) {
        let total: usize = chunks.iter().sum();
        prop_assume!(total >= 1);
        check_chunking(&bytes, seed, 12.0, &chunks);
    }

    /// The three canonical chunkings (per symbol, per pass, all at once)
    /// agree with batch — and therefore with each other.
    #[test]
    fn prop_canonical_chunkings_match(bytes in proptest::collection::vec(any::<u8>(), 3),
                                      seed in any::<u64>()) {
        let n = 12usize;
        let per_symbol: Vec<usize> = vec![1; n];
        let per_pass: Vec<usize> = vec![3; n / 3];
        let all_at_once: Vec<usize> = vec![n];
        let a = check_chunking(&bytes, seed, 15.0, &per_symbol);
        let b = check_chunking(&bytes, seed, 15.0, &per_pass);
        let c = check_chunking(&bytes, seed, 15.0, &all_at_once);
        prop_assert_eq!(a, n as u32);
        prop_assert_eq!(b, (n / 3) as u32);
        prop_assert_eq!(c, 1u32);
    }

    /// TxSession replay after a NACK: seeking to any earlier position
    /// reproduces exactly what a fresh encoder emits from there.
    #[test]
    fn prop_tx_replay_matches_fresh_encoder(
        bytes in proptest::collection::vec(any::<u8>(), 3),
        seed in any::<u64>(),
        advance in 1usize..40,
        replay_len in 1usize..20,
    ) {
        let code = SpinalCode::fig2(24, seed).unwrap();
        let message = BitVec::from_bytes(&bytes);
        let mut tx = code.tx_session(&message).unwrap();
        for _ in 0..advance {
            tx.next_symbol();
        }
        let mark = tx.position();
        let first: Vec<_> = (0..replay_len).map(|_| tx.next_symbol()).collect();

        // NACK: rewind to the mark and replay.
        tx.seek(mark);
        let replay: Vec<_> = (0..replay_len).map(|_| tx.next_symbol()).collect();
        prop_assert_eq!(&first, &replay);

        // A completely fresh session advanced to the same position
        // agrees symbol for symbol (and slot for slot).
        let mut fresh = code.tx_session(&message).unwrap();
        fresh.seek(TxPosition::START);
        for _ in 0..advance {
            fresh.next_symbol();
        }
        let fresh_cont: Vec<_> = (0..replay_len).map(|_| fresh.next_symbol()).collect();
        prop_assert_eq!(first, fresh_cont);

        // Replay symbols always match the encoder's random access.
        tx.seek(mark);
        for _ in 0..replay_len {
            let (slot, sym) = tx.next_symbol();
            prop_assert_eq!(sym, tx.encoder().symbol(slot));
        }
    }

    /// The receiver-side slot cursor mirrors the schedule exactly:
    /// ingest-labelled observations equal explicitly slot-labelled ones.
    #[test]
    fn prop_cursor_labels_match_schedule(seed in any::<u64>(), n_syms in 1usize..30) {
        let code = SpinalCode::fig2(24, seed).unwrap();
        let message = BitVec::from_bytes(&[0x12, 0x34, 0x56]);
        let mut tx = code.tx_session(&message).unwrap();
        let mut by_cursor = code
            .awgn_rx_session(AnyTerminator::genie(message.clone()), RxConfig::default())
            .unwrap();
        let mut by_slots = code
            .awgn_rx_session(AnyTerminator::genie(message.clone()), RxConfig::default())
            .unwrap();
        let mut scratch = DecoderScratch::new();
        let mut done = false;
        for _ in 0..n_syms {
            let (slot, x) = tx.next_symbol();
            if done {
                break;
            }
            let a = by_cursor.ingest(&mut scratch, &[x]).unwrap();
            let b = by_slots.ingest_at(&mut scratch, &[(slot, x)]).unwrap();
            prop_assert_eq!(a, b);
            done = matches!(a, Poll::Decoded { .. } | Poll::Exhausted { .. });
            prop_assert_eq!(
                by_cursor.last_result().message.clone(),
                by_slots.last_result().message.clone()
            );
        }
    }
}
