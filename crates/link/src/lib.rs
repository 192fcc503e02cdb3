//! The link layer under spinal-code sessions: the feedback modes a
//! receiver can negotiate, and deterministic fault injection for the
//! data link.
//!
//! A rateless code needs feedback to stop: the sender streams symbols
//! until the receiver's acknowledgement arrives. [`FeedbackMode`] names
//! the three ways a receiver can answer; `spinal-serve` speaks them on
//! the wire (its `sim` module runs the §6 link experiments over a
//! server and a window of clients). [`fault`] degrades the data link
//! with composable, counter-seeded transforms — drop, duplicate,
//! reorder, burst corruption, stale slot labels.
//!
//! # Example
//!
//! ```
//! use spinal_link::{FaultPlan, FeedbackMode, LinkFault};
//!
//! // A cumulative-ACK session over a link that erases a fifth of its
//! // symbols; a probability outside [0, 1] is a typed error.
//! let mode = FeedbackMode::CumulativeAck { period: 4 };
//! let plan = FaultPlan::new(7).with(LinkFault::Drop { p: 0.2 });
//! assert!(plan.validate().is_ok());
//! let bad = FaultPlan::new(7).with(LinkFault::Drop { p: 1.2 });
//! assert!(bad.validate().is_err());
//! assert_ne!(mode, FeedbackMode::Nack);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;

pub use fault::{Delivery, FaultCounters, FaultPlan, FaultStream, LinkFault};

/// What the receiver sends on the reverse link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FeedbackMode {
    /// One ACK per decoded frame, re-ACKed on every later arrival for
    /// that frame (so a lost ACK is repaired by the sender's own
    /// continued transmissions).
    AckOnly,
    /// ACKs plus negative acknowledgements: when the receiver observes a
    /// gap in a frame's symbol sequence numbers it NACKs the first
    /// missing position, and the sender *seeks* its transmitter back
    /// to that position and replays from there.
    Nack,
    /// Periodic cumulative state: every `period` ticks the receiver
    /// reports whether the frame has decoded. Robust to arbitrary
    /// feedback loss (the next snapshot repeats the news) at the cost
    /// of up to one period of extra latency.
    CumulativeAck {
        /// Ticks between snapshots (≥ 1).
        period: u64,
    },
}
