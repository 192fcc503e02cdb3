//! The configuration and report of a §6 link run.
//!
//! [`LinkConfig`] is everything [`crate::sim::simulate_link`] varies:
//! the code, the channel, the feedback mode, a lossy and slow reverse
//! link, data-link faults, the sender window and the per-frame budgets.
//! [`LinkReport`] books where every requested frame ended and what the
//! run cost in symbols and ticks.

use spinal_core::decode::BeamConfig;
use spinal_core::error::SpinalError;
use spinal_core::frame::Checksum;
use spinal_core::map::LinearMapper;
use spinal_core::params::CodeParams;
use spinal_link::{FaultPlan, FeedbackMode};
use spinal_sim::engine::Accumulate;

use crate::transport::{ChaosEvent, ChaosPlan};

/// Configuration of a link run.
#[derive(Clone, Debug)]
pub struct LinkConfig {
    /// Payload bits per frame; the client adds 16 bits of CRC, and
    /// `payload_bits + 16` must divide by `k`.
    pub payload_bits: u32,
    /// Segment size `k`.
    pub k: u32,
    /// Linear-mapper bits per dimension `c` (`2..=16`).
    pub c: u32,
    /// Beam width the receiver decodes with.
    pub beam: u32,
    /// Channel SNR in dB.
    pub snr_db: f64,
    /// What the receiver sends on the reverse link.
    pub mode: FeedbackMode,
    /// Events at the server's end of every link (the plan's own seed
    /// is replaced per frame): [`ChaosEvent::FeedbackLoss`] and
    /// [`ChaosEvent::FeedbackDelay`] model a lossy, slow reverse link.
    pub feedback: ChaosPlan,
    /// Faults on the data link (the plan's own seed is replaced per
    /// frame).
    pub faults: FaultPlan,
    /// Sender window: frames in flight at once (1 = stop-and-wait).
    pub frames_in_flight: u32,
    /// The sender gives a frame up after sending this many of its
    /// symbols (the §3 "too much time has been spent" escape hatch),
    /// and the receiver exhausts it after receiving as many.
    pub max_symbols_per_frame: u64,
    /// The server abandons a frame after this many decode attempts;
    /// `u32::MAX` = unlimited.
    pub max_attempts_per_frame: u32,
}

impl LinkConfig {
    /// Checks the configuration with typed errors.
    ///
    /// # Errors
    ///
    /// [`SpinalError::AtLeastOne`] for an empty window or a zero symbol
    /// budget, attempt ceiling or cumulative-ACK period,
    /// [`SpinalError::BeamConfig`] for a zero beam,
    /// [`SpinalError::MapperDepth`] for `c` outside `2..=16`,
    /// [`SpinalError::Probability`] and [`SpinalError::AtLeastOne`] from
    /// the fault and feedback plans, and [`SpinalError::Param`] for a
    /// frame that does not split into `k`-bit segments.
    pub fn validate(&self) -> Result<(), SpinalError> {
        let counts = [
            ("sender window", u64::from(self.frames_in_flight)),
            ("per-frame symbol budget", self.max_symbols_per_frame),
            ("attempt ceiling", u64::from(self.max_attempts_per_frame)),
            (
                "cumulative-ACK period",
                match self.mode {
                    FeedbackMode::CumulativeAck { period } => period,
                    _ => 1,
                },
            ),
        ];
        if let Some(&(name, value)) = counts.iter().find(|&&(_, value)| value == 0) {
            return Err(SpinalError::AtLeastOne { name, value });
        }
        BeamConfig::with_beam(self.beam as usize).validate()?;
        LinearMapper::try_new(self.c)?;
        self.faults.validate()?;
        self.feedback.validate()?;
        CodeParams::builder()
            .message_bits(self.payload_bits + Checksum::Crc16.width() as u32)
            .k(self.k)
            .build()?;
        Ok(())
    }

    /// A small demonstration configuration: 16-bit payloads (32 framed
    /// bits), k = 4, c = 6, B = 8, ACK feedback held `feedback_delay`
    /// ticks, a clean data link.
    pub fn demo(snr_db: f64, feedback_delay: u64, frames_in_flight: u32) -> Self {
        let feedback = ChaosPlan::new(0).with(ChaosEvent::FeedbackDelay {
            ticks: feedback_delay,
        });
        Self {
            payload_bits: 16,
            k: 4,
            c: 6,
            beam: 8,
            snr_db,
            mode: FeedbackMode::AckOnly,
            feedback,
            faults: FaultPlan::default(),
            frames_in_flight,
            max_symbols_per_frame: 4000,
            max_attempts_per_frame: u32::MAX,
        }
    }
}

/// Results of a link run.
///
/// Every requested frame ends exactly one of delivered, exhausted (its
/// symbol budget ran out at either end) or abandoned (the server gave
/// it up at the attempt ceiling, or refused it).
/// `frames_misdecoded` counts delivered frames whose decoded payload
/// differs from the one sent (CRC false accepts); it is a subset of
/// `frames_delivered`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LinkReport {
    /// Frames the application offered.
    pub frames_requested: u32,
    /// Frames whose sender learned of their decode.
    pub frames_delivered: u32,
    /// Frames cut off by the per-frame symbol budget.
    pub frames_exhausted: u32,
    /// Frames the server abandoned or refused.
    pub frames_abandoned: u32,
    /// Delivered frames whose payload was wrong.
    pub frames_misdecoded: u32,
    /// Symbols the senders transmitted, replays and the symbols sent
    /// between a decode and its acknowledgement included.
    pub symbols_sent: u64,
    /// Of `symbols_sent`, symbols sent again after a NACK seek.
    pub symbols_replayed: u64,
    /// Per delivered frame, ticks from its first symbol to its sender
    /// learning of the decode, in completion order.
    pub completion_latency: Vec<u64>,
}

impl LinkReport {
    /// Correct payload bits delivered per transmitted symbol — the
    /// protocol's figure of merit (coding rate × protocol efficiency).
    pub fn goodput(&self, payload_bits: u32) -> f64 {
        if self.symbols_sent == 0 {
            return 0.0;
        }
        let good = self.frames_delivered - self.frames_misdecoded;
        f64::from(good) * f64::from(payload_bits) / self.symbols_sent as f64
    }

    /// Nearest-rank percentile of the completion latency (`q` in
    /// `[0, 1]`); `None` until a frame completes. Uses
    /// [`spinal_sim::stats::percentile_nearest_rank`], the percentile
    /// the workspace shares.
    pub fn latency_percentile(&self, q: f64) -> Option<u64> {
        let mut sorted = self.completion_latency.clone();
        spinal_sim::stats::percentile_nearest_rank(&mut sorted, q)
    }
}

/// Ensemble accumulation: counts add, latency vectors concatenate.
impl Accumulate for LinkReport {
    fn merge(&mut self, o: Self) {
        self.frames_requested += o.frames_requested;
        self.frames_delivered += o.frames_delivered;
        self.frames_exhausted += o.frames_exhausted;
        self.frames_abandoned += o.frames_abandoned;
        self.frames_misdecoded += o.frames_misdecoded;
        self.symbols_sent += o.symbols_sent;
        self.symbols_replayed += o.symbols_replayed;
        self.completion_latency.extend(o.completion_latency);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinal_core::params::ParamError;
    use spinal_link::LinkFault;

    #[test]
    fn demo_config_is_valid() {
        let cfg = LinkConfig::demo(10.0, 16, 4);
        assert_eq!((cfg.payload_bits + 16) % cfg.k, 0);
        assert_eq!(cfg.frames_in_flight, 4);
        cfg.validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_feedback_and_faults() {
        let mut cfg = LinkConfig::demo(10.0, 16, 4);
        cfg.feedback = cfg.feedback.with(ChaosEvent::FeedbackLoss { p: 1.5 });
        assert!(matches!(
            cfg.validate().unwrap_err(),
            SpinalError::Probability {
                name: "feedback loss",
                ..
            }
        ));
        cfg.feedback = ChaosPlan::new(0).with(ChaosEvent::FeedbackLoss { p: 0.1 });
        cfg.mode = FeedbackMode::CumulativeAck { period: 0 };
        assert!(matches!(
            cfg.validate().unwrap_err(),
            SpinalError::AtLeastOne {
                name: "cumulative-ACK period",
                ..
            }
        ));
        cfg.mode = FeedbackMode::Nack;
        cfg.faults = FaultPlan::new(0).with(LinkFault::Drop { p: -0.1 });
        assert!(matches!(
            cfg.validate().unwrap_err(),
            SpinalError::Probability {
                name: "link fault",
                ..
            }
        ));
        cfg.faults = FaultPlan::default();
        // 18 payload bits + CRC-16 = 34 framed bits: not a multiple of k = 4.
        cfg.payload_bits = 18;
        assert_eq!(
            cfg.validate().unwrap_err(),
            SpinalError::Param(ParamError::MessageNotSegmentMultiple {
                message_bits: 34,
                k: 4
            })
        );
        cfg.payload_bits = 48;
        cfg.validate().unwrap();
    }

    #[test]
    fn report_throughput_math() {
        let report = LinkReport {
            frames_requested: 10,
            frames_delivered: 8,
            frames_exhausted: 2,
            symbols_sent: 64,
            ..LinkReport::default()
        };
        assert!((report.goodput(16) - 8.0 * 16.0 / 64.0).abs() < 1e-12);
        // Mis-decoded frames deliver nothing.
        let misdecoded = LinkReport {
            frames_misdecoded: 1,
            ..report
        };
        assert!((misdecoded.goodput(16) - 7.0 * 16.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_zero() {
        let report = LinkReport::default();
        assert_eq!(report.goodput(16), 0.0);
        assert_eq!(report.latency_percentile(0.5), None);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let report = LinkReport {
            frames_requested: 5,
            frames_delivered: 5,
            completion_latency: vec![40, 10, 30, 20, 50],
            ..LinkReport::default()
        };
        let ranks = [0.0, 0.5, 0.99, 1.0].map(|q| report.latency_percentile(q));
        assert_eq!(ranks, [10, 30, 50, 50].map(Some));
    }

    #[test]
    fn reports_merge_componentwise() {
        let mut a = LinkReport {
            frames_requested: 10,
            frames_delivered: 8,
            frames_exhausted: 2,
            frames_misdecoded: 1,
            symbols_sent: 64,
            symbols_replayed: 10,
            completion_latency: vec![40, 10, 30],
            ..LinkReport::default()
        };
        let b = LinkReport {
            frames_requested: 3,
            frames_delivered: 1,
            frames_abandoned: 2,
            symbols_sent: 50,
            symbols_replayed: 4,
            completion_latency: vec![20],
            ..LinkReport::default()
        };
        Accumulate::merge(&mut a, b);
        let merged = LinkReport {
            frames_requested: 13,
            frames_delivered: 9,
            frames_exhausted: 2,
            frames_abandoned: 2,
            frames_misdecoded: 1,
            symbols_sent: 114,
            symbols_replayed: 14,
            completion_latency: vec![40, 10, 30, 20],
        };
        assert_eq!(a, merged);
    }
}
