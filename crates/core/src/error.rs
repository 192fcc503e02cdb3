//! The crate-wide typed error: every fallible constructor and entry
//! point across the workspace reports failures through [`SpinalError`].
//!
//! Before the session redesign, bad parameters died in `assert!`s
//! scattered across constructors — fine for experiments, fatal for a
//! long-running service where one malformed request must not take the
//! process down. Every validation that used to panic now surfaces as a
//! variant here; the panicking convenience constructors that remain
//! (e.g. [`crate::puncture::StridedPuncture::stride8`]) delegate to the
//! checked paths with known-good arguments.
//!
//! The enum is `#[non_exhaustive]`: downstream matches must carry a
//! wildcard arm, so the service can grow new failure modes without a
//! breaking release.

use crate::params::ParamError;
use crate::spine::SpineError;

/// What a wire-frame decoder found malformed (see
/// [`SpinalError::Wire`]). The service crate's framed byte format
/// reports every decode failure through one of these, so a server can
/// log, count, and close on malformed input without ever panicking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireErrorKind {
    /// The frame header did not start with the protocol magic.
    BadMagic,
    /// The header's version byte names a protocol revision this build
    /// does not speak.
    BadVersion,
    /// The header's frame-type byte is not a known frame.
    UnknownFrame,
    /// The header's payload length exceeds the negotiated frame cap
    /// (a length-prefix bomb, refused before any buffering).
    Oversized,
    /// The payload ended before the fields its header promised.
    Truncated,
    /// The payload's fields are structurally invalid (counts that do
    /// not match the length, out-of-range enum tags, non-finite
    /// symbol coordinates).
    Corrupt,
    /// The underlying byte transport failed or was closed by the peer.
    Transport,
}

impl std::fmt::Display for WireErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            WireErrorKind::BadMagic => "bad magic",
            WireErrorKind::BadVersion => "unsupported version",
            WireErrorKind::UnknownFrame => "unknown frame type",
            WireErrorKind::Oversized => "payload length over frame cap",
            WireErrorKind::Truncated => "truncated frame",
            WireErrorKind::Corrupt => "corrupt payload",
            WireErrorKind::Transport => "transport failed or closed",
        };
        f.write_str(s)
    }
}

/// What a server-snapshot decoder found unusable (see
/// [`SpinalError::Snapshot`]). A warm-restart restore reports every
/// whole-snapshot rejection through one of these; per-section damage is
/// not an error at all — it degrades to dropped sessions counted by the
/// restoring server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotErrorKind {
    /// The snapshot did not start with the snapshot magic.
    BadMagic,
    /// The header's version byte names a snapshot revision this build
    /// does not read.
    BadVersion,
    /// The bytes ended before the header (or a section header) its
    /// framing promised.
    Truncated,
    /// The header failed its CRC or carries structurally impossible
    /// fields; nothing under it can be trusted.
    Corrupt,
    /// Snapshotting requires a pinned resume secret
    /// (`ServeConfig::resume_secret`): tokens minted under a
    /// process-random secret could never be honoured by the restored
    /// process, so the snapshot would be dead on arrival.
    SecretNotPinned,
    /// The restoring server's pinned resume secret does not match the
    /// secret the snapshot was taken under, so none of its resume
    /// tokens would verify.
    SecretMismatch,
}

impl std::fmt::Display for SnapshotErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SnapshotErrorKind::BadMagic => "bad magic",
            SnapshotErrorKind::BadVersion => "unsupported version",
            SnapshotErrorKind::Truncated => "truncated snapshot",
            SnapshotErrorKind::Corrupt => "corrupt header",
            SnapshotErrorKind::SecretNotPinned => {
                "resume secret not pinned (process-random tokens cannot survive a restart)"
            }
            SnapshotErrorKind::SecretMismatch => "resume secret does not match the snapshot's",
        };
        f.write_str(s)
    }
}

/// Which serving-configuration rule a `ServeConfig` broke (see
/// [`SpinalError::Config`]). Reported at server construction, so a bad
/// deployment setting is named instead of surfacing later as a wire
/// error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigErrorKind {
    /// `shards` is zero: a server needs at least one event loop.
    ZeroShards,
    /// `egress_high_water` is zero or above `egress_capacity`: the
    /// backpressure mark must sit inside the egress queue.
    EgressWatermarks,
    /// An admission cap (`max_message_bits` or `max_beam`) is zero, so
    /// no HELLO could ever be admitted.
    ZeroCap,
    /// A lifecycle deadline (`keepalive_idle` or `idle_deadline`) is
    /// zero, so every connection would be idle on arrival.
    ZeroDeadline,
    /// `pool.max_sessions` is zero, so no session could ever be
    /// admitted.
    ZeroSessions,
}

impl std::fmt::Display for ConfigErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ConfigErrorKind::ZeroShards => "shards must be at least one",
            ConfigErrorKind::EgressWatermarks => {
                "egress_high_water must be at least one and at most egress_capacity"
            }
            ConfigErrorKind::ZeroCap => "max_message_bits and max_beam must be at least one",
            ConfigErrorKind::ZeroDeadline => {
                "keepalive_idle and idle_deadline must be at least one tick"
            }
            ConfigErrorKind::ZeroSessions => "pool.max_sessions must be at least one",
        };
        f.write_str(s)
    }
}

/// Everything that can go wrong constructing or driving a spinal codec.
#[derive(Clone, Copy, Debug, PartialEq)]
#[non_exhaustive]
pub enum SpinalError {
    /// Invalid code parameters (`k`, message length, …); see
    /// [`ParamError`] for the specific rule violated.
    Param(ParamError),
    /// A message's bit-length does not match its parameters.
    MessageLength {
        /// Expected number of bits (`params.message_bits()`).
        expected: u32,
        /// Actual number of bits supplied.
        got: usize,
    },
    /// An inconsistent [`crate::decode::BeamConfig`]: the beam width must
    /// be at least 1 and no larger than the frontier cap.
    BeamConfig {
        /// The rejected beam width.
        beam_width: usize,
        /// The rejected frontier cap.
        max_frontier: usize,
    },
    /// The ML decoder's node budget must be positive.
    NodeBudget,
    /// A puncturing stride outside the supported power-of-two range
    /// `2..=64`.
    Stride(u32),
    /// A linear mapper depth outside `2..=16` bits per dimension.
    MapperDepth {
        /// The rejected bits per dimension.
        c: u32,
    },
    /// An observation set sized for a different spine length than the
    /// code's.
    ObservationLevels {
        /// Levels the code expects (`params.n_segments()`).
        expected: u32,
        /// Levels the observation set was created for.
        got: u32,
    },
    /// A slot addressed a spine position outside the code.
    SlotOutOfRange {
        /// The offending spine position.
        t: u32,
        /// Number of valid positions.
        n_levels: u32,
    },
    /// A decode-attempt thinning factor below 1.0.
    AttemptGrowth(f64),
    /// A CRC-framed configuration whose message is not strictly longer
    /// than its checksum.
    CrcWidth {
        /// The configured message length (checksum included).
        message_bits: u32,
        /// The checksum width.
        crc_bits: u32,
    },
    /// A probability parameter outside `[0, 1]`.
    Probability {
        /// Which parameter (e.g. `"crossover"`, `"erasure"`).
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A noise variance below zero.
    NoiseVariance(f64),
    /// A fading coherence block of zero symbols.
    BlockLength(u32),
    /// A session was driven past a terminal [`crate::session::Poll`]
    /// (`Decoded` or `Exhausted`).
    SessionFinished,
    /// Admission control: a server shard already holds its configured
    /// ceiling of live sessions.
    PoolFull {
        /// Sessions currently resident.
        live: usize,
        /// The configured admission ceiling.
        max_sessions: usize,
    },
    /// A count parameter that must be at least one (sender windows,
    /// reorder windows, burst lengths, cumulative-ACK periods, …).
    AtLeastOne {
        /// Which parameter was zero.
        name: &'static str,
        /// The rejected value.
        value: u64,
    },
    /// A wire frame failed to decode (truncated, corrupt, oversized,
    /// wrong magic/version, or a dead transport); see [`WireErrorKind`].
    Wire {
        /// What was malformed.
        kind: WireErrorKind,
    },
    /// A server snapshot could not be taken or restored as a whole
    /// (section-level damage degrades instead of erroring); see
    /// [`SnapshotErrorKind`].
    Snapshot {
        /// What made the snapshot unusable.
        kind: SnapshotErrorKind,
    },
    /// A serving configuration broke one of its rules; see
    /// [`ConfigErrorKind`].
    Config {
        /// The rule that was broken.
        kind: ConfigErrorKind,
    },
}

impl std::fmt::Display for SpinalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpinalError::Param(e) => write!(f, "{e}"),
            SpinalError::MessageLength { expected, got } => {
                write!(f, "message has {got} bits, parameters require {expected}")
            }
            SpinalError::BeamConfig {
                beam_width,
                max_frontier,
            } => write!(
                f,
                "beam config invalid: beam_width {beam_width} must be >= 1 and <= max_frontier {max_frontier}"
            ),
            SpinalError::NodeBudget => write!(f, "ML node budget must be positive"),
            SpinalError::Stride(s) => write!(
                f,
                "puncturing stride must be a power of two in 2..=64, got {s}"
            ),
            SpinalError::MapperDepth { c } => write!(
                f,
                "linear mapper requires 2 <= c <= 16 bits per dimension, got {c}"
            ),
            SpinalError::ObservationLevels { expected, got } => write!(
                f,
                "observations sized for {got} levels, code has {expected}"
            ),
            SpinalError::SlotOutOfRange { t, n_levels } => {
                write!(f, "slot position {t} outside spine of {n_levels} levels")
            }
            SpinalError::AttemptGrowth(g) => {
                write!(f, "attempt growth must be >= 1.0, got {g}")
            }
            SpinalError::CrcWidth {
                message_bits,
                crc_bits,
            } => write!(
                f,
                "message of {message_bits} bits cannot carry a {crc_bits}-bit checksum"
            ),
            SpinalError::Probability { name, value } => {
                write!(f, "{name} probability must lie in [0, 1], got {value}")
            }
            SpinalError::NoiseVariance(v) => {
                write!(f, "noise variance must be non-negative, got {v}")
            }
            SpinalError::BlockLength(b) => {
                write!(f, "coherence block must span at least one symbol, got {b}")
            }
            SpinalError::SessionFinished => {
                write!(f, "session already returned a terminal poll")
            }
            SpinalError::PoolFull { live, max_sessions } => write!(
                f,
                "admission rejected: {live} live sessions at a ceiling of {max_sessions}"
            ),
            SpinalError::AtLeastOne { name, value } => {
                write!(f, "{name} must be at least one, got {value}")
            }
            SpinalError::Wire { kind } => {
                write!(f, "wire frame rejected: {kind}")
            }
            SpinalError::Snapshot { kind } => {
                write!(f, "server snapshot rejected: {kind}")
            }
            SpinalError::Config { kind } => {
                write!(f, "serving configuration rejected: {kind}")
            }
        }
    }
}

impl std::error::Error for SpinalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpinalError::Param(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParamError> for SpinalError {
    fn from(e: ParamError) -> Self {
        SpinalError::Param(e)
    }
}

impl From<SpineError> for SpinalError {
    fn from(e: SpineError) -> Self {
        match e {
            SpineError::MessageLength { expected, got } => {
                SpinalError::MessageLength { expected, got }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CodeParams;

    #[test]
    fn param_errors_convert_and_display() {
        let e: SpinalError = CodeParams::new(25, 8).unwrap_err().into();
        assert!(matches!(e, SpinalError::Param(_)));
        assert!(e.to_string().contains("not a multiple"));
        use std::error::Error;
        assert!(e.source().is_some());
    }

    #[test]
    fn spine_errors_convert() {
        let e: SpinalError = SpineError::MessageLength {
            expected: 24,
            got: 8,
        }
        .into();
        assert_eq!(
            e,
            SpinalError::MessageLength {
                expected: 24,
                got: 8
            }
        );
        assert!(e.to_string().contains("24"));
    }

    #[test]
    fn display_strings_name_the_offender() {
        assert!(SpinalError::Stride(6).to_string().contains('6'));
        assert!(SpinalError::BeamConfig {
            beam_width: 64,
            max_frontier: 8
        }
        .to_string()
        .contains("max_frontier"));
        assert!(SpinalError::Probability {
            name: "crossover",
            value: 1.5
        }
        .to_string()
        .contains("crossover"));
        assert!(SpinalError::SessionFinished
            .to_string()
            .contains("terminal"));
    }

    #[test]
    fn wire_errors_display_their_kind() {
        let kinds = [
            (WireErrorKind::BadMagic, "magic"),
            (WireErrorKind::BadVersion, "version"),
            (WireErrorKind::UnknownFrame, "unknown"),
            (WireErrorKind::Oversized, "cap"),
            (WireErrorKind::Truncated, "truncated"),
            (WireErrorKind::Corrupt, "corrupt"),
            (WireErrorKind::Transport, "transport"),
        ];
        for (kind, needle) in kinds {
            let e = SpinalError::Wire { kind };
            assert!(
                e.to_string().contains(needle),
                "{e} should mention {needle}"
            );
            // The enum stays `Copy` — pass by value twice.
            let copied = e;
            assert_eq!(copied, e);
        }
    }

    #[test]
    fn snapshot_errors_display_their_kind() {
        let kinds = [
            (SnapshotErrorKind::BadMagic, "magic"),
            (SnapshotErrorKind::BadVersion, "version"),
            (SnapshotErrorKind::Truncated, "truncated"),
            (SnapshotErrorKind::Corrupt, "corrupt"),
            (SnapshotErrorKind::SecretNotPinned, "pinned"),
            (SnapshotErrorKind::SecretMismatch, "match"),
        ];
        for (kind, needle) in kinds {
            let e = SpinalError::Snapshot { kind };
            assert!(
                e.to_string().contains(needle),
                "{e} should mention {needle}"
            );
            let copied = e;
            assert_eq!(copied, e);
        }
    }

    #[test]
    fn config_errors_display_their_rule() {
        let kinds = [
            (ConfigErrorKind::ZeroShards, "shards"),
            (ConfigErrorKind::EgressWatermarks, "egress_high_water"),
            (ConfigErrorKind::ZeroCap, "max_beam"),
            (ConfigErrorKind::ZeroDeadline, "idle_deadline"),
            (ConfigErrorKind::ZeroSessions, "max_sessions"),
        ];
        for (kind, needle) in kinds {
            let e = SpinalError::Config { kind };
            assert!(
                e.to_string().contains(needle),
                "{e} should mention {needle}"
            );
        }
    }
}
