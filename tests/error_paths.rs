//! `SpinalError` coverage: every fallible constructor and entry point
//! rejects bad parameters with the *right* typed variant — and never
//! panics. Before the session redesign these were `assert!`s; a
//! production service must survive a malformed request.

use spinal_codes::sim::rateless::{run_bec_with, run_bsc_until, BscRatelessConfig, Termination};
use spinal_codes::sim::SimEngine;
use spinal_codes::{
    AnyTerminator, BeamConfig, BitVec, Checksum, CodeParams, MlConfig, ParamError, RxConfig,
    SpinalCode, SpinalError, StridedPuncture,
};
use spinal_codes::{DecoderScratch, IqSymbol, Slot};
use spinal_core::map::LinearMapper;
use spinal_link::{FaultPlan, FeedbackMode, LinkFault};
use spinal_serve::{
    loopback_pair, simulate_link, ChaosEvent, ChaosPlan, ClientConfig, LinkConfig, ServeClient,
};

#[test]
fn invalid_inputs_return_typed_errors_and_never_panic() {
    // --- Code parameters: k out of range, zero message, non-multiple. ---
    assert_eq!(
        CodeParams::new(24, 0).unwrap_err(),
        ParamError::KOutOfRange(0)
    );
    assert_eq!(
        SpinalCode::bsc(16, 17, 0).unwrap_err(),
        SpinalError::Param(ParamError::KOutOfRange(17))
    );
    assert_eq!(
        SpinalCode::fig2(0, 0).unwrap_err(),
        SpinalError::Param(ParamError::ZeroMessageBits)
    );
    assert_eq!(
        SpinalCode::fig2(25, 0).unwrap_err(),
        SpinalError::Param(ParamError::MessageNotSegmentMultiple {
            message_bits: 25,
            k: 8
        })
    );

    // --- Message length mismatches at every entry point that takes one. ---
    let code = SpinalCode::fig2(24, 1).unwrap();
    let short = BitVec::from_bytes(&[0xff]);
    let expected = SpinalError::MessageLength {
        expected: 24,
        got: 8,
    };
    assert_eq!(code.encoder(&short).unwrap_err(), expected);
    assert_eq!(code.tx_session(&short).unwrap_err(), expected);
    let good = BitVec::from_bytes(&[1, 2, 3]);
    let mut tx = code.tx_session(&good).unwrap();
    let err = tx.rebind(code.params(), *code.hash(), &short).unwrap_err();
    assert_eq!(err, expected);
    // A failed rebind leaves the session usable.
    let _ = tx.next_symbol();

    // --- Beam configuration. ---
    for (beam_width, max_frontier) in [(0usize, 16usize), (64, 8)] {
        let bad = BeamConfig {
            beam_width,
            max_frontier,
        };
        assert_eq!(
            bad.validate().unwrap_err(),
            SpinalError::BeamConfig {
                beam_width,
                max_frontier
            }
        );
        assert_eq!(
            code.awgn_beam_decoder(bad).unwrap_err(),
            SpinalError::BeamConfig {
                beam_width,
                max_frontier
            }
        );
    }

    // --- ML node budget. ---
    assert_eq!(
        code.awgn_ml_decoder(MlConfig { max_nodes: 0 }).unwrap_err(),
        SpinalError::NodeBudget
    );

    // --- Puncturing strides. ---
    for bad in [0u32, 1, 3, 6, 65, 128] {
        assert_eq!(
            StridedPuncture::new(bad).unwrap_err(),
            SpinalError::Stride(bad)
        );
    }

    // --- Session configuration. ---
    let err = code
        .awgn_rx_session(
            AnyTerminator::crc(Checksum::Crc16),
            RxConfig {
                attempt_growth: 0.99,
                ..RxConfig::default()
            },
        )
        .unwrap_err();
    assert_eq!(err, SpinalError::AttemptGrowth(0.99));

    // --- Simulation entry points: CRC width, probabilities. ---
    let engine = SimEngine::serial();
    let mut cfg = BscRatelessConfig::default_k4(16);
    cfg.termination = Termination::Crc(Checksum::Crc16);
    assert_eq!(
        run_bsc_until(&cfg, 0.1, 4, 1, &engine, None).unwrap_err(),
        SpinalError::CrcWidth {
            message_bits: 16,
            crc_bits: 16
        }
    );
    let cfg = BscRatelessConfig::default_k4(16);
    assert_eq!(
        run_bsc_until(&cfg, 1.5, 4, 1, &engine, None).unwrap_err(),
        SpinalError::Probability {
            name: "crossover",
            value: 1.5
        }
    );
    assert_eq!(
        run_bec_with(&cfg, -0.1, 4, 1, &engine).unwrap_err(),
        SpinalError::Probability {
            name: "erasure",
            value: -0.1
        }
    );
    let mut bad_growth = BscRatelessConfig::default_k4(16);
    bad_growth.attempt_growth = 0.5;
    assert_eq!(
        run_bsc_until(&bad_growth, 0.1, 4, 1, &engine, None).unwrap_err(),
        SpinalError::AttemptGrowth(0.5)
    );

    // --- Channel constructors. ---
    assert_eq!(
        spinal_codes::channel::BscChannel::try_new(2.0, 1).unwrap_err(),
        SpinalError::Probability {
            name: "crossover",
            value: 2.0
        }
    );
    assert_eq!(
        spinal_codes::channel::BecChannel::try_new(-1.0, 1).unwrap_err(),
        SpinalError::Probability {
            name: "erasure",
            value: -1.0
        }
    );
    assert_eq!(
        spinal_codes::channel::RayleighBlockFading::try_new(0, 1).unwrap_err(),
        SpinalError::BlockLength(0)
    );
    assert_eq!(
        spinal_codes::channel::AwgnChannel::try_from_sigma2(-0.5, 1).unwrap_err(),
        SpinalError::NoiseVariance(-0.5)
    );

    // --- Link experiments: one case per rule `LinkConfig` checks, each
    // breaking one field of the valid demo configuration. ---
    assert_eq!(LinkConfig::demo(10.0, 4, 1).validate(), Ok(()));
    let link_err = |edit: &dyn Fn(&mut LinkConfig)| {
        let mut link = LinkConfig::demo(10.0, 4, 1);
        edit(&mut link);
        simulate_link(&link, 2, 1).unwrap_err()
    };
    let at_least_one = |name| SpinalError::AtLeastOne { name, value: 0 };
    assert_eq!(
        link_err(&|l| l.frames_in_flight = 0),
        at_least_one("sender window")
    );
    assert_eq!(
        link_err(&|l| l.max_symbols_per_frame = 0),
        at_least_one("per-frame symbol budget")
    );
    assert_eq!(
        link_err(&|l| l.max_attempts_per_frame = 0),
        at_least_one("attempt ceiling")
    );
    assert_eq!(
        link_err(&|l| l.mode = FeedbackMode::CumulativeAck { period: 0 }),
        at_least_one("cumulative-ACK period")
    );
    // 17 payload bits + CRC-16 = 33 framed bits: not a multiple of k = 4.
    assert_eq!(
        link_err(&|l| l.payload_bits = 17),
        SpinalError::Param(ParamError::MessageNotSegmentMultiple {
            message_bits: 33,
            k: 4
        })
    );
    assert!(matches!(
        link_err(&|l| l.beam = 0),
        SpinalError::BeamConfig { beam_width: 0, .. }
    ));
    assert_eq!(link_err(&|l| l.c = 1), SpinalError::MapperDepth { c: 1 });
    assert_eq!(
        link_err(&|l| l.feedback = ChaosPlan::new(1).with(ChaosEvent::FeedbackLoss { p: 1.1 })),
        SpinalError::Probability {
            name: "feedback loss",
            value: 1.1
        }
    );
    assert_eq!(
        link_err(&|l| l.faults = FaultPlan::new(1).with(LinkFault::Drop { p: 1.5 })),
        SpinalError::Probability {
            name: "link fault",
            value: 1.5
        }
    );

    // --- Serving client: a mapper depth outside 2..=16 is a typed
    // error, as the same HELLO gets a typed close from the server. ---
    assert_eq!(
        LinearMapper::try_new(17).unwrap_err(),
        SpinalError::MapperDepth { c: 17 }
    );
    let (local, _remote) = loopback_pair(1 << 10);
    let client = ServeClient::new(
        local,
        &ClientConfig {
            c: 17,
            ..ClientConfig::default()
        },
        &BitVec::from_bytes(&[1, 2]),
    );
    assert_eq!(client.err(), Some(SpinalError::MapperDepth { c: 17 }));

    // --- Fault plans: probabilities and degenerate windows. ---
    let plan = FaultPlan::new(1).with(LinkFault::Drop { p: -0.2 });
    assert_eq!(
        plan.validate().unwrap_err(),
        SpinalError::Probability {
            name: "link fault",
            value: -0.2
        }
    );
    let plan = FaultPlan::new(1).with(LinkFault::Reorder { p: 0.1, window: 0 });
    assert_eq!(
        plan.validate().unwrap_err(),
        SpinalError::AtLeastOne {
            name: "reorder window",
            value: 0
        }
    );
    let plan = FaultPlan::new(1).with(LinkFault::Burst { p: 0.1, len: 0 });
    assert_eq!(
        plan.validate().unwrap_err(),
        SpinalError::AtLeastOne {
            name: "burst length",
            value: 0
        }
    );
    // --- A session given up by policy rejects further symbols. ---
    let code = SpinalCode::fig2(24, 1).unwrap();
    let mut rx = code
        .awgn_rx_session(
            AnyTerminator::genie(BitVec::from_bytes(&[1, 2, 3])),
            RxConfig::default(),
        )
        .unwrap();
    rx.absorb_at(&[(Slot::new(0, 0), IqSymbol::new(0.0, 0.0))])
        .unwrap();
    rx.abandon();
    assert!(rx.is_finished() && rx.is_abandoned() && rx.payload().is_none());
    assert_eq!(
        rx.absorb_at(&[(Slot::new(0, 0), IqSymbol::new(0.0, 0.0))])
            .unwrap_err(),
        SpinalError::SessionFinished
    );
    assert_eq!(
        rx.poll(&mut DecoderScratch::new()),
        None,
        "an abandoned session reports nothing, not even its last arrivals"
    );

    // --- Errors are real std errors with useful Display. ---
    let e: Box<dyn std::error::Error> = Box::new(SpinalError::Stride(6));
    assert!(e.to_string().contains("power of two"));
}

/// Every serving-configuration rule reports its own typed config error
/// — never the wire error a malformed frame gets — through both
/// `ServeConfig::validate` and `Server::new`.
#[test]
fn serve_config_rules_return_typed_config_errors() {
    use spinal_codes::serve::{LoopbackTransport, ServeConfig, Server};
    use spinal_codes::ConfigErrorKind;

    let base = ServeConfig::default();
    assert_eq!(base.validate(), Ok(()));
    let mut cases: Vec<(ServeConfig, ConfigErrorKind)> = vec![
        (
            ServeConfig { shards: 0, ..base },
            ConfigErrorKind::ZeroShards,
        ),
        (
            ServeConfig {
                egress_high_water: 0,
                ..base
            },
            ConfigErrorKind::EgressWatermarks,
        ),
        (
            ServeConfig {
                egress_high_water: 4096,
                egress_capacity: 4095,
                ..base
            },
            ConfigErrorKind::EgressWatermarks,
        ),
        (
            ServeConfig {
                max_message_bits: 0,
                ..base
            },
            ConfigErrorKind::ZeroCap,
        ),
        (
            ServeConfig {
                max_beam: 0,
                ..base
            },
            ConfigErrorKind::ZeroCap,
        ),
        (
            ServeConfig {
                keepalive_idle: 0,
                ..base
            },
            ConfigErrorKind::ZeroDeadline,
        ),
        (
            ServeConfig {
                idle_deadline: 0,
                ..base
            },
            ConfigErrorKind::ZeroDeadline,
        ),
    ];
    let mut no_sessions = base;
    no_sessions.pool.max_sessions = 0;
    cases.push((no_sessions, ConfigErrorKind::ZeroSessions));
    for (cfg, kind) in cases {
        let expected = SpinalError::Config { kind };
        assert_eq!(cfg.validate().unwrap_err(), expected, "{kind:?}");
        assert_eq!(
            Server::<LoopbackTransport>::new(cfg).err(),
            Some(expected),
            "{kind:?}"
        );
    }
}
