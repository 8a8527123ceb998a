//! The serving determinism contract, end to end: for a fixed seed the
//! rendered report is byte-identical at any warm-pool thread count, and
//! the accounting invariant holds whatever the traffic shape.

use proptest::prelude::*;

use pimsim_arch::ArchConfig;
use pimsim_event::SimTime;
use pimsim_serve::{serve, ArrivalProcess, BatchPolicy, ServeConfig};

fn small_config() -> ServeConfig {
    let mut config = ServeConfig::new(vec![("tiny_mlp".to_string(), 64)]);
    config.arch = ArchConfig::small_test();
    config.duration = SimTime::from_us(200);
    config.rate_rps = 100_000.0;
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same seed, any thread count: the JSON is byte-identical — the
    /// CI determinism gate in test form.
    #[test]
    fn report_is_byte_identical_at_any_thread_count(
        seed in 0u64..1_000,
        threads in 1usize..8,
    ) {
        let mut config = small_config();
        config.seed = seed;
        let reference = serve(&config, 1).unwrap().to_json();
        let parallel = serve(&config, threads).unwrap().to_json();
        prop_assert_eq!(reference, parallel);
    }

    /// Every generated request is finished, dropped, or left in queue —
    /// none invented, none lost — across arrival processes, queue caps,
    /// batch policies, and drain modes.
    #[test]
    fn accounting_invariant_holds_for_any_traffic_shape(
        seed in 0u64..10_000,
        arrivals_idx in 0usize..ArrivalProcess::ALL.len(),
        rate in 20_000.0f64..400_000.0,
        queue_cap in 1u64..32,
        batch_max in 1u32..6,
        drain in any::<bool>(),
    ) {
        let mut config = small_config();
        config.seed = seed;
        config.arrivals = ArrivalProcess::ALL[arrivals_idx];
        config.rate_rps = rate;
        config.queue_cap = queue_cap;
        config.batch = BatchPolicy { max_size: batch_max, timeout: SimTime::from_us(20) };
        config.drain = drain;
        let report = serve(&config, 2).unwrap();
        prop_assert_eq!(
            report.generated,
            report.finished + report.dropped + report.in_queue
        );
        for net in &report.per_network {
            prop_assert_eq!(
                net.generated,
                net.finished + net.dropped + net.in_queue
            );
        }
        if drain {
            prop_assert_eq!(report.in_queue, 0);
        }
        prop_assert!(report.max_queue_depth <= queue_cap);
    }
}

/// The corners of the serving plane (rate far past capacity, a queue that
/// holds nothing or one request, no batching patience, a rate so low that
/// nothing arrives): the books balance, nothing panics, and every number
/// in the report is finite.
#[test]
fn corner_workloads_keep_the_books() {
    type Tweak = fn(&mut ServeConfig);
    let corners: [(&str, Tweak); 6] = [
        ("rate >> capacity", |c| c.rate_rps = 5e7),
        ("queue cap 0", |c| c.queue_cap = 0),
        ("queue cap 1", |c| c.queue_cap = 1),
        ("zero timeout", |c| c.batch.timeout = SimTime::ZERO),
        ("nothing arrives", |c| c.rate_rps = 1e-3),
        ("1/rate overflows", |c| c.rate_rps = 1e-300),
    ];
    for (name, tweak) in corners {
        for arrivals in ArrivalProcess::ALL {
            for drain in [true, false] {
                let mut config = small_config();
                config.arrivals = arrivals;
                config.drain = drain;
                config.instances = 2;
                tweak(&mut config);
                let ctx = format!("{name}, {arrivals}, drain {drain}");
                let report = serve(&config, 2).unwrap_or_else(|e| panic!("{ctx}: {e}"));
                for net in &report.per_network {
                    assert_eq!(
                        net.generated,
                        net.finished + net.dropped + net.in_queue,
                        "{ctx}"
                    );
                }
                assert!(report.max_queue_depth <= config.queue_cap, "{ctx}");
                match name {
                    "rate >> capacity" => assert!(report.dropped > report.finished, "{ctx}"),
                    "queue cap 0" => assert_eq!(report.dropped, report.generated, "{ctx}"),
                    "nothing arrives" | "1/rate overflows" => {
                        assert!(report.generated <= 1, "{ctx}: {}", report.generated)
                    }
                    _ => assert!(report.finished > 0, "{ctx}"),
                }
                let json = report.to_json();
                assert!(
                    !json.contains("NaN") && !json.contains("inf"),
                    "{ctx}: {json}"
                );
            }
        }
    }
}

/// A pinned regression for the tail-latency pipeline on a small zoo
/// network: seeds, rates and policies are fixed, so these exact numbers
/// must reproduce forever. If an intentional change to the arrival
/// generators, the queueing engine, or the percentile maths shifts them,
/// re-pin deliberately.
#[test]
fn tail_latency_is_pinned() {
    let config = small_config();
    let report = serve(&config, 2).unwrap();
    let net = &report.per_network[0];
    // The ordering invariants first, so a failure reads meaningfully.
    assert!(net.p50_latency_ns <= net.p95_latency_ns);
    assert!(net.p95_latency_ns <= net.p99_latency_ns);
    assert!(net.p99_latency_ns <= net.max_latency_ns);
    assert!(net.service_latency_ns <= net.p50_latency_ns);
    // The pinned values.
    let pinned = format!(
        "{} {} {} {:.3} {:.3} {:.3}",
        report.generated,
        report.finished,
        report.dropped,
        net.p50_latency_ns,
        net.p95_latency_ns,
        net.p99_latency_ns,
    );
    let rerun = serve(&config, 4).unwrap();
    let net2 = &rerun.per_network[0];
    assert_eq!(
        pinned,
        format!(
            "{} {} {} {:.3} {:.3} {:.3}",
            rerun.generated,
            rerun.finished,
            rerun.dropped,
            net2.p50_latency_ns,
            net2.p95_latency_ns,
            net2.p99_latency_ns,
        )
    );
    insta_pin(&pinned);
}

/// Asserts against the literal pinned string (kept out of the test body
/// so the value is easy to find and update).
fn insta_pin(actual: &str) {
    const PINNED: &str = "15 15 0 17811.699 54247.620 54247.620";
    assert_eq!(actual, PINNED, "pinned serving tail-latency regression");
}
