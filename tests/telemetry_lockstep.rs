//! Model check for the telemetry hub under concurrent use.
//!
//! Four threads share one hub and run seeded streams of registrations,
//! `incr` and `set_gauge` calls over more than 768 counters and gauges
//! each — so the hub's value table grows while other threads update it.
//! A `BTreeMap` per instrument type is the model: counters count every
//! `incr` (commutative, so thread interleaving cannot matter), and each
//! gauge is set by one thread only, so its last write is well defined.
//! The hub's snapshots must equal the model, entry for entry, in the
//! model's iteration order — which is the name order the snapshots
//! promise.
//!
//! That the hub never steers the simulation is pinned separately, by
//! `golden_trace::telemetry_does_not_perturb_the_dispatch_trace`.

use std::collections::BTreeMap;
use std::sync::Barrier;

use rocescale_monitor::MetricsHub;
use rocescale_sim::SimRng;

const THREADS: u64 = 4;
const COUNTERS: u64 = 1000;
const GAUGES: u64 = 900;
const OPS_PER_THREAD: usize = 6000;

/// Instrument names in an order unrelated to their index, so neither
/// registration order nor id order is name order.
fn name(kind: &str, i: u64) -> String {
    format!("{kind}.{:04}", (i * 7919) % 10_000)
}

/// What one thread did: counter increments and gauge sets by name.
#[derive(Default)]
struct Model {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
}

/// Thread `t`'s seeded stream against `hub`, recorded into its model.
/// Gauges are partitioned by thread (index ≡ `t` mod [`THREADS`]).
fn drive(hub: &MetricsHub, t: u64) -> Model {
    let mut rng = SimRng::from_seed(0x7E1E_0000 + t);
    let mut model = Model::default();
    for _ in 0..OPS_PER_THREAD {
        match rng.gen_below(10) {
            0..=6 => {
                let n = name("c", rng.gen_below(COUNTERS));
                hub.incr(hub.counter(&n));
                *model.counters.entry(n).or_insert(0) += 1;
            }
            _ => {
                let i = rng.gen_below(GAUGES / THREADS) * THREADS + t;
                let n = name("g", i);
                let v = rng.gen_below(1 << 30) as f64 * 0.25;
                hub.set_gauge(hub.gauge(&n), v);
                model.gauges.insert(n, v);
            }
        }
    }
    model
}

#[test]
fn concurrent_updates_match_a_btreemap_model_across_bank_chunks() {
    let hub = MetricsHub::enabled();
    // Released together, so the streams overlap from their first op.
    let start = Barrier::new(THREADS as usize);
    let models: Vec<Model> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..THREADS)
            .map(|t| {
                let (hub, start) = (hub.clone(), &start);
                scope.spawn(move || {
                    start.wait();
                    drive(&hub, t)
                })
            })
            .collect();
        threads.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut model = Model::default();
    for m in models {
        for (n, by) in m.counters {
            *model.counters.entry(n).or_insert(0) += by;
        }
        // Gauge names are disjoint across threads.
        model.gauges.extend(m.gauges);
    }

    assert!(model.counters.len() > 768, "{}", model.counters.len());
    assert!(model.gauges.len() > 768, "{}", model.gauges.len());
    let counters: Vec<(String, u64)> = model.counters.into_iter().collect();
    let gauges: Vec<(String, f64)> = model.gauges.into_iter().collect();
    assert_eq!(hub.counters_snapshot(), counters);
    assert_eq!(hub.gauges_snapshot(), gauges);
}
