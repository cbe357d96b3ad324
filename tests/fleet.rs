//! Integration tests of the `uparc-fleet` rack-scale serving stack:
//! workload sharding determinism, router tie-breaks, worker-count
//! identity of a full fleet run, equivalence of the calibrated
//! operating-point tables against the frequency-only
//! `PowerAwarePolicy::plan_vf`, the router's model of the chips' working
//! sets against the chips' own (and a zero budget), the faulted path's
//! latency against the tables, the empty-workload error, and the chaos
//! layer (chip loss, failover accounting, power emergencies, graceful
//! degradation).

use uparc_repro::core::policy::{PlanQuery, PowerAwarePolicy, VfQuery};
use uparc_repro::core::recovery::RecoveryPolicy;
use uparc_repro::fleet::{
    synthetic_catalog, ChaosSpec, EmergencyWindow, Fleet, FleetConfig, FleetError,
    FleetWorkloadSpec, HealthConfig, PlanTables, RoutePolicy,
};
use uparc_repro::serve::request::BitstreamId;
use uparc_repro::sim::fault::FaultInjector;
use uparc_repro::sim::obs::{EventKind, Obs, TraceRecorder};
use uparc_repro::sim::power::calib;
use uparc_repro::sim::sweep;
use uparc_repro::sim::time::{Frequency, SimTime};

fn small_config(chips: usize, route: RoutePolicy) -> FleetConfig {
    FleetConfig {
        chips,
        rack_cap_mw: chips as f64 * 700.0,
        epoch: SimTime::from_us(50),
        chip_cache_bytes: 64 * 1024,
        route,
        min_frequency: Frequency::from_mhz(50.0),
        health: HealthConfig::default(),
        shed_backlog: None,
        failover_retries: 3,
    }
}

fn small_spec(requests: u64) -> FleetWorkloadSpec {
    FleetWorkloadSpec {
        requests,
        mean_gap: SimTime::from_ns(400),
        seed: 0xF1EE7,
    }
}

/// Sharded generation concatenates to exactly the sequential stream, so
/// any shard decomposition of the request range sees identical requests.
#[test]
fn workload_shards_concat_to_the_full_stream() {
    let catalog = synthetic_catalog(16, 12, 11);
    let ids = catalog.ids();
    let spec = small_spec(1000);
    let full = spec.generate(&ids);
    for shards in [2, 3, 7, 8] {
        let mut stitched = Vec::new();
        let per = 1000u64.div_ceil(shards);
        for s in 0..shards {
            let lo = s * per;
            let hi = ((s + 1) * per).min(1000);
            stitched.extend(spec.generate_range(lo..hi, &ids));
        }
        assert_eq!(stitched, full, "{shards}-way sharding changed the stream");
    }
}

/// The same spec + inventory is pure in the request index: arrivals are
/// non-decreasing and re-generation is identical.
#[test]
fn workload_generation_is_deterministic() {
    let catalog = synthetic_catalog(8, 10, 3);
    let ids = catalog.ids();
    let spec = small_spec(500);
    let a = spec.generate(&ids);
    let b = spec.generate(&ids);
    assert_eq!(a, b);
    for w in a.windows(2) {
        assert!(w[0].arrival <= w[1].arrival, "arrivals must be monotone");
    }
}

/// A full fleet run renders byte-identically when the worker pool is
/// pinned to 1 vs 8 — the tentpole determinism guarantee.
#[test]
fn fleet_outcome_is_identical_across_worker_counts() {
    let catalog = synthetic_catalog(24, 12, 29);
    let fleet = Fleet::new(
        catalog,
        small_config(
            6,
            RoutePolicy::Locality {
                spill_window: SimTime::from_us(5),
            },
        ),
    )
    .unwrap();
    let spec = small_spec(3000);

    sweep::pin_workers(1);
    let one = fleet.run(&spec).unwrap();
    sweep::pin_workers(8);
    let eight = fleet.run(&spec).unwrap();
    sweep::unpin_workers();

    assert_eq!(one, eight, "fleet outcome depends on worker count");
    assert_eq!(one.render(), eight.render());
    assert_eq!(one.completed, 3000);
    assert_eq!(one.cap_violations, 0, "rack cap violated");
    assert!(one.peak_power_mw <= one.rack_cap_mw + 1e-9);
}

/// Locality routing must beat seeded random routing on fleet cache hit
/// rate for a reuse-heavy workload (few images, many requests).
#[test]
fn locality_routing_beats_random_on_hit_rate() {
    let catalog = synthetic_catalog(32, 12, 41);
    let spec = small_spec(4000);
    let locality = Fleet::new(
        catalog.clone(),
        small_config(
            8,
            RoutePolicy::Locality {
                spill_window: SimTime::from_us(5),
            },
        ),
    )
    .unwrap()
    .run(&spec)
    .unwrap();
    let random = Fleet::new(catalog, small_config(8, RoutePolicy::Random { seed: 99 }))
        .unwrap()
        .run(&spec)
        .unwrap();
    assert_eq!(locality.completed, random.completed);
    // Both serve the same multiset of images, so the work checksum
    // (XOR fold of every served image) matches even though routing
    // (and therefore per-chip XOR partitioning) differs.
    assert!(
        locality.hit_rate > random.hit_rate,
        "locality hit rate {:.3} did not beat random {:.3}",
        locality.hit_rate,
        random.hit_rate
    );
    assert_eq!(locality.cap_violations, 0);
    assert_eq!(random.cap_violations, 0);
}

/// The router's model of each chip's working set must agree with the
/// chips' own request for request: on a quiet locality run every warm
/// route is a chip hit, and every cold or spilled route a miss. The
/// shapes evict heavily (a small catalog on few chips, and a large one on
/// many chips with a tight spill window), and the last chip budget is
/// smaller than one image, so neither side may admit it. Both sides run
/// one `Lru`, so the exact counts and image-fold checksum pin its
/// eviction rule: a change of victim moves them.
#[test]
fn router_cache_model_matches_the_chip_caches() {
    // ((images, frames per image, chips, chip cache bytes, spill window),
    //  (hits, misses, evictions, image-fold checksum))
    let shapes = [
        (
            (64, 12, 4, 32 * 1024, SimTime::from_us(5)),
            (2547, 2453, 2389, 0xbf90_faa7_cf62_0c20),
        ),
        (
            (256, 40, 16, 56 * 1024, SimTime::from_us(1)),
            (391, 4609, 4481, 0x55f2_6279_8116_5fb1),
        ),
        (
            (16, 40, 4, 4 * 1024, SimTime::from_us(5)),
            (0, 5000, 0, 0x2dce_6b7a_aad4_3770),
        ),
    ];
    for ((images, frames, chips, cache_bytes, spill_window), pinned) in shapes {
        let catalog = synthetic_catalog(images, frames, 71);
        let image_bytes = catalog.entry(BitstreamId(1)).unwrap().raw_bytes();
        let mut config = small_config(chips, RoutePolicy::Locality { spill_window });
        config.chip_cache_bytes = cache_bytes;
        let out = Fleet::new(catalog, config)
            .unwrap()
            .run(&small_spec(5000))
            .unwrap();
        let shape = format!("{images} images x {frames} frames on {chips} chips");
        assert_eq!(out.completed, 5000, "{shape}");
        assert_eq!(out.route.warm, out.hits, "{shape}: warm routes vs hits");
        assert_eq!(
            out.route.cold + out.route.spills,
            out.misses,
            "{shape}: cold and spilled routes vs misses"
        );
        if image_bytes > cache_bytes {
            assert_eq!(
                out.hits, 0,
                "{shape}: an image larger than the cache was admitted"
            );
        } else {
            assert!(out.evictions > 0, "{shape}: the caches never evicted");
        }
        assert_eq!(
            (out.hits, out.misses, out.evictions, out.checksum),
            pinned,
            "{shape}: hits, misses, evictions, checksum"
        );
    }
}

/// A zero chip-cache budget admits nothing on either side: every request
/// still completes, each one a miss that runs a real decode, and no route
/// is warm.
#[test]
fn a_zero_chip_cache_budget_serves_every_request_cold() {
    let catalog = synthetic_catalog(16, 12, 11);
    let mut config = small_config(
        4,
        RoutePolicy::Locality {
            spill_window: SimTime::from_us(5),
        },
    );
    config.chip_cache_bytes = 0;
    let out = Fleet::new(catalog, config)
        .unwrap()
        .run(&small_spec(500))
        .unwrap();
    assert_eq!(out.completed, 500);
    assert_eq!(out.hits, 0);
    assert_eq!(out.misses, out.completed);
    assert_eq!(out.evictions, 0);
    assert_eq!(out.route.warm, 0);
}

/// The calibrated table's cap-constrained selection picks the same
/// frequency as the planner's frequency-only `plan_vf` for caps that
/// land between grid points.
#[test]
fn plan_tables_match_plan_constrained() {
    let catalog = synthetic_catalog(4, 12, 53);
    let planner = PowerAwarePolicy::paper_setup(catalog.device().family());
    // Full grid (no fleet floor) so the comparison covers every point.
    let tables = PlanTables::build(&catalog, &planner, Frequency::from_hz(1)).unwrap();
    let id = BitstreamId(1);
    let entry = catalog.entry(id).unwrap();
    let facts = tables.facts(id);
    let extra = if facts.packed {
        calib::DECOMPRESSOR_MW_PER_MHZ * 100.0
    } else {
        0.0
    };
    let grid = tables.grid().to_vec();
    for i in 0..grid.len() {
        // A cap halfway between grid point i's power and the next
        // point's power admits exactly points 0..=i.
        let p_i = planner.predicted_power_mw(grid[i]);
        let p_next = grid
            .get(i + 1)
            .map_or(p_i + 10.0, |&f| planner.predicted_power_mw(f));
        let cap = (p_i + p_next) / 2.0 + extra;
        let picked = tables.select(facts, cap);
        let reference = planner.plan_vf(&VfQuery::frequency_only(PlanQuery {
            bytes: entry.raw_bytes(),
            max_frequency: facts.packed.then(|| Frequency::from_mhz(255.0)),
            power_cap_mw: Some(cap - extra),
            ..PlanQuery::default()
        }));
        match (picked, reference) {
            (Some(idx), Ok(plan)) => {
                assert_eq!(
                    tables.frequency(idx).as_mhz(),
                    plan.frequency.as_mhz(),
                    "cap {cap:.1} mW: table picked {:.1} MHz, planner {:.1} MHz",
                    tables.frequency(idx).as_mhz(),
                    plan.frequency.as_mhz()
                );
            }
            (None, Err(_)) => {}
            (t, p) => panic!(
                "cap {cap:.1} mW: table={t:?} planner-feasible={}",
                p.is_ok()
            ),
        }
    }
}

/// A faulted dispatch whose faults all miss still pays the recovery
/// ladder's post-success ECC verification, which the tables' bare
/// `reconfigure_bitstream` does not: on the faulted path's fresh scratch
/// lane it ends exactly one readback scan (`frames × frame_words + 2`
/// cycles at CLK_2) after the table latency, at every admissible grid
/// point. The tables measure one image per shape, so each image here is
/// its own catalog's only entry.
#[test]
fn faulted_path_pays_one_verification_scan_over_the_table_latency() {
    for (frames, seed) in [(12, 67), (40, 68), (64, 69)] {
        let catalog = synthetic_catalog(1, frames, seed);
        let planner = PowerAwarePolicy::paper_setup(catalog.device().family());
        let tables = PlanTables::build(&catalog, &planner, Frequency::from_mhz(50.0)).unwrap();
        let id = BitstreamId(1);
        let entry = catalog.entry(id).unwrap();
        let facts = tables.facts(id);
        let scan_cycles = u64::from(frames) * catalog.device().family().frame_words() as u64 + 2;
        for idx in 0..=tables.select(facts, f64::INFINITY).unwrap() {
            let f = tables.frequency(idx);
            let mut scratch = catalog.lane();
            scratch.set_reconfiguration_frequency(f).unwrap();
            scratch.attach_fault_injector(FaultInjector::empty());
            RecoveryPolicy::default()
                .reconfigure(&mut scratch, entry.bitstream(), entry.mode())
                .unwrap();
            assert_eq!(
                scratch.now(),
                tables.service(facts, idx) + f.time_of_cycles(scan_cycles),
                "{frames} frames at {:.2} MHz",
                f.as_mhz()
            );
        }
    }
}

/// Pins a small fleet's simulated outcome — completions, cache and
/// routing counts, energy, latency, peak power, the frequency mix and the
/// image-fold checksum — for one quiet locality run and one chip-loss
/// run. `PlanTables` tabulates the power and energy these digests sum,
/// so a change to the planner's numbers fails here. Recompute the
/// strings only for a change meant to move the fleet.
#[test]
fn fleet_outcome_digests_are_pinned() {
    let catalog = synthetic_catalog(24, 12, 29);
    let locality = RoutePolicy::Locality {
        spill_window: SimTime::from_us(5),
    };
    let spec = small_spec(1500);
    // A cap tight enough that chips trade clock for headroom, so the
    // digest carries a frequency mix rather than one ceiling clock.
    let mut config = small_config(6, locality);
    config.rack_cap_mw = 6.0 * 420.0;
    let quiet = Fleet::new(catalog.clone(), config)
        .unwrap()
        .run(&spec)
        .unwrap();
    assert_eq!(
        quiet.render(),
        "\
requests=1500 chips=6 completed=1500\n\
cache: hits=1393 misses=107 evictions=0 hit_rate=0.928667 decompressed_bytes=218708\n\
route: warm=1393 cold=24 spills=83\n\
sim: words=768000 makespan_us=4294.608 words_per_sec=178828901.2 energy_uj=6435.299\n\
latency_us: p50=1849.962 p95=3502.557 p99=3697.005 p999=3697.005\n\
power: peak_mw=2518.999 cap_mw=2520.000 violations=0 violations_emergency=0\n\
balance: min_chip=250 max_chip=250 mean_freq_mhz=86.85 checksum=cabfc4c104369dce\n\
chaos: chips_lost=0 quarantines=0 failovers=0 completed_failover=0\n\
shed: total=0 queue_full=0 no_live_chip=0 retries_exhausted=0 dispatch_failed=0\n\
recovery: faulted=0 healed=0 faults_applied=0 extra_time_us=0.000 extra_energy_uj=0.000\n\
degraded: completed=0 p99_steady_us=3697.005 p99_degraded_us=0.000\n\
"
    );
    let chaos = ChaosSpec {
        seed: 0xC4A05,
        horizon: SimTime::from_us(300),
        loss_permille: 220,
        ..ChaosSpec::quiet()
    };
    let lossy = Fleet::new(catalog, small_config(8, locality))
        .unwrap()
        .run_chaos(&spec, &chaos, &Obs::null())
        .unwrap();
    assert_eq!(
        lossy.render(),
        "\
requests=1500 chips=8 completed=1500\n\
cache: hits=1371 misses=130 evictions=0 hit_rate=0.913391 decompressed_bytes=265720\n\
route: warm=1409 cold=24 spills=110\n\
sim: words=768000 makespan_us=2825.319 words_per_sec=271827665.3 energy_uj=4865.372\n\
latency_us: p50=1103.812 p95=2138.913 p99=2227.716 p999=2227.716\n\
power: peak_mw=4819.636 cap_mw=5600.000 violations=0 violations_emergency=0\n\
balance: min_chip=12 max_chip=213 mean_freq_mhz=254.48 checksum=0eb9abb4ca77ff61\n\
chaos: chips_lost=1 quarantines=0 failovers=43 completed_failover=43\n\
shed: total=0 queue_full=0 no_live_chip=0 retries_exhausted=0 dispatch_failed=0\n\
recovery: faulted=0 healed=0 faults_applied=0 extra_time_us=0.000 extra_energy_uj=0.000\n\
degraded: completed=43 p99_steady_us=2227.716 p99_degraded_us=769.512\n\
"
    );
}

/// A chip-loss campaign keeps the accounting identity exact: every
/// request is completed (possibly after failover) or shed with a typed
/// reason, nothing lost, nothing double-served — and a single-digit
/// death toll costs less than 1% of completions.
#[test]
fn chip_loss_failover_keeps_accounting_exact() {
    let catalog = synthetic_catalog(24, 12, 29);
    let fleet = Fleet::new(
        catalog,
        small_config(
            8,
            RoutePolicy::Locality {
                spill_window: SimTime::from_us(5),
            },
        ),
    )
    .unwrap();
    let spec = small_spec(3000);
    let chaos = ChaosSpec {
        seed: 0xC4A05,
        horizon: SimTime::from_us(600),
        loss_permille: 220,
        ..ChaosSpec::quiet()
    };
    let out = fleet.run_chaos(&spec, &chaos, &Obs::null()).unwrap();
    assert!(out.chips_lost >= 1, "campaign killed no chip");
    assert!(out.failovers > 0, "no request survived via failover");
    assert!(out.completed_failover > 0);
    assert_eq!(out.completed + out.shed.total(), spec.requests);
    assert!(
        out.completed as f64 >= 0.99 * spec.requests as f64,
        "completion {}/{} under single-digit chip loss",
        out.completed,
        spec.requests
    );
    assert_eq!(out.cap_violations, 0, "rack cap violated during chaos");
    assert_eq!(out.cap_violations_emergency, 0);
}

/// The same chaos campaign renders byte-identically at 1 and 8 sweep
/// workers — chaos keeps the tentpole determinism guarantee.
#[test]
fn chaos_outcome_is_identical_across_worker_counts() {
    let catalog = synthetic_catalog(24, 12, 29);
    let fleet = Fleet::new(
        catalog,
        small_config(
            6,
            RoutePolicy::Locality {
                spill_window: SimTime::from_us(5),
            },
        ),
    )
    .unwrap();
    let spec = small_spec(2000);
    let chaos = ChaosSpec {
        seed: 0xDE7E12,
        horizon: SimTime::from_us(500),
        loss_permille: 200,
        wedge_permille: 300,
        wedge_window: SimTime::from_us(20),
        seu_permille: 300,
        seu_window: SimTime::from_us(40),
        seu_faults_per_request: 1,
        emergencies: vec![EmergencyWindow {
            from: SimTime::from_us(200),
            to: SimTime::from_us(400),
            cap_mw: 6.0 * 700.0 * 0.8,
        }],
        ..ChaosSpec::quiet()
    };
    sweep::pin_workers(1);
    let one = fleet.run_chaos(&spec, &chaos, &Obs::null()).unwrap();
    sweep::pin_workers(8);
    let eight = fleet.run_chaos(&spec, &chaos, &Obs::null()).unwrap();
    sweep::unpin_workers();
    assert_eq!(one, eight, "chaos outcome depends on worker count");
    assert_eq!(one.render(), eight.render());
}

/// A rack-level power emergency cuts the cap mid-run; the verifier
/// confirms the fleet never exceeded the emergency cap inside the
/// window (nor the steady cap outside it).
#[test]
fn power_emergency_respects_the_cut_cap() {
    let catalog = synthetic_catalog(24, 12, 31);
    let mut config = small_config(
        8,
        RoutePolicy::Locality {
            spill_window: SimTime::from_us(5),
        },
    );
    config.shed_backlog = Some(SimTime::from_us(40));
    let fleet = Fleet::new(catalog, config).unwrap();
    let spec = small_spec(3000);
    let emergency_cap = 8.0 * 700.0 * 0.75;
    let chaos = ChaosSpec {
        seed: 0xE4E6,
        horizon: SimTime::from_us(600),
        emergencies: vec![EmergencyWindow {
            from: SimTime::from_us(150),
            to: SimTime::from_us(450),
            cap_mw: emergency_cap,
        }],
        ..ChaosSpec::quiet()
    };
    let out = fleet.run_chaos(&spec, &chaos, &Obs::null()).unwrap();
    assert_eq!(out.cap_violations, 0);
    assert_eq!(
        out.cap_violations_emergency, 0,
        "draw exceeded the emergency cap inside its window"
    );
    assert_eq!(out.completed + out.shed.total(), spec.requests);
}

/// Repeated ICAP wedges push chips through the health ladder
/// (suspect → quarantine → repair) while the recovery policy heals the
/// wedged dispatches themselves; degraded-phase latency is tracked
/// apart from steady-phase latency.
#[test]
fn wedges_quarantine_and_recovery_heals() {
    let catalog = synthetic_catalog(16, 12, 37);
    let fleet = Fleet::new(
        catalog,
        small_config(
            4,
            RoutePolicy::Locality {
                spill_window: SimTime::from_us(5),
            },
        ),
    )
    .unwrap();
    let spec = small_spec(1200);
    let chaos = ChaosSpec {
        seed: 0x3ED6E,
        horizon: SimTime::from_us(400),
        wedge_permille: 1000,
        wedge_window: SimTime::from_us(25),
        ..ChaosSpec::quiet()
    };
    let out = fleet.run_chaos(&spec, &chaos, &Obs::null()).unwrap();
    assert!(out.quarantines > 0, "no chip was quarantined");
    assert!(out.faulted > 0, "no dispatch hit a wedge");
    assert!(out.healed > 0, "recovery healed nothing");
    assert!(out.degraded_completed > 0);
    assert!(out.recovery_extra_time > SimTime::ZERO);
    // The phase split is reported apart (latency under load is queue-
    // dominated, so no ordering between the two p99s is implied).
    assert!(out.p99_degraded_us > 0.0);
    assert_eq!(out.completed + out.shed.total(), spec.requests);
}

/// Chaos control events (chip deaths, failovers, emergencies) reach an
/// attached trace recorder.
#[test]
fn chaos_events_reach_the_trace() {
    use std::sync::Arc;
    let catalog = synthetic_catalog(16, 12, 29);
    let fleet = Fleet::new(
        catalog,
        small_config(
            6,
            RoutePolicy::Locality {
                spill_window: SimTime::from_us(5),
            },
        ),
    )
    .unwrap();
    let spec = small_spec(1500);
    let chaos = ChaosSpec {
        seed: 0xC4A05,
        horizon: SimTime::from_us(400),
        loss_permille: 300,
        emergencies: vec![EmergencyWindow {
            from: SimTime::from_us(100),
            to: SimTime::from_us(300),
            cap_mw: 6.0 * 700.0 * 0.8,
        }],
        ..ChaosSpec::quiet()
    };
    let recorder = Arc::new(TraceRecorder::new());
    let out = fleet
        .run_chaos(&spec, &chaos, &Obs::recording(Arc::clone(&recorder)))
        .unwrap();
    let labels: Vec<&str> = recorder
        .events()
        .iter()
        .filter_map(|e| match e {
            uparc_repro::sim::obs::TraceEvent::Instant { kind, .. } => Some(kind.label()),
            _ => None,
        })
        .collect();
    assert!(labels.contains(&"CapEmergency"));
    if out.chips_lost > 0 {
        assert!(labels.contains(&"ChipDown"));
    }
    if out.failovers > 0 {
        assert!(labels.contains(&"Failover"));
    }
    let _ = EventKind::Quarantine { chip: 0 }; // taxonomy stays exported
}

/// When every chip dies, late arrivals are shed with `no_live_chip`
/// rather than lost — the accounting identity still holds.
#[test]
fn total_fleet_loss_sheds_instead_of_losing() {
    let catalog = synthetic_catalog(8, 12, 11);
    let fleet = Fleet::new(catalog, small_config(4, RoutePolicy::Random { seed: 7 })).unwrap();
    let spec = small_spec(800);
    let chaos = ChaosSpec {
        seed: 0xDEAD,
        horizon: SimTime::from_us(120),
        loss_permille: 1000,
        ..ChaosSpec::quiet()
    };
    let out = fleet.run_chaos(&spec, &chaos, &Obs::null()).unwrap();
    assert_eq!(out.chips_lost, 4);
    assert!(out.shed.total() > 0, "no request was shed after total loss");
    assert!(out.shed.no_live_chip > 0);
    assert_eq!(out.completed + out.shed.total(), spec.requests);
}

/// An infeasible rack cap is rejected up front rather than producing a
/// run that violates it.
#[test]
fn infeasible_rack_cap_is_rejected() {
    let catalog = synthetic_catalog(4, 12, 5);
    let mut config = small_config(4, RoutePolicy::Random { seed: 1 });
    config.rack_cap_mw = 4.0 * calib::V6_IDLE_MW; // idle only, no headroom
    let fleet = Fleet::new(catalog, config).unwrap();
    let err = fleet.run(&small_spec(10)).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("rack cap"), "unexpected error: {msg}");
}

/// An empty workload is a typed error, not a panic.
#[test]
fn empty_workload_is_a_typed_error() {
    let catalog = synthetic_catalog(4, 12, 5);
    let fleet = Fleet::new(catalog, small_config(4, RoutePolicy::Random { seed: 1 })).unwrap();
    let err = fleet.run(&small_spec(0)).unwrap_err();
    assert_eq!(err, FleetError::EmptyWorkload);
    assert_eq!(err.to_string(), "workload holds no requests");
}
