//! Property-based tests on the system invariants: timing laws, DCM grid
//! legality and search exactness, the compressed pipeline's closed form,
//! policy-constraint satisfaction, and trace/energy consistency.

use proptest::prelude::*;
use std::cmp::Reverse;
use uparc_repro::bitstream::builder::PartialBitstream;
use uparc_repro::bitstream::synth::SynthProfile;
use uparc_repro::core::pipeline::PipelineRun;
use uparc_repro::core::policy::{Constraint, PowerAwarePolicy};
use uparc_repro::core::uparc::{Mode, UParc};
use uparc_repro::fpga::dcm::DcmConstraints;
use uparc_repro::fpga::{Device, Family};
use uparc_repro::serve::catalog::Catalog;
use uparc_repro::serve::request::BitstreamId;
use uparc_repro::sim::power::calib;
use uparc_repro::sim::rng::Xoshiro256;
use uparc_repro::sim::time::{Frequency, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn raw_transfer_takes_exactly_words_plus_one_cycles(
        frames in 1u32..200,
        grid_idx in 0usize..40,
    ) {
        let device = Device::xc5vsx50t();
        let policy = PowerAwarePolicy::paper_setup(device.family());
        let grid = policy.frequency_grid();
        let f = grid[grid_idx % grid.len()];
        let payload = SynthProfile::dense().generate(&device, 0, frames, 7);
        let bs = PartialBitstream::build(&device, 0, &payload);
        let mut sys = UParc::builder(device).build().expect("build");
        sys.set_reconfiguration_frequency(f).expect("grid point is legal");
        let r = sys.reconfigure_bitstream(&bs, Mode::Raw).expect("reconfigure");
        let cycles = bs.words().len() as u64 + 1; // + mode word
        prop_assert_eq!(r.transfer_time, r.frequency.time_of_cycles(cycles));
        prop_assert_eq!(r.control_overhead, SimTime::from_ns(1200));
    }

    #[test]
    fn dcm_search_results_are_always_legal(
        fin_mhz in 40u32..200,
        target_mhz in 33u32..450,
    ) {
        let c = DcmConstraints::for_family(Family::Virtex5);
        let fin = Frequency::from_mhz(f64::from(fin_mhz));
        let target = Frequency::from_mhz(f64::from(target_mhz));
        if let Some((m, d, f)) = c.best_factors(fin, target) {
            prop_assert_eq!(c.check(fin, m, d).expect("legal"), f);
        }
        if let Some((m, d, f)) = c.best_factors_at_most(fin, target) {
            prop_assert_eq!(c.check(fin, m, d).expect("legal"), f);
            prop_assert!(f <= target);
        }
    }

    #[test]
    fn deadline_plans_always_meet_their_deadline(deadline_us in 150u64..5_000, kb in 1usize..260) {
        let policy = PowerAwarePolicy::paper_setup(Family::Virtex5);
        let bytes = kb * 1024;
        let deadline = SimTime::from_us(deadline_us);
        match policy.plan(Constraint::Deadline(deadline), bytes) {
            Ok(plan) => prop_assert!(plan.predicted_time <= deadline),
            Err(_) => {
                // Infeasible must really be infeasible: even the fastest
                // grid point misses it.
                let grid = policy.frequency_grid();
                let best = policy.predicted_time(bytes, *grid.last().unwrap());
                prop_assert!(best > deadline);
            }
        }
    }

    #[test]
    fn budget_plans_never_exceed_their_budget(budget in 150.0f64..600.0) {
        let policy = PowerAwarePolicy::paper_setup(Family::Virtex5);
        match policy.plan(Constraint::PowerBudget { mw: budget }, 100 * 1024) {
            Ok(plan) => prop_assert!(plan.predicted_power_mw <= budget),
            Err(_) => {
                let grid = policy.frequency_grid();
                prop_assert!(policy.predicted_power_mw(grid[0]) > budget);
            }
        }
    }

    #[test]
    fn trace_energy_matches_report_energy(frames in 10u32..300, grid_idx in 0usize..40) {
        let device = Device::xc5vsx50t();
        let policy = PowerAwarePolicy::paper_setup(device.family());
        let grid = policy.frequency_grid();
        let f = grid[grid_idx % grid.len()];
        let payload = SynthProfile::dense().generate(&device, 0, frames, 11);
        let bs = PartialBitstream::build(&device, 0, &payload);
        let mut sys = UParc::builder(device).build().expect("build");
        sys.set_reconfiguration_frequency(f).expect("legal");
        sys.preload(&bs, Mode::Raw).expect("preload");
        let t0 = sys.now();
        let r = sys.reconfigure().expect("reconfigure");
        let t1 = sys.now();
        let trace = sys.power_trace();
        // Integrate the trace over the reconfiguration window and subtract
        // the idle floor: must equal the report's above-idle energy.
        let window = t1 - t0;
        let mut energy = 0.0;
        let mut t = t0;
        while t < t1 {
            let p = trace.power_at(t).expect("inside trace");
            let step = SimTime::from_ns(100).min(t1 - t);
            energy += (p - calib::V6_IDLE_MW) * step.as_secs_f64() * 1e3;
            t += step;
        }
        let _ = window;
        let rel = (energy - r.energy_uj).abs() / r.energy_uj.max(1e-9);
        prop_assert!(rel < 0.02, "trace {energy:.2} vs report {:.2} µJ", r.energy_uj);
    }

    #[test]
    fn compressed_and_raw_modes_configure_identically(frames in 5u32..150) {
        let device = Device::xc5vsx50t();
        let payload = SynthProfile::dense().generate(&device, 30, frames, 13);
        let bs = PartialBitstream::build(&device, 30, &payload);
        let mut raw = UParc::builder(device.clone()).build().expect("build");
        raw.reconfigure_bitstream(&bs, Mode::Raw).expect("raw");
        let mut comp = UParc::builder(device).build().expect("build");
        comp.reconfigure_bitstream(&bs, Mode::Compressed).expect("compressed");
        prop_assert_eq!(
            raw.icap().config_memory().diff_frames(comp.icap().config_memory()),
            0
        );
    }
}

/// The per-divider `best_factors_at_most` returns exactly what the full
/// (M, D) scan it replaced returns: the first maximum of `synthesisable`
/// at or below the cap, in (M, D) order.
#[test]
fn dcm_at_most_search_equals_the_full_scan() {
    let scan = |c: &DcmConstraints, fin: Frequency, cap: Frequency| {
        c.synthesisable(fin)
            .filter(|f| f.2 <= cap)
            .min_by_key(|f| Reverse(f.2))
    };
    let families = [Family::Virtex4, Family::Virtex5, Family::Virtex6];
    for family in families {
        let c = DcmConstraints::for_family(family);
        // DyCloGen's 100 MHz reference and two that do not divide evenly.
        for fin in [100.0, 33.333333, 66.67].map(Frequency::from_mhz) {
            // Every legal output and 1 Hz either side, plus caps below
            // `fout_min` and above `fout_max`.
            let mut caps: Vec<u64> = c
                .synthesisable(fin)
                .flat_map(|(_, _, f)| [f.as_hz() - 1, f.as_hz(), f.as_hz() + 1])
                .collect();
            caps.extend([1, c.fout_min.as_hz() - 1, c.fout_max.as_hz() + 1, u64::MAX]);
            caps.sort_unstable();
            caps.dedup();
            for cap in caps.into_iter().map(Frequency::from_hz) {
                assert_eq!(
                    c.best_factors_at_most(fin, cap),
                    scan(&c, fin, cap),
                    "{family:?} at {fin}, cap {cap}"
                );
            }
        }
    }
    // A seeded sample of input clocks from 1 to 500 MHz and caps from
    // 1 Hz to 600 MHz.
    let mut rng = Xoshiro256::seed_from_u64(0xDC4);
    for _ in 0..600 {
        let family = families[rng.below(3) as usize];
        let c = DcmConstraints::for_family(family);
        let fin = Frequency::from_hz(1_000_000 + rng.below(499_000_001));
        let cap = Frequency::from_hz(1 + rng.below(600_000_000));
        assert_eq!(
            c.best_factors_at_most(fin, cap),
            scan(&c, fin, cap),
            "{family:?} at {fin}, cap {cap}"
        );
    }
}

/// Checks `r`'s closed form against the edge stepper; returns whether the
/// closed form answered the run.
fn closed_form_admits(r: &PipelineRun) -> bool {
    match r.closed_form() {
        Some(closed) => {
            assert_eq!(closed, r.step_edges(), "{r:?}");
            true
        }
        None => false,
    }
}

fn pipeline_run(input: u64, output: u64, f2: u64, f3: u64, w: u32) -> PipelineRun {
    PipelineRun {
        input_words: input,
        output_words: output,
        clk2: Frequency::from_hz(f2),
        clk3: Frequency::from_hz(f3),
        max_words_per_cycle: w,
    }
}

/// `PipelineRun::simulate` answers a run from the tandem-line closed form
/// whenever the run meets the form's certificate, and steps the edges
/// otherwise. Wherever the closed form answers, it returns the stepper's
/// statistics field for field; the counts pin how many runs of each kind
/// it answers, and it must answer every transfer the `service`
/// benchmark's catalog makes.
#[test]
fn pipeline_closed_form_equals_the_edge_stepper() {
    let grid: Vec<u64> = PowerAwarePolicy::paper_setup(Family::Virtex5)
        .frequency_grid()
        .iter()
        .map(|f| f.as_hz())
        .collect();

    // A seeded sample over DCM-grid clocks and random hertz, W from 1 to
    // 3, with output words from half the input to six times it.
    let mut rng = Xoshiro256::seed_from_u64(0xF1F0);
    let clock = |rng: &mut Xoshiro256| {
        if rng.below(2) == 0 {
            grid[rng.below(grid.len() as u64) as usize]
        } else {
            10_000_000 + rng.below(390_000_000)
        }
    };
    let mut admitted = 0;
    for _ in 0..5_000 {
        let w = 1 + rng.below(3) as u32;
        let input = 1 + rng.below(600);
        let output = input / 2 + rng.below(6 * input);
        let (f2, f3) = (clock(&mut rng), clock(&mut rng));
        let r = pipeline_run(input, output.max(1), f2, f3, w);
        admitted += u32::from(closed_form_admits(&r));
    }
    assert_eq!(admitted, 1_886, "random runs answered in closed form");

    // Boundary clocks: CLK_2 at W·CLK_3 and 1 Hz either side, at CLK_3
    // and 1 Hz above it, for a CLK_3 of 125 MHz, a DCM grid point and two
    // that divide a second unevenly; output exactly W·I and one word
    // more.
    let mut admitted = 0;
    for f3 in [125_000_000, grid[17], 33_333_333, 99_999_999] {
        for w in 1..=3u32 {
            let wf3 = u64::from(w) * f3;
            for f2 in [wf3 - 1, wf3, wf3 + 1, f3, f3 + 1] {
                for input in [1, 2, 127, 407] {
                    for output in [u64::from(w) * input, u64::from(w) * input + 1] {
                        let r = pipeline_run(input, output, f2, f3, w);
                        admitted += u32::from(closed_form_admits(&r));
                    }
                }
            }
        }
    }
    assert_eq!(admitted, 318, "boundary runs answered in closed form");

    // The `service` benchmark's catalog: xc5vsx50t, 5 KB of staging
    // BRAM, 4 regions of 12 dense modules of 12 to 45 frames; the larger
    // ones stage compressed. Their transfers at every grid CLK_2 up to the
    // compressed datapath's 255 MHz, CLK_3 at 125 MHz: every one with
    // CLK_2 at or above CLK_3 is answered in closed form.
    let device = Device::xc5vsx50t();
    let mut catalog = Catalog::new(device).with_bram_bytes(5 * 1024);
    let mut id = 1;
    for region in 0..4 {
        let base = 100 + region * 1000;
        catalog
            .add_region(&format!("rp{region}"), base..base + 120)
            .expect("region fits");
        for k in 0..12 {
            let (far, frames) = (base + 2 * k, 12 + 3 * k);
            let seed = 20_120_312 + u64::from(id);
            let payload = SynthProfile::dense().generate(catalog.device(), far, frames, seed);
            let bs = PartialBitstream::build(catalog.device(), far, &payload);
            catalog.register(BitstreamId(id), bs).expect("stages");
            id += 1;
        }
    }
    let f3 = 125_000_000;
    let (mut runs, mut admitted) = (0, 0);
    for entry in catalog.ids().iter().filter_map(|&id| catalog.entry(id)) {
        if !entry.compressed() {
            continue;
        }
        // The pipeline moves the staged words but the mode word.
        let input = entry.staged_words() as u64 - 1;
        let output = entry.raw_bytes() as u64 / 4;
        for &f2 in grid.iter().filter(|&&f| f <= 255_000_000) {
            let r = pipeline_run(input, output, f2, f3, 2);
            let answered = closed_form_admits(&r);
            assert!(answered || f2 < f3, "service transfer stepped: {r:?}");
            runs += 1;
            admitted += u32::from(answered);
        }
    }
    assert_eq!((runs, admitted), (8_340, 2_660), "service transfers");
}
