//! Property-based tests for the extension features: ECC location, codec
//! geometry sweeps, scheduler accounting, and optimizer optimality.

use proptest::prelude::*;
use uparc_repro::bitstream::builder::PartialBitstream;
use uparc_repro::bitstream::synth::SynthProfile;
use uparc_repro::compress::lz77::Lz77;
use uparc_repro::compress::Codec;
use uparc_repro::core::manager::ManagerConfig;
use uparc_repro::core::optimize::{AppPhase, GlobalOptimizer};
use uparc_repro::core::policy::PowerAwarePolicy;
use uparc_repro::core::schedule::{run_schedule, ReconfigTask, Strategy};
use uparc_repro::core::uparc::{Mode, UParc};
use uparc_repro::fpga::ecc::{self, EccStatus};
use uparc_repro::fpga::{Device, Family};
use uparc_repro::sim::time::{Frequency, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ecc_locates_any_single_flip(
        frame in proptest::collection::vec(any::<u32>(), 41),
        word in 0usize..41,
        bit in 0u32..32,
    ) {
        let parity = ecc::frame_parity(&frame);
        let mut hit = frame.clone();
        hit[word] ^= 1 << bit;
        prop_assert_eq!(ecc::check(&hit, parity), EccStatus::SingleBit { word, bit });
        // Flipping it back restores cleanliness.
        hit[word] ^= 1 << bit;
        prop_assert_eq!(ecc::check(&hit, parity), EccStatus::Clean);
    }

    #[test]
    fn ecc_never_miscorrects_double_flips(
        frame in proptest::collection::vec(any::<u32>(), 41),
        a in 0usize..(41 * 32),
        b in 0usize..(41 * 32),
    ) {
        prop_assume!(a != b);
        let parity = ecc::frame_parity(&frame);
        let mut hit = frame.clone();
        hit[a / 32] ^= 1 << (a % 32);
        hit[b / 32] ^= 1 << (b % 32);
        // A double flip must never be "located" (overall parity is even).
        prop_assert_eq!(ecc::check(&hit, parity), EccStatus::MultiBit);
    }

    #[test]
    fn lz77_round_trips_across_geometries(
        data in proptest::collection::vec(prop_oneof![Just(0u8), any::<u8>()], 0..2000),
        offset_bits in 4u32..16,
        len_bits in 2u32..9,
    ) {
        let codec = Lz77::with_geometry(offset_bits, len_bits);
        let packed = codec.compress(&data);
        prop_assert_eq!(codec.decompress(&packed).expect("round-trip"), data);
    }

    #[test]
    fn schedule_downtime_accounting_is_consistent(
        execs in proptest::collection::vec(50u64..3000, 1..5),
    ) {
        let device = Device::xc5vsx50t();
        let tasks: Vec<ReconfigTask> = execs
            .iter()
            .enumerate()
            .map(|(i, &us)| {
                let payload =
                    SynthProfile::dense().generate(&device, 0, 100 + 50 * i as u32, i as u64);
                let bs = PartialBitstream::build(&device, 0, &payload);
                ReconfigTask::new(&format!("t{i}"), bs, Mode::Raw, SimTime::from_us(us))
            })
            .collect();
        let run = |strategy| {
            let mut sys = UParc::builder(device.clone()).build().expect("build");
            sys.set_reconfiguration_frequency(Frequency::from_mhz(300.0)).expect("tune");
            run_schedule(&mut sys, &tasks, strategy).expect("schedule")
        };
        let naive = run(Strategy::OnDemand);
        let smart = run(Strategy::Prefetch);
        // Total downtime is the sum of per-task downtimes…
        for report in [&naive, &smart] {
            let sum: SimTime = report.tasks.iter().map(|t| t.downtime).sum();
            prop_assert_eq!(sum, report.total_downtime);
        }
        // …prefetch never does worse, and both configured every task.
        prop_assert!(smart.total_downtime <= naive.total_downtime);
        prop_assert_eq!(naive.tasks.len(), tasks.len());
        // Per-task: downtime always covers the reconfiguration itself.
        for t in naive.tasks.iter().chain(&smart.tasks) {
            prop_assert!(t.downtime >= t.reconfiguration.elapsed());
        }
    }

    #[test]
    fn optimizer_plans_are_feasible_and_tight(
        sizes in proptest::collection::vec(8usize..250, 1..5),
        makespan_ms in 2u64..40,
        active_wait in any::<bool>(),
    ) {
        let phases: Vec<AppPhase> = sizes
            .iter()
            .enumerate()
            .map(|(i, &kb)| AppPhase::new(&format!("p{i}"), kb * 1024, SimTime::from_us(500)))
            .collect();
        let opt = GlobalOptimizer::new(PowerAwarePolicy::new(
            Family::Virtex5,
            Frequency::from_mhz(100.0),
            ManagerConfig { active_wait },
        ));
        let makespan = SimTime::from_ms(makespan_ms);
        match opt.minimize_peak_power(&phases, makespan) {
            Ok(plan) => {
                prop_assert!(plan.total_time <= makespan);
                // Tightness: one grid step lower on the cap must be
                // infeasible (otherwise the search was not minimal).
                let grid = opt.policy().frequency_grid();
                let below: Vec<_> = grid
                    .iter()
                    .filter(|&&f| {
                        opt.policy().predicted_power_mw(f) < plan.peak_power_mw - 1e-9
                    })
                    .collect();
                if let Some(&&f) = below.last() {
                    let t: SimTime = phases
                        .iter()
                        .map(|p| opt.policy().predicted_time(p.bitstream_bytes, f) + p.execution)
                        .sum();
                    prop_assert!(t > makespan, "a lower cap would also fit");
                }
            }
            Err(_) => {
                // Infeasible must really be infeasible at max frequency.
                let grid = opt.policy().frequency_grid();
                let fmax = *grid.last().unwrap();
                let t: SimTime = phases
                    .iter()
                    .map(|p| opt.policy().predicted_time(p.bitstream_bytes, fmax) + p.execution)
                    .sum();
                prop_assert!(t > makespan);
            }
        }
    }
}
