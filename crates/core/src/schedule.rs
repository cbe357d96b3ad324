//! Prefetch scheduling of reconfigurations (paper §III-A1).
//!
//! "Scheduling may be able to predict the tasks to be executed on a
//! reconfigurable module \[13\], thus the configuration data preloading can
//! be done during idle time which does not affect the system computational
//! performance." This module implements exactly that comparison: a naive
//! schedule that preloads on demand (preload latency lands in the module's
//! downtime) versus a prefetch schedule that overlaps the *next* task's
//! preload with the *current* task's execution.

use crate::error::UparcError;
use crate::uparc::{Mode, PreloadReport, UParc, UparcReport};
use uparc_bitstream::builder::PartialBitstream;
use uparc_sim::time::SimTime;

/// One module-swap request.
#[derive(Debug, Clone)]
pub struct ReconfigTask {
    /// Module name (for reporting).
    pub name: String,
    /// The module's partial bitstream.
    pub bitstream: PartialBitstream,
    /// Staging mode.
    pub mode: Mode,
    /// How long the module executes once configured.
    pub execution: SimTime,
}

impl ReconfigTask {
    /// Creates a task.
    #[must_use]
    pub fn new(name: &str, bitstream: PartialBitstream, mode: Mode, execution: SimTime) -> Self {
        ReconfigTask {
            name: name.to_owned(),
            bitstream,
            mode,
            execution,
        }
    }
}

/// Outcome of one scheduled swap.
#[derive(Debug, Clone)]
pub struct TaskOutcome {
    /// Module name.
    pub name: String,
    /// Preload details.
    pub preload: PreloadReport,
    /// Reconfiguration details.
    pub reconfiguration: UparcReport,
    /// Time the partition was unusable for this swap (what the schedule
    /// optimises).
    pub downtime: SimTime,
}

/// Outcome of a whole schedule.
#[derive(Debug, Clone)]
pub struct ScheduleReport {
    /// Per-task outcomes, in execution order.
    pub tasks: Vec<TaskOutcome>,
    /// Total partition downtime across all swaps.
    pub total_downtime: SimTime,
    /// Simulated end time of the schedule.
    pub makespan: SimTime,
}

/// Scheduling strategy for a task list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Preload on demand: each swap pays preload + reconfiguration.
    OnDemand,
    /// Prefetch: preloading overlaps the previous task's execution; only
    /// the non-overlapped remainder (if any) adds downtime.
    Prefetch,
}

/// Runs `tasks` on `uparc` with the chosen strategy.
///
/// With [`Strategy::Prefetch`] the BRAM holds the next task's image while
/// the current module runs, so a swap's downtime is just its
/// reconfiguration latency (plus any preload overrun beyond the available
/// execution time).
///
/// Each distinct bitstream and requested mode is decided
/// ([`Mode::decide`]) once per call: a swap schedule of A, B, A, B packs
/// each module once.
///
/// # Errors
///
/// Propagates preload/reconfigure failures; the schedule stops at the
/// first failing task.
pub fn run_schedule(
    uparc: &mut UParc,
    tasks: &[ReconfigTask],
    strategy: Strategy,
) -> Result<ScheduleReport, UparcError> {
    let mut outcomes = Vec::with_capacity(tasks.len());
    let mut total_downtime = SimTime::ZERO;
    let mut decided = Vec::new();
    match strategy {
        Strategy::OnDemand => {
            for task in tasks {
                let mode = decide(uparc, task, &mut decided)?;
                let preload = uparc.preload(&task.bitstream, mode)?;
                let reconfiguration = uparc.reconfigure()?;
                let downtime = preload.duration + reconfiguration.elapsed();
                total_downtime += downtime;
                uparc.advance_idle(task.execution);
                outcomes.push(TaskOutcome {
                    name: task.name.clone(),
                    preload,
                    reconfiguration,
                    downtime,
                });
            }
        }
        Strategy::Prefetch => {
            // The first preload has nothing to hide behind.
            let mut pending: Option<(usize, PreloadReport, SimTime)> = None;
            for (i, task) in tasks.iter().enumerate() {
                let (preload, exposed) = match pending.take() {
                    Some((idx, report, overrun)) => {
                        debug_assert_eq!(idx, i);
                        (report, overrun)
                    }
                    None => {
                        let mode = decide(uparc, task, &mut decided)?;
                        let report = uparc.preload(&task.bitstream, mode)?;
                        let d = report.duration;
                        (report, d)
                    }
                };
                let reconfiguration = uparc.reconfigure()?;
                let downtime = exposed + reconfiguration.elapsed();
                total_downtime += downtime;
                // Overlap the next task's preload with this execution.
                if let Some(next) = tasks.get(i + 1) {
                    let mode = decide(uparc, next, &mut decided)?;
                    let report = uparc.preload(&next.bitstream, mode)?;
                    let overrun = report.duration.saturating_sub(task.execution);
                    let slack = task.execution.saturating_sub(report.duration);
                    uparc.advance_idle(slack);
                    pending = Some((i + 1, report, overrun));
                } else {
                    uparc.advance_idle(task.execution);
                }
                outcomes.push(TaskOutcome {
                    name: task.name.clone(),
                    preload,
                    reconfiguration,
                    downtime,
                });
            }
        }
    }
    Ok(ScheduleReport {
        tasks: outcomes,
        total_downtime,
        makespan: uparc.now(),
    })
}

/// `task`'s staging mode on `uparc`, reusing the decision of an earlier
/// task in `decided` that stages the same words the same way.
fn decide<'t>(
    uparc: &UParc,
    task: &'t ReconfigTask,
    decided: &mut Vec<(&'t ReconfigTask, Mode)>,
) -> Result<Mode, UparcError> {
    let earlier = decided
        .iter()
        .find(|(t, _)| t.mode == task.mode && t.bitstream.same_words(&task.bitstream));
    if let Some((_, mode)) = earlier {
        return Ok(mode.clone());
    }
    let mode = task.mode.clone().decide(
        &task.bitstream,
        uparc.bram().capacity_bytes(),
        uparc.decompressor().algorithm(),
    )?;
    decided.push((task, mode.clone()));
    Ok(mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uparc_bitstream::synth::SynthProfile;
    use uparc_fpga::Device;
    use uparc_sim::time::Frequency;

    fn task(device: &Device, name: &str, frames: u32, seed: u64, exec_us: u64) -> ReconfigTask {
        let payload = SynthProfile::dense().generate(device, 0, frames, seed);
        let bs = PartialBitstream::build(device, 0, &payload);
        ReconfigTask::new(name, bs, Mode::Raw, SimTime::from_us(exec_us))
    }

    fn system() -> UParc {
        let mut sys = UParc::builder(Device::xc5vsx50t()).build().unwrap();
        sys.set_reconfiguration_frequency(Frequency::from_mhz(300.0))
            .unwrap();
        sys
    }

    fn tasks(device: &Device) -> Vec<ReconfigTask> {
        vec![
            task(device, "fir", 600, 1, 2000),
            task(device, "fft", 900, 2, 2000),
            task(device, "viterbi", 700, 3, 2000),
        ]
    }

    #[test]
    fn prefetch_hides_preload_latency() {
        let device = Device::xc5vsx50t();
        let mut on_demand = system();
        let naive = run_schedule(&mut on_demand, &tasks(&device), Strategy::OnDemand).unwrap();
        let mut prefetching = system();
        let smart = run_schedule(&mut prefetching, &tasks(&device), Strategy::Prefetch).unwrap();
        assert!(
            smart.total_downtime < naive.total_downtime / 2,
            "prefetch {} vs on-demand {}",
            smart.total_downtime,
            naive.total_downtime
        );
        // Both configured the same number of modules.
        assert_eq!(naive.tasks.len(), 3);
        assert_eq!(smart.tasks.len(), 3);
    }

    #[test]
    fn first_task_preload_is_always_exposed() {
        let device = Device::xc5vsx50t();
        let mut sys = system();
        let report = run_schedule(&mut sys, &tasks(&device), Strategy::Prefetch).unwrap();
        let first = &report.tasks[0];
        assert!(first.downtime > first.reconfiguration.elapsed());
        // Subsequent tasks hide their preload entirely (execution is long).
        for t in &report.tasks[1..] {
            assert_eq!(t.downtime, t.reconfiguration.elapsed(), "{}", t.name);
        }
    }

    #[test]
    fn preload_overrun_beyond_execution_is_charged() {
        let device = Device::xc5vsx50t();
        // Execution much shorter than the next preload (~1.3 ms for 900
        // frames at 2 cycles/word): the overrun must surface as downtime.
        let short = vec![
            task(&device, "a", 600, 1, 10),
            task(&device, "b", 900, 2, 10),
        ];
        let mut sys = system();
        let report = run_schedule(&mut sys, &short, Strategy::Prefetch).unwrap();
        let second = &report.tasks[1];
        assert!(second.downtime > second.reconfiguration.elapsed());
    }

    #[test]
    fn repeated_compressed_swaps_cost_the_same_every_round() {
        let device = Device::xc5vsx50t();
        // Compressed mode caps CLK_2 at 255 MHz — build a slower system
        // than the raw-mode helper above.
        let mut sys = UParc::builder(device.clone()).build().unwrap();
        sys.set_reconfiguration_frequency(Frequency::from_mhz(200.0))
            .unwrap();
        // A 3-module working set swapped for 3 rounds.
        let mut list = Vec::new();
        for round in 0..3 {
            for (name, seed) in [("fir", 1u64), ("fft", 2), ("viterbi", 3)] {
                let payload = SynthProfile::dense().generate(&device, 0, 300, seed);
                let bs = PartialBitstream::build(&device, 0, &payload);
                let exec = SimTime::from_us(2000 + round);
                list.push(ReconfigTask::new(name, bs, Mode::Compressed, exec));
            }
        }
        let report = run_schedule(&mut sys, &list, Strategy::OnDemand).unwrap();
        assert_eq!(report.tasks.len(), 9);
        for (i, t) in report.tasks.iter().enumerate() {
            assert!(t.preload.compressed && t.reconfiguration.compressed);
            let first = &report.tasks[i % 3];
            assert_eq!(t.downtime, first.downtime, "{} round {}", t.name, i / 3);
        }
    }

    #[test]
    fn a_swap_schedule_decides_each_module_once() {
        let device = Device::xc5vsx50t();
        let mut sys = UParc::builder(device.clone()).build().unwrap();
        sys.set_reconfiguration_frequency(Frequency::from_mhz(200.0))
            .unwrap();
        let module = |seed| {
            let payload = SynthProfile::dense().generate(&device, 0, 100, seed);
            PartialBitstream::build(&device, 0, &payload)
        };
        let (a, b) = (module(1), module(2));
        let list: Vec<ReconfigTask> = [&a, &b, &a, &b]
            .into_iter()
            .map(|bs| ReconfigTask::new("m", bs.clone(), Mode::Compressed, SimTime::from_us(50)))
            .collect();
        let mut decided = Vec::new();
        let modes: Vec<Mode> = list
            .iter()
            .map(|t| decide(&sys, t, &mut decided).unwrap())
            .collect();
        assert_eq!(decided.len(), 2, "A and B are decided once each");
        for (i, mode) in modes.iter().enumerate() {
            let (Mode::Packed(p), Mode::Packed(q)) = (mode, &modes[i % 2]) else {
                panic!("Compressed decides into Packed");
            };
            assert_eq!(p.bytes().as_ptr(), q.bytes().as_ptr(), "task {i}");
        }
        // The same words requested raw are another decision.
        let raw = ReconfigTask::new("m", a.clone(), Mode::Raw, SimTime::ZERO);
        assert_eq!(decide(&sys, &raw, &mut decided).unwrap(), Mode::Raw);
        assert_eq!(decided.len(), 3);
        // And the schedule runs on the decided modes as before.
        for strategy in [Strategy::OnDemand, Strategy::Prefetch] {
            let report = run_schedule(&mut sys, &list, strategy).unwrap();
            assert!(report.tasks.iter().all(|t| t.reconfiguration.compressed));
            assert_eq!(report.tasks[3].downtime, report.tasks[1].downtime);
        }
    }

    #[test]
    fn makespan_advances_with_executions() {
        let device = Device::xc5vsx50t();
        let mut sys = system();
        let report = run_schedule(&mut sys, &tasks(&device), Strategy::Prefetch).unwrap();
        assert!(report.makespan >= SimTime::from_us(6000));
    }
}
