//! Hardware sharing by module swapping — the paper's motivating use case
//! (§I): one reconfigurable partition hosts a pipeline of accelerators,
//! and reconfiguration speed determines how long the partition is dark.
//!
//! Scenario: a baseband pipeline cycles through FIR → FFT → Viterbi →
//! Turbo modules. The example compares on-demand staging against the
//! prefetch schedule of §III-A1 (preloading overlapped with the running
//! module's execution), and prints the partition downtime for each.
//!
//! Run with `cargo run --release --example module_swapping`.

use uparc_repro::bitstream::builder::PartialBitstream;
use uparc_repro::bitstream::synth::SynthProfile;
use uparc_repro::core::schedule::{run_schedule, ReconfigTask, Strategy};
use uparc_repro::core::uparc::{Mode, UParc};
use uparc_repro::fpga::Device;
use uparc_repro::sim::time::{Frequency, SimTime};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = Device::xc5vsx50t();
    // One partition of 1000 frames (~160 KB of configuration data).
    let (region, far, frames) = ("baseband-rp", 2000, 1000);
    let payload_bytes = frames as usize * device.family().frame_bytes();
    println!(
        "partition '{region}': {frames} frames, {:.0} KB per swap",
        payload_bytes as f64 / 1024.0
    );

    let modules = ["fir", "fft", "viterbi", "turbo"];
    let tasks: Vec<ReconfigTask> = modules
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let payload = SynthProfile::dense().generate(&device, far, frames, i as u64 + 1);
            let bs = PartialBitstream::build(&device, far, &payload);
            // Each module runs for 5 ms before the next is needed.
            ReconfigTask::new(name, bs, Mode::Raw, SimTime::from_ms(5))
        })
        .collect();

    for strategy in [Strategy::OnDemand, Strategy::Prefetch] {
        let mut uparc = UParc::builder(device.clone()).build()?;
        uparc.set_reconfiguration_frequency(Frequency::from_mhz(362.5))?;
        let report = run_schedule(&mut uparc, &tasks, strategy)?;
        println!("\n{strategy:?}:");
        for t in &report.tasks {
            println!(
                "  {:<8} preload {:>10} ({}), swap {:>9}, downtime {:>10}",
                t.name,
                t.preload.duration.to_string(),
                if t.preload.compressed {
                    "compressed"
                } else {
                    "raw"
                },
                t.reconfiguration.elapsed().to_string(),
                t.downtime.to_string(),
            );
        }
        println!(
            "  total partition downtime: {} (makespan {})",
            report.total_downtime, report.makespan
        );
    }

    println!("\nthe prefetch schedule hides preloading behind module execution, so each");
    println!("swap costs only the burst-transfer latency — the quantity UPaRC minimises.");
    Ok(())
}
