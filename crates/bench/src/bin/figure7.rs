//! Regenerates **Figure 7** — "FPGA core power consumption during dynamic
//! partial reconfiguration using UPaRC with different frequencies"
//! (Virtex-6/ML605; only the MicroBlaze manager and UPaRC implemented).
//!
//! A 216.5 KB uncompressed bitstream is reconfigured at 50/100/200/300 MHz;
//! the power trace (recorded through the shunt/oscilloscope model of
//! paper Fig. 6) is reported per frequency along with the paper's measured
//! plateau power and duration. CSV traces are written next to the binary
//! output for plotting.
//!
//! Run with `cargo run --release -p uparc-bench --bin figure7`.

use uparc_bench::{vs_paper, Report};
use uparc_bitstream::builder::PartialBitstream;
use uparc_bitstream::synth::SynthProfile;
use uparc_core::uparc::{Mode, UParc};
use uparc_fpga::Device;
use uparc_sim::power::calib;
use uparc_sim::sweep;
use uparc_sim::time::{Frequency, SimTime};
use uparc_sim::trace::Oscilloscope;

fn main() {
    // The ML605's Virtex-6 (the board with the core shunt resistor). Note
    // the ICAP frame geometry differs from V5; the bitstream size is what
    // matters here.
    let device = Device::xc6vlx240t();
    let bytes = (216.5 * 1024.0) as usize;
    let frames = (bytes / device.family().frame_bytes()) as u32;
    let payload = SynthProfile::dense().generate(&device, 0, frames, 11);
    let bs = PartialBitstream::build(&device, 0, &payload);
    println!(
        "workload: {:.1} KB uncompressed bitstream, MicroBlaze manager at 100 MHz (active wait)",
        bs.size_bytes() as f64 / 1024.0
    );

    let mut report = Report::new(
        "Figure 7 — power during reconfiguration of a 216.5 KB bitstream (V6)",
        &[
            "CLK_2",
            "Power [mW]",
            "vs paper",
            "Duration [µs]",
            "vs paper",
            "Energy>idle [µJ]",
        ],
    );

    let scope = Oscilloscope::ml605().with_sample_period(SimTime::from_us(2));
    // The four frequency points are independent systems — shard them.
    let points: Vec<(f64, f64)> = calib::FIG7_POINTS.to_vec();
    let runs = sweep::parallel_map(&points, |&(mhz, paper_mw)| {
        let paper_us = calib::FIG7_TIMES_US
            .iter()
            .find(|(m, _)| *m == mhz)
            .expect("same grid")
            .1;
        let mut sys = UParc::builder(device.clone()).build().expect("build");
        sys.set_reconfiguration_frequency(Frequency::from_mhz(mhz))
            .expect("retune");
        sys.preload(&bs, Mode::Raw).expect("preload");
        sys.advance_idle(SimTime::from_us(30));
        let r = sys.reconfigure().expect("reconfigure");
        sys.advance_idle(SimTime::from_us(30));
        let trace = sys.power_trace();
        (
            mhz,
            paper_mw,
            paper_us,
            trace.peak_mw(),
            r,
            scope.sample(&trace),
        )
    });
    for (mhz, paper_mw, paper_us, plateau, r, samples) in runs {
        let duration_us = r.transfer_time.as_us_f64();
        report.row(&[
            format!("{mhz} MHz"),
            format!("{plateau:.0}"),
            vs_paper(plateau, paper_mw),
            format!("{duration_us:.0}"),
            vs_paper(duration_us, paper_us),
            format!("{:.0}", r.energy_uj),
        ]);

        // Dump the oscilloscope samples for plotting.
        let path = format!("/tmp/uparc_fig7_{mhz:.0}mhz.csv");
        let mut csv = String::from("time_us,power_mw\n");
        for (t, p) in samples {
            csv.push_str(&format!("{:.2},{:.2}\n", t.as_us_f64(), p));
        }
        std::fs::write(&path, csv).expect("write csv");
        println!("trace written: {path}");
    }
    report.print();

    println!("\nshape checks (paper §V):");
    println!("  * doubling the frequency halves the time but does not double the power;");
    println!("  * energy decreases with frequency because the manager actively waits;");
    println!("  * after Finish, EN gates BRAM/ICAP and power returns to idle.");
}
