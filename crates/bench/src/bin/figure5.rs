//! Regenerates **Figure 5** — "Reconfiguration bandwidths vs. frequencies
//! vs. bitstream sizes" (UPaRC_i, preloading without compression,
//! Virtex-5).
//!
//! The surface: effective bandwidth for bitstream sizes
//! {6.5, 12, 30, 49, 81, 156, 247} KB at frequencies 50..362.5 MHz,
//! against the theoretical `4 × f` plane. The paper's two calibration
//! points — 78.8% of theoretical at 6.5 KB and 99% at 247 KB, both at
//! 362.5 MHz — are checked explicitly.
//!
//! Run with `cargo run --release -p uparc-bench --bin figure5`.

use uparc_bench::Report;
use uparc_bitstream::builder::PartialBitstream;
use uparc_bitstream::synth::SynthProfile;
use uparc_core::uparc::{Mode, UParc};
use uparc_fpga::Device;
use uparc_sim::sweep;
use uparc_sim::time::Frequency;

/// The size axis of Fig. 5, in KB.
const SIZES_KB: [f64; 7] = [6.5, 12.0, 30.0, 49.0, 81.0, 156.0, 247.0];
/// The frequency axis, MHz.
const FREQS_MHZ: [f64; 8] = [50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 350.0, 362.5];

fn main() {
    let device = Device::xc5vsx50t();
    let profile = SynthProfile::dense();

    // Every (size, frequency) cell is an independent system: shard the
    // whole surface across cores in one sweep.
    let grid: Vec<(f64, f64)> = SIZES_KB
        .iter()
        .flat_map(|&s| FREQS_MHZ.iter().map(move |&f| (s, f)))
        .collect();
    println!(
        "sweep: {} cells on {} worker(s)",
        grid.len(),
        sweep::worker_count(grid.len())
    );
    let cells = sweep::parallel_map(&grid, |&(size_kb, mhz)| {
        let frames = ((size_kb * 1024.0) as usize / device.family().frame_bytes()) as u32;
        let payload = profile.generate(&device, 0, frames.max(1), 7);
        let bs = PartialBitstream::build(&device, 0, &payload);
        let mut sys = UParc::builder(device.clone()).build().expect("build");
        sys.set_reconfiguration_frequency(Frequency::from_mhz(mhz))
            .expect("retune");
        let r = sys
            .reconfigure_bitstream(&bs, Mode::Raw)
            .expect("reconfigure");
        (r.bandwidth_mb_s(), r.efficiency())
    });

    let mut headers: Vec<String> = vec!["Size \\ MHz".to_owned()];
    headers.extend(FREQS_MHZ.iter().map(|f| format!("{f}")));
    headers.push("theor@362.5".to_owned());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut report = Report::new(
        "Figure 5 — Effective bandwidth [MB/s] (UPaRC_i, Virtex-5)",
        &header_refs,
    );

    let mut checks: Vec<(f64, f64)> = Vec::new(); // (size KB, efficiency @362.5)
    for (si, &size_kb) in SIZES_KB.iter().enumerate() {
        let mut row = vec![format!("{size_kb} KB")];
        let mut eff_at_max = 0.0;
        for (fi, _) in FREQS_MHZ.iter().enumerate() {
            let (mb_s, eff) = cells[si * FREQS_MHZ.len() + fi];
            row.push(format!("{mb_s:.0}"));
            eff_at_max = eff;
        }
        row.push("1450".to_owned());
        report.row(&row);
        checks.push((size_kb, eff_at_max));
    }
    report.print();

    // Dump the full surface for plotting (size_kb, mhz, mb_s rows).
    let mut csv = String::from("size_kb,mhz,mb_s\n");
    for (&(size_kb, mhz), &(mb_s, _)) in grid.iter().zip(&cells) {
        csv.push_str(&format!("{size_kb},{mhz},{mb_s:.1}\n"));
    }
    std::fs::write("/tmp/uparc_fig5_surface.csv", csv).expect("write csv");
    println!("\nsurface written: /tmp/uparc_fig5_surface.csv");

    println!("\nefficiency vs theoretical at 362.5 MHz (paper: 78.8% at 6.5 KB, 99% at 247 KB):");
    for (size, eff) in checks {
        println!("  {size:>6.1} KB: {:.1}%", eff * 100.0);
    }
    println!("\nshape: the larger the bitstream, the closer to the theoretical plane —");
    println!("the constant ~1.2 µs manager control overhead amortises with size (§IV).");
}
