//! Regenerates **Table I** — "Comparisons of different lossless compression
//! algorithms" — on synthetic dense partial bitstreams.
//!
//! As in the paper (§III-C), compression runs only on *high-utilization*
//! partitions "in order not to exaggerate the compression effectiveness":
//! several bitstream sizes and content seeds (the paper's "different partial
//! bitstream sizes and complexities"), averaged per algorithm.
//!
//! Run with `cargo run --release -p uparc-bench --bin table1`.

use uparc_bench::{vs_paper, Report};
use uparc_bitstream::builder::PartialBitstream;
use uparc_bitstream::synth::SynthProfile;
use uparc_compress::{Algorithm, Ratio};
use uparc_fpga::Device;
use uparc_sim::sweep;

/// The evaluated partial-bitstream sizes in bytes (spanning the Fig. 5 size
/// axis: small filters to the 247 KB maximum the 256 KB BRAM can hold raw).
const SIZES: [usize; 4] = [30 * 1024, 81 * 1024, 156 * 1024, 247 * 1024];
/// Seeds — different synthetic "designs" per size.
const SEEDS: [u64; 3] = [11, 23, 47];

fn main() {
    let device = Device::xc5vsx50t();
    let profile = SynthProfile::dense();

    let mut report = Report::new(
        "Table I — Compression ratio [% saved] on dense partial bitstreams",
        &["Algorithm", "Measured", "vs paper", "Min", "Max"],
    );

    println!(
        "workloads: {} sizes x {} seeds, profile = dense",
        SIZES.len(),
        SEEDS.len()
    );

    // Every (algorithm, size, seed) cell is independent: flatten the cube
    // and shard it across cores.
    let cube: Vec<(Algorithm, usize, u64)> = Algorithm::ALL
        .iter()
        .flat_map(|&alg| {
            SIZES
                .iter()
                .flat_map(move |&size| SEEDS.iter().map(move |&seed| (alg, size, seed)))
        })
        .collect();
    let saved = sweep::parallel_map(&cube, |&(alg, size, seed)| {
        let codec = alg.codec();
        let frames = size / device.family().frame_bytes();
        let payload = profile.generate(&device, 0, frames as u32, seed);
        let bs = PartialBitstream::build(&device, 0, &payload);
        let bytes = bs.to_bytes();
        let packed = codec.compress(&bytes);
        // Losslessness is asserted on every workload, every run.
        assert_eq!(
            codec.decompress(&packed).expect("decompression"),
            bytes,
            "{alg} round-trip"
        );
        Ratio::new(bytes.len(), packed.len()).percent_saved()
    });

    let per_alg = SIZES.len() * SEEDS.len();
    for (ai, alg) in Algorithm::ALL.iter().enumerate() {
        let ratios = &saved[ai * per_alg..(ai + 1) * per_alg];
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = ratios.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        report.row(&[
            alg.to_string(),
            format!("{mean:.1}"),
            vs_paper(mean, alg.paper_ratio_percent()),
            format!("{min:.1}"),
            format!("{max:.1}"),
        ]);
    }
    report.print();

    // §IV footer claim: with X-MatchPRO, 256 KB of BRAM holds a bitstream of
    // up to ~992 KB, i.e. >40% of the selected device's 2444 KB full
    // bitstream.
    let xmp = Algorithm::XMatchPro.codec();
    let big = 992 * 1024;
    let frames = big / device.family().frame_bytes();
    let payload = profile.generate(&device, 0, frames as u32, 5);
    let bytes = PartialBitstream::build(&device, 0, &payload).to_bytes();
    let packed = xmp.compress(&bytes);
    let fits = packed.len() + 8 <= 256 * 1024;
    let full = device.full_bitstream_bytes() as f64 / 1024.0;
    println!(
        "\ncapacity check: {:.0} KB bitstream -> {:.0} KB compressed; fits in 256 KB BRAM: {}",
        bytes.len() as f64 / 1024.0,
        packed.len() as f64 / 1024.0,
        fits
    );
    println!(
        "paper claim: 992 KB storable = {:.0}% of the {:.0} KB full bitstream",
        992.0 * 100.0 / full,
        full
    );
}
