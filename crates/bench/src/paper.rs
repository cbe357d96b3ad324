//! The paper's evaluation as one checked run.
//!
//! [`run`] regenerates every table, figure and ablation of the UPaRC
//! paper on the simulation substrate and returns one [`Section`] per
//! experiment: the measured rows, and the [`Claim`]s that set them
//! against the paper. A claim's [`Band`] is the deviation EXPERIMENTS.md
//! documents for that number, rounded up to a round tolerance, or the
//! tolerance a test already applies to the same quantity. The `paper`
//! binary renders the sections into `BENCH_paper.json`, prints the claim
//! table and fails on any claim outside its band; `tests/paper.rs` runs
//! the same [`run`] under `cargo test`.
//!
//! Every workload is seeded, so the sections are a pure function of the
//! code, whatever the sweep worker count.

use std::fmt::{self, Write as _};

use uparc_bitstream::builder::PartialBitstream;
use uparc_bitstream::synth::SynthProfile;
use uparc_compress::xmatchpro::XMatchPro;
use uparc_compress::{Algorithm, Codec, Ratio};
use uparc_controllers::adapter::UparcController;
use uparc_controllers::bram_hwicap::BramHwicap;
use uparc_controllers::farm::Farm;
use uparc_controllers::flashcap::FlashCap;
use uparc_controllers::mst_icap::MstIcap;
use uparc_controllers::xps_hwicap::XpsHwicap;
use uparc_controllers::ReconfigController;
use uparc_core::inventory;
use uparc_core::manager::ManagerConfig;
use uparc_core::optimize::{AppPhase, GlobalOptimizer};
use uparc_core::policy::{Constraint, PowerAwarePolicy};
use uparc_core::uparc::{Mode, UParc, COMPRESSED_MODE_MAX};
use uparc_core::UparcError;
use uparc_fpga::family::Family;
use uparc_fpga::variation::SampleLot;
use uparc_fpga::Device;
use uparc_sim::power::calib;
use uparc_sim::sweep;
use uparc_sim::time::{Frequency, SimTime};
use uparc_sim::trace::Oscilloscope;

use crate::harness::Harness;
use crate::report::{JsonReport, Obj, Value};

/// How far a measured value may sit from the paper's.
#[derive(Debug, Clone, Copy)]
pub enum Band {
    /// Within ± this many percent of the paper value, bounds included.
    Rel(f64),
    /// Between the two values, bounds included, in the claim's unit.
    Range(f64, f64),
    /// A shape the paper states (an ordering, a crossover, a monotone
    /// surface, a flat curve), measured as 1 when it holds and 0 when not.
    Holds,
}

impl fmt::Display for Band {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Band::Rel(pct) => write!(f, "±{pct}%"),
            Band::Range(lo, hi) => write!(f, "[{lo}, {hi}]"),
            Band::Holds => f.write_str("holds"),
        }
    }
}

/// One paper number, or one shape the paper states, next to what this
/// reproduction measures.
#[derive(Debug, Clone)]
pub struct Claim {
    /// `<section>.<quantity>`, unique across the run: the report and its
    /// readers key on it.
    pub id: String,
    /// The paper's value (1 for a [`Band::Holds`] claim).
    pub paper: f64,
    /// The measured value (1 or 0 for a [`Band::Holds`] claim).
    pub measured: f64,
    /// The tolerance.
    pub band: Band,
}

impl Claim {
    /// Whether the measured value lies inside the band.
    #[must_use]
    pub fn holds(&self) -> bool {
        match self.band {
            Band::Rel(pct) => (self.measured - self.paper).abs() * 100.0 <= pct * self.paper.abs(),
            Band::Range(lo, hi) => (lo..=hi).contains(&self.measured),
            Band::Holds => self.measured == 1.0,
        }
    }

    fn to_json(&self) -> Value {
        let claim = Obj::new().field("id", self.id.as_str());
        let claim = match self.band {
            Band::Holds => claim,
            _ => claim
                .field("paper", Value::Num(self.paper.to_string()))
                .field("measured", Value::fixed(self.measured, 3))
                .field("band", self.band.to_string()),
        };
        claim.field("holds", self.holds()).into()
    }
}

/// One line of the claim table: verdict, id, then the measured value
/// against the paper's and the band.
impl fmt::Display for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = if self.holds() { "ok" } else { "OUTSIDE" };
        match self.band {
            Band::Holds => write!(f, "{verdict:<7}  {}", self.id),
            band => write!(
                f,
                "{verdict:<7}  {:<44}  {:>9.3} against {} {band}",
                self.id, self.measured, self.paper
            ),
        }
    }
}

/// One experiment: its measured rows, its claims and any plot data.
#[derive(Debug, Clone)]
pub struct Section {
    /// The experiment's key in the report (`table1`, `figure7`, …).
    pub id: &'static str,
    /// Every measured value the experiment reports, one object per row.
    pub rows: Vec<Obj>,
    /// The comparisons with the paper.
    pub claims: Vec<Claim>,
    /// Curves kept out of the report, as `(path, CSV text)`.
    pub plots: Vec<(String, String)>,
}

impl Section {
    fn new(id: &'static str) -> Section {
        Section {
            id,
            rows: Vec::new(),
            claims: Vec::new(),
            plots: Vec::new(),
        }
    }

    /// Claims `<id>.<name>`: `measured` against the paper's value.
    fn claim(&mut self, name: &str, paper: f64, measured: f64, band: Band) {
        let id = format!("{}.{name}", self.id);
        self.claims.push(Claim {
            id,
            paper,
            measured,
            band,
        });
    }

    /// Claims `<id>.<name>`: a shape the paper states holds.
    fn shape(&mut self, name: &str, holds: bool) {
        self.claim(name, 1.0, f64::from(u8::from(holds)), Band::Holds);
    }

    fn to_json(&self) -> Obj {
        let rows: Vec<Value> = self.rows.iter().cloned().map(Value::from).collect();
        let claims: Vec<Value> = self.claims.iter().map(Claim::to_json).collect();
        Obj::new().field("rows", rows).field("claims", claims)
    }
}

/// §IV's "1.8 times higher than the fastest controller found in the
/// literature" (UPaRC_i over FaRM), with the tolerance of
/// `tests/baselines_vs_uparc.rs::farm_vs_uparc_gap_is_about_1_8x`.
const FARM_GAP: Band = Band::Range(1.75, 1.85);

/// Runs every experiment of the paper's evaluation, in the paper's
/// order, then the ablations.
#[must_use]
pub fn run() -> Vec<Section> {
    vec![
        table1(),
        capacity(),
        table2(),
        table3(),
        figure5(),
        figure7(),
        energy45(),
        samples(),
        global_power(),
        ablation_compression(),
        ablation_dictionary(),
        ablation_dma(),
        ablation_manager(),
    ]
}

/// The `BENCH_paper.json` report: `h`'s header, then one object per
/// section under its id.
#[must_use]
pub fn report(h: &Harness, sections: &[Section]) -> JsonReport {
    sections
        .iter()
        .fold(h.report(), |r, s| r.field(s.id, s.to_json()))
}

/// The claim table: one line per claim, then how many hold.
#[must_use]
pub fn claim_table(sections: &[Section]) -> String {
    let claims: Vec<&Claim> = sections.iter().flat_map(|s| &s.claims).collect();
    let mut out: String = claims.iter().map(|c| format!("{c}\n")).collect();
    let held = claims.len() - outside(sections).len();
    let _ = writeln!(out, "{held} of {} claims hold", claims.len());
    out
}

/// The claims whose measured value lies outside their band.
#[must_use]
pub fn outside(sections: &[Section]) -> Vec<&Claim> {
    let claims = sections.iter().flat_map(|s| &s.claims);
    claims.filter(|c| !c.holds()).collect()
}

/// A dense synthetic partial bitstream of `bytes` bytes, in whole frames
/// from frame address 0.
fn dense(device: &Device, bytes: usize, seed: u64) -> PartialBitstream {
    let frames = (bytes / device.family().frame_bytes()) as u32;
    let payload = SynthProfile::dense().generate(device, 0, frames, seed);
    PartialBitstream::build(device, 0, &payload)
}

/// A freshly built UPaRC on `device` with CLK_2 retuned to `mhz`.
fn uparc_at(device: &Device, mhz: f64) -> UParc {
    let mut sys = UParc::builder(device.clone()).build().expect("build");
    sys.set_reconfiguration_frequency(Frequency::from_mhz(mhz))
        .expect("retune");
    sys
}

fn kb(bytes: usize) -> Value {
    Value::fixed(bytes as f64 / 1024.0, 3)
}

/// A measured value, at three decimals.
fn num(x: f64) -> Value {
    Value::fixed(x, 3)
}

fn mhz(f: Frequency) -> Value {
    Value::fixed(f.as_mhz(), 6)
}

fn ms(t: SimTime) -> Value {
    Value::fixed(t.as_ms_f64(), 6)
}

fn rising(xs: &[f64]) -> bool {
    xs.windows(2).all(|w| w[0] < w[1])
}

fn falling(xs: &[f64]) -> bool {
    xs.windows(2).all(|w| w[0] > w[1])
}

/// Table I: the seven codecs' ratios, as % of the original size saved.
/// As in §III-C, only dense (high-utilization) partial bitstreams are
/// compressed, so as not to exaggerate the ratios; four sizes spanning
/// the Fig. 5 axis up to the 247 KB the BRAM holds raw, three synthetic
/// designs (seeds) each.
fn table1() -> Section {
    const SIZES: [usize; 4] = [30 * 1024, 81 * 1024, 156 * 1024, 247 * 1024];
    const SEEDS: [u64; 3] = [11, 23, 47];
    let mut s = Section::new("table1");
    let device = Device::xc5vsx50t();
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
        let bytes = dense(&device, size, seed).to_bytes();
        let packed = codec.compress(&bytes);
        assert_eq!(
            codec.decompress(&packed).expect("decompression"),
            bytes,
            "{alg} round-trip"
        );
        Ratio::new(bytes.len(), packed.len()).percent_saved()
    });
    let mut means = Vec::new();
    for (alg, ratios) in Algorithm::ALL
        .iter()
        .zip(saved.chunks(SIZES.len() * SEEDS.len()))
    {
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        let min = ratios.iter().copied().fold(f64::INFINITY, f64::min);
        let max = ratios.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        s.rows.push(
            Obj::new()
                .field("algorithm", alg.to_string())
                .field("saved_pct", num(mean))
                .field("min_pct", num(min))
                .field("max_pct", num(max)),
        );
        let name = alg.to_string().to_lowercase();
        s.claim(&name, alg.paper_ratio_percent(), mean, Band::Rel(5.0));
        means.push(mean);
    }
    // The paper's order, RLE to 7-zip (`Algorithm::ALL`), but for the
    // known deviation: LZ77 lands above Huffman, where the paper has them
    // nearly tied the other way round.
    means.swap(1, 2);
    s.shape("order_with_lz77_above_huffman", rising(&means));
    s
}

/// §IV: with X-MatchPRO, the 256 KB BRAM stages a bitstream of up to
/// 992 KB, more than 40 % of the XC5VSX50T's 2444 KB full bitstream.
fn capacity() -> Section {
    let mut s = Section::new("capacity");
    let device = Device::xc5vsx50t();
    let bytes = dense(&device, 992 * 1024, 5).to_bytes();
    let packed = XMatchPro::new().compress(&bytes);
    // The BRAM image adds an 8-byte header to the packed stream.
    let fits = packed.len() + 8 <= 256 * 1024;
    let full_kb = device.full_bitstream_bytes() as f64 / 1024.0;
    let share = 992.0 * 100.0 / full_kb;
    s.rows.push(
        Obj::new()
            .field("bitstream_kb", kb(bytes.len()))
            .field("compressed_kb", kb(packed.len()))
            .field("fits_256_kb_bram", fits)
            .field("full_bitstream_kb", num(full_kb))
            .field("share_of_full_pct", num(share)),
    );
    s.shape("992_kb_fits_256_kb_bram", fits);
    s.claim("full_bitstream_kb", 2444.0, full_kb, Band::Rel(1.0));
    s.claim("share_of_full_pct", 40.0, share, Band::Range(40.0, 100.0));
    s
}

/// Table II: slices of UPaRC's blocks, from the primitive inventories
/// and the slice model `ceil(max(LUTs/lut-per-slice,
/// FFs/ff-per-slice) / 0.80 packing)`.
fn table2() -> Section {
    // Table II's rows: (inventory, paper V5 slices, paper V6 slices).
    let paper = [
        (inventory::DYCLOGEN, 24.0, 18.0),
        (inventory::UREC, 26.0, 26.0),
        (inventory::DECOMPRESSOR_XMATCHPRO, 1035.0, 900.0),
    ];
    let mut s = Section::new("table2");
    let v5 = inventory::table2(Family::Virtex5);
    let v6 = inventory::table2(Family::Virtex6);
    for (((name, s5), (_, s6)), (inv, p5, p6)) in v5.into_iter().zip(v6).zip(paper) {
        s.rows.push(
            Obj::new()
                .field("module", name)
                .field("luts", inv.luts)
                .field("ffs", inv.ffs)
                .field("v5_slices", s5)
                .field("v6_slices", s6),
        );
        let name = name.to_lowercase();
        s.claim(&format!("{name}_v5"), p5, f64::from(s5), Band::Rel(0.0));
        s.claim(&format!("{name}_v6"), p6, f64::from(s6), Band::Rel(0.0));
    }
    s
}

/// Table III: each controller at its native operating point, on a dense
/// bitstream sized to its staging store, as the original papers measured.
fn table3() -> Section {
    let v5 = Device::xc5vsx50t;
    let v4 = Device::xc4vfx60;
    // (controller, workload bytes, paper MB/s)
    let mut controllers: Vec<(Box<dyn ReconfigController>, usize, f64)> = vec![
        (Box::new(XpsHwicap::new(v5())), 100 * 1024, 14.5),
        (Box::new(MstIcap::new(v4())), 246 * 1024, 235.0),
        (Box::new(FlashCap::new(v5())), 200 * 1024, 358.0),
        (Box::new(BramHwicap::new(v4())), 100 * 1024, 371.0),
        (Box::new(Farm::new(v5())), 120 * 1024, 800.0),
        (
            Box::new(UparcController::uparc_ii(v5()).expect("uparc_ii")),
            216 * 1024,
            1008.0,
        ),
        (
            Box::new(UparcController::uparc_i(v5()).expect("uparc_i")),
            247 * 1024,
            1433.0,
        ),
    ];
    let mut s = Section::new("table3");
    let mut bws = Vec::new();
    for (ctrl, bytes, paper_mb_s) in &mut controllers {
        let device = ctrl.icap().device().clone();
        let r = ctrl
            .reconfigure(&dense(&device, *bytes, 42))
            .expect("reconfiguration");
        let spec = ctrl.spec();
        s.rows.push(
            Obj::new()
                .field("controller", spec.name)
                .field("mb_s", num(r.bandwidth_mb_s()))
                .field("large_bitstream", spec.large_bitstream.to_string())
                .field("max_mhz", mhz(spec.max_frequency))
                .field("workload_kb", *bytes / 1024)
                .field("device", device.name()),
        );
        // UPaRC_ii's known deviation sits inside the band: the DCM grid
        // clocks the decompressor at 125 MHz under its 126 MHz ceiling.
        let name = spec.name.to_lowercase();
        s.claim(&name, *paper_mb_s, r.bandwidth_mb_s(), Band::Rel(2.0));
        bws.push(r.bandwidth_mb_s());
    }
    s.shape("order", rising(&bws));
    let gap = bws[6] / bws[4];
    s.claim("uparc_i_over_farm", 1.8, gap, FARM_GAP);
    s
}

/// Fig. 5: UPaRC_i's effective bandwidth over bitstream size × CLK_2
/// (raw staging, Virtex-5), against the `4 × f` theoretical plane. The
/// one calibrated constant behind the surface is the manager's 1.2 µs
/// control overhead, which amortises with size.
fn figure5() -> Section {
    const SIZES_KB: [f64; 7] = [6.5, 12.0, 30.0, 49.0, 81.0, 156.0, 247.0];
    const FREQS_MHZ: [f64; 8] = [50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 350.0, 362.5];
    let mut s = Section::new("figure5");
    let device = Device::xc5vsx50t();
    let grid: Vec<(f64, f64)> = SIZES_KB
        .iter()
        .flat_map(|&size| FREQS_MHZ.iter().map(move |&f| (size, f)))
        .collect();
    let cells = sweep::parallel_map(&grid, |&(size_kb, f)| {
        let bs = dense(&device, (size_kb * 1024.0) as usize, 7);
        let r = uparc_at(&device, f)
            .reconfigure_bitstream(&bs, Mode::Raw)
            .expect("reconfigure");
        (r.bandwidth_mb_s(), r.efficiency() * 100.0)
    });
    for (&(size_kb, f), &(mb_s, eff)) in grid.iter().zip(&cells) {
        s.rows.push(
            Obj::new()
                .field("size_kb", Value::fixed(size_kb, 1))
                .field("mhz", Value::fixed(f, 1))
                .field("mb_s", num(mb_s))
                .field("efficiency_pct", num(eff)),
        );
    }
    // Bandwidth rises along every row (CLK_2) and column (size).
    let n = FREQS_MHZ.len();
    let at = |si: usize, fi: usize| cells[si * n + fi];
    let monotone = (0..SIZES_KB.len()).all(|si| (1..n).all(|fi| at(si, fi - 1).0 < at(si, fi).0))
        && (1..SIZES_KB.len()).all(|si| (0..n).all(|fi| at(si - 1, fi).0 < at(si, fi).0));
    let [small, large] = [0, SIZES_KB.len() - 1].map(|si| at(si, n - 1).1);
    s.claim(
        "efficiency_6_5_kb_pct",
        78.8,
        small,
        Band::Range(77.8, 79.8),
    );
    s.claim(
        "efficiency_247_kb_pct",
        99.0,
        large,
        Band::Range(98.0, 100.0),
    );
    s.shape("monotone_in_size_and_clock", monotone);
    s
}

/// Fig. 7: core power while a 216.5 KB bitstream reconfigures at four
/// CLK_2 settings (Virtex-6/ML605, MicroBlaze manager at 100 MHz waiting
/// actively), sampled through the Fig. 6 shunt/oscilloscope chain every
/// 2 µs. The sampled curves go to `/tmp/uparc_fig7_<f>mhz.csv`.
fn figure7() -> Section {
    let mut s = Section::new("figure7");
    let device = Device::xc6vlx240t();
    let bs = dense(&device, (216.5 * 1024.0) as usize, 11);
    let scope = Oscilloscope::ml605().with_sample_period(SimTime::from_us(2));
    let runs = sweep::parallel_map(&calib::FIG7_POINTS, |&(f, _)| {
        let mut sys = uparc_at(&device, f);
        sys.preload(&bs, Mode::Raw).expect("preload");
        sys.advance_idle(SimTime::from_us(30));
        let r = sys.reconfigure().expect("reconfigure");
        sys.advance_idle(SimTime::from_us(30));
        let trace = sys.power_trace();
        let idle_at_finish = trace.power_at(r.started_at + r.elapsed()) == Some(calib::V6_IDLE_MW);
        (trace.peak_mw(), r, idle_at_finish, scope.sample(&trace))
    });
    let mut powers = Vec::new();
    let mut energies = Vec::new();
    let mut idle_at_finish = true;
    for ((&(f, paper_mw), &(tf, paper_us)), (mw, r, idle, samples)) in calib::FIG7_POINTS
        .iter()
        .zip(&calib::FIG7_TIMES_US)
        .zip(runs)
    {
        assert_eq!(f, tf, "Fig. 7 power and time anchors share one grid");
        let us = r.transfer_time.as_us_f64();
        s.rows.push(
            Obj::new()
                .field("mhz", Value::fixed(f, 1))
                .field("power_mw", num(mw))
                .field("duration_us", num(us))
                .field("energy_uj", num(r.energy_uj)),
        );
        s.claim(&format!("power_{f}_mhz"), paper_mw, mw, Band::Rel(10.0));
        s.claim(&format!("time_{f}_mhz"), paper_us, us, Band::Rel(3.0));
        let mut csv = String::from("time_us,power_mw\n");
        for (t, p) in samples {
            let _ = writeln!(csv, "{:.2},{:.2}", t.as_us_f64(), p);
        }
        s.plots
            .push((format!("/tmp/uparc_fig7_{f:.0}mhz.csv"), csv));
        powers.push((f, mw));
        energies.push(r.energy_uj);
        idle_at_finish &= idle;
    }
    // §V: doubling the frequency halves the time (the time claims) but
    // does not double the power; energy falls with frequency because the
    // manager waits actively; at "Finish", EN gates BRAM and ICAP.
    let sublinear = powers
        .windows(2)
        .filter(|w| w[1].0 == 2.0 * w[0].0)
        .all(|w| w[1].1 < 2.0 * w[0].1);
    s.shape("doubling_f_less_than_doubles_power", sublinear);
    s.shape("energy_falls_with_f", falling(&energies));
    s.shape("idle_at_finish", idle_at_finish);
    s
}

/// §V: xps_hwicap at ≈30 µJ/KB against UPaRC at ≈0.66 µJ/KB, "45 times
/// more efficient". Same conditions as the paper: a 216.5 KB bitstream,
/// a MicroBlaze at 100 MHz, xps_hwicap with its unoptimized driver
/// (≈1.5 MB/s), UPaRC without compression.
fn energy45() -> Section {
    let mut s = Section::new("energy45");
    let device = Device::xc6vlx240t();
    let bs = dense(&device, (216.5 * 1024.0) as usize, 17);
    let rx = XpsHwicap::unoptimized(device.clone())
        .reconfigure(&bs)
        .expect("xps reconfiguration");
    s.rows.push(
        Obj::new()
            .field("controller", "xps_hwicap (unoptimized)")
            .field("mb_s", num(rx.bandwidth_mb_s()))
            .field("uj_per_kb", num(rx.uj_per_kb())),
    );
    s.claim("xps_hwicap_uj_per_kb", 30.0, rx.uj_per_kb(), Band::Rel(5.0));
    let mut gains = Vec::new();
    for f in [50.0, 100.0, 200.0, 300.0] {
        let r = uparc_at(&device, f)
            .reconfigure_bitstream(&bs, Mode::Raw)
            .expect("reconfigure");
        let uj = r.uj_per_kb();
        let gain = rx.uj_per_kb() / uj;
        s.rows.push(
            Obj::new()
                .field("controller", "UPaRC")
                .field("mhz", Value::fixed(f, 1))
                .field("mb_s", num(r.bandwidth_mb_s()))
                .field("uj_per_kb", num(uj))
                .field("gain_over_xps", num(gain)),
        );
        if f == 50.0 {
            // The known deviation: the calibration charges the whole
            // 92 mW active wait to UPaRC's transfer window, +13.7 % at
            // 50 MHz, so the ratio reads ≈41× for the paper's 45×.
            s.claim("uparc_50_mhz_uj_per_kb", 0.66, uj, Band::Rel(15.0));
            s.claim("ratio_50_mhz", 45.0, gain, Band::Range(35.0, 60.0));
        }
        gains.push(gain);
    }
    // The wait window shrinks with the clock, so the gain grows.
    s.shape("gain_grows_with_f", rising(&gains));
    s
}

/// §IV's multi-sample screening at the scale the paper left "underway":
/// 500-sample Monte-Carlo lots of each family at 1 V and 20 °C. Every
/// XC5VSX50T sustains 362.5 MHz; for the XC6VLX240T "the maximum
/// frequency seems to be few MHz lower", taken here as under 10 MHz.
fn samples() -> Section {
    let mut s = Section::new("samples");
    let v5 = SampleLot::draw(Family::Virtex5, 500, 0xA5);
    let v6 = SampleLot::draw(Family::Virtex6, 500, 0x6A);
    for f in [350.0, 355.0, 358.0, 360.0, 362.5, 365.0, 370.0] {
        let f = Frequency::from_mhz(f);
        s.rows.push(
            Obj::new()
                .field("mhz", mhz(f))
                .field("v5_yield_pct", num(v5.screen(f).yield_fraction() * 100.0))
                .field("v6_yield_pct", num(v6.screen(f).yield_fraction() * 100.0)),
        );
    }
    let point = Frequency::from_mhz(362.5);
    let v5_at_point = v5.screen(point);
    let v6_weakest = v6.screen(point).min_fmax;
    let v6_short = 362.5 - v6_weakest.as_mhz();
    s.rows.push(
        Obj::new()
            .field("weakest_v5_mhz", mhz(v5_at_point.min_fmax))
            .field("weakest_v6_mhz", mhz(v6_weakest))
            .field("v6_short_of_362_5_mhz", num(v6_short)),
    );
    let v5_yield = v5_at_point.yield_fraction() * 100.0;
    s.claim("v5_yield_at_362_5_mhz_pct", 100.0, v5_yield, Band::Rel(0.0));
    let a_few = v6_short > 0.0 && v6_short < 10.0;
    s.shape("v6_weakest_a_few_mhz_lower", a_few);
    s
}

/// §VI future work, implemented: a software-defined radio cycles through
/// five modules, and the optimizer assigns every swap a CLK_2 at once to
/// minimise peak power under a makespan budget. The budget sweep traces
/// the power/deadline curve; the tightest plan then runs on the full
/// system model (preloads prefetch, so downtime plus execution must fit).
fn global_power() -> Section {
    let mut s = Section::new("global_power");
    let device = Device::xc5vsx50t();
    let opt = GlobalOptimizer::new(PowerAwarePolicy::paper_setup(device.family()));
    let phases = vec![
        AppPhase::new("sync", 40 * 1024, SimTime::from_ms(1)),
        AppPhase::new("channel-est", 96 * 1024, SimTime::from_ms(2)),
        AppPhase::new("demod", 160 * 1024, SimTime::from_ms(2)),
        AppPhase::new("viterbi", 200 * 1024, SimTime::from_ms(3)),
        AppPhase::new("crc-out", 24 * 1024, SimTime::from_ms(1)),
    ];
    let mut peaks = Vec::new();
    for budget_ms in [20.0, 12.0, 10.5, 9.6, 9.25] {
        let row = Obj::new().field("budget_ms", Value::fixed(budget_ms, 2));
        let makespan = SimTime::from_secs_f64(budget_ms * 1e-3);
        s.rows
            .push(match opt.minimize_peak_power(&phases, makespan) {
                Ok(plan) => {
                    peaks.push(plan.peak_power_mw);
                    row.field("peak_mw", num(plan.peak_power_mw))
                        .field("clk2_mhz", mhz(plan.per_phase[0].1.frequency))
                        .field("total_ms", ms(plan.total_time))
                        .field("swap_energy_uj", num(plan.total_energy_uj))
                }
                Err(UparcError::DeadlineInfeasible { best, .. }) => row
                    .field("feasible", false)
                    .field("best_achievable_ms", ms(best)),
                Err(e) => panic!("global optimizer: {e}"),
            });
    }
    let makespan = SimTime::from_us(9600);
    let plan = opt
        .minimize_peak_power(&phases, makespan)
        .expect("feasible");
    let mut sys = UParc::builder(device.clone()).build().expect("build");
    let mut busy = SimTime::ZERO;
    let mut swaps_as_planned = true;
    for (phase, (_, point)) in phases.iter().zip(&plan.per_phase) {
        sys.set_reconfiguration_frequency(point.frequency)
            .expect("tune");
        let bs = dense(&device, phase.bitstream_bytes, 1);
        let r = sys.reconfigure_bitstream(&bs, Mode::Raw).expect("swap");
        swaps_as_planned &= r.elapsed() <= point.predicted_time + SimTime::from_us(1);
        busy += r.elapsed() + phase.execution;
        sys.advance_idle(phase.execution);
    }
    s.rows.push(
        Obj::new()
            .field("validated_budget_ms", ms(makespan))
            .field("busy_ms", ms(busy))
            .field("measured_peak_mw", num(sys.power_trace().peak_mw()))
            .field("planned_peak_mw", num(plan.peak_power_mw)),
    );
    let peak_rises = peaks.windows(2).all(|w| w[0] <= w[1]);
    s.shape("peak_rises_as_budget_tightens", peak_rises);
    let plan_holds = swaps_as_planned && busy <= makespan;
    s.shape("tightest_plan_holds_on_the_system", plan_holds);
    s
}

/// Where compressed staging pays off: UPaRC_i (raw, 362.5 MHz) against
/// UPaRC_ii (X-MatchPRO, 255 MHz) across the 256 KB BRAM boundary. The
/// §III-C mode policy stages raw when the bitstream fits, compressed
/// otherwise, up to the 992 KB of §IV. A row without `raw_mb_s` is a
/// bitstream raw staging refused.
fn ablation_compression() -> Section {
    let mut s = Section::new("ablation_compression");
    let device = Device::xc5vsx50t();
    let mut raw_wins_where_it_fits = true;
    let mut compressed_always = true;
    for size_kb in [49, 128, 247, 320, 512, 768, 992] {
        let bs = dense(&device, size_kb * 1024, 31);
        let raw = uparc_at(&device, 362.5).reconfigure_bitstream(&bs, Mode::Raw);
        let comp =
            uparc_at(&device, COMPRESSED_MODE_MAX).reconfigure_bitstream(&bs, Mode::Compressed);
        let mut row = Obj::new().field("size_kb", size_kb);
        if let Ok(r) = &raw {
            row = row.field("raw_mb_s", num(r.bandwidth_mb_s()));
        }
        if let Ok(c) = &comp {
            row = row
                .field("compressed_mb_s", num(c.bandwidth_mb_s()))
                .field("stored_kb", kb(c.stored_bytes));
        }
        s.rows.push(row);
        // The raw image (stream plus its mode word) fits the BRAM exactly
        // where raw staging works, and there it beats compressed staging.
        let fits = bs.size_bytes() + 4 <= 256 * 1024;
        raw_wins_where_it_fits &= match (&raw, &comp) {
            (Ok(r), Ok(c)) => fits && r.bandwidth_mb_s() > c.bandwidth_mb_s(),
            (Ok(_), Err(_)) => fits,
            (Err(_), _) => !fits,
        };
        compressed_always &= comp.is_ok();
    }
    s.shape("raw_wins_up_to_the_bram_capacity", raw_wins_where_it_fits);
    s.shape("compressed_stages_up_to_992_kb", compressed_always);
    s
}

/// X-MatchPRO's CAM depth on one 156 KB Table I workload: a deeper
/// dictionary matches more, until it holds the bitstream's working set
/// of distinct tuples and wider location fields only cost bits (and CAM
/// area and clock in hardware), which is why the paper ships 16 entries.
fn ablation_dictionary() -> Section {
    let mut s = Section::new("ablation_dictionary");
    let device = Device::xc5vsx50t();
    let data = dense(&device, 156 * 1024, 13).to_bytes();
    let mut saved = Vec::new();
    for entries in [4usize, 8, 16, 32, 64] {
        let codec = XMatchPro::with_dictionary(entries);
        let packed = codec.compress(&data);
        assert_eq!(codec.decompress(&packed).expect("lossless"), data);
        let pct = Ratio::new(data.len(), packed.len()).percent_saved();
        s.rows.push(
            Obj::new()
                .field("entries", entries)
                .field("saved_pct", num(pct))
                .field("location_bits", entries.trailing_zeros()),
        );
        saved.push(pct);
    }
    let saturates = rising(&saved[..4]) && saved[4] < saved[3];
    s.shape("rises_to_32_entries_then_drops", saturates);
    s
}

/// §III-B: vendor-DMA controllers cannot clock above 200 MHz, while
/// UReC's custom burst interface streams a word every cycle. On one
/// 120 KB bitstream: FaRM, then UReC at FaRM's clock, at the BRAM's
/// guaranteed 300 MHz and overclocked to 362.5 MHz.
fn ablation_dma() -> Section {
    let mut s = Section::new("ablation_dma");
    let device = Device::xc5vsx50t();
    let bs = dense(&device, 120 * 1024, 41);
    let mut row = |design: &str, bytes: usize, elapsed: SimTime, f: Frequency| {
        let mb_s = bytes as f64 / elapsed.as_secs_f64() / 1e6;
        let words_per_cycle = bytes as f64 / 4.0 / (elapsed.as_secs_f64() * f.as_hz() as f64);
        s.rows.push(
            Obj::new()
                .field("design", design)
                .field("mhz", mhz(f))
                .field("mb_s", num(mb_s))
                .field("words_per_cycle", Value::fixed(words_per_cycle, 4)),
        );
        (mb_s, words_per_cycle)
    };
    let rf = Farm::new(device.clone()).reconfigure(&bs).expect("farm");
    let farm = row("vendor DMA (FaRM)", rf.bytes, rf.elapsed, rf.frequency);
    let urec = [200.0, 300.0, 362.5].map(|f| {
        let r = uparc_at(&device, f)
            .reconfigure_bitstream(&bs, Mode::Raw)
            .expect("uparc");
        row("UReC custom", r.bytes, r.elapsed(), r.frequency)
    });
    // At FaRM's own clock the custom interface moves the same words per
    // cycle (to the three decimals EXPERIMENTS.md quotes): the 1.8× comes
    // from the timing headroom its 26 slices leave.
    let same_words_per_cycle = (urec[0].1 - farm.1).abs() < 5e-4;
    s.shape("urec_matches_farm_at_200_mhz", same_words_per_cycle);
    let gap = urec[2].0 / farm.0;
    s.claim("urec_at_362_5_mhz_over_farm", 1.8, gap, FARM_GAP);
    s
}

/// §V, closing discussion: the measured energy falls with frequency only
/// because the MicroBlaze waits actively for "Finish"; "without actively
/// waiting ... the reconfiguration energy would be the same for each
/// frequencies". The two wait strategies on a 216.5 KB bitstream, and
/// the minimum-energy clock each one's planner picks.
fn ablation_manager() -> Section {
    let mut s = Section::new("ablation_manager");
    let device = Device::xc6vlx240t();
    let bytes = (216.5 * 1024.0) as usize;
    let bs = dense(&device, bytes, 21);
    let strategy = |active_wait: bool| ManagerConfig { active_wait };
    let mut active_uj = Vec::new();
    let mut event_uj = Vec::new();
    for f in [50.0, 100.0, 200.0, 300.0] {
        let [active, event] = [true, false].map(|active_wait| {
            let mut sys = UParc::builder(device.clone())
                .manager(strategy(active_wait))
                .build()
                .expect("build");
            sys.set_reconfiguration_frequency(Frequency::from_mhz(f))
                .expect("retune");
            let r = sys.reconfigure_bitstream(&bs, Mode::Raw);
            r.expect("reconfigure").energy_uj
        });
        s.rows.push(
            Obj::new()
                .field("mhz", Value::fixed(f, 1))
                .field("active_wait_uj", num(active))
                .field("event_driven_uj", num(event)),
        );
        active_uj.push(active);
        event_uj.push(event);
    }
    let active = PowerAwarePolicy::paper_setup(Family::Virtex6);
    let event = PowerAwarePolicy::new(Family::Virtex6, Frequency::from_mhz(100.0), strategy(false));
    let [fa, fe] = [&active, &event].map(|p| {
        let plan = p.plan(Constraint::MinEnergy, bytes);
        plan.expect("plan").frequency
    });
    s.rows.push(
        Obj::new()
            .field("active_wait_min_energy_mhz", mhz(fa))
            .field("event_driven_min_energy_mhz", mhz(fe)),
    );
    s.shape("active_wait_energy_falls_with_f", falling(&active_uj));
    // Flat: within 2 % of the event-driven energy at the first clock.
    let flat = event_uj
        .iter()
        .all(|&e| (e - event_uj[0]).abs() / event_uj[0] < 0.02);
    s.shape("event_driven_energy_is_flat", flat);
    let grid = active.frequency_grid();
    s.shape(
        "min_energy_clock_flips_fastest_to_slowest",
        Some(&fa) == grid.last() && Some(&fe) == grid.first(),
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn holds(paper: f64, measured: f64, band: Band) -> bool {
        let id = "t".to_owned();
        Claim {
            id,
            paper,
            measured,
            band,
        }
        .holds()
    }

    #[test]
    fn bands_include_their_edges() {
        // ±50 % of 2 is [1, 3]; every value here is exact in binary.
        for (measured, inside) in [(1.0, true), (3.0, true), (0.75, false), (3.25, false)] {
            assert_eq!(holds(2.0, measured, Band::Rel(50.0)), inside, "{measured}");
        }
        for (measured, inside) in [(35.0, true), (60.0, true), (34.5, false), (60.5, false)] {
            let band = Band::Range(35.0, 60.0);
            assert_eq!(holds(45.0, measured, band), inside, "{measured}");
        }
        assert!(holds(24.0, 24.0, Band::Rel(0.0)));
        assert!(!holds(24.0, 25.0, Band::Rel(0.0)));
        assert!(holds(1.0, 1.0, Band::Holds));
        assert!(!holds(1.0, 0.0, Band::Holds));
    }
}
