//! Regenerates the paper's evaluation — Tables I–III, Figures 5 and 7,
//! the §IV capacity and screening results, the §V 45× energy claim, the
//! §VI global optimizer and four ablations — and checks every paper
//! number against its band.
//!
//! Prints the claim table, fails unless every claim holds, then writes
//! the Fig. 7 oscilloscope curves to `/tmp/uparc_fig7_<f>mhz.csv` and the
//! report to `BENCH_paper.json`. The workload is fixed: there is no
//! `--smoke` variant.
//!
//! Run with `cargo run --release -p uparc-bench --bin paper`.

use uparc_bench::harness::{render_twice, Harness};
use uparc_bench::paper;

fn main() {
    let h = Harness::new("paper", 1);
    assert!(
        !h.smoke,
        "paper has one fixed workload and no --smoke variant"
    );
    let (rendered, sections) = render_twice(|| {
        let sections = paper::run();
        (paper::report(&h, &sections).render(), sections)
    });
    print!("{}", paper::claim_table(&sections));
    let outside = paper::outside(&sections).len();
    assert!(outside == 0, "{outside} claim(s) outside their bands");
    for (path, csv) in sections.iter().flat_map(|s| &s.plots) {
        std::fs::write(path, csv).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("plot data written: {path}");
    }
    let keys: Vec<String> = sections.iter().map(|s| format!("\"{}\"", s.id)).collect();
    h.write(
        &rendered,
        &keys.iter().map(String::as_str).collect::<Vec<_>>(),
    );
}
