//! The paper reproduction under `cargo test`: the same run the `paper`
//! binary renders into `BENCH_paper.json`, with every paper number and
//! every shape the paper states checked against its band.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use uparc_bench::paper::{self, Section};

fn sections() -> &'static [Section] {
    static RUN: OnceLock<Vec<Section>> = OnceLock::new();
    RUN.get_or_init(paper::run)
}

#[test]
fn every_paper_claim_holds() {
    let outside: Vec<String> = paper::outside(sections())
        .iter()
        .map(|c| c.to_string())
        .collect();
    assert!(outside.is_empty(), "{}", outside.join("\n"));
}

#[test]
fn section_and_claim_ids_are_unique() {
    // The report keys sections by id, and its readers key claims by id.
    let mut seen = BTreeSet::new();
    for s in sections() {
        assert!(seen.insert(s.id), "section {} repeats", s.id);
        for c in &s.claims {
            assert!(seen.insert(c.id.as_str()), "claim {} repeats", c.id);
        }
    }
}
