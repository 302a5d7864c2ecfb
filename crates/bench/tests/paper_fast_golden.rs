//! Golden test: the paper's own figures and tables, pinned by fingerprint.
//!
//! Every `Paper` row of the registry runs with `--fast` at seed 42 and
//! each table it returns is compared — measured columns blanked, so the
//! host's clock does not matter and one set of fingerprints serves debug
//! and release builds — against `paper_fast_golden.txt`. One line there
//! pins one table:
//!
//! ```text
//! <csv file> <FNV-1a of the masked text> <low 16 bits of each line's FNV-1a, 4 hex digits each>
//! ```
//!
//! The per-line digits exist only to name the first row that moved. The
//! fingerprints were generated at the commit that introduced the `Table`
//! contract, from tables byte-identical to the CSVs the per-figure binaries
//! of its parent wrote; replace a line only for a change that is *meant*
//! to alter that figure (a failure prints the line to paste).

use std::collections::BTreeMap;

use selftune_bench::experiments::{Group, REGISTRY};
use selftune_bench::Args;
use selftune_distrib::fnv1a64;

const GOLDEN: &str = include_str!("paper_fast_golden.txt");

fn fingerprint(masked: &str) -> String {
    let rows: String = masked
        .lines()
        .map(|line| format!("{:04x}", fnv1a64(line.as_bytes()) & 0xffff))
        .collect();
    format!("{:016x} {rows}", fnv1a64(masked.as_bytes()))
}

/// The first line of `masked` whose digits differ from the pinned ones.
fn first_moved_row(masked: &str, pinned: &str, now: &str) -> String {
    let digits = |fp: &str| fp.split(' ').nth(1).unwrap_or("").to_owned();
    let (pinned, now) = (digits(pinned), digits(now));
    let moved = (0..now.len().max(pinned.len()) / 4)
        .find(|&row| pinned.get(4 * row..4 * row + 4) != now.get(4 * row..4 * row + 4));
    match moved.map(|row| (row, masked.lines().nth(row))) {
        Some((row, Some(line))) => format!("line {row} (0 = header) is now `{line}`"),
        Some((row, None)) => format!("line {row} and all after it are gone"),
        None => "no single line located (16-bit digits collided)".to_owned(),
    }
}

#[test]
fn every_paper_table_matches_its_fast_fingerprint() {
    let args = Args {
        fast: true,
        seed: 42,
        out: std::env::temp_dir().join("selftune-bench-paper-golden"),
        ..Args::default()
    };
    let mut golden: BTreeMap<&str, &str> = GOLDEN
        .lines()
        .map(|line| line.split_once(' ').expect("`<file> <fingerprint>`"))
        .collect();
    let mut failures = Vec::new();
    for experiment in REGISTRY.iter().filter(|e| e.group == Group::Paper) {
        for table in (experiment.run)(&args) {
            let masked = table.mask_measured(&table.csv_text());
            let now = fingerprint(&masked);
            let (name, file) = (experiment.name, table.file());
            match golden.remove(file) {
                Some(pinned) if pinned == now => {}
                Some(pinned) => failures.push(format!(
                    "{name}: {file} moved: {}\n  to accept, pin: {file} {now}",
                    first_moved_row(&masked, pinned, &now)
                )),
                None => failures.push(format!(
                    "{name}: {file} has no fingerprint\n  to accept, pin: {file} {now}"
                )),
            }
        }
    }
    for file in golden.keys() {
        failures.push(format!(
            "{file} is pinned but no paper experiment returned it"
        ));
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}
