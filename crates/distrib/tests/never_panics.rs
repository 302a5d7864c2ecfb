//! Load-then-verify never panics.
//!
//! The journal files and checkpoint files are the program's outside
//! input: whatever one field of one line says, or wherever the file
//! stops, loading and re-executing it must come back `Ok` or a named
//! `Err` — never a panic, which between two barrier waits would strand
//! the runner's sibling workers. A checkpoint file goes through both of
//! its verifiers (`Checkpoint::verify` and `Follower::from_checkpoint`),
//! which must agree.
//!
//! The corpus is the three checked-in fixtures plus a checkpoint recorded
//! off a composed stream. A case replaces one integer field of one header
//! or record line with an arbitrary `u64` (the embedded scenario and
//! summary blocks are left alone: the scenario loader has its own error
//! tests, and a summary edit is just a divergence), or truncates the text
//! at an arbitrary line.
//!
//! The wire is outside input too: a second property does the same to one
//! frame's payload of that composed stream — `epoch`, `at`, `cursor`,
//! `hash`-adjacent headers and every record field — re-frames it under a
//! valid CRC and feeds the stream to a follower, whose live mirror then
//! runs whatever was accepted. Every `feed` comes back `Ok` or a named
//! error, and a refused frame leaves the replica able to finish.
//!
//! So is a scenario file. A third, exhaustive test takes
//! `examples/fleet_demo.txt` and the scenario block of the diurnal
//! fixture through every single-line truncation and every numeric field
//! set to `0`, `1e300`, `NaN`, `-1` and a nanosecond (`0.000001` ms):
//! `ScenarioSpec::from_text` answers `Ok` or `Err`, what it accepts has a
//! bounded epoch grid, and — the nanosecond clocks aside — plans and runs.
//! The same nanosecond epoch arriving in a Hello frame is a protocol
//! error, not an allocation the size of the horizon.

use std::ops::Range;
use std::sync::OnceLock;

use proptest::prelude::*;
use selftune_cluster::prelude::*;
use selftune_distrib::prelude::*;
use selftune_journal::prelude::*;
use selftune_simcore::time::Dur;

fn fixture(name: &str) -> String {
    let path = format!("{}/../../examples/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {path}: {e}"))
}

/// The composed diurnal stream, checkpointed every 2 epochs.
fn recorded_stream() -> &'static [Vec<u8>] {
    static STREAM: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    STREAM.get_or_init(|| {
        let mut spec = ScenarioSpec::diurnal_demo(3, 6)
            .with_rebalance(ScenarioSpec::diurnal_rebalance())
            .with_node_share(ScenarioSpec::diurnal_node_share());
        for vm in &mut spec.vms {
            vm.elastic = true;
        }
        let (tx, mut rx) = ChannelTransport::pair();
        let mut shipper = Shipper::new(tx, &spec, 42, 2, Some(2));
        ClusterRunner::new(2).run_logged_with(&spec, 42, &mut shipper);
        std::iter::from_fn(|| rx.recv()).collect()
    })
}

/// A checkpoint file recorded off that stream.
fn recorded_checkpoint() -> String {
    let mut follower = Follower::new(2);
    for chunk in recorded_stream() {
        follower.feed(chunk).expect("clean stream");
    }
    follower.last_checkpoint().expect("checkpointed").to_text()
}

/// `(is a checkpoint, text)` for every file under mutation.
fn corpus() -> &'static [(bool, String)] {
    static CORPUS: OnceLock<Vec<(bool, String)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        vec![
            (false, fixture("diurnal.journal")),
            (false, fixture("megafleet.journal")),
            (false, fixture("milliontask.journal")),
            (true, recorded_checkpoint()),
        ]
    })
}

/// Byte ranges of the whole-integer fields of one line: `key = 7`,
/// `admission = 1 2 3`, `… epoch=3 from=2 …`.
fn int_fields(line: &str) -> Vec<Range<usize>> {
    let mut fields = Vec::new();
    let mut pos = 0;
    for tok in line.split(' ') {
        let start = pos + tok.rfind('=').map_or(0, |i| i + 1);
        let end = pos + tok.len();
        if start < end && line[start..end].bytes().all(|b| b.is_ascii_digit()) {
            fields.push(start..end);
        }
        pos = end + 1;
    }
    fields
}

/// `text` with the `field_pick`-th integer field of its `line_pick`-th
/// header/record line replaced by `value`.
fn mutate_field(text: &str, line_pick: usize, field_pick: usize, value: u64) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let mut block = false;
    let candidates: Vec<usize> = (0..lines.len())
        .filter(|&i| {
            let line = lines[i].trim();
            if matches!(line, "scenario_begin" | "summary_begin") {
                block = true;
            } else if matches!(line, "scenario_end" | "summary_end") {
                block = false;
            }
            !block && !int_fields(&lines[i]).is_empty()
        })
        .collect();
    let target = candidates[line_pick % candidates.len()];
    let fields = int_fields(&lines[target]);
    let field = fields[field_pick % fields.len()].clone();
    lines[target].replace_range(field, &value.to_string());
    lines.iter().map(|l| format!("{l}\n")).collect()
}

fn truncate_at(text: &str, line_pick: usize) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let keep = line_pick % lines.len();
    lines[..keep].iter().map(|l| format!("{l}\n")).collect()
}

fn load_then_verify(checkpoint: bool, text: &str, threads: usize) -> Result<(), String> {
    if checkpoint {
        // Both verifiers of a checkpoint file: stand-alone, from t = 0,
        // and a follower attaching its live mirror. They refuse the same
        // files.
        let ckpt = Checkpoint::from_text(text)?;
        let alone = ckpt.verify(threads).map(|_| ());
        let attached = Follower::from_checkpoint(&ckpt, threads).map(|_| ());
        assert_eq!(alone.is_ok(), attached.is_ok(), "{alone:?} vs {attached:?}");
        attached
    } else {
        let journal = Journal::from_text(text)?;
        Replayer::new(threads).verify(&journal).map(|_| ())
    }
}

/// The one cursor inside the grid that no checkpoint can stand at: the
/// horizon, where a run has its finale and no interim. Loading a
/// checkpoint that claims it is a named error from both verifiers.
#[test]
fn a_horizon_cursor_is_refused_not_run() {
    let text = recorded_checkpoint();
    let good = Checkpoint::from_text(&text).expect("recorded checkpoint loads");
    let ends = ClusterRunner::epoch_ends(&good.journal.scenario);
    let header = |key: &str| {
        let line = text.lines().find(|l| l.starts_with(key));
        line.unwrap_or_else(|| panic!("{key} header")).to_owned()
    };
    let horizon = text
        .replacen(
            &header("cursor = "),
            &format!("cursor = {}", ends.len() - 1),
            1,
        )
        .replacen(
            &header("at = "),
            &format!("at = {}", ends[ends.len() - 1].as_ns()),
            1,
        );
    for threads in [1usize, 2] {
        let err = load_then_verify(true, &horizon, threads).expect_err("no interim there");
        assert!(
            err.contains("where no interim exists"),
            "unnamed error: {err}"
        );
    }
}

/// Every variant of `line` with one numeric field — a whole token, or
/// the count of a `first:2` node filter — replaced by `value`.
fn numeric_mutations(line: &str, value: &str) -> Vec<String> {
    let tokens: Vec<&str> = line.split(' ').collect();
    let mut variants = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        let number = tok.rfind(':').map_or(0, |colon| colon + 1);
        if tok[number..].parse::<f64>().is_ok() {
            let mutated = format!("{}{value}", &tok[..number]);
            let mut tokens = tokens.clone();
            tokens[i] = &mutated;
            variants.push(tokens.join(" "));
        }
    }
    variants
}

/// One nanosecond, as a scenario file spells it (durations are in ms).
const NANOSECOND_MS: &str = "0.000001";

/// The first frame of a stream is a whole scenario from the wire: a
/// nanosecond rebalance period in it must be refused by name, before the
/// follower sizes its epoch grid by it.
#[test]
fn a_hello_with_a_nanosecond_epoch_is_a_protocol_error() {
    let hello = Frame::decode(&recorded_stream()[0]).expect("clean chunk");
    let line = hello
        .payload
        .lines()
        .find(|l| l.starts_with("rebalance = "));
    let line = line.expect("the Hello carries the scenario");
    let period = line.split(' ').nth(3).expect("rebalance period");
    let payload = hello
        .payload
        .replacen(line, &line.replacen(period, NANOSECOND_MS, 1), 1);
    assert_ne!(payload, hello.payload);
    let bad = Frame { payload, ..hello }.encode();
    match Follower::new(1).feed(&bad) {
        Err(StreamError::Protocol(e)) => assert!(e.contains("epochs"), "unnamed error: {e}"),
        other => panic!("expected a protocol error, got {other:?}"),
    }
}

#[test]
fn scenario_text_never_panics() {
    let journal = fixture("diurnal.journal");
    let begin =
        journal.find("scenario_begin\n").expect("scenario block") + "scenario_begin\n".len();
    let block = &journal[begin..journal.find("scenario_end").expect("block end")];
    for text in [fixture("fleet_demo.txt").as_str(), block] {
        let lines: Vec<&str> = text.lines().collect();
        // `(text, worth running)`: a nanosecond sampling period, hog chunk
        // or task period is valid and merely slow, so those cases stop at
        // the loader and the grid.
        let mut cases: Vec<(String, bool)> = (0..lines.len())
            .map(|n| (truncate_at(text, n), true))
            .collect();
        for (n, line) in lines.iter().enumerate() {
            for value in ["0", "1e300", "NaN", "-1", NANOSECOND_MS] {
                for mutated in numeric_mutations(line, value) {
                    let mut lines = lines.clone();
                    lines[n] = &mutated;
                    cases.push((lines.join("\n"), value != NANOSECOND_MS));
                }
            }
        }
        assert!(cases.len() > 100, "only {} cases", cases.len());
        let mut ran = 0;
        for (case, worth_running) in &cases {
            let Ok(spec) = ScenarioSpec::from_text(case) else {
                continue;
            };
            // Every loader sizes a table by the epoch grid: whatever is
            // accepted must keep it small (`MAX_EPOCHS` plus the horizon).
            let epochs = ClusterRunner::epoch_ends(&spec).len();
            assert!(epochs <= 100_001, "{epochs} epochs accepted:\n{case}");
            // What the loader accepts must plan and run. Only the size is
            // capped, to keep this in tier-1 time; a horizon of 1e300 ms
            // is absurd but valid — a centuries-long run, not a panic —
            // and is left out (with the rebalancer off: on an epoch grid
            // it is refused).
            let guests: usize = spec.vms.iter().map(|vm| vm.guest_count()).sum();
            if !worth_running
                || spec.nodes * (spec.flat_tasks() + guests) > 512
                || spec.horizon > Dur::secs(60)
            {
                continue;
            }
            let plan = plan_fleet(&spec, 42);
            ClusterRunner::new(1).run_planned(&spec, 42, &plan);
            ran += 1;
        }
        assert!(ran > 20, "only {ran} accepted cases ran");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn load_then_verify_never_panics(
        which in 0usize..4,
        line_pick in 0usize..1_000_000,
        field_pick in 0usize..16,
        raw in 0u64..u64::MAX,
        // Small values land inside the scenario's id ranges, large ones
        // far outside: both sides of every bounds check get exercised.
        shift in 0u32..64,
        truncate in 0u8..4,
        threads in 1usize..3,
    ) {
        let (checkpoint, text) = &corpus()[which];
        let mutated = if truncate == 0 {
            truncate_at(text, line_pick)
        } else {
            mutate_field(text, line_pick, field_pick, raw >> shift)
        };
        // Reaching the match at all is the property; an unchanged text
        // must additionally still verify.
        match load_then_verify(*checkpoint, &mutated, threads) {
            Ok(()) => {}
            Err(e) => prop_assert!(mutated != *text, "pristine input refused: {}", e),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn feeding_a_mutated_frame_never_panics(
        frame_pick in 0usize..1_000,
        line_pick in 0usize..1_000_000,
        field_pick in 0usize..16,
        raw in 0u64..u64::MAX,
        shift in 0u32..64,
        truncate in 0u8..4,
        threads in 1usize..3,
    ) {
        let stream = recorded_stream();
        // Any frame but Finish, whose payload is one summary block.
        let target = frame_pick % (stream.len() - 1);
        let frame = Frame::decode(&stream[target]).expect("clean chunk");
        let payload = if truncate == 0 {
            truncate_at(&frame.payload, line_pick)
        } else {
            mutate_field(&frame.payload, line_pick, field_pick, raw >> shift)
        };
        let pristine = payload == frame.payload;
        let bad = Frame { payload, ..frame }.encode();

        let mut follower = Follower::new(threads);
        let mut accepted = true;
        let mut named = None;
        for (i, chunk) in stream.iter().enumerate() {
            if i == target {
                accepted = follower.feed(&bad).is_ok();
                if accepted {
                    continue;
                }
                // Refused: replica and mirror stand where they stood, so
                // the clean frame and the rest of the stream still apply.
            }
            if let Err(e) = follower.feed(chunk) {
                named = Some((i, e));
                break;
            }
        }
        match named {
            None => prop_assert!(follower.finale().is_some()),
            // Only an accepted mutation can make a clean frame fail: it
            // changed a decision, and the next comparison named it.
            Some((i, e)) => {
                prop_assert!(accepted && !pristine, "clean frame {} refused: {}", i, e)
            }
        }
    }
}
