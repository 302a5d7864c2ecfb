//! Live heap bytes per managed task on one node.
//!
//! One self-tuning controller (period analyser + LFS++) runs per legacy
//! task, so at fleet scale the per-task resident bytes set the memory
//! bound. This test counts them: a counting global allocator (this file
//! is its own test binary, so it counts for no other test) tracks the
//! bytes live at each point, and one node admits 512 periodic real-time
//! tasks and runs past two manager steps on the test's own thread.
//!
//! Three figures are pinned, each to a ceiling 10 % above its measured
//! value so a duplicated per-task copy (a second string of every metric
//! name, a config held twice) fails here before it shows in a fleet's
//! peak RSS:
//!
//! - the bytes after admission: the arena entry and its live box, the
//!   kernel's task, the workload and the manager's controller;
//! - the bytes after the first step;
//! - what the first step added: the metric keys the manager interns then,
//!   the samples and the analysers' windows.
//!
//! The tasks run 500 ms periods, like a dense fleet's honest tasks, so
//! through the first step every analyser is still in its history state
//! (no `bins × 16` byte grid pair) and the figures are the per-task state
//! the stack keeps. The second step, printed but not pinned, is where about
//! a fifth of them take up that pair.
//!
//! To run it by itself: `cargo test --release -p selftune-cluster --test resident_bytes`.

use selftune_cluster::spec::{ScenarioSpec, TaskKind};
use selftune_cluster::{Node, NodeTask};
use selftune_simcore::time::{Dur, Time};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes currently allocated through the global allocator (requested
/// sizes, not the allocator's size classes).
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counter is bookkeeping only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            LIVE.fetch_add(new_size, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const TASKS: usize = 512;

fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Live bytes per task grown since `base`.
fn per_task(base: usize) -> usize {
    (live() - base) / TASKS
}

#[test]
fn per_task_resident_bytes_stay_under_their_ceilings() {
    let sampling = Dur::ms(500);
    let spec = ScenarioSpec::new("resident", 1, TASKS, Dur::ms(1_200));
    let mut node = Node::new(0, &spec);
    // Warm the per-thread spectrum buffers and plans on a node of its own,
    // so the figures below count per-task state only.
    let mut warm = Node::new(1, &spec);
    warm.add_task(task(0));
    warm.run_to_horizon(Time::ZERO + sampling * 2);
    drop(warm);

    let base = live();
    for i in 0..TASKS {
        node.add_task(task(i));
    }
    let admitted = per_task(base);
    node.run_to_horizon(Time::ZERO + sampling);
    let first_step = per_task(base);
    node.run_to_horizon(Time::ZERO + sampling * 2 + Dur::ms(100));
    let second_step = per_task(base);
    println!(
        "live bytes per task: {admitted} admitted, {first_step} after the first step, \
         {second_step} after the second"
    );
    for (what, bytes, measured) in [
        ("after admission", admitted, ADMITTED),
        ("after the first step", first_step, FIRST_STEP),
        (
            "added by the first step",
            first_step - admitted,
            FIRST_STEP - ADMITTED,
        ),
    ] {
        let ceiling = measured + measured / 10;
        assert!(
            bytes <= ceiling,
            "{bytes} live bytes per task {what}, ceiling {ceiling} ({measured} measured \
             + 10 %): something per-task is stored twice"
        );
    }
}

/// Live bytes per task after admission, as measured (64-bit Linux, debug
/// and release alike).
const ADMITTED: usize = 997;
/// Live bytes per task after the first step, as measured.
const FIRST_STEP: usize = 1_765;

fn task(i: usize) -> NodeTask {
    NodeTask {
        fleet_id: i,
        label: format!("t{i:05}"),
        kind: TaskKind::PeriodicRt {
            wcet: Dur::us(200),
            period: Dur::ms(500),
        },
        arrival: Time::ZERO + Dur::us(997 * i as u64 % 500_000),
        departure: None,
        seed: 0x5eed ^ i as u64,
        migrated: false,
        warm: None,
    }
}
