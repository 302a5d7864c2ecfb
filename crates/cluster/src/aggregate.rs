//! Fleet-wide metric reduction: miss CDFs, utilisation histograms,
//! admission counters, CSV export.
//!
//! Aggregation folds node reports in node-id order, so the result is
//! independent of the thread count that produced them — the byte-identical
//! CSV across 1 and N threads is a tested invariant.

use std::path::Path;

use selftune_simcore::metrics::write_csv;
use selftune_simcore::stats;

use crate::sketch::StreamSketch;

/// Per-task slice of a node report.
///
/// Detailed mode materialises one of these per task, so the struct is on
/// a memory diet: per-task counters are `u32` (a task would need >4×10⁹
/// completions within one run to overflow — at the 25 Hz frame rates the
/// scenarios model that is five simulated years), and the fleet id is
/// `u32` (the fleet axis caps at millions, not billions). Fleet-level
/// sums still accumulate in `u64` inside [`NodeTotals`]. The layout is
/// pinned by a size-audit test (`task_report_stays_on_its_memory_diet`).
#[derive(Clone, Debug)]
pub struct TaskReport {
    /// Fleet-wide task index.
    pub fleet_id: u32,
    /// Whether the task ran under a reservation.
    pub realtime: bool,
    /// Whether the manager attached a reservation during the run.
    pub attached: bool,
    /// Whether this incarnation arrived through a live migration.
    pub migrated: bool,
    /// Whether the task ran as a guest inside a virtual platform (its
    /// attach delay is then a *guest-manager* property, reported
    /// separately from flat-task hand-over gaps).
    pub in_vm: bool,
    /// Completed jobs/frames.
    pub completions: u32,
    /// Completion gaps exceeding the miss factor.
    pub misses: u32,
    /// Frames dropped by the application itself.
    pub dropped: u32,
    /// Metric label.
    pub label: String,
    /// Completion gaps normalised by the nominal period (1.0 = on time).
    pub ift_norm: Vec<f64>,
    /// Milliseconds from arrival to the manager attaching a reservation
    /// (`None` while detection is still running, or for best-effort
    /// tasks). Warm-started migrations report 0 — the hand-over gap the
    /// carried controller state eliminates.
    pub attach_delay_ms: Option<f64>,
}

/// Exact per-node counters, maintained in both report modes. In detailed
/// mode they are derived from the task vector; in sketch mode they are
/// the *only* exact state the node keeps.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeTotals {
    /// Tasks that ran on the node (including released/departed ones).
    pub tasks: usize,
    /// Tasks that ran under a reservation.
    pub rt_tasks: usize,
    /// Completed jobs/frames across all tasks.
    pub completions: u64,
    /// Deadline misses across all tasks.
    pub misses: u64,
    /// Completion gaps observed across all tasks (the miss-ratio
    /// denominator).
    pub gaps: u64,
    /// Frames dropped by the applications themselves.
    pub dropped: u64,
}

/// Per-node mergeable distribution state for fleet-scale runs: histogram
/// sketches instead of per-task gap vectors. [`AggregateMetrics::new`]
/// folds them in node-id order, so the fleet sketch is byte-identical at
/// any thread count.
#[derive(Clone, Debug)]
pub struct NodeSketches {
    /// Normalised completion gaps (gap / period) of every task.
    pub gaps: StreamSketch,
    /// Normalised completion gaps of migrated incarnations only.
    pub post_migration: StreamSketch,
    /// Attach delays (ms) of migrated flat-task incarnations.
    pub attach: StreamSketch,
    /// Attach delays (ms) of guests re-admitted inside migrated VMs.
    pub vm_attach: StreamSketch,
}

impl NodeSketches {
    /// Empty sketches on the canonical fleet grids.
    pub fn new() -> NodeSketches {
        NodeSketches {
            gaps: StreamSketch::for_gap_norm(),
            post_migration: StreamSketch::for_gap_norm(),
            attach: StreamSketch::for_delay_ms(),
            vm_attach: StreamSketch::for_delay_ms(),
        }
    }

    /// Folds another node's sketches into this one.
    pub fn merge(&mut self, other: &NodeSketches) {
        self.gaps.merge(&other.gaps);
        self.post_migration.merge(&other.post_migration);
        self.attach.merge(&other.attach);
        self.vm_attach.merge(&other.vm_attach);
    }
}

impl Default for NodeSketches {
    fn default() -> NodeSketches {
        NodeSketches::new()
    }
}

/// One node's contribution to the aggregate.
#[derive(Clone, Debug)]
pub struct NodeReport {
    /// Node id.
    pub node: usize,
    /// Tasks that ran on this node. Empty in sketch mode, where per-task
    /// vectors are exactly what a 1M-task fleet cannot retain.
    pub tasks: Vec<TaskReport>,
    /// Exact per-node counters (kept in both modes).
    pub totals: NodeTotals,
    /// Distribution sketches; `Some` iff the node reported in sketch mode.
    pub sketches: Option<NodeSketches>,
    /// CPU busy fraction over the horizon.
    pub utilisation: f64,
    /// Reserved bandwidth at the horizon.
    pub reserved_bw: f64,
    /// Context switches over the run.
    pub ctx_switches: u64,
}

impl NodeReport {
    /// A completion gap above `MISS_FACTOR × P` counts as a deadline miss.
    pub const MISS_FACTOR: f64 = 1.5;

    /// A detailed-mode report: totals derived from the task vector.
    pub fn from_tasks(
        node: usize,
        tasks: Vec<TaskReport>,
        utilisation: f64,
        reserved_bw: f64,
        ctx_switches: u64,
    ) -> NodeReport {
        let totals = NodeTotals {
            tasks: tasks.len(),
            rt_tasks: tasks.iter().filter(|t| t.realtime).count(),
            completions: tasks.iter().map(|t| u64::from(t.completions)).sum(),
            misses: tasks.iter().map(|t| u64::from(t.misses)).sum(),
            gaps: tasks.iter().map(|t| t.ift_norm.len() as u64).sum(),
            dropped: tasks.iter().map(|t| u64::from(t.dropped)).sum(),
        };
        NodeReport {
            node,
            tasks,
            totals,
            sketches: None,
            utilisation,
            reserved_bw,
            ctx_switches,
        }
    }

    /// A sketch-mode report: exact counters plus distribution sketches,
    /// no per-task retention.
    pub fn from_sketches(
        node: usize,
        totals: NodeTotals,
        sketches: NodeSketches,
        utilisation: f64,
        reserved_bw: f64,
        ctx_switches: u64,
    ) -> NodeReport {
        NodeReport {
            node,
            tasks: Vec::new(),
            totals,
            sketches: Some(sketches),
            utilisation,
            reserved_bw,
            ctx_switches,
        }
    }

    /// Total completions on the node.
    pub fn completions(&self) -> u64 {
        self.totals.completions
    }

    /// Total misses on the node.
    pub fn misses(&self) -> u64 {
        self.totals.misses
    }
}

/// Fleet-level admission statistics (from the placement plan).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Real-time tasks admitted onto some node.
    pub admitted: u64,
    /// Real-time tasks no node could take.
    pub rejected: u64,
    /// Best-effort tasks (always placed).
    pub best_effort: u64,
    /// Candidate-node rejections that migrated a request onward.
    pub migrations: u64,
    /// Virtual platforms admitted onto some node.
    pub vms_admitted: u64,
    /// Virtual platforms no node could take.
    pub vms_rejected: u64,
}

/// One applied live migration, as recorded by the rebalance pass.
#[derive(Clone, Copy, Debug)]
pub struct MigrationRecord {
    /// Epoch index (0 = first rebalance boundary).
    pub epoch: u64,
    /// Fleet id of the migrated unit (task id, or VM id when `vm`).
    pub fleet_id: usize,
    /// Whether the unit was a whole virtual platform.
    pub vm: bool,
    /// Node the unit was extracted from.
    pub from: usize,
    /// Node the unit was re-admitted on.
    pub to: usize,
    /// Bandwidth booked on the destination (minbudget × headroom for a
    /// task; the share for a VM).
    pub demand: f64,
    /// Destination's booked bandwidth right after admission — the witness
    /// that the move respected the admission bound.
    pub dest_reserved_after: f64,
}

/// Feedback-driven re-placement statistics of one fleet run.
#[derive(Clone, Debug, Default)]
pub struct RebalanceStats {
    /// Rebalance boundaries the run passed through.
    pub epochs: u64,
    /// Migrations applied.
    pub moves: u64,
    /// Evictions that found no admissible destination (task stayed put).
    pub failed: u64,
    /// Every applied migration, in decision order.
    pub records: Vec<MigrationRecord>,
}

/// The reduced outcome of one fleet run.
#[derive(Clone, Debug)]
pub struct AggregateMetrics {
    /// Scenario name.
    pub scenario: String,
    /// Base seed of the run.
    pub seed: u64,
    /// Admission statistics from the placement plan.
    pub admission: AdmissionStats,
    /// Feedback re-placement statistics (all-zero when rebalance is off).
    pub rebalance: RebalanceStats,
    /// Per-node reports, in node-id order.
    pub nodes: Vec<NodeReport>,
    /// The node-id-order fold of every node's sketches, computed once by
    /// [`AggregateMetrics::new`] instead of per summary read. `None` iff
    /// no node reported sketches.
    merged: Option<NodeSketches>,
}

/// Quantile grid of the miss CDF export (percent steps).
const CDF_STEPS: usize = 100;
/// Bins of the utilisation histogram export.
const UTIL_BINS: usize = 10;

impl AggregateMetrics {
    /// Folds node reports, sorted here by node id. The fleet sketch is a
    /// clone of the first sketch-bearing node's sketches with every later
    /// node's merged into it in turn — the fixed order
    /// [`StreamSketch::merge`] relies on, so every float sum, and with it
    /// every byte of the summary, is the same at any thread count.
    pub fn new(
        scenario: &str,
        seed: u64,
        admission: AdmissionStats,
        mut nodes: Vec<NodeReport>,
    ) -> AggregateMetrics {
        nodes.sort_by_key(|n| n.node);
        let mut merged: Option<NodeSketches> = None;
        for k in nodes.iter().filter_map(|n| n.sketches.as_ref()) {
            match &mut merged {
                Some(m) => m.merge(k),
                None => merged = Some(k.clone()),
            }
        }
        AggregateMetrics {
            scenario: scenario.to_owned(),
            seed,
            admission,
            rebalance: RebalanceStats::default(),
            nodes,
            merged,
        }
    }

    /// Attaches rebalance statistics (builder-style; the runner uses this
    /// when feedback re-placement is enabled).
    pub fn with_rebalance(mut self, rebalance: RebalanceStats) -> AggregateMetrics {
        self.rebalance = rebalance;
        self
    }

    /// Total completions across the fleet.
    pub fn completions(&self) -> u64 {
        self.nodes.iter().map(NodeReport::completions).sum()
    }

    /// Total deadline misses across the fleet.
    pub fn misses(&self) -> u64 {
        self.nodes.iter().map(NodeReport::misses).sum()
    }

    /// Fleet deadline-miss ratio (misses over completion gaps observed).
    /// Exact in both report modes — gaps and misses are integer counters
    /// in [`NodeTotals`].
    pub fn miss_ratio(&self) -> f64 {
        let gaps: u64 = self.nodes.iter().map(|n| n.totals.gaps).sum();
        if gaps == 0 {
            0.0
        } else {
            self.misses() as f64 / gaps as f64
        }
    }

    /// Mean node utilisation (streaming; no intermediate vector).
    pub fn mean_utilisation(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.nodes.iter().map(|n| n.utilisation).sum();
        sum / self.nodes.len() as f64
    }

    /// The node-id-order fold of every node's sketches. `Some` iff at
    /// least one node reported sketches.
    pub fn merged(&self) -> Option<&NodeSketches> {
        self.merged.as_ref()
    }

    /// Normalised completion gaps of the detailed-mode tasks — all of
    /// them, or only migrated incarnations' — sorted ascending.
    fn sorted_gaps(&self, migrated_only: bool) -> Vec<f64> {
        let mut xs: Vec<f64> = self
            .nodes
            .iter()
            .flat_map(|n| &n.tasks)
            .filter(|t| t.migrated || !migrated_only)
            .flat_map(|t| t.ift_norm.iter().copied())
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN completion gap"));
        xs
    }

    /// One gap distribution sampled on the fixed quantile grid (so export
    /// size is independent of fleet size): from the merged sketch family
    /// `pick` at bin resolution in sketch mode, else from the exact sorted
    /// gaps. Empty when there is nothing to sample.
    fn cdf(
        &self,
        pick: impl Fn(&NodeSketches) -> &StreamSketch,
        migrated_only: bool,
    ) -> Vec<(f64, f64)> {
        fn grid(empty: bool, quantile: impl Fn(f64) -> f64) -> Vec<(f64, f64)> {
            if empty {
                return Vec::new();
            }
            (0..=CDF_STEPS)
                .map(|i| {
                    let p = i as f64 / CDF_STEPS as f64;
                    (p, quantile(p))
                })
                .collect()
        }
        if let Some(s) = self.merged().map(pick) {
            return grid(s.is_empty(), |p| s.quantile(p).expect("non-empty sketch"));
        }
        let xs = self.sorted_gaps(migrated_only);
        grid(xs.is_empty(), |p| stats::quantile_sorted(&xs, p))
    }

    /// The fleet-wide CDF of normalised completion gaps.
    pub fn miss_cdf(&self) -> Vec<(f64, f64)> {
        self.cdf(|k| &k.gaps, false)
    }

    /// The miss CDF restricted to gaps observed after a migration (i.e. on
    /// the re-placed incarnations). Empty when nothing migrated.
    pub fn post_migration_cdf(&self) -> Vec<(f64, f64)> {
        self.cdf(|k| &k.post_migration, true)
    }

    fn mean_attach_delay_where(&self, pred: impl Fn(&TaskReport) -> bool) -> Option<f64> {
        let (mut sum, mut count) = (0.0f64, 0u64);
        for d in self
            .nodes
            .iter()
            .flat_map(|n| n.tasks.iter())
            .filter(|t| t.migrated && pred(t))
            .filter_map(|t| t.attach_delay_ms)
        {
            sum += d;
            count += 1;
        }
        (count > 0).then(|| sum / count as f64)
    }

    /// Mean attach delay (ms) of migrated *flat-task* incarnations that
    /// attached — the hand-over gap. Warm-started migrations pull this to
    /// zero. Guests of migrated VMs are excluded (see
    /// [`AggregateMetrics::mean_migrated_vm_guest_attach_delay_ms`]);
    /// blending the two regimes made the metric unreadable on fleets
    /// mixing VM and task moves. `None` when nothing migrated-and-attached.
    pub fn mean_migrated_attach_delay_ms(&self) -> Option<f64> {
        if let Some(s) = self.merged().map(|k| &k.attach) {
            return s.mean();
        }
        self.mean_attach_delay_where(|t| !t.in_vm)
    }

    /// Mean attach delay (ms) of guests re-admitted inside a *migrated
    /// VM*. With per-guest warm-start the destination seeds each guest's
    /// detected period and a demand-sized budget, so this collapses to
    /// zero; cold guests re-run detection inside the re-admitted VM.
    pub fn mean_migrated_vm_guest_attach_delay_ms(&self) -> Option<f64> {
        if let Some(s) = self.merged().map(|k| &k.vm_attach) {
            return s.mean();
        }
        self.mean_attach_delay_where(|t| t.in_vm)
    }

    /// Histogram of per-node utilisation over `[0, 1]`.
    pub fn utilisation_histogram(&self) -> Vec<(f64, u64)> {
        let u: Vec<f64> = self.nodes.iter().map(|n| n.utilisation).collect();
        stats::histogram(&u, 0.0, 1.0, UTIL_BINS)
    }

    /// Per-node CSV rows (the `cluster_nodes.csv` payload).
    pub fn node_rows(&self) -> Vec<Vec<String>> {
        self.nodes
            .iter()
            .map(|n| {
                vec![
                    n.node.to_string(),
                    n.totals.tasks.to_string(),
                    n.totals.rt_tasks.to_string(),
                    format!("{:.6}", n.utilisation),
                    format!("{:.6}", n.reserved_bw),
                    n.completions().to_string(),
                    n.misses().to_string(),
                    n.ctx_switches.to_string(),
                ]
            })
            .collect()
    }

    /// Header matching [`AggregateMetrics::node_rows`].
    pub const NODE_HEADER: [&'static str; 8] = [
        "node",
        "tasks",
        "rt_tasks",
        "utilisation",
        "reserved_bw",
        "completions",
        "misses",
        "ctx_switches",
    ];

    /// A canonical multi-line string of the whole aggregate — the
    /// byte-identical artefact the determinism property compares across
    /// thread counts.
    pub fn summary_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "scenario,{}\nseed,{}\nadmitted,{}\nrejected,{}\nbest_effort,{}\nmigrations,{}\n",
            self.scenario,
            self.seed,
            self.admission.admitted,
            self.admission.rejected,
            self.admission.best_effort,
            self.admission.migrations,
        ));
        if self.admission.vms_admitted + self.admission.vms_rejected > 0 {
            out.push_str(&format!(
                "vms_admitted,{}\nvms_rejected,{}\n",
                self.admission.vms_admitted, self.admission.vms_rejected,
            ));
        }
        out.push_str(&format!(
            "rb_epochs,{}\nrb_moves,{}\nrb_failed,{}\n",
            self.rebalance.epochs, self.rebalance.moves, self.rebalance.failed,
        ));
        for r in &self.rebalance.records {
            out.push_str(&format!(
                "move,{},{},{},{},{},{:.6},{:.6}\n",
                r.epoch,
                if r.vm { "vm" } else { "task" },
                r.fleet_id,
                r.from,
                r.to,
                r.demand,
                r.dest_reserved_after,
            ));
        }
        if let Some(d) = self.mean_migrated_attach_delay_ms() {
            out.push_str(&format!("migrated_attach_delay_ms,{d:.3}\n"));
        }
        if let Some(d) = self.mean_migrated_vm_guest_attach_delay_ms() {
            out.push_str(&format!("vm_guest_attach_delay_ms,{d:.3}\n"));
        }
        out.push_str(&format!(
            "completions,{}\nmisses,{}\nmiss_ratio,{:.6}\nmean_utilisation,{:.6}\n",
            self.completions(),
            self.misses(),
            self.miss_ratio(),
            self.mean_utilisation(),
        ));
        out.push_str(&AggregateMetrics::NODE_HEADER.join(","));
        out.push('\n');
        for row in self.node_rows() {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        for (p, q) in self.miss_cdf() {
            out.push_str(&format!("cdf,{p:.2},{q:.6}\n"));
        }
        for (p, q) in self.post_migration_cdf() {
            out.push_str(&format!("pmcdf,{p:.2},{q:.6}\n"));
        }
        out
    }

    /// Writes `cluster_nodes.csv`, `cluster_miss_cdf.csv` and
    /// `cluster_util_hist.csv` into `dir`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or files.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        write_csv(
            dir.join("cluster_nodes.csv"),
            &AggregateMetrics::NODE_HEADER,
            &self.node_rows(),
        )?;
        let cdf_rows: Vec<Vec<String>> = self
            .miss_cdf()
            .iter()
            .map(|&(p, q)| vec![format!("{p:.2}"), format!("{q:.6}")])
            .collect();
        write_csv(
            dir.join("cluster_miss_cdf.csv"),
            &["quantile", "ift_over_period"],
            &cdf_rows,
        )?;
        let hist_rows: Vec<Vec<String>> = self
            .utilisation_histogram()
            .iter()
            .map(|&(lo, n)| vec![format!("{lo:.2}"), n.to_string()])
            .collect();
        write_csv(
            dir.join("cluster_util_hist.csv"),
            &["utilisation_bin", "nodes"],
            &hist_rows,
        )?;
        let move_rows: Vec<Vec<String>> = self
            .rebalance
            .records
            .iter()
            .map(|r| {
                vec![
                    r.epoch.to_string(),
                    if r.vm { "vm" } else { "task" }.to_owned(),
                    r.fleet_id.to_string(),
                    r.from.to_string(),
                    r.to.to_string(),
                    format!("{:.6}", r.demand),
                    format!("{:.6}", r.dest_reserved_after),
                ]
            })
            .collect();
        write_csv(
            dir.join("cluster_migrations.csv"),
            &[
                "epoch",
                "unit",
                "fleet_id",
                "from",
                "to",
                "demand",
                "dest_reserved_after",
            ],
            &move_rows,
        )?;
        let pm_rows: Vec<Vec<String>> = self
            .post_migration_cdf()
            .iter()
            .map(|&(p, q)| vec![format!("{p:.2}"), format!("{q:.6}")])
            .collect();
        write_csv(
            dir.join("cluster_post_migration_cdf.csv"),
            &["quantile", "ift_over_period"],
            &pm_rows,
        )?;
        Ok(())
    }

    /// A human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "fleet '{}' (seed {}): {} nodes, {} tasks admitted, {} rejected, {} best-effort, {} migrations\n",
            self.scenario,
            self.seed,
            self.nodes.len(),
            self.admission.admitted,
            self.admission.rejected,
            self.admission.best_effort,
            self.admission.migrations,
        ));
        if self.rebalance.epochs > 0 {
            out.push_str(&format!(
                "rebalance: {} epochs, {} migrations applied, {} failed\n",
                self.rebalance.epochs, self.rebalance.moves, self.rebalance.failed,
            ));
        }
        out.push_str(&format!(
            "completions {}   deadline misses {}   miss ratio {:.4}   mean node utilisation {:.1}%\n",
            self.completions(),
            self.misses(),
            self.miss_ratio(),
            100.0 * self.mean_utilisation(),
        ));
        match self.merged().map(|k| &k.gaps) {
            Some(s) => {
                if !s.is_empty() {
                    out.push_str(&format!(
                        "completion gap / period: p50 {:.3}  p95 {:.3}  p99 {:.3}  max {:.3}\n",
                        s.quantile(0.50).expect("non-empty"),
                        s.quantile(0.95).expect("non-empty"),
                        s.quantile(0.99).expect("non-empty"),
                        s.max().expect("non-empty"),
                    ));
                }
            }
            None => {
                let xs = self.sorted_gaps(false);
                if !xs.is_empty() {
                    out.push_str(&format!(
                        "completion gap / period: p50 {:.3}  p95 {:.3}  p99 {:.3}  max {:.3}\n",
                        stats::quantile_sorted(&xs, 0.50),
                        stats::quantile_sorted(&xs, 0.95),
                        stats::quantile_sorted(&xs, 0.99),
                        xs.last().expect("non-empty"),
                    ));
                }
            }
        }
        for n in &self.nodes {
            out.push_str(&format!(
                "  node {:>3}: {:>2} tasks  util {:>5.1}%  reserved {:>5.1}%  misses {}\n",
                n.node,
                n.totals.tasks,
                100.0 * n.utilisation,
                100.0 * n.reserved_bw,
                n.misses(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(node: usize, util: f64, ift: Vec<f64>) -> NodeReport {
        NodeReport::from_tasks(
            node,
            vec![TaskReport {
                fleet_id: node as u32,
                label: format!("t{node}"),
                realtime: true,
                attached: true,
                migrated: false,
                in_vm: false,
                completions: ift.len() as u32 + 1,
                misses: ift.iter().filter(|&&x| x > NodeReport::MISS_FACTOR).count() as u32,
                dropped: 0,
                ift_norm: ift,
                attach_delay_ms: None,
            }],
            util,
            util * 0.8,
            100,
        )
    }

    /// The same node as `report`, reduced to sketch form.
    fn sketch_report(node: usize, util: f64, ift: Vec<f64>) -> NodeReport {
        let mut sk = NodeSketches::new();
        for &x in &ift {
            sk.gaps.record(x);
        }
        let totals = NodeTotals {
            tasks: 1,
            rt_tasks: 1,
            completions: ift.len() as u64 + 1,
            misses: ift.iter().filter(|&&x| x > NodeReport::MISS_FACTOR).count() as u64,
            gaps: ift.len() as u64,
            dropped: 0,
        };
        NodeReport::from_sketches(node, totals, sk, util, util * 0.8, 100)
    }

    #[test]
    fn task_report_stays_on_its_memory_diet() {
        // The detailed-mode per-task struct: u32 counters + flags pack
        // into 20 bytes, then label (String), ift_norm (Vec) and the
        // Option<f64> attach delay — 88 bytes total on 64-bit, down from
        // 104 with the old usize/u64 fields. Regressing past 88 means a
        // field grew back to a fat type.
        assert!(
            std::mem::size_of::<TaskReport>() <= 88,
            "TaskReport grew to {} bytes",
            std::mem::size_of::<TaskReport>()
        );
    }

    #[test]
    fn tree_reduce_matches_the_serial_fold_on_mixed_nodes() {
        // Non-power-of-two node count with sketch-less nodes interleaved,
        // handed over in reverse: the aggregate's merged sketches are the
        // serial node-id-order fold.
        let nodes: Vec<NodeReport> = (0..7)
            .map(|n| {
                if n % 3 == 2 {
                    report(n, 0.2, vec![1.0 + n as f64 * 0.01])
                } else {
                    sketch_report(n, 0.2, vec![0.9, 1.2 + n as f64 * 0.1, 3.0])
                }
            })
            .collect();
        let serial = {
            let mut acc: Option<NodeSketches> = None;
            for n in &nodes {
                if let Some(k) = &n.sketches {
                    match &mut acc {
                        None => acc = Some(k.clone()),
                        Some(a) => a.merge(k),
                    }
                }
            }
            acc.unwrap()
        };
        let reversed: Vec<NodeReport> = nodes.into_iter().rev().collect();
        let m = AggregateMetrics::new("s", 9, AdmissionStats::default(), reversed);
        let fold = m.merged().unwrap();
        assert_eq!(fold.gaps, serial.gaps);
        assert_eq!(fold.post_migration, serial.post_migration);
        assert_eq!(fold.attach, serial.attach);
        assert_eq!(fold.vm_attach, serial.vm_attach);
        // No sketches at all → no merged sketch.
        let detailed: Vec<NodeReport> = (0..3).map(|n| report(n, 0.1, vec![1.0])).collect();
        let m = AggregateMetrics::new("s", 9, AdmissionStats::default(), detailed);
        assert!(m.merged().is_none());
    }

    #[test]
    fn premerged_construction_matches_new_in_any_partial_order() {
        // Two workers owning interleaved node sets post their reports in
        // "wrong" (worker-completion) order; the aggregate must not see
        // the grouping.
        let nodes: Vec<NodeReport> = (0..5)
            .map(|n| sketch_report(n, 0.3, vec![0.8 + n as f64 * 0.07, 2.0]))
            .collect();
        let baseline = AggregateMetrics::new("s", 9, AdmissionStats::default(), nodes.clone());
        let (w0, w1): (Vec<NodeReport>, Vec<NodeReport>) =
            nodes.into_iter().partition(|n| n.node % 2 == 0);
        let grouped = AggregateMetrics::new(
            "s",
            9,
            AdmissionStats::default(),
            w1.into_iter().chain(w0).collect(),
        );
        let (b, g) = (baseline.merged().unwrap(), grouped.merged().unwrap());
        assert_eq!(b.gaps, g.gaps);
        assert_eq!(b.post_migration, g.post_migration);
        assert_eq!(b.attach, g.attach);
        assert_eq!(b.vm_attach, g.vm_attach);
        assert_eq!(baseline.summary_csv(), grouped.summary_csv());
    }

    #[test]
    fn aggregation_is_order_independent() {
        let a = report(0, 0.3, vec![1.0, 1.1]);
        let b = report(1, 0.5, vec![0.9, 2.0]);
        let fwd = AggregateMetrics::new(
            "s",
            1,
            AdmissionStats::default(),
            vec![a.clone(), b.clone()],
        );
        let rev = AggregateMetrics::new("s", 1, AdmissionStats::default(), vec![b, a]);
        assert_eq!(fwd.summary_csv(), rev.summary_csv());
    }

    #[test]
    fn miss_ratio_counts_factor_exceedances() {
        let m = AggregateMetrics::new(
            "s",
            1,
            AdmissionStats::default(),
            vec![report(0, 0.3, vec![1.0, 1.6, 0.9, 3.0])],
        );
        assert_eq!(m.misses(), 2);
        assert!((m.miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cdf_grid_is_fixed_size() {
        let m = AggregateMetrics::new(
            "s",
            1,
            AdmissionStats::default(),
            vec![report(
                0,
                0.3,
                (0..1000).map(|i| i as f64 / 500.0).collect(),
            )],
        );
        let cdf = m.miss_cdf();
        assert_eq!(cdf.len(), CDF_STEPS + 1);
        assert!(cdf.windows(2).all(|w| w[0].1 <= w[1].1), "CDF monotone");
    }

    #[test]
    fn rebalance_stats_flow_into_summary_and_cdf() {
        let mut migrated_node = report(1, 0.4, vec![1.0, 1.1, 0.9]);
        migrated_node.tasks[0].migrated = true;
        let m = AggregateMetrics::new(
            "s",
            1,
            AdmissionStats::default(),
            vec![report(0, 0.3, vec![2.0]), migrated_node],
        )
        .with_rebalance(RebalanceStats {
            epochs: 3,
            moves: 1,
            failed: 2,
            records: vec![MigrationRecord {
                epoch: 1,
                fleet_id: 1,
                vm: false,
                from: 0,
                to: 1,
                demand: 0.25,
                dest_reserved_after: 0.25,
            }],
        });
        let csv = m.summary_csv();
        assert!(csv.contains("rb_epochs,3"));
        assert!(csv.contains("rb_moves,1"));
        assert!(csv.contains("rb_failed,2"));
        assert!(csv.contains("move,1,task,1,0,1,0.250000,0.250000"));
        // The post-migration CDF covers only the migrated incarnation's
        // gaps, all of which sit at or below 1.1.
        let pm = m.post_migration_cdf();
        assert_eq!(pm.len(), CDF_STEPS + 1);
        assert!(pm.last().unwrap().1 <= 1.1 + 1e-12);
        assert!(csv.contains("pmcdf,1.00,"));
        // A run without migrations exports no post-migration CDF.
        let plain = AggregateMetrics::new(
            "s",
            1,
            AdmissionStats::default(),
            vec![report(0, 0.3, vec![2.0])],
        );
        assert!(plain.post_migration_cdf().is_empty());
        assert!(!plain.summary_csv().contains("pmcdf"));
    }

    #[test]
    fn sketch_reports_keep_counters_exact_and_cdfs_close() {
        let gaps_a = vec![1.0, 1.1, 0.9, 3.0];
        let gaps_b = vec![0.95, 1.6, 1.05];
        let exact = AggregateMetrics::new(
            "s",
            1,
            AdmissionStats::default(),
            vec![
                report(0, 0.3, gaps_a.clone()),
                report(1, 0.5, gaps_b.clone()),
            ],
        );
        let sketched = AggregateMetrics::new(
            "s",
            1,
            AdmissionStats::default(),
            vec![sketch_report(0, 0.3, gaps_a), sketch_report(1, 0.5, gaps_b)],
        );
        // Counters are exact in both modes.
        assert_eq!(sketched.completions(), exact.completions());
        assert_eq!(sketched.misses(), exact.misses());
        assert!((sketched.miss_ratio() - exact.miss_ratio()).abs() < 1e-12);
        assert_eq!(sketched.node_rows(), exact.node_rows());
        // The sketch CDF lands within half a bin of the nearest-rank data
        // value at every grid point (the exact path interpolates between
        // ranks, so compare against the rank value, not the exact CDF).
        let sorted = exact.sorted_gaps(false);
        let s = sketched.miss_cdf();
        assert_eq!(s.len(), CDF_STEPS + 1);
        for &(p, qs) in &s {
            if p <= 0.0 || p >= 1.0 {
                let exact_end = if p <= 0.0 {
                    sorted[0]
                } else {
                    sorted[sorted.len() - 1]
                };
                assert_eq!(qs, exact_end, "extremes are exact");
                continue;
            }
            let rank = (p * (sorted.len() - 1) as f64).round() as usize;
            assert!(
                (qs - sorted[rank]).abs() <= 0.0051,
                "p {p}: sketch {qs} vs rank value {}",
                sorted[rank]
            );
        }
        // Sketch-mode summaries are still order-independent over nodes.
        let swapped = AggregateMetrics::new(
            "s",
            1,
            AdmissionStats::default(),
            vec![sketched.nodes[1].clone(), sketched.nodes[0].clone()],
        );
        assert_eq!(sketched.summary_csv(), swapped.summary_csv());
    }

    #[test]
    fn sketch_mode_attach_delay_means_come_from_the_sketches() {
        let mut node = sketch_report(0, 0.4, vec![1.0]);
        let sk = node.sketches.as_mut().expect("sketch mode");
        sk.attach.record(120.0);
        sk.attach.record(80.0);
        sk.vm_attach.record(0.0);
        let m = AggregateMetrics::new("s", 1, AdmissionStats::default(), vec![node]);
        assert!((m.mean_migrated_attach_delay_ms().unwrap() - 100.0).abs() < 1e-9);
        assert_eq!(m.mean_migrated_vm_guest_attach_delay_ms(), Some(0.0));
        let csv = m.summary_csv();
        assert!(csv.contains("migrated_attach_delay_ms,100.000"));
        assert!(csv.contains("vm_guest_attach_delay_ms,0.000"));
    }

    #[test]
    fn scratch_buffer_extractions_match_the_owned_ones() {
        // One sorted read serves both exact CDFs: every task's gaps, or
        // only the migrated incarnations'.
        let mut migrated = report(1, 0.5, vec![1.2, 0.7]);
        migrated.tasks[0].migrated = true;
        let m = AggregateMetrics::new(
            "s",
            1,
            AdmissionStats::default(),
            vec![report(0, 0.3, vec![2.0, 0.8]), migrated],
        );
        assert_eq!(m.sorted_gaps(false), [0.7, 0.8, 1.2, 2.0]);
        assert_eq!(m.sorted_gaps(true), [0.7, 1.2]);
        let (all, pm) = (m.miss_cdf(), m.post_migration_cdf());
        assert_eq!((all[0].1, all[CDF_STEPS].1), (0.7, 2.0));
        assert_eq!((pm[0].1, pm[CDF_STEPS].1), (0.7, 1.2));
    }

    #[test]
    fn csv_files_are_written() {
        let dir = std::env::temp_dir().join("selftune-cluster-agg-test");
        let m = AggregateMetrics::new(
            "s",
            1,
            AdmissionStats::default(),
            vec![report(0, 0.3, vec![1.0])],
        );
        m.write_csv(&dir).unwrap();
        for f in [
            "cluster_nodes.csv",
            "cluster_miss_cdf.csv",
            "cluster_util_hist.csv",
            "cluster_migrations.csv",
            "cluster_post_migration_cdf.csv",
        ] {
            assert!(dir.join(f).exists(), "{f} missing");
        }
    }
}
