//! Fleet-wide metric reduction: miss CDFs, utilisation histograms,
//! admission counters, CSV export.
//!
//! Aggregation folds node reports in node-id order, so the result is
//! independent of the thread count that produced them — the byte-identical
//! CSV across 1 and N threads is a tested invariant.

use std::path::Path;

use selftune_simcore::metrics::write_csv;
use selftune_simcore::stats;

use crate::placer::{Migration, Unit};
use crate::sketch::StreamSketch;

/// Exact per-node counters, folded task by task in both report modes.
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

/// Per-node mergeable distribution state, one [`StreamSketch`] kind
/// throughout: lossless in a detailed report, binned at fleet scale.
/// [`AggregateMetrics::new`] folds them in node-id order, so the fleet
/// sketch is byte-identical at any thread count.
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
    /// Empty sketches: lossless ones, or binned ones on the canonical
    /// fleet grids.
    pub fn new(lossless: bool) -> NodeSketches {
        NodeSketches {
            gaps: StreamSketch::for_gap_norm(lossless),
            post_migration: StreamSketch::for_gap_norm(lossless),
            attach: StreamSketch::for_delay_ms(lossless),
            vm_attach: StreamSketch::for_delay_ms(lossless),
        }
    }

    /// Folds another node's sketches into this one.
    ///
    /// # Panics
    ///
    /// Panics when a lossless family meets a binned one.
    pub fn merge(&mut self, other: &NodeSketches) {
        self.gaps.merge(&other.gaps);
        self.post_migration.merge(&other.post_migration);
        self.attach.merge(&other.attach);
        self.vm_attach.merge(&other.vm_attach);
    }

    /// Sorts every lossless family, ready for quantile reads.
    fn sort(&mut self) {
        self.gaps.sort();
        self.post_migration.sort();
        self.attach.sort();
        self.vm_attach.sort();
    }
}

/// One node's contribution to the aggregate.
#[derive(Clone, Debug)]
pub struct NodeReport {
    /// Node id.
    pub node: usize,
    /// Exact per-node counters.
    pub totals: NodeTotals,
    /// The node's distributions, of the kind its report mode chose.
    /// `None` once the report is folded into an [`AggregateMetrics`]: an
    /// aggregated report's distributions live in
    /// [`AggregateMetrics::merged`].
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

    /// A node report: exact counters plus distribution sketches.
    pub fn new(
        node: usize,
        totals: NodeTotals,
        sketches: NodeSketches,
        utilisation: f64,
        reserved_bw: f64,
        ctx_switches: u64,
    ) -> NodeReport {
        NodeReport {
            node,
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

/// Feedback-driven re-placement statistics of one fleet run.
#[derive(Clone, Debug, Default)]
pub struct RebalanceStats {
    /// Rebalance boundaries the run passed through.
    pub epochs: u64,
    /// Migrations applied.
    pub moves: u64,
    /// Evictions that found no admissible destination (task stayed put).
    pub failed: u64,
    /// Every applied migration with its epoch index (0 = first rebalance
    /// boundary), in decision order.
    pub records: Vec<(u64, Migration)>,
}

/// One applied migration's columns after its epoch — unit kind, fleet id,
/// source, destination, booked demand, the destination's booking after
/// it — as the summary's `move` lines and `cluster_migrations.csv` write
/// them.
fn move_row(m: &Migration) -> [String; 6] {
    let (kind, id) = match m.unit {
        Unit::Task(id) => ("task", id),
        Unit::Vm(id) => ("vm", id),
    };
    [
        kind.to_owned(),
        id.to_string(),
        m.from.to_string(),
        m.to.to_string(),
        format!("{:.6}", m.demand),
        format!("{:.6}", m.dest_reserved_after),
    ]
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
    /// [`AggregateMetrics::new`] instead of per summary read, lossless
    /// families sorted.
    merged: NodeSketches,
}

/// Quantile grid of the miss CDF export (percent steps).
const CDF_STEPS: usize = 100;
/// Bins of the utilisation histogram export.
const UTIL_BINS: usize = 10;

impl AggregateMetrics {
    /// Folds node reports, sorted here by node id. Each node's sketches
    /// move out of its report into the fleet fold: the first node's
    /// sketches seed it and every later node's merge into it in turn —
    /// the fixed order a sketch merge relies on, so every float sum, and
    /// with it every byte of the summary, is the same at any thread
    /// count. The lossless families are then sorted, once for every
    /// quantile read.
    ///
    /// # Panics
    ///
    /// Panics when a report was already folded into an aggregate, or
    /// when lossless and binned reports meet.
    pub fn new(
        scenario: &str,
        seed: u64,
        admission: AdmissionStats,
        mut nodes: Vec<NodeReport>,
    ) -> AggregateMetrics {
        nodes.sort_by_key(|n| n.node);
        let take = |n: &mut NodeReport| n.sketches.take().expect("node report already aggregated");
        let mut sketches = nodes.iter_mut().map(take);
        let mut merged = sketches.next().unwrap_or_else(|| NodeSketches::new(true));
        for k in sketches {
            merged.merge(&k);
        }
        merged.sort();
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

    /// The node-id-order fold of every node's sketches.
    pub fn merged(&self) -> &NodeSketches {
        &self.merged
    }

    /// The fleet-wide CDF of normalised completion gaps.
    pub(crate) fn miss_cdf(&self) -> Vec<(f64, f64)> {
        cdf(&self.merged.gaps)
    }

    /// The miss CDF restricted to gaps observed after a migration (i.e. on
    /// the re-placed incarnations). Empty when nothing migrated.
    pub fn post_migration_cdf(&self) -> Vec<(f64, f64)> {
        cdf(&self.merged.post_migration)
    }

    /// Mean attach delay (ms) of migrated *flat-task* incarnations that
    /// attached — the hand-over gap. Warm-started migrations pull this to
    /// zero. Guests of migrated VMs are excluded (see
    /// [`AggregateMetrics::mean_migrated_vm_guest_attach_delay_ms`]);
    /// blending the two regimes made the metric unreadable on fleets
    /// mixing VM and task moves. `None` when nothing migrated-and-attached.
    pub fn mean_migrated_attach_delay_ms(&self) -> Option<f64> {
        self.merged.attach.mean()
    }

    /// Mean attach delay (ms) of guests re-admitted inside a *migrated
    /// VM*. With per-guest warm-start the destination seeds each guest's
    /// detected period and a demand-sized budget, so this collapses to
    /// zero; cold guests re-run detection inside the re-admitted VM.
    pub fn mean_migrated_vm_guest_attach_delay_ms(&self) -> Option<f64> {
        self.merged.vm_attach.mean()
    }

    /// Histogram of per-node utilisation over `[0, 1]`.
    pub(crate) fn utilisation_histogram(&self) -> Vec<(f64, u64)> {
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
    pub(crate) const NODE_HEADER: [&'static str; 8] = [
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
        for (epoch, m) in &self.rebalance.records {
            out.push_str(&format!("move,{epoch},{}\n", move_row(m).join(",")));
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
            .map(|(epoch, m)| {
                let mut row = vec![epoch.to_string()];
                row.extend(move_row(m));
                row
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
        let s = &self.merged.gaps;
        if !s.is_empty() {
            out.push_str(&format!(
                "completion gap / period: p50 {:.3}  p95 {:.3}  p99 {:.3}  max {:.3}\n",
                s.quantile(0.50).expect("non-empty"),
                s.quantile(0.95).expect("non-empty"),
                s.quantile(0.99).expect("non-empty"),
                s.max().expect("non-empty"),
            ));
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

/// One sorted distribution sampled on the fixed quantile grid (so export
/// size is independent of fleet size). Empty when there is nothing to
/// sample.
fn cdf(s: &StreamSketch) -> Vec<(f64, f64)> {
    if s.is_empty() {
        return Vec::new();
    }
    (0..=CDF_STEPS)
        .map(|i| {
            let p = i as f64 / CDF_STEPS as f64;
            (p, s.quantile(p).expect("non-empty sketch"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-task node of either sketch kind whose task saw `ift`, its
    /// gaps also post-migration ones when it arrived by migration.
    fn node(lossless: bool, id: usize, util: f64, ift: &[f64], migrated: bool) -> NodeReport {
        let mut sk = NodeSketches::new(lossless);
        for &x in ift {
            sk.gaps.record(x);
            if migrated {
                sk.post_migration.record(x);
            }
        }
        let totals = NodeTotals {
            tasks: 1,
            rt_tasks: 1,
            completions: ift.len() as u64 + 1,
            misses: ift.iter().filter(|&&x| x > NodeReport::MISS_FACTOR).count() as u64,
            gaps: ift.len() as u64,
            dropped: 0,
        };
        NodeReport::new(id, totals, sk, util, util * 0.8, 100)
    }

    /// A detailed (lossless) node report.
    fn report(id: usize, util: f64, ift: Vec<f64>) -> NodeReport {
        node(true, id, util, &ift, false)
    }

    /// The same node as `report`, reduced to binned form.
    fn sketch_report(id: usize, util: f64, ift: Vec<f64>) -> NodeReport {
        node(false, id, util, &ift, false)
    }

    fn aggregate(nodes: Vec<NodeReport>) -> AggregateMetrics {
        AggregateMetrics::new("s", 1, AdmissionStats::default(), nodes)
    }

    #[test]
    fn tree_reduce_matches_the_serial_fold_on_mixed_nodes() {
        // Non-power-of-two node count with record-less nodes interleaved,
        // handed over in reverse, in either sketch kind: the aggregate's
        // merged sketches are the serial node-id-order fold.
        for lossless in [false, true] {
            let nodes: Vec<NodeReport> = (0..7)
                .map(|n| {
                    let ift = if n % 3 == 2 {
                        vec![]
                    } else {
                        vec![0.9, 1.2 + n as f64 * 0.1, 3.0]
                    };
                    node(lossless, n, 0.2, &ift, n % 2 == 1)
                })
                .collect();
            let mut serial = NodeSketches::new(lossless);
            for n in &nodes {
                serial.merge(n.sketches.as_ref().expect("not yet aggregated"));
            }
            serial.sort();
            let reversed: Vec<NodeReport> = nodes.into_iter().rev().collect();
            let m = AggregateMetrics::new("s", 9, AdmissionStats::default(), reversed);
            let fold = m.merged();
            assert_eq!(fold.gaps, serial.gaps);
            assert_eq!(fold.post_migration, serial.post_migration);
            assert_eq!(fold.attach, serial.attach);
            assert_eq!(fold.vm_attach, serial.vm_attach);
            assert_eq!(fold.gaps.is_lossless(), lossless);
            assert!(m.nodes.iter().all(|n| n.sketches.is_none()), "moved");
        }
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
        let (b, g) = (baseline.merged(), grouped.merged());
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
        let fwd = aggregate(vec![a.clone(), b.clone()]);
        let rev = aggregate(vec![b, a]);
        assert_eq!(fwd.summary_csv(), rev.summary_csv());
    }

    #[test]
    fn miss_ratio_counts_factor_exceedances() {
        let m = aggregate(vec![report(0, 0.3, vec![1.0, 1.6, 0.9, 3.0])]);
        assert_eq!(m.misses(), 2);
        assert!((m.miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cdf_grid_is_fixed_size() {
        let m = aggregate(vec![report(
            0,
            0.3,
            (0..1000).map(|i| i as f64 / 500.0).collect(),
        )]);
        let cdf = m.miss_cdf();
        assert_eq!(cdf.len(), CDF_STEPS + 1);
        assert!(cdf.windows(2).all(|w| w[0].1 <= w[1].1), "CDF monotone");
    }

    #[test]
    fn rebalance_stats_flow_into_summary_and_cdf() {
        let migrated_node = node(true, 1, 0.4, &[1.0, 1.1, 0.9], true);
        let m = aggregate(vec![report(0, 0.3, vec![2.0]), migrated_node]).with_rebalance(
            RebalanceStats {
                epochs: 3,
                moves: 1,
                failed: 2,
                records: vec![(
                    1,
                    Migration {
                        unit: Unit::Task(1),
                        from: 0,
                        to: 1,
                        demand: 0.25,
                        dest_reserved_after: 0.25,
                        warm: None,
                        guest_warm: Vec::new(),
                    },
                )],
            },
        );
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
        let plain = aggregate(vec![report(0, 0.3, vec![2.0])]);
        assert!(plain.post_migration_cdf().is_empty());
        assert!(!plain.summary_csv().contains("pmcdf"));
    }

    #[test]
    fn sketch_reports_keep_counters_exact_and_cdfs_close() {
        let gaps_a = vec![1.0, 1.1, 0.9, 3.0];
        let gaps_b = vec![0.95, 1.6, 1.05];
        let exact = aggregate(vec![
            report(0, 0.3, gaps_a.clone()),
            report(1, 0.5, gaps_b.clone()),
        ]);
        let sketched = aggregate(vec![
            sketch_report(0, 0.3, gaps_a.clone()),
            sketch_report(1, 0.5, gaps_b.clone()),
        ]);
        // Counters are exact in both modes.
        assert_eq!(sketched.completions(), exact.completions());
        assert_eq!(sketched.misses(), exact.misses());
        assert!((sketched.miss_ratio() - exact.miss_ratio()).abs() < 1e-12);
        assert_eq!(sketched.node_rows(), exact.node_rows());
        // The sketch CDF lands within half a bin of the nearest-rank data
        // value at every grid point (the exact path interpolates between
        // ranks, so compare against the rank value, not the exact CDF).
        let mut sorted: Vec<f64> = gaps_a.iter().chain(&gaps_b).copied().collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
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
        let swapped = aggregate(vec![
            sketch_report(1, 0.5, gaps_b),
            sketch_report(0, 0.3, gaps_a),
        ]);
        assert_eq!(sketched.summary_csv(), swapped.summary_csv());
    }

    #[test]
    fn sketch_mode_attach_delay_means_come_from_the_sketches() {
        let mut node = sketch_report(0, 0.4, vec![1.0]);
        let sk = node.sketches.as_mut().expect("not yet aggregated");
        sk.attach.record(120.0);
        sk.attach.record(80.0);
        sk.vm_attach.record(0.0);
        let m = aggregate(vec![node]);
        assert!((m.mean_migrated_attach_delay_ms().unwrap() - 100.0).abs() < 1e-9);
        assert_eq!(m.mean_migrated_vm_guest_attach_delay_ms(), Some(0.0));
        let csv = m.summary_csv();
        assert!(csv.contains("migrated_attach_delay_ms,100.000"));
        assert!(csv.contains("vm_guest_attach_delay_ms,0.000"));
    }

    #[test]
    fn scratch_buffer_extractions_match_the_owned_ones() {
        // One sorted fold serves both exact CDFs: every task's gaps, or
        // only the migrated incarnations'.
        let migrated = node(true, 1, 0.5, &[1.2, 0.7], true);
        let m = aggregate(vec![report(0, 0.3, vec![2.0, 0.8]), migrated]);
        let (all, pm) = (m.miss_cdf(), m.post_migration_cdf());
        assert_eq!((all[0].1, all[CDF_STEPS].1), (0.7, 2.0));
        assert_eq!((pm[0].1, pm[CDF_STEPS].1), (0.7, 1.2));
        // The medians interpolate the sorted samples [0.7, 0.8, 1.2, 2.0]
        // and [0.7, 1.2].
        assert_eq!(all[CDF_STEPS / 2].1, 0.8 * 0.5 + 1.2 * 0.5);
        assert_eq!(pm[CDF_STEPS / 2].1, 0.7 * 0.5 + 1.2 * 0.5);
    }

    #[test]
    fn render_reports_the_gap_quantiles_in_both_kinds() {
        // Nodes of gaps [0.5, 2.0] and [1.0, 1.25]: sorted 0.5, 1.0, 1.25,
        // 2.0. Lossless quantiles interpolate between ranks; binned ones
        // are the nearest rank's 0.01-bin midpoint, with the exact max.
        let line = |lossless: bool| {
            let m = aggregate(vec![
                node(lossless, 0, 0.3, &[0.5, 2.0], false),
                node(lossless, 1, 0.3, &[1.0, 1.25], false),
            ]);
            let r = m.render();
            let gap = r.lines().find(|l| l.starts_with("completion gap"));
            gap.expect("a gap line").to_owned()
        };
        assert_eq!(
            line(true),
            "completion gap / period: p50 1.125  p95 1.887  p99 1.977  max 2.000"
        );
        assert_eq!(
            line(false),
            "completion gap / period: p50 1.255  p95 2.000  p99 2.000  max 2.000"
        );
        // No gaps, no line.
        assert!(!aggregate(vec![report(0, 0.3, vec![])])
            .render()
            .contains("completion gap"));
    }

    #[test]
    fn lossless_fleet_means_are_the_sequential_node_order_sum() {
        // Re-association-sensitive attach delays split across two nodes:
        // summing per node, then across nodes, gives 0; the fleet mean is
        // the one sequential sum over every value in node order, as a
        // single pass over all tasks would take it.
        let delays = [1e16, 1.0, -1e16, 1.0];
        let nodes: Vec<NodeReport> = delays
            .chunks(2)
            .enumerate()
            .map(|(i, pair)| {
                let mut n = node(true, i, 0.1, &[], false);
                let sk = n.sketches.as_mut().expect("not yet aggregated");
                for &d in pair {
                    sk.attach.record(d);
                    sk.vm_attach.record(d);
                }
                n
            })
            .collect();
        let sequential = delays.iter().fold(0.0_f64, |acc, d| acc + d) / 4.0;
        let per_node = ((1e16 + 1.0) + (-1e16 + 1.0)) / 4.0;
        assert_ne!(sequential, per_node, "the values must be order-sensitive");
        let m = aggregate(nodes.into_iter().rev().collect());
        let mean = m.mean_migrated_attach_delay_ms().unwrap();
        assert_eq!(mean.to_bits(), sequential.to_bits());
        let vm_mean = m.mean_migrated_vm_guest_attach_delay_ms().unwrap();
        assert_eq!(vm_mean.to_bits(), sequential.to_bits());
    }

    #[test]
    #[should_panic(expected = "cannot merge a lossless sketch with a binned one")]
    fn mixed_lossless_and_binned_fleets_are_refused() {
        // A binned node must not silently drop a detailed node's gaps
        // from every CDF and mean.
        aggregate(vec![
            sketch_report(0, 0.3, vec![1.0]),
            report(1, 0.3, vec![1.1]),
        ]);
    }

    #[test]
    #[should_panic(expected = "node report already aggregated")]
    fn a_report_folds_into_one_aggregate() {
        let m = aggregate(vec![report(0, 0.3, vec![1.0])]);
        aggregate(m.nodes);
    }

    #[test]
    fn csv_files_are_written() {
        let dir = std::env::temp_dir().join("selftune-cluster-agg-test");
        let m = aggregate(vec![report(0, 0.3, vec![1.0])]);
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
