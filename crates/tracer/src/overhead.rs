//! Overhead models for the tracers compared in the paper's Table 1.
//!
//! | Tracer     | Mechanism                                   | Overhead source |
//! |------------|---------------------------------------------|-----------------|
//! | `NoTrace`  | tracing disabled                            | none            |
//! | `QTrace`   | in-kernel timestamp logging (the paper's)   | per-edge log + amortised batch download |
//! | `QosTrace` | `ptrace()`-based tool from the authors' \[8\] | two context switches per edge |
//! | `Strace`   | standard `strace`                           | two context switches + argument decoding per edge |
//!
//! The per-edge costs are charged to the traced task's critical path, which
//! is exactly what Table 1 measures: the wall-clock inflation of an
//! `ffmpeg` transcode run under each tracer.

use selftune_simcore::time::Dur;

/// Which tracing mechanism is attached.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum TracerKind {
    /// No tracer (baseline row of Table 1).
    NoTrace,
    /// The paper's kernel tracer (Section 4.1).
    #[default]
    QTrace,
    /// The authors' earlier `ptrace`-based tool.
    QosTrace,
    /// Standard `strace`.
    Strace,
}

impl TracerKind {
    /// Display name matching the paper's Table 1 rows.
    pub fn name(self) -> &'static str {
        match self {
            TracerKind::NoTrace => "NOTRACE",
            TracerKind::QTrace => "QTRACE",
            TracerKind::QosTrace => "QOSTRACE",
            TracerKind::Strace => "STRACE",
        }
    }

    /// Whether this tracer records events (all but `NoTrace`).
    pub fn records(self) -> bool {
        self != TracerKind::NoTrace
    }
}

/// Cost parameters of the simulated machine's tracing paths.
#[derive(Copy, Clone, Debug)]
pub struct OverheadParams {
    /// In-kernel logging cost per edge for `QTrace` (timestamp + ring-buffer
    /// store), including the amortised cost of the batch download through
    /// the character device.
    pub qtrace_log: Dur,
    /// One context switch on the simulated machine (≈ 2009-era x86 at
    /// 800 MHz). `ptrace`-based tracers pay two of these per edge: to the
    /// tracer process and back.
    pub ctx_switch: Dur,
    /// `strace`'s user-space argument decoding and formatting, per edge.
    pub strace_decode: Dur,
}

impl Default for OverheadParams {
    fn default() -> Self {
        OverheadParams {
            qtrace_log: Dur::ns(450),
            ctx_switch: Dur::ns(900),
            strace_decode: Dur::us(2),
        }
    }
}

impl OverheadParams {
    /// Overhead charged per syscall *edge* (entry or exit) for `kind`.
    pub(crate) fn per_edge(&self, kind: TracerKind) -> Dur {
        match kind {
            TracerKind::NoTrace => Dur::ZERO,
            TracerKind::QTrace => self.qtrace_log,
            TracerKind::QosTrace => self.ctx_switch * 2,
            TracerKind::Strace => self.ctx_switch * 2 + self.strace_decode,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notrace_is_free() {
        let p = OverheadParams::default();
        assert_eq!(p.per_edge(TracerKind::NoTrace), Dur::ZERO);
    }

    #[test]
    fn ordering_matches_table1() {
        // Table 1: QTRACE < QOSTRACE < STRACE.
        let p = OverheadParams::default();
        let q = p.per_edge(TracerKind::QTrace);
        let qos = p.per_edge(TracerKind::QosTrace);
        let s = p.per_edge(TracerKind::Strace);
        assert!(q < qos && qos < s, "{q} {qos} {s}");
    }

    #[test]
    fn ptrace_pays_double_switch() {
        let p = OverheadParams {
            qtrace_log: Dur::ns(100),
            ctx_switch: Dur::us(1),
            strace_decode: Dur::us(3),
        };
        assert_eq!(p.per_edge(TracerKind::QosTrace), Dur::us(2));
        assert_eq!(p.per_edge(TracerKind::Strace), Dur::us(5));
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(TracerKind::NoTrace.name(), "NOTRACE");
        assert_eq!(TracerKind::QTrace.name(), "QTRACE");
        assert_eq!(TracerKind::QosTrace.name(), "QOSTRACE");
        assert_eq!(TracerKind::Strace.name(), "STRACE");
    }

    #[test]
    fn only_notrace_skips_recording() {
        assert!(!TracerKind::NoTrace.records());
        assert!(TracerKind::QTrace.records());
        assert!(TracerKind::QosTrace.records());
        assert!(TracerKind::Strace.records());
    }
}
