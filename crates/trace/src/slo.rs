//! SLO watchdogs evaluated in virtual time at snapshot.
//!
//! Two checks: a p99 latency budget per op prefix (optionally pinned
//! to one size class), and flow-stall detection — an open ARQ repair
//! exchange whose last heartbeat is older than the configured budget.

use crate::flight::is_stall_eligible;
use crate::{FlowSnap, Histogram, Key, Metric};

/// One p99 budget. Matches every histogram whose op starts with
/// `op_prefix` (and, when set, whose size class equals `size_class`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SloBudget {
    pub op_prefix: String,
    pub size_class: Option<u8>,
    pub p99_ns: u64,
}

/// Watchdog configuration installed on the recorder.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SloConfig {
    pub budgets: Vec<SloBudget>,
    /// Flow-stall heartbeat budget; 0 disables the stall check.
    pub stall_ns: u64,
}

impl SloConfig {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn p99(mut self, op_prefix: &str, p99_ns: u64) -> Self {
        self.budgets.push(SloBudget {
            op_prefix: op_prefix.to_string(),
            size_class: None,
            p99_ns,
        });
        self
    }

    pub fn p99_for_class(mut self, op_prefix: &str, size_class: u8, p99_ns: u64) -> Self {
        self.budgets.push(SloBudget {
            op_prefix: op_prefix.to_string(),
            size_class: Some(size_class),
            p99_ns,
        });
        self
    }

    pub fn stall(mut self, stall_ns: u64) -> Self {
        self.stall_ns = stall_ns;
        self
    }
}

/// A single violated budget or stalled flow.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SloViolation {
    /// `"p99-budget"` or `"flow-stall"`.
    pub kind: &'static str,
    /// Rank the violation is attributed to (0 for merged-histogram
    /// budget checks).
    pub rank: usize,
    /// Human-readable subject (op + key, or flow identity).
    pub subject: String,
    pub observed_ns: u64,
    pub budget_ns: u64,
}

/// Watchdog verdict embedded in the snapshot.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SloReport {
    /// False when no [`SloConfig`] was installed.
    pub evaluated: bool,
    pub violations: Vec<SloViolation>,
}

impl SloReport {
    pub fn verdict(&self) -> &'static str {
        if !self.evaluated {
            "unevaluated"
        } else if self.violations.is_empty() {
            "pass"
        } else {
            "violated"
        }
    }
}

/// Evaluate `cfg` against merged end-to-end histograms and the open
/// flows at snapshot time `end_ns`.
pub fn evaluate(
    cfg: &SloConfig,
    hists: &[(Key, Histogram)],
    flows: &[FlowSnap],
    end_ns: u64,
) -> SloReport {
    let mut violations = Vec::new();
    for b in &cfg.budgets {
        for (k, h) in hists {
            if k.metric != Metric::E2e
                || h.is_empty()
                || !k.op.starts_with(b.op_prefix.as_str())
                || b.size_class.is_some_and(|sc| sc != k.size_class)
            {
                continue;
            }
            let p99 = h.p99();
            if p99 > b.p99_ns {
                violations.push(SloViolation {
                    kind: "p99-budget",
                    rank: 0,
                    subject: format!("{} peer={} sc={}", k.op, k.peer, k.size_class),
                    observed_ns: p99,
                    budget_ns: b.p99_ns,
                });
            }
        }
    }
    if cfg.stall_ns > 0 {
        for f in flows {
            let age = end_ns.saturating_sub(f.last_ns);
            if is_stall_eligible(&f.last_kind) && age > cfg.stall_ns {
                violations.push(SloViolation {
                    kind: "flow-stall",
                    rank: f.rank,
                    subject: format!(
                        "flow peer={} tag={} seq={} last={}",
                        f.peer, f.tag, f.seq, f.last_kind
                    ),
                    observed_ns: age,
                    budget_ns: cfg.stall_ns,
                });
            }
        }
    }
    SloReport {
        evaluated: true,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_and_stall_checks() {
        let mut slow = Histogram::new();
        for _ in 0..100 {
            slow.record(2_000_000);
        }
        let hists = vec![(
            Key {
                metric: Metric::E2e,
                op: "p2p/recv",
                comm: 0,
                peer: 1,
                size_class: 18,
            },
            slow,
        )];
        let flows = vec![
            FlowSnap {
                rank: 1,
                peer: 0,
                tag: 9,
                seq: 3,
                last_kind: "nack/tx".into(),
                last_ns: 1_000,
                total_events: 4,
            },
            // A freshly-posted flow never counts as stalled.
            FlowSnap {
                rank: 0,
                peer: 1,
                tag: 9,
                seq: 4,
                last_kind: "post/plain".into(),
                last_ns: 0,
                total_events: 1,
            },
        ];
        let cfg = SloConfig::new().p99("p2p/", 1_000_000).stall(500_000);
        let rep = evaluate(&cfg, &hists, &flows, 10_000_000);
        assert_eq!(rep.verdict(), "violated");
        assert_eq!(rep.violations.len(), 2);
        assert_eq!(rep.violations[0].kind, "p99-budget");
        assert_eq!(rep.violations[1].kind, "flow-stall");
        assert_eq!(rep.violations[1].rank, 1);

        let lax = SloConfig::new().p99("p2p/", u64::MAX);
        assert_eq!(evaluate(&lax, &hists, &flows, 10).verdict(), "pass");
        assert_eq!(SloReport::default().verdict(), "unevaluated");
    }
}
