//! Fault-trace order analysis (DS004): [`lint_fault_trace`].

use crate::diag::{Diagnostic, Location, Report, Severity};
use coyote_chaos::FaultTrace;

/// DS004: verify a fault trace is in the canonical merge order.
///
/// [`FaultTrace::merged`] sorts events by `(domain tag, op)` so the merged
/// trace — and the FNV-64 hash CI publishes — is independent of which worker
/// finished first. A trace assembled by plain concatenation breaks that
/// contract; this rule catches it after the fact.
pub fn lint_fault_trace(unit: &str, trace: &FaultTrace) -> Report {
    let mut report = Report::new();
    let events = trace.events();
    for (i, pair) in events.windows(2).enumerate() {
        let (a, b) = (&pair[0], &pair[1]);
        if (a.domain.tag(), a.op) > (b.domain.tag(), b.op) {
            report.push(
                Diagnostic::new(
                    "DS004",
                    Severity::Error,
                    Location::new(format!("trace:{unit}"), format!("event[{}]", i + 1)),
                    format!(
                        "fault trace leaves canonical (domain, op) order at event {}: \
                         ({}, op={}) follows ({}, op={}); the trace hash depends on \
                         collection order",
                        i + 1,
                        b.domain.name(),
                        b.op,
                        a.domain.name(),
                        a.op,
                    ),
                )
                .with_suggestion("combine per-domain traces with FaultTrace::merged"),
            );
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use coyote_chaos::{Domain, FaultKind, TraceKind};
    use coyote_sim::SimTime;

    fn fault(trace: &mut FaultTrace, domain: Domain, op: u64) {
        trace.push(
            domain,
            op,
            SimTime::ZERO,
            TraceKind::Injected,
            FaultKind::NetLoss,
            0,
        );
    }

    #[test]
    fn ds004_concatenated_trace_flagged() {
        // Net events (tag > dma) recorded before DMA events: canonical
        // merge order is violated at the boundary.
        let mut t = FaultTrace::new();
        fault(&mut t, Domain::NetSwitch, 0);
        fault(&mut t, Domain::Dma, 0);
        let r = lint_fault_trace("chaos", &t);
        assert_eq!(r.of_rule("DS004").count(), 1, "{}", r.render_human());
        assert!(r.has_errors());
    }

    #[test]
    fn ds004_merged_trace_is_clean() {
        let mut net = FaultTrace::new();
        fault(&mut net, Domain::NetSwitch, 1);
        let mut dma = FaultTrace::new();
        fault(&mut dma, Domain::Dma, 0);
        let merged = FaultTrace::merged([dma, net]);
        assert!(lint_fault_trace("chaos", &merged).is_clean());
    }

    #[test]
    fn ds004_out_of_order_ops_within_domain_flagged() {
        let mut t = FaultTrace::new();
        fault(&mut t, Domain::NetSwitch, 5);
        fault(&mut t, Domain::NetSwitch, 2);
        let r = lint_fault_trace("chaos", &t);
        assert_eq!(r.of_rule("DS004").count(), 1);
    }
}
