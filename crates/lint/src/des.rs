//! DES determinism analysis (DS001–DS004, DS007): the
//! happens-before checker.
//!
//! The engine breaks ties between same-timestamp events by their canonical
//! [`EventKey`](coyote_sim::EventKey): declared priority, domain and target,
//! then the origin shard's scheduling sequence. Where the declared fields
//! tie, the order falls back to scheduling order, which is an accident of
//! model construction: two semantically equivalent programs (or one program
//! after a refactor) can schedule the same events in a different order and
//! silently compute different results. This module reads a recorded
//! [`ShardTrace`] — live, or decoded from a `.cyt` recording — and flags the
//! schedules whose outcome *depends* on that accident. Events are named
//! `origin#origin_seq`, their scheduling-independent address.
//!
//! * **DS001** — two same-timestamp events declare the *same* target (they
//!   touch the same model object) without distinct tie-break priorities.
//!   Whichever runs first wins; the result is scheduling-order-dependent.
//! * **DS002** — same-timestamp events where some event declares no target
//!   at all, so disjointness cannot be established. Informational: the
//!   events may well be independent, but nothing proves it.
//! * **DS003** — same-timestamp events on *different* targets that declare
//!   the same subsystem `domain` without a total priority order. Distinct
//!   targets prove the events touch different objects, but a shared domain
//!   says they communicate through one subsystem (a switch, a DMA engine),
//!   so "disjoint targets" no longer implies "order-free".
//! * **DS004** — a merged fault trace whose events are out of canonical
//!   `(domain, op)` order: someone concatenated per-worker traces instead
//!   of going through [`coyote_chaos::FaultTrace::merged`], so the trace
//!   (and its published FNV-64 hash) depends on collection order.
//! * **DS007** — replay divergence: two runs of one recorded workload
//!   disagree on an event. The determinism contract says worker threads
//!   decide *who computes*, never *what happened*, so any disagreement is a
//!   happens-before violation upstream of the first divergent `EventKey`.
//!   `coyote-replay bisect` finds that key and reports it through this rule.

use crate::diag::{Diagnostic, Location, Report, Severity};
use coyote_chaos::FaultTrace;
use coyote_sim::{ShardTrace, ShardTraceEntry};
use std::collections::BTreeMap;

fn loc(unit: &str, at_ps: u64) -> Location {
    Location::new(format!("trace:{unit}"), format!("t={at_ps}ps"))
}

/// An event's scheduling-independent name: `origin#origin_seq`.
fn event_id(e: &ShardTraceEntry) -> String {
    format!("{}#{}", e.origin, e.origin_seq)
}

fn event_ids(group: &[&ShardTraceEntry]) -> String {
    let ids: Vec<String> = group.iter().map(|e| event_id(e)).collect();
    format!("[{}]", ids.join(", "))
}

/// True if the priority multiset fails to impose a total order: some
/// priority is undeclared, or two entries share one.
fn no_total_order(mut priorities: Vec<Option<u8>>) -> bool {
    priorities.sort_unstable();
    let all_declared = priorities.iter().all(Option::is_some);
    let mut distinct = priorities.clone();
    distinct.dedup();
    !all_declared || distinct.len() != priorities.len()
}

/// Analyze one recorded execution trace for same-instant ordering hazards
/// (DS001–DS003).
pub fn lint_trace(unit: &str, trace: &ShardTrace) -> Report {
    let mut report = Report::new();

    // Bucket by timestamp. BTreeMap keeps diagnostics in time order.
    let mut by_time: BTreeMap<u64, Vec<&ShardTraceEntry>> = BTreeMap::new();
    for e in trace.entries() {
        by_time.entry(e.at_ps).or_default().push(e);
    }

    for (at_ps, events) in by_time {
        if events.len() < 2 {
            continue;
        }

        // DS001: same declared target, indistinct priorities.
        let mut by_target: BTreeMap<u64, Vec<&ShardTraceEntry>> = BTreeMap::new();
        let mut untargeted = 0usize;
        for e in &events {
            match e.target {
                Some(t) => by_target.entry(t).or_default().push(e),
                None => untargeted += 1,
            }
        }
        for (target, group) in &by_target {
            if group.len() < 2 {
                continue;
            }
            if no_total_order(group.iter().map(|e| e.priority).collect()) {
                report.push(
                    Diagnostic::new(
                        "DS001",
                        Severity::Error,
                        loc(unit, at_ps),
                        format!(
                            "{} events at t={at_ps}ps target object {target} with no \
                             deterministic tie-break (events {}); execution order is an \
                             accident of scheduling order",
                            group.len(),
                            event_ids(group),
                        ),
                    )
                    .with_suggestion("give these events distinct EventTag priorities"),
                );
            }
        }

        // DS003: distinct targets, but a shared declared domain without a
        // total priority order across the domain's events. Same-target
        // pairs are DS001's jurisdiction; count each domain once.
        let mut by_domain: BTreeMap<u64, Vec<&ShardTraceEntry>> = BTreeMap::new();
        for e in &events {
            if let Some(d) = e.domain {
                by_domain.entry(d).or_default().push(e);
            }
        }
        for (domain, group) in by_domain {
            if group.len() < 2 {
                continue;
            }
            let mut targets: Vec<Option<u64>> = group.iter().map(|e| e.target).collect();
            targets.sort_unstable();
            targets.dedup();
            if targets.len() < 2 {
                continue; // Single target: DS001 covers it.
            }
            if no_total_order(group.iter().map(|e| e.priority).collect()) {
                report.push(
                    Diagnostic::new(
                        "DS003",
                        Severity::Error,
                        loc(unit, at_ps),
                        format!(
                            "{} events at t={at_ps}ps share domain {domain} across different \
                             targets with no total priority order (events {}); the \
                             subsystem observes them in scheduling order",
                            group.len(),
                            event_ids(&group),
                        ),
                    )
                    .with_suggestion(
                        "give the domain's same-instant events distinct priorities \
                         (EventTag::target(..).priority(..).domain(..))",
                    ),
                );
            }
        }

        // DS002: disjointness unprovable because targets are undeclared.
        if untargeted > 0 {
            report.push(Diagnostic::new(
                "DS002",
                Severity::Info,
                loc(unit, at_ps),
                format!(
                    "{untargeted} of {} events at t={at_ps}ps declare no target; \
                     cannot prove the schedule is order-independent",
                    events.len()
                ),
            ));
        }
    }

    report
}

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

/// DS007: render a replay divergence found by `coyote-replay bisect` as a
/// lint diagnostic.
///
/// The bisector does the search; this function owns the diagnostic shape so
/// replay divergences render exactly like every other determinism finding
/// (same `trace:<unit>` / `t=<ps>ps` location grammar, same report/JSON
/// plumbing, same golden-test coverage). Inputs are plain fields so the
/// replay crate can depend on lint without lint depending back:
///
/// * `unit` — the recorded workload (e.g. `platform-storm`).
/// * `index` — index of the first divergent event in the canonical trace.
/// * `at_ps` — timestamp of the expected event at that index.
/// * `detail` — rendered expected-vs-actual comparison.
/// * `suspects` — the rule families the field-level diff implicates
///   (e.g. `["DS001"]` for a same-instant priority flip).
pub fn lint_replay_divergence(
    unit: &str,
    index: usize,
    at_ps: u64,
    detail: &str,
    suspects: &[&str],
) -> Report {
    let mut report = Report::new();
    let suggestion = if suspects.is_empty() {
        "re-record both sides and bisect again; if the divergence persists, audit \
         the model change between the two recordings"
            .to_string()
    } else {
        format!(
            "audit the {} rule family at this instant (run coyote-lint over the \
             recorded trace), then re-record",
            suspects.join("/"),
        )
    };
    report.push(
        Diagnostic::new(
            "DS007",
            Severity::Error,
            loc(unit, at_ps),
            format!("replay diverged at event[{index}]: {detail}"),
        )
        .with_suggestion(suggestion),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use coyote_chaos::{Domain, FaultKind, TraceKind};
    use coyote_sim::{EventTag, SimTime};

    /// One executed event, as a live run or a decoded `.cyt` recording
    /// holds it: scheduled at t=0 by shard 0.
    fn ev(origin_seq: u64, at_ps: u64, tag: EventTag) -> ShardTraceEntry {
        ShardTraceEntry {
            shard: 0,
            at_ps,
            domain: tag.domain,
            target: tag.target,
            priority: tag.priority,
            src_domain: tag.src_domain,
            posted_at_ps: 0,
            origin: 0,
            origin_seq,
        }
    }

    fn trace(entries: Vec<ShardTraceEntry>) -> ShardTrace {
        ShardTrace::merged(vec![entries])
    }

    #[test]
    fn conflicting_untiebroken_events_flagged() {
        let t = trace(vec![
            ev(0, 500, EventTag::target(7)),
            ev(1, 500, EventTag::target(7)),
        ]);
        let r = lint_trace("t", &t);
        assert_eq!(r.of_rule("DS001").count(), 1, "{}", r.render_human());
        assert!(r.has_errors());
        let msg = &r.of_rule("DS001").next().unwrap().message;
        assert!(msg.contains("events [0#0, 0#1]"), "{msg}");
    }

    #[test]
    fn distinct_priorities_are_deterministic() {
        let t = trace(vec![
            ev(0, 500, EventTag::target(7).priority(0)),
            ev(1, 500, EventTag::target(7).priority(1)),
        ]);
        assert!(lint_trace("t", &t).is_clean());
    }

    #[test]
    fn equal_priorities_still_hazardous() {
        let t = trace(vec![
            ev(0, 500, EventTag::target(7).priority(3)),
            ev(1, 500, EventTag::target(7).priority(3)),
        ]);
        assert_eq!(lint_trace("t", &t).of_rule("DS001").count(), 1);
    }

    #[test]
    fn disjoint_targets_are_clean() {
        let t = trace(vec![
            ev(0, 500, EventTag::target(1)),
            ev(1, 500, EventTag::target(2)),
        ]);
        assert!(lint_trace("t", &t).is_clean());
    }

    #[test]
    fn untargeted_coincidence_is_info_only() {
        let t = trace(vec![
            ev(0, 500, EventTag::default()),
            ev(1, 500, EventTag::default()),
        ]);
        let r = lint_trace("t", &t);
        assert_eq!(r.of_rule("DS002").count(), 1);
        assert_eq!(r.max_severity(), Some(Severity::Info));
    }

    #[test]
    fn distinct_times_never_flagged() {
        let t = trace(vec![
            ev(0, 1, EventTag::default()),
            ev(1, 2, EventTag::default()),
        ]);
        assert!(lint_trace("t", &t).is_clean());
    }

    // ------------------------------------------------------------- DS003

    #[test]
    fn ds003_shared_domain_without_order_flagged() {
        let t = trace(vec![
            ev(0, 500, EventTag::target(1).domain(9)),
            ev(1, 500, EventTag::target(2).domain(9)),
        ]);
        let r = lint_trace("t", &t);
        assert_eq!(r.of_rule("DS003").count(), 1, "{}", r.render_human());
        assert!(r.of_rule("DS001").next().is_none(), "targets are distinct");
        assert!(r.has_errors());
    }

    #[test]
    fn ds003_clean_with_domain_wide_priorities() {
        let t = trace(vec![
            ev(0, 500, EventTag::target(1).priority(0).domain(9)),
            ev(1, 500, EventTag::target(2).priority(1).domain(9)),
        ]);
        assert!(lint_trace("t", &t).is_clean());
    }

    #[test]
    fn ds003_different_domains_are_clean() {
        let t = trace(vec![
            ev(0, 500, EventTag::target(1).domain(9)),
            ev(1, 500, EventTag::target(2).domain(10)),
        ]);
        assert!(lint_trace("t", &t).is_clean());
    }

    #[test]
    fn ds003_same_target_defers_to_ds001() {
        let t = trace(vec![
            ev(0, 500, EventTag::target(1).domain(9)),
            ev(1, 500, EventTag::target(1).domain(9)),
        ]);
        let r = lint_trace("t", &t);
        assert_eq!(r.of_rule("DS001").count(), 1);
        assert!(r.of_rule("DS003").next().is_none());
    }

    // ------------------------------------------------------------- DS004

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
