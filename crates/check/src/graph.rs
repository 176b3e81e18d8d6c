//! Kernel-graph schedule validator: structural checks over the
//! [`GraphSchedule`]s the runtime records at each flush.
//!
//! The runtime's DAG builder promises *conservative* edges: every pair of
//! launches whose declared footprints conflict on a buffer must be ordered
//! by an edge, and the executor must respect every edge it was given. This
//! module re-derives the conflict pairs from the per-node footprints the
//! schedule carries and checks both promises after the fact — a dropped
//! edge (builder bug) or an edge the executor ignored (scheduler bug)
//! surfaces as a [`LintDiagnostic`], the same currency as the protocol
//! linter and the race detector.

use fluidicl::{DepKind, GraphSchedule, LintDiagnostic};
use fluidicl_vcl::{BufferId, DirtyRanges};

/// Re-derives the conflict pairs of a schedule from its node footprints:
/// for each `i < j`, each buffer where `i`'s writes overlap `j`'s reads
/// (true), `i`'s reads overlap `j`'s writes (anti), or both write
/// (output).
fn conflicts(s: &GraphSchedule) -> Vec<(usize, usize, BufferId, DepKind)> {
    let overlap = |a: &[(BufferId, DirtyRanges)], b: &[(BufferId, DirtyRanges)]| {
        let mut hits = Vec::new();
        for (id, fa) in a {
            for (jd, fb) in b {
                if id == jd && !fa.intersect(fb).is_empty() {
                    hits.push(*id);
                }
            }
        }
        hits
    };
    let mut out = Vec::new();
    for i in 0..s.nodes.len() {
        for j in i + 1..s.nodes.len() {
            let (a, b) = (&s.nodes[i], &s.nodes[j]);
            for id in overlap(&a.writes, &b.reads) {
                out.push((i, j, id, DepKind::True));
            }
            for id in overlap(&a.reads, &b.writes) {
                out.push((i, j, id, DepKind::Anti));
            }
            for id in overlap(&a.writes, &b.writes) {
                out.push((i, j, id, DepKind::Output));
            }
        }
    }
    out
}

/// Validates one flushed schedule. Rules:
///
/// * `graph-edge-shape` — an edge references a node out of range or does
///   not point forward in enqueue order;
/// * `graph-missing-edge` — two nodes whose recorded footprints conflict
///   on a buffer have no edge between them (a builder under-approximation:
///   the scheduler was free to run a conflicting pair concurrently);
/// * `graph-edge-order` — the consumer of an edge started before its
///   producer completed (the executor ignored a dependence it knew about);
/// * `graph-race` — a conflicting pair's execution windows overlap in
///   virtual time, independent of whether an edge exists. This is the
///   materialized race a dropped edge permits;
/// * `graph-lane-overlap` — two nodes that occupy the same device, by
///   their lane or by joining a lane-0 node, overlap in virtual time (one
///   device ran two nodes at once).
pub fn check_schedule(s: &GraphSchedule) -> Vec<LintDiagnostic> {
    let mut out = Vec::new();
    for (i, a) in s.nodes.iter().enumerate() {
        for (j, b) in s.nodes.iter().enumerate().skip(i + 1) {
            let shared = std::iter::once(&a.lane)
                .chain(&a.joined)
                .find(|&l| *l == b.lane || b.joined.contains(l));
            if let Some(lane) = shared {
                if a.start_at < b.complete_at && b.start_at < a.complete_at {
                    out.push(LintDiagnostic::error(
                        "graph-lane-overlap",
                        format!(
                            "nodes {i} (`{}`) and {j} (`{}`) both occupy lane {lane} \
                             and ran concurrently",
                            a.kernel, b.kernel
                        ),
                    ));
                }
            }
        }
    }
    for e in &s.edges {
        if e.from >= s.nodes.len() || e.to >= s.nodes.len() || e.from >= e.to {
            out.push(LintDiagnostic::error(
                "graph-edge-shape",
                format!(
                    "edge {} -> {} ({} node(s) in the schedule) is malformed",
                    e.from,
                    e.to,
                    s.nodes.len()
                ),
            ));
            continue;
        }
        let (from, to) = (&s.nodes[e.from], &s.nodes[e.to]);
        if to.start_at < from.complete_at {
            out.push(LintDiagnostic::error(
                "graph-edge-order",
                format!(
                    "{} edge {} -> {} on buffer {}: consumer started at {} \
                     before producer completed at {}",
                    e.kind.label(),
                    e.from,
                    e.to,
                    e.buffer.0,
                    to.start_at,
                    from.complete_at
                ),
            ));
        }
    }
    for (i, j, buffer, kind) in conflicts(s) {
        if !s
            .edges
            .iter()
            .any(|e| e.from == i && e.to == j && e.buffer == buffer)
        {
            out.push(LintDiagnostic::error(
                "graph-missing-edge",
                format!(
                    "nodes {i} (`{}`) and {j} (`{}`) conflict on buffer {} \
                     ({}) but no edge orders them",
                    s.nodes[i].kernel,
                    s.nodes[j].kernel,
                    buffer.0,
                    kind.label()
                ),
            ));
        }
        let (a, b) = (&s.nodes[i], &s.nodes[j]);
        if a.start_at < b.complete_at && b.start_at < a.complete_at {
            out.push(LintDiagnostic::error(
                "graph-race",
                format!(
                    "nodes {i} (`{}`, lane {}) and {j} (`{}`, lane {}) \
                     conflict on buffer {} ({}) and ran concurrently",
                    a.kernel,
                    a.lane,
                    b.kernel,
                    b.lane,
                    buffer.0,
                    kind.label()
                ),
            ));
        }
    }
    out
}

/// Maximum number of nodes whose `[start_at, complete_at)` windows overlap
/// at any instant — the schedule's achieved parallelism. A serial schedule
/// reports 1; a builder that emits spurious edges between independent
/// nodes drags this back to 1, which the sweep and the mutation tests
/// assert against.
pub fn max_overlap(s: &GraphSchedule) -> usize {
    let mut events = Vec::new();
    for n in &s.nodes {
        if n.start_at < n.complete_at {
            events.push((n.start_at, 1i64));
            events.push((n.complete_at, -1i64));
        }
    }
    // Ends sort before starts at the same instant: touching windows do
    // not overlap.
    events.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut live = 0i64;
    let mut peak = 0i64;
    for (_, d) in events {
        live += d;
        peak = peak.max(live);
    }
    usize::try_from(peak.max(0)).expect("peak fits usize")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidicl::{Fluidicl, FluidiclConfig};
    use fluidicl_hetsim::MachineConfig;
    use fluidicl_polybench::pipeline_benchmark;

    fn batchmm_schedules() -> Vec<GraphSchedule> {
        let spec = pipeline_benchmark();
        let n = 96;
        let mut rt = Fluidicl::new(
            MachineConfig::paper_testbed_3dev(),
            FluidiclConfig::default(),
            (spec.program)(n),
        );
        let ok = spec
            .run_and_validate_sized(&mut rt, n, 0x6A_F9)
            .expect("batchmm runs");
        assert!(ok, "BATCHMM output mismatch");
        rt.graph_schedules().to_vec()
    }

    #[test]
    fn real_schedules_are_clean_and_parallel() {
        let schedules = batchmm_schedules();
        assert!(!schedules.is_empty());
        let mut peak = 0;
        for s in &schedules {
            let diags = check_schedule(s);
            assert!(diags.is_empty(), "clean schedule flagged: {diags:?}");
            peak = peak.max(max_overlap(s));
        }
        // The four independent products must actually overlap; a builder
        // that emitted spurious edges between them would serialize the
        // graph and fail here.
        assert!(peak >= 2, "independent products never overlapped");
    }

    #[test]
    fn dropped_edge_is_reported() {
        let mut s = batchmm_schedules().into_iter().next().expect("one flush");
        let true_edge = s
            .edges
            .iter()
            .position(|e| e.kind == DepKind::True)
            .expect("the fan-in reduction has true edges");
        s.edges.remove(true_edge);
        let diags = check_schedule(&s);
        assert!(
            diags.iter().any(|d| d.rule == "graph-missing-edge"),
            "dropped edge not detected: {diags:?}"
        );
    }

    #[test]
    fn executed_race_is_reported() {
        // Drop an edge *and* pretend the scheduler exploited it: pull the
        // consumer's window back over its producer's. Both the ordering
        // violation and the materialized race must surface.
        let mut s = batchmm_schedules().into_iter().next().expect("one flush");
        let e = s
            .edges
            .iter()
            .find(|e| e.kind == DepKind::True)
            .expect("true edge")
            .clone();
        let (from_start, from_complete) = {
            let f = &s.nodes[e.from];
            (f.start_at, f.complete_at)
        };
        let consumer = &mut s.nodes[e.to];
        consumer.start_at = from_start;
        consumer.complete_at = from_complete;
        let diags = check_schedule(&s);
        assert!(
            diags.iter().any(|d| d.rule == "graph-edge-order"),
            "ignored edge not detected: {diags:?}"
        );
        assert!(
            diags.iter().any(|d| d.rule == "graph-race"),
            "overlapping conflict not detected: {diags:?}"
        );
    }

    #[test]
    fn a_node_overlapping_a_joined_lane_is_reported() {
        // Forge a lane-0 node that a peer joined while that peer's own
        // node was running: one device would have run two nodes at once.
        let mut s = batchmm_schedules().into_iter().next().expect("one flush");
        let peer_node = s
            .nodes
            .iter()
            .position(|n| n.lane > 0)
            .expect("a node runs on a peer lane");
        let (lane, start, complete) = {
            let n = &s.nodes[peer_node];
            (n.lane, n.start_at, n.complete_at)
        };
        let owner_node = s
            .nodes
            .iter()
            .position(|n| n.lane == 0)
            .expect("a node runs on lane 0");
        s.nodes[owner_node].joined = vec![lane];
        s.nodes[owner_node].start_at = start;
        s.nodes[owner_node].complete_at = complete;
        let diags = check_schedule(&s);
        assert!(
            diags.iter().any(|d| d.rule == "graph-lane-overlap"),
            "a doubly booked lane was not detected: {diags:?}"
        );
    }

    #[test]
    fn malformed_edges_are_reported() {
        let mut s = batchmm_schedules().into_iter().next().expect("one flush");
        let mut e = s.edges[0].clone();
        e.to = e.from;
        s.edges.push(e);
        let diags = check_schedule(&s);
        assert!(diags.iter().any(|d| d.rule == "graph-edge-shape"));
    }

    #[test]
    fn serial_windows_report_no_overlap() {
        let mut s = batchmm_schedules().into_iter().next().expect("one flush");
        // Rewrite the windows into a serial chain: parallelism collapses
        // to 1 — the signal the mutation tests use to detect a builder
        // that over-serializes with spurious edges.
        let mut t = s.nodes[0].start_at;
        let step = fluidicl_des::SimDuration::from_nanos(10);
        for n in &mut s.nodes {
            n.start_at = t;
            t += step;
            n.complete_at = t;
        }
        assert_eq!(max_overlap(&s), 1);
    }
}
