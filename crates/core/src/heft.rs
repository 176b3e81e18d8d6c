//! HEFT-style lookahead placement for the kernel graph.
//!
//! Heterogeneous Earliest Finish Time (Topcuoglu et al.) adapted to the
//! FluidiCL device roster: each graph node can run on one of several
//! *lanes* — lane 0 is the owner co-execution path (CPU + owner GPU under
//! the fluidic protocol), lane `p >= 1` is peer GPU `p` executing the node
//! alone. Node weights are per-(kernel, lane) execution-time estimates
//! held in a [`WeightTable`]: seeded from the hetsim device models (the
//! paper's profiling trials) and refined online with an EWMA of observed
//! virtual times. Edge costs are link-bandwidth transfer estimates for the
//! bytes a true dependence moves, charged only when producer and consumer
//! land on different lanes.
//!
//! The planner is pure (no runtime state), so the check crate can replay
//! placements and the mutation tests can probe edge handling directly.

/// One scheduling edge: `from` must finish before `to` starts, and moving
/// the data across lanes costs `cost_ns`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeftEdge {
    /// Producing node index.
    pub from: usize,
    /// Consuming node index (must be greater than `from`).
    pub to: usize,
    /// Transfer estimate in nanoseconds if the two nodes run on
    /// different lanes (zero when co-located).
    pub cost_ns: u64,
}

/// The placement the planner chose. The runtime takes only the lanes:
/// it executes nodes in enqueue order, which every edge already respects.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeftPlan {
    /// Chosen lane per node (indexed by node).
    pub lane: Vec<usize>,
    /// Estimated start per node, ns (indexed by node).
    pub start_ns: Vec<u64>,
    /// Estimated finish per node, ns (indexed by node).
    pub finish_ns: Vec<u64>,
}

impl HeftPlan {
    /// Estimated makespan: the latest node finish (0 for an empty graph).
    pub fn makespan_ns(&self) -> u64 {
        self.finish_ns.iter().copied().max().unwrap_or(0)
    }
}

/// Plans placements for a DAG whose node `i` costs `weights[i][lane]`
/// nanoseconds on each lane. Edges must satisfy `from < to` (the DAG
/// builder emits program-order edges). Weights are clamped to at least
/// 1 ns so decreasing upward rank is a strict topological order.
///
/// # Panics
///
/// Panics if a weight row's lane count differs from the others, or an
/// edge references a missing node or has `from >= to`.
pub fn plan(weights: &[Vec<u64>], edges: &[HeftEdge]) -> HeftPlan {
    let n = weights.len();
    if n == 0 {
        return HeftPlan {
            lane: Vec::new(),
            start_ns: Vec::new(),
            finish_ns: Vec::new(),
        };
    }
    let lanes = weights[0].len();
    assert!(lanes > 0, "at least one lane");
    for w in weights {
        assert_eq!(w.len(), lanes, "every node weighs every lane");
    }
    for e in edges {
        assert!(e.from < e.to && e.to < n, "edges follow program order");
    }

    // Upward rank over mean lane weight: rank(i) = w̄(i) + max over
    // successors of (edge cost + rank(succ)). Reverse index order is a
    // reverse topological order because every edge has from < to.
    let mean: Vec<u64> = weights
        .iter()
        .map(|w| (w.iter().map(|&x| x.max(1)).sum::<u64>() / lanes as u64).max(1))
        .collect();
    let mut rank = vec![0u64; n];
    for i in (0..n).rev() {
        let tail = edges
            .iter()
            .filter(|e| e.from == i)
            .map(|e| e.cost_ns + rank[e.to])
            .max()
            .unwrap_or(0);
        rank[i] = mean[i] + tail;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| rank[b].cmp(&rank[a]).then(a.cmp(&b)));

    // Earliest-finish-time placement in rank order.
    let mut lane = vec![0usize; n];
    let mut start_ns = vec![0u64; n];
    let mut finish_ns = vec![0u64; n];
    let mut lane_free = vec![0u64; lanes];
    for &node in &order {
        let mut best: Option<(u64, u64, usize)> = None; // (eft, est, lane)
        for l in 0..lanes {
            let ready = edges
                .iter()
                .filter(|e| e.to == node)
                .map(|e| finish_ns[e.from] + if lane[e.from] == l { 0 } else { e.cost_ns })
                .max()
                .unwrap_or(0);
            let est = lane_free[l].max(ready);
            let eft = est + weights[node][l].max(1);
            if best.is_none_or(|(b, _, _)| eft < b) {
                best = Some((eft, est, l));
            }
        }
        let (eft, est, l) = best.expect("at least one lane");
        lane[node] = l;
        start_ns[node] = est;
        finish_ns[node] = eft;
        lane_free[l] = eft;
    }
    HeftPlan {
        lane,
        start_ns,
        finish_ns,
    }
}

/// EWMA smoothing factor for online weight refinement: observation and
/// history weigh equally, so estimates converge in a few launches without
/// thrashing on one outlier (paper §6.6 keeps its profiling trials
/// similarly short).
const EWMA_ALPHA: f64 = 0.5;

/// Per-(kernel, lane) execution-time estimates: seeded from the device
/// models on first sight, refined by EWMA as flushed graphs report their
/// observed virtual times. Lives on the runtime, so estimates carry
/// across flushes — the "online-profiled node weights" of ISSUE 10.
#[derive(Clone, Debug, Default)]
pub struct WeightTable {
    entries: Vec<(String, usize, u64)>,
}

impl WeightTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current estimate for `kernel` on `lane`, or `seed_ns` (the
    /// model-derived profiling estimate) if the pair was never observed.
    pub fn estimate_ns(&self, kernel: &str, lane: usize, seed_ns: u64) -> u64 {
        self.entries
            .iter()
            .find(|(k, l, _)| k == kernel && *l == lane)
            .map_or(seed_ns, |&(_, _, v)| v)
    }

    /// Folds one observed execution time into the estimate for
    /// `kernel` on `lane`.
    pub fn observe_ns(&mut self, kernel: &str, lane: usize, observed_ns: u64) {
        if let Some(entry) = self
            .entries
            .iter_mut()
            .find(|(k, l, _)| k == kernel && *l == lane)
        {
            let blended = entry.2 as f64 * (1.0 - EWMA_ALPHA) + observed_ns as f64 * EWMA_ALPHA;
            entry.2 = blended.round() as u64;
        } else {
            self.entries.push((kernel.to_string(), lane, observed_ns));
        }
    }

    /// Number of (kernel, lane) pairs observed so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no pair has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_plans_empty() {
        let p = plan(&[], &[]);
        assert!(p.lane.is_empty());
        assert_eq!(p.makespan_ns(), 0);
    }

    #[test]
    fn independent_nodes_spread_across_lanes() {
        // Two equal nodes, two lanes: HEFT should overlap them.
        let w = vec![vec![100, 100], vec![100, 100]];
        let p = plan(&w, &[]);
        assert_ne!(p.lane[0], p.lane[1], "independent nodes take both lanes");
        assert_eq!(p.makespan_ns(), 100, "overlapped, not serialized");
    }

    #[test]
    fn chain_serializes_and_charges_cross_lane_cost_only() {
        // a -> b with a 50 ns edge. Lane 0 is fast for both, so both land
        // there and the edge cost is never charged.
        let w = vec![vec![100, 400], vec![100, 400]];
        let edges = [HeftEdge {
            from: 0,
            to: 1,
            cost_ns: 50,
        }];
        let p = plan(&w, &edges);
        assert_eq!(p.lane, vec![0, 0]);
        assert_eq!(p.start_ns[1], 100, "co-located: no transfer charged");
        // Make lane 0 busy for b only: b moves to lane 1 and pays the edge.
        let w = vec![vec![100, 400], vec![4000, 200]];
        let p = plan(&w, &edges);
        assert_eq!(p.lane, vec![0, 1]);
        assert_eq!(p.start_ns[1], 150, "cross-lane: finish(a) + 50");
        assert_eq!(p.makespan_ns(), 350);
    }

    #[test]
    fn estimates_respect_every_edge() {
        // Diamond: 0 -> {1, 2} -> 3.
        let w = vec![vec![10, 10]; 4];
        let edges = [
            HeftEdge {
                from: 0,
                to: 1,
                cost_ns: 0,
            },
            HeftEdge {
                from: 0,
                to: 2,
                cost_ns: 0,
            },
            HeftEdge {
                from: 1,
                to: 3,
                cost_ns: 0,
            },
            HeftEdge {
                from: 2,
                to: 3,
                cost_ns: 0,
            },
        ];
        let p = plan(&w, &edges);
        for e in &edges {
            assert!(
                p.start_ns[e.to] >= p.finish_ns[e.from],
                "the estimate respects {e:?}"
            );
        }
        // The two middle nodes overlap on distinct lanes.
        assert_ne!(p.lane[1], p.lane[2]);
        assert_eq!(p.makespan_ns(), 30);
    }

    #[test]
    fn zero_weights_are_clamped() {
        let p = plan(&vec![vec![0, 0]; 3], &[]);
        assert!(p.makespan_ns() >= 1, "clamp keeps ranks strictly ordered");
    }

    #[test]
    fn weight_table_seeds_then_converges() {
        let mut t = WeightTable::new();
        assert!(t.is_empty());
        assert_eq!(t.estimate_ns("syrk", 0, 777), 777, "unseen: model seed");
        t.observe_ns("syrk", 0, 1000);
        assert_eq!(t.estimate_ns("syrk", 0, 777), 1000, "first sight adopts");
        t.observe_ns("syrk", 0, 2000);
        assert_eq!(t.estimate_ns("syrk", 0, 777), 1500, "EWMA alpha 0.5");
        assert_eq!(t.estimate_ns("syrk", 1, 5), 5, "lanes are independent");
        t.observe_ns("syrk", 1, 9);
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "program order")]
    fn rejects_backward_edges() {
        let _ = plan(
            &[vec![1], vec![1]],
            &[HeftEdge {
                from: 1,
                to: 0,
                cost_ns: 0,
            }],
        );
    }
}
