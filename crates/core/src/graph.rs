//! Kernel-graph dependence analysis.
//!
//! The runtime defers every enqueued launch into a DAG and executes it at
//! the next flush. This module derives the
//! edges: for every pair of deferred launches that touch a common buffer,
//! the per-arg [`AccessPattern`] declarations are evaluated over the
//! *whole* NDRange and the element footprints intersected —
//!
//! * **true** dependence: an earlier write overlaps a later read (the data
//!   must flow);
//! * **anti** dependence: an earlier read overlaps a later write (the read
//!   must see the pre-write value);
//! * **output** dependence: two writes overlap (last-writer-wins order).
//!
//! Arguments with no declaration — and [`AccessPattern::Custom`] shapes,
//! whose closures the builder does not evaluate — conservatively fall back
//! to a whole-buffer footprint, so a missing declaration can only *add*
//! edges, never drop one. The sanitizer's shadow write-maps give the same
//! guarantee from the other side: `fluidicl-check` replays each launch and
//! cross-checks that every observed conflict has an edge here.
//!
//! Nodes with no path between them are independent and may run
//! concurrently on different devices; [`crate::heft`] picks the placement.

use fluidicl_des::SimTime;
use fluidicl_vcl::{AccessPattern, ArgRole, BufferId, DirtyRanges, Launch};

/// Kind of a dependence edge between two graph nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DepKind {
    /// Read-after-write: the successor consumes elements the predecessor
    /// produced.
    True,
    /// Write-after-read: the successor overwrites elements the predecessor
    /// reads.
    Anti,
    /// Write-after-write: both nodes write overlapping elements.
    Output,
}

impl DepKind {
    /// Short stable label for rendering and JSON.
    pub fn label(self) -> &'static str {
        match self {
            DepKind::True => "true",
            DepKind::Anti => "anti",
            DepKind::Output => "output",
        }
    }
}

/// One dependence edge: node `from` must complete before node `to` starts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphEdge {
    /// Index of the earlier (producing) node in enqueue order.
    pub from: usize,
    /// Index of the later (consuming) node in enqueue order.
    pub to: usize,
    /// The buffer the conflict is on.
    pub buffer: BufferId,
    /// Conflict kind.
    pub kind: DepKind,
    /// Bytes in the overlap — the data volume a cross-device placement of
    /// a *true* edge would have to move (anti/output edges order execution
    /// but move nothing).
    pub overlap_bytes: u64,
}

/// Element footprints of one deferred launch: which ranges of which
/// buffers it reads and writes, at whole-launch granularity.
#[derive(Clone, Debug)]
pub struct NodeAccess {
    /// Kernel name (for diagnostics and profiling keys).
    pub kernel: String,
    /// Per-buffer read footprints (`In` and `InOut` arguments, merged).
    pub reads: Vec<(BufferId, DirtyRanges)>,
    /// Per-buffer write footprints (`Out` and `InOut` arguments, merged).
    pub writes: Vec<(BufferId, DirtyRanges)>,
}

/// Derives the read/write footprints of one launch from its kernel's
/// per-arg [`AccessPattern`] declarations. `len_of` supplies buffer
/// lengths (the builder runs before any device sees the launch, so
/// lengths come from the buffer table). Undeclared and `Custom` patterns
/// fall back to the whole buffer.
///
/// # Errors
///
/// Propagates signature validation errors from the launch plan.
pub fn node_access(
    launch: &Launch,
    mut len_of: impl FnMut(BufferId) -> usize,
) -> fluidicl_vcl::ClResult<NodeAccess> {
    let plan = launch.plan()?;
    let total = launch.ndrange.num_groups();
    let mut reads: Vec<(BufferId, DirtyRanges)> = Vec::new();
    let mut writes: Vec<(BufferId, DirtyRanges)> = Vec::new();
    let add = |side: &mut Vec<(BufferId, DirtyRanges)>, id: BufferId, fp: DirtyRanges| {
        if let Some((_, have)) = side.iter_mut().find(|(b, _)| *b == id) {
            *have = have.union(&fp);
        } else {
            side.push((id, fp));
        }
    };
    for (spec, arg) in launch.kernel.args().iter().zip(&launch.args) {
        if !spec.role.is_buffer() {
            continue;
        }
        let &fluidicl_vcl::KernelArg::Buffer(id) = arg else {
            continue;
        };
        let len = len_of(id);
        let fp = match &spec.access {
            // Custom closures are not evaluated here: the builder promises
            // conservative edges, not exact ones.
            Some(AccessPattern::Custom(_)) | None => DirtyRanges::full(len),
            Some(p) => p.footprint(&launch.ndrange, &plan.scalars, len, 0, total),
        };
        match spec.role {
            ArgRole::In => add(&mut reads, id, fp),
            ArgRole::Out => add(&mut writes, id, fp),
            ArgRole::InOut => {
                add(&mut reads, id, fp.clone());
                add(&mut writes, id, fp);
            }
            ArgRole::Scalar => unreachable!("scalars filtered above"),
        }
    }
    Ok(NodeAccess {
        kernel: launch.kernel.name().to_string(),
        reads,
        writes,
    })
}

/// Builds the dependence edges over nodes in enqueue order: for every pair
/// `i < j` sharing a buffer, emits one edge per overlapping (buffer, kind)
/// combination. Program order between conflicting nodes is preserved;
/// nodes with no edge path between them are free to run concurrently.
pub fn build_edges(nodes: &[NodeAccess]) -> Vec<GraphEdge> {
    let mut edges = Vec::new();
    let overlap = |a: &[(BufferId, DirtyRanges)], b: &[(BufferId, DirtyRanges)]| {
        let mut hits: Vec<(BufferId, u64)> = Vec::new();
        for (id, fa) in a {
            for (jd, fb) in b {
                if id == jd {
                    let both = fa.intersect(fb);
                    if !both.is_empty() {
                        hits.push((*id, both.byte_count()));
                    }
                }
            }
        }
        hits
    };
    for i in 0..nodes.len() {
        for j in i + 1..nodes.len() {
            for (buffer, bytes) in overlap(&nodes[i].writes, &nodes[j].reads) {
                edges.push(GraphEdge {
                    from: i,
                    to: j,
                    buffer,
                    kind: DepKind::True,
                    overlap_bytes: bytes,
                });
            }
            for (buffer, bytes) in overlap(&nodes[i].reads, &nodes[j].writes) {
                edges.push(GraphEdge {
                    from: i,
                    to: j,
                    buffer,
                    kind: DepKind::Anti,
                    overlap_bytes: bytes,
                });
            }
            for (buffer, bytes) in overlap(&nodes[i].writes, &nodes[j].writes) {
                edges.push(GraphEdge {
                    from: i,
                    to: j,
                    buffer,
                    kind: DepKind::Output,
                    overlap_bytes: bytes,
                });
            }
        }
    }
    edges
}

/// What one flushed graph node did: where it ran and when, plus the
/// footprints its edges were derived from. Exposed through
/// [`Fluidicl::graph_schedules`](crate::Fluidicl::graph_schedules) so
/// external checkers (`fluidicl-check`) can re-derive the conflict pairs
/// and verify every one is ordered by an edge.
#[derive(Clone, Debug)]
pub struct GraphNodeSummary {
    /// Node index in enqueue order.
    pub node: usize,
    /// Kernel name.
    pub kernel: String,
    /// Runtime kernel id assigned at flush.
    pub kernel_id: u64,
    /// Execution lane: 0 is the owner co-execution path (the healthy CPU
    /// and owner GPU, joined by every idle peer the plan has no further
    /// node for), lane `p >= 1` is peer GPU `p` running the node alone.
    /// A node whose planned lane had no healthy device left records where
    /// it ran instead.
    pub lane: usize,
    /// Peer lanes that joined a lane-0 node's co-execution, busy for its
    /// whole window as well; empty on a peer lane.
    pub joined: Vec<usize>,
    /// When the node's device work started.
    pub start_at: SimTime,
    /// When the node's results were complete.
    pub complete_at: SimTime,
    /// Per-buffer read footprints used to build edges.
    pub reads: Vec<(BufferId, DirtyRanges)>,
    /// Per-buffer write footprints used to build edges.
    pub writes: Vec<(BufferId, DirtyRanges)>,
}

/// One flushed kernel graph: the nodes with their placements/times and
/// the dependence edges that constrained them.
#[derive(Clone, Debug)]
pub struct GraphSchedule {
    /// Nodes in enqueue order.
    pub nodes: Vec<GraphNodeSummary>,
    /// Footprint-derived dependence edges.
    pub edges: Vec<GraphEdge>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use fluidicl_hetsim::KernelProfile;
    use fluidicl_vcl::{ArgSpec, KernelArg, KernelDef, NdRange};
    use std::sync::Arc;

    fn row_kernel(name: &str, out_access: Option<AccessPattern>) -> Arc<KernelDef> {
        let mut out_spec = ArgSpec::new("dst", ArgRole::Out);
        if let Some(a) = out_access {
            out_spec = out_spec.with_access(a);
        }
        Arc::new(KernelDef::new(
            name,
            vec![
                ArgSpec::new("src", ArgRole::In).with_access(AccessPattern::Row {
                    dim: 1,
                    width_scalar: 0,
                }),
                out_spec,
                ArgSpec::new("n", ArgRole::Scalar),
            ],
            KernelProfile::new(name),
            |item, scalars, ins, outs| {
                let n = scalars.usize(0);
                let at = item.global[1] * n + item.global[0];
                let v = ins.get(0)[at];
                outs.at(0)[at] = v + 1.0;
            },
        ))
    }

    fn launch_of(kernel: Arc<KernelDef>, n: usize, src: u64, dst: u64) -> Launch {
        Launch::new(
            kernel,
            NdRange::d2(n, n, n, 1).expect("ndrange"),
            vec![
                KernelArg::Buffer(BufferId(src)),
                KernelArg::Buffer(BufferId(dst)),
                KernelArg::Usize(n),
            ],
        )
    }

    #[test]
    fn independent_launches_get_no_edges() {
        let k = row_kernel(
            "inc",
            Some(AccessPattern::Row {
                dim: 1,
                width_scalar: 0,
            }),
        );
        let a = launch_of(k.clone(), 4, 0, 1);
        let b = launch_of(k, 4, 2, 3);
        let nodes = vec![
            node_access(&a, |_| 16).expect("access a"),
            node_access(&b, |_| 16).expect("access b"),
        ];
        assert!(build_edges(&nodes).is_empty(), "disjoint buffers: no edges");
    }

    #[test]
    fn chained_launches_get_true_edge_with_overlap_bytes() {
        let k = row_kernel(
            "inc",
            Some(AccessPattern::Row {
                dim: 1,
                width_scalar: 0,
            }),
        );
        // a writes buffer 1; b reads buffer 1 and writes buffer 2.
        let a = launch_of(k.clone(), 4, 0, 1);
        let b = launch_of(k, 4, 1, 2);
        let nodes = vec![
            node_access(&a, |_| 16).expect("access a"),
            node_access(&b, |_| 16).expect("access b"),
        ];
        let edges = build_edges(&nodes);
        assert_eq!(
            edges,
            vec![GraphEdge {
                from: 0,
                to: 1,
                buffer: BufferId(1),
                kind: DepKind::True,
                overlap_bytes: 16 * 4,
            }]
        );
    }

    #[test]
    fn anti_and_output_edges_are_detected() {
        let k = row_kernel(
            "inc",
            Some(AccessPattern::Row {
                dim: 1,
                width_scalar: 0,
            }),
        );
        // a reads 0 writes 1; b reads 2 writes 0 (anti on 0); c reads 2
        // writes 1 (output on 1 vs a).
        let a = launch_of(k.clone(), 4, 0, 1);
        let b = launch_of(k.clone(), 4, 2, 0);
        let c = launch_of(k, 4, 2, 1);
        let nodes: Vec<NodeAccess> = [&a, &b, &c]
            .iter()
            .map(|l| node_access(l, |_| 16).expect("access"))
            .collect();
        let edges = build_edges(&nodes);
        assert!(edges.iter().any(|e| e.from == 0
            && e.to == 1
            && e.buffer == BufferId(0)
            && e.kind == DepKind::Anti));
        assert!(edges.iter().any(|e| e.from == 0
            && e.to == 2
            && e.buffer == BufferId(1)
            && e.kind == DepKind::Output));
        // b and c only share reads of buffer 2: no edge between them.
        assert!(!edges.iter().any(|e| e.from == 1 && e.to == 2));
    }

    #[test]
    fn undeclared_output_falls_back_to_whole_buffer() {
        let k = row_kernel("inc", None);
        let a = launch_of(k.clone(), 4, 0, 1);
        let access = node_access(&a, |_| 16).expect("access");
        let (_, fp) = &access.writes[0];
        assert!(fp.is_full(16), "no declaration covers the whole buffer");
        // Two such launches writing disjoint *actual* rows still conflict
        // conservatively.
        let b = launch_of(k, 4, 2, 1);
        let nodes = vec![access, node_access(&b, |_| 16).expect("access b")];
        assert!(build_edges(&nodes)
            .iter()
            .any(|e| e.kind == DepKind::Output));
    }

    #[test]
    fn custom_pattern_falls_back_to_whole_buffer() {
        let k = row_kernel(
            "inc",
            Some(AccessPattern::custom(|_, _, _, _, _| {
                vec![(0usize, 1usize)]
            })),
        );
        let a = launch_of(k, 4, 0, 1);
        let access = node_access(&a, |_| 16).expect("access");
        let (_, fp) = &access.writes[0];
        assert!(
            fp.is_full(16),
            "custom closures are not evaluated by the builder"
        );
    }

    #[test]
    fn dep_kind_labels_are_stable() {
        assert_eq!(DepKind::True.label(), "true");
        assert_eq!(DepKind::Anti.label(), "anti");
        assert_eq!(DepKind::Output.label(), "output");
    }
}
