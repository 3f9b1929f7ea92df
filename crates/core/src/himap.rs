//! The HiMap orchestrator (Algorithm 1 top level).
//!
//! The candidate walk is staged: [`enumerate_candidates`] materializes every
//! `(sub-candidate, block, space-assignment)` tuple up front in
//! best-utilization-first order, then [`Walk`] evaluates them in that order
//! and stops at the first terminal verdict — the literal Algorithm-1 loop.
//! A deadline stops it between candidates, between phases and mid-route.
//!
//! Each layout's representatives are routed over an [`MrrgIndex`] of just
//! the PEs their negotiation can touch ([`negotiation_window`]), so the
//! router's congestion state and search scratch are sized by the minimal
//! DFG, not the fabric. The walk keeps one [`Router`] per initiation
//! interval and re-points it at each layout's window ([`Router::rebind`]);
//! the layout's feedback rounds reuse it through [`Router::reset`].

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use himap_cgra::{CgraSpec, MrrgIndex, Vsa};
use himap_dfg::{Dfg, NodeKind};
use himap_kernels::Kernel;
use himap_mapper::{CancelToken, Router, RouterConfig};
use himap_systolic::{search_counted, RankedMap, SearchConfig};

use crate::layout::Layout;
use crate::mapping::{Mapping, MappingStats};
use crate::options::{HiMapError, HiMapOptions, MapReport};
use crate::route::{negotiation_window, route_representatives_pooled, Replication};
use crate::stats::{timed, PipelineStats};
use crate::submap::{map_idfg_counted, SubMapping};
use crate::unique::classify;

/// The HiMap mapper.
///
/// See the crate docs for the pipeline; construct with options and call
/// [`HiMap::map`].
#[derive(Clone, Debug, Default)]
pub struct HiMap {
    options: HiMapOptions,
}

/// Distinct dependence distances probed on a small block:
/// `(mesh, memory-routed, anti)`.
type Deps = (Vec<himap_dfg::Iter4>, Vec<himap_dfg::Iter4>, Vec<himap_dfg::Iter4>);

/// One enumerated `(sub-candidate, block, space-assignment)` tuple. Its
/// position in the enumeration is its priority: lower index wins.
#[derive(Clone, Debug)]
struct Candidate {
    sub: SubMapping,
    vsa: Vsa,
    block: Vec<usize>,
}

/// The outcome of evaluating one candidate.
enum Verdict {
    /// Fully placed, routed, replicated and verified.
    Mapped(Box<Mapping>),
    /// Rejected before detailed routing (probe failed or no valid systolic
    /// mapping); the sequential walk would `continue`.
    Pruned,
    /// Reached detailed routing and failed there; sets the "furthest stage"
    /// error of an unsuccessful walk.
    RouteFailed,
    /// Full-block DFG construction failed; the sequential walk aborts with
    /// this error immediately, so it is terminal like `Mapped`.
    DfgError(String),
    /// Cut short by the deadline.
    Abandoned,
}

impl HiMap {
    /// Creates a mapper with the given options.
    pub fn new(options: HiMapOptions) -> Self {
        HiMap { options }
    }

    /// The options in use.
    pub fn options(&self) -> &HiMapOptions {
        &self.options
    }

    /// Maps `kernel` onto `cgra`, maximizing utilization.
    ///
    /// Walks the `MAP()` candidates best-utilization-first; for each, builds
    /// the VSA, chooses block sizes to fit it, searches systolic mappings,
    /// routes the unique iterations and replicates. The first fully verified
    /// combination wins — exactly the iterate-until-valid structure of
    /// Algorithm 1.
    ///
    /// # Errors
    ///
    /// Returns a [`HiMapError`] describing the furthest stage reached when
    /// every candidate fails.
    pub fn map(&self, kernel: &Kernel, cgra: &CgraSpec) -> Result<Mapping, HiMapError> {
        self.map_with_stats(kernel, cgra).0
    }

    /// [`HiMap::map`], additionally returning the [`PipelineStats`] of the
    /// run — for failed attempts too, which is the only way to observe
    /// where an unmappable kernel's candidates died.
    ///
    /// On success the same snapshot is also embedded in the mapping's
    /// [`MappingStats::pipeline`](crate::MappingStats).
    pub fn map_with_stats(
        &self,
        kernel: &Kernel,
        cgra: &CgraSpec,
    ) -> (Result<Mapping, HiMapError>, PipelineStats) {
        let wall = Instant::now();
        let mut stats = PipelineStats::default();
        let result = self.admit_and_walk(kernel, cgra, &mut stats, wall);
        stats.times.total = wall.elapsed();
        let result = result.map(|mut mapping| {
            mapping.set_pipeline_stats(stats.clone());
            mapping
        });
        (result, stats)
    }

    /// Admission control, then one walk under `options.deadline`.
    ///
    /// A failed walk returns its bare error, or
    /// [`HiMapError::DeadlineExceeded`] when the deadline cut it. Escalating
    /// to other options is the job of [`race`](crate::race) over
    /// [`HiMapBackend::ladder`](crate::HiMapBackend::ladder).
    fn admit_and_walk(
        &self,
        kernel: &Kernel,
        cgra: &CgraSpec,
        stats: &mut PipelineStats,
        started: Instant,
    ) -> Result<Mapping, HiMapError> {
        // The static analyzer's certified bounds are computed once, up
        // front. A statically infeasible request is rejected here — before a
        // single DFG or MRRG exists. A feasible one records its certified II
        // floor for the stats snapshot.
        let analysis =
            himap_analyze::analyze_kernel(kernel, cgra, &himap_analyze::AnalyzeOptions::default());
        stats.static_bounds = Some(analysis.bounds);
        if !analysis.is_feasible() {
            return Err(HiMapError::Infeasible(analysis.diagnostics.render_pretty()));
        }
        let deadline = self.options.deadline.map(|budget| started + budget);
        self.walk(kernel, cgra, stats, deadline).map_err(|err| {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                HiMapError::DeadlineExceeded(MapReport {
                    outcomes: Vec::new(),
                    elapsed: started.elapsed(),
                    static_bounds: stats.static_bounds.map(Box::new),
                })
            } else {
                err
            }
        })
    }

    /// Enumerates the candidate tuples and evaluates them in order, stopping
    /// at the first terminal verdict.
    ///
    /// `deadline` (from [`HiMapOptions::deadline`]) is enforced
    /// cooperatively: it arms the walk's [`CancelToken`], so MAP()'s probe
    /// routing, candidate evaluation and detailed routing all stop within a
    /// poll interval of the wall-clock bound.
    fn walk(
        &self,
        kernel: &Kernel,
        cgra: &CgraSpec,
        stats: &mut PipelineStats,
        deadline: Option<Instant>,
    ) -> Result<Mapping, HiMapError> {
        if kernel.dims() < 2 {
            let why = format!(
                "kernel `{}` is {}-dimensional; HiMap targets multi-dimensional kernels",
                kernel.name(),
                kernel.dims()
            );
            return Err(HiMapError::UnsupportedKernel(why));
        }
        let token = deadline.map(CancelToken::until);
        let token = token.as_ref();
        let (subs, sub_stats) =
            timed(&mut stats.times.map, || map_idfg_counted(kernel, cgra, &self.options, token));
        stats.sub_shapes_tried += sub_stats.shapes_tried;
        stats.sub_candidates += subs.len();
        stats.add_router(sub_stats.router);
        if subs.is_empty() {
            return Err(HiMapError::NoSubMapping);
        }
        let (candidates, deduped) = timed(&mut stats.times.enumerate, || {
            enumerate_candidates(kernel, cgra, &subs, &self.options)
        });
        stats.candidates_enumerated += candidates.len();
        stats.candidates_deduped += deduped;
        let mut walk = Walk::new(kernel, cgra, &self.options, stats);
        // With no terminal verdict, the walk's error is the furthest stage
        // any candidate reached.
        let mut route_failed = false;
        for candidate in &candidates {
            if token.is_some_and(CancelToken::is_cancelled) {
                break;
            }
            match walk.evaluate(candidate, token) {
                Verdict::Mapped(mapping) => return self.cross_check(*mapping),
                Verdict::DfgError(why) => return Err(HiMapError::Dfg(why)),
                Verdict::RouteFailed => route_failed = true,
                Verdict::Pruned => {}
                Verdict::Abandoned => walk.stats.candidates_abandoned += 1,
            }
        }
        Err(if route_failed { HiMapError::RoutingFailed } else { HiMapError::NoSystolicMapping })
    }

    /// Runs the installed external verifier (see [`crate::set_verify_hook`])
    /// over a winning mapping, in every build profile. A rejection aborts
    /// the walk with [`HiMapError::Verification`]: returning a mapping the
    /// independent checker calls illegal would defeat the point of having
    /// one.
    fn cross_check(&self, mapping: Mapping) -> Result<Mapping, HiMapError> {
        match crate::verify_hook() {
            // The hook is external code; a panic in it is its bug, not a
            // reason to tear down the caller — surface it as `Internal`.
            Some(hook) => match catch_unwind(AssertUnwindSafe(|| hook(&mapping))) {
                Ok(result) => result.map(|()| mapping).map_err(HiMapError::Verification),
                Err(payload) => Err(HiMapError::Internal(format!(
                    "verify hook panicked: {}",
                    panic_message(payload.as_ref())
                ))),
            },
            None => Ok(mapping),
        }
    }
}

/// Materializes every `(sub-candidate, block, space-assignment)` tuple in
/// the order Algorithm 1 visits them: sub-candidates best-utilization-first,
/// free extents and space assignments in option order. Returns the tuples
/// and how many duplicate blocks within one sub-candidate were dropped.
fn enumerate_candidates(
    kernel: &Kernel,
    cgra: &CgraSpec,
    subs: &[SubMapping],
    options: &HiMapOptions,
) -> (Vec<Candidate>, usize) {
    let mut out = Vec::new();
    let mut deduped = 0usize;
    for sub in subs.iter().take(options.max_sub_candidates) {
        let Ok(vsa) = Vsa::new(cgra.clone(), sub.s1, sub.s2) else {
            continue;
        };
        // Different (free extent, space assignment) pairs often produce the
        // same block; each distinct block is tried once.
        let mut tried_blocks: HashSet<Vec<usize>> = HashSet::new();
        for free_extent in options.free_extents.iter().copied() {
            for (p, q) in space_assignments(kernel.dims(), vsa.rows(), vsa.cols()) {
                let block = block_for_assignment(kernel.dims(), &vsa, free_extent, p, q);
                if !tried_blocks.insert(block.clone()) {
                    deduped += 1;
                    continue;
                }
                out.push(Candidate { sub: sub.clone(), vsa: vsa.clone(), block });
            }
        }
    }
    (out, deduped)
}

/// Best-effort text of a caught panic payload (`panic!` with a string
/// literal or a formatted message covers practically every real panic).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The evaluation state of one walk, reused from candidate to candidate:
/// the run's stats record, the dependence-probe cache and the routers.
struct Walk<'a> {
    kernel: &'a Kernel,
    cgra: &'a CgraSpec,
    options: &'a HiMapOptions,
    stats: &'a mut PipelineStats,
    /// Dependence distances are block-size independent; probe them once per
    /// probe-block shape to pre-filter space-dimension assignments without
    /// unrolling full blocks.
    probe_cache: HashMap<Vec<usize>, Deps>,
    /// One router per initiation interval, re-pointed at each layout's
    /// window index ([`Router::rebind`]), so its search scratch is
    /// allocated once per II rather than once per layout. Ordered by II,
    /// so the routers are freed in the same order in every process: that
    /// order decides where the next walk's zeroed scratch lands in the
    /// heap, and so the peak resident memory.
    routers: BTreeMap<usize, Router>,
}

/// Points the router of `layout`'s II at an index of the layout's
/// [`negotiation_window`] only, setting the router up on the II's first
/// layout: it searches exactly as a full-fabric router would while its
/// congestion vectors and search scratch cover a few PEs. Returns the
/// router and the time spent.
fn bind_router<'r>(
    routers: &'r mut BTreeMap<usize, Router>,
    dfg: &Dfg,
    layout: &Layout,
    classes: &crate::unique::Classes,
) -> (&'r mut Router, Duration) {
    let start = Instant::now();
    let window = negotiation_window(dfg, layout, classes);
    let index = Arc::new(MrrgIndex::window(layout.vsa().spec().clone(), layout.iib(), window));
    let router = match routers.entry(layout.iib()) {
        Entry::Occupied(e) => {
            let router = e.into_mut();
            router.rebind(index);
            router
        }
        Entry::Vacant(v) => v.insert(Router::with_index(index, RouterConfig::default())),
    };
    (router, start.elapsed())
}

impl<'a> Walk<'a> {
    fn new(
        kernel: &'a Kernel,
        cgra: &'a CgraSpec,
        options: &'a HiMapOptions,
        stats: &'a mut PipelineStats,
    ) -> Self {
        Walk { kernel, cgra, options, stats, probe_cache: HashMap::new(), routers: BTreeMap::new() }
    }

    /// Evaluates one candidate tuple end to end: probe-filtered systolic
    /// search, exact re-validation on the unrolled block, then detailed
    /// routing with replication-aware negotiation for each ranked systolic
    /// map.
    ///
    /// `cancel` (the deadline, when present) is polled between the expensive
    /// phases *and* armed on the layout's router during negotiation; once it
    /// reports cancelled the evaluation stops early with [`Verdict::Abandoned`] —
    /// mid-route via the Dijkstra loop's poll, mid-phase via the boundary
    /// checks.
    fn evaluate(&mut self, candidate: &Candidate, cancel: Option<&CancelToken>) -> Verdict {
        let (kernel, options) = (self.kernel, self.options);
        let stats = &mut *self.stats;
        let abandon = || cancel.is_some_and(CancelToken::is_cancelled);
        stats.candidates_tried += 1;
        let Candidate { sub, vsa, block } = candidate;
        // Probe the dependence structure on a small same-shape block.
        let probe_block: Vec<usize> = block.iter().map(|&b| b.min(4)).collect();
        let probe_deps = match self.probe_cache.get(&probe_block) {
            Some(deps) => {
                stats.probe_cache_hits += 1;
                deps.clone()
            }
            None => {
                stats.probe_cache_misses += 1;
                let probe = match timed(&mut stats.times.probe, || Dfg::build(kernel, &probe_block))
                {
                    Ok(p) => p,
                    Err(_) => {
                        stats.candidates_pruned += 1;
                        return Verdict::Pruned;
                    }
                };
                let deps = distances(&probe);
                self.probe_cache.insert(probe_block, deps.clone());
                deps
            }
        };
        if systolic_search(stats, kernel, vsa, block, probe_deps).is_empty() {
            return Verdict::Pruned;
        }
        if abandon() {
            return Verdict::Abandoned;
        }
        // Unroll the real block and re-validate the search against its exact
        // dependence distances (probe ranges are subsets).
        let dfg = match timed(&mut stats.times.dfg, || Dfg::build(kernel, block)) {
            Ok(d) => d,
            Err(e) => return Verdict::DfgError(e.to_string()),
        };
        let deps = timed(&mut stats.times.dfg, || distances(&dfg));
        let ranked = systolic_search(stats, kernel, vsa, block, deps);
        if ranked.is_empty() {
            return Verdict::Pruned;
        }
        for st in ranked.iter().take(options.max_systolic_candidates) {
            if abandon() {
                return Verdict::Abandoned;
            }
            stats.layouts_tried += 1;
            let layout =
                timed(&mut stats.times.layout, || Layout::new(&dfg, vsa.clone(), sub.clone(), st));
            let classes = timed(&mut stats.times.classify, || classify(&dfg, &layout));
            // Replication-aware negotiation: replica conflicts feed back into
            // representative routing as pre-seeded history costs.
            let mut seed_history: Vec<himap_cgra::RNode> = Vec::new();
            let mut routed = None;
            // Set up on the first design to replicate, then reused by every
            // feedback round of this layout, as is the router bound here.
            let mut replication = None;
            let (router, index_build) = bind_router(&mut self.routers, &dfg, &layout, &classes);
            stats.times.index += index_build;
            stats.memory = stats.memory.max(router.index().memory_stats());
            for _attempt in 0..options.replication_feedback_rounds {
                if abandon() {
                    return Verdict::Abandoned;
                }
                stats.route_attempts += 1;
                router.set_cancel_token(cancel.cloned());
                let (design, counters) = timed(&mut stats.times.route, || {
                    route_representatives_pooled(
                        &dfg,
                        &layout,
                        &classes,
                        options,
                        &seed_history,
                        router,
                        Duration::ZERO,
                    )
                });
                router.set_cancel_token(None);
                stats.add_router(counters.router);
                if abandon() {
                    // A cancelled negotiation surfaces as a route failure;
                    // don't let it masquerade as one in the walk's error.
                    return Verdict::Abandoned;
                }
                let design = match design {
                    Ok(design) => {
                        stats.pathfinder_rounds += design.rounds;
                        design
                    }
                    Err(_) => {
                        // A failed negotiation exhausts its full round budget.
                        stats.pathfinder_rounds += options.pathfinder_rounds;
                        break;
                    }
                };
                stats.replication_rounds += 1;
                let replicated = timed(&mut stats.times.replicate, || {
                    replication
                        .get_or_insert_with(|| Replication::new(&dfg, &layout, &classes))
                        .run(&design)
                });
                stats.replica_claims += replication.as_mut().map_or(0, Replication::take_claims);
                match replicated {
                    Ok(routes) => {
                        routed = Some(routes);
                        break;
                    }
                    Err(crate::route::RouteError::ReplicaConflicts { count, rep_frame }) => {
                        stats.replica_conflicts += count;
                        seed_history.extend(rep_frame);
                        continue;
                    }
                    Err(_) => break,
                }
            }
            let Some(routes) = routed else {
                continue;
            };
            // Success: materialize the mapping artifact.
            let mut mapping = timed(&mut stats.times.layout, || {
                let mut op_slots = HashMap::new();
                for (node, w) in dfg.graph().nodes() {
                    if let NodeKind::Op { stmt, op, .. } = w.kind {
                        op_slots.insert(node, layout.op_slot(&dfg, w.iter, stmt, op));
                    }
                }
                let mapping_stats = MappingStats {
                    sub_shape: (sub.s1, sub.s2, sub.t),
                    unique_iterations: classes.count(),
                    iterations_per_spe: layout.iterations_per_spe(),
                    iib: layout.iib(),
                    max_config_slots: 0, // filled from the config image below
                    block: block.clone(),
                    pipeline: PipelineStats::default(), // record attached by the caller
                };
                Mapping::new(self.cgra.clone(), dfg, op_slots, routes, mapping_stats)
            });
            let image = timed(&mut stats.times.config, || {
                crate::config::ConfigImage::from_mapping(&mapping)
            });
            mapping.set_max_config_slots(image.max_unique_instrs());
            return Verdict::Mapped(Box::new(mapping));
        }
        Verdict::RouteFailed
    }
}

/// The distinct dependence distances of `dfg`.
fn distances(dfg: &Dfg) -> Deps {
    (dfg.isdg().distances().to_vec(), dfg.mem_dep_distances(), dfg.anti_dep_distances())
}

/// The systolic search of one candidate against dependence distances
/// `deps`, timed and counted into `stats`. An empty ranking prunes the
/// candidate, and is counted as such.
fn systolic_search(
    stats: &mut PipelineStats,
    kernel: &Kernel,
    vsa: &Vsa,
    block: &[usize],
    (mesh_deps, mem_deps, anti_deps): Deps,
) -> Vec<RankedMap> {
    let (ranked, search_stats) = timed(&mut stats.times.search, || {
        search_counted(&SearchConfig {
            dims: kernel.dims(),
            block: block.to_vec(),
            vsa_rows: vsa.rows(),
            vsa_cols: vsa.cols(),
            mesh_deps,
            mem_deps,
            anti_deps,
        })
    });
    stats.systolic_searches += 1;
    stats.systolic_matrices_tried += search_stats.matrices_tried;
    stats.systolic_maps_found += search_stats.valid;
    if ranked.is_empty() {
        stats.candidates_pruned += 1;
    }
    ranked
}

/// Candidate assignments of loop dims to the VSA's space axes: `p` feeds the
/// VSA rows, `q` the columns (`None` when that axis has extent 1). Which
/// dims *can* be space depends on the kernel's dependence structure —
/// Floyd–Warshall's pivot step must advance time, so its `k` cannot be a
/// space dim — and is settled by the systolic search; this just enumerates
/// the options deterministically.
fn space_assignments(dims: usize, rows: usize, cols: usize) -> Vec<(Option<usize>, Option<usize>)> {
    let mut out = Vec::new();
    let ps: Vec<Option<usize>> = if rows > 1 { (0..dims).map(Some).collect() } else { vec![None] };
    for &p in &ps {
        let qs: Vec<Option<usize>> = if cols > 1 {
            (0..dims).filter(|&d| Some(d) != p).map(Some).collect()
        } else {
            vec![None]
        };
        for q in qs {
            out.push((p, q));
        }
    }
    out
}

/// The block for a space assignment: space dims get the VSA extents
/// (Algorithm 1 line 6: `b1 = c/s1, b2 = c/s2`), all other dims the free
/// extent (the paper's user-supplied `b3, …, bl`).
fn block_for_assignment(
    dims: usize,
    vsa: &Vsa,
    free_extent: usize,
    p: Option<usize>,
    q: Option<usize>,
) -> Vec<usize> {
    (0..dims)
        .map(|dim| {
            if Some(dim) == p {
                vsa.rows()
            } else if Some(dim) == q {
                vsa.cols()
            } else {
                free_extent
            }
        })
        .collect()
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{reference, RouteError};
    use himap_kernels::suite;

    fn map(kernel: &Kernel, c: usize) -> Result<Mapping, HiMapError> {
        HiMap::new(HiMapOptions::default()).map(kernel, &CgraSpec::square(c))
    }

    #[test]
    fn gemm_reaches_full_utilization() {
        // Fig. 7: GEMM hits the performance envelope.
        let m = map(&suite::gemm(), 4).expect("gemm maps");
        assert!((m.utilization() - 1.0).abs() < 1e-9, "U = {}", m.utilization());
        assert_eq!(m.stats().sub_shape, (1, 1, 2));
    }

    #[test]
    fn bicg_utilization_matches_paper() {
        // §VI: BiCG settles at 66 % with sub-CGRA (2,1,3) — the 100 %
        // candidates fail routing.
        let m = map(&suite::bicg(), 4).expect("bicg maps");
        let u = m.utilization();
        assert!(u >= 4.0 / 6.0 - 1e-9, "U = {u}");
        assert!(u <= 1.0 + 1e-9);
    }

    #[test]
    fn all_kernels_map_on_4x4() {
        for kernel in suite::all() {
            let m = map(&kernel, 4);
            assert!(m.is_ok(), "{} failed: {:?}", kernel.name(), m.err());
        }
    }

    #[test]
    fn one_dimensional_kernel_rejected() {
        let mut b = himap_kernels::KernelBuilder::new("rec", 1);
        let a = b.array("a", 1);
        b.stmt(
            himap_kernels::ArrayRef::new(a, vec![himap_kernels::AffineExpr::var(0, 1)]),
            himap_kernels::Expr::binary(
                himap_kernels::OpKind::Add,
                himap_kernels::Expr::Read(himap_kernels::ArrayRef::new(
                    a,
                    vec![himap_kernels::AffineExpr::new(vec![1], -1)],
                )),
                himap_kernels::Expr::Const(1),
            ),
        );
        let kernel = b.build().unwrap();
        assert!(matches!(map(&kernel, 4), Err(HiMapError::UnsupportedKernel(_))));
    }

    #[test]
    fn unique_iterations_bounded_by_table2() {
        let bounds = [
            ("adi", 3usize),
            ("atax", 9),
            ("bicg", 9),
            ("mvt", 9),
            ("gemm", 27),
            ("syrk", 27),
            ("floyd-warshall", 34),
            ("ttm", 45),
        ];
        for (name, bound) in bounds {
            let kernel = suite::by_name(name).unwrap();
            let m = map(&kernel, 4).unwrap_or_else(|e| panic!("{name} failed: {e}"));
            assert!(
                m.stats().unique_iterations <= bound,
                "{name}: {} unique iterations > Table II bound {bound}",
                m.stats().unique_iterations
            );
        }
    }

    #[test]
    fn every_op_has_a_slot_and_every_edge_a_route() {
        let m = map(&suite::atax(), 4).expect("atax maps");
        for (node, w) in m.dfg().graph().nodes() {
            if matches!(w.kind, NodeKind::Op { .. }) {
                assert!(m.op_slot(node).is_some(), "unplaced op {node:?}");
            }
        }
        assert_eq!(m.routes().len(), m.dfg().graph().edge_count());
    }

    #[test]
    fn routes_have_consistent_absolute_times() {
        let m = map(&suite::gemm(), 2).expect("gemm maps on 2x2");
        for route in m.routes() {
            let (_, dst) = m.dfg().graph().edge_endpoints(route.edge);
            let dst_slot = m.op_slot(dst).expect("consumer placed");
            let last = route.steps.last().expect("non-empty route");
            assert_eq!(last.1, dst_slot.abs, "route must end at the consumer's cycle");
            for w in route.steps.windows(2) {
                let dt = w[1].1 - w[0].1;
                assert!((0..=1).contains(&dt), "steps advance 0 or 1 cycles");
            }
        }
    }

    #[test]
    fn pipeline_stats_populated_on_success() {
        let m = map(&suite::gemm(), 4).expect("gemm maps");
        let p = m.pipeline_stats();
        assert!(p.candidates_enumerated > 0, "no candidates counted: {p:?}");
        assert!(p.candidates_tried > 0);
        assert!(p.systolic_searches > 0);
        assert!(p.route_attempts > 0);
        assert!(p.replication_rounds > 0);
        assert!(p.times.total > std::time::Duration::ZERO);
        assert_eq!(p.candidates_abandoned, 0, "no deadline, nothing abandoned");
        // The embedded snapshot is the same one map_with_stats returns.
        let (again, stats) = HiMap::new(HiMapOptions::default())
            .map_with_stats(&suite::gemm(), &CgraSpec::square(4));
        let again = again.expect("gemm maps");
        assert_eq!(again.pipeline_stats(), &stats);
    }

    #[test]
    fn pipeline_stats_populated_on_failure() {
        // GEMM cannot fit a 1x1 CGRA: the walk fails, but the stats must
        // still describe what was tried.
        let himap = HiMap::new(HiMapOptions::default());
        let (result, stats) = himap.map_with_stats(&suite::gemm(), &CgraSpec::square(1));
        assert!(result.is_err());
        assert!(stats.times.total > std::time::Duration::ZERO);
        assert!(stats.sub_shapes_tried > 0, "MAP() attempts uncounted: {stats:?}");
    }

    #[test]
    fn cancelled_candidate_reports_abandoned_before_routing() {
        // Evaluate one real candidate with a pre-cancelled token (as if the
        // deadline had passed): the phase-boundary poll must stop the
        // evaluation with `Abandoned` before detailed routing spends any
        // effort.
        let kernel = suite::gemm();
        let cgra = CgraSpec::square(4);
        let options = HiMapOptions::default();
        let (subs, _) = map_idfg_counted(&kernel, &cgra, &options, None);
        let (candidates, _) = enumerate_candidates(&kernel, &cgra, &subs, &options);
        assert!(!candidates.is_empty());
        let mut stats = PipelineStats::default();
        let mut walk = Walk::new(&kernel, &cgra, &options, &mut stats);
        let token = CancelToken::until(Instant::now());
        let verdict = walk.evaluate(&candidates[0], Some(&token));
        assert!(matches!(verdict, Verdict::Abandoned), "cancelled evaluation must abandon");
        assert_eq!(stats.route_attempts, 0, "abandoned before routing: {stats:?}");
    }

    #[test]
    fn cancelled_route_aborts_early_and_counts() {
        // Drive the pooled routing entry point directly with an armed,
        // already-cancelled token: every Dijkstra search must abort through
        // the cancel poll (counted in `RouterStats::cancelled`) instead of
        // running the negotiation to completion.
        let kernel = suite::gemm();
        let cgra = CgraSpec::square(4);
        let options = HiMapOptions::default();
        let (subs, _) = map_idfg_counted(&kernel, &cgra, &options, None);
        let (candidates, _) = enumerate_candidates(&kernel, &cgra, &subs, &options);
        for candidate in &candidates {
            let Candidate { sub, vsa, block } = candidate;
            let Ok(dfg) = Dfg::build(&kernel, block) else { continue };
            let isdg = dfg.isdg();
            let (ranked, _) = search_counted(&SearchConfig {
                dims: kernel.dims(),
                block: block.clone(),
                vsa_rows: vsa.rows(),
                vsa_cols: vsa.cols(),
                mesh_deps: isdg.distances().to_vec(),
                mem_deps: dfg.mem_dep_distances(),
                anti_deps: dfg.anti_dep_distances(),
            });
            let Some(st) = ranked.first() else { continue };
            let layout = Layout::new(&dfg, vsa.clone(), sub.clone(), st);
            let classes = classify(&dfg, &layout);
            let mut routers = BTreeMap::new();
            let (router, _) = bind_router(&mut routers, &dfg, &layout, &classes);
            // Baseline: the live negotiation performs real search work.
            let (_, live) = route_representatives_pooled(
                &dfg,
                &layout,
                &classes,
                &options,
                &[],
                router,
                Duration::ZERO,
            );
            assert!(live.router.searches > 0);
            assert_eq!(live.router.cancelled, 0);
            // Cancelled: the same negotiation collapses.
            router.set_cancel_token(Some(CancelToken::until(Instant::now())));
            let (result, cut) = route_representatives_pooled(
                &dfg,
                &layout,
                &classes,
                &options,
                &[],
                router,
                Duration::ZERO,
            );
            assert!(result.is_err(), "cancelled negotiation cannot produce a design");
            assert!(cut.router.cancelled > 0, "cancel poll never fired");
            assert!(
                cut.router.nodes_popped < live.router.nodes_popped,
                "cancelled route did full search work: {} vs {} pops",
                cut.router.nodes_popped,
                live.router.nodes_popped
            );
            return;
        }
        panic!("no routable gemm candidate found");
    }

    /// Asserts that two negotiations of the same inputs agree: the same
    /// patterns and rounds, or the same error, after the same search work.
    fn assert_same_negotiation(
        window: &(Result<crate::route::RoutedDesign, RouteError>, crate::route::RouteCounters),
        full: &(Result<crate::route::RoutedDesign, RouteError>, crate::route::RouteCounters),
        what: &str,
    ) {
        match (&window.0, &full.0) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.patterns, b.patterns, "{what}: patterns differ");
                assert_eq!(a.rounds, b.rounds, "{what}: rounds differ");
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{what}: errors differ"),
            (a, b) => panic!("{what}: window router {a:?} but full router {b:?}"),
        }
        let (mut a, mut b) = (window.1.router, full.1.router);
        // Scratch allocations follow each router's own history.
        (a.epoch_resets, b.epoch_resets) = (0, 0);
        assert_eq!(a, b, "{what}: search counters differ");
    }

    /// Outcomes of the replication rounds one differential walk compared.
    #[derive(Debug, Default)]
    struct Compared {
        /// Rounds whose replicated routing passed.
        passed: usize,
        /// Rounds that ended in replica conflicts.
        conflicted: usize,
        /// Rounds that ended in any other error.
        failed: usize,
    }

    /// Asserts that two replication results are identical: the same routes
    /// step for step, or the same error.
    fn assert_same_replication(
        keyed: &Result<Vec<crate::route::FullRoute>, RouteError>,
        full: &Result<Vec<crate::route::FullRoute>, RouteError>,
        what: &str,
    ) {
        match (keyed, full) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.len(), b.len(), "{what}: route counts differ");
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.edge, y.edge, "{what}: route order differs");
                    assert_eq!(x.steps, y.steps, "{what}: route of {:?} differs", x.edge);
                }
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{what}: errors differ"),
            _ => panic!(
                "{what}: keyed {} but full re-stamp {}",
                keyed.as_ref().map_or_else(|e| e.to_string(), |_| "passes".to_string()),
                full.as_ref().map_or_else(|e| e.to_string(), |_| "passes".to_string())
            ),
        }
    }

    /// Runs the walk's route/replicate feedback loop over the candidates
    /// and top-ranked layouts the walk evaluates, up to the first that maps.
    /// In every round the walk's window router and a router over the
    /// every-PE index negotiate the same inputs and must agree, and, with
    /// `restamp`, the keyed stamp pass (one `Replication` per layout, as the
    /// walk sets it up) must agree with the full re-stamp reference. Every
    /// layout's keys are checked against the descriptors too.
    fn compare_walk(
        kernel: &Kernel,
        cgra: &CgraSpec,
        options: &HiMapOptions,
        restamp: bool,
    ) -> Compared {
        let mut stats = PipelineStats::default();
        let subs = crate::submap::map_idfg(kernel, cgra, options);
        let (candidates, _) = enumerate_candidates(kernel, cgra, &subs, options);
        let (mut routers, mut full_routers) = (BTreeMap::new(), BTreeMap::new());
        let mut compared = Compared::default();
        for Candidate { sub, vsa, block } in &candidates {
            let Ok(dfg) = Dfg::build(kernel, block) else { continue };
            let ranked = systolic_search(&mut stats, kernel, vsa, block, distances(&dfg));
            for st in ranked.iter().take(options.max_systolic_candidates) {
                let layout = Layout::new(&dfg, vsa.clone(), sub.clone(), st);
                let classes = classify(&dfg, &layout);
                crate::unique::assert_keys_follow_descriptors(&dfg, &layout, &classes);
                let mut replication = Replication::new(&dfg, &layout, &classes);
                let (router, _) = bind_router(&mut routers, &dfg, &layout, &classes);
                let full_router = full_routers.entry(layout.iib()).or_insert_with(|| {
                    let index = MrrgIndex::shared(cgra.clone(), layout.iib());
                    Router::with_index(index, RouterConfig::default())
                });
                let mut seed = Vec::new();
                for round in 0..options.replication_feedback_rounds {
                    let what =
                        format!("{} on {cgra:?}, block {block:?}, round {round}", kernel.name());
                    let negotiate = |router: &mut Router| {
                        route_representatives_pooled(
                            &dfg,
                            &layout,
                            &classes,
                            options,
                            &seed,
                            router,
                            Duration::ZERO,
                        )
                    };
                    let windowed = negotiate(router);
                    assert_same_negotiation(&windowed, &negotiate(full_router), &what);
                    let Ok(design) = windowed.0 else { break };
                    let keyed = replication.run(&design);
                    if restamp {
                        let full =
                            reference::replicate_and_verify(&dfg, &layout, &classes, &design);
                        assert_same_replication(&keyed, &full, &what);
                    }
                    match keyed {
                        Ok(_) => {
                            compared.passed += 1;
                            return compared;
                        }
                        Err(RouteError::ReplicaConflicts { rep_frame, .. }) => {
                            compared.conflicted += 1;
                            seed.extend(rep_frame);
                        }
                        Err(_) => {
                            compared.failed += 1;
                            break;
                        }
                    }
                }
            }
        }
        compared
    }

    /// [`compare_walk`] under the default options, with the re-stamp.
    fn compare_replication(kernel: &Kernel, cgra: &CgraSpec) -> Compared {
        compare_walk(kernel, cgra, &HiMapOptions::default(), true)
    }

    #[test]
    fn keyed_replication_matches_the_full_restamp_on_the_suite() {
        for size in [4, 8, 16] {
            for kernel in suite::all() {
                let compared = compare_replication(&kernel, &CgraSpec::square(size));
                assert_eq!(compared.passed, 1, "{} on {size}x{size}: {compared:?}", kernel.name());
            }
        }
    }

    #[test]
    fn keyed_replication_matches_the_full_restamp_on_faulted_fabrics() {
        use himap_cgra::{CapabilityMap, Dir, PeId};
        // The VSA is cropped around dead PEs, so no route crosses one; the
        // severed links, disabled register and disabled bank inside the
        // crop are what replicated steps land on. The corner-multiplier
        // fabric drives the `supports_op` path instead.
        let mut faults = CapabilityMap::new();
        for (x, y) in [(1, 6), (4, 2), (6, 5)] {
            faults.kill_pe(PeId::new(x, y));
        }
        faults
            .sever_link(PeId::new(3, 3), Dir::East)
            .sever_link(PeId::new(5, 6), Dir::North)
            .disable_reg(PeId::new(2, 3), 0)
            .disable_mem(PeId::new(4, 4));
        let fabrics = [
            CgraSpec::square(8).with_faults(faults),
            CgraSpec::square(8).with_faults(CapabilityMap::corner_multipliers(8, 8)),
        ];
        for cgra in &fabrics {
            let mut conflicted = 0;
            for kernel in suite::all() {
                conflicted += compare_replication(&kernel, cgra).conflicted;
            }
            assert!(conflicted > 0, "no conflict round on {cgra:?}");
        }
    }

    #[test]
    fn keyed_replication_matches_the_full_restamp_at_fig8_scale() {
        use himap_cgra::{CapabilityMap, PeId};
        // Fig. 8 blocks (the free extent matched to the array), where most
        // cells share a neighbourhood group with many others: a grouping
        // that stood a cell for the wrong ones would miscount here.
        let kernels = [suite::gemm(), suite::floyd_warshall(), suite::bicg()];
        for c in [16, 24] {
            let options = HiMapOptions { free_extents: vec![c], ..HiMapOptions::default() };
            for kernel in &kernels {
                let compared = compare_walk(kernel, &CgraSpec::square(c), &options, true);
                assert_eq!(compared.passed, 1, "{} on {c}x{c}: {compared:?}", kernel.name());
            }
        }
        // The benchmark's degraded 16x16 fabrics: three dead PEs each, drawn
        // from SplitMix64 seed 1, so faulted cells form groups of their own.
        let options = HiMapOptions { free_extents: vec![16], ..HiMapOptions::default() };
        let fabrics = [
            (suite::floyd_warshall(), [(12, 1), (6, 7), (5, 14)]),
            (suite::gemm(), [(0, 11), (11, 9), (8, 0)]),
            (suite::bicg(), [(10, 5), (7, 5), (10, 8)]),
        ];
        for (kernel, dead) in &fabrics {
            let mut faults = CapabilityMap::new();
            for &(x, y) in dead {
                faults.kill_pe(PeId::new(x, y));
            }
            let cgra = CgraSpec::square(16).with_faults(faults);
            let compared = compare_walk(kernel, &cgra, &options, true);
            assert_eq!(compared.passed, 1, "{} on {cgra:?}: {compared:?}", kernel.name());
            assert!(compared.conflicted > 0, "{}: no conflict round compared", kernel.name());
        }
    }

    #[test]
    fn window_router_negotiates_like_a_full_fabric_router_at_fig8_scale() {
        // The suite, the smaller Fig. 8 blocks and the faulted fabrics are
        // compared alongside the re-stamp above; b = 32 compares the
        // negotiation alone.
        let options = HiMapOptions { free_extents: vec![32], ..HiMapOptions::default() };
        for kernel in [suite::gemm(), suite::floyd_warshall(), suite::bicg()] {
            let compared = compare_walk(&kernel, &CgraSpec::square(32), &options, false);
            assert_eq!(compared.passed, 1, "{} on 32x32: {compared:?}", kernel.name());
        }
    }
}
