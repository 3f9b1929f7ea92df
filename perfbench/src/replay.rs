//! The traced replay: re-runs the candidate `HiMap::map` returned for each
//! item by calling each layer's public function in turn, with a span
//! around every call. A span records CPU time and how far the process's
//! peak resident memory (`VmHWM`) rose during the call, so per-layer time
//! and memory come from outside the program, with no tracing inside it.
//!
//! The replay follows the walk's evaluation of one candidate: `MAP()`,
//! probe DFG and systolic search, full-block DFG and exact search, then per
//! ranked space-time map the layout, the unique-iteration classes and the
//! route/replicate feedback loop, and finally the configuration image. It
//! must rebuild exactly the mapping the walk returned; any difference is an
//! error.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

use himap_analyze::{analyze_kernel, AnalyzeOptions};
use himap_cgra::{CgraSpec, MemoryStats, MrrgIndex, Vsa};
use himap_core::route::{replicate_and_verify, route_representatives_pooled, RouteError};
use himap_core::unique::classify;
use himap_core::{
    map_idfg, ConfigImage, Layout, Mapping, MappingParts, MappingStats, PipelineStats,
};
use himap_dfg::{Dfg, NodeKind};
use himap_mapper::{Router, RouterConfig, RouterStats};
use himap_sim::simulate;
use himap_systolic::{search_counted, RankedMap, SearchConfig};
use himap_verify::verify_mapping;

use crate::json::{self, Obj};
use crate::workload::{self, Item};
use crate::{cpu_s, fingerprint, hwm_kb, peak_rss_mb};

/// Spans that check an output rather than compile it.
const CHECK_SPANS: [&str; 2] = ["verify", "sim"];

/// The winner of one item as `root` printed it.
struct Winner {
    shape: (usize, usize, usize),
    block: Vec<usize>,
    fingerprint: u64,
}

impl Winner {
    /// Parses `s1,s2,t:b1xb2x..:fingerprint`; `-` (the item failed to map)
    /// is `None`.
    fn parse(label: &str) -> Result<Option<Winner>, String> {
        if label == "-" {
            return Ok(None);
        }
        let bad = || format!("malformed winner `{label}`");
        let mut parts = label.split(':');
        let (Some(shape), Some(block), Some(fp), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(bad());
        };
        let shape: Vec<usize> =
            shape.split(',').map(str::parse).collect::<Result<_, _>>().map_err(|_| bad())?;
        let [s1, s2, t] = shape[..] else {
            return Err(bad());
        };
        Ok(Some(Winner {
            shape: (s1, s2, t),
            block: block.split('x').map(str::parse).collect::<Result<_, _>>().map_err(|_| bad())?,
            fingerprint: u64::from_str_radix(fp, 16).map_err(|_| bad())?,
        }))
    }
}

#[derive(Default)]
struct Span {
    secs: f64,
    hwm_kb: u64,
}

/// Spans by layer name, summed over every call and item.
#[derive(Default)]
struct Trace {
    spans: BTreeMap<&'static str, Span>,
}

impl Trace {
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let before = hwm_kb();
        let start = cpu_s();
        let out = f();
        let secs = cpu_s() - start;
        let after = hwm_kb();
        let span = self.spans.entry(name).or_default();
        span.secs += secs;
        span.hwm_kb += after.saturating_sub(before);
        out
    }

    fn secs(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |s| s.secs)
    }

    fn hwm_mb(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |s| s.hwm_kb as f64 / 1024.0)
    }

    /// Total time of the compile-layer spans.
    fn compile_secs(&self) -> f64 {
        self.spans.iter().filter(|(name, _)| !CHECK_SPANS.contains(name)).map(|(_, s)| s.secs).sum()
    }
}

/// Work counts at the same boundaries as the spans, summed over items
/// (structure sizes keep their largest value).
#[derive(Default)]
struct Counts {
    sub_candidates: usize,
    dfg_nodes: usize,
    dfg_edges: usize,
    matrices_tried: usize,
    valid_maps: usize,
    classes: usize,
    index: MemoryStats,
    router: RouterStats,
    route_attempts: usize,
    pathfinder_rounds: usize,
    replication_rounds: usize,
    conflict_rounds: usize,
    replication_ok: usize,
    routes: usize,
    route_steps: usize,
    diagnostics: usize,
    ops_executed: usize,
    elements_checked: usize,
}

/// Replays every item whose winner is given and prints the per-layer
/// record. Fails when a replay does not rebuild the returned mapping or
/// when a rebuilt mapping does not verify or simulate.
pub fn run(workload: &str, seed: u64, winners: &[String]) -> Result<String, String> {
    let items = workload::items(workload)?;
    if winners.len() != items.len() {
        return Err(format!("{} winners for {} items", winners.len(), items.len()));
    }
    let mut trace = Trace::default();
    let mut counts = Counts::default();
    let mut per_item = Vec::new();
    for (item, label) in items.iter().zip(winners) {
        let Some(winner) = Winner::parse(label)? else {
            continue;
        };
        let name = item.kernel.name();
        let before = (counts.route_attempts, counts.replication_rounds);
        let mapping = replay_item(item, &winner, &mut trace, &mut counts)
            .map_err(|why| format!("{name}: replay: {why}"))?;
        if fingerprint(&mapping) != winner.fingerprint {
            return Err(format!(
                "{name}: the replay rebuilt a different mapping than HiMap::map returned"
            ));
        }
        let report = trace.span("verify", || verify_mapping(&mapping));
        counts.diagnostics += report.len();
        if report.has_errors() {
            return Err(format!("{name}: verify: {}", report.render_pretty()));
        }
        let sim = trace
            .span("sim", || simulate(&mapping, seed))
            .map_err(|err| format!("{name}: simulate: {err}"))?;
        counts.ops_executed += sim.ops_executed;
        counts.elements_checked += sim.elements_checked;
        per_item.push(
            Obj::default()
                .str("kernel", name)
                .num("route_attempts", (counts.route_attempts - before.0) as f64)
                .num("replication_rounds", (counts.replication_rounds - before.1) as f64)
                .finish(),
        );
    }
    Ok(Obj::default()
        .num("winner_spans_s", trace.compile_secs())
        .raw("items", json::array(per_item))
        .raw("metrics", metrics(&trace, &counts))
        .finish())
}

/// Re-runs one winning candidate and returns the mapping it rebuilds.
fn replay_item(
    item: &Item,
    winner: &Winner,
    trace: &mut Trace,
    c: &mut Counts,
) -> Result<Mapping, String> {
    let Item { kernel, spec, options } = item;
    trace.span("analyze", || analyze_kernel(kernel, spec, &AnalyzeOptions::default()));
    let subs = trace.span("core.submap", || map_idfg(kernel, spec, options));
    c.sub_candidates += subs.len();
    let sub = subs
        .into_iter()
        .find(|s| (s.s1, s.s2, s.t) == winner.shape)
        .ok_or("MAP() produced no sub-mapping of the winner's shape")?;
    let vsa = trace
        .span("core.layout", || Vsa::new(spec.clone(), sub.s1, sub.s2))
        .map_err(|e| e.to_string())?;
    let block = &winner.block;
    let probe_block: Vec<usize> = block.iter().map(|&b| b.min(4)).collect();
    let probe =
        trace.span("dfg.build", || Dfg::build(kernel, &probe_block)).map_err(|e| e.to_string())?;
    if search(trace, c, kernel.dims(), block, &vsa, &probe).is_empty() {
        return Err("no systolic map on the probe distances".to_string());
    }
    let dfg = trace.span("dfg.build", || Dfg::build(kernel, block)).map_err(|e| e.to_string())?;
    c.dfg_nodes = c.dfg_nodes.max(dfg.graph().node_count());
    c.dfg_edges = c.dfg_edges.max(dfg.graph().edge_count());
    let ranked = search(trace, c, kernel.dims(), block, &vsa, &dfg);
    let mut routers: HashMap<usize, Router> = HashMap::new();
    for st in ranked.iter().take(options.max_systolic_candidates) {
        let layout = trace.span("core.layout", || Layout::new(&dfg, vsa.clone(), sub.clone(), st));
        let classes = trace.span("core.unique", || classify(&dfg, &layout));
        c.classes += classes.count();
        let mut seed_history = Vec::new();
        let mut routed = None;
        for _ in 0..options.replication_feedback_rounds {
            c.route_attempts += 1;
            let router = match routers.entry(layout.iib()) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(v) => v.insert(router(trace, c, spec, layout.iib())),
            };
            let (design, counters) = trace.span("core.route", || {
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
            c.router.merge(&counters.router);
            let Ok(design) = design else {
                c.pathfinder_rounds += options.pathfinder_rounds;
                break;
            };
            c.pathfinder_rounds += design.rounds;
            c.replication_rounds += 1;
            match trace
                .span("core.replicate", || replicate_and_verify(&dfg, &layout, &classes, &design))
            {
                Ok(routes) => {
                    c.replication_ok += 1;
                    routed = Some(routes);
                    break;
                }
                Err(RouteError::ReplicaConflicts { rep_frame, .. }) => {
                    c.conflict_rounds += 1;
                    seed_history.extend(rep_frame);
                }
                Err(_) => break,
            }
        }
        let Some(routes) = routed else {
            continue;
        };
        c.routes += routes.len();
        c.route_steps += routes.iter().map(|r| r.steps.len()).sum::<usize>();
        let op_slots = trace.span("core.layout", || {
            let mut op_slots = HashMap::new();
            for (node, w) in dfg.graph().nodes() {
                if let NodeKind::Op { stmt, op, .. } = w.kind {
                    op_slots.insert(node, layout.op_slot(&dfg, w.iter, stmt, op));
                }
            }
            op_slots
        });
        let stats = MappingStats {
            sub_shape: (sub.s1, sub.s2, sub.t),
            unique_iterations: classes.count(),
            iterations_per_spe: layout.iterations_per_spe(),
            iib: layout.iib(),
            max_config_slots: 0,
            block: block.clone(),
            pipeline: PipelineStats::default(),
        };
        let mapping =
            Mapping::from_parts(MappingParts { spec: spec.clone(), dfg, op_slots, routes, stats });
        let image = trace.span("core.config", || ConfigImage::from_mapping(&mapping));
        let mut parts = mapping.into_parts();
        parts.stats.max_config_slots = image.max_unique_instrs();
        // The walk drops its routers (and their search scratch) before it
        // returns, so their teardown is part of the compile.
        trace.span("mapper.router.teardown", || drop(routers));
        return Ok(Mapping::from_parts(parts));
    }
    Err("no ranked space-time map routed and replicated".to_string())
}

/// One systolic search over the dependence distances of `dfg`.
fn search(
    trace: &mut Trace,
    c: &mut Counts,
    dims: usize,
    block: &[usize],
    vsa: &Vsa,
    dfg: &Dfg,
) -> Vec<RankedMap> {
    let (ranked, stats) = trace.span("systolic.search", || {
        search_counted(&SearchConfig {
            dims,
            block: block.to_vec(),
            vsa_rows: vsa.rows(),
            vsa_cols: vsa.cols(),
            mesh_deps: dfg.isdg().distances().to_vec(),
            mem_deps: dfg.mem_dep_distances(),
            anti_deps: dfg.anti_dep_distances(),
        })
    });
    c.matrices_tried += stats.matrices_tried;
    c.valid_maps += stats.valid;
    ranked
}

/// A router over the shared index of `(spec, iib)`. The index is first
/// built cold with `MrrgIndex::new` inside its own span; the shared build
/// the walk, replication and the verifier read is then made outside any
/// span, so one build is counted once.
fn router(trace: &mut Trace, c: &mut Counts, spec: &CgraSpec, iib: usize) -> Router {
    let cold = trace.span("cgra.index", || MrrgIndex::new(spec.clone(), iib));
    c.index = c.index.max(cold.memory_stats());
    drop(cold);
    let shared = MrrgIndex::shared(spec.clone(), iib);
    trace.span("mapper.router", || Router::with_index(shared, RouterConfig::default()))
}

/// The replay's per-layer metrics, by the names `BENCHMARK.json` lists.
fn metrics(trace: &Trace, c: &Counts) -> String {
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let route_s = trace.secs("core.route");
    let obj = Obj::default()
        .num("analyze.time_s", trace.secs("analyze"))
        .num("core.submap.time_s", trace.secs("core.submap"))
        .num("core.submap.candidates", c.sub_candidates as f64)
        .num("dfg.build.time_s", trace.secs("dfg.build"))
        .num("dfg.nodes", c.dfg_nodes as f64)
        .num("dfg.edges", c.dfg_edges as f64)
        .num("dfg.hwm_delta_mb", trace.hwm_mb("dfg.build"))
        .num("systolic.search.time_s", trace.secs("systolic.search"))
        .num("systolic.search.matrices_tried", c.matrices_tried as f64)
        .num("systolic.search.valid_maps", c.valid_maps as f64)
        .num("core.layout.time_s", trace.secs("core.layout"))
        .num("core.unique.time_s", trace.secs("core.unique"))
        .num("core.unique.classes", c.classes as f64)
        .num("cgra.index.build_s", trace.secs("cgra.index"))
        .num("cgra.index.nodes", c.index.nodes as f64)
        .num("cgra.index.edges", c.index.edges as f64)
        .num("cgra.index.mb", c.index.bytes as f64 / (1024.0 * 1024.0))
        .num("cgra.index.hwm_delta_mb", trace.hwm_mb("cgra.index"))
        .num("mapper.router.setup_s", trace.secs("mapper.router"))
        .num("mapper.router.teardown_s", trace.secs("mapper.router.teardown"))
        .num("mapper.router.hwm_delta_mb", trace.hwm_mb("mapper.router"))
        .num("mapper.router.searches", c.router.searches as f64)
        .num("mapper.router.nodes_popped", c.router.nodes_popped as f64)
        .num("mapper.router.heap_pushes", c.router.heap_pushes as f64)
        .num("mapper.router.ns_per_pop", ratio(route_s * 1e9, c.router.nodes_popped as f64))
        .num("core.route.time_s", route_s)
        .num("core.route.attempts", c.route_attempts as f64)
        .num("core.route.pathfinder_rounds", c.pathfinder_rounds as f64)
        .num("core.route.hwm_delta_mb", trace.hwm_mb("core.route"))
        .num("core.replicate.time_s", trace.secs("core.replicate"))
        .num("core.replicate.rounds", c.replication_rounds as f64)
        .num("core.replicate.conflict_rounds", c.conflict_rounds as f64)
        .num(
            "core.replicate.success_ratio",
            ratio(c.replication_ok as f64, c.replication_rounds as f64),
        )
        .num("core.replicate.routes", c.routes as f64)
        .num("core.replicate.route_steps", c.route_steps as f64)
        .num("core.replicate.hwm_delta_mb", trace.hwm_mb("core.replicate"))
        .num("core.config.time_s", trace.secs("core.config"))
        .num("verify.time_s", trace.secs("verify"))
        .num("verify.diagnostics", c.diagnostics as f64)
        .num("verify.hwm_delta_mb", trace.hwm_mb("verify"))
        .num("sim.time_s", trace.secs("sim"))
        .num("sim.ops_executed", c.ops_executed as f64)
        .num("sim.elements_checked", c.elements_checked as f64)
        .num("sim.hwm_delta_mb", trace.hwm_mb("sim"))
        .num("trace.peak_rss_mb", peak_rss_mb());
    obj.finish()
}
