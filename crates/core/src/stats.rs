//! Pipeline instrumentation: per-stage wall time and candidate/cache
//! counters for every `HiMap::map` run, successful or not.
//!
//! The orchestrator writes one [`PipelineStats`] record as the candidate
//! walk runs, and surfaces it to callers via
//! [`MappingStats`](crate::MappingStats) and
//! [`HiMap::map_with_stats`](crate::HiMap::map_with_stats).
//!
//! Stage times are wall time of disjoint spans, so their sum never exceeds
//! `total`. The walk is sequential, so every counter is a run-to-run
//! reproducible invariant of the pipeline (`tests/pipeline_stats.rs`).

use std::fmt;
use std::time::{Duration, Instant};

use himap_analyze::StaticBounds;
use himap_cgra::MemoryStats;
use himap_mapper::RouterStats;

/// Wall time spent in each pipeline stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// `MAP()` — IDFG to sub-CGRA placement over all candidate shapes.
    pub map: Duration,
    /// Candidate enumeration: VSA construction and block dedup.
    pub enumerate: Duration,
    /// Dependence-distance probes (small-block DFG unrolls on cache misses).
    pub probe: Duration,
    /// Systolic `(H, S)` search, probe-filtered and exact passes.
    pub search: Duration,
    /// Full-block DFG unrolls.
    pub dfg: Duration,
    /// Space-time layouts (`Layout::new`) of the routed systolic maps, plus
    /// the winner's op-slot map and `Mapping` assembly.
    pub layout: Duration,
    /// Unique-iteration classification (`classify`) of each layout.
    pub classify: Duration,
    /// `ROUTE()` — PathFinder negotiation over class representatives.
    pub route: Duration,
    /// Replication of class patterns and full-array verification.
    pub replicate: Duration,
    /// Configuration image of the winning mapping
    /// (`ConfigImage::from_mapping`).
    pub config: Duration,
    /// Dense MRRG index acquisition (`MrrgIndex::shared`) for the walk's
    /// pooled routers. The first acquisition per `(spec, II)` compiles the
    /// CSR adjacency; later ones are cache hits, so this stays near zero in
    /// steady state. Timed outside `route`, so the stages never overlap.
    pub index: Duration,
    /// End-to-end wall time of the whole `map` call.
    pub total: Duration,
}

/// Counters and timings of one `HiMap::map` run.
///
/// Returned for successful *and* failed mapping attempts — see
/// [`HiMap::map_with_stats`](crate::HiMap::map_with_stats).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Per-stage times.
    pub times: StageTimes,
    /// Sub-CGRA `(s1, s2, t)` shape/depth combinations `MAP()` attempted.
    pub sub_shapes_tried: usize,
    /// Relative sub-mappings `MAP()` produced (its candidate list).
    pub sub_candidates: usize,
    /// `(sub-candidate, block, space-assignment)` tuples enumerated.
    pub candidates_enumerated: usize,
    /// Tuples dropped during enumeration (no VSA tiling, duplicate block).
    pub candidates_deduped: usize,
    /// Tuples that entered evaluation.
    pub candidates_tried: usize,
    /// Tuples rejected before detailed routing (probe build failed, or no
    /// valid systolic mapping on probe or exact distances).
    pub candidates_pruned: usize,
    /// Tuples cut short by the deadline part-way through evaluation.
    pub candidates_abandoned: usize,
    /// Systolic searches executed (up to two per tried tuple).
    pub systolic_searches: usize,
    /// Candidate `[H; S]` matrices validated across those searches.
    pub systolic_matrices_tried: usize,
    /// Valid ranked space-time maps found across those searches.
    pub systolic_maps_found: usize,
    /// `(tuple, ranked map)` layouts that entered detailed routing.
    pub layouts_tried: usize,
    /// `route_representatives_pooled` invocations (≥ 1 per layout: replication
    /// conflicts feed back into repeated negotiation).
    pub route_attempts: usize,
    /// PathFinder negotiation rounds consumed inside those invocations.
    pub pathfinder_rounds: usize,
    /// `replicate_and_verify` invocations.
    pub replication_rounds: usize,
    /// Dependence-probe cache hits.
    pub probe_cache_hits: usize,
    /// Dependence-probe cache misses (a probe DFG was built).
    pub probe_cache_misses: usize,
    /// Dijkstra searches executed by the dense router across `MAP()` and
    /// `ROUTE()` (every `route*` call is one search).
    pub router_searches: u64,
    /// Heap entries popped across all router searches.
    pub router_nodes_popped: u64,
    /// Heap entries pushed across all router searches.
    pub router_heap_pushes: u64,
    /// Full clears of the router's epoch-stamped scratch (reallocation on
    /// growth or epoch wraparound) — stays tiny when scratch reuse works.
    pub router_epoch_resets: u64,
    /// Router searches aborted by cooperative cancellation (the deadline
    /// passed mid-search).
    pub router_searches_cancelled: u64,
    /// Certified pre-mapping lower bounds from the `himap-analyze` admission
    /// pass, which every [`HiMap::map`](crate::HiMap::map) run records;
    /// `None` only in records no admission pass wrote.
    pub static_bounds: Option<StaticBounds>,
    /// High-water mark of the dense MRRG indexes this run acquired —
    /// field-wise maximum of
    /// [`MrrgIndex::memory_stats`](himap_cgra::MrrgIndex::memory_stats)
    /// across every acquisition. The
    /// mega-fabric tiled path asserts this stays at sub-CGRA scale (the
    /// full-fabric graph is never materialised).
    pub memory: MemoryStats,
}

impl PipelineStats {
    /// Hit rate of the shared dependence-probe cache in `[0, 1]`; 1.0 when
    /// the cache was never consulted.
    pub fn probe_cache_hit_rate(&self) -> f64 {
        let total = self.probe_cache_hits + self.probe_cache_misses;
        if total == 0 {
            1.0
        } else {
            self.probe_cache_hits as f64 / total as f64
        }
    }

    /// Folds one router's search-effort counters into the run totals.
    pub(crate) fn add_router(&mut self, r: RouterStats) {
        self.router_searches += r.searches;
        self.router_nodes_popped += r.nodes_popped;
        self.router_heap_pushes += r.heap_pushes;
        self.router_epoch_resets += r.epoch_resets;
        self.router_searches_cancelled += r.cancelled;
    }

    /// Multi-line human-readable summary (what the bench binaries print).
    pub fn summary(&self) -> String {
        let t = &self.times;
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let mut out = format!(
            "pipeline: {:.1} ms wall\n\
             \x20 stages   MAP {:.1} ms | enumerate {:.1} ms | probe {:.1} ms | \
             search {:.1} ms | DFG {:.1} ms | layout {:.1} ms | classify {:.1} ms | \
             ROUTE {:.1} ms | replicate {:.1} ms | config {:.1} ms | index {:.1} ms\n\
             \x20 MAP      {} shapes tried -> {} sub-candidates\n\
             \x20 walk     {} enumerated (+{} deduped), {} tried, {} pruned, {} abandoned\n\
             \x20 systolic {} searches, {} matrices -> {} valid maps, {} layouts routed\n\
             \x20 route    {} attempts, {} pathfinder rounds, {} replications\n\
             \x20 router   {} searches ({} cancelled), {} nodes popped, {} heap pushes, \
             {} epoch resets\n\
             \x20 probes   {} hits / {} misses ({:.0}% hit rate)",
            ms(t.total),
            ms(t.map),
            ms(t.enumerate),
            ms(t.probe),
            ms(t.search),
            ms(t.dfg),
            ms(t.layout),
            ms(t.classify),
            ms(t.route),
            ms(t.replicate),
            ms(t.config),
            ms(t.index),
            self.sub_shapes_tried,
            self.sub_candidates,
            self.candidates_enumerated,
            self.candidates_deduped,
            self.candidates_tried,
            self.candidates_pruned,
            self.candidates_abandoned,
            self.systolic_searches,
            self.systolic_matrices_tried,
            self.systolic_maps_found,
            self.layouts_tried,
            self.route_attempts,
            self.pathfinder_rounds,
            self.replication_rounds,
            self.router_searches,
            self.router_searches_cancelled,
            self.router_nodes_popped,
            self.router_heap_pushes,
            self.router_epoch_resets,
            self.probe_cache_hits,
            self.probe_cache_misses,
            self.probe_cache_hit_rate() * 100.0,
        );
        if self.memory.nodes > 0 {
            out.push_str(&format!(
                "\n  memory   largest index {} nodes, {} edges, {:.1} MiB",
                self.memory.nodes,
                self.memory.edges,
                self.memory.bytes as f64 / (1024.0 * 1024.0),
            ));
        }
        if let Some(bounds) = &self.static_bounds {
            out.push_str(&format!("\n  static   {bounds}"));
        }
        out
    }
}

impl fmt::Display for PipelineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

/// Runs `f`, adding its wall time to the stage time `slot`.
pub(crate) fn timed<R>(slot: &mut Duration, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed();
    out
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_charges_the_given_stage() {
        let mut s = PipelineStats::default();
        let v = timed(&mut s.times.route, || {
            std::thread::sleep(Duration::from_millis(1));
            7
        });
        assert_eq!(v, 7);
        assert!(s.times.route >= Duration::from_millis(1));
        assert_eq!(s.times.map, Duration::ZERO);
    }

    #[test]
    fn hit_rate_handles_empty_and_mixed() {
        let mut s = PipelineStats::default();
        assert_eq!(s.probe_cache_hit_rate(), 1.0);
        s.probe_cache_hits = 3;
        s.probe_cache_misses = 1;
        assert!((s.probe_cache_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn summary_mentions_every_counter_family() {
        let text = PipelineStats::default().summary();
        for needle in ["MAP", "walk", "systolic", "route", "router", "epoch resets", "probes"] {
            assert!(text.contains(needle), "summary missing {needle}: {text}");
        }
    }

    #[test]
    fn router_counters_accumulate() {
        let mut s = PipelineStats::default();
        s.add_router(RouterStats {
            searches: 3,
            nodes_popped: 100,
            heap_pushes: 250,
            epoch_resets: 1,
            cancelled: 2,
        });
        s.add_router(RouterStats {
            searches: 2,
            nodes_popped: 50,
            heap_pushes: 75,
            epoch_resets: 0,
            cancelled: 1,
        });
        assert_eq!(s.router_searches, 5);
        assert_eq!(s.router_nodes_popped, 150);
        assert_eq!(s.router_heap_pushes, 325);
        assert_eq!(s.router_epoch_resets, 1);
        assert_eq!(s.router_searches_cancelled, 3);
    }
}
