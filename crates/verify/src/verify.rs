//! The independent mapping verifier: re-derives legality of a
//! [`Mapping`] from first principles.
//!
//! Nothing here trusts the mapper's bookkeeping. Occupancy is restamped
//! from the routes, hop timing is re-derived from the architectural
//! latencies of the implicit [`Mrrg`] ([`Mrrg::live_edge_latency`], on the
//! enumeration every index is differentially tested against), and the
//! configuration footprint is recomputed from the placements — so a bug
//! anywhere in placement, routing, replication or statistics surfaces as a
//! diagnostic instead of a miscompiled accelerator image.

use himap_cgra::{Mrrg, RKind, RNode};
use himap_core::{ConfigImage, Mapping, Slot};
use himap_dfg::{EdgeKind, NodeKind};

use himap_analyze::{Code, Diagnostic, DiagnosticSink};

/// Statically verifies a mapping, returning every finding.
///
/// Checks, in order: placement sanity and per-route MRRG connectivity and
/// timing (**V002**, with register-file shape violations split out as
/// **V004**), producer→consumer schedule consistency including memory
/// causality (**V003**), modulo resource exclusivity recomputed from the
/// routes (**V001**, RF port pressure as **V004**), the configuration
/// memory bound (**V005**), fault avoidance for placements and routes on a
/// faulted fabric (**V006**), capability legality of each op's PE
/// (**V007**), and the quality lints (**W101**–**W103**).
pub fn verify_mapping(mapping: &Mapping) -> DiagnosticSink {
    let mut sink = DiagnosticSink::new();
    let iib = mapping.stats().iib.max(1);
    // The implicit graph: no index is built, and nothing the mapper built
    // is reused.
    let mrrg = Mrrg::new(mapping.spec().clone(), iib);

    let slots = slot_table(mapping);
    let placements_ok = check_placement(mapping, &slots, &mrrg, &mut sink);
    check_route_coverage(mapping, &mut sink);
    for route in mapping.routes() {
        check_route_path(mapping, &mrrg, route, &mut sink);
    }
    check_schedule(mapping, &slots, &mut sink);
    check_exclusivity(mapping, &slots, &mut sink);
    if placements_ok && !sink.has_errors() {
        // `ConfigImage` trusts placements; only decode an image the checks
        // above found structurally sound.
        check_config_memory(mapping, &mut sink);
    }
    check_quality(mapping, iib, &mut sink);
    sink
}

/// The FU slot of every DFG node, indexed by node id: the mapping's slot
/// map read once into the dense table every check below indexes.
fn slot_table(mapping: &Mapping) -> Vec<Option<Slot>> {
    let mut slots = vec![None; mapping.dfg().graph().node_count()];
    for (node, &slot) in mapping.op_slots() {
        if let Some(entry) = slots.get_mut(node.index()) {
            *entry = Some(slot);
        }
    }
    slots
}

/// Every compute op must own an in-bounds FU slot whose modulo cycle agrees
/// with its absolute time. Returns `false` when any op is unplaced.
fn check_placement(
    mapping: &Mapping,
    slots: &[Option<Slot>],
    mrrg: &Mrrg,
    sink: &mut DiagnosticSink,
) -> bool {
    let iib = mrrg.ii() as i64;
    let mut complete = true;
    for (node, w) in mapping.dfg().graph().nodes() {
        let NodeKind::Op { kind: op_kind, .. } = w.kind else {
            continue;
        };
        let Some(slot) = slots[node.index()] else {
            complete = false;
            sink.push(
                Diagnostic::error(
                    Code::V002,
                    format!("compute op n{} has no FU slot", node.index()),
                )
                .at_node(node),
            );
            continue;
        };
        let fu = RNode::new(slot.pe, slot.cycle_mod, RKind::Fu);
        if !mrrg.contains(fu) {
            // A faulted FU is architecturally present but masked; report it
            // as a fault-avoidance violation, not a shape error.
            let spec = mapping.spec();
            let (code, what) = if spec.faults.masks(spec, fu) {
                (Code::V006, "on a faulted resource")
            } else {
                (Code::V002, "outside the architecture")
            };
            sink.push(
                Diagnostic::error(code, format!("op n{} is placed {what}", node.index()))
                    .at_resource(fu)
                    .at_node(node),
            );
        } else if !mapping.spec().faults.supports_op(slot.pe, op_kind) {
            // The FU exists (the PE computes *something*) but not this
            // op-class: a capability-legality violation, distinct from the
            // masked-resource case above.
            sink.push(
                Diagnostic::error(
                    Code::V007,
                    format!(
                        "op n{} (`{}`) is placed on a PE whose capability classes \
                         exclude it",
                        node.index(),
                        op_kind.mnemonic()
                    ),
                )
                .at_resource(fu)
                .at_node(node),
            );
        }
        if slot.abs.rem_euclid(iib) != slot.cycle_mod as i64 {
            sink.push(
                Diagnostic::error(
                    Code::V002,
                    format!(
                        "op n{}'s modulo cycle {} disagrees with its absolute time {} (mod {})",
                        node.index(),
                        slot.cycle_mod,
                        slot.abs,
                        iib
                    ),
                )
                .at_resource(fu)
                .at_cycle(slot.abs)
                .at_node(node),
            );
        }
    }
    complete
}

/// Every DFG edge must be implemented by exactly one route.
fn check_route_coverage(mapping: &Mapping, sink: &mut DiagnosticSink) {
    let graph = mapping.dfg().graph();
    let mut seen = vec![0usize; graph.edge_count()];
    for route in mapping.routes() {
        if let Some(count) = seen.get_mut(route.edge.index()) {
            *count += 1;
        }
    }
    for e in graph.edge_ids() {
        match seen[e.index()] {
            0 => sink.push(
                Diagnostic::error(Code::V002, format!("edge e{} has no route", e.index()))
                    .at_edge(e),
            ),
            1 => {}
            n => sink.push(
                Diagnostic::error(
                    Code::V002,
                    format!("edge e{} is implemented by {n} routes", e.index()),
                )
                .at_edge(e),
            ),
        }
    }
}

/// One route must be a real MRRG path: every step a valid resource, every
/// consecutive pair an MRRG edge, and every hop's absolute-time advance
/// equal to the architectural latency of that edge
/// ([`Mrrg::live_edge_latency`], once every step is known to be a valid
/// resource). Register-file shape violations (a register index
/// beyond the RF size) are reported as V004.
fn check_route_path(
    mapping: &Mapping,
    mrrg: &Mrrg,
    route: &himap_core::RouteInstance,
    sink: &mut DiagnosticSink,
) {
    let e = route.edge;
    if route.steps.is_empty() {
        sink.push(
            Diagnostic::error(Code::V002, format!("route of edge e{} has no steps", e.index()))
                .at_edge(e),
        );
        return;
    }
    let iib = mrrg.ii() as i64;
    let mut structurally_sound = true;
    for &(node, abs) in &route.steps {
        if !mrrg.contains(node) {
            let spec = mapping.spec();
            let (code, what) = if spec.faults.masks(spec, node) {
                (Code::V006, "resource is faulted (dead, severed or disabled)".to_string())
            } else {
                match node.kind {
                    RKind::Reg(r) if (r as usize) >= spec.rf_size && spec.contains(node.pe) => (
                        Code::V004,
                        format!("register r{r} exceeds the {}-entry register file", spec.rf_size),
                    ),
                    _ => (Code::V002, "resource outside the architecture".to_string()),
                }
            };
            sink.push(
                Diagnostic::error(
                    code,
                    format!("route of edge e{} uses {node:?}: {what}", e.index()),
                )
                .at_resource(node)
                .at_cycle(abs)
                .at_edge(e),
            );
            structurally_sound = false;
            continue;
        }
        if abs.rem_euclid(iib) != node.t as i64 {
            sink.push(
                Diagnostic::error(
                    Code::V002,
                    format!(
                        "route of edge e{}: step {node:?} at absolute cycle {abs} does not \
                         reduce to modulo cycle {} (mod {iib})",
                        e.index(),
                        node.t
                    ),
                )
                .at_resource(node)
                .at_cycle(abs)
                .at_edge(e),
            );
            structurally_sound = false;
        }
    }
    if !structurally_sound {
        return; // hop checks against invalid nodes would only cascade
    }
    for pair in route.steps.windows(2) {
        let ((a, a_abs), (b, b_abs)) = (pair[0], pair[1]);
        match mrrg.live_edge_latency(a, b) {
            None => sink.push(
                Diagnostic::error(
                    Code::V002,
                    format!("route of edge e{}: no MRRG edge {a:?} -> {b:?}", e.index()),
                )
                .at_resource(b)
                .at_cycle(b_abs)
                .at_edge(e),
            ),
            Some(latency) => {
                if b_abs - a_abs != latency as i64 {
                    sink.push(
                        Diagnostic::error(
                            Code::V002,
                            format!(
                                "route of edge e{}: hop {a:?} -> {b:?} advances {} cycle(s) \
                                 but the architecture needs exactly {latency}",
                                e.index(),
                                b_abs - a_abs
                            ),
                        )
                        .at_resource(b)
                        .at_cycle(b_abs)
                        .at_edge(e),
                    );
                }
            }
        }
    }
}

/// Producer→consumer schedule consistency (V003): each route must end at
/// its consumer's FU at the consumer's cycle, originate at its true source
/// (producer FU, a memory port, or the forwarded root's net), and respect
/// memory causality and anti-dependences.
fn check_schedule(mapping: &Mapping, slots: &[Option<Slot>], sink: &mut DiagnosticSink) {
    let dfg = mapping.dfg();
    let graph = dfg.graph();
    // The net of every root signal some forward edge taps: all
    // `(root, resource, abs)` its routes occupy, excluding trailing consumer
    // FUs (an op input is not re-drivable). One sorted vector holds them
    // all; a tap is a binary search.
    let mut tapped = vec![false; graph.node_count()];
    for e in graph.edge_ids() {
        if let EdgeKind::Forward { root } = graph[e].kind {
            if let Some(t) = tapped.get_mut(root.index()) {
                *t = true;
            }
        }
    }
    let steps = mapping.routes().iter().map(|r| r.steps.len()).sum();
    let mut nets: Vec<(u32, u128, i64)> = Vec::with_capacity(steps);
    for route in mapping.routes() {
        let (src, _) = graph.edge_endpoints(route.edge);
        let root = graph[route.edge].signal(src);
        if !tapped.get(root.index()).is_some_and(|&t| t) {
            continue;
        }
        for (i, &(node, abs)) in route.steps.iter().enumerate() {
            let trailing_fu = i + 1 == route.steps.len() && node.kind == RKind::Fu;
            if !trailing_fu {
                nets.push((root.index() as u32, node.packed_key(), abs));
            }
        }
    }
    nets.sort_unstable();
    nets.dedup();

    for route in mapping.routes() {
        let e = route.edge;
        let Some((&(first, first_abs), &(last, last_abs))) =
            route.steps.first().zip(route.steps.last())
        else {
            continue; // empty routes already reported by V002
        };
        let (src, dst) = graph.edge_endpoints(e);
        debug_assert!(graph[dst].kind.is_op(), "every DFG edge ends at an op");
        // Delivery: the consuming FU at the consumer's exact cycle.
        if let Some(dslot) = slots[dst.index()] {
            if last.kind != RKind::Fu || last.pe != dslot.pe || last_abs != dslot.abs {
                sink.push(
                    Diagnostic::error(
                        Code::V003,
                        format!(
                            "route of edge e{} delivers at {last:?} cycle {last_abs}, but the \
                             consumer n{} executes on fu@{} at cycle {}",
                            e.index(),
                            dst.index(),
                            dslot.pe,
                            dslot.abs
                        ),
                    )
                    .at_resource(last)
                    .at_cycle(last_abs)
                    .at_node(dst)
                    .at_edge(e),
                );
            }
        }
        // Origin: the route must start where the signal really is.
        match (graph[e].kind, graph[src].kind) {
            (EdgeKind::Flow, NodeKind::Op { .. }) => {
                if let Some(sslot) = slots[src.index()] {
                    let at_producer =
                        first.kind == RKind::Fu && first.pe == sslot.pe && first_abs == sslot.abs;
                    if !at_producer {
                        sink.push(
                            Diagnostic::error(
                                Code::V003,
                                format!(
                                    "route of edge e{} starts at {first:?} cycle {first_abs}, \
                                     not at its producer n{}'s fu@{} cycle {}",
                                    e.index(),
                                    src.index(),
                                    sslot.pe,
                                    sslot.abs
                                ),
                            )
                            .at_resource(first)
                            .at_cycle(first_abs)
                            .at_node(src)
                            .at_edge(e),
                        );
                    }
                }
            }
            (EdgeKind::Flow, NodeKind::Input { .. }) => {
                if first.kind != RKind::Mem {
                    sink.push(
                        Diagnostic::error(
                            Code::V003,
                            format!(
                                "route of edge e{} carries a live-in but starts at {first:?}, \
                                 not a memory port",
                                e.index()
                            ),
                        )
                        .at_resource(first)
                        .at_cycle(first_abs)
                        .at_node(src)
                        .at_edge(e),
                    );
                }
            }
            (EdgeKind::Forward { root }, _) => {
                let tap = (root.index() as u32, first.packed_key(), first_abs);
                let on_net = nets.binary_search(&tap).is_ok();
                if !on_net {
                    sink.push(
                        Diagnostic::error(
                            Code::V003,
                            format!(
                                "forward route of edge e{} taps {first:?} at cycle {first_abs}, \
                                 where the root signal n{} never is",
                                e.index(),
                                root.index()
                            ),
                        )
                        .at_resource(first)
                        .at_cycle(first_abs)
                        .at_node(root)
                        .at_edge(e),
                    );
                }
            }
        }
    }

    // Each node's earliest and latest first-step time over the routes
    // leaving it, indexed once for the dependence checks below.
    let mut source_times: Vec<Option<(i64, i64)>> = vec![None; graph.node_count()];
    for route in mapping.routes() {
        let Some(&(_, abs)) = route.steps.first() else { continue };
        let (src, _) = graph.edge_endpoints(route.edge);
        let (lo, hi) = source_times[src.index()].get_or_insert((abs, abs));
        *lo = (*lo).min(abs);
        *hi = (*hi).max(abs);
    }
    // Memory causality: a memory-routed load issues at the earliest first
    // step of the consuming input's out-routes, and the producing store is
    // readable two cycles after the producer executes (result registered,
    // then written to memory).
    for &(producer, input) in dfg.mem_deps() {
        let Some(p_abs) = slots[producer.index()].map(|s| s.abs) else { continue };
        if let Some((load_abs, _)) = source_times[input.index()] {
            if load_abs < p_abs + 2 {
                sink.push(
                    Diagnostic::error(
                        Code::V003,
                        format!(
                            "memory-routed load of n{} issues at cycle {load_abs}, before its \
                             store (producer n{} at cycle {p_abs}) is readable at {}",
                            input.index(),
                            producer.index(),
                            p_abs + 2
                        ),
                    )
                    .at_cycle(load_abs)
                    .at_node(input),
                );
            }
        }
    }
    // Anti-dependences: a live-in load must issue before the overwriting
    // store becomes visible (readable from writer_abs + 2, so the last
    // legal load cycle is writer_abs + 1).
    for &(reader, writer) in dfg.anti_deps() {
        let Some(w_abs) = slots[writer.index()].map(|s| s.abs) else { continue };
        if let Some((_, load_abs)) = source_times[reader.index()] {
            if load_abs > w_abs + 1 {
                sink.push(
                    Diagnostic::error(
                        Code::V003,
                        format!(
                            "live-in load of n{} issues at cycle {load_abs}, after writer n{} \
                             (cycle {w_abs}) has overwritten the element",
                            reader.index(),
                            writer.index()
                        ),
                    )
                    .at_cycle(load_abs)
                    .at_node(reader),
                );
            }
        }
    }
}

/// Modulo resource exclusivity (V001): restamp every resource from the op
/// placements and routes — the same occupancy model `replicate_and_verify`
/// uses, but derived here from the final artifact instead of the mapper's
/// intermediate state. Register-file resources report as V004.
///
/// Claims are one flat `(resource key, claim order, signal)` list, keyed by
/// [`RNode::packed_key`]. Sorting it groups each resource's claims in claim
/// order, so diagnostics come out in `RNode` order and list each resource's
/// distinct signals in first-claim order.
fn check_exclusivity(mapping: &Mapping, slots: &[Option<Slot>], sink: &mut DiagnosticSink) {
    let dfg = mapping.dfg();
    let spec = mapping.spec();
    let steps: usize = mapping.routes().iter().map(|r| r.steps.len()).sum();
    let mut claims: Vec<(u128, u32, u32)> = Vec::with_capacity(slots.len() + steps);
    for (node, w) in dfg.graph().nodes() {
        if matches!(w.kind, NodeKind::Op { .. }) {
            if let Some(slot) = slots[node.index()] {
                let fu = RNode::new(slot.pe, slot.cycle_mod, RKind::Fu);
                claims.push((fu.packed_key(), claims.len() as u32, node.index() as u32));
            }
        }
    }
    for route in mapping.routes() {
        let (src, _) = dfg.graph().edge_endpoints(route.edge);
        let root = dfg.graph()[route.edge].signal(src);
        for (i, &(node, _)) in route.steps.iter().enumerate() {
            // Endpoint FU steps belong to the ops, which are stamped above.
            let endpoint = i == 0 || i == route.steps.len() - 1;
            if endpoint && node.kind == RKind::Fu {
                continue;
            }
            claims.push((node.packed_key(), claims.len() as u32, root.index() as u32));
        }
    }
    claims.sort_unstable();
    let mut signals: Vec<u32> = Vec::new();
    for run in claims.chunk_by(|a, b| a.0 == b.0) {
        let node = RNode::from_packed_key(run[0].0);
        let capacity = spec.capacity(node.kind);
        // A run no longer than capacity cannot oversubscribe: skip the dedup.
        if run.len() <= capacity {
            continue;
        }
        signals.clear();
        for &(_, _, signal) in run {
            if !signals.contains(&signal) {
                signals.push(signal);
            }
        }
        if signals.len() <= capacity {
            continue;
        }
        let code = match node.kind {
            RKind::Reg(_) | RKind::RegWr | RKind::RegRd => Code::V004,
            _ => Code::V001,
        };
        let listed: Vec<String> = signals.iter().map(|s| format!("n{s}")).collect();
        sink.push(
            Diagnostic::error(
                code,
                format!(
                    "{node:?} carries {} distinct signals (capacity {capacity})",
                    signals.len()
                ),
            )
            .at_resource(node)
            .note(format!("signals {}", listed.join(", "))),
        );
    }
}

/// Configuration-memory bound (V005), plus bookkeeping cross-check (W103).
fn check_config_memory(mapping: &Mapping, sink: &mut DiagnosticSink) {
    let image = ConfigImage::from_mapping(mapping);
    let depth = mapping.spec().config_mem_depth;
    if !image.fits(depth) {
        sink.push(Diagnostic::error(
            Code::V005,
            format!(
                "a PE needs {} unique instruction words, but the configuration memory \
                 holds {depth}",
                image.max_unique_instrs()
            ),
        ));
    }
    let recomputed = image.max_unique_instrs();
    let reported = mapping.stats().max_config_slots;
    if recomputed != reported {
        sink.push(
            Diagnostic::warning(
                Code::W103,
                format!(
                    "mapper bookkeeping reports {reported} max config slots, but the image \
                     decodes to {recomputed}"
                ),
            )
            .note("quality statistics derived from this mapping may be wrong"),
        );
    }
}

/// Quality lints: avoidable detours (W101) and long dwells (W102).
fn check_quality(mapping: &Mapping, iib: usize, sink: &mut DiagnosticSink) {
    let spec = mapping.spec();
    for route in mapping.routes() {
        let Some((&(first, first_abs), &(last, last_abs))) =
            route.steps.first().zip(route.steps.last())
        else {
            continue;
        };
        let wire_hops =
            route.steps.iter().filter(|(n, _)| matches!(n.kind, RKind::Wire(_))).count();
        let manhattan = spec.distance(first.pe, last.pe);
        if wire_hops > manhattan {
            sink.push(
                Diagnostic::warning(
                    Code::W101,
                    format!(
                        "route of edge e{} spends {wire_hops} wire hops on a Manhattan \
                         distance of {manhattan}",
                        route.edge.index()
                    ),
                )
                .at_edge(route.edge)
                .note("detours burn wire bandwidth other signals may need"),
            );
        }
        if last_abs - first_abs > iib as i64 {
            sink.push(
                Diagnostic::warning(
                    Code::W102,
                    format!(
                        "route of edge e{} dwells {} cycles, longer than one modulo window \
                         ({iib})",
                        route.edge.index(),
                        last_abs - first_abs
                    ),
                )
                .at_edge(route.edge)
                .note("long-lived values tie up registers across iterations"),
            );
        }
    }
}
