//! "Best of HyCUBE & CGRA-ME" — the paper's combined baseline.

use himap_cgra::CgraSpec;
use himap_dfg::Dfg;

use crate::{
    BaselineFailure, BaselineMapping, BaselineOptions, SaMapper, SprMapper, MAX_DFG_NODES,
};

/// Outcomes of both baseline mappers on one problem.
#[derive(Clone, Debug)]
pub struct BhcResult {
    /// SPR/HyCUBE-style outcome.
    pub spr: Result<BaselineMapping, BaselineFailure>,
    /// Simulated-annealing outcome.
    pub sa: Result<BaselineMapping, BaselineFailure>,
}

impl BhcResult {
    /// The better of the two mappings (highest utilization, ties by lower
    /// II), or `None` if both failed.
    pub fn best(&self) -> Option<&BaselineMapping> {
        match (&self.spr, &self.sa) {
            (Ok(a), Ok(b)) => {
                if (b.utilization, a.ii) > (a.utilization, b.ii) {
                    Some(b)
                } else {
                    Some(a)
                }
            }
            (Ok(a), Err(_)) => Some(a),
            (Err(_), Ok(b)) => Some(b),
            (Err(_), Err(_)) => None,
        }
    }

    /// Utilization of the best mapping, or 0 when both failed (how Fig. 7
    /// plots a failed baseline).
    pub fn best_utilization(&self) -> f64 {
        self.best().map_or(0.0, |m| m.utilization)
    }
}

/// Runs both baselines and reports both outcomes (§VI: "we report the best
/// utilization results obtained from the two frameworks").
pub fn bhc(dfg: &Dfg, spec: &CgraSpec, options: &BaselineOptions) -> BhcResult {
    BhcResult { spr: SprMapper::run(dfg, spec, options), sa: SaMapper::run(dfg, spec, options) }
}

/// Chooses the largest block for a baseline run: the biggest uniform extent
/// whose unrolled DFG stays within the node limit (the paper: "BHC maps the
/// small DFG keeping the block size small").
pub fn baseline_block(kernel: &himap_kernels::Kernel) -> Vec<usize> {
    let dims = kernel.dims();
    let mut best = vec![1; dims];
    for extent in 2..=MAX_DFG_NODES {
        let block = vec![extent; dims];
        let Ok(dfg) = Dfg::build(kernel, &block) else { break };
        if dfg.graph().node_count() > MAX_DFG_NODES {
            break;
        }
        best = block;
    }
    best
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
#[cfg(test)]
mod tests {
    use super::*;
    use himap_kernels::suite;

    #[test]
    fn best_prefers_higher_utilization() {
        let dfg = Dfg::build(&suite::gemm(), &[2, 2, 2]).unwrap();
        let spec = CgraSpec::square(4);
        let result = bhc(&dfg, &spec, &BaselineOptions::default());
        let best = result.best().expect("small GEMM block maps");
        for m in [&result.spr, &result.sa].into_iter().flatten() {
            assert!(best.utilization >= m.utilization);
        }
    }

    #[test]
    fn failed_baseline_scores_zero() {
        // A DFG over the node limit fails both mappers.
        let dfg = Dfg::build(&suite::gemm(), &[8, 8, 8]).unwrap();
        let spec = CgraSpec::square(16);
        let result = bhc(&dfg, &spec, &BaselineOptions::default());
        assert!(result.best().is_none());
        assert_eq!(result.best_utilization(), 0.0);
    }

    #[test]
    fn baseline_block_respects_node_limit() {
        for kernel in suite::all() {
            let block = baseline_block(&kernel);
            let dfg = Dfg::build(&kernel, &block).unwrap();
            assert!(
                dfg.graph().node_count() <= MAX_DFG_NODES,
                "{}: {} nodes",
                kernel.name(),
                dfg.graph().node_count()
            );
            // And it is maximal: one extent more would exceed the limit
            // (or the block is already large).
            let bigger: Vec<usize> = block.iter().map(|b| b + 1).collect();
            if let Ok(d) = Dfg::build(&kernel, &bigger) {
                assert!(d.graph().node_count() > MAX_DFG_NODES);
            }
        }
    }
}
