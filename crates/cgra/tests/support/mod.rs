//! Random fabric strategies shared by the differential proptests: the
//! CSR index tests here and, through a `#[path]` module, the mapper's
//! router tests.

use himap_cgra::{CapabilityMap, PeId, ALL_DIRS};
use proptest::prelude::*;

pub fn arb_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..5, 1usize..5, 1usize..5)
}

/// Random dimensions plus a random fault map (up to three faults drawn from
/// all four classes) fitting those dimensions.
pub fn arb_faulted() -> impl Strategy<Value = (usize, usize, usize, CapabilityMap)> {
    arb_dims().prop_flat_map(|(rows, cols, ii)| {
        proptest::collection::vec((0usize..4, 0usize..rows, 0usize..cols, 0usize..8), 0..4)
            .prop_map(move |faults| {
                let mut map = CapabilityMap::new();
                for (class, r, c, x) in faults {
                    match class {
                        0 => map.kill_pe(PeId::new(r, c)),
                        1 => map.sever_link(PeId::new(r, c), ALL_DIRS[x % ALL_DIRS.len()]),
                        2 => map.disable_reg(PeId::new(r, c), x),
                        _ => map.disable_mem(PeId::new(r, c)),
                    };
                }
                (rows, cols, ii, map)
            })
    })
}
