//! Run-to-run determinism of the candidate walk: for every kernel in the
//! suite, on 4x4 and 8x8 CGRAs, two fresh `HiMap::map` runs must pick the
//! *same* winning mapping. The second run finds the first run's dense
//! routing index in the process-wide `MrrgIndex::shared` cache, so this also
//! proves a warm cache never changes a result. Failures must repeat too.

use std::sync::Arc;

use himap_repro::cgra::{CgraSpec, MrrgIndex};
use himap_repro::core::{HiMap, HiMapError, HiMapOptions, Mapping};
use himap_repro::kernels::{suite, Kernel};

/// The deterministic fingerprint of a mapping outcome: every quality field
/// of `MappingStats` plus the derived utilization. Excludes `pipeline`,
/// which carries wall times.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    sub_shape: (usize, usize, usize),
    block: Vec<usize>,
    unique_iterations: usize,
    iterations_per_spe: usize,
    iib: usize,
    max_config_slots: usize,
    utilization_bits: u64,
}

fn fingerprint(result: &Result<Mapping, HiMapError>) -> Result<Fingerprint, HiMapError> {
    result.as_ref().map_err(Clone::clone).map(|m| {
        let s = m.stats();
        Fingerprint {
            sub_shape: s.sub_shape,
            block: s.block.clone(),
            unique_iterations: s.unique_iterations,
            iterations_per_spe: s.iterations_per_spe,
            iib: s.iib,
            max_config_slots: s.max_config_slots,
            utilization_bits: m.utilization().to_bits(),
        }
    })
}

fn map(kernel: &Kernel, cgra: &CgraSpec) -> Result<Mapping, HiMapError> {
    HiMap::new(HiMapOptions::default()).map(kernel, cgra)
}

fn assert_repeatable(cgra_size: usize) {
    let cgra = CgraSpec::square(cgra_size);
    for kernel in suite::all() {
        let first = map(&kernel, &cgra);
        let mapping = first.as_ref().unwrap_or_else(|e| panic!("{}: {e}", kernel.name()));
        // The index the first run routed the winner on.
        let warm = MrrgIndex::shared(cgra.clone(), mapping.stats().iib);
        let second = map(&kernel, &cgra);
        assert_eq!(
            fingerprint(&first),
            fingerprint(&second),
            "{} on {cgra_size}x{cgra_size} diverged between two runs",
            kernel.name(),
        );
        // A cache entry is only ever replaced by a fresh build, so the same
        // `Arc` after the second run means that run reused the warm index.
        let after = MrrgIndex::shared(cgra.clone(), mapping.stats().iib);
        assert!(
            Arc::ptr_eq(&warm, &after),
            "{} on {cgra_size}x{cgra_size}: the second run rebuilt its index",
            kernel.name(),
        );
    }
}

#[test]
fn all_kernels_repeat_identically_on_4x4() {
    assert_repeatable(4);
}

#[test]
fn all_kernels_repeat_identically_on_8x8() {
    assert_repeatable(8);
}

#[test]
fn failures_repeat_the_same_error() {
    // A kernel that cannot map must fail with the same "furthest stage"
    // error on every run. GEMM on 1x1 has no room for its three ops per
    // iteration.
    let cgra = CgraSpec::square(1);
    let first = map(&suite::gemm(), &cgra).map(|_| ()).unwrap_err();
    let second = map(&suite::gemm(), &cgra).map(|_| ()).unwrap_err();
    assert_eq!(first, second);
}
