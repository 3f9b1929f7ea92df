//! Property-based integration tests: randomized kernels, blocks and seeds
//! exercised through the full pipeline.

use himap_repro::cgra::CgraSpec;
use himap_repro::core::{HiMap, HiMapOptions};
use himap_repro::dfg::Dfg;
use himap_repro::kernels::{
    interpret, suite, AffineExpr, ArrayRef, ArrayStore, Expr, KernelBuilder, OpKind,
};
use himap_repro::sim::simulate;
use proptest::prelude::*;

/// A small random 2-D streaming kernel: an accumulation along a random
/// dimension plus a random elementwise op, always systolizable.
fn arb_kernel() -> impl Strategy<Value = himap_repro::kernels::Kernel> {
    (0usize..2, 0usize..4, 0usize..4).prop_map(|(acc_dim, op_a, op_b)| {
        let ops = [OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Max];
        let d = 2;
        let mut b = KernelBuilder::new("random", d);
        let acc = b.array("acc", 1);
        let m = b.array("m", 2);
        let v = b.array("v", 1);
        let (i, j) = (AffineExpr::var(0, d), AffineExpr::var(1, d));
        // acc[x] = acc[x] `op_a` (m[i][j] `op_b` v[y]) where x is the
        // non-accumulating dim's iterator and y the accumulating one.
        let (x, y) = if acc_dim == 0 { (j.clone(), i.clone()) } else { (i.clone(), j.clone()) };
        b.stmt(
            ArrayRef::new(acc, vec![x.clone()]),
            Expr::binary(
                ops[op_a],
                Expr::Read(ArrayRef::new(acc, vec![x])),
                Expr::binary(
                    ops[op_b],
                    Expr::Read(ArrayRef::new(m, vec![i, j])),
                    Expr::Read(ArrayRef::new(v, vec![y])),
                ),
            ),
        );
        b.build().expect("random kernel is well-formed")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_kernels_map_and_validate(kernel in arb_kernel(), seed in any::<u64>()) {
        let mapping = HiMap::new(HiMapOptions::default())
            .map(&kernel, &CgraSpec::square(4))
            .expect("random streaming kernels map");
        let report = simulate(&mapping, seed).expect("mapping is functionally correct");
        prop_assert!(report.elements_checked > 0);
    }

    #[test]
    fn dfg_matches_interpreter_op_counts(b1 in 2usize..5, b2 in 2usize..5) {
        // DFG op counts equal iterations x ops/iteration for every kernel.
        for kernel in suite::all().into_iter().filter(|k| k.dims() == 2) {
            let dfg = Dfg::build(&kernel, &[b1, b2]).expect("builds");
            prop_assert_eq!(
                dfg.op_count(),
                b1 * b2 * kernel.compute_ops_per_iteration()
            );
        }
    }

    #[test]
    fn interpreter_is_deterministic(seed in any::<u64>()) {
        let kernel = suite::bicg();
        let mut a = ArrayStore::new(seed);
        let mut b = ArrayStore::new(seed);
        interpret(&kernel, &[3, 3], &mut a).expect("runs");
        interpret(&kernel, &[3, 3], &mut b).expect("runs");
        for (key, value) in a.iter() {
            prop_assert_eq!(b.read(key.0, &key.1), *value);
        }
    }

    #[test]
    fn simulation_agrees_across_seeds(seed in any::<u64>()) {
        // One mapping, many input sets: the mapping must be correct for all
        // of them (routing is data-independent).
        let mapping = HiMap::new(HiMapOptions::default())
            .map(&suite::gemm(), &CgraSpec::square(2))
            .expect("maps");
        let report = simulate(&mapping, seed).expect("valid for every seed");
        prop_assert!(report.elements_checked > 0);
    }
}
