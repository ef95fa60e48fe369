//! Property-based tests for the linear-algebra substrate.

use proptest::prelude::*;
use qcc_math::{expm, pauli, random_unitary, CMatrix, C64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn small_angle() -> impl Strategy<Value = f64> {
    -6.0f64..6.0f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Single-qubit rotations compose additively about the same axis.
    #[test]
    fn rotations_compose_additively(a in small_angle(), b in small_angle()) {
        let lhs = pauli::rz(a).matmul(&pauli::rz(b));
        let rhs = pauli::rz(a + b);
        prop_assert!(lhs.approx_eq(&rhs, 1e-10));
        let lhs_x = pauli::rx(a).matmul(&pauli::rx(b));
        prop_assert!(lhs_x.approx_eq(&pauli::rx(a + b), 1e-10));
    }

    /// Rotation matrices are unitary for any angle.
    #[test]
    fn rotations_are_unitary(theta in small_angle()) {
        prop_assert!(pauli::rx(theta).is_unitary(1e-11));
        prop_assert!(pauli::ry(theta).is_unitary(1e-11));
        prop_assert!(pauli::rz(theta).is_unitary(1e-11));
        prop_assert!(pauli::zz_rotation(theta).is_unitary(1e-11));
        prop_assert!(pauli::xy_rotation(theta).is_unitary(1e-11));
    }

    /// The ZZ rotation always equals the CNOT–Rz–CNOT decomposition.
    #[test]
    fn zz_block_identity(theta in small_angle()) {
        let block = pauli::cnot()
            .matmul(&pauli::rz(theta).embed(2, &[1]))
            .matmul(&pauli::cnot());
        prop_assert!(block.approx_eq(&pauli::zz_rotation(theta), 1e-10));
    }

    /// Products of random unitaries stay unitary; daggers invert them.
    #[test]
    fn unitary_group_closure(seed in 0u64..1_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_unitary(&mut rng, 4);
        let b = random_unitary(&mut rng, 4);
        let prod = a.matmul(&b);
        prop_assert!(prod.is_unitary(1e-8));
        prop_assert!(prod.matmul(&prod.dagger()).is_identity(1e-8));
    }

    /// expm of an anti-Hermitian matrix is unitary.
    #[test]
    fn expm_antihermitian_unitary(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = qcc_math::random_hermitian(&mut rng, 4);
        let u = expm::propagator(&h, 0.7);
        prop_assert!(u.is_unitary(1e-8));
    }

    /// Kronecker product dimensions multiply and unitarity is preserved.
    #[test]
    fn kron_of_unitaries_is_unitary(seed in 0u64..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_unitary(&mut rng, 2);
        let b = random_unitary(&mut rng, 4);
        let k = a.kron(&b);
        prop_assert_eq!(k.rows(), 8);
        prop_assert!(k.is_unitary(1e-8));
    }

    /// Trace is linear and invariant under cyclic permutation.
    #[test]
    fn trace_cyclic(seed in 0u64..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = qcc_math::random_complex_matrix(&mut rng, 3, 3);
        let b = qcc_math::random_complex_matrix(&mut rng, 3, 3);
        let ab = a.matmul(&b).trace();
        let ba = b.matmul(&a).trace();
        prop_assert!(ab.approx_eq(ba, 1e-9));
    }
}

/// A random `2^k`-dimensional gate on `k` distinct random targets out of `n`,
/// in random order (so reversed targets are common), with about a third of
/// its entries exactly `+0.0` or `-0.0`.
fn random_gate(rng: &mut StdRng, n: usize) -> (CMatrix, Vec<usize>) {
    let k = rng.gen_range(1..=n.min(3));
    let mut targets = Vec::with_capacity(k);
    while targets.len() < k {
        let q = rng.gen_range(0..n);
        if !targets.contains(&q) {
            targets.push(q);
        }
    }
    let mut gate = qcc_math::random_complex_matrix(rng, 1 << k, 1 << k);
    for z in gate.as_mut_slice() {
        match rng.gen_range(0..6) {
            0 => *z = C64::zero(),
            1 => *z = C64::new(-0.0, -0.0),
            _ => {}
        }
    }
    (gate, targets)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Applying gates in place is bit-for-bit embed-then-multiply, on the
    /// identity and on a random rectangular start.
    #[test]
    fn apply_gate_matches_embed_and_matmul_bit_for_bit(
        seed in 0u64..u64::MAX,
        n in 1usize..6,
        len in 1usize..21,
        start in 0usize..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = 1usize << n;
        let mut want = if start == 0 {
            CMatrix::identity(dim)
        } else {
            let cols = rng.gen_range(1..=dim);
            qcc_math::random_complex_matrix(&mut rng, dim, cols)
        };
        let mut got = want.clone();
        let mut rows = Vec::new();
        let mut product = CMatrix::default();
        for _ in 0..len {
            let (gate, targets) = random_gate(&mut rng, n);
            gate.embed(n, &targets).matmul_into(&want, &mut product);
            std::mem::swap(&mut want, &mut product);
            got.apply_gate(&gate, &targets, &mut rows);
        }
        let bits = |m: &CMatrix| -> Vec<(u64, u64)> {
            m.as_slice().iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        prop_assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
        prop_assert_eq!(bits(&got), bits(&want));
    }
}

#[test]
fn embed_is_consistent_with_kron_ordering() {
    // Embedding on the first / last qubit of 3 equals explicit kron products.
    let x = pauli::sigma_x();
    let id = CMatrix::identity(2);
    let on0 = x.embed(3, &[0]);
    let expected0 = pauli::kron_all(&[x.clone(), id.clone(), id.clone()]);
    assert!(on0.approx_eq(&expected0, 1e-13));
    let on2 = x.embed(3, &[2]);
    let expected2 = pauli::kron_all(&[id.clone(), id, x]);
    assert!(on2.approx_eq(&expected2, 1e-13));
}
