//! Dense complex matrices in two storages behind one kernel trait.
//!
//! [`CMatrix`] holds any size up to `2^10 × 2^10` (ten-qubit unitaries) as a
//! row-major `Vec<C64>`. [`FixedMatrix<N>`](FixedMatrix) holds an `N × N`
//! matrix whose size is fixed at compile time, in split real and imaginary
//! planes with no heap storage; the workspace uses it at `N` = 2, 4 and 8,
//! the sizes of every GRAPE model. [`MatrixStorage`] is the set of kernels
//! both provide — the ikj product, scale, add, row swap, trace inner
//! product, 1-norm — and the Padé exponential, the LU solve and GRAPE's
//! gradient are each written once against it. Every kernel performs the
//! same `f64` operations in the same order on both storages, so an
//! algorithm's result is bit-for-bit the same on either.
//! [`CMatrix::apply_gate`] multiplies by an embedded gate without building
//! the embedding, in the arithmetic order of [`CMatrix::matmul_into`].

use crate::complex::C64;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A dense complex matrix stored in row-major order.
///
/// # Examples
///
/// ```
/// use qcc_math::{CMatrix, C64};
/// let x = CMatrix::from_rows(&[
///     &[C64::zero(), C64::one()],
///     &[C64::one(), C64::zero()],
/// ]);
/// assert!(x.is_unitary(1e-12));
/// assert!((&x * &x).is_identity(1e-12));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<C64>,
}

impl Default for CMatrix {
    /// An empty `0 × 0` matrix — the placeholder state of reusable workspace
    /// buffers, which the `*_into` operations reshape on first use.
    fn default() -> Self {
        CMatrix::zeros(0, 0)
    }
}

impl CMatrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![C64::zero(); rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = C64::one();
        }
        m
    }

    /// Builds a matrix from a slice of rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not all have the same length or if `rows` is empty.
    pub fn from_rows(rows: &[&[C64]]) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<C64>) -> Self {
        assert_eq!(data.len(), rows * cols, "dimension mismatch");
        Self { rows, cols, data }
    }

    /// Builds a square matrix from real entries (imaginary parts zero).
    pub fn from_real(rows: usize, cols: usize, entries: &[f64]) -> Self {
        assert_eq!(entries.len(), rows * cols, "dimension mismatch");
        Self {
            rows,
            cols,
            data: entries.iter().map(|&x| C64::real(x)).collect(),
        }
    }

    /// Builds a diagonal matrix from the given diagonal entries.
    pub fn diag(entries: &[C64]) -> Self {
        let n = entries.len();
        let mut m = Self::zeros(n, n);
        for (i, &e) in entries.iter().enumerate() {
            m[(i, i)] = e;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` for a square matrix.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable access to the backing slice (row-major).
    #[inline]
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// Mutable access to the backing slice (row-major).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [C64] {
        &mut self.data
    }

    /// Returns one row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[C64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Conjugate transpose (the dagger / adjoint).
    pub fn dagger(&self) -> CMatrix {
        let mut out = CMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)].conj();
            }
        }
        out
    }

    /// Plain transpose without conjugation.
    pub fn transpose(&self) -> CMatrix {
        let mut out = CMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Element-wise complex conjugate.
    pub fn conj(&self) -> CMatrix {
        let data = self.data.iter().map(|z| z.conj()).collect();
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Trace of a square matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> C64 {
        assert!(self.is_square(), "trace of non-square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Frobenius norm `sqrt(Σ |a_ij|²)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }

    /// Multiplies every entry by a complex scalar.
    pub fn scale(&self, s: C64) -> CMatrix {
        let data = self.data.iter().map(|&z| z * s).collect();
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Multiplies every entry by a real scalar.
    pub fn scale_re(&self, s: f64) -> CMatrix {
        self.scale(C64::real(s))
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &CMatrix) -> CMatrix {
        let mut out = CMatrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Writes `self * rhs` into `out`, reusing `out`'s allocation (it is
    /// reshaped to `self.rows × rhs.cols`). Arithmetic is identical to
    /// [`matmul`](Self::matmul) — the ikj loop order whose inner loop walks
    /// contiguous memory of both `rhs` and `out`, which matters for the
    /// 1024×1024 unitaries — so results are bit-for-bit the same. `self` and
    /// `rhs` may alias each other (squaring), but neither may alias `out`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch or when `out` aliases an operand.
    pub fn matmul_into(&self, rhs: &CMatrix, out: &mut CMatrix) {
        assert_eq!(self.cols, rhs.rows, "matmul dimension mismatch");
        assert!(
            !std::ptr::eq(self, out) && !std::ptr::eq(rhs, out),
            "matmul_into: `out` must not alias an operand"
        );
        // Reshape only on mismatch; a same-shape reuse (the common case in
        // the expm/GRAPE workspaces) is a single zero fill, not a clear plus
        // an element-by-element zero resize.
        if out.rows != self.rows || out.cols != rhs.cols {
            out.rows = self.rows;
            out.cols = rhs.cols;
            out.data.clear();
            out.data.resize(self.rows * rhs.cols, C64::zero());
        } else {
            out.data.fill(C64::zero());
        }
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a.re == 0.0 && a.im == 0.0 {
                    continue;
                }
                let rrow = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &r) in orow.iter_mut().zip(rrow.iter()) {
                    *o += a * r;
                }
            }
        }
    }

    /// Overwrites `self` with a copy of `src`, reusing the allocation.
    pub fn copy_from(&mut self, src: &CMatrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Writes `src * s` into `self`, reusing the allocation. Arithmetic is
    /// identical to [`scale`](Self::scale).
    pub fn scale_into(&mut self, src: &CMatrix, s: C64) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend(src.data.iter().map(|&c| c * s));
    }

    /// Adds `rhs * s` to `self` element-wise, allocating nothing. Arithmetic
    /// is identical to `self += &rhs.scale(s)` (multiply, then accumulate).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, rhs: &CMatrix, s: C64) {
        assert_eq!(self.rows, rhs.rows, "add_scaled shape mismatch");
        assert_eq!(self.cols, rhs.cols, "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b * s;
        }
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[C64]) -> Vec<C64> {
        assert_eq!(v.len(), self.cols, "matvec dimension mismatch");
        let mut out = vec![C64::zero(); self.rows];
        for (i, slot) in out.iter_mut().enumerate() {
            let row = self.row(i);
            let mut acc = C64::zero();
            for (a, b) in row.iter().zip(v.iter()) {
                acc += *a * *b;
            }
            *slot = acc;
        }
        out
    }

    /// Kronecker (tensor) product `self ⊗ rhs`.
    pub fn kron(&self, rhs: &CMatrix) -> CMatrix {
        let rows = self.rows * rhs.rows;
        let cols = self.cols * rhs.cols;
        let mut out = CMatrix::zeros(rows, cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                let a = self[(i, j)];
                if a.re == 0.0 && a.im == 0.0 {
                    continue;
                }
                for k in 0..rhs.rows {
                    for l in 0..rhs.cols {
                        out[(i * rhs.rows + k, j * rhs.cols + l)] = a * rhs[(k, l)];
                    }
                }
            }
        }
        out
    }

    /// Returns `true` when every entry differs from `other` by at most `tol`.
    pub fn approx_eq(&self, other: &CMatrix, tol: f64) -> bool {
        if self.rows != other.rows || self.cols != other.cols {
            return false;
        }
        self.data
            .iter()
            .zip(other.data.iter())
            .all(|(a, b)| a.approx_eq(*b, tol))
    }

    /// Returns `true` when the matrix is the identity up to `tol`.
    pub fn is_identity(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in 0..self.cols {
                let want = if i == j { C64::one() } else { C64::zero() };
                if !self[(i, j)].approx_eq(want, tol) {
                    return false;
                }
            }
        }
        true
    }

    /// Returns `true` when the matrix is unitary, i.e. `U† U = I` up to `tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        self.is_square() && self.dagger().matmul(self).is_identity(tol)
    }

    /// Returns `true` when the matrix is Hermitian up to `tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in 0..self.cols {
                if !self[(i, j)].approx_eq(self[(j, i)].conj(), tol) {
                    return false;
                }
            }
        }
        true
    }

    /// Returns `true` when all off-diagonal entries are below `tol` in modulus.
    pub fn is_diagonal(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in 0..self.cols {
                if i != j && self[(i, j)].abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Returns `true` when the matrix equals the identity up to a global phase.
    pub fn is_identity_up_to_phase(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        // Find the phase from the first diagonal entry of non-negligible modulus.
        let phase = self[(0, 0)];
        if (phase.abs() - 1.0).abs() > tol {
            return false;
        }
        let inv_phase = phase.conj();
        self.scale(inv_phase).is_identity(tol.max(1e-12) * 10.0)
    }

    /// Returns `true` when `self` and `other` are equal up to a global phase.
    pub fn approx_eq_up_to_phase(&self, other: &CMatrix, tol: f64) -> bool {
        if self.rows != other.rows || self.cols != other.cols {
            return false;
        }
        // Use the entry of largest modulus in `other` to fix the phase.
        let mut best = 0usize;
        let mut best_abs = 0.0;
        for (idx, z) in other.data.iter().enumerate() {
            if z.abs() > best_abs {
                best_abs = z.abs();
                best = idx;
            }
        }
        if best_abs < tol {
            return self.approx_eq(other, tol);
        }
        let phase = self.data[best] / other.data[best];
        if (phase.abs() - 1.0).abs() > 1e-6 {
            return false;
        }
        other.scale(phase).approx_eq(self, tol)
    }

    /// Embeds a `k`-qubit operator acting on `targets` into an `n`-qubit operator.
    ///
    /// `targets[0]` is the most-significant qubit of the small operator under the
    /// big-endian convention used throughout the workspace (qubit 0 is the
    /// left-most tensor factor).
    ///
    /// # Panics
    ///
    /// Panics if the operator dimension does not match `2^targets.len()`, if a
    /// target index repeats, or if a target is `>= n`.
    pub fn embed(&self, n: usize, targets: &[usize]) -> CMatrix {
        self.assert_acts_on(n, targets);
        let k = targets.len();
        let dim_small = 1usize << k;
        let dim = 1usize << n;
        let mut out = CMatrix::zeros(dim, dim);
        // For every basis state pair restricted to the non-target qubits, copy
        // the small operator block.
        let rest: Vec<usize> = (0..n).filter(|q| !targets.contains(q)).collect();
        let rest_dim = 1usize << rest.len();
        for rbits in 0..rest_dim {
            // Build the common part of the row/col index contributed by the
            // untouched qubits.
            let mut base = 0usize;
            for (pos, q) in rest.iter().enumerate() {
                // bit `pos` of rbits (MSB-first over `rest`)
                let bit = (rbits >> (rest.len() - 1 - pos)) & 1;
                base |= bit << (n - 1 - q);
            }
            for a in 0..dim_small {
                for b in 0..dim_small {
                    let v = self[(a, b)];
                    if v.re == 0.0 && v.im == 0.0 {
                        continue;
                    }
                    let mut row = base;
                    let mut col = base;
                    for (pos, q) in targets.iter().enumerate() {
                        let abit = (a >> (k - 1 - pos)) & 1;
                        let bbit = (b >> (k - 1 - pos)) & 1;
                        row |= abit << (n - 1 - q);
                        col |= bbit << (n - 1 - q);
                    }
                    out[(row, col)] = v;
                }
            }
        }
        out
    }

    /// Panics unless `self` is a `2^k × 2^k` operator for the `k` distinct
    /// `targets`, each below `n`.
    fn assert_acts_on(&self, n: usize, targets: &[usize]) {
        assert_eq!(
            self.rows,
            1 << targets.len(),
            "operator does not match target count"
        );
        assert!(self.is_square());
        for (idx, t) in targets.iter().enumerate() {
            assert!(*t < n, "target {t} out of range for {n} qubits");
            assert!(!targets[..idx].contains(t), "duplicate target qubit {t}");
        }
    }

    /// Left-multiplies `self` in place by a `k`-qubit operator acting on
    /// `targets`: `self ← gate.embed(n, targets) · self`, where `self` has
    /// `2ⁿ` rows. The `2ⁿ × 2ⁿ` embedding is never built. `rows` is scratch
    /// for the `2ᵏ` rows the gate mixes, reused across calls.
    ///
    /// The result is bit-for-bit that of
    /// `gate.embed(n, targets).matmul(self)`: each output row starts from
    /// `+0.0` and adds the same nonzero gate entries times the same rows, in
    /// the ascending row order [`matmul_into`](Self::matmul_into) visits them
    /// (for reversed targets that is not the gate's own column order).
    ///
    /// # Panics
    ///
    /// Panics if `self` does not have `2ⁿ` rows, if the operator dimension
    /// does not match `2^targets.len()`, if a target index repeats, or if a
    /// target is `>= n`.
    pub fn apply_gate(&mut self, gate: &CMatrix, targets: &[usize], rows: &mut Vec<C64>) {
        assert!(self.rows.is_power_of_two(), "row count is not 2^n");
        let n = self.rows.trailing_zeros() as usize;
        gate.assert_acts_on(n, targets);
        let k = targets.len();
        let dim_small = 1usize << k;
        // Gate basis state `b` sits at `base | offset(b)` in every group of
        // rows the gate mixes; `by_offset` lists (offset, b) ascending.
        let offset = |b: usize| {
            targets.iter().enumerate().fold(0, |acc, (pos, &q)| {
                acc | ((b >> (k - 1 - pos)) & 1) << (n - 1 - q)
            })
        };
        let mut by_offset: Vec<(usize, usize)> = (0..dim_small).map(|b| (offset(b), b)).collect();
        by_offset.sort_unstable();
        let mask = offset(dim_small - 1);
        let width = self.cols;
        rows.clear();
        rows.resize(dim_small * width, C64::zero());
        let mut base = 0usize;
        while base < self.rows {
            for (slot, &(off, _)) in by_offset.iter().enumerate() {
                rows[slot * width..(slot + 1) * width].copy_from_slice(self.row(base | off));
            }
            for &(off_a, a) in &by_offset {
                let row = base | off_a;
                let out = &mut self.data[row * width..(row + 1) * width];
                out.fill(C64::zero());
                for (slot, &(_, b)) in by_offset.iter().enumerate() {
                    let g = gate[(a, b)];
                    if g.re == 0.0 && g.im == 0.0 {
                        continue;
                    }
                    for (o, &r) in out.iter_mut().zip(&rows[slot * width..(slot + 1) * width]) {
                        *o += g * r;
                    }
                }
            }
            // The next index with every target bit clear.
            base = ((base | mask) + 1) & !mask;
        }
    }

    /// Raises a square matrix to a non-negative integer power.
    pub fn powi(&self, mut p: u32) -> CMatrix {
        assert!(self.is_square());
        let mut result = CMatrix::identity(self.rows);
        let mut base = self.clone();
        while p > 0 {
            if p & 1 == 1 {
                result = result.matmul(&base);
            }
            base = base.matmul(&base);
            p >>= 1;
        }
        result
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = C64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &C64 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut C64 {
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &CMatrix {
    type Output = CMatrix;
    fn add(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.rows, rhs.rows);
        assert_eq!(self.cols, rhs.cols);
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| *a + *b)
            .collect();
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub for &CMatrix {
    type Output = CMatrix;
    fn sub(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.rows, rhs.rows);
        assert_eq!(self.cols, rhs.cols);
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| *a - *b)
            .collect();
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Mul for &CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: &CMatrix) -> CMatrix {
        self.matmul(rhs)
    }
}

impl Neg for &CMatrix {
    type Output = CMatrix;
    fn neg(self) -> CMatrix {
        self.scale_re(-1.0)
    }
}

impl AddAssign<&CMatrix> for CMatrix {
    fn add_assign(&mut self, rhs: &CMatrix) {
        assert_eq!(self.rows, rhs.rows);
        assert_eq!(self.cols, rhs.cols);
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += *b;
        }
    }
}

impl SubAssign<&CMatrix> for CMatrix {
    fn sub_assign(&mut self, rhs: &CMatrix) {
        assert_eq!(self.rows, rhs.rows);
        assert_eq!(self.cols, rhs.cols);
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a -= *b;
        }
    }
}

impl fmt::Display for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CMatrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

/// The matrix kernels that the Padé exponential ([`crate::expm_into`]), the LU
/// solve ([`crate::linalg`]) and GRAPE's gradient evaluation are written
/// against, implemented by [`CMatrix`] (any size) and [`FixedMatrix`] (a
/// size fixed at compile time).
///
/// Both storages perform the same `f64` operations in the same order in
/// every kernel: products run the ikj loop from `+0.0`, skipping zero
/// left-hand entries; scaling multiplies each entry by the full complex
/// scalar, even a real one, which decides the sign of zero results. So an
/// algorithm written once against this trait returns bit-identical results
/// on either storage. A [`Default`] value is a placeholder buffer: each
/// kernel that writes a whole matrix (`matmul_into`, `scale_into`,
/// `copy_from`) shapes its output first.
pub trait MatrixStorage: Clone + Default {
    /// The `n × n` identity.
    ///
    /// # Panics
    ///
    /// Panics if the storage cannot hold an `n × n` matrix.
    fn identity(n: usize) -> Self;

    /// A copy of `a`.
    ///
    /// # Panics
    ///
    /// Panics if the storage cannot hold `a`'s shape.
    fn from_cmatrix(a: &CMatrix) -> Self;

    /// A copy as a [`CMatrix`].
    fn to_cmatrix(&self) -> CMatrix;

    /// Number of rows.
    fn rows(&self) -> usize;

    /// Number of columns.
    fn cols(&self) -> usize;

    /// Entry `(r, c)`.
    fn get(&self, r: usize, c: usize) -> C64;

    /// Overwrites entry `(r, c)`.
    fn set(&mut self, r: usize, c: usize, v: C64);

    /// Exchanges rows `a` and `b`.
    fn swap_rows(&mut self, a: usize, b: usize);

    /// Writes `self * rhs` into `out`. `self` and `rhs` may be the same
    /// matrix (squaring).
    fn matmul_into(&self, rhs: &Self, out: &mut Self);

    /// Writes `src * s` into `self`.
    fn scale_into(&mut self, src: &Self, s: C64);

    /// Adds `rhs * s` to `self` entry by entry (multiply, then accumulate).
    fn add_scaled(&mut self, rhs: &Self, s: C64);

    /// Adds `rhs` to `self` entry by entry.
    fn add_from(&mut self, rhs: &Self);

    /// Subtracts `rhs` from `self` entry by entry.
    fn sub_from(&mut self, rhs: &Self);

    /// Overwrites `self` with a copy of `src`.
    fn copy_from(&mut self, src: &Self);

    /// Adds `I * s` to `self`: the arithmetic of
    /// [`add_scaled`](Self::add_scaled) with an identity of `self`'s size,
    /// so every off-diagonal entry gains `0 * s`, which can change the sign
    /// of a zero entry.
    fn add_scaled_identity(&mut self, s: C64) {
        for r in 0..self.rows() {
            for c in 0..self.cols() {
                let e = if r == c { C64::one() } else { C64::zero() };
                self.set(r, c, self.get(r, c) + e * s);
            }
        }
    }

    /// 1-norm (maximum absolute column sum), used for `expm` scaling.
    fn one_norm(&self) -> f64 {
        let mut best = 0.0f64;
        for j in 0..self.cols() {
            let s: f64 = (0..self.rows()).map(|i| self.get(i, j).abs()).sum();
            best = best.max(s);
        }
        best
    }

    /// Whether every entry is finite (no NaN or infinite part).
    fn is_finite(&self) -> bool {
        (0..self.rows()).all(|r| (0..self.cols()).all(|c| self.get(r, c).is_finite()))
    }

    /// Inner (Hilbert–Schmidt) product `tr(self† rhs)`, summed in row-major
    /// order from `0`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    fn hs_inner(&self, rhs: &Self) -> C64 {
        assert_eq!(self.rows(), rhs.rows());
        assert_eq!(self.cols(), rhs.cols());
        let mut acc = C64::zero();
        for r in 0..self.rows() {
            for c in 0..self.cols() {
                acc += self.get(r, c).conj() * rhs.get(r, c);
            }
        }
        acc
    }
}

impl MatrixStorage for CMatrix {
    fn identity(n: usize) -> Self {
        CMatrix::identity(n)
    }

    fn from_cmatrix(a: &CMatrix) -> Self {
        a.clone()
    }

    fn to_cmatrix(&self) -> CMatrix {
        self.clone()
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn get(&self, r: usize, c: usize) -> C64 {
        self[(r, c)]
    }

    fn set(&mut self, r: usize, c: usize, v: C64) {
        self[(r, c)] = v;
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        for c in 0..self.cols {
            self.data.swap(a * self.cols + c, b * self.cols + c);
        }
    }

    fn matmul_into(&self, rhs: &Self, out: &mut Self) {
        CMatrix::matmul_into(self, rhs, out);
    }

    fn scale_into(&mut self, src: &Self, s: C64) {
        CMatrix::scale_into(self, src, s);
    }

    fn add_scaled(&mut self, rhs: &Self, s: C64) {
        CMatrix::add_scaled(self, rhs, s);
    }

    fn add_from(&mut self, rhs: &Self) {
        *self += rhs;
    }

    fn sub_from(&mut self, rhs: &Self) {
        *self -= rhs;
    }

    fn copy_from(&mut self, src: &Self) {
        CMatrix::copy_from(self, src);
    }
}

/// A dense complex `N × N` matrix whose size is fixed at compile time,
/// stored as separate row-major real and imaginary planes with no heap
/// storage, so its kernels compile to straight-line loops over known
/// bounds. The GRAPE models use `N` = 2, 4 and 8 (one to three qubits).
///
/// Its [`MatrixStorage`] kernels are bit-identical to [`CMatrix`]'s.
///
/// # Examples
///
/// ```
/// use qcc_math::{pauli, FixedMatrix, MatrixStorage};
/// let x = FixedMatrix::<2>::from_cmatrix(&pauli::sigma_x());
/// let mut xx = FixedMatrix::default();
/// x.matmul_into(&x, &mut xx);
/// assert_eq!(xx, FixedMatrix::identity(2));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FixedMatrix<const N: usize> {
    re: [[f64; N]; N],
    im: [[f64; N]; N],
}

impl<const N: usize> Default for FixedMatrix<N> {
    /// The `N × N` zero matrix.
    fn default() -> Self {
        Self {
            re: [[0.0; N]; N],
            im: [[0.0; N]; N],
        }
    }
}

// The kernels index rows and columns together, as `CMatrix`'s do; iterator
// chains over the two planes would hide the loop order they must keep.
#[allow(clippy::needless_range_loop)]
impl<const N: usize> MatrixStorage for FixedMatrix<N> {
    fn identity(n: usize) -> Self {
        assert_eq!(n, N, "FixedMatrix<{N}> cannot hold a {n}×{n} identity");
        let mut m = Self::default();
        for i in 0..N {
            m.re[i][i] = 1.0;
        }
        m
    }

    fn from_cmatrix(a: &CMatrix) -> Self {
        assert!(
            a.rows == N && a.cols == N,
            "FixedMatrix<{N}> cannot hold a {}×{} matrix",
            a.rows,
            a.cols
        );
        let mut m = Self::default();
        for r in 0..N {
            for c in 0..N {
                m.set(r, c, a[(r, c)]);
            }
        }
        m
    }

    fn to_cmatrix(&self) -> CMatrix {
        let mut m = CMatrix::zeros(N, N);
        for r in 0..N {
            for c in 0..N {
                m[(r, c)] = self.get(r, c);
            }
        }
        m
    }

    #[inline]
    fn rows(&self) -> usize {
        N
    }

    #[inline]
    fn cols(&self) -> usize {
        N
    }

    #[inline]
    fn get(&self, r: usize, c: usize) -> C64 {
        C64::new(self.re[r][c], self.im[r][c])
    }

    #[inline]
    fn set(&mut self, r: usize, c: usize, v: C64) {
        self.re[r][c] = v.re;
        self.im[r][c] = v.im;
    }

    #[inline]
    fn swap_rows(&mut self, a: usize, b: usize) {
        self.re.swap(a, b);
        self.im.swap(a, b);
    }

    #[inline]
    fn matmul_into(&self, rhs: &Self, out: &mut Self) {
        *out = Self::default();
        for i in 0..N {
            for k in 0..N {
                let (ar, ai) = (self.re[i][k], self.im[i][k]);
                if ar == 0.0 && ai == 0.0 {
                    continue;
                }
                for j in 0..N {
                    let (br, bi) = (rhs.re[k][j], rhs.im[k][j]);
                    out.re[i][j] += ar * br - ai * bi;
                    out.im[i][j] += ar * bi + ai * br;
                }
            }
        }
    }

    #[inline]
    fn scale_into(&mut self, src: &Self, s: C64) {
        for r in 0..N {
            for c in 0..N {
                let (zr, zi) = (src.re[r][c], src.im[r][c]);
                self.re[r][c] = zr * s.re - zi * s.im;
                self.im[r][c] = zr * s.im + zi * s.re;
            }
        }
    }

    #[inline]
    fn add_scaled(&mut self, rhs: &Self, s: C64) {
        for r in 0..N {
            for c in 0..N {
                let (zr, zi) = (rhs.re[r][c], rhs.im[r][c]);
                self.re[r][c] += zr * s.re - zi * s.im;
                self.im[r][c] += zr * s.im + zi * s.re;
            }
        }
    }

    #[inline]
    fn add_from(&mut self, rhs: &Self) {
        for r in 0..N {
            for c in 0..N {
                self.re[r][c] += rhs.re[r][c];
                self.im[r][c] += rhs.im[r][c];
            }
        }
    }

    #[inline]
    fn sub_from(&mut self, rhs: &Self) {
        for r in 0..N {
            for c in 0..N {
                self.re[r][c] -= rhs.re[r][c];
                self.im[r][c] -= rhs.im[r][c];
            }
        }
    }

    #[inline]
    fn copy_from(&mut self, src: &Self) {
        self.clone_from(src);
    }
}

/// Evaluates an expression with a type name bound to the storage for
/// `dim × dim` matrices: [`FixedMatrix`] for `dim` 2, 4 or 8 (one to three
/// qubits, every GRAPE model in the workspace), [`CMatrix`] otherwise. The
/// one place that decides which sizes run on fixed-size storage.
///
/// # Examples
///
/// ```
/// use qcc_math::{with_storage, MatrixStorage};
/// let (fixed, any) = (with_storage!(4, M => M::identity(4).to_cmatrix()),
///                     with_storage!(5, M => M::identity(5).to_cmatrix()));
/// assert!(fixed.is_identity(0.0) && any.is_identity(0.0));
/// ```
#[macro_export]
macro_rules! with_storage {
    ($dim:expr, $M:ident => $body:expr) => {
        match $dim {
            2 => {
                type $M = $crate::FixedMatrix<2>;
                $body
            }
            4 => {
                type $M = $crate::FixedMatrix<4>;
                $body
            }
            8 => {
                type $M = $crate::FixedMatrix<8>;
                $body
            }
            _ => {
                type $M = $crate::CMatrix;
                $body
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    fn pauli_x() -> CMatrix {
        CMatrix::from_rows(&[&[C64::zero(), C64::one()], &[C64::one(), C64::zero()]])
    }

    fn pauli_z() -> CMatrix {
        CMatrix::diag(&[C64::one(), C64::real(-1.0)])
    }

    #[test]
    fn identity_multiplication() {
        let x = pauli_x();
        let id = CMatrix::identity(2);
        assert!(x.matmul(&id).approx_eq(&x, 1e-14));
        assert!(id.matmul(&x).approx_eq(&x, 1e-14));
    }

    #[test]
    fn into_variants_match_allocating_ops_bit_for_bit() {
        let a = CMatrix::from_rows(&[
            &[c64(0.3, -1.2), c64(0.0, 0.7)],
            &[c64(-0.5, 0.1), c64(2.0, 0.0)],
        ]);
        let b = CMatrix::from_rows(&[
            &[c64(1.1, 0.4), c64(-0.2, 0.0)],
            &[c64(0.0, -0.9), c64(0.6, 0.3)],
        ]);
        let s = c64(0.7, -0.25);

        // matmul_into reuses a wrong-shaped buffer and still matches matmul.
        let mut out = CMatrix::zeros(5, 1);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        // Squaring aliases both operands.
        a.matmul_into(&a, &mut out);
        assert_eq!(out, a.matmul(&a));

        let mut scaled = CMatrix::zeros(0, 0);
        scaled.scale_into(&a, s);
        assert_eq!(scaled, a.scale(s));

        let mut acc = a.clone();
        acc.add_scaled(&b, s);
        let mut want = a.clone();
        want += &b.scale(s);
        assert_eq!(acc, want);

        let mut copy = CMatrix::zeros(1, 7);
        copy.copy_from(&b);
        assert_eq!(copy, b);
    }

    #[test]
    fn pauli_algebra() {
        let x = pauli_x();
        let z = pauli_z();
        // XZ = -ZX for Pauli matrices
        let xz = x.matmul(&z);
        let zx = z.matmul(&x).scale_re(-1.0);
        assert!(xz.approx_eq(&zx, 1e-14));
        assert!(x.matmul(&x).is_identity(1e-14));
        assert!(z.is_diagonal(1e-14));
        assert!(!x.is_diagonal(1e-14));
    }

    #[test]
    fn dagger_and_unitarity() {
        let h = CMatrix::from_real(2, 2, &[1.0, 1.0, 1.0, -1.0]).scale_re(1.0 / 2f64.sqrt());
        assert!(h.is_unitary(1e-12));
        assert!(h.is_hermitian(1e-12));
        assert!(h.dagger().approx_eq(&h, 1e-12));
    }

    #[test]
    fn kron_dimensions_and_values() {
        let x = pauli_x();
        let z = pauli_z();
        let xz = x.kron(&z);
        assert_eq!(xz.rows(), 4);
        assert_eq!(xz.cols(), 4);
        assert!(xz[(0, 2)].approx_eq(C64::one(), 1e-14));
        assert!(xz[(1, 3)].approx_eq(C64::real(-1.0), 1e-14));
        assert!(xz.is_unitary(1e-12));
    }

    #[test]
    fn trace_and_norms() {
        let z = pauli_z();
        assert!(z.trace().approx_eq(C64::zero(), 1e-14));
        assert!((z.frobenius_norm() - 2f64.sqrt()).abs() < 1e-14);
        assert!((z.one_norm() - 1.0).abs() < 1e-14);
        assert!((CMatrix::identity(3).trace().re - 3.0).abs() < 1e-14);
    }

    #[test]
    fn matvec_matches_matmul() {
        let x = pauli_x();
        let v = vec![c64(0.6, 0.0), c64(0.0, 0.8)];
        let mv = x.matvec(&v);
        assert!(mv[0].approx_eq(c64(0.0, 0.8), 1e-14));
        assert!(mv[1].approx_eq(c64(0.6, 0.0), 1e-14));
    }

    #[test]
    fn embed_single_qubit_in_two() {
        // X on qubit 1 of a 2-qubit system (big-endian): I ⊗ X
        let x = pauli_x();
        let emb = x.embed(2, &[1]);
        let want = CMatrix::identity(2).kron(&x);
        assert!(emb.approx_eq(&want, 1e-14));
        // X on qubit 0: X ⊗ I
        let emb0 = x.embed(2, &[0]);
        let want0 = x.kron(&CMatrix::identity(2));
        assert!(emb0.approx_eq(&want0, 1e-14));
    }

    #[test]
    fn embed_two_qubit_reversed_targets() {
        // CNOT with control q1, target q0 in a 2-qubit system is the "reverse CNOT".
        let cnot = CMatrix::from_real(
            4,
            4,
            &[
                1.0, 0.0, 0.0, 0.0, //
                0.0, 1.0, 0.0, 0.0, //
                0.0, 0.0, 0.0, 1.0, //
                0.0, 0.0, 1.0, 0.0,
            ],
        );
        let emb = cnot.embed(2, &[1, 0]);
        // |01> -> |11>, |11> -> |01>
        assert!(emb[(3, 1)].approx_eq(C64::one(), 1e-14));
        assert!(emb[(1, 3)].approx_eq(C64::one(), 1e-14));
        assert!(emb[(0, 0)].approx_eq(C64::one(), 1e-14));
        assert!(emb.is_unitary(1e-12));
    }

    #[test]
    fn phase_insensitive_comparison() {
        let x = pauli_x();
        let phased = x.scale(C64::cis(0.7));
        assert!(phased.approx_eq_up_to_phase(&x, 1e-12));
        assert!(!phased.approx_eq(&x, 1e-12));
        let id_phase = CMatrix::identity(4).scale(C64::cis(-1.2));
        assert!(id_phase.is_identity_up_to_phase(1e-10));
    }

    #[test]
    fn powi_matches_repeated_multiplication() {
        let x = pauli_x();
        assert!(x.powi(0).is_identity(1e-14));
        assert!(x.powi(2).is_identity(1e-14));
        assert!(x.powi(3).approx_eq(&x, 1e-14));
    }

    #[test]
    #[should_panic]
    fn matmul_dimension_mismatch_panics() {
        let a = CMatrix::zeros(2, 3);
        let b = CMatrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn operators_add_sub() {
        let x = pauli_x();
        let z = pauli_z();
        let s = &x + &z;
        let d = &s - &z;
        assert!(d.approx_eq(&x, 1e-14));
        let mut acc = CMatrix::zeros(2, 2);
        acc += &x;
        acc -= &x;
        assert!(acc.approx_eq(&CMatrix::zeros(2, 2), 1e-14));
    }
}
