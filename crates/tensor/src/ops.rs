//! Element-wise and matrix operations on [`Tensor2`].

use crate::{HostIsa, Tensor2, TensorError};

impl Tensor2 {
    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Self) -> Result<Self, TensorError> {
        self.zip_with("add", other, |a, b| a + b)
    }

    /// Element-wise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Self) -> Result<Self, TensorError> {
        self.zip_with("sub", other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, other: &Self) -> Result<Self, TensorError> {
        self.zip_with("mul", other, |a, b| a * b)
    }

    /// Element-wise `self + other × s` in one pass, with the bits of
    /// `self.add(&other.scale(s))`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add_scaled(&self, other: &Self, s: f32) -> Result<Self, TensorError> {
        self.zip_with("add_scaled", other, |a, b| a + b * s)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Self {
        self.map(|x| x * s)
    }

    /// Adds a row vector (`1 × cols` broadcast) to every row, e.g. a bias.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `bias` is not `1 × cols`.
    pub fn add_bias(&self, bias: &Self) -> Result<Self, TensorError> {
        if bias.shape() != (1, self.cols()) {
            return Err(TensorError::ShapeMismatch {
                op: "add_bias",
                lhs: self.shape(),
                rhs: bias.shape(),
            });
        }
        let mut out = self.clone();
        let b = bias.as_slice();
        for row in out.as_mut_slice().chunks_exact_mut(b.len()) {
            for (x, &bv) in row.iter_mut().zip(b) {
                *x += bv;
            }
        }
        Ok(out)
    }

    /// Matrix multiplication `self × other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless
    /// `self.cols() == other.rows()`.
    pub fn matmul(&self, other: &Self) -> Result<Self, TensorError> {
        gemm(self, other)
    }

    fn zip_with(
        &self,
        op: &'static str,
        other: &Self,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Self, TensorError> {
        self.check_same_shape(op, other)?;
        let data = self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Tensor2::from_vec(self.rows(), self.cols(), data)
    }
}

/// Register-blocked matrix multiplication `a × b`.
///
/// The output is walked in blocks of up to four rows and column panels of
/// width 16, 8, 4 and 1; each block's accumulators stay in registers for
/// the whole `k` loop, so an output element is stored once instead of once
/// per `k` step. The panel kernel is compiled for each [`HostIsa`] tier and
/// runs at the widest one the CPU supports.
///
/// Every element gets exactly the bits of the textbook `i-k-j` loop that
/// skips zero lhs entries: it is still `((0 + a₀b₀) + a₁b₁) + …` in
/// ascending `k` (Rust never contracts this into an FMA, at any tier).
/// Adding the `±0` product of a zero lhs entry leaves a partial sum
/// unchanged, because a sum that starts at `+0.0` can never become `-0.0`;
/// it differs from skipping only when the rhs row holds an infinity or NaN
/// (`0 × ∞` is NaN). So in calls whose rhs has such a row, a zero lhs entry
/// against it is multiplied by a zero row instead, which adds `±0` and
/// changes no bit; the common all-finite call needs no such mask. NaN
/// payloads are not specified by Rust, so which NaN an element holds may
/// differ from the loop's.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless `a.cols() == b.rows()`.
///
/// # Example
///
/// ```
/// use ugrapher_tensor::{gemm, Tensor2};
///
/// # fn main() -> Result<(), ugrapher_tensor::TensorError> {
/// let a = Tensor2::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0])?;
/// let b = Tensor2::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0])?;
/// let c = gemm(&a, &b)?;
/// assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
/// # Ok(())
/// # }
/// ```
pub fn gemm(a: &Tensor2, b: &Tensor2) -> Result<Tensor2, TensorError> {
    gemm_on(a, b, HostIsa::detect())
}

/// [`gemm`] at tier `isa`, or at the portable tier if the CPU lacks `isa`.
fn gemm_on(a: &Tensor2, b: &Tensor2, isa: HostIsa) -> Result<Tensor2, TensorError> {
    if a.cols() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Tensor2::zeros(m, n);
    if m == 0 || n == 0 {
        return Ok(out);
    }
    // Rows of `b` where skipping a zero lhs entry is not the same as adding
    // its product.
    let skip: Vec<bool> = b
        .iter_rows()
        .map(|row| !row.iter().all(|v| v.is_finite()))
        .collect();
    let g = Gemm {
        a: a.as_slice(),
        b: b.as_slice(),
        k,
        n,
        skip: &skip,
        isa,
    };
    if skip.contains(&true) {
        g.run::<true>(out.as_mut_slice());
    } else {
        g.run::<false>(out.as_mut_slice());
    }
    Ok(out)
}

/// Operands of one [`gemm`] call: row-major `a` (`m × k`) and `b`
/// (`k × n`), which rows of `b` keep the zero skip, and the tier to run.
struct Gemm<'a> {
    a: &'a [f32],
    b: &'a [f32],
    k: usize,
    n: usize,
    skip: &'a [bool],
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    isa: HostIsa,
}

impl Gemm<'_> {
    /// Fills `out` (`m × n`, zeroed) in blocks of four rows, then the last
    /// `m % 4` rows one by one.
    fn run<const SKIP: bool>(&self, out: &mut [f32]) {
        let mut quads = out.chunks_exact_mut(4 * self.n);
        let mut i = 0;
        for block in &mut quads {
            self.rows::<4, SKIP>(i, block);
            i += 4;
        }
        for row in quads.into_remainder().chunks_exact_mut(self.n) {
            self.rows::<1, SKIP>(i, row);
            i += 1;
        }
    }

    /// Fills the `R` output rows `out` (starting at row `i`) in column
    /// panels of width 16, 8, 4 and 1.
    fn rows<const R: usize, const SKIP: bool>(&self, i: usize, out: &mut [f32]) {
        let mut j = 0;
        while j + 16 <= self.n {
            self.panel::<R, 16, SKIP>(i, j, out);
            j += 16;
        }
        if j + 8 <= self.n {
            self.panel::<R, 8, SKIP>(i, j, out);
            j += 8;
        }
        if j + 4 <= self.n {
            self.panel::<R, 4, SKIP>(i, j, out);
            j += 4;
        }
        while j < self.n {
            self.panel::<R, 1, SKIP>(i, j, out);
            j += 1;
        }
    }

    /// Runs one panel at the AVX2 tier if `self.isa` asks for it and the
    /// CPU has it, else at the portable tier.
    #[inline(always)]
    fn panel<const R: usize, const W: usize, const SKIP: bool>(
        &self,
        i: usize,
        j: usize,
        out: &mut [f32],
    ) {
        #[cfg(target_arch = "x86_64")]
        if self.isa == HostIsa::Avx2 && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `panel_avx2` needs no CPU feature beyond AVX2, and
            // `is_x86_feature_detected!("avx2")` has just reported it.
            return unsafe { self.panel_avx2::<R, W, SKIP>(i, j, out) };
        }
        self.panel_portable::<R, W, SKIP>(i, j, out);
    }

    /// [`Gemm::panel_body`] for the build target's baseline features. Kept
    /// out of line so every instantiation is register-allocated on its own.
    #[inline(never)]
    fn panel_portable<const R: usize, const W: usize, const SKIP: bool>(
        &self,
        i: usize,
        j: usize,
        out: &mut [f32],
    ) {
        self.panel_body::<R, W, SKIP>(i, j, out);
    }

    /// [`Gemm::panel_body`] compiled for AVX2 (eight-lane vectors). Running
    /// it on a CPU without AVX2 is undefined behaviour, so its one caller
    /// checks `is_x86_feature_detected!("avx2")` first.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[inline(never)]
    fn panel_avx2<const R: usize, const W: usize, const SKIP: bool>(
        &self,
        i: usize,
        j: usize,
        out: &mut [f32],
    ) {
        self.panel_body::<R, W, SKIP>(i, j, out);
    }

    /// Accumulates the `R × W` block at rows `i..i + R` and columns
    /// `j..j + W` in registers over the whole `k` loop, then stores it once
    /// into `out` (whose first row is row `i`). Always inlined into one
    /// wrapper per tier, which picks the vector width.
    #[inline(always)]
    fn panel_body<const R: usize, const W: usize, const SKIP: bool>(
        &self,
        i: usize,
        j: usize,
        out: &mut [f32],
    ) {
        let a: [&[f32]; R] = std::array::from_fn(|r| &self.a[(i + r) * self.k..][..self.k]);
        let mut acc = [[0.0f32; W]; R];
        for (kk, brow) in self.b.chunks_exact(self.n).enumerate() {
            let (b4, b1) = brow[j..j + W].as_chunks::<4>();
            let skip = SKIP && self.skip[kk];
            for (acc_r, a_r) in acc.iter_mut().zip(&a) {
                let av = a_r[kk];
                // The zero skip as a mask that zeroes the rhs lanes, not a
                // branch, so both paths vectorise. `black_box` hides that
                // the mask is all or nothing: LLVM otherwise turns it back
                // into a branch and leaves the accumulators scalar.
                let keep = if SKIP {
                    std::hint::black_box(u32::from(!(skip & (av == 0.0))).wrapping_neg())
                } else {
                    u32::MAX
                };
                let (o4, o1) = acc_r.as_chunks_mut::<4>();
                for (o, b) in o4.iter_mut().zip(b4) {
                    axpy4(o, av, b, keep);
                }
                for (o, &bv) in o1.iter_mut().zip(b1) {
                    *o += av * f32::from_bits(bv.to_bits() & keep);
                }
            }
        }
        for (acc_r, orow) in acc.iter().zip(out.chunks_exact_mut(self.n)) {
            orow[j..j + W].copy_from_slice(acc_r);
        }
    }
}

/// `o += a × (b & keep)` on one four-lane group: `o += a × b` when `keep`
/// is all ones, and an add of `a × +0.0 = ±0`, which leaves `o` unchanged,
/// when it is zero. Spelled out lane by lane, which LLVM turns into one
/// vector and (gone when `keep` is the constant all-ones), multiply and
/// add; a nested lane loop left some panel widths scalar.
#[inline(always)]
fn axpy4(o: &mut [f32; 4], a: f32, b: &[f32; 4], keep: u32) {
    o[0] += a * f32::from_bits(b[0].to_bits() & keep);
    o[1] += a * f32::from_bits(b[1].to_bits() & keep);
    o[2] += a * f32::from_bits(b[2].to_bits() & keep);
    o[3] += a * f32::from_bits(b[3].to_bits() & keep);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugrapher_util::rng::StdRng;

    fn t(rows: usize, cols: usize, v: &[f32]) -> Tensor2 {
        Tensor2::from_vec(rows, cols, v.to_vec()).unwrap()
    }

    #[test]
    fn add_sub_mul() {
        let a = t(1, 3, &[1.0, 2.0, 3.0]);
        let b = t(1, 3, &[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    fn add_scaled_matches_add_of_scale() {
        let a = t(1, 4, &[1.0, -0.0, 3.5, f32::MAX]);
        let b = t(1, 4, &[0.1, 0.0, -7.25, f32::MAX]);
        for s in [1.0, 0.3, -2.0] {
            let fused = a.add_scaled(&b, s).unwrap();
            let two_pass = a.add(&b.scale(s)).unwrap();
            let bits = |x: &Tensor2| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fused), bits(&two_pass), "s = {s}");
        }
        assert!(a.add_scaled(&Tensor2::zeros(2, 2), 1.0).is_err());
    }

    #[test]
    fn scale_multiplies() {
        let a = t(1, 2, &[1.0, -2.0]);
        assert_eq!(a.scale(3.0).as_slice(), &[3.0, -6.0]);
    }

    #[test]
    fn add_bias_broadcasts() {
        let x = Tensor2::zeros(3, 2);
        let b = t(1, 2, &[1.0, 2.0]);
        let y = x.add_bias(&b).unwrap();
        for r in 0..3 {
            assert_eq!(y.row(r), &[1.0, 2.0]);
        }
    }

    #[test]
    fn add_bias_rejects_bad_shape() {
        let x = Tensor2::zeros(3, 2);
        let b = Tensor2::zeros(1, 3);
        assert!(x.add_bias(&b).is_err());
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor2::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
        assert_eq!(a.matmul(&Tensor2::eye(3)).unwrap(), a);
        assert_eq!(Tensor2::eye(3).matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_rectangular() {
        let a = t(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(3, 1, &[1.0, 1.0, 1.0]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), (2, 1));
        assert_eq!(c.as_slice(), &[6.0, 15.0]);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Tensor2::zeros(2, 3);
        let b = Tensor2::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    /// Output bits, with every NaN read as one pattern: Rust leaves NaN
    /// payloads unspecified.
    fn bits(t: &Tensor2) -> Vec<u32> {
        t.as_slice()
            .iter()
            .map(|v| if v.is_nan() { f32::NAN } else { *v }.to_bits())
            .collect()
    }

    /// The portable and AVX2 instances of every `R`/`W`/`SKIP` panel give
    /// the same bits. `m` crosses four-row blocks and single-row
    /// remainders, `n = 31` runs every panel width (16 + 8 + 4 + 1 + 1 + 1),
    /// and the rhs is all finite (`SKIP = false`) or has non-finite rows
    /// (`SKIP = true`). Values mix `±0.0`, subnormals, `f32::MAX`, `±∞` and
    /// NaN into ordinary magnitudes.
    #[test]
    fn avx2_tier_is_bitwise_equal_to_portable() {
        if HostIsa::detect() != HostIsa::Avx2 {
            eprintln!("note: this CPU has no AVX2, so the AVX2 GEMM tier is not compared");
            return;
        }
        const SPECIAL: [f32; 8] = [
            0.0,
            -0.0,
            f32::MIN_POSITIVE / 4.0,
            f32::MAX,
            -1.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        let mut rng = StdRng::seed_from_u64(19);
        // A quarter of the values from SPECIAL's first `specials` entries.
        let mut values = |rows: usize, cols: usize, specials: usize| {
            Tensor2::from_fn(rows, cols, |_, _| {
                if rng.random_range(0..4u32) == 0 {
                    SPECIAL[rng.random_range(0..specials)]
                } else {
                    rng.random::<f32>() * 4.0 - 2.0
                }
            })
        };
        let mut skip_calls = 0;
        for m in [1, 3, 4, 5, 8, 9] {
            for n in [1, 4, 8, 16, 31] {
                for k in [0, 1, 7, 33] {
                    for rhs_specials in [5, SPECIAL.len()] {
                        let a = values(m, k, SPECIAL.len());
                        let b = values(k, n, rhs_specials);
                        skip_calls += usize::from(b.as_slice().iter().any(|v| !v.is_finite()));
                        let portable = gemm_on(&a, &b, HostIsa::Portable).unwrap();
                        let avx2 = gemm_on(&a, &b, HostIsa::Avx2).unwrap();
                        assert_eq!(bits(&portable), bits(&avx2), "m {m}, k {k}, n {n}");
                    }
                }
            }
        }
        assert!(skip_calls > 50, "only {skip_calls} calls ran the zero skip");
    }

    #[test]
    fn matmul_associativity_small() {
        let a = Tensor2::from_fn(2, 3, |r, c| (r + c) as f32);
        let b = Tensor2::from_fn(3, 2, |r, c| (r * c + 1) as f32);
        let c = Tensor2::from_fn(2, 2, |r, c| (r as f32) - (c as f32));
        let ab_c = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let a_bc = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        assert!(ab_c.approx_eq(&a_bc, 1e-4).unwrap());
    }
}
