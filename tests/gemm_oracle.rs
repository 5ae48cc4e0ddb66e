//! Differential test of the register-blocked GEMM against the textbook
//! `i-k-j` loop it replaced: every output element must carry the same bits.
//!
//! Shapes cross every column-panel width (16, 8, 4, 1), every row-block
//! remainder and both `k` extremes. Values include exact zeros of both
//! signs, subnormals, infinities and NaN on the lhs, and rhs rows holding
//! infinities or NaN, where the loop's zero skip decides the result
//! (`0 × ∞` is NaN). Two NaNs compare equal whatever their payloads: Rust
//! leaves NaN payloads unspecified and LLVM may commute an addition.

use ugrapher::tensor::{gemm, Tensor2};
use ugrapher::util::check::forall;
use ugrapher::util::rng::StdRng;

/// The loop `gemm` replaced: `i-k-j` order, skipping zero lhs entries.
fn oracle(a: &Tensor2, b: &Tensor2) -> Tensor2 {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Tensor2::zeros(m, n);
    let bd = b.as_slice();
    for i in 0..m {
        let arow = a.row(i);
        let orow = out.row_mut(i);
        for (kk, &av) in arow.iter().enumerate().take(k) {
            if av == 0.0 {
                continue;
            }
            let brow = &bd[kk * n..(kk + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    out
}

/// Bitwise equality, with any NaN equal to any NaN.
fn same_bits(a: &Tensor2, b: &Tensor2) -> Result<(), String> {
    if a.shape() != b.shape() {
        return Err(format!("shape {:?} vs {:?}", a.shape(), b.shape()));
    }
    for (idx, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        if x.to_bits() != y.to_bits() && !(x.is_nan() && y.is_nan()) {
            let (r, c) = (idx / a.cols(), idx % a.cols());
            return Err(format!("({r}, {c}) of {:?}: {x:e} vs {y:e}", a.shape()));
        }
    }
    Ok(())
}

fn check(a: &Tensor2, b: &Tensor2) -> Result<(), String> {
    let got = gemm(a, b).map_err(|e| e.to_string())?;
    same_bits(&got, &oracle(a, b))
}

/// A finite value: mostly ordinary magnitudes of both signs, with exact
/// zeros (as after a ReLU), negative zeros and subnormals mixed in.
fn finite(rng: &mut StdRng) -> f32 {
    match rng.random_range(0..10u32) {
        0..=2 => 0.0,
        3 => -0.0,
        4 => f32::from_bits(rng.random_range(1..0x0080_0000u32)) * sign(rng),
        _ => (rng.random::<f32>() * 4.0 - 2.0) * 2f32.powi(rng.random_range(-8..8i32)),
    }
}

fn sign(rng: &mut StdRng) -> f32 {
    if rng.random::<bool>() {
        1.0
    } else {
        -1.0
    }
}

/// One of `+∞`, `-∞` or NaN.
fn non_finite(rng: &mut StdRng) -> f32 {
    match rng.random_range(0..3u32) {
        0 => f32::INFINITY,
        1 => f32::NEG_INFINITY,
        _ => f32::NAN,
    }
}

/// Random operands of shape `m × k` and `k × n`. With `wild`, a few lhs
/// entries are non-finite and about a quarter of the rhs rows hold a
/// non-finite value.
fn operands(rng: &mut StdRng, m: usize, k: usize, n: usize, wild: bool) -> (Tensor2, Tensor2) {
    let a = Tensor2::from_fn(m, k, |_, _| {
        if wild && rng.random_range(0..40u32) == 0 {
            non_finite(rng)
        } else {
            finite(rng)
        }
    });
    let wild_rows: Vec<bool> = (0..k)
        .map(|_| wild && rng.random_range(0..4u32) == 0)
        .collect();
    let b = Tensor2::from_fn(k, n, |r, _| {
        if wild_rows[r] && rng.random_range(0..3u32) == 0 {
            non_finite(rng)
        } else {
            finite(rng)
        }
    });
    (a, b)
}

fn shape(rng: &mut StdRng) -> (usize, usize, usize) {
    (
        rng.random_range(0..=13usize),
        rng.random_range(0..=70usize),
        rng.random_range(0..=70usize),
    )
}

#[test]
fn finite_operands_match_the_loop_bitwise() {
    forall("gemm_finite", 2000, |rng| {
        let (m, k, n) = shape(rng);
        let (a, b) = operands(rng, m, k, n, false);
        check(&a, &b)
    });
}

#[test]
fn non_finite_operands_match_the_loop_bitwise() {
    forall("gemm_non_finite", 2000, |rng| {
        let (m, k, n) = shape(rng);
        let (a, b) = operands(rng, m, k, n, true);
        check(&a, &b)
    });
}

#[test]
fn every_panel_and_row_remainder_matches_the_loop() {
    let mut rng = StdRng::seed_from_u64(0x6e6d);
    for m in 0..=13 {
        for n in 0..=70 {
            for (k, wild) in [(0, false), (1, true), (7, false), (7, true)] {
                let (a, b) = operands(&mut rng, m, k, n, wild);
                if let Err(e) = check(&a, &b) {
                    panic!("m={m} k={k} n={n} wild={wild}: {e}");
                }
            }
        }
    }
}

#[test]
fn zero_lhs_entries_skip_non_finite_rhs_rows() {
    // Row 0 of `b` is infinite and row 1 NaN; a zero lhs entry in front of
    // either contributes nothing, as in the loop.
    let a = Tensor2::from_vec(2, 3, vec![0.0, -0.0, 2.0, 1.0, 0.0, 0.5]).unwrap();
    let b = Tensor2::from_vec(
        3,
        2,
        vec![f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1.0, 3.0, -4.0],
    )
    .unwrap();
    let c = gemm(&a, &b).unwrap();
    assert_eq!(c.row(0), &[6.0, -8.0]);
    assert_eq!(c.row(1)[0], f32::INFINITY);
    assert_eq!(c.row(1)[1], f32::NEG_INFINITY);
    same_bits(&c, &oracle(&a, &b)).unwrap();
}

#[test]
fn sums_of_zero_products_are_positive_zero() {
    // Every product is ±0, so every element stays +0.0, never -0.0.
    let a = Tensor2::from_fn(5, 9, |r, c| if (r + c) % 2 == 0 { -0.0 } else { 0.0 });
    let b = Tensor2::from_fn(9, 21, |r, c| if (r * c) % 3 == 0 { -1.5 } else { 2.0 });
    let c = gemm(&a, &b).unwrap();
    assert!(c.as_slice().iter().all(|v| v.to_bits() == 0));
    same_bits(&c, &oracle(&a, &b)).unwrap();
}
