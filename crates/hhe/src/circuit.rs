//! The homomorphic PASTA keystream circuit, written once (paper Fig. 1,
//! server side): `r + 1` affine layers, every one but the last followed
//! by Mix and an S-box — Feistel in the first `r − 1` rounds, cube in
//! the final one — then truncation to the left half.
//!
//! The scalar server ([`crate::server`]) and the slot-parallel servers
//! ([`crate::batched`], [`crate::mux`]) run this one schedule and differ
//! only in how an affine layer weighs its inputs: by scalars on
//! coefficient-form ciphertexts, or by NTT-prepared slot plaintexts on
//! NTT-hoisted ones. Each passes that step in as a closure. The packed
//! server ([`crate::packed`]) keeps its own evaluator: its whole state
//! lives in one ciphertext, so its Mix and S-box are lane rotations.
//!
//! The S-box squarings, the expensive part of the circuit, fan out
//! across the worker pool (`PASTA_THREADS`), bit-exact for any thread
//! count.

use pasta_core::PastaParams;
use pasta_fhe::{BfvContext, BfvRelinKey, Ciphertext as FheCiphertext, FheError};

/// Evaluates the keystream circuit from the key-state halves `left` and
/// `right`, returning the `t` left positions after the final affine
/// layer. `affine(layer, is_left, half)` applies affine layer `layer`
/// (matrix and round constant) to one state half.
///
/// # Errors
///
/// Returns [`FheError::Incompatible`] on an empty state half; propagates
/// errors from the affine step and the squarings.
pub(crate) fn eval_keystream(
    ctx: &BfvContext,
    params: &PastaParams,
    relin_key: &BfvRelinKey,
    left: &[FheCiphertext],
    right: &[FheCiphertext],
    affine: impl Fn(usize, bool, &[FheCiphertext]) -> Result<Vec<FheCiphertext>, FheError>,
) -> Result<Vec<FheCiphertext>, FheError> {
    if left.is_empty() || right.is_empty() {
        return Err(FheError::Incompatible(
            "affine layer applied to an empty state half".into(),
        ));
    }
    let r = params.rounds();
    let mut left = left.to_vec();
    let mut right = right.to_vec();
    for layer in 0..params.affine_layers() {
        left = affine(layer, true, &left)?;
        right = affine(layer, false, &right)?;
        if layer < r {
            mix(ctx, &mut left, &mut right)?;
            sbox(ctx, relin_key, &mut left, &mut right, layer == r - 1)?;
        }
    }
    Ok(left) // truncation
}

/// The `rows` outputs of one affine layer on one half, `row(i)` each,
/// computed on the worker pool (output rows are independent).
pub(crate) fn affine_rows(
    rows: usize,
    row: impl Fn(usize) -> Result<FheCiphertext, FheError> + Sync,
) -> Result<Vec<FheCiphertext>, FheError> {
    let rows: Vec<usize> = (0..rows).collect();
    pasta_par::parallel_map(&rows, |_, &i| row(i))
        .into_iter()
        .collect()
}

/// Mix: `(2L + R, 2R + L)` element-wise, additions only.
fn mix(
    ctx: &BfvContext,
    left: &mut [FheCiphertext],
    right: &mut [FheCiphertext],
) -> Result<(), FheError> {
    for (l, r) in left.iter_mut().zip(right.iter_mut()) {
        let mut sum = l.clone();
        ctx.add_assign(&mut sum, r)?;
        ctx.add_assign(l, &sum)?;
        ctx.add_assign(r, &sum)?;
    }
    Ok(())
}

/// S-box over the concatenated state: Feistel `y_0 = x_0`,
/// `y_j = x_j + x_{j−1}²` (on input values), or in the final round the
/// cube `x³ = relin(x²)·x`, relinearized again.
fn sbox(
    ctx: &BfvContext,
    relin_key: &BfvRelinKey,
    left: &mut [FheCiphertext],
    right: &mut [FheCiphertext],
    is_final_round: bool,
) -> Result<(), FheError> {
    let t = left.len();
    let mut full: Vec<FheCiphertext> = left.iter().chain(right.iter()).cloned().collect();
    if is_final_round {
        full = pasta_par::parallel_map(&full, |_, x| {
            let sq = ctx.square_relin(x, relin_key)?;
            ctx.mul_relin(&sq, x, relin_key)
        })
        .into_iter()
        .collect::<Result<_, _>>()?;
    } else {
        let squares: Vec<FheCiphertext> =
            pasta_par::parallel_map(&full[..full.len() - 1], |_, x| {
                ctx.square_relin(x, relin_key)
            })
            .into_iter()
            .collect::<Result<_, _>>()?;
        for j in (1..full.len()).rev() {
            ctx.add_assign(&mut full[j], &squares[j - 1])?;
        }
    }
    left.clone_from_slice(&full[..t]);
    right.clone_from_slice(&full[t..]);
    Ok(())
}
