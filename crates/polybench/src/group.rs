//! Shared loops of the group bodies: work-group range versions of the
//! kernels whose per-item bodies stride through a matrix or run one long
//! dependent sum.
//!
//! A per-item body computes one output element with one running sum. When
//! that sum walks down a matrix column (`a[i*n + j]` over `i`), every load
//! is a cache miss at benchmark sizes. A group body keeps one accumulator
//! per output element of its range, on the stack in blocks of at most `W`
//! columns (full blocks plus one tail, for any local size), and moves the
//! reduction index to the outer loop, so the inner loop reads a contiguous
//! row segment. When the sum walks along a row instead, it already streams,
//! but each add waits on the one before; a group body then interleaves
//! several rows so their sums overlap. Either way every element still adds
//! its terms in the per-item order with the same operands, so the stored
//! bits are identical.

use std::ops::Range;

/// `cols` cut into consecutive blocks of at most `W` columns.
pub(crate) fn blocks<const W: usize>(cols: Range<usize>) -> impl Iterator<Item = Range<usize>> {
    let end = cols.end;
    cols.step_by(W).map(move |c| c..(c + W).min(end))
}

/// `acc[t] += term(seg[t])` over a block's row segment. A full block
/// (`seg.len() == W`) takes a fixed-width loop the compiler unrolls and
/// vectorizes; the tail block loops over its length.
#[inline(always)]
pub(crate) fn accumulate<const W: usize>(
    acc: &mut [f32; W],
    seg: &[f32],
    term: impl Fn(f32) -> f32,
) {
    match <&[f32; W]>::try_from(seg) {
        Ok(seg) => {
            for (s, &x) in acc.iter_mut().zip(seg) {
                *s += term(x);
            }
        }
        Err(_) => {
            for (s, &x) in acc.iter_mut().zip(seg) {
                *s += term(x);
            }
        }
    }
}

/// Accumulators per block of [`column_dots`] (4 KB on the stack): each
/// step then streams a page-long segment of a matrix row, which the
/// hardware prefetcher follows; narrower blocks measured slower.
const COL_BLOCK: usize = 1024;

/// For every column `j` in `cols`, `Σ_{i<n} a[i*n + j] * v[i]` summed in
/// `i` order, handed to `emit(j, sum)`. Four rows go through each block in
/// one pass, so every accumulator is loaded and stored once per four terms
/// (added in the same order).
pub(crate) fn column_dots(
    a: &[f32],
    v: &[f32],
    n: usize,
    cols: Range<usize>,
    mut emit: impl FnMut(usize, f32),
) {
    let quads = v[..n].chunks_exact(4);
    let rest = quads.remainder();
    for blk in blocks::<COL_BLOCK>(cols) {
        let mut acc = [0.0f32; COL_BLOCK];
        let acc = &mut acc[..blk.len()];
        let seg = |i: usize| &a[i * n + blk.start..i * n + blk.end];
        for (i, vq) in (0..).step_by(4).zip(quads.clone()) {
            let (v0, v1, v2, v3) = (vq[0], vq[1], vq[2], vq[3]);
            let rows = acc
                .iter_mut()
                .zip(seg(i))
                .zip(seg(i + 1))
                .zip(seg(i + 2))
                .zip(seg(i + 3));
            for ((((s, &x0), &x1), &x2), &x3) in rows {
                *s = *s + x0 * v0 + x1 * v1 + x2 * v2 + x3 * v3;
            }
        }
        for (i, &vi) in (n - rest.len()..).zip(rest) {
            for (s, &x) in acc.iter_mut().zip(seg(i)) {
                *s += x * vi;
            }
        }
        for (j, &s) in blk.zip(acc.iter()) {
            emit(j, s);
        }
    }
}

/// For every row `i` in `rows`, the `M` dot products
/// `Σ_{k<n} m[i*n + k] * x[k]` of the matrices `m` in `mats`, each summed
/// in `k` order, handed to `emit(i, sums)`. `R` rows go together, so
/// their `R·M` sums are independent add chains that overlap in the FPU
/// where one per-item sum waits on each add; lanes past a tail block's end
/// recompute its last row and are dropped.
pub(crate) fn row_dots<const M: usize, const R: usize>(
    mats: [&[f32]; M],
    x: &[f32],
    n: usize,
    rows: Range<usize>,
    mut emit: impl FnMut(usize, [f32; M]),
) {
    let x = &x[..n];
    for blk in blocks::<R>(rows) {
        let row: [[&[f32]; M]; R] = std::array::from_fn(|t| {
            let r = (blk.start + t).min(blk.end - 1);
            mats.map(|m| &m[r * n..][..n])
        });
        let mut acc = [[0.0f32; M]; R];
        for (k, &xk) in x.iter().enumerate() {
            for (s, row) in acc.iter_mut().zip(&row) {
                for (s, m) in s.iter_mut().zip(row) {
                    *s += m[k] * xk;
                }
            }
        }
        for (i, &s) in blk.zip(acc.iter()) {
            emit(i, s);
        }
    }
}

/// For every row `i` in `rows` and column `j` in `cols`,
/// `Σ_{k<n} a[i*n + k] * b[k*n + j]` summed in `k` order, handed to
/// `emit(i, j, sum)`.
pub(crate) fn matmul<const W: usize>(
    a: &[f32],
    b: &[f32],
    n: usize,
    rows: Range<usize>,
    cols: Range<usize>,
    mut emit: impl FnMut(usize, usize, f32),
) {
    for i in rows {
        for blk in blocks::<W>(cols.clone()) {
            let mut acc = [0.0f32; W];
            for (k, &aik) in a[i * n..i * n + n].iter().enumerate() {
                accumulate(&mut acc, &b[k * n + blk.start..k * n + blk.end], |x| {
                    aik * x
                });
            }
            for (j, &s) in blk.clone().zip(acc.iter()) {
                emit(i, j, s);
            }
        }
    }
}

/// For every row `i` in `rows` and column `j` in `cols`,
/// `Σ_{k<n} term(x_i[k], x_j[k])` summed in `k` order, handed to
/// `emit(i, j, sum)`, where `x_r[k]` holds element `r*n + k` of each of
/// the `M` matrices in `mats`. The `W` sums of a block are independent
/// chains, so they overlap in the FPU where one per-item sum waits on each
/// add; lanes past a tail block's end recompute its last column and are
/// dropped.
pub(crate) fn row_pair_sums<const M: usize, const W: usize>(
    mats: [&[f32]; M],
    n: usize,
    rows: Range<usize>,
    cols: Range<usize>,
    term: impl Fn([f32; M], [f32; M]) -> f32,
    mut emit: impl FnMut(usize, usize, f32),
) {
    let row = |r: usize| -> [&[f32]; M] { mats.map(|m| &m[r * n..r * n + n]) };
    for i in rows {
        let xi = row(i);
        for blk in blocks::<W>(cols.clone()) {
            let xj: [[&[f32]; M]; W] =
                std::array::from_fn(|t| row((blk.start + t).min(blk.end - 1)));
            let mut acc = [0.0f32; W];
            for k in 0..n {
                let vi = xi.map(|r| r[k]);
                for (s, xj) in acc.iter_mut().zip(&xj) {
                    *s += term(vi, xj.map(|r| r[k]));
                }
            }
            for (j, &s) in blk.zip(acc.iter()) {
                emit(i, j, s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_cover_the_range_with_one_tail() {
        let b: Vec<_> = blocks::<4>(3..13).collect();
        assert_eq!(b, vec![3..7, 7..11, 11..13]);
        assert_eq!(blocks::<4>(5..5).count(), 0);
    }
}
