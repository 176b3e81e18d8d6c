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
//! several rows so their sums overlap. When every element pairs two matrix
//! rows (SYRK, SYR2K), a group body packs a block of `j` rows once and
//! sweeps a few `i` rows over the pack. Either way every element still adds
//! its terms in the per-item order with the same operands, so the stored
//! bits are identical. The 2-D bodies take their loop bounds from
//! `NdRange::row_spans`, one span per group row of their range.

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

/// For every column `j` in `cols`, `Σ_{i<n} term(a[i*n + j], j)` summed in
/// `i` order, handed to `emit(j, sum)`: a column reduction that streams
/// row segments.
pub(crate) fn column_sums(
    a: &[f32],
    n: usize,
    cols: Range<usize>,
    term: impl Fn(f32, usize) -> f32,
    mut emit: impl FnMut(usize, f32),
) {
    for blk in blocks::<COL_BLOCK>(cols) {
        let mut acc = [0.0f32; COL_BLOCK];
        let acc = &mut acc[..blk.len()];
        for row in a[..n * n].chunks_exact(n) {
            for ((s, &x), j) in acc.iter_mut().zip(&row[blk.clone()]).zip(blk.clone()) {
                *s += term(x, j);
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

/// Accumulators per block of [`matmul`]: a row span of a range body is
/// many groups wide, and 32-wide blocks measured about twice as fast as
/// 8-wide ones (one group's columns) on `gemm` at n = 320.
const MATMUL_BLOCK: usize = 32;

/// For every row `i` in `rows` and column `j` in `cols`,
/// `Σ_{k<n} a[i*n + k] * b[k*n + j]` summed in `k` order, handed to
/// `emit(i, j, sum)`.
pub(crate) fn matmul(
    a: &[f32],
    b: &[f32],
    n: usize,
    rows: Range<usize>,
    cols: Range<usize>,
    mut emit: impl FnMut(usize, usize, f32),
) {
    for i in rows {
        for blk in blocks::<MATMUL_BLOCK>(cols.clone()) {
            let mut acc = [0.0f32; MATMUL_BLOCK];
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

/// Lanes of a [`pair_tiles`] pack: the `j` columns of one block.
const LANES: usize = 8;

/// For every span `(rows, cols)` of `spans` and every `i` in `rows`, `j`
/// in `cols`: `Σ_{k<n} term(x_i[k], x_j[k])` summed in `k` order, handed
/// to `emit(i, j, sum)`, where `x_r[k]` holds element `r*n + k` of each of
/// the `M` matrices in `mats`.
///
/// Each block of [`LANES`] columns packs the block's `j` rows of every
/// matrix as `[k][m][lane]` (at most `n·M·8` floats, one allocation per
/// call), so the `j` operands of one `k` are adjacent. `R` rows of `i` then
/// sweep the pack together: the `R·8` sums are independent add chains and
/// the 8 lanes of each vectorize. Lanes past a tail block's end repeat its
/// last column, and rows past a span's end repeat its last row; their sums
/// are dropped.
pub(crate) fn pair_tiles<const M: usize, const R: usize>(
    mats: [&[f32]; M],
    n: usize,
    spans: impl Iterator<Item = (Range<usize>, Range<usize>)>,
    term: impl Fn([f32; M], [f32; M]) -> f32,
    mut emit: impl FnMut(usize, usize, f32),
) {
    let row = |r: usize| -> [&[f32]; M] { mats.map(|m| &m[r * n..r * n + n]) };
    let mut pack = vec![[[0.0f32; LANES]; M]; n];
    for (rows, cols) in spans {
        for blk in blocks::<LANES>(cols) {
            for t in 0..LANES {
                let xj = row((blk.start + t).min(blk.end - 1));
                for (m, xj) in xj.iter().enumerate() {
                    for (p, &x) in pack.iter_mut().zip(*xj) {
                        p[m][t] = x;
                    }
                }
            }
            for tile in blocks::<R>(rows.clone()) {
                let xi: [[&[f32]; M]; R] =
                    std::array::from_fn(|r| row((tile.start + r).min(tile.end - 1)));
                let mut acc = [[0.0f32; LANES]; R];
                for (k, p) in pack.iter().enumerate() {
                    for (acc, xi) in acc.iter_mut().zip(&xi) {
                        let vi = xi.map(|x| x[k]);
                        for (t, s) in acc.iter_mut().enumerate() {
                            *s += term(vi, p.map(|lane| lane[t]));
                        }
                    }
                }
                for (i, acc) in tile.zip(&acc) {
                    for (j, &s) in blk.clone().zip(acc) {
                        emit(i, j, s);
                    }
                }
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
