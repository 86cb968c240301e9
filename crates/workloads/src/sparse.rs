//! Sparse matrices and the conjugate-gradient solver: the real numerics
//! behind the CG workload.
//!
//! NPB CG builds a random sparse symmetric positive-definite matrix and
//! runs conjugate-gradient iterations against it. We reproduce the same
//! construction at scaled sizes: a random sparsity pattern with geometric
//! clustering around the diagonal, symmetrized, with a diagonal shift
//! that guarantees strict diagonal dominance (hence SPD).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The sparsity pattern of a compressed-sparse-row matrix: which cells
/// are stored, not what they hold.
#[derive(Debug, Clone)]
pub struct CsrPattern {
    /// Row pointers, `n + 1` entries.
    pub row_ptr: Vec<u64>,
    /// Column indices, `nnz` entries, ascending within each row.
    pub col_idx: Vec<u32>,
    /// Dimension.
    pub n: usize,
}

impl CsrPattern {
    /// The pattern of [`CsrMatrix::random_spd`] with the same arguments:
    /// `nnz_per_row` off-diagonal draws per row with geometric clustering
    /// near the diagonal, symmetrized, plus the diagonal.
    pub fn random(n: usize, nnz_per_row: usize, seed: u64) -> CsrPattern {
        assert!(n > 1 && nnz_per_row >= 1);
        // Counting sort of the symmetric off-diagonal pattern: one pass
        // over the draws sizes every row, a second pass over the same
        // draws scatters each column into its row's segment of one flat
        // array. A segment starts with a free slot for the diagonal, so
        // the diagonal can join the row without moving it right.
        let mut start = vec![0usize; n + 1];
        draw_pattern(n, nnz_per_row, seed, |i, j, _| {
            start[i + 1] += 1;
            start[j + 1] += 1;
        });
        for i in 0..n {
            start[i + 1] += start[i] + 1;
        }
        let mut next: Vec<usize> = start[..n].iter().map(|s| s + 1).collect();
        let mut col_idx = vec![0u32; start[n]];
        draw_pattern(n, nnz_per_row, seed, |i, j, _| {
            col_idx[next[i]] = j as u32;
            next[i] += 1;
            col_idx[next[j]] = i as u32;
            next[j] += 1;
        });
        // Sort and deduplicate each row, insert its diagonal before the
        // first larger column, and compact the row left onto the end of
        // the previous one. Equal columns are indistinguishable, so an
        // unstable sort is exact. A row never writes past the slot it is
        // reading: it gains at most the diagonal, whose slot it owns.
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0);
        let mut w = 0;
        for i in 0..n {
            let row = start[i] + 1..start[i + 1];
            col_idx[row.clone()].sort_unstable();
            let diag = i as u32;
            let mut placed = false;
            let mut last = None;
            for k in row {
                let c = col_idx[k];
                if last == Some(c) {
                    continue;
                }
                last = Some(c);
                if !placed && c > diag {
                    col_idx[w] = diag;
                    w += 1;
                    placed = true;
                }
                col_idx[w] = c;
                w += 1;
            }
            if !placed {
                col_idx[w] = diag;
                w += 1;
            }
            row_ptr.push(w as u64);
        }
        col_idx.truncate(w);
        CsrPattern {
            row_ptr,
            col_idx,
            n,
        }
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The entry range of row `i`.
    fn row(&self, i: usize) -> std::ops::Range<usize> {
        self.row_ptr[i] as usize..self.row_ptr[i + 1] as usize
    }

    /// The entry index of cell `(i, j)`, which must be stored.
    fn position(&self, i: usize, j: usize) -> usize {
        let row = self.row(i);
        let at = self.col_idx[row.clone()]
            .binary_search(&(j as u32))
            .expect("cell is in the pattern");
        row.start + at
    }
}

/// Compressed-sparse-row matrix.
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    /// The stored cells.
    pub pattern: CsrPattern,
    /// Values, one per entry of `pattern.col_idx`.
    pub vals: Vec<f64>,
}

impl CsrMatrix {
    /// A random SPD matrix in the NPB-CG style: `nnz_per_row` off-diagonal
    /// entries per row drawn with geometric clustering near the diagonal,
    /// symmetrized by construction, plus a dominant diagonal.
    pub fn random_spd(n: usize, nnz_per_row: usize, seed: u64) -> CsrMatrix {
        let pattern = CsrPattern::random(n, nnz_per_row, seed);
        // Replay the draws: a cell takes the value of the first draw that
        // names it, from either side, so mirrored cells agree and a column
        // drawn twice keeps its first value. No drawn value is NaN.
        let mut vals = vec![f64::NAN; pattern.nnz()];
        draw_pattern(n, nnz_per_row, seed, |i, j, v| {
            for k in [pattern.position(i, j), pattern.position(j, i)] {
                if vals[k].is_nan() {
                    vals[k] = v;
                }
            }
        });
        // Strict diagonal dominance ⇒ SPD for a symmetric matrix.
        for i in 0..n {
            let diag = pattern.position(i, i);
            let offdiag_sum: f64 = pattern
                .row(i)
                .filter(|&k| k != diag)
                .map(|k| vals[k].abs())
                .sum();
            vals[diag] = offdiag_sum + 1.0;
        }
        CsrMatrix { pattern, vals }
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.pattern.nnz()
    }

    /// `y = A·x`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        let a = &self.pattern;
        assert_eq!(x.len(), a.n);
        assert_eq!(y.len(), a.n);
        for i in 0..a.n {
            let mut acc = 0.0;
            for k in a.row(i) {
                acc += self.vals[k] * x[a.col_idx[k] as usize];
            }
            y[i] = acc;
        }
    }

    /// Checks symmetry, structure and values, exactly: every entry must
    /// have its mirror, holding an equal value (testing aid).
    pub fn is_symmetric(&self) -> bool {
        let a = &self.pattern;
        for i in 0..a.n {
            for k in a.row(i) {
                let j = a.col_idx[k] as usize;
                let v = self.vals[k];
                let mut found = false;
                for kk in a.row(j) {
                    if a.col_idx[kk] as usize == i {
                        if self.vals[kk] != v {
                            return false;
                        }
                        found = true;
                        break;
                    }
                }
                if !found {
                    return false;
                }
            }
        }
        true
    }
}

/// Draws the off-diagonal pattern of [`CsrMatrix::random_spd`], calling
/// `emit(i, j, v)` for each drawn entry in draw order: the matrix holds
/// `v` at both `(i, j)` and `(j, i)`.
fn draw_pattern(n: usize, nnz_per_row: usize, seed: u64, mut emit: impl FnMut(usize, usize, f64)) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..n {
        for _ in 0..nnz_per_row.div_ceil(2) {
            // Geometric distance from the diagonal (cluster like NPB's
            // makea), occasionally jumping far (the long-range tail).
            let far = rng.gen_bool(0.15);
            let dist = if far {
                rng.gen_range(1..n as u64)
            } else {
                let span = (n as u64 / 64).max(2);
                1 + (rng.gen_range(0.0f64..1.0).powi(3) * (span - 1) as f64) as u64
            };
            let j = ((i as u64 + dist) % n as u64) as usize;
            if j == i {
                continue;
            }
            emit(i, j, rng.gen_range(-0.5f64..0.5));
        }
    }
}

/// Result of a conjugate-gradient solve.
#[derive(Debug, Clone)]
pub struct CgResult {
    /// The solution estimate.
    pub x: Vec<f64>,
    /// Residual 2-norm per iteration (including the initial residual).
    pub residuals: Vec<f64>,
}

/// Plain conjugate gradient for `A·x = b`, `iters` iterations.
///
/// This is the same iteration the CG trace generator walks; tests verify
/// it converges on the generated SPD matrices, grounding the trace in a
/// real algorithm.
pub fn conjugate_gradient(a: &CsrMatrix, b: &[f64], iters: usize) -> CgResult {
    let n = a.pattern.n;
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut q = vec![0.0; n];
    let mut rho: f64 = r.iter().map(|v| v * v).sum();
    let mut residuals = vec![rho.sqrt()];
    for _ in 0..iters {
        a.spmv(&p, &mut q);
        let pq: f64 = p.iter().zip(&q).map(|(a, b)| a * b).sum();
        if pq.abs() < f64::MIN_POSITIVE {
            break;
        }
        let alpha = rho / pq;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * q[i];
        }
        let rho_new: f64 = r.iter().map(|v| v * v).sum();
        let beta = rho_new / rho;
        rho = rho_new;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        residuals.push(rho.sqrt());
    }
    CgResult { x, residuals }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_spd_is_symmetric_with_dominant_diagonal() {
        let a = CsrMatrix::random_spd(200, 8, 42);
        assert!(a.is_symmetric());
        for i in 0..a.pattern.n {
            let mut diag = 0.0;
            let mut off = 0.0;
            for k in a.pattern.row(i) {
                if a.pattern.col_idx[k] as usize == i {
                    diag = a.vals[k];
                } else {
                    off += a.vals[k].abs();
                }
            }
            assert!(diag > off, "row {i} not strictly dominant: {diag} vs {off}");
        }
    }

    #[test]
    fn spmv_identity_like_behaviour() {
        // A·e_i recovers column i; check against a dense reconstruction
        // on a tiny matrix.
        let a = CsrMatrix::random_spd(10, 3, 7);
        let mut dense = vec![vec![0.0; 10]; 10];
        for i in 0..10 {
            for k in a.pattern.row(i) {
                dense[i][a.pattern.col_idx[k] as usize] = a.vals[k];
            }
        }
        let x: Vec<f64> = (0..10).map(|i| (i as f64) - 4.5).collect();
        let mut y = vec![0.0; 10];
        a.spmv(&x, &mut y);
        for i in 0..10 {
            let want: f64 = (0..10).map(|j| dense[i][j] * x[j]).sum();
            assert!((y[i] - want).abs() < 1e-12);
        }
    }

    #[test]
    fn cg_converges_on_spd_system() {
        let a = CsrMatrix::random_spd(500, 10, 1);
        let b: Vec<f64> = (0..500).map(|i| ((i * 37) % 17) as f64 / 17.0).collect();
        let res = conjugate_gradient(&a, &b, 40);
        let first = res.residuals[0];
        let last = *res.residuals.last().unwrap();
        assert!(
            last < first * 1e-6,
            "CG must converge: {first} → {last} over {} iters",
            res.residuals.len() - 1
        );
        // And the returned x really solves the system.
        let mut ax = vec![0.0; 500];
        a.spmv(&res.x, &mut ax);
        let err: f64 = ax
            .iter()
            .zip(&b)
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!(err < 1e-5, "residual check failed: {err}");
    }

    #[test]
    fn residuals_are_monotone_enough() {
        // CG residuals can wobble, but over windows they must shrink.
        let a = CsrMatrix::random_spd(300, 6, 9);
        let b = vec![1.0; 300];
        let res = conjugate_gradient(&a, &b, 20);
        let half = res.residuals[res.residuals.len() / 2];
        assert!(half < res.residuals[0]);
    }

    #[test]
    fn nnz_scales_with_requested_density() {
        let a = CsrMatrix::random_spd(1000, 4, 3);
        let b = CsrMatrix::random_spd(1000, 16, 3);
        assert!(b.nnz() > a.nnz() * 2);
    }

    /// FNV-1a over `row_ptr`, `col_idx` and the bit patterns of `vals`,
    /// each little-endian.
    fn digest(a: &CsrMatrix) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        a.pattern.row_ptr.iter().for_each(|p| eat(&p.to_le_bytes()));
        a.pattern.col_idx.iter().for_each(|c| eat(&c.to_le_bytes()));
        a.vals.iter().for_each(|v| eat(&v.to_bits().to_le_bytes()));
        h
    }

    #[test]
    fn same_seed_same_matrix() {
        // The generator's exact output, pinned: the CG traces (and every
        // golden built on them) are walked from these matrices.
        for (n, nnz_per_row, seed, want) in [
            (10, 3, 7, 0xcec5_8bbb_0605_7565u64),
            (200, 8, 42, 0xfc34_b90a_03c6_b74d),
            (2048, 8, 5, 0xf1fa_ac5b_2e77_a646),
        ] {
            let got = digest(&CsrMatrix::random_spd(n, nnz_per_row, seed));
            assert_eq!(got, want, "random_spd({n}, {nnz_per_row}, {seed})");
        }
    }
}
