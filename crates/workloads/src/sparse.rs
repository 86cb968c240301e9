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

/// Compressed-sparse-row matrix.
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    /// Row pointers, `n + 1` entries.
    pub row_ptr: Vec<u64>,
    /// Column indices, `nnz` entries.
    pub col_idx: Vec<u32>,
    /// Values, `nnz` entries.
    pub vals: Vec<f64>,
    /// Dimension.
    pub n: usize,
}

impl CsrMatrix {
    /// A random SPD matrix in the NPB-CG style: `nnz_per_row` off-diagonal
    /// entries per row drawn with geometric clustering near the diagonal,
    /// symmetrized by construction, plus a dominant diagonal.
    pub fn random_spd(n: usize, nnz_per_row: usize, seed: u64) -> CsrMatrix {
        assert!(n > 1 && nnz_per_row >= 1);
        // Counting sort of the symmetric off-diagonal pattern: one pass
        // over the draws sizes every row, a second pass over the same
        // draws scatters each entry into its row's slot of one flat
        // array, so every row holds its entries in draw order.
        let mut start = vec![0usize; n + 1];
        draw_pattern(n, nnz_per_row, seed, |i, j, _| {
            start[i + 1] += 1;
            start[j + 1] += 1;
        });
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut next = start[..n].to_vec();
        let mut entries = vec![(0u32, 0.0f64); start[n]];
        draw_pattern(n, nnz_per_row, seed, |i, j, v| {
            entries[next[i]] = (j as u32, v);
            next[i] += 1;
            entries[next[j]] = (i as u32, v);
            next[j] += 1;
        });
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(start[n] + n);
        let mut vals = Vec::with_capacity(start[n] + n);
        row_ptr.push(0);
        for i in 0..n {
            let row = &mut entries[start[i]..start[i + 1]];
            row.sort_by_key(|&(c, _)| c);
            // Of duplicate columns the first drawn is kept: the sort is
            // stable, so it leads its run.
            let kept = || row.chunk_by(|a, b| a.0 == b.0).map(|run| run[0]);
            // Strict diagonal dominance ⇒ SPD for a symmetric matrix.
            let offdiag_sum: f64 = kept().map(|(_, v)| v.abs()).sum();
            let mut inserted_diag = false;
            for (c, v) in kept() {
                if !inserted_diag && c as usize > i {
                    col_idx.push(i as u32);
                    vals.push(offdiag_sum + 1.0);
                    inserted_diag = true;
                }
                col_idx.push(c);
                vals.push(v);
            }
            if !inserted_diag {
                col_idx.push(i as u32);
                vals.push(offdiag_sum + 1.0);
            }
            row_ptr.push(col_idx.len() as u64);
        }
        CsrMatrix {
            row_ptr,
            col_idx,
            vals,
            n,
        }
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// `y = A·x`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        for i in 0..self.n {
            let mut acc = 0.0;
            for k in self.row_ptr[i] as usize..self.row_ptr[i + 1] as usize {
                acc += self.vals[k] * x[self.col_idx[k] as usize];
            }
            y[i] = acc;
        }
    }

    /// Checks symmetry, structure and values, exactly: every entry must
    /// have its mirror (testing aid).
    pub fn is_symmetric(&self) -> bool {
        for i in 0..self.n {
            for k in self.row_ptr[i] as usize..self.row_ptr[i + 1] as usize {
                let j = self.col_idx[k] as usize;
                let v = self.vals[k];
                let mut found = false;
                for kk in self.row_ptr[j] as usize..self.row_ptr[j + 1] as usize {
                    if self.col_idx[kk] as usize == i {
                        if (self.vals[kk] - v).abs() > 1e-12 {
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
    let n = a.n;
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
        for i in 0..a.n {
            let mut diag = 0.0;
            let mut off = 0.0;
            for k in a.row_ptr[i] as usize..a.row_ptr[i + 1] as usize {
                if a.col_idx[k] as usize == i {
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
            for k in a.row_ptr[i] as usize..a.row_ptr[i + 1] as usize {
                dense[i][a.col_idx[k] as usize] = a.vals[k];
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
        a.row_ptr.iter().for_each(|p| eat(&p.to_le_bytes()));
        a.col_idx.iter().for_each(|c| eat(&c.to_le_bytes()));
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
