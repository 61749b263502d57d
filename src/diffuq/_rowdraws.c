/* Row-wise draws, solves and reverse-kernel steps for diffuq. Row k of each
 * draw draws from the bit generator gens[k] with numpy's own distribution
 * functions, so every row gets the numbers and the end state of the matching
 * numpy Generator method on that generator alone. No generator lock is taken;
 * the caller draws on one thread. The arithmetic repeats numpy's, operation
 * for operation, so each result has the bits of the numpy code it replaces;
 * exp, log1p and log stay with numpy's own (SIMD) functions, between calls.
 * Built without contraction into fused multiply-adds and loaded by
 * seeding._rowdraws, linked against numpy's libnpyrandom.a. */
#include <math.h>

#include "numpy/random/distributions.h"

void normals(bitgen_t **gens, npy_intp rows, npy_intp n, double *out) {
    for (npy_intp k = 0; k < rows; k++)
        random_standard_normal_fill(gens[k], n, out + k * n);
}

void uniforms(bitgen_t **gens, npy_intp rows, npy_intp n, double *out) {
    for (npy_intp k = 0; k < rows; k++)
        random_standard_uniform_fill(gens[k], n, out + k * n);
}

/* out[k] is gens[k].integers(0, high) for high >= 1: numpy's closed range
 * [0, high - 1], drawn by Lemire's method without the masked variant */
void below(bitgen_t **gens, npy_intp rows, uint64_t high, uint64_t *out) {
    for (npy_intp k = 0; k < rows; k++)
        random_bounded_uint64_fill(gens[k], 0, high - 1, 1, false, out + k);
}

/* LAPACK's dpotrs and BLAS's dtrsv, dtrsm and dgemv, as scipy.linalg's
 * cython_lapack and cython_blas export them */
typedef void potrs_t(char *uplo, int *n, int *nrhs, double *a, int *lda, double *b, int *ldb,
                     int *info);
typedef void trsv_t(char *uplo, char *trans, char *diag, int *n, double *a, int *lda, double *x,
                    int *incx);
typedef void trsm_t(char *side, char *uplo, char *transa, char *diag, int *m, int *n,
                    double *alpha, double *a, int *lda, double *b, int *ldb);
typedef void gemv_t(char *trans, int *m, int *n, double *alpha, double *a, int *lda, double *x,
                    int *incx, double *beta, double *y, int *incy);

/* Solves b[k, c] (rows x comps x d) in place on the lower Cholesky factor
 * factors[levels[k], c] (column-major d x d blocks), one right-hand side per
 * call, the call scipy.linalg.lapack.dpotrs makes for a (d,) vector; returns
 * the first nonzero info, or 0 */
int potrs_rows(potrs_t *potrs, double *factors, npy_intp comps, int d, npy_intp *levels,
               npy_intp rows, double *b) {
    char uplo = 'L';
    int nrhs = 1, info = 0;
    for (npy_intp k = 0; k < rows; k++)
        for (npy_intp c = 0; c < comps; c++) {
            potrs(&uplo, &d, &nrhs, factors + (levels[k] * comps + c) * d * d, &d,
                  b + (k * comps + c) * d, &d, &info);
            if (info)
                return info;
        }
    return 0;
}

/* numpy's sum of a[0..n) along a contiguous axis: pairwise, eight
 * accumulators per block of up to 128 terms */
static double pairwise(const double *a, npy_intp n) {
    if (n < 8) {
        double res = -0.0;
        for (npy_intp i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        npy_intp i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    npy_intp half = n / 2;
    half -= half % 8;
    return pairwise(a, half) + pairwise(a + half, n - half);
}

/* The unit lower trsv on the packed getrf factor lu of a lower triangular
 * matrix whose getrf swaps no rows, then the division by its diagonal, its
 * whole upper factor: the one-column getrs of the gesv np.linalg.solve runs */
static void trsv_solve(trsv_t *trsv, double *lu, int d, double *x) {
    char uplo = 'L', trans = 'N', unit = 'U';
    int inc = 1;
    trsv(&uplo, &trans, &unit, &d, lu, &d, x, &inc);
    for (int i = 0; i < d; i++)
        x[i] /= lu[i * d + i];
}

/* the log-density from the Mahalanobis distance, numpy's order */
static double log_density(double maha, double logdet, double dlog2pi) {
    return -0.5 * ((maha + logdet) + dlog2pi);
}

/* out[k, c] (rows x comps) is the log-density of the row x[k] (d) under
 * component c at the level levels[k * step] (step 1, or 0 for one level
 * for every row): the difference from means[c], the
 * trsv_solve on lus[level, c] (column-major d x d blocks), the squares
 * and their pairwise sum, with logdets[level, c]. A difference that is
 * not finite gives NaN. work holds d doubles. */
void row_logpdfs(trsv_t *trsv, double *lus, double *logdets, double *means, npy_intp comps,
                  int d, double dlog2pi, npy_intp *levels, npy_intp step, npy_intp rows,
                  double *x, double *work, double *out) {
    for (npy_intp k = 0; k < rows; k++)
        for (npy_intp c = 0; c < comps; c++) {
            npy_intp at = levels[k * step] * comps + c;
            double maha = NAN;
            int finite = 1;
            for (int i = 0; i < d; i++) {
                work[i] = x[k * d + i] - means[c * d + i];
                finite &= isfinite(work[i]) != 0;
            }
            if (finite) {
                trsv_solve(trsv, lus + at * d * d, d, work);
                for (int i = 0; i < d; i++)
                    work[i] *= work[i];
                maha = pairwise(work, d);
            }
            out[k * comps + c] = log_density(maha, logdets[at], dlog2pi);
        }
}

/* out[j, c] (n x comps) is the log-density of the particle x[j] (d) under
 * component c at the level level: per component, the (d x n) block of
 * differences from means[c], the unit lower trsm on lus[level, c] over all
 * n columns, then the product by the reciprocal of its diagonal (the
 * multi-column getrs of np.linalg.solve); the squares of each column added
 * in index order. One particle takes the one-column trsv_solve and the
 * pairwise sum instead. Returns 1 when a difference or a solution entry is
 * not finite (out is then incomplete), else 0. work holds n * d + d doubles. */
int set_logpdfs(trsv_t *trsv, trsm_t *trsm, double *lus, double *logdets, double *means,
                npy_intp comps, int d, double dlog2pi, npy_intp level, int n, double *x,
                double *work, double *out) {
    char side = 'L', uplo = 'L', trans = 'N', unit = 'U';
    double one = 1.0, *recip = work + (npy_intp)n * d;
    for (npy_intp c = 0; c < comps; c++) {
        npy_intp at = level * comps + c;
        double *lu = lus + at * d * d;
        for (npy_intp j = 0; j < n; j++)
            for (int i = 0; i < d; i++) {
                double v = x[j * d + i] - means[c * d + i];
                if (!isfinite(v))
                    return 1;
                work[j * d + i] = v;
            }
        if (n == 1)
            trsv_solve(trsv, lu, d, work);
        else {
            trsm(&side, &uplo, &trans, &unit, &d, &n, &one, lu, &d, work, &d);
            for (int i = 0; i < d; i++)
                recip[i] = 1.0 / lu[i * d + i];
            for (npy_intp j = 0; j < n; j++)
                for (int i = 0; i < d; i++)
                    work[j * d + i] *= recip[i];
        }
        for (npy_intp j = 0; j < n; j++) {
            double *col = work + j * d, maha = -0.0;
            for (int i = 0; i < d; i++) {
                if (!isfinite(col[i]))
                    return 1;
                col[i] *= col[i];
            }
            if (n == 1)
                maha = pairwise(col, d);
            else
                for (int i = 0; i < d; i++)
                    maha += col[i];
            out[j * comps + c] = log_density(maha, logdets[at], dlog2pi);
        }
    }
    return 0;
}

/* The log-normalisation lp + logw - logsumexp(lp + logw) of each row of the
 * (rows x comps) array lp, in the ufunc sequence of gmm._logsumexp, in three
 * passes around numpy's exp(t), log1p(s) and log(m). The first writes
 * v = lp + logw and, per row, its NaN-propagating maximum mx, the count m of
 * entries equal to it, and t = v - mx, with -inf at the maxima; it returns 1
 * when a maximum is not finite (gmm._logsumexp then takes its direct form). */
int normalise_shift(double *lp, double *logw, npy_intp rows, npy_intp comps, double *v,
                    double *t, double *mx, double *m) {
    int bad = 0;
    for (npy_intp k = 0; k < rows; k++) {
        double *row = v + k * comps, top;
        for (npy_intp c = 0; c < comps; c++)
            row[c] = lp[k * comps + c] + logw[c];
        top = row[0];
        for (npy_intp c = 1; c < comps; c++)
            top = (top >= row[c] || isnan(top)) ? top : row[c];
        npy_intp ties = 0;
        for (npy_intp c = 0; c < comps; c++) {
            ties += row[c] == top;
            t[k * comps + c] = row[c] == top ? -INFINITY : row[c] - top;
        }
        mx[k] = top;
        m[k] = (double)ties;
        bad |= !isfinite(top);
    }
    return bad;
}

/* the second pass, on t = exp(t): s, each row's pairwise sum of t, divided
 * by m unless it is 0 */
void normalise_sum(double *t, npy_intp rows, npy_intp comps, double *m, double *s) {
    for (npy_intp k = 0; k < rows; k++) {
        double sum = pairwise(t + k * comps, comps);
        s[k] = sum == 0 ? sum : sum / m[k];
    }
}

/* the third pass, on s = log1p(s) and m = log(m): each row's logsumexp
 * (s + m) + mx, subtracted from v; returns 1, leaving v alone, when one is
 * not finite */
int normalise_finish(double *v, npy_intp rows, npy_intp comps, double *s, double *m,
                     double *mx) {
    for (npy_intp k = 0; k < rows; k++) {
        mx[k] = (s[k] + m[k]) + mx[k];
        if (!isfinite(mx[k]))
            return 1;
    }
    for (npy_intp k = 0; k < rows; k++)
        for (npy_intp c = 0; c < comps; c++)
            v[k * comps + c] -= mx[k];
    return 0;
}

/* One reverse-kernel transition of each row x[k] (d) at the level level:
 * from gens[k] one uniform u, then d normals z; the component c, the number
 * of entries of the running sum of resp[k] (rows x comps, the exp of the
 * log responsibilities) at most u, capped at comps - 1; then
 * out[k] = (B[level, c] x[k] + a[level, c]) + chol[level, c] z, each product
 * one dgemv('T') on the C-ordered d x d block, as numpy's stacked
 * vector-matrix product runs it. work holds 3 d doubles. */
void row_transitions(bitgen_t **gens, gemv_t *gemv, double *B, double *a, double *chol,
                     npy_intp comps, int d, npy_intp level, npy_intp rows, double *x,
                     double *resp, double *work, double *out) {
    char trans = 'T';
    int inc = 1;
    double one = 1.0, zero = 0.0, *z = work, *bx = work + d, *lz = work + 2 * d;
    for (npy_intp k = 0; k < rows; k++) {
        double u, cum = resp[k * comps];
        random_standard_uniform_fill(gens[k], 1, &u);
        random_standard_normal_fill(gens[k], d, z);
        npy_intp c = u >= cum;
        for (npy_intp j = 1; j < comps; j++) {
            cum += resp[k * comps + j];
            c += u >= cum;
        }
        if (c > comps - 1)
            c = comps - 1;
        npy_intp at = level * comps + c;
        for (int i = 0; i < d; i++)
            bx[i] = lz[i] = 0.0;
        gemv(&trans, &d, &d, &one, B + at * d * d, &d, x + k * d, &inc, &zero, bx, &inc);
        gemv(&trans, &d, &d, &one, chol + at * d * d, &d, z, &inc, &zero, lz, &inc);
        for (int i = 0; i < d; i++)
            out[k * d + i] = (bx[i] + a[at * d + i]) + lz[i];
    }
}
