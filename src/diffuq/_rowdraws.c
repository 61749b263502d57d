/* Row-wise draws and solves for diffuq. Row k of each draw draws from the bit
 * generator gens[k] with numpy's own distribution functions, so every row gets
 * the numbers and the end state of the matching numpy Generator method on that
 * generator alone. No generator lock is taken; the caller draws on one thread.
 * Built and loaded by seeding._rowdraws, linked against numpy's libnpyrandom.a. */
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

/* LAPACK's dpotrs, as scipy.linalg.cython_lapack exports it */
typedef void potrs_t(char *uplo, int *n, int *nrhs, double *a, int *lda, double *b, int *ldb,
                     int *info);

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

/* BLAS's dtrsv, as scipy.linalg.cython_blas exports it */
typedef void trsv_t(char *uplo, char *trans, char *diag, int *n, double *a, int *lda, double *x,
                    int *incx);

/* Solves b[k, c] (rows x comps x d) in place on the LU factor
 * lus[levels[k], c] (column-major d x d blocks in getrf's packed form) of a
 * lower triangular matrix whose getrf swaps no rows, so its upper factor is
 * its diagonal: the unit lower trsv, then the division by that diagonal, of
 * the one-column getrs that np.linalg.solve runs */
void trsv_rows(trsv_t *trsv, double *lus, npy_intp comps, int d, npy_intp *levels,
               npy_intp rows, double *b) {
    char uplo = 'L', trans = 'N', unit = 'U';
    int inc = 1;
    for (npy_intp k = 0; k < rows; k++)
        for (npy_intp c = 0; c < comps; c++) {
            double *lu = lus + (levels[k] * comps + c) * d * d, *x = b + (k * comps + c) * d;
            trsv(&uplo, &trans, &unit, &d, lu, &d, x, &inc);
            for (int i = 0; i < d; i++)
                x[i] /= lu[i * d + i];
        }
}
