/* Row-wise draws for diffuq: row k of each call draws from the bit generator
 * gens[k] with numpy's own distribution functions, so every row gets the
 * numbers and the end state of the matching numpy Generator method on that
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
