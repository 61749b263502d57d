"""Deterministic seeds, the row streams they make, and the compiled row loop.

All experiment randomness flows from one 64-bit master seed through
``derive_seed``, an avalanche-style mixer (splitmix64 finalizer with
FNV-1a tag hashing). The construction is pure integer arithmetic mod 2^64,
so identical inputs give identical seeds on every platform.

A batch of K rows seeds row k with ``derive_seed(base, [("row", k)])`` and
draws it from ``np.random.default_rng`` of that seed. ``row_seeds`` and
``streams`` make a batch's seeds and row streams (``_Streams``, which make
every per-row draw) in one vectorised pass over the rows, with the same bits.

This is the one module that builds and loads native code: the compiled row
loop (``_rowdraws``), which draws the rows' numbers, runs the reverse
kernel's per-step arithmetic (the row and particle-set log-densities
``_row_logpdfs`` and ``_set_logpdfs``, the log-normalisation
``_row_normalised`` and the transition ``_row_transitions``) and solves
reddiff's per-row score systems (``potrs_rows``), each with the bits of the
numpy code its caller falls back to; and the thread count of numpy's and
scipy's OpenBLAS (``one_blas_thread``, ``blas_threads``).
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import importlib
import math
import os
import platform
import subprocess
import sys
import sysconfig
import tempfile
import warnings
from pathlib import Path

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["derive_seed", "row_seeds", "streams", "row_draws", "potrs_rows", "one_blas_thread",
           "blas_threads"]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z):
    """The splitmix64 finalizer of a Python int or, elementwise, of a uint64
    array (numpy wraps the array products mod 2^64)."""
    z = z & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


@functools.lru_cache(maxsize=256)  # a run hashes the same few tags many times
def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for b in text.encode("utf-8"):
        h ^= b
        h = (h * 0x100000001B3) & _MASK
    return h


def derive_seed(master: int, labels) -> int:
    """Mix ``master`` with an ordered list of (tag, value) label pairs.

    Each pair folds the FNV-1a hash of the tag and the integer value into
    the state through the splitmix64 finalizer.
    """
    h = _splitmix64((int(master) & _MASK) ^ _GOLDEN)
    for tag, value in labels:
        h = _splitmix64(h ^ _fnv1a64(tag))
        h = _splitmix64(h ^ (int(value) & _MASK))
    return h


def row_seeds(base: int, K: int) -> np.ndarray:
    """(K,) uint64 seeds; entry k is ``derive_seed(base, [("row", k)])``."""
    h = _splitmix64(_splitmix64((int(base) & _MASK) ^ _GOLDEN) ^ _fnv1a64("row"))
    return _splitmix64(np.uint64(h) ^ np.arange(K, dtype=np.uint64))


# numpy's SeedSequence (O'Neill's seed_seq hash, pool of four uint32 words)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _multipliers(init: int, mult: int, n: int) -> list:
    """``init * mult**i mod 2^32`` for i < n: the multiplier a hash holds
    before each of its steps, the same for every seed."""
    return [np.uint32(init * pow(mult, i, 1 << 32) & 0xFFFFFFFF) for i in range(n)]


_A = _multipliers(_INIT_A, _MULT_A, _POOL * _POOL + 1)  # the pool's 16 hashes
_B = _multipliers(_INIT_B, _MULT_B, 2 * _POOL + 1)  # generate_state's 8 words


def _hash(value: np.ndarray, consts: list, step: int) -> np.ndarray:
    """Step ``step`` of a hash with the multipliers ``consts``, on uint32."""
    value = (value ^ consts[step]) * consts[step + 1]
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return out ^ (out >> np.uint32(16))


def _pcg64_words(seeds) -> np.ndarray:
    """(N, 4) uint64: row n is ``SeedSequence(seeds[n]).generate_state(4,
    np.uint64)``, the words ``np.random.PCG64`` seeds itself with.

    A seed's entropy is its little-endian uint32 words; the pool hashes a
    missing word as 0, so a seed below 2^32 gives the same pool as one with
    a zero high word, and every seed here has two.
    """
    s = np.asarray(seeds, dtype=np.uint64)
    entropy = [(s & np.uint64(0xFFFFFFFF)).astype(np.uint32),
               (s >> np.uint64(32)).astype(np.uint32)]
    zero = np.zeros_like(entropy[0])
    pool = [_hash(entropy[i] if i < 2 else zero, _A, i) for i in range(_POOL)]
    step = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], _A, step))
                step += 1
    state = np.empty((len(s), 2 * _POOL), dtype=np.uint32)
    for i in range(2 * _POOL):
        state[:, i] = _hash(pool[i % _POOL], _B, i)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _Words(ISeedSequence):
    """A seed sequence that hands ``np.random.PCG64`` precomputed words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def streams(seeds) -> "_Streams":
    """The row streams of the 64-bit ``seeds``: row k's generator in the
    state of ``np.random.default_rng(seeds[k])``."""
    return _Streams([np.random.Generator(np.random.PCG64(_Words(words)))
                     for words in _pcg64_words(seeds)])


# Per-row draws. Row k of a K-row batch draws from its own generator
# ``rngs[k]`` (one generator per row, no two rows sharing one), so its
# numbers do not depend on K or on the order in which the rows draw. Every
# draw goes through a ``_Streams`` but those of the one-generator forms
# (``sample_mixture``, ``smc_resample``, ...); tests/test_source.py holds
# the list.

_ROWDRAWS_SOURCE = Path(__file__).with_name("_rowdraws.c")
# ``PyCapsule_GetPointer`` and ``PyCapsule_GetName``: the pointer a capsule
# holds (the ``bitgen_t *`` of a bit generator, a BLAS or LAPACK routine of scipy's)
# and the name it must be asked for
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))
_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))

# the argument types of the loop's routines: p a pointer, n an npy_intp, i
# an int, u a uint64, x a double; each routine returns its first letter's type
# (v none, i int)
_SIGNATURES = {"normals": "vpnnp", "uniforms": "vpnnp", "below": "vpnup",
               "potrs_rows": "ippnipnp", "row_logpdfs": "vppppnixpnnppp",
               "set_logpdfs": "ipppppnixnippp", "normalise_shift": "ippnnpppp",
               "normalise_sum": "vpnnpp", "normalise_finish": "ipnnppp",
               "row_transitions": "vpppppninnpppp"}
_CTYPES = {"v": None, "p": ctypes.c_void_p, "n": ctypes.c_ssize_t, "i": ctypes.c_int,
           "u": ctypes.c_uint64, "x": ctypes.c_double}
# scipy's routines the loop calls, by module
_SCIPY_ROUTINES = (("cython_lapack", "dpotrs"), ("cython_blas", "dtrsv"),
                   ("cython_blas", "dtrsm"), ("cython_blas", "dgemv"))


def _compile_command() -> list:
    """The command that compiles the loop, but for its output path: ``$CC``
    (default ``cc``), without contraction into fused multiply-adds, which
    would change the bits of numpy's separate products and sums."""
    return [*(os.environ.get("CC") or "cc").split(), "-O2", "-ffp-contract=off", "-shared",
            "-fPIC", f"-I{np.get_include()}", f"-I{sysconfig.get_paths()['include']}",
            str(_ROWDRAWS_SOURCE),
            str(Path(np.random.__file__).with_name("lib") / "libnpyrandom.a"), "-lm"]


@functools.cache
def _rowdraws():
    """The compiled row loop of ``_rowdraws.c`` as a ctypes library, or None
    (with a RuntimeWarning that says why) when it cannot be built or loaded;
    decided once per process, at its first streams or row computation. The
    library holds, under their names, the addresses of scipy's own LAPACK
    ``dpotrs`` and BLAS ``dtrsv``, ``dtrsm`` and ``dgemv``, taken from the
    capsules of ``scipy.linalg``'s ``cython_lapack`` and ``cython_blas``.
    It is compiled by ``_compile_command`` against numpy's ``libnpyrandom.a``
    into ``$XDG_CACHE_HOME/diffuq`` (default ``~/.cache/diffuq``), keyed by
    the source, that command, numpy, the interpreter and the machine, under
    a temporary name first, so concurrent builds do not clash."""
    try:
        command = _compile_command()
        key = hashlib.sha256(b"\0".join([_ROWDRAWS_SOURCE.read_bytes(), *map(str.encode, command),
                                         np.__version__.encode(),
                                         sys.implementation.cache_tag.encode(),
                                         platform.machine().encode()])).hexdigest()[:16]
        cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "diffuq"
        path = cache / f"rowdraws-{key}.so"
        if not path.exists():
            cache.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
            os.close(fd)
            try:
                subprocess.run([*command, "-o", tmp], check=True, capture_output=True,
                               timeout=300)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        lib = ctypes.CDLL(str(path))
        for name, (result, *args) in _SIGNATURES.items():
            getattr(lib, name).argtypes = [_CTYPES[a] for a in args]
            getattr(lib, name).restype = _CTYPES[result]
        for module, name in _SCIPY_ROUTINES:
            capsule = importlib.import_module(f"scipy.linalg.{module}").__pyx_capi__[name]
            setattr(lib, name, _capsule_pointer(capsule, _capsule_name(capsule)))
        return lib
    except subprocess.CalledProcessError as exc:
        why = f"the compiler failed: {exc.stderr.decode(errors='replace').strip()[:500]}"
    except (OSError, subprocess.SubprocessError, AttributeError, RuntimeError, ValueError,
            ImportError, KeyError) as exc:
        why = f"{type(exc).__name__}: {exc}"
    warnings.warn(f"diffuq draws its rows and solves its per-row systems through numpy and"
                  f" scipy calls; the compiled row loop is unavailable ({why})",
                  RuntimeWarning, stacklevel=3)
    return None


def row_draws() -> str | None:
    """The path of this process's row draws and per-row solves, "compiled"
    or "numpy" (None before it takes either); never builds the loop."""
    if not _rowdraws.cache_info().currsize:
        return None
    return "numpy" if _rowdraws() is None else "compiled"


def _address(a: np.ndarray) -> int:
    """The address of the data of the C-contiguous, writable, nonempty array
    ``a``; about a fifth of the cost of ``a.ctypes.data``, which the
    constant stacks take once instead."""
    return ctypes.addressof(ctypes.c_char.from_buffer(a))


def _rows(X: np.ndarray, d: int) -> np.ndarray:
    """``X`` as the C-contiguous float64 (K, d) array the loop reads, copied
    only when it is not one; another shape raises a ValueError."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != d:
        raise ValueError(f"rows have shape {X.shape}, expected (K, {d})")
    return X


def potrs_rows(factors: np.ndarray, levels, b, at: int | None = None) -> np.ndarray | None:
    """The (K, C, d) systems ``b`` solved by scipy's LAPACK ``dpotrs`` in the
    compiled loop, system (k, c) on the lower Cholesky factor
    ``factors[levels[k], c]`` of the C-contiguous (L, C, d, d) stack of
    column-major factors, whose address ``at`` a caller that keeps the stack
    passes; None without the loop. Each system gets the bits of
    ``scipy.linalg.lapack.dpotrs(factor, b[k, c], lower=1)``.
    ``levels`` (in [0, L), which the caller checks) and ``b`` reach the loop
    as C-contiguous intp and float64 arrays, copied into that form when
    they are not, so ``b`` is solved in place only when it already is one.
    A nonzero ``info`` raises the ValueError of ``gmm._cho_solve_vec``."""
    lib = _rowdraws()
    if lib is None:
        return None
    b = np.ascontiguousarray(b, dtype=np.float64)
    levels = np.ascontiguousarray(levels, dtype=np.intp)
    K, C, d = b.shape
    if levels.shape != (K,) or factors.shape[1:] != (C, d, d):
        raise ValueError(f"potrs_rows: levels {levels.shape} and factors {factors.shape}"
                         " misfit b")
    if b.size and (info := lib.potrs_rows(lib.dpotrs, _address(factors) if at is None else at,
                                          C, d, _address(levels), K, _address(b))):
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return b


def _row_logpdfs(at: tuple, shape: tuple, dlog2pi: float, levels, X) -> np.ndarray | None:
    """The (K, C) component log-densities of the rows ``X`` (K, d), row k at
    its level ``levels[k]`` (a (K,) array, or one level for every row), in
    the compiled loop; None without it. ``at`` holds the addresses of a
    ``gmm._NoisyTable``'s packed LU factors (L, C, d, d), log-determinants
    (L, C) and means (C, d), whose ``shape`` is (C, d); ``dlog2pi`` is
    ``d * log(2 pi)``. Each (row, component) system is scipy's BLAS
    ``dtrsv`` (lower, unit diagonal) then a division by the diagonal, and
    its squares add in numpy's pairwise order, so each row gets the bits of
    the stacked ``np.linalg.solve`` on that row alone. A row whose
    difference from a mean is not finite comes out NaN for that component.
    Levels in [0, L) are the caller's to check."""
    lib = _rowdraws()
    if lib is None:
        return None
    C, d = shape
    X = _rows(X, d)
    K = len(X)
    if isinstance(levels, int):  # one level for every row, read with a stride of 0
        levels = ctypes.c_ssize_t(levels)
        levels_at, step = ctypes.addressof(levels), 0
    else:
        levels = np.ascontiguousarray(levels, dtype=np.intp)
        if levels.shape != (K,):
            raise ValueError(f"_row_logpdfs: levels {levels.shape} misfit rows {X.shape}")
        levels_at, step = K and _address(levels), 1
    out = np.empty((K, C))
    if K:
        work = np.empty(d)
        lib.row_logpdfs(lib.dtrsv, *at, C, d, dlog2pi, levels_at, step, K, _address(X),
                         _address(work), _address(out))
    return out


def _set_logpdfs(at: tuple, shape: tuple, dlog2pi: float, level: int, X) -> np.ndarray | None:
    """The (n, C) component log-densities of the particles ``X`` (n, d) at
    ``level``, in the compiled loop, with the arguments of ``_row_logpdfs``;
    None without the loop, or when a difference from a mean or an entry of
    a solution is not finite (the caller's stacked solve then gives those
    bits). Per component, scipy's BLAS ``dtrsm`` (lower, unit diagonal)
    solves all n columns, the product by the reciprocal of the diagonal
    finishes the multi-column ``getrs`` of the ``gesv`` that
    ``np.linalg.solve`` runs, and each column's squares add in index order,
    the order of numpy's reduce over the particle axis. One particle takes
    the one-column solve and the pairwise sum of ``_row_logpdfs``, as
    ``np.linalg.solve`` and numpy's reduce do for it."""
    lib = _rowdraws()
    if lib is None:
        return None
    C, d = shape
    X = _rows(X, d)
    n = len(X)
    out, work = np.empty((n, C)), np.empty(n * d + d)
    if n and lib.set_logpdfs(lib.dtrsv, lib.dtrsm, *at, C, d, dlog2pi, level, n, _address(X),
                             _address(work), _address(out)):
        return None
    return out


def _row_normalised(lp: np.ndarray, log_weights_at: int) -> np.ndarray | None:
    """``lp + log_weights - logsumexp(lp + log_weights, axis=-1)`` of the
    (K, C) component log-densities ``lp``, the log responsibilities, in the
    compiled loop with the log weights (C,) at ``log_weights_at``; None
    without the loop or when a row's maximum or logsumexp is not finite,
    where ``gmm._logsumexp`` takes its direct form. The loop runs
    ``gmm._logsumexp``'s sequence of operations, in three passes around
    numpy's own ``exp``, ``log1p`` and ``log``, on one workspace."""
    lib = _rowdraws()
    if lib is None:
        return None
    lp = np.ascontiguousarray(lp, dtype=np.float64)
    K, C = lp.shape
    out = np.empty((K, C))
    if not K:
        return out
    work = np.empty(K * C + 3 * K)  # t (K, C), then s, m and the maxima (K,) each
    t, s, m = work[:K * C], work[K * C:K * C + K], work[K * C + K:K * C + 2 * K]
    at = _address(work)
    t_at, s_at, m_at, mx_at = at, at + 8 * K * C, at + 8 * (K * C + K), at + 8 * (K * C + 2 * K)
    out_at = _address(out)
    if lib.normalise_shift(_address(lp), log_weights_at, K, C, out_at, t_at, mx_at, m_at):
        return None
    np.exp(t, out=t)
    lib.normalise_sum(t_at, K, C, m_at, s_at)
    np.log1p(s, out=s)
    np.log(m, out=m)
    if lib.normalise_finish(out_at, K, C, s_at, m_at, mx_at):
        return None
    return out


def _row_transitions(at: tuple, shape: tuple, level: int, logr: np.ndarray, X, rngs
                    ) -> np.ndarray | None:
    """One reverse-kernel transition of each row of ``X`` (K, d) at
    ``level``, in the compiled loop, row k drawing one uniform then d
    normals from its own row of the streams ``rngs`` (a ``_Streams``); None
    without the loop or when ``rngs`` draw through numpy. ``at`` holds the
    addresses of a ``diffusion.ReverseKernel``'s mean slopes (L, C, d, d),
    offsets (L, C, d) and transition factors (L, C, d, d), with
    ``shape`` (C, d); ``logr`` (K, C) holds the rows' log
    responsibilities. Row k picks the component by inverse CDF of the
    running sum of numpy's ``exp(logr[k])`` at its uniform, capped at C - 1, then adds its
    conditional mean and noise, each product one scipy BLAS ``dgemv``, the
    routine of numpy's stacked vector-matrix product: the bits of the numpy
    transition on that row alone."""
    lib = _rowdraws()
    if lib is None or rngs._at is None:
        return None
    C, d = shape
    X = _rows(X, d)
    K = len(X)
    if len(rngs) != K or logr.shape != (K, C):
        raise ValueError(f"_row_transitions: {len(rngs)} streams and logr {logr.shape} misfit"
                         f" rows {X.shape}")
    resp = np.ascontiguousarray(np.exp(logr))
    out, work = np.empty((K, d)), np.empty(3 * d)
    if K:
        lib.row_transitions(rngs._at, lib.dgemv, *at, C, d, level, K, _address(X),
                            _address(resp), _address(work), _address(out))
    return out


# numpy's and scipy's OpenBLAS builds (the ILP64 one numpy links and the LP64
# one scipy links): an extension module of each package that links it, and
# the suffix of its ``scipy_openblas_*_num_threads`` functions
_OPENBLAS = {"numpy": ("numpy._core._multiarray_umath", "64_"),
             "scipy": ("scipy.linalg._fblas", "")}


def _openblas(package: str, verb: str):
    """``scipy_openblas_<verb>_num_threads`` of ``package``'s OpenBLAS as a
    ctypes function, or None when that package links none with it."""
    module, suffix = _OPENBLAS[package]
    try:
        lib = ctypes.CDLL(importlib.import_module(module).__file__)
        return getattr(lib, f"scipy_openblas_{verb}_num_threads{suffix}")
    except (ImportError, OSError, AttributeError):
        return None


def one_blas_thread() -> None:
    """Run numpy's and scipy's OpenBLAS on one thread, whether they were
    loaded before or after this call; a build without the setter is left
    alone."""
    for package in _OPENBLAS:
        setter = _openblas(package, "set")
        if setter is not None:
            setter(1)


def blas_threads() -> dict:
    """The thread count numpy's and scipy's OpenBLAS each report, None for
    a build without the getter."""
    return {package: None if (getter := _openblas(package, "get")) is None else getter()
            for package in _OPENBLAS}


class _Streams:
    """The generators of a batch's rows, row k drawing from ``rngs[k]``.

    Each draw gives row k the numbers of the matching ``np.random.Generator``
    method on ``rngs[k]`` alone and leaves it in the same state. With the
    compiled row loop (``_rowdraws``) a draw is one C call over the rows'
    ``bitgen_t`` pointers, taken from the generators here, once, without
    the generator lock (sampling runs on one thread); without it, one numpy
    call per row. The path is decided here and never changes: narrowing the
    rows (``take``) makes new streams. The streams hold the generators,
    which keep the pointers valid.
    """

    def __init__(self, rngs):
        self.rngs = list(rngs)
        self._lib = _rowdraws()
        self._pointers = None if self._lib is None else np.array(
            [_capsule_pointer(rng.bit_generator.capsule, b"BitGenerator") for rng in self.rngs],
            dtype=np.uintp)
        self._at = None if self._pointers is None else self._pointers.ctypes.data

    def __len__(self) -> int:
        return len(self.rngs)

    def take(self, rows) -> "_Streams":
        """The streams of the rows at the indices ``rows``."""
        return _Streams([self.rngs[k] for k in rows])

    def normals(self, shape=()) -> np.ndarray:
        """(K, *shape) standard normals; row k is ``rngs[k].standard_normal(shape)``."""
        shape = shape if isinstance(shape, tuple) else (shape,)
        out, n = np.empty((len(self.rngs), *shape)), math.prod(shape)
        if self._pointers is None:
            for row, rng in zip(out.reshape(len(self.rngs), n), self.rngs):
                rng.standard_normal(out=row)
        elif out.size:
            self._lib.normals(self._at, len(self.rngs), n, _address(out))
        return out

    def uniforms(self, n=None) -> np.ndarray:
        """(K,) uniforms on [0, 1), row k ``rngs[k].random()``; with ``n``,
        (K, n), row k ``rngs[k].random(n)``."""
        out = np.empty((len(self.rngs), 1 if n is None else n))
        if self._pointers is None:
            for row, rng in zip(out, self.rngs):
                rng.random(out=row)
        elif out.size:
            self._lib.uniforms(self._at, len(self.rngs), out.shape[1], _address(out))
        return out[:, 0] if n is None else out

    def below(self, high: int) -> np.ndarray:
        """(K,) int64, row k ``rngs[k].integers(high)``, for 1 <= high <= 2^63."""
        if not 1 <= high <= 2**63:
            raise ValueError(f"high must lie within [1, 2^63], got {high!r}")
        if self._pointers is None:
            return np.array([rng.integers(high) for rng in self.rngs], dtype=np.int64)
        out = np.empty(len(self.rngs), dtype=np.uint64)
        if out.size:
            self._lib.below(self._at, len(self.rngs), high, _address(out))
        return out.view(np.int64)
