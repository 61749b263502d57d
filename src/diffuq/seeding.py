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
loop (``_rowdraws``), which draws the rows' numbers and solves the per-row
systems of the row-wise responsibilities (``trsv_rows``) and of reddiff's
scores (``potrs_rows``), and the thread count of numpy's and scipy's
OpenBLAS (``one_blas_thread``, ``blas_threads``).
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

__all__ = ["derive_seed", "row_seeds", "streams", "row_draws", "potrs_rows", "trsv_rows",
           "one_blas_thread", "blas_threads"]

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
    state of ``np.random.default_rng(seeds[k])``, and its ``bitgen_t``
    pointer, taken in the same pass."""
    rngs, pointers = [], []
    for words in _pcg64_words(seeds):
        bitgen = np.random.PCG64(_Words(words))
        rngs.append(np.random.Generator(bitgen))
        pointers.append(_capsule_pointer(bitgen.capsule, b"BitGenerator"))
    return _Streams(rngs, np.array(pointers, dtype=np.uintp))


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


@functools.cache
def _rowdraws():
    """The compiled row loop of ``_rowdraws.c`` as a ctypes library, or None
    (with a RuntimeWarning that says why) when it cannot be built or loaded;
    decided once per process, at its first streams or row solve (the first
    row-wise responsibilities build it too). The library holds, as
    ``dpotrs`` and ``dtrsv``, the addresses of scipy's own LAPACK ``dpotrs``
    and BLAS ``dtrsv``, taken from the capsules of ``scipy.linalg``'s
    ``cython_lapack`` and ``cython_blas``. It is compiled with
    ``$CC`` (default ``cc``) against numpy's ``libnpyrandom.a`` into
    ``$XDG_CACHE_HOME/diffuq`` (default ``~/.cache/diffuq``), keyed by the
    source, numpy, the interpreter and the machine, under a temporary name
    first, so concurrent builds do not clash."""
    try:
        source = _ROWDRAWS_SOURCE.read_bytes()
        key = hashlib.sha256(b"\0".join([source, np.__version__.encode(),
                                         sys.implementation.cache_tag.encode(),
                                         platform.machine().encode()])).hexdigest()[:16]
        cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "diffuq"
        path = cache / f"rowdraws-{key}.so"
        if not path.exists():
            cache.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
            os.close(fd)
            try:
                subprocess.run([*(os.environ.get("CC") or "cc").split(), "-O2", "-shared",
                                "-fPIC", f"-I{np.get_include()}",
                                f"-I{sysconfig.get_paths()['include']}", str(_ROWDRAWS_SOURCE),
                                str(Path(np.random.__file__).with_name("lib") / "libnpyrandom.a"),
                                "-lm", "-o", tmp], check=True, capture_output=True, timeout=300)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        lib = ctypes.CDLL(str(path))
        size, ptr = ctypes.c_ssize_t, ctypes.c_void_p
        for name, count in (("normals", size), ("uniforms", size), ("below", ctypes.c_uint64)):
            getattr(lib, name).argtypes = [ptr, size, count, ptr]
            getattr(lib, name).restype = None
        for name, result in (("potrs_rows", ctypes.c_int), ("trsv_rows", None)):
            getattr(lib, name).argtypes = [ptr, ptr, size, ctypes.c_int, ptr, size, ptr]
            getattr(lib, name).restype = result
        from scipy.linalg import cython_blas, cython_lapack

        for module, name in ((cython_lapack, "dpotrs"), (cython_blas, "dtrsv")):
            capsule = module.__pyx_capi__[name]
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
    ``a``; about a fifth of the cost of ``a.ctypes.data``."""
    return ctypes.addressof(ctypes.c_char.from_buffer(a))


def _solve_rows(routine: str, factors: np.ndarray, levels, b) -> np.ndarray | None:
    """The (K, C, d) systems ``b`` solved by the compiled loop's ``routine``
    (``potrs_rows`` or ``trsv_rows``, which call scipy's routine of their
    name with a ``d``, held by the library under that name), system (k, c)
    on ``factors[levels[k], c]`` of the C-contiguous (L, C, d, d) stack of
    column-major factors; None without the loop.
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
        raise ValueError(f"{routine}: levels {levels.shape} and factors {factors.shape} misfit b")
    if b.size and (info := getattr(lib, routine)(getattr(lib, "d" + routine[:-5]),
                                                 _address(factors), C, d, _address(levels), K,
                                                 _address(b))):
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return b


def potrs_rows(factors: np.ndarray, levels, b) -> np.ndarray | None:
    """``_solve_rows`` with scipy's LAPACK ``dpotrs`` on lower Cholesky
    factors: each system gets the bits of ``scipy.linalg.lapack.dpotrs(
    factor, b[k, c], lower=1)``."""
    return _solve_rows("potrs_rows", factors, levels, b)


def trsv_rows(lus: np.ndarray, levels, b) -> np.ndarray | None:
    """``_solve_rows`` with scipy's BLAS ``dtrsv`` (lower, unit diagonal) on
    ``getrf``'s packed LU factors of lower triangular matrices that it does
    not pivot, then a division by their diagonal, the whole upper factor."""
    return _solve_rows("trsv_rows", lus, levels, b)


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
    ``bitgen_t`` pointers (given, or taken here), without the generator lock
    (sampling runs on one thread); without it, one numpy call per row. The
    streams hold the generators, which keep the pointers valid.
    """

    def __init__(self, rngs, pointers=None):
        self.rngs = list(rngs)
        self._lib = _rowdraws()
        if self._lib is not None and pointers is None:
            pointers = np.array([_capsule_pointer(rng.bit_generator.capsule, b"BitGenerator")
                                 for rng in self.rngs], dtype=np.uintp)
        self._point(None if self._lib is None else pointers)

    def _point(self, pointers) -> None:
        """Hold the rows' ``bitgen_t`` pointers (None: the numpy path) and
        the address of their array."""
        self._pointers = pointers
        self._at = None if pointers is None else pointers.ctypes.data

    def __len__(self) -> int:
        return len(self.rngs)

    def take(self, rows) -> "_Streams":
        """The streams of the rows at the indices ``rows``."""
        return _Streams([self.rngs[k] for k in rows],
                        None if self._pointers is None else self._pointers[rows])

    def keep(self, mask) -> None:
        """Drop the rows where the boolean ``mask`` is False."""
        self.rngs = [rng for rng, keep in zip(self.rngs, mask) if keep]
        if self._pointers is not None:
            self._point(self._pointers[mask])

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
