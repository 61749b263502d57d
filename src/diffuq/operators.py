"""Linear forward operators in SVD form and measurement synthesis."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .gmm import _vecmat_rows

__all__ = [
    "LinearOperatorSVD",
    "Measurement",
    "build_operator",
    "apply_forward",
    "apply_pinv",
    "synthesize_measurement",
    "operator_to_json",
    "operator_from_json",
]

_ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class LinearOperatorSVD:
    """Forward operator A = U diag(S) V^T with explicit factors.

    For the observed/null-space experiment the singular values are binary,
    so the columns of V split into an observed and a null index set.
    """

    U: np.ndarray  # (m, m)
    S: np.ndarray  # (min(m, d),)
    V: np.ndarray  # (d, d)
    kind: str = "custom"
    seed: int | None = None
    _matrix: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        U = np.asarray(self.U, dtype=float)
        S = np.asarray(self.S, dtype=float)
        V = np.asarray(self.V, dtype=float)
        for name, Q in (("U", U), ("V", V)):
            if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
                raise ValueError(f"{name} must be square")
            if np.max(np.abs(Q.T @ Q - np.eye(Q.shape[0]))) > _ORTHO_TOL:
                raise ValueError(f"{name} is not orthogonal to 1e-10")
        if S.shape != (min(U.shape[0], V.shape[0]),):
            raise ValueError("S must have length min(m, d)")
        if np.any(S < 0):
            raise ValueError("singular values must be nonnegative")
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "V", V)
        Sd = np.zeros((U.shape[0], V.shape[0]))
        Sd[: len(S), : len(S)] = np.diag(S)
        M = U @ Sd @ V.T
        M.setflags(write=False)
        object.__setattr__(self, "_matrix", M)

    @property
    def m(self) -> int:
        return self.U.shape[0]

    @property
    def d(self) -> int:
        return self.V.shape[0]

    def matrix(self) -> np.ndarray:
        """Dense m x d matrix U diag(S) V^T, built once; read-only."""
        return self._matrix

    def spectral_s(self) -> np.ndarray:
        """Singular values padded to length d (zeros beyond min(m, d))."""
        s = np.zeros(self.d)
        s[: len(self.S)] = self.S
        return s

    def spectral_y(self, y) -> np.ndarray:
        """An observation in the spectral basis: U^T y cut or zero-padded to length d."""
        yb = np.zeros(self.d)
        yb[: len(self.S)] = (self.U.T @ np.asarray(y))[: len(self.S)]
        return yb

    def is_binary(self) -> bool:
        return bool(np.all((self.S == 0.0) | (self.S == 1.0)))

    def obs_null_split(self):
        """(observed, null) index sets over columns of V (binary S only)."""
        s = self.spectral_s()
        return np.flatnonzero(s == 1.0), np.flatnonzero(s == 0.0)


@dataclass(frozen=True)
class Measurement:
    """One synthesized measurement with its provenance."""

    y: np.ndarray
    x_star: np.ndarray
    sigma_y: float
    operator: LinearOperatorSVD
    seed: int

    def __post_init__(self):
        if np.asarray(self.y).shape != (self.operator.m,):
            raise ValueError("y dimension does not match operator output")


def _haar_orthogonal(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random orthogonal matrix: QR of a Gaussian with sign-fixed diagonal."""
    G = rng.standard_normal((d, d))
    Q, R = np.linalg.qr(G)
    return Q * np.sign(np.diag(R))


def build_operator(kind: str, d: int, obs_count: int | None = None,
                   basis_mode: str = "coordinate", seed: int = 0) -> LinearOperatorSVD:
    """Construct the benchmark operators.

    ``identity``: U = V = I and unit singular values.
    ``binary_svd``: first ``obs_count`` singular values 1, the rest 0; V is
    the identity (``coordinate``) or a seeded Haar-random orthogonal matrix
    (``random_orthogonal``).
    """
    if kind == "identity":
        eye = np.eye(d)
        return LinearOperatorSVD(eye, np.ones(d), eye, kind=kind, seed=seed)
    if kind == "binary_svd":
        if obs_count is None:
            raise ValueError("binary_svd requires obs_count")
        if not (0 <= obs_count <= d):
            raise ValueError(f"obs_count {obs_count} outside [0, {d}]")
        S = np.zeros(d)
        S[:obs_count] = 1.0
        if basis_mode == "coordinate":
            V = np.eye(d)
        elif basis_mode == "random_orthogonal":
            V = _haar_orthogonal(d, np.random.default_rng(seed))
        else:
            raise ValueError(f"unknown basis_mode {basis_mode!r}")
        return LinearOperatorSVD(np.eye(d), S, V, kind=kind, seed=seed)
    raise ValueError(f"unknown operator kind {kind!r}")


def apply_forward(A: LinearOperatorSVD, x: np.ndarray) -> np.ndarray:
    """U diag(S) V^T x."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != A.d:
        raise ValueError(f"x has dimension {x.shape[-1]}, operator expects {A.d}")
    return _forward(A, x, np.matmul)


def _forward_rows(A: LinearOperatorSVD, X: np.ndarray) -> np.ndarray:
    """``apply_forward`` of each row of the (K, d) array ``X`` on its own."""
    return _forward(A, X, _vecmat_rows)


def _forward(A, x, vecmat):
    z = vecmat(x, A.V)  # V^T x, batched on leading axes
    z = z[..., : len(A.S)] * A.S
    out = np.zeros(x.shape[:-1] + (A.m,))
    out[..., : len(A.S)] = z
    return vecmat(out, A.U.T)


def apply_pinv(A: LinearOperatorSVD, y: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse: zero singular values map to zero."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != A.m:
        raise ValueError(f"y has dimension {y.shape[-1]}, operator output is {A.m}")
    return _pinv(A, y, np.matmul)


def _pinv_rows(A: LinearOperatorSVD, Y: np.ndarray) -> np.ndarray:
    """``apply_pinv`` of each row of the (K, m) array ``Y`` on its own."""
    return _pinv(A, Y, _vecmat_rows)


def _pinv(A, y, vecmat):
    z = vecmat(y, A.U)
    s = A.S
    sinv = np.divide(1.0, s, out=np.zeros_like(s), where=s > 0)
    z = z[..., : len(s)] * sinv
    out = np.zeros(y.shape[:-1] + (A.d,))
    out[..., : len(s)] = z
    return vecmat(out, A.V.T)


def synthesize_measurement(A: LinearOperatorSVD, x_star: np.ndarray,
                           sigma_y: float, seed: int) -> Measurement:
    """y = A x_star + sigma_y * xi with standard-normal xi from ``seed``."""
    if sigma_y < 0:
        raise ValueError("sigma_y must be >= 0")
    rng = np.random.default_rng(seed)
    y = apply_forward(A, x_star) + sigma_y * rng.standard_normal(A.m)
    return Measurement(y=y, x_star=np.asarray(x_star, dtype=float),
                       sigma_y=sigma_y, operator=A, seed=seed)


def operator_to_json(A: LinearOperatorSVD) -> str:
    """Documented JSON form: U, S, V row-major plus kind and seed."""
    return json.dumps({
        "kind": A.kind,
        "seed": A.seed,
        "m": A.m,
        "d": A.d,
        "U": A.U.ravel().tolist(),
        "S": A.S.tolist(),
        "V": A.V.ravel().tolist(),
    })


def operator_from_json(text: str) -> LinearOperatorSVD:
    obj = json.loads(text)
    m, d = obj["m"], obj["d"]
    return LinearOperatorSVD(
        U=np.array(obj["U"]).reshape(m, m),
        S=np.array(obj["S"]),
        V=np.array(obj["V"]).reshape(d, d),
        kind=obj["kind"],
        seed=obj["seed"],
    )
