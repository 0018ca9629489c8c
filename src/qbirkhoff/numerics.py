"""Dense complex linear algebra helpers with a shared tolerance discipline.

Every rank, positivity and equality decision in the package routes through
this module, so a single vectorization convention (column stacking) and a
single set of cutoffs apply everywhere.  :func:`rank_cutoff` is the one rank
cutoff (``rank_rel`` times the largest magnitude, floored at 1) and
:func:`psd_factor` the one PSD square root.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOLERANCE",
    "NumericalFailure",
    "NotCompletelyPositive",
    "as_matrix",
    "dagger",
    "vec",
    "unvec",
    "frobenius_norm",
    "operator_norm",
    "max_abs",
    "hermitize",
    "hermitian_eig",
    "rank_cutoff",
    "numerical_rank",
    "psd_allowance",
    "is_psd",
    "psd_factor",
    "partial_trace",
    "phase_fixed",
]


class NumericalFailure(RuntimeError):
    """A verified construction failed its consistency check beyond tolerance."""


class NotCompletelyPositive(ValueError):
    """A matrix that must be PSD has a negative eigenvalue beyond tolerance."""


@dataclass(frozen=True)
class Tolerance:
    """Numerical cutoffs shared by the whole package.

    rank_rel   rank cutoff relative to the largest magnitude (floored at 1)
    psd_abs    allowance for the most negative eigenvalue, scaled by the
               largest eigenvalue magnitude (floored at 1)
    eq_abs     entrywise allowance for equality tests
    """

    rank_rel: float = 1e-9
    psd_abs: float = 1e-9
    eq_abs: float = 1e-9

    def __post_init__(self):
        for name in ("rank_rel", "psd_abs", "eq_abs"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {value!r}")


DEFAULT_TOLERANCE = Tolerance()


def as_matrix(m, dtype=complex) -> np.ndarray:
    """Coerce to a 2-d array (complex by default), rejecting non-finite entries."""
    arr = np.asarray(m, dtype=dtype)
    if arr.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix contains non-finite entries")
    return arr


def dagger(m) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.conj(np.asarray(m)).swapaxes(-1, -2)


def vec(m) -> np.ndarray:
    """Column stacking of the last two axes; vec(a @ x @ b) == kron(b.T, a) @ vec(x)."""
    m = np.asarray(m)
    return m.swapaxes(-1, -2).reshape(*m.shape[:-2], -1)


def unvec(x, n: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec`, (..., n²) -> (..., n, n)."""
    x = np.asarray(x)
    if n is None:
        n = int(round(np.sqrt(x.shape[-1])))
    if n * n != x.shape[-1]:
        raise ValueError(f"vector of size {x.shape[-1]} is not a square matrix")
    return x.reshape(*x.shape[:-1], n, n).swapaxes(-1, -2)


def frobenius_norm(m) -> float:
    return float(np.linalg.norm(np.asarray(m)))


def operator_norm(m) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(np.asarray(m), 2))


def max_abs(m) -> float:
    """Largest entry magnitude; 0 for an empty array."""
    arr = np.asarray(m)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def hermitize(m, eq_abs: float | None = None) -> np.ndarray:
    """Hermitian part (m + m*)/2; with ``eq_abs`` given, reject inputs further
    from hermitian than the allowance."""
    arr = as_matrix(m)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if eq_abs is not None and max_abs(arr - dagger(arr)) > eq_abs:
        raise ValueError("matrix is not hermitian within tolerance")
    return (arr + dagger(arr)) / 2.0


def hermitian_eig(m, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending, real) and matching orthonormal eigenvector
    columns of a hermitian matrix.

    The input is hermitized before the solve; inputs that are not hermitian
    within ``tol.eq_abs`` are rejected.
    """
    h = hermitize(m, eq_abs=tol.eq_abs)
    vals, vecs = np.linalg.eigh(h)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def rank_cutoff(values, tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """The one rank cutoff: ``rank_rel`` times the largest magnitude among
    ``values``, floored at 1; values at or below it count as zero."""
    return tol.rank_rel * max(1.0, max_abs(values))


def numerical_rank(m, tol: Tolerance = DEFAULT_TOLERANCE) -> int:
    """Number of singular values above :func:`rank_cutoff`; a real matrix
    keeps its real SVD."""
    arr = as_matrix(m, float if np.isrealobj(m) else complex)
    if arr.size == 0:
        return 0
    s = np.linalg.svd(arr, compute_uv=False)
    return int(np.count_nonzero(s > rank_cutoff(s, tol)))


def psd_allowance(vals, tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """How far below zero the smallest of ``vals`` may lie and still count as
    PSD: ``psd_abs`` scaled by the largest eigenvalue magnitude (floored at 1)."""
    return tol.psd_abs * max(1.0, max_abs(vals))


def is_psd(m, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Positive semidefiniteness of a hermitian matrix, within :func:`psd_allowance`."""
    vals, _ = hermitian_eig(m, tol)
    return vals.size == 0 or float(vals[-1]) >= -psd_allowance(vals, tol)


def psd_factor(m, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[np.ndarray, np.ndarray]:
    """(vals, cols): the eigenvalues of a hermitian m above :func:`rank_cutoff`,
    descending, and their eigencolumns scaled by sqrt, so cols @ cols* ≈ m.
    Raises :class:`NotCompletelyPositive` unless m is PSD within
    :func:`psd_allowance` with a positive eigenvalue."""
    vals, vecs = hermitian_eig(m, tol)
    if not vals.size or vals[0] <= 0.0:
        raise NotCompletelyPositive("not PSD: no positive eigenvalue")
    allowance = psd_allowance(vals, tol)
    if vals[-1] < -allowance:
        raise NotCompletelyPositive(f"not PSD: eigenvalue {vals[-1]:.3e} below -{allowance:.3e}")
    keep = vals > rank_cutoff(vals, tol)
    return vals[keep], vecs[:, keep] * np.sqrt(vals[keep])


def partial_trace(m, dims: tuple[int, int], side: str) -> np.ndarray:
    """Trace out one tensor factor of a matrix on a bipartite space.

    ``dims`` declares the factor sizes (first is the slow index, matching
    ``numpy.kron`` order); ``side`` names the factor that is traced out.
    """
    arr = as_matrix(m)
    d1, d2 = dims
    if d1 <= 0 or d2 <= 0 or arr.shape != (d1 * d2, d1 * d2):
        raise ValueError(f"matrix of shape {arr.shape} does not match factors {dims}")
    four = arr.reshape(d1, d2, d1, d2)
    if side == "first":
        return np.trace(four, axis1=0, axis2=2)
    if side == "second":
        return np.trace(four, axis1=1, axis2=3)
    raise ValueError(f"side must be 'first' or 'second', got {side!r}")


def phase_fixed(m, eq_abs: float = DEFAULT_TOLERANCE.eq_abs) -> np.ndarray:
    """Rotate a matrix, or each matrix of a d×n×n stack, by a global phase so
    its first entry of modulus above ``eq_abs`` (row-major scan) becomes real
    positive; a matrix with no such entry is left as it is."""
    arr = np.asarray(m, dtype=complex)
    flat = arr.reshape(-1, arr.shape[-2] * arr.shape[-1])  # one row per matrix, or none
    above = np.abs(flat) > eq_abs
    found = above.any(axis=1)[:, None]
    z = np.where(found, flat[np.arange(len(flat)), np.argmax(above, axis=1)][:, None], 1.0)
    # hypot, not np.abs: on arrays np.abs rounds differently from abs() of one
    # entry, and the canonical Kraus bytes must not move
    turn = np.conj(z) / np.hypot(z.real, z.imag)
    return np.where(found, flat * turn, flat).reshape(arr.shape)
