"""Dense complex linear algebra helpers with a shared tolerance discipline.

Every rank, positivity and equality decision in the package routes through
this module, so a single vectorization convention (column stacking) and a
single cutoff apply everywhere.  :class:`Tolerance` holds that one value:
:func:`rank_cutoff` scales it by the largest magnitude (floored at 1) for the
rank drop, the PSD allowance and an eigenvalue's distance to 1;
:func:`psd_columns` is the one PSD keep rule, on given eigenpairs or those of
:func:`psd_factor`; equality tests compare entrywise against the value itself.
:func:`hermitian_pair_map` is the one real map in hermitian coordinates, and
:func:`diagonal_blocks` the one split of a square matrix by its exact zeros.

The pair map reads pair arrays of at most :data:`_PLAN_ENTRIES` = 4096 output
entries d²n² through a flat index plan cached per (d, n), and larger ones by
strided blocks; the two agree byte for byte.  Every rank-test shape lies under
the cap, where the plan pays most: 5.6 against 18.0 µs a call at (d, n) = (5, 3),
14.9 against 31.4 µs at (9, 6).  On the real form's transposed view of T it
pays less (40.9 against 53.9 µs at n = 9) and loses from n = 12 (134 against
118 µs; 657 against 378 µs at n = 16), while its plans grow as n⁴; that form is
built once per channel, so n ≥ 9 keeps the strided gather (best of 7, one
thread, 2-core x86-64).

Every other cutoff is a property of :class:`Tolerance` derived from it.  The
literals that stay fixed order output or bound roundoff, and decide nothing at the
cutoff: 12-digit sort keys, ``faces``' polydisc slack, ``birkhoff``'s clamp and floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
    "diagonal_blocks",
    "block_views",
    "numerical_rank",
    "is_psd",
    "psd_columns",
    "psd_factor",
    "phase_fixed",
    "projection_eigenbasis",
    "hermitian_pair_map",
    "hermitian_from_coordinates",
]


class NumericalFailure(RuntimeError):
    """A verified construction failed its consistency check beyond tolerance."""


class NotCompletelyPositive(ValueError):
    """A matrix that must be PSD has a negative eigenvalue beyond tolerance."""


@dataclass(frozen=True)
class Tolerance:
    """The one numerical cutoff shared by the whole package.

    ``cutoff`` is relative for rank and PSD decisions (times the largest
    magnitude, floored at 1, see :func:`rank_cutoff`) and absolute for
    entrywise equality tests.  The properties are the cutoffs derived from it; at
    the default they are 1e-8, 1e-8, 1e-7 and 1e-10 exactly.
    """

    cutoff: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.cutoff < 1.0:
            raise ValueError(f"cutoff must lie in (0, 1), got {self.cutoff!r}")

    @property
    def residual(self) -> float:
        """A residual after a solve (certificate, invariant spectra): a decade above the cutoff."""
        return 10 * self.cutoff

    @property
    def band(self) -> float:
        """|λ| > 1 − band is peripheral: above 2·cutoff, the largest |λ − 1| counted as fixed."""
        return 10 * self.cutoff

    @property
    def structural(self) -> float:
        """Checks behind an eigensolve and a root's branch cut: 100·cutoff, as 10·residual,
        which is 1e-7 exactly at the default (100·1e-9 is not)."""
        return 10 * self.residual

    @property
    def boundary(self) -> float:
        """cutoff/10, the M₃ face's band around eigenvalue 0: a determinant in it is < cutoff."""
        return self.cutoff / 10


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
    return float(np.abs(arr).max()) if arr.size else 0.0


def hermitize(m, cutoff: float) -> np.ndarray:
    """Hermitian part (m + m*)/2, rejecting inputs further from hermitian than
    ``cutoff``."""
    arr = as_matrix(m)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if max_abs(arr - dagger(arr)) > cutoff:
        raise ValueError("matrix is not hermitian within tolerance")
    return (arr + dagger(arr)) / 2.0


def hermitian_eig(m, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending, real) and matching orthonormal eigenvector
    columns of a hermitian matrix.

    The input is hermitized before the solve; inputs that are not hermitian
    within ``tol.cutoff`` are rejected.
    """
    h = hermitize(m, tol.cutoff)
    vals, vecs = np.linalg.eigh(h)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def rank_cutoff(values, tol: Tolerance = DEFAULT_TOLERANCE) -> float:
    """The one scaled cutoff: ``tol.cutoff`` times the largest magnitude among
    ``values``, floored at 1.  Values at or below it count as zero in a rank,
    and an eigenvalue no further below zero than it still counts as PSD."""
    return tol.cutoff * max(1.0, max_abs(values))


def diagonal_blocks(m) -> list:
    """Index arrays of the connected components of a square m's exact nonzero
    pattern (m[i, j] != 0 joins i and j), by first index.  Permuted by them, m
    is block diagonal, so its eigenvalues and singular values are the blocks'."""
    link = (m != 0) | (m.T != 0)
    # an index with no off-diagonal nonzero in its row and column is a block of its own
    alone = np.count_nonzero(link, axis=0) == link.diagonal()
    blocks, rest = list(np.flatnonzero(alone)[:, None]), np.flatnonzero(~alone)
    while rest.size:
        seen = link[rest[0]]
        seen[rest[0]] = True  # a view: link's diagonal, which joins nothing
        size, grown = 0, np.count_nonzero(seen)
        # breadth-first steps until the block stops growing or holds all that is left
        while size < grown < rest.size:
            seen = link[seen].any(axis=0)
            size, grown = grown, np.count_nonzero(seen)
        inside = seen[rest]
        blocks.append(rest[inside])
        rest = rest[~inside]
    blocks.sort(key=lambda b: b[0])
    return blocks


def block_views(m, blocks) -> list:
    """The diagonal blocks m[b, b] of index arrays ``blocks``; m itself, not
    a copy, when one block spans it."""
    return [m] if len(blocks) == 1 else [m[np.ix_(b, b)] for b in blocks]


def numerical_rank(m, tol: Tolerance = DEFAULT_TOLERANCE) -> int:
    """Number of singular values above :func:`rank_cutoff`; a real matrix
    keeps its real SVD."""
    arr = as_matrix(m, float if np.isrealobj(m) else complex)
    if arr.size == 0:
        return 0
    s = np.linalg.svd(arr, compute_uv=False)
    return int(np.count_nonzero(s > rank_cutoff(s, tol)))


def is_psd(m, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Positive semidefiniteness of a hermitian matrix, within :func:`rank_cutoff`."""
    vals, _ = hermitian_eig(m, tol)
    return vals.size == 0 or float(vals[-1]) >= -rank_cutoff(vals, tol)


def psd_columns(vals, vecs, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[np.ndarray, np.ndarray]:
    """(vals, cols) of eigenpairs, ``vals`` descending, of a hermitian m: those above
    :func:`rank_cutoff`, columns scaled by sqrt, so cols @ cols* ≈ m.  Raises
    :class:`NotCompletelyPositive` unless m is PSD within it, with a positive eigenvalue."""
    if not vals.size or vals[0] <= 0.0:
        raise NotCompletelyPositive("not PSD: no positive eigenvalue")
    cutoff = rank_cutoff(vals, tol)
    if vals[-1] < -cutoff:
        raise NotCompletelyPositive(f"not PSD: eigenvalue {vals[-1]:.3e} below -{cutoff:.3e}")
    keep = vals > cutoff
    return vals[keep], vecs[:, keep] * np.sqrt(vals[keep])


def psd_factor(m, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[np.ndarray, np.ndarray]:
    """(vals, cols): :func:`psd_columns` of a hermitian m's :func:`hermitian_eig`."""
    return psd_columns(*hermitian_eig(m, tol), tol)


def phase_fixed(m, cutoff: float) -> np.ndarray:
    """Rotate a matrix, or each matrix of a d×n×n stack, by a global phase so
    its first entry of modulus above ``cutoff`` (row-major scan) becomes real
    positive; a matrix with no such entry is left as it is."""
    arr = np.asarray(m, dtype=complex)
    flat = arr.reshape(-1, arr.shape[-2] * arr.shape[-1])  # one row per matrix, or none
    above = np.abs(flat) > cutoff
    found = above.any(axis=1)[:, None]
    z = np.where(found, flat[np.arange(len(flat)), np.argmax(above, axis=1)][:, None], 1.0)
    # hypot, not np.abs: on arrays np.abs rounds differently from abs() of one
    # entry, and the canonical Kraus bytes must not move
    turn = np.conj(z) / np.hypot(z.real, z.imag)
    return np.where(found, flat * turn, flat).reshape(arr.shape)


def projection_eigenbasis(p, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[int, np.ndarray]:
    """(rank, cols) of an orthogonal projection p: its eigencolumns, each
    phase-fixed on its own, with the first ``rank`` (eigenvalue above ½)
    spanning the range."""
    vals, vecs = hermitian_eig(p, tol)
    # each eigencolumn phase-fixed on its own, as a stack of 1×n rows
    return int(np.count_nonzero(vals > 0.5)), phase_fixed(vecs.T[:, None], tol.cutoff)[:, 0].T


# hermitian coordinates: in the orthonormal basis E_jj, then (E_jk + E_kj)/√2,
# then i(E_jk − E_kj)/√2 for j < k in ``np.triu_indices`` order
_SQRT_HALF = np.sqrt(0.5)

# the largest pair map, in output entries d²n², that gathers through a plan (module docstring)
_PLAN_ENTRIES = 4096


@lru_cache(maxsize=None)
def _basis_positions(n: int) -> tuple[np.ndarray, np.ndarray]:
    j, k = np.triu_indices(n, 1)  # (rows, cols) the basis reads: diagonal, then j < k
    return np.concatenate((np.arange(n), j)), np.concatenate((np.arange(n), k))


@lru_cache(maxsize=None)
def _pair_plan(d: int, n: int) -> tuple:
    # (a, b, sgn, coef): for each output entry, the flat float indices of g = p_ij and
    # h = p_ji, in the real part or the imaginary one, into a C-ordered d×d×n×n pair array
    # viewed as floats; the sign of h per column (+ for g + h, − for g − h); and the
    # entry's block scale, the top-right block's −1 folded in
    (ci, ck), (ri, rk) = _basis_positions(d), _basis_positions(n)
    top, left = len(ri), len(ci)
    r, s = np.concatenate((ri, ri[n:]))[:, None], np.concatenate((rk, rk[n:]))[:, None]
    i, k = np.concatenate((ci, ci[d:])), np.concatenate((ck, ck[d:]))
    right, below = np.arange(d * d) >= left, (np.arange(n * n) >= top)[:, None]
    imag = right != below  # the top-right and bottom-left blocks read imaginary parts
    a = (((i * d + k) * n + r) * n + s) * 2 + imag
    b = (((k * d + i) * n + r) * n + s) * 2 + imag
    row_diag, col_diag = (np.arange(n * n) < n)[:, None], np.arange(d * d) < d
    coef = np.where(row_diag & col_diag, 0.5, np.where(row_diag | col_diag, _SQRT_HALF, 1.0))
    coef[:top, left:] *= -1.0
    return a.astype(np.int32), b.astype(np.int32), np.where(right, -1.0, 1.0), coef


def hermitian_pair_map(pairs) -> np.ndarray:
    """Real n²×d² matrix of λ ↦ Σ λ_ij p_ij, hermitian d×d to hermitian n×n in
    basis coordinates, for a d×d×n×n pair array p with p_ji = p_ij* (any
    strides); any other shape is ``ValueError``.  Each block is scaled once, so
    identity pairs map to I exactly.  Up to 4096 output entries each is
    (f[a] ± f[b]) · scale, read through a cached plan off the floats f of the
    C-ordered array; above it, strided blocks give the same bytes."""
    p = np.asarray(pairs)
    if p.ndim != 4 or p.shape[0] != p.shape[1] or p.shape[2] != p.shape[3]:
        raise ValueError(f"pair array of shape {p.shape} is not d×d×n×n")
    d, n = p.shape[0], p.shape[2]
    if (d * n) ** 2 > _PLAN_ENTRIES:
        return _strided_pair_map(p)
    a, b, sgn, coef = _pair_plan(d, n)
    f = np.ascontiguousarray(p, dtype=complex).view(float).ravel()
    return (f.take(a) + sgn * f.take(b)) * coef


def _strided_pair_map(p: np.ndarray) -> np.ndarray:
    # hermitian_pair_map by strided blocks, for a d×d×n×n p of any size
    d, n = p.shape[0], p.shape[2]
    (ci, ck), (ri, rk) = _basis_positions(d), _basis_positions(n)
    g, h = p[ci, ck, ri[:, None], rk[:, None]], p[ck, ci, ri[:, None], rk[:, None]]
    plus, minus = g + h, g - h
    r, top, left = np.empty((n * n, d * d)), len(ri), len(ci)
    r[:top, :left], r[:top, left:] = plus.real, -minus.imag[:, d:]
    r[top:, :left], r[top:, left:] = plus.imag[n:], minus.real[n:, d:]
    r[:n, :d] *= 0.5
    r[:n, d:] *= _SQRT_HALF
    r[n:, :d] *= _SQRT_HALF
    return r


@lru_cache(maxsize=None)
def _coordinate_plan(d: int) -> tuple[np.ndarray, np.ndarray]:
    # (src, coef): for each float of a C-ordered complex d×d matrix, the coordinate it
    # reads, d² (an appended 0) for the diagonal's imaginary parts, and its scale
    (i, k), m = _basis_positions(d), d * (d + 1) // 2
    j, u = i[d:], k[d:]  # the pairs j < u
    src, coef = np.full((d, d, 2), d * d), np.ones((d, d, 2))
    src[i, k, 0] = src[k, i, 0] = np.arange(m)
    src[j, u, 1] = src[u, j, 1] = np.arange(m, d * d)
    coef[j, u, 0] = coef[u, j, 0] = coef[j, u, 1] = _SQRT_HALF
    coef[u, j, 1] = -_SQRT_HALF
    return src.ravel().astype(np.int32), coef.ravel()


def hermitian_from_coordinates(x) -> np.ndarray:
    """The d×d matrix Σ x_a B_a of d² real coordinates x: real diagonal (imaginary
    parts +0.0), and each entry below it the exact conjugate of its mirror.  A
    size that is not a square is ``ValueError``."""
    x = np.asarray(x, dtype=float)
    d = math.isqrt(x.size)
    if d * d != x.size:
        raise ValueError(f"{x.size} coordinates are not those of a square matrix")
    src, coef = _coordinate_plan(d)
    return (np.append(x, 0.0).take(src) * coef).view(complex).reshape(d, d)
