"""Extremality certificates and convex decompositions of unital CP maps.

A unital channel is extremal among unital CP maps exactly when the products
v_i v_j* of a minimal Kraus family are linearly independent; among doubly
stochastic maps the products and the reversed products v_j* v_i must be
jointly independent (Choi / Landau-Streater criteria).  The tests are real
ranks in hermitian coordinates, and a failed one is witnessed by the hermitian
coefficient matrix of a null vector.  Past the counting bound (more operators
than the rank bound allows to be independent) the verdict is by counting, and
the null vector comes from a QR of the matrix's transpose, one trace row
dropped for CP_phi; an SVD decides the rank below the bound, and past it when
R's diagonal shows a drop at the cutoff, its singular vectors found only for a
null vector.  Walking along witnesses reaches an
extremal channel in the face, and peeling off its largest multiple leaves a
remainder.  Every walk step and every peel lowers the index, so a walk takes
at most index − 1 steps and a decomposition has at most index-many terms.
Each costs one eigendecomposition: a certificate's gives its norm, the walk's
sign and the square root of I ∓ λ; the term's gives the peel's weight and root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import Channel, KrausFamily
from .numerics import (
    DEFAULT_TOLERANCE,
    NumericalFailure,
    Tolerance,
    dagger,
    frobenius_norm,
    hermitian_eig,
    hermitian_from_coordinates,
    hermitian_pair_map,
    max_abs,
    psd_columns,
    rank_cutoff,
)

__all__ = [
    "CP",
    "CP_PHI",
    "DependencyCertificate",
    "ExtremalDecomposition",
    "product_matrix",
    "stacked_matrix",
    "choi_extremal_test",
    "landau_streater_test",
    "hermitize_certificate",
    "decompose_extremal",
]

CP = "CP"
CP_PHI = "CP_phi"


@dataclass(frozen=True, eq=False)
class DependencyCertificate:
    """Hermitian d×d witness λ of Kraus-product linear dependence.

    kind CP:      sum_ij λ_ij v_i v_j* = 0
    kind CP_phi:  additionally sum_ij λ_ij v_j* v_i = 0

    Operator norm 1, first hermitian coordinate above the cutoff positive.
    """

    lam: np.ndarray
    kind: str
    # eigenvalues (ascending) and eigencolumns of λ's leading block, as the rank test solved them
    _eig: tuple | None = field(default=None, repr=False)

    def residuals(self, family: KrausFamily) -> tuple[float, float]:
        """Entrywise-max residuals of (product sum, reversed-product sum)."""
        fwd = np.tensordot(self.lam, family.products(), axes=2)
        rev = np.tensordot(self.lam, _reversed_products(family), axes=2)
        return max_abs(fwd), max_abs(rev)


def _reversed_products(family: KrausFamily) -> np.ndarray:
    # entry (i, j) is v_j* v_i
    return dagger(family.ops)[None, :] @ family.ops[:, None]


def product_matrix(family: KrausFamily) -> np.ndarray:
    """Real n²×d² matrix of λ ↦ Σ λ_ij v_i v_j* in hermitian coordinates."""
    return hermitian_pair_map(family.products())


def stacked_matrix(family: KrausFamily) -> np.ndarray:
    """Real 2n²×d²: the product matrix over that of λ ↦ Σ λ_ij v_j* v_i."""
    return np.concatenate((product_matrix(family), hermitian_pair_map(_reversed_products(family))))


def _least_covered(kept: np.ndarray) -> np.ndarray:
    # e_k minus its part in the span of kept's orthonormal rows, normalized, k the first
    # coordinate they cover least: it depends on that span alone, never on its basis
    k = int((np.abs(kept) ** 2).sum(axis=0).argmin())
    x = -(dagger(kept) @ kept[:, k])
    x[k] += 1.0
    return x / np.linalg.norm(x)


def _rank_and_null(m, tol: Tolerance):
    # rank and a unit x with m x ≈ 0, None at full column rank: the least-covered rule on the kept
    # right singular vectors, which span m's row space.  Where full column rank is possible (m not
    # wide), the singular values alone decide it first
    if m.shape[1] <= len(m):
        s = np.linalg.svd(m, compute_uv=False)
        if s[-1] > rank_cutoff(s, tol):
            return len(s), None
    _, s, vh = np.linalg.svd(m, full_matrices=False)
    rank = int(np.count_nonzero(s > rank_cutoff(s, tol)))
    if rank == m.shape[1]:
        return rank, None
    return rank, _least_covered(vh[:rank])


def _null_vector(m, kind: str, tol: Tolerance):
    # the rank test's null vector, None at full column rank.  Past the counting bound m is wider
    # than its rank bound and needs no rank: R of the QR of mᵀ, CP_phi's one row relation dropped
    # (the reversed half's last trace row, n² + n − 1, is the top half's trace rows less the
    # reversed half's others), with no |R_ii| at its rank cutoff makes Q an orthonormal basis of
    # m's row space, for the least-covered rule.  Otherwise the SVD decides, as below the bound
    # and for CP_phi on M_2: a unital qubit channel is U·Ψ(V x V*)·U* with Ψ a Pauli channel
    # (King–Ruskai), so unless Ψ's weights tie its stacked matrix has rank 4 of 7 rows
    n2 = len(m) // 2
    if m.shape[1] > len(m) - (kind == CP_PHI) and (kind == CP or n2 > 4):
        rows = np.delete(m, n2 + math.isqrt(n2) - 1, axis=0) if kind == CP_PHI else m
        q, r = np.linalg.qr(rows.T)
        diag = np.abs(r.diagonal())
        if diag.min() > rank_cutoff(diag, tol):
            return _least_covered(q.T)
    return _rank_and_null(m, tol)[1]


def hermitize_certificate(
    nullvec,
    m,
    kind: str = CP,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> DependencyCertificate:
    """The d×d certificate λ = Σ x_a B_a of a null vector x of the product matrix
    (kind CP) or the stacked matrix (kind CP_phi) ``m``: hermitian by construction,
    scaled to operator norm 1, its largest |eigenvalue| in one eigendecomposition,
    with its first coordinate above ``tol.cutoff`` positive.  A residual max|m x|
    above ``tol.residual``, ten times the cutoff (1e-8 at the default), raises
    :class:`NumericalFailure`."""
    x = np.asarray(nullvec, dtype=float)
    if x.size != m.shape[1]:
        raise ValueError(f"null vector of size {x.size} does not match the {m.shape[1]} columns")
    vals, vecs = np.linalg.eigh(hermitian_from_coordinates(x))
    scale = max(-vals[0], vals[-1])
    x, vals = x / scale, vals / scale
    if not x[(np.abs(x) > tol.cutoff).argmax()] > 0.0:  # −λ: eigenpairs negated, still ascending
        x, vals, vecs = -x, -vals[::-1], vecs[:, ::-1]
    residual = max_abs(m @ x)
    if residual > tol.residual:
        raise NumericalFailure(f"certificate residual {residual:.2e} above {tol.residual}")
    return DependencyCertificate(hermitian_from_coordinates(x), kind, (vals, vecs))


def _verdict(family: KrausFamily, kind: str, tol: Tolerance):
    # (extremal, certificate) of the kind's rank test.  Its rank is at most n² (CP) or
    # 2n² − 1 (CP_phi), so any j = isqrt(bound) + 1 operators are dependent: past j the
    # first j give the certificate, zero outside their block, and the verdict is by counting
    n2, d = family.dim**2, family.index
    sub = KrausFamily(family.ops[: math.isqrt(2 * n2 - 1 if kind == CP_PHI else n2) + 1])
    m = (stacked_matrix if kind == CP_PHI else product_matrix)(sub)
    nullvec = _null_vector(m, kind, tol)
    if nullvec is None:
        return True, None
    lam = np.zeros((d, d), dtype=complex)
    block = hermitize_certificate(nullvec, m, kind, tol)
    lam[: sub.index, : sub.index] = block.lam
    return False, DependencyCertificate(lam, kind, block._eig)


def choi_extremal_test(ch: Channel, tol: Tolerance = DEFAULT_TOLERANCE):
    """Extremality in the unital CP cone: are the products v_i v_j* independent?

    Returns ``(extremal, certificate)``, the certificate from a null vector of the product
    matrix.  Past d = n + 1 operators the products are dependent by counting (rank ≤ n²):
    the certificate is that of the first n + 1, zero outside its leading block.
    Refuses a channel that is not unital at ``tol``.
    """
    if not ch.kraus.validate(tol)[0]:
        raise ValueError("extremality in the unital cone needs a unital channel")
    return _verdict(ch.kraus, CP, tol)


def landau_streater_test(ch: Channel, tol: Tolerance = DEFAULT_TOLERANCE):
    """Extremality among doubly stochastic maps via the stacked bi-independence
    test; refuses channels that are not unital and trace-preserving at ``tol``.  Its
    kind-CP_phi certificate follows the rule of :func:`choi_extremal_test` on the
    2n²×d² stacked matrix, whose rank is at most 2n² − 1 (the trace rows of both
    halves agree): past j = isqrt(2n² − 1) + 1 operators it comes from the first j."""
    unital, tp = ch.kraus.validate(tol)
    if not unital:
        raise ValueError("extremality test needs a unital channel")
    if not tp:
        raise ValueError("the doubly stochastic test needs a trace-preserving channel")
    return _verdict(ch.kraus, CP_PHI, tol)


def _ops(rows: np.ndarray, family: KrausFamily) -> np.ndarray:
    return (rows @ family.ops.reshape(family.index, -1)).reshape(len(rows), family.dim, family.dim)


@dataclass(frozen=True, eq=False)
class ExtremalDecomposition:
    """Convex combination Σ w_k τ_k of extremal channels, heaviest first;
    ``depth`` is the longest certificate walk."""

    terms: tuple
    depth: int

    def total_weight(self) -> float:
        return float(sum(w for w, _ in self.terms))

    def mixture_choi(self) -> np.ndarray:
        return sum(w * term.choi() for w, term in self.terms)

    def reconstruction_error(self, ch: Channel) -> float:
        return frobenius_norm(self.mixture_choi() - ch.choi())


def _inverse_sqrt(h: np.ndarray, tol: Tolerance) -> np.ndarray:
    vals, vecs = hermitian_eig(h, tol)
    return (vecs / np.sqrt(vals)) @ dagger(vecs)


def _derived(rows: np.ndarray, family: KrausFamily, kind: str, tol: Tolerance, mass: float,
             canonical: bool = False) -> Channel:
    # rows @ family: the input was vetted, so a unit defect at tol (unital, and trace-preserving
    # for CP_phi) is rounding.  One that moves the mixture by mass × defect ≤ the tolerance is
    # scaled away by operator Sinkhorn steps, ops ← S^{-1/2}·ops with S = Σ v v*, then for CP_phi
    # ops ← ops·T^{-1/2} with T = Σ v* v; the left factor keeps the products' independence exactly
    make = Channel.from_kraus if canonical else lambda ops, _: Channel(KrausFamily(ops))
    sides = 2 if kind == CP_PHI else 1
    ch, last = make(_ops(rows, family), tol), math.inf
    while not all(ch.kraus.validate(tol)[:sides]):
        dev, name = max(zip(ch.kraus.unit_defects[:sides], ("unital", "trace-preserving")))
        if mass * dev > tol.cutoff or dev >= last:
            raise NumericalFailure(f"derived channel has {name} defect {dev:.2e} > tolerance {tol.cutoff}")
        ops = ch.kraus.ops
        ops = _inverse_sqrt(np.tensordot(ops, np.conj(ops), axes=([0, 2], [0, 2])), tol) @ ops
        if kind == CP_PHI:
            ops = ops @ _inverse_sqrt(np.tensordot(np.conj(ops), ops, axes=([0, 1], [0, 1])), tol)
        ch, last = make(ops, tol), dev
    return ch


def _lowered(b: np.ndarray, index: int, what: str) -> np.ndarray:
    if len(b) >= index:  # a step that keeps the index would never end
        raise NumericalFailure(f"{what} kept the index at {index}")
    return b


def _walk_step(cert: DependencyCertificate, rows: np.ndarray, tol: Tolerance) -> np.ndarray:
    # b @ rows with bᵀ·conj(b) = I − σλ, σ = ±1 making σλ's top eigenvalue its norm 1, whose
    # zero drops the index: factored on λ's leading block, and the rows past it stay as they are
    vals, vecs = cert._eig
    if -vals[0] > vals[-1]:
        vals, vecs = -vals[::-1], vecs[:, ::-1]
    b, j = psd_columns(1.0 - vals, vecs, tol)[1].T, len(vals)
    return _lowered(np.concatenate((b @ rows[:j], rows[j:])), len(rows), "a walk step")


def _peel(rows: np.ndarray, tol: Tolerance):
    # (w, b): w = 1/g_max of G = rowsᵀ·conj(rows), the extremal term's coefficient matrix, and
    # rows b with bᵀ·conj(b) = (I − wG)/(1 − w), the remainder's, from G's eigenpairs
    g, u = np.linalg.eigh(rows.T @ np.conj(rows))
    w = float(1.0 / g[-1])  # an exact float: it prints as float.__repr__, as in the stdlib
    return w, _lowered(psd_columns((1.0 - w * g) / (1.0 - w), u, tol)[1].T, len(u), "a peel")


def decompose_extremal(
    ch: Channel,
    kind: str = CP_PHI,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> ExtremalDecomposition:
    """Greedy peeling into at most ``ch.index`` extremal channels of ``kind``
    (CP: unital cone, CP_phi: doubly stochastic set).

    A certificate walk from the remainder τ reaches an extremal ε with
    coefficient matrix C in τ's Kraus coordinates; w = 1/λ_max(C) keeps
    τ − wε completely positive, and (τ − wε)/(1−w) has smaller index.
    Each walk step lowers the index too, so ``depth``, the longest walk, is
    below ``ch.index``; a step that keeps the index raises
    :class:`NumericalFailure`.
    """
    if kind not in (CP, CP_PHI):
        raise ValueError(f"unknown extremality kind {kind!r}")
    test = landau_streater_test if kind == CP_PHI else choi_extremal_test
    # the test's own preconditions vet ch at tol (unital, and TP for CP_phi)
    terms, deepest, mass, tau = [], 0, 1.0, ch
    while True:
        # walk: rows in τ's coordinates, one fewer per step
        rows, steps = np.eye(tau.index), 0
        extremal, cert = test(tau, tol)
        while not extremal:
            rows = _walk_step(cert, rows, tol)
            extremal, cert = test(_derived(rows, tau.kraus, kind, tol, mass), tol)
            steps += 1
        deepest = max(deepest, steps)
        if steps == 0:  # the remainder itself is the last term
            terms.append((mass, tau))
            break
        w, rest = _peel(rows, tol)
        terms.append((mass * w, Channel.from_kraus(_ops(rows, tau.kraus), tol)))
        mass *= 1.0 - w
        # canonical: the factor's basis of the eigenvalue 1/(1 − w) is eigh's, so arbitrary
        tau = _derived(rest, tau.kraus, kind, tol, mass, canonical=True)
    terms.sort(key=lambda t: -t[0])
    return ExtremalDecomposition(terms=tuple(terms), depth=deepest)
