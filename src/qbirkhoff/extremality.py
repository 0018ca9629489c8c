"""Extremality certificates and convex decompositions of unital CP maps.

A unital channel is extremal among unital CP maps exactly when the products
v_i v_j* of a minimal Kraus family are linearly independent; among doubly
stochastic maps the products and the reversed products v_j* v_i must be
jointly independent (Choi / Landau-Streater criteria).  The tests are real
ranks in hermitian coordinates, and a failed one is witnessed by the hermitian
coefficient matrix of a null vector; walking along witnesses reaches an
extremal channel in the face, and peeling off its largest multiple leaves a
remainder.  Every walk step and every peel lowers the index, so a walk takes
at most index − 1 steps and a decomposition has at most index-many terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    hermitize,
    max_abs,
    operator_norm,
    psd_factor,
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

# residual allowance for certificate checks; spec'd behaviour is < 1e-8
_CERT_RESIDUAL = 1e-8


@dataclass(frozen=True, eq=False)
class DependencyCertificate:
    """Hermitian d×d witness λ of Kraus-product linear dependence.

    kind CP:      sum_ij λ_ij v_i v_j* = 0
    kind CP_phi:  additionally sum_ij λ_ij v_j* v_i = 0

    Operator norm 1, first hermitian coordinate above the cutoff positive.
    """

    lam: np.ndarray
    kind: str

    def residuals(self, family: KrausFamily) -> tuple[float, float]:
        """Entrywise-max residuals of (product sum, reversed-product sum)."""
        fwd = np.tensordot(self.lam, family.products(), axes=2)
        rev = np.tensordot(self.lam, _reversed_products(family), axes=2)
        return max_abs(fwd), max_abs(rev)


def _reversed_products(family: KrausFamily) -> np.ndarray:
    # entry (i, j) is v_j* v_i
    return family.adjoint().products().swapaxes(0, 1)


def product_matrix(family: KrausFamily) -> np.ndarray:
    """Real n²×d² matrix of λ ↦ Σ λ_ij v_i v_j* in hermitian coordinates."""
    return hermitian_pair_map(family.products())


def stacked_matrix(family: KrausFamily) -> np.ndarray:
    """Real 2n²×d²: the product matrix over that of λ ↦ Σ λ_ij v_j* v_i."""
    return np.vstack([hermitian_pair_map(family.products()), hermitian_pair_map(_reversed_products(family))])


def _rank_and_null(m, tol: Tolerance):
    # rank and a unit x with m x ≈ 0, None at full column rank: e_k minus its part in the
    # span of the kept right singular vectors, k the first coordinate they cover least, so
    # x depends on m's row space alone, never on the SVD's basis of the null space
    _, s, vh = np.linalg.svd(m, full_matrices=False)
    rank = int(np.count_nonzero(s > rank_cutoff(s, tol)))
    if rank == m.shape[1]:
        return rank, None
    kept = vh[:rank]
    k = int(np.argmin(np.sum(np.abs(kept) ** 2, axis=0)))
    x = -(dagger(kept) @ kept[:, k])
    x[k] += 1.0
    return rank, x / np.linalg.norm(x)


def hermitize_certificate(
    nullvec,
    m,
    kind: str = CP,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> DependencyCertificate:
    """The d×d certificate λ = Σ x_a B_a of a null vector x of the product matrix
    (kind CP) or the stacked matrix (kind CP_phi) ``m``: hermitian by construction,
    scaled to operator norm 1 with its first coordinate above ``tol.cutoff``
    positive.  A residual max|m x| above 1e-8 raises :class:`NumericalFailure`."""
    x = np.asarray(nullvec, dtype=float)
    if x.size != m.shape[1]:
        raise ValueError(f"null vector of size {x.size} does not match the {m.shape[1]} columns")
    x = x / operator_norm(hermitian_from_coordinates(x))
    x = x if x[np.argmax(np.abs(x) > tol.cutoff)] > 0.0 else -x
    residual = max_abs(m @ x)
    if residual > _CERT_RESIDUAL:
        raise NumericalFailure(f"certificate residual {residual:.2e} above {_CERT_RESIDUAL}")
    return DependencyCertificate(hermitian_from_coordinates(x), kind)


def _verdict(family: KrausFamily, kind: str, tol: Tolerance):
    # (extremal, certificate) of the kind's rank test.  Its rank is at most n² (CP) or
    # 2n² − 1 (CP_phi), so any j = isqrt(bound) + 1 operators are dependent: past j the
    # first j give the certificate, zero outside their block, and the verdict is by counting
    n2, d = family.dim**2, family.index
    sub = KrausFamily(family.ops[: math.isqrt(2 * n2 - 1 if kind == CP_PHI else n2) + 1])
    m = (stacked_matrix if kind == CP_PHI else product_matrix)(sub)
    _, nullvec = _rank_and_null(m, tol)
    if nullvec is None:
        return True, None
    lam = np.zeros((d, d), dtype=complex)
    lam[: sub.index, : sub.index] = hermitize_certificate(nullvec, m, kind, tol).lam
    return False, DependencyCertificate(lam, kind)


def choi_extremal_test(ch: Channel, tol: Tolerance = DEFAULT_TOLERANCE):
    """Extremality in the unital CP cone: are the products v_i v_j* independent?

    Returns ``(extremal, certificate)``, the certificate from a null vector of the product
    matrix.  Past d = n + 1 operators the products are dependent by counting (rank ≤ n²):
    the certificate is that of the first n + 1, zero outside its leading block.
    """
    if not ch.unital:
        raise ValueError("extremality in the unital cone needs a unital channel")
    return _verdict(ch.kraus, CP, tol)


def landau_streater_test(ch: Channel, tol: Tolerance = DEFAULT_TOLERANCE):
    """Extremality among doubly stochastic maps via the stacked bi-independence
    test; refuses channels that are not trace-preserving.  Its kind-CP_phi certificate
    follows the rule of :func:`choi_extremal_test` on the 2n²×d² stacked matrix, whose
    rank is at most 2n² − 1 (the trace rows of both halves agree): past
    j = isqrt(2n² − 1) + 1 operators it comes from the first j."""
    if not ch.unital:
        raise ValueError("extremality test needs a unital channel")
    if not ch.trace_preserving:
        raise ValueError("the doubly stochastic test needs a trace-preserving channel")
    return _verdict(ch.kraus, CP_PHI, tol)


def _mix_family(coeff: np.ndarray, tol: Tolerance) -> np.ndarray:
    # coefficient rows b with bᵀ·conj(b) = coeff (PSD hermitian): the map
    # x -> Σ_ij coeff_ij v_i x v_j* has the Kraus operators b @ v
    return psd_factor(coeff, tol)[1].T


def _ops(rows: np.ndarray, family: KrausFamily) -> np.ndarray:
    return np.tensordot(rows, family.ops, axes=1)


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


def _derived(rows: np.ndarray, family: KrausFamily, kind: str, tol: Tolerance, mass: float) -> Channel:
    # rows @ family, flagged, not canonicalized: the input was vetted, so a defect is rounding.
    # One that moves the mixture by mass × defect ≤ the tolerance is scaled away by operator
    # Sinkhorn steps, ops ← S^{-1/2}·ops with S = Σ v v*, then for CP_phi ops ← ops·T^{-1/2}
    # with T = Σ v* v; the left factor keeps the products' independence exactly
    ops, last = _ops(rows, family), math.inf
    while True:
        fam = KrausFamily(ops)
        out_dev, in_dev = fam.unit_defects()
        dev, name = max((out_dev, "unital"), (in_dev if kind == CP_PHI else 0.0, "trace-preserving"))
        if dev <= tol.cutoff:
            return Channel(fam, True, in_dev <= tol.cutoff)
        if mass * dev > tol.cutoff or dev >= last:
            raise NumericalFailure(f"derived channel has {name} defect {dev:.2e} > tolerance {tol.cutoff}")
        ops = _inverse_sqrt(np.tensordot(ops, np.conj(ops), axes=([0, 2], [0, 2])), tol) @ ops
        if kind == CP_PHI:
            ops = ops @ _inverse_sqrt(np.tensordot(np.conj(ops), ops, axes=([0, 1], [0, 1])), tol)
        last = dev


def _step(coeff: np.ndarray, rows: np.ndarray, family: KrausFamily, kind: str, tol: Tolerance, mass: float):
    # the one step of walks and peels: rows' = b @ rows with bᵀ·conj(b) = coeff, whose
    # zero eigenvalue drops the index; a step that keeps it would never end.  ``mass``
    # bounds the weight the derived channel carries in the decomposition
    out = _mix_family(coeff, tol) @ rows
    if len(out) >= len(rows):
        raise NumericalFailure(f"a decomposition step kept the index at {len(rows)}")
    return out, _derived(out, family, kind, tol, mass)


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
    # the test's own preconditions vet ch (unital, and TP for CP_phi)
    terms, deepest, mass, tau = [], 0, 1.0, ch
    while True:
        # walk: step to the singular one of I ∓ λ (λ has norm 1), rows in τ's coordinates
        rows, steps = np.eye(tau.index), 0
        extremal, cert = test(tau, tol)
        while not extremal:
            vals, _ = hermitian_eig(cert.lam, tol)
            lam = cert.lam if vals[0] >= -vals[-1] else -cert.lam
            rows, walked = _step(np.eye(len(rows)) - lam, rows, tau.kraus, kind, tol, mass)
            extremal, cert = test(walked, tol)
            steps += 1
        deepest = max(deepest, steps)
        w = 1.0 / operator_norm(rows) ** 2 if steps else 1.0
        terms.append((mass * w, Channel.from_kraus(_ops(rows, tau.kraus), tol)))
        if steps == 0:  # the remainder itself was the last term
            break
        # hermitian by construction; the 1/(1−w) factor amplifies its rounding
        rest = hermitize((np.eye(tau.index) - w * rows.T @ np.conj(rows)) / (1.0 - w))
        mass *= 1.0 - w
        _, tau = _step(rest, np.eye(tau.index), tau.kraus, kind, tol, mass)
    terms.sort(key=lambda t: -t[0])
    return ExtremalDecomposition(terms=tuple(terms), depth=deepest)
