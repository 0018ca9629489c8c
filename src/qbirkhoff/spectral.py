"""Ergodic classification of doubly stochastic channels.

The spectrum of τ comes from its real form R, built and solved once per
channel (``Channel.real_superoperator``, ``Channel.spectrum``).  Eigenvalue 1
of a doubly stochastic channel, a Hilbert–Schmidt contraction, is semisimple,
so the fixed-space dimension is the number of eigenvalues with |λ − 1| at the
rank cutoff.  Eigenoperators τ(x) = μx are the kernel of the complex
superoperator T − μI under the same rule.  Both solves run per exact diagonal
block (``numerics.diagonal_blocks``), at a cost of Σ b³ over blocks of size b
instead of n⁶; a kernel is cut once over all blocks.  μ = 1 gives the
fixed-point *-algebra (ergodic: the scalars), and μ = e^{2πi/p}, for the
period p read off the peripheral spectrum, the cyclic projection family that
an explicit unitary deperiodizes.  Each peripheral eigenspace is a bimodule
over the fixed algebra, which lies in the multiplicative domain, so one
generic element of it carries its whole structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channels import Channel, superoperator_from_kraus
from .numerics import (
    DEFAULT_TOLERANCE,
    NumericalFailure,
    Tolerance,
    block_views,
    dagger,
    diagonal_blocks,
    hermitian_eig,
    max_abs,
    phase_fixed,
    projection_eigenbasis,
    rank_cutoff,
    unvec,
    vec,
)

__all__ = [
    "SpectralClassification",
    "CyclicFamily",
    "fixed_point_space",
    "invariant_projection",
    "classify",
    "cyclic_projections",
    "deperiodize",
]

@dataclass(frozen=True, eq=False)
class SpectralClassification:
    """Spectral picture of a doubly stochastic channel."""

    eigenvalues: np.ndarray
    fixed_dim: int
    ergodic: bool
    peripheral: np.ndarray
    period: int | None
    aperiodic: bool
    strongly_mixing: bool


@dataclass(frozen=True, eq=False)
class CyclicFamily:
    """Orthogonal projections E_0..E_{p-1} with τ(E_k) = E_{k+1 mod p}."""

    projections: tuple

    @property
    def period(self) -> int:
        return len(self.projections)


def _require_doubly_stochastic(ch: Channel, tol: Tolerance):
    if not all(ch.kraus.validate(tol)):
        raise ValueError("spectral classification needs a unital trace-preserving channel")


def _sorted_eigs(eigs: np.ndarray) -> np.ndarray:
    """By descending modulus, then real and imaginary part, each rounded to a fixed
    12 digits so that rounding-level ties fall to the next key: an output order, not
    a decision, so it does not move with the tolerance."""
    order = np.lexsort(
        (np.round(eigs.imag, 12), np.round(eigs.real, 12), -np.round(np.abs(eigs), 12))
    )
    return eigs[order]


def _eigenspace(t: np.ndarray, mu: complex, tol: Tolerance) -> np.ndarray:
    # k×n×n stack, Hilbert-Schmidt orthonormal and phase-fixed, spanning
    # {x : τ(x) = μx}: per diagonal block of T − μI, the right singular vectors
    # at or below one rank_cutoff over all blocks, placed exactly into n² entries
    eye = np.eye(len(t))
    blocks = diagonal_blocks(t)
    solves = [np.linalg.svd(v)[1:] for v in block_views(t - mu * eye, blocks)]
    cut = rank_cutoff(np.concatenate([s for s, _ in solves]), tol)
    null = [np.conj(vh[s <= cut]) @ eye[b] for b, (s, vh) in zip(blocks, solves)]
    return phase_fixed(unvec(np.concatenate(null)), tol.cutoff)


def _generic_element(basis: np.ndarray) -> np.ndarray:
    # Σ_k b_k/√(k+1): one fixed real combination, with distinct weights
    return np.tensordot(1.0 / np.sqrt(np.arange(1, len(basis) + 1)), basis, axes=1)


def _hermitian_mix(x: np.ndarray) -> np.ndarray:
    # generic hermitian combination of x; for a normal x it shares x's eigenvectors
    return _generic_element(np.stack([(x + dagger(x)) / 2.0, (x - dagger(x)) / 2.0j]))


def fixed_point_space(ch: Channel, tol: Tolerance = DEFAULT_TOLERANCE) -> list:
    """Orthonormal (Hilbert-Schmidt) basis of {x : τ(x) = x}.

    The span is checked to be closed under adjoints and products — the
    *-algebra property that holds for every doubly stochastic channel.
    """
    _require_doubly_stochastic(ch, tol)
    n = ch.dim
    basis = _eigenspace(superoperator_from_kraus(ch), 1, tol)
    if not len(basis):
        raise NumericalFailure("unital channel lost its fixed space — broken input")
    q = vec(basis)
    off_span = np.eye(n * n) - q.T @ np.conj(q)  # projector onto the span's complement
    if max_abs(vec(dagger(basis)) @ off_span.T) > tol.structural:
        raise NumericalFailure("fixed-point space is not adjoint-closed within tolerance")
    if max(max_abs(vec(b @ basis) @ off_span.T) for b in basis) > tol.structural:  # k, not k², at once
        raise NumericalFailure("fixed-point space is not product-closed within tolerance")
    return list(basis)


def invariant_projection(ch: Channel, tol: Tolerance = DEFAULT_TOLERANCE):
    """A projection E ∉ {0, I} with τ(E) = E, or None for ergodic channels.

    E is the spectral projection, below its largest gap, of the fixed
    algebra's generic hermitian element."""
    basis = fixed_point_space(ch, tol)
    if len(basis) == 1:
        return None
    vals, vecs = hermitian_eig(_hermitian_mix(_generic_element(np.stack(basis))), tol)
    # split the spectrum at its largest gap; both sides are nonempty
    cut = int(np.argmax(vals[:-1] - vals[1:])) + 1
    e = vecs[:, :cut] @ dagger(vecs[:, :cut])
    if max_abs(ch.apply(e) - e) > tol.cutoff:
        raise NumericalFailure("non-ergodic channel yielded no verified invariant projection")
    return e


def _peripheral(eigs: np.ndarray, tol: Tolerance) -> np.ndarray:
    return eigs[np.abs(eigs) > 1.0 - tol.band]


def _snap_period(peripheral: np.ndarray, n: int) -> int:
    # cluster peripheral phases to rationals k/q with q ≤ n²; the group they
    # generate is cyclic of order lcm of the denominators
    denominators = set()
    for mu in peripheral:
        phase = float(np.angle(mu)) / (2.0 * np.pi) % 1.0
        frac = Fraction(phase).limit_denominator(n * n) % 1
        denominators.add(frac.denominator)
    return math.lcm(*denominators) if denominators else 1


def classify(ch: Channel, tol: Tolerance = DEFAULT_TOLERANCE) -> SpectralClassification:
    """Spectral classification: fixed space, ergodicity, period, mixing."""
    _require_doubly_stochastic(ch, tol)
    eigs = _sorted_eigs(ch.spectrum)
    # eigenvalue 1 is semisimple: its multiplicity is the fixed algebra's dimension
    gap = np.abs(eigs - 1.0)
    fixed_dim = int(np.count_nonzero(gap <= rank_cutoff(gap, tol)))
    ergodic = fixed_dim == 1
    peripheral = _peripheral(eigs, tol)
    period = _snap_period(peripheral, ch.dim) if ergodic else None
    aperiodic = bool(ergodic and period == 1)
    strongly_mixing = bool(ergodic and peripheral.size == 1)
    return SpectralClassification(
        eigenvalues=eigs,
        fixed_dim=fixed_dim,
        ergodic=ergodic,
        peripheral=peripheral,
        period=period,
        aperiodic=aperiodic,
        strongly_mixing=strongly_mixing,
    )


def _unitary_root(m: np.ndarray, p: int, tol: Tolerance) -> np.ndarray:
    # principal p-th root of a unitary m in an orthonormal eigenbasis q of m; the
    # cut sits tol.structural below −1, so a cluster at −1 split by rounding has one root
    _, q = np.linalg.eigh(_hermitian_mix(m))
    eigs = np.sum(np.conj(q) * (m @ q), axis=0)  # diagonal of q* m q
    phases = np.angle(np.exp(-1j * tol.structural) * eigs) + tol.structural
    return (q * np.exp(1j * phases / p)) @ dagger(q)


def _projection_family(x: np.ndarray, p: int) -> list:
    theta = np.exp(2j * np.pi / p)
    powers = [np.linalg.matrix_power(x, m) for m in range(p)]
    return [sum(theta ** (k * m) * powers[m] for m in range(p)) / p for k in range(p)]


def _verify_family(ch: Channel, projections, tol: Tolerance) -> bool:
    # hermitian, E_a E_b = δ_ab E_a, Σ E_k = I and τ(E_k) = E_{k+1 mod p}
    e = np.stack(projections)
    v = ch.kraus.ops
    orth = np.eye(len(e))[:, :, None, None] * e[:, None]
    image = (v[None] @ e[:, None] @ dagger(v)[None]).sum(axis=1)
    defects = (
        e - dagger(e),
        e[:, None] @ e[None, :] - orth,
        e.sum(axis=0) - np.eye(ch.dim),
        image - np.roll(e, -1, axis=0),
    )
    return max(max_abs(x) for x in defects) <= tol.cutoff


def cyclic_projections(ch: Channel, tol: Tolerance = DEFAULT_TOLERANCE):
    """Construct a verified cyclic projection family from the peripheral spectrum.

    Works from the generic eigenoperator x with τ(x) = e^{2πi/p} x: its polar
    unitary u = w·vh, and then u′ = u·(u^p)^{-1/p} (principal root), are again
    eigenoperators, and u′^p = I, so the averaged powers of u′ are the spectral
    projections.  A failed post-verification, like an empty eigenspace, gives
    None rather than an unverified family.  Channels with trivial peripheral
    structure are refused.
    """
    _require_doubly_stochastic(ch, tol)
    p = _snap_period(_peripheral(ch.spectrum, tol), ch.dim)
    if p <= 1:
        raise ValueError("channel has no nontrivial cyclic structure (period 1)")
    basis = _eigenspace(superoperator_from_kraus(ch), np.exp(2j * np.pi / p), tol)
    if not len(basis):
        return None
    w, _, vh = np.linalg.svd(_generic_element(basis))
    u = w @ vh
    u = u @ dagger(_unitary_root(np.linalg.matrix_power(u, p), p, tol))
    projections = _projection_family(u, p)
    return CyclicFamily(tuple(projections)) if _verify_family(ch, projections, tol) else None


def deperiodize(ch: Channel, fam: CyclicFamily, tol: Tolerance = DEFAULT_TOLERANCE):
    """Unitary α cycling the family's ranges, plus the non-ergodic residual.

    α maps an orthonormal basis of range(E_k) onto one of range(E_{k+1});
    the residual channel x -> τ(α* x α) then fixes every E_k.
    """
    _require_doubly_stochastic(ch, tol)
    p = fam.period
    found = [projection_eigenbasis(e, tol) for e in fam.projections]
    ranks = [r for r, _ in found]
    if len(set(ranks)) != 1:
        raise ValueError(f"cyclic projections have unequal ranks {ranks}")
    bases = [cols[:, :r] for r, cols in found]

    n = ch.dim
    alpha = np.zeros((n, n), dtype=complex)
    for k in range(p):
        alpha += bases[(k + 1) % p] @ dagger(bases[k])
    if max_abs(alpha @ dagger(alpha) - np.eye(n)) > tol.structural:
        raise NumericalFailure("cycling map failed to be unitary")
    for k in range(p):
        if max_abs(alpha @ fam.projections[k] @ dagger(alpha) - fam.projections[(k + 1) % p]) > tol.structural:
            raise NumericalFailure("cycling map does not shift the projections")

    residual = Channel.from_kraus(ch.kraus.ops @ dagger(alpha), tol)
    for e in fam.projections:
        if max_abs(residual.apply(e) - e) > tol.cutoff:
            raise NumericalFailure("residual channel does not fix the cyclic projections")
    return alpha, residual
