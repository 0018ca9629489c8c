"""Face geometry in low dimensions.

Three concrete pictures: the disc of Schur-multiplier channels on M₂, the
complex and real faces of M₃ channels fixing the diagonal algebra, and the
two-parameter family covering every index-2 unital channel on M₂.

For the M₃ face the ground truth is always the minimum eigenvalue of the
displayed 3×3 coefficient matrix; the closed-form determinant

    1 - |z₁|² - |z₂|² - |z₃|² + 2·Re(z₁ z₂ conj(z₃))

is cross-checked against it on every membership call.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .channels import Channel
from .numerics import (
    DEFAULT_TOLERANCE,
    NotCompletelyPositive,
    NumericalFailure,
    Tolerance,
    hermitian_eig,
    hermitize,
    max_abs,
    psd_factor,
)

__all__ = [
    "schur_channel",
    "m3_matrix",
    "m3_closed_form",
    "m3_face_membership",
    "M3FaceScan",
    "m3_real_face_scan",
    "M2CanonicalForm",
    "m2_index2_channel",
    "m2_index2_is_extremal",
]


def schur_channel(m, tol: Tolerance = DEFAULT_TOLERANCE) -> Channel:
    """Channel acting entrywise by the multiplier: e_ij -> m_ij e_ij.

    Kraus operators are the diagonal factors of m = Σ_r c_r c_r*.  A
    multiplier that is not hermitian with unit diagonal at ``tol`` is a
    ``ValueError``; a non-PSD one lies outside the face and is rejected.
    """
    arr = hermitize(m, tol.cutoff)
    if max_abs(np.diag(arr) - 1.0) > tol.cutoff:
        raise ValueError("multiplier matrix must have unit diagonal")
    try:
        cols = psd_factor(arr, tol)[1]
    except NotCompletelyPositive as exc:
        raise NotCompletelyPositive(f"multiplier matrix outside the face: {exc}") from None
    k = arr.shape[0]
    # operator r is diag(cols[:, r])
    ops = np.zeros((cols.shape[1], k, k), dtype=complex)
    ops[:, np.arange(k), np.arange(k)] = cols.T
    return Channel.from_kraus(ops, tol)


def m3_matrix(z1: complex, z2: complex, z3: complex) -> np.ndarray:
    return np.array(
        [
            [1.0, z1, z3],
            [np.conj(z1), 1.0, z2],
            [np.conj(z3), np.conj(z2), 1.0],
        ],
        dtype=complex,
    )


def m3_closed_form(z1: complex, z2: complex, z3: complex) -> float:
    """Determinant of the face matrix; positive inside, negative outside."""
    z1, z2, z3 = complex(z1), complex(z2), complex(z3)
    return float(
        1.0
        - abs(z1) ** 2
        - abs(z2) ** 2
        - abs(z3) ** 2
        + 2.0 * (z1 * z2 * np.conj(z3)).real
    )


def m3_face_membership(
    z1: complex, z2: complex, z3: complex, tol: Tolerance = DEFAULT_TOLERANCE
) -> str:
    """interior / boundary / outside, decided by the minimum eigenvalue.

    Boundary is ``tol.boundary`` around eigenvalue zero.  Inside the unit polydisc
    (a fixed 1e-12 of slack for the roundoff of |z|: a domain guard, no decision) the
    determinant sign decides membership too (two negative eigenvalues would force an
    eigenvalue-square sum above 9); the closed form is compared against the oracle
    whenever it clears ``tol.cutoff``, and disagreement raises :class:`NumericalFailure`.
    """
    vals, _ = hermitian_eig(m3_matrix(z1, z2, z3), tol)
    low = float(vals[-1])
    if low < -tol.boundary:
        cls = "outside"
    elif low > tol.boundary:
        cls = "interior"
    else:
        cls = "boundary"

    if max(abs(z1), abs(z2), abs(z3)) <= 1.0 + 1e-12:
        closed = m3_closed_form(z1, z2, z3)
        if closed > tol.cutoff and cls != "interior":
            raise NumericalFailure(
                f"closed form {closed:.3e} says interior, oracle says {cls}"
            )
        if closed < -tol.cutoff and cls != "outside":
            raise NumericalFailure(
                f"closed form {closed:.3e} says outside, oracle says {cls}"
            )
    return cls


@dataclass(frozen=True)
class M3FaceScan:
    """Classification of a real grid with the corner and extremality report."""

    entries: tuple  # ((x1, x2, x3), class) in scan order
    vertices: tuple  # corners of {-1,1}³ classified boundary
    extreme_candidates: tuple  # boundary points that are not grid midpoints


def m3_real_face_scan(grid_step: float, tol: Tolerance = DEFAULT_TOLERANCE) -> M3FaceScan:
    """Classify the uniform real grid on [-1,1]³ with approximately the
    requested step (endpoints always included)."""
    if not 0.0 < grid_step < 1.0:
        raise ValueError("grid_step must lie in (0, 1)")
    steps = max(2, round(2.0 / grid_step))
    xs = np.linspace(-1.0, 1.0, steps + 1)
    m = len(xs)

    classes = {}
    entries = []
    for idx in product(range(m), repeat=3):
        point = (float(xs[idx[0]]), float(xs[idx[1]]), float(xs[idx[2]]))
        cls = m3_face_membership(*point, tol=tol)
        classes[idx] = cls
        entries.append((point, cls))

    # the corners, already classified: linspace keeps ±1.0 exactly
    vertices = tuple(
        (float(xs[i]), float(xs[j]), float(xs[k]))
        for i, j, k in product((0, m - 1), repeat=3)
        if classes[i, j, k] == "boundary"
    )

    # a boundary point p is not extreme when some other face point q of the grid
    # has its mirror 2p − q in the face too: p is their midpoint
    face = {idx for idx, cls in classes.items() if cls != "outside"}
    candidates = [
        (float(xs[p[0]]), float(xs[p[1]]), float(xs[p[2]]))
        for p, cls in classes.items()
        if cls == "boundary"
        and not any(q != p and (2 * p[0] - q[0], 2 * p[1] - q[1], 2 * p[2] - q[2]) in face for q in face)
    ]
    return M3FaceScan(
        entries=tuple(entries), vertices=vertices, extreme_candidates=tuple(candidates)
    )


@dataclass(frozen=True)
class M2CanonicalForm:
    """Parameters of the index-2 normal form on M₂: v₁ = diag(c₁, c₂),
    v₂ = d₁ e₁₂ − d₂ e₂₁ with d_k = √(1 − c_k²), read off c_k."""

    c1: float
    c2: float

    def __post_init__(self):
        if not (0.0 <= self.c1 <= 1.0 and 0.0 <= self.c2 <= 1.0):  # NaN fails both
            raise ValueError("diagonal coefficients must lie in [0, 1]")

    @classmethod
    def from_c(cls, c1: float, c2: float) -> "M2CanonicalForm":
        """The form with the pair in ascending order; ``sorted`` keeps a NaN,
        which the constructor refuses."""
        return cls(*sorted((c1, c2)))

    @property
    def d1(self) -> float:
        return float(np.sqrt(1.0 - self.c1 * self.c1))

    @property
    def d2(self) -> float:
        return float(np.sqrt(1.0 - self.c2 * self.c2))

    def degenerate(self, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
        return abs(self.c1 - self.c2) <= tol.cutoff


def m2_index2_channel(form: M2CanonicalForm, tol: Tolerance = DEFAULT_TOLERANCE) -> Channel:
    """The two-Kraus unital channel of the normal form (trace-preserving only
    when d₁ = d₂; degenerate corners collapse to a unitary channel)."""
    v1 = np.array([[form.c1, 0.0], [0.0, form.c2]], dtype=complex)
    v2 = np.array([[0.0, form.d1], [-form.d2, 0.0]], dtype=complex)
    return Channel.from_kraus([v1, v2], tol)


def m2_index2_is_extremal(form: M2CanonicalForm, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Closed-form extremality in the unital cone: d₁c₂ ≠ d₂c₁."""
    return abs(form.d1 * form.c2 - form.d2 * form.c1) > tol.cutoff
