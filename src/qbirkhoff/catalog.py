"""Built-in channels: the named examples reachable from the CLI and tests.

Matrices are written out exactly as displayed in their sources of truth;
builders return canonical :class:`~qbirkhoff.channels.Channel` values, with
the raw families also exposed where certificate checks need the displayed
representatives rather than the canonical gauge.  :data:`BUILTINS` is the
one table of the named examples: each name's builder and the parameters it
takes, with their types and defaults.
"""

from __future__ import annotations

import numpy as np

from .channels import Channel, KrausFamily
from .faces import M2CanonicalForm, m2_index2_channel, m3_matrix, schur_channel
from .numerics import DEFAULT_TOLERANCE, Tolerance

__all__ = [
    "identity_channel",
    "depolarizing_channel",
    "diagonal_pair_family",
    "qubit_multiplier_channel",
    "triple_multiplier_channel",
    "spin_triple_family",
    "weyl_basis",
    "weyl_shift_clock_family",
    "weyl_mixture_channel",
    "BUILTINS",
    "build_family",
    "build_example",
]


def identity_channel(n: int = 2, tol: Tolerance = DEFAULT_TOLERANCE) -> Channel:
    return Channel.from_kraus([np.eye(n)], tol)


def depolarizing_channel(n: int = 2, tol: Tolerance = DEFAULT_TOLERANCE) -> Channel:
    """x -> tr(x)·I/n, Kraus family {e_ij/√n}."""
    return Channel.from_kraus(np.eye(n * n).reshape(n * n, n, n) / np.sqrt(n), tol)


def diagonal_pair_family() -> KrausFamily:
    """The extremal diagonal pair on M₄: v₁ = diag(1, 0, 2^-½, 2^-½),
    v₂ = diag(0, 1, 2^-½, i·2^-½)."""
    r = 1.0 / np.sqrt(2.0)
    v1 = np.diag([1.0, 0.0, r, r]).astype(complex)
    v2 = np.diag([0.0, 1.0, r, 1j * r])
    return KrausFamily.from_ops([v1, v2])


def qubit_multiplier_channel(z: complex, tol: Tolerance = DEFAULT_TOLERANCE) -> Channel:
    """M₂ multiplier channel fixing the diagonal: e₁₂ -> z·e₁₂, |z| ≤ 1."""
    return schur_channel([[1.0, z], [np.conj(z), 1.0]], tol)


def triple_multiplier_channel(
    z1: complex, z2: complex, z3: complex, tol: Tolerance = DEFAULT_TOLERANCE
) -> Channel:
    """M₃ multiplier channel of the face fixing all three diagonal units."""
    return schur_channel(m3_matrix(z1, z2, z3), tol)


def spin_triple_family() -> KrausFamily:
    """The three spin-1 generators scaled by 2^-½."""
    r = 1.0 / np.sqrt(2.0)
    lx = r * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
    ly = r * np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]])
    lz = np.array([[1, 0, 0], [0, 0, 0], [0, 0, -1]], dtype=complex)
    return KrausFamily.from_ops([r * lx, r * ly, r * lz])


def weyl_basis(n: int = 3) -> list:
    """Unitary basis u^i v^j of M_n from the clock u and shift v, enumerated
    so the first three elements are I, v, u."""
    theta = np.exp(2j * np.pi / n)
    u = np.diag(theta ** np.arange(n))
    v = np.zeros((n, n), dtype=complex)
    for k in range(n):
        v[(k + 1) % n, k] = 1.0
    pairs = [(0, 0), (0, 1), (1, 0)]
    pairs += [(i, j) for i in range(n) for j in range(n) if (i, j) not in pairs]
    out = []
    for i, j in pairs:
        out.append(np.linalg.matrix_power(u, i) @ np.linalg.matrix_power(v, j))
    return out


def weyl_shift_clock_family(m: int) -> KrausFamily:
    """τ(x) = (1/m) Σ_{k=1..m} v_k x v_k* over the non-identity basis elements."""
    if not 2 <= m <= 8:
        raise ValueError("the index parameter must lie in 2..8")
    basis = weyl_basis(3)
    return KrausFamily.from_ops([w / np.sqrt(m) for w in basis[1 : m + 1]])


def weyl_mixture_channel(m: int, lam: float, tol: Tolerance = DEFAULT_TOLERANCE) -> Channel:
    """τ_λ = λ·τ + (1−λ)·identity; strongly mixing for 0 < λ < 1."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("mixing weight must lie in [0, 1]")
    shifts = np.sqrt(lam) * weyl_shift_clock_family(m).ops
    return Channel.from_kraus(np.concatenate([shifts, [np.sqrt(1.0 - lam) * np.eye(3)]]), tol)


def _weyl_example(m: int, lam: float | None, tol: Tolerance) -> Channel | KrausFamily:
    # without a mixing weight the example is τ itself, kept as displayed
    if lam is None:
        return weyl_shift_clock_family(m)
    return weyl_mixture_channel(m, lam, tol)


# name -> (builder, {parameter: (type, default)}).  ``builder(tol=..., **params)``
# returns the channel, or the displayed Kraus family where certificate checks
# need it (Examples 2.4, 2.11 and the unmixed 2.12).
BUILTINS = {
    "identity": (identity_channel, {"n": (int, 2)}),
    "depolarizing": (depolarizing_channel, {"n": (int, 2)}),
    "ex2.4": (lambda tol: diagonal_pair_family(), {}),
    "ex2.8": (qubit_multiplier_channel, {"z": (complex, 0.5)}),
    "ex2.9": (
        triple_multiplier_channel,
        {"z1": (complex, 0.0), "z2": (complex, 0.0), "z3": (complex, 0.0)},
    ),
    "ex2.10": (
        lambda x1, x2, x3, tol: triple_multiplier_channel(x1, x2, x3, tol),
        {"x1": (float, 0.0), "x2": (float, 0.0), "x3": (float, 0.0)},
    ),
    "ex2.11": (lambda tol: spin_triple_family(), {}),
    "ex2.12": (_weyl_example, {"m": (int, 2), "lam": (float, None)}),
    "m2": (
        lambda c1, c2, tol: m2_index2_channel(M2CanonicalForm.from_c(c1, c2), tol),
        {"c1": (float, 0.0), "c2": (float, 0.5)},
    ),
}


def _build(name: str, tol: Tolerance, params: dict) -> Channel | KrausFamily:
    if name not in BUILTINS:
        raise KeyError(f"unknown example {name!r}; known: {', '.join(BUILTINS)}")
    builder, declared = BUILTINS[name]
    unknown = [key for key in params if key not in declared]
    if unknown:
        takes = ", ".join(declared) or "no parameters"
        raise ValueError(f"{name} takes no parameter {', '.join(unknown)} (it takes {takes})")
    args = {}
    for key, (kind, default) in declared.items():
        value = params.get(key, default)
        args[key] = None if value is None else kind(value)
    return builder(tol=tol, **args)


def build_family(name: str, *, tol: Tolerance = DEFAULT_TOLERANCE, **params) -> KrausFamily:
    """Raw (displayed) Kraus family of a builtin, for gauge-sensitive checks;
    the canonical family where the builtin displays none."""
    return KrausFamily.from_ops(_build(name, tol, params))


def build_example(name: str, *, tol: Tolerance = DEFAULT_TOLERANCE, **params) -> Channel:
    """Materialize a named builtin; unknown names raise KeyError, parameters
    it does not take ValueError."""
    made = _build(name, tol, params)
    return made if isinstance(made, Channel) else Channel.from_kraus(made, tol)
