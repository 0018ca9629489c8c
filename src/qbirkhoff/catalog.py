"""Built-in channels: the named examples reachable from the CLI and tests.

Matrices are written out exactly as displayed in their sources of truth;
builders return canonical :class:`~qbirkhoff.channels.Channel` values, with
the raw families also exposed where certificate checks need the displayed
representatives rather than the canonical gauge.
"""

from __future__ import annotations

import numpy as np

from .channels import Channel, KrausFamily
from .faces import M2CanonicalForm, SchurSpec, m2_index2_channel, schur_channel
from .numerics import as_matrix

__all__ = [
    "identity_channel",
    "depolarizing_channel",
    "unitary_channel",
    "swap_channel",
    "diagonal_pair_family",
    "diagonal_pair_channel",
    "qubit_multiplier_channel",
    "triple_multiplier_channel",
    "spin_triple_family",
    "spin_triple_channel",
    "weyl_basis",
    "weyl_shift_clock_family",
    "weyl_shift_clock_channel",
    "weyl_mixture_channel",
    "m2_family_channel",
    "cycle_embed_channel",
    "EXAMPLE_NAMES",
    "build_family",
    "build_example",
]


def identity_channel(n: int = 2) -> Channel:
    return Channel.from_kraus([np.eye(n)])


def depolarizing_channel(n: int = 2) -> Channel:
    """x -> tr(x)·I/n, Kraus family {e_ij/√n}."""
    return Channel.from_kraus(np.eye(n * n).reshape(n * n, n, n) / np.sqrt(n))


def unitary_channel(u) -> Channel:
    return Channel.from_kraus([as_matrix(u)])


def swap_channel() -> Channel:
    """Conjugation by the 2×2 basis swap."""
    return unitary_channel(np.array([[0.0, 1.0], [1.0, 0.0]]))


def diagonal_pair_family() -> KrausFamily:
    """The extremal diagonal pair on M₄: v₁ = diag(1, 0, 2^-½, 2^-½),
    v₂ = diag(0, 1, 2^-½, i·2^-½)."""
    r = 1.0 / np.sqrt(2.0)
    v1 = np.diag([1.0, 0.0, r, r]).astype(complex)
    v2 = np.diag([0.0, 1.0, r, 1j * r])
    return KrausFamily.from_ops([v1, v2])


def diagonal_pair_channel() -> Channel:
    return Channel.from_kraus(diagonal_pair_family())


def qubit_multiplier_channel(z: complex) -> Channel:
    """M₂ multiplier channel fixing the diagonal: e₁₂ -> z·e₁₂, |z| ≤ 1."""
    spec = SchurSpec.from_matrix([[1.0, z], [np.conj(z), 1.0]])
    return schur_channel(spec)


def triple_multiplier_channel(z1: complex, z2: complex, z3: complex) -> Channel:
    """M₃ multiplier channel of the face fixing all three diagonal units."""
    spec = SchurSpec.from_matrix(
        [
            [1.0, z1, z3],
            [np.conj(z1), 1.0, z2],
            [np.conj(z3), np.conj(z2), 1.0],
        ]
    )
    return schur_channel(spec)


def spin_triple_family() -> KrausFamily:
    """The three spin-1 generators scaled by 2^-½."""
    r = 1.0 / np.sqrt(2.0)
    lx = r * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
    ly = r * np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]])
    lz = np.array([[1, 0, 0], [0, 0, 0], [0, 0, -1]], dtype=complex)
    return KrausFamily.from_ops([r * lx, r * ly, r * lz])


def spin_triple_channel() -> Channel:
    return Channel.from_kraus(spin_triple_family())


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


def weyl_shift_clock_family(m: int = 2) -> KrausFamily:
    if not 2 <= m <= 8:
        raise ValueError("the index parameter must lie in 2..8")
    basis = weyl_basis(3)
    return KrausFamily.from_ops([w / np.sqrt(m) for w in basis[1 : m + 1]])


def weyl_shift_clock_channel(m: int = 2) -> Channel:
    """τ(x) = (1/m) Σ_{k=1..m} v_k x v_k* over the non-identity basis elements."""
    return Channel.from_kraus(weyl_shift_clock_family(m))


def weyl_mixture_channel(m: int = 2, lam: float = 0.5) -> Channel:
    """τ_λ = λ·τ + (1−λ)·identity; strongly mixing for 0 < λ < 1."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("mixing weight must lie in [0, 1]")
    shifts = np.sqrt(lam) * weyl_shift_clock_family(m).ops
    return Channel.from_kraus(np.concatenate([shifts, [np.sqrt(1.0 - lam) * np.eye(3)]]))


def m2_family_channel(c1: float, c2: float) -> Channel:
    return m2_index2_channel(M2CanonicalForm.from_c(c1, c2))


def cycle_embed_channel(n: int = 3) -> Channel:
    """Embedding of the n-cycle permutation: diagonals rotate, off-diagonals die."""
    from .birkhoff import embed_classical

    s = np.zeros((n, n))
    for k in range(n):
        s[(k + 1) % n, k] = 1.0
    return embed_classical(s)


EXAMPLE_NAMES = (
    "identity",
    "depolarizing",
    "ex2.4",
    "ex2.8",
    "ex2.9",
    "ex2.10",
    "ex2.11",
    "ex2.12",
    "m2",
)


def build_family(name: str, **params) -> KrausFamily:
    """Raw (displayed) Kraus family of a builtin, for gauge-sensitive checks."""
    if name == "ex2.4":
        return diagonal_pair_family()
    if name == "ex2.11":
        return spin_triple_family()
    if name == "ex2.12" and params.get("lam") is None:
        return weyl_shift_clock_family(int(params.get("m", 2)))
    return build_example(name, **params).kraus


def build_example(name: str, **params) -> Channel:
    """Materialize a named builtin; unknown names raise KeyError."""
    if name == "identity":
        return identity_channel(int(params.get("n", 2)))
    if name == "depolarizing":
        return depolarizing_channel(int(params.get("n", 2)))
    if name == "ex2.4":
        return diagonal_pair_channel()
    if name == "ex2.8":
        return qubit_multiplier_channel(complex(params.get("z", 0.5)))
    if name == "ex2.9":
        return triple_multiplier_channel(
            complex(params.get("z1", 0.0)),
            complex(params.get("z2", 0.0)),
            complex(params.get("z3", 0.0)),
        )
    if name == "ex2.10":
        return triple_multiplier_channel(
            float(params.get("x1", 0.0)),
            float(params.get("x2", 0.0)),
            float(params.get("x3", 0.0)),
        )
    if name == "ex2.11":
        return spin_triple_channel()
    if name == "ex2.12":
        m = int(params.get("m", 2))
        if params.get("lam") is not None:
            return weyl_mixture_channel(m, float(params["lam"]))
        return weyl_shift_clock_channel(m)
    if name == "m2":
        return m2_family_channel(float(params.get("c1", 0.0)), float(params.get("c2", 0.5)))
    raise KeyError(f"unknown example {name!r}; known: {', '.join(EXAMPLE_NAMES)}")
