"""Conjugacy invariants and certificate verification for extremal channels.

Whether two channels are (anti-)unitarily cocycle conjugate is decided here
in two moves: data-matrix spectra give a cheap necessary condition, and a
supplied certificate (u, g, w) is verified against the defining relation

    u v_k u*  =  w · sum_j g_kj v'_j

with v_k entrywise-conjugated in the anti-unitary case.  Certificate search
is out of scope; the block projection ((v_i v_j*)) and its intertwiner give
the constructive half for doubly stochastic families.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    Channel,
    KrausFamily,
    loads_json,
    matrix_from_pairs,
    pairs_array,
)
from .numerics import (
    DEFAULT_TOLERANCE,
    NumericalFailure,
    Tolerance,
    as_matrix,
    dagger,
    hermitian_eig,
    is_psd,
    max_abs,
    projection_eigenbasis,
)

__all__ = [
    "ConjugacyCertificate",
    "data_matrix",
    "spectrum_invariant",
    "spectra_match",
    "conjugate_data_test",
    "verify_certificate",
    "choi_block_projection",
    "choi_block_intertwiner",
    "conjugate_channel",
    "certificate_to_dict",
    "certificate_from_dict",
    "load_certificate",
]


def _family(obj) -> KrausFamily:
    return obj.kraus if isinstance(obj, Channel) else KrausFamily.from_ops(obj)


@dataclass(frozen=True, eq=False)
class ConjugacyCertificate:
    u: np.ndarray
    g: np.ndarray
    w: np.ndarray
    antiunitary: bool = False


def data_matrix(ch, state=None, tol: Tolerance = DEFAULT_TOLERANCE) -> np.ndarray:
    """Basic data matrix D_ij = φ(v_i v_j*) of a channel at a state φ (default:
    normalized trace): the d×d Gram matrix, hermitian PSD."""
    fam = _family(ch)
    n = fam.dim
    if state is None:
        rho = np.eye(n) / n
    else:
        rho = as_matrix(state)
        if rho.shape != (n, n):
            raise ValueError(f"state of shape {rho.shape} does not match dimension {n}")
        if not is_psd(rho, tol):  # which rejects a state that is not hermitian
            raise ValueError("state is not positive semidefinite")
        if abs(np.trace(rho) - 1.0) > tol.cutoff:
            raise ValueError("state does not have unit trace")
    # tr(ρ v_i v_j*) = Σ_ab (ρ v_i)_ab conj(v_j)_ab: one Gram product of the flattened stacks
    flat = fam.ops.reshape(fam.index, -1)
    mat = (rho @ fam.ops).reshape(fam.index, -1) @ dagger(flat)
    # Gram structure forces hermitian PSD; symmetrize away roundoff
    return (mat + dagger(mat)) / 2.0


def spectrum_invariant(dm, tol: Tolerance = DEFAULT_TOLERANCE) -> np.ndarray:
    """Descending eigenvalues of a data matrix — invariant under every certified conjugacy."""
    vals, _ = hermitian_eig(dm, tol)
    return vals


def spectra_match(spec_a, spec_b, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Whether two invariant spectra (descending) agree: equal sizes and every
    entry within ``tol.residual``, ten times the cutoff (1e-8 at the default)."""
    a, b = np.asarray(spec_a), np.asarray(spec_b)
    return a.size == b.size and max_abs(a - b) <= tol.residual


def conjugate_data_test(dm, dm2, tol: Tolerance = DEFAULT_TOLERANCE):
    """A unitary g with g D g* = D' for two data matrices when the spectra match, else None."""
    a, b = as_matrix(dm), as_matrix(dm2)
    if a.shape != b.shape:
        return None
    vals_a, vecs_a = hermitian_eig(a, tol)
    vals_b, vecs_b = hermitian_eig(b, tol)
    if not spectra_match(vals_a, vals_b, tol):
        return None
    g = vecs_b @ dagger(vecs_a)
    if max_abs(g @ a @ dagger(g) - b) > tol.structural:
        return None
    return g


def verify_certificate(
    ch, ch2, cert: ConjugacyCertificate, tol: Tolerance = DEFAULT_TOLERANCE
) -> bool:
    """Check that u, g and w are unitary and that u v_k u* = w Σ_j g_kj v'_j for
    every k (conjugated v_k when anti-unitary), each entrywise within ``tol.cutoff``;
    certificates relate the families as given, so raw Kraus families are accepted
    alongside channels."""
    fam, fam2 = _family(ch), _family(ch2)
    if fam.dim != fam2.dim:
        raise ValueError(f"dimension mismatch: {fam.dim} vs {fam2.dim}")
    if fam.index != fam2.index:
        raise ValueError(f"index mismatch: {fam.index} vs {fam2.index}")
    n, d = fam.dim, fam.index
    u, g, w = as_matrix(cert.u), as_matrix(cert.g), as_matrix(cert.w)
    if u.shape != (n, n) or w.shape != (n, n) or g.shape != (d, d):
        raise ValueError("certificate matrices do not match the channel sizes")
    if any(max_abs(x @ dagger(x) - np.eye(len(x))) > tol.cutoff for x in (u, g, w)):
        return False
    ops = np.conj(fam.ops) if cert.antiunitary else fam.ops
    lhs = u @ ops @ dagger(u)
    rhs = w @ np.tensordot(g, fam2.ops, axes=1)
    return max_abs(lhs - rhs) <= tol.cutoff


def choi_block_projection(k, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[np.ndarray, bool]:
    """The nd×nd block matrix ((v_i v_j*)) and whether it is a projection.

    The block matrix is a projection exactly when the family is doubly
    stochastic (within ``tol``), and then its rank is n.
    """
    fam = _family(k)
    n, d = fam.dim, fam.index
    p = fam.products().transpose(0, 2, 1, 3).reshape(d * n, d * n)
    return p, all(fam.validate(tol))


def _eigenbasis(p: np.ndarray, n: int, tol: Tolerance) -> np.ndarray:
    rank, cols = projection_eigenbasis(p, tol)
    if rank != n:
        raise NumericalFailure(f"block projection has rank {rank}, expected {n}")
    return cols


def choi_block_intertwiner(k, k2, tol: Tolerance = DEFAULT_TOLERANCE):
    """Unitary W with W* P W = P' for the two block projections, and the
    induced unitary u on C^n defined by u: v'_j* f -> Σ_k v_k* W_kj f.

    The residuals grow with the families' unit defects (‖uu* − I‖ is twice one
    defect for two copies of (1+ε)·I), so the post-checks allow the sum of both
    families' measured defects, floored at ``tol.structural``: a family accepted at a
    loose ``tol`` is not refused by them.
    """
    fam, fam2 = _family(k), _family(k2)
    if fam.dim != fam2.dim or fam.index != fam2.index:
        raise ValueError("intertwiner needs equal dimension and index")
    blocks = []
    for name, f in (("first", fam), ("second", fam2)):
        p, is_projection = choi_block_projection(f, tol)
        if not is_projection:
            raise ValueError(f"{name} family is not doubly stochastic")
        blocks.append(p)
    allowance = max(tol.structural, sum(fam.unit_defects + fam2.unit_defects))
    n, d = fam.dim, fam.index
    p, p2 = blocks
    w_full = _eigenbasis(p, n, tol) @ dagger(_eigenbasis(p2, n, tol))
    if max_abs(dagger(w_full) @ p @ w_full - p2) > allowance:
        raise NumericalFailure("intertwiner failed to conjugate the block projections")

    # m[j] = Σ_k v_k* W_kj, with W_kj the (k, j) block of W
    m = np.tensordot(np.conj(fam.ops), w_full.reshape(d, n, d, n), axes=([0, 1], [0, 1]))
    m = m.transpose(1, 0, 2)
    ops2 = fam2.ops
    u = (m @ ops2).sum(axis=0)
    if max_abs(u @ dagger(u) - np.eye(n)) > allowance:
        raise NumericalFailure("induced vector map failed to be unitary")
    if max_abs(u @ dagger(ops2) - m) > allowance:
        raise NumericalFailure("induced vector map violates its defining relation")
    return w_full, u


def conjugate_channel(ch) -> KrausFamily:
    """Entrywise complex conjugation of the Kraus family, as a family.

    The map x -> conj(tau(conj(x))) has Kraus family {conj(v_k)} literally,
    operator by operator, and conjugation preserves both marginal sums
    exactly; ``Channel.from_kraus`` of it is the canonical channel, as for
    :meth:`KrausFamily.adjoint`.
    """
    return KrausFamily(np.conj(_family(ch).ops))


# --- certificate files ----------------------------------------------------


def certificate_to_dict(cert: ConjugacyCertificate) -> dict:
    return {
        "u": pairs_array(cert.u).tolist(),
        "g": pairs_array(cert.g).tolist(),
        "w": pairs_array(cert.w).tolist(),
        "antiunitary": bool(cert.antiunitary),
    }


def certificate_from_dict(data) -> ConjugacyCertificate:
    if not isinstance(data, dict):
        raise ValueError("certificate file must be a JSON object")
    missing = {"u", "g", "w"} - set(data)
    if missing:
        raise ValueError(f"certificate file lacks {sorted(missing)}")
    antiunitary = data.get("antiunitary", False)
    if not isinstance(antiunitary, bool):
        raise ValueError(f'"antiunitary" must be true or false, got {antiunitary!r}')
    return ConjugacyCertificate(
        u=matrix_from_pairs(data["u"]),
        g=matrix_from_pairs(data["g"]),
        w=matrix_from_pairs(data["w"]),
        antiunitary=antiunitary,
    )


def load_certificate(path) -> ConjugacyCertificate:
    with open(path, encoding="utf-8") as fh:
        return certificate_from_dict(loads_json(fh.read()))
