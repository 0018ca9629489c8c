"""Unital completely positive maps in Kraus, Choi, superoperator and real form.

The representations are tied together by the package-wide column-stacking
convention:

    choi          = sum_k vec(v_k) vec(v_k)*
    superoperator = sum_k conj(v_k) (x) v_k
    real form     = U* superoperator U, with U's columns the vec of the hermitian
                    basis {E_jj; (E_jk + E_kj)/√2, i(E_jk − E_kj)/√2 : j < k}

A ``Channel`` always carries a canonical minimal Kraus family: the Choi
eigenvectors of eigenvalue above the rank cutoff, scaled by its square root,
read off the d×d Gram matrix of a Kraus family; a Choi matrix enters as the
family of its PSD factor, whose Gram matrix is diagonal.  Inside a degenerate
eigenspace the basis is whatever ``eigh`` returns, so two Kraus families of
one channel can still canonicalize to different operators there (ROADMAP
item 3).

Validity is measured, not stored: ``KrausFamily.validate(tol)`` reads unit defects
measured once per family at each caller's tolerance, and every gate refuses
(``ValueError``) a channel that fails it at that gate's own ``tol``.  The real
form and the spectrum belong to the map, so they too are cached on the family,
canonical or not: ``spectral.classify`` reads a family as given.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby

import numpy as np

from .numerics import (
    DEFAULT_TOLERANCE,
    NotCompletelyPositive,
    Tolerance,
    as_matrix,
    dagger,
    diagonal_blocks,
    hermitian_pair_map,
    max_abs,
    phase_fixed,
    psd_factor,
    rank_cutoff,
    unvec,
    vec,
)

__all__ = [
    "NotCompletelyPositive",
    "KrausFamily",
    "Channel",
    "choi_from_kraus",
    "kraus_from_choi",
    "superoperator_from_kraus",
    "adjoint_channel",
    "pairs_array",
    "complex_array",
    "channel_to_dict",
    "family_from_dict",
    "loads_json",
]


@dataclass(frozen=True, eq=False)
class KrausFamily:
    """Ordered family of n-by-n operators v_k representing x -> sum v_k x v_k*.

    ``ops`` is one C-contiguous complex d×n×n array whose entry k is v_k.  Its
    unit defects, real form and spectrum are measured once, on these operators.
    """

    ops: np.ndarray

    @classmethod
    def from_ops(cls, ops) -> "KrausFamily":
        """The one coercion of a Kraus input: a sequence of n×n matrices, a
        d×n×n array, a family (returned as is) or a channel (its family)."""
        if isinstance(ops, Channel):
            ops = ops.kraus
        if isinstance(ops, cls):
            return ops
        try:
            a = np.ascontiguousarray(ops, dtype=complex)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"Kraus family is not one d×n×n array: {exc}") from exc
        if a.shape[:1] == (0,):
            raise ValueError("an empty Kraus family has no algebra size")
        if a.ndim != 3 or a.shape[1] != a.shape[2] or not a.shape[1]:
            raise ValueError(f"Kraus family of shape {a.shape} is not d×n×n with n ≥ 1")
        if not np.isfinite(a).all():
            raise ValueError("Kraus family contains non-finite entries")
        return cls(a)

    @property
    def dim(self) -> int:
        return self.ops.shape[1]

    @property
    def index(self) -> int:
        return self.ops.shape[0]

    def products(self) -> np.ndarray:
        """d×d×n×n array whose entry (i, j) is v_i v_j*."""
        a = self.ops
        return a[:, None] @ dagger(a)[None, :]

    @cached_property
    def unit_defects(self) -> tuple[float, float]:
        """Deviations (entrywise max) of sum v v* and sum v* v from I, measured once."""
        # row i of ``wide`` is row i of every v_k side by side; ``tall`` stacks the v_k
        a, n = self.ops, self.dim
        wide, tall, eye = a.transpose(1, 0, 2).reshape(n, -1), a.reshape(-1, n), np.eye(n)
        # products that overflow give a non-finite defect, which fails every gate, without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            return max_abs(wide @ dagger(wide) - eye), max_abs(dagger(tall) @ tall - eye)

    def validate(self, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[bool, bool]:
        """(unital, trace_preserving) within ``tol.cutoff``: the one validity
        predicate, which every gate reads at its own call's tolerance."""
        out_dev, in_dev = self.unit_defects
        return out_dev <= tol.cutoff, in_dev <= tol.cutoff

    @cached_property
    def real_superoperator(self) -> np.ndarray:
        """The real form, built once: read-only, real and unitarily similar to T,
        since τ(x*) = τ(x)*: the hermitian pair map of p_ij = τ(E_ij), a view of T
        (τ(E_ij)[r, s] is T[s·n + r, j·n + i])."""
        n = self.dim
        r = hermitian_pair_map(superoperator_from_kraus(self).reshape(n, n, n, n).transpose(3, 2, 1, 0))
        r.flags.writeable = False
        return r

    @cached_property
    def real_blocks(self) -> list:
        """The real form's :func:`~qbirkhoff.numerics.diagonal_blocks`, found once."""
        return diagonal_blocks(self.real_superoperator)

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues of τ from the real form, solved once per diagonal block and
        concatenated in block order: read-only complex128, with exact conjugate
        pairs and real ones as x + 0.0j.  A run of 1×1 blocks is read in one step:
        each eigenvalue is the block's entry, as LAPACK returns it below 1e±138."""
        r, blocks = self.real_superoperator, self.real_blocks
        if len(blocks) == 1:
            parts = [np.linalg.eigvals(r)]
        else:
            parts = []
            for single, run in groupby(blocks, lambda b: len(b) == 1):
                if single:
                    at = np.concatenate(list(run))
                    parts.append(r[at, at])
                else:
                    parts += [np.linalg.eigvals(r[np.ix_(b, b)]) for b in run]
        vals = np.concatenate(parts).astype(complex)
        vals.flags.writeable = False
        return vals

    def adjoint(self) -> "KrausFamily":
        return KrausFamily.from_ops(dagger(self.ops))


def choi_from_kraus(k) -> np.ndarray:
    """n²×n² Choi matrix; block (i,j) equals the channel applied to e_ij."""
    w = vec(KrausFamily.from_ops(k).ops)  # row k is vec(v_k)
    # entries whose products overflow give a non-finite Choi matrix, which its
    # readers refuse, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        return w.T @ np.conj(w)


def superoperator_from_kraus(k) -> np.ndarray:
    """n²×n² matrix sum_k conj(v_k) (x) v_k."""
    a = KrausFamily.from_ops(k).ops
    d, n = a.shape[:2]
    # one product; an entry whose terms are all exact zeros stays an exact zero
    t = np.conj(a).transpose(1, 2, 0).reshape(n * n, d) @ a.reshape(d, n * n)
    return t.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)


def _entry_key(op: np.ndarray) -> tuple:
    """Entries rounded to a fixed 12 digits, as the canonical order's eigenvalue keys
    are: that order decides nothing, so it does not move with the tolerance."""
    return tuple((round(float(z.real), 12), round(float(z.imag), 12)) for z in op.ravel(order="C"))


def _canonical_family(vals: np.ndarray, ops: np.ndarray, tol: Tolerance) -> KrausFamily:
    # the kept eigenvalues' sqrt-scaled operators, phase-fixed, by descending rounded
    # eigenvalue; only operators whose rounded eigenvalues tie, by rounded entries
    if not len(vals):
        raise ValueError("the map is zero within the rank cutoff: it has no Kraus operators")
    ops = phase_fixed(ops, tol.cutoff)
    keys = [-round(float(v), 12) for v in vals]
    if keys == sorted(set(keys)):  # distinct and in order, as from_kraus's descending values are
        return KrausFamily(ops)
    order = []
    for _, tied in groupby(sorted(range(len(ops)), key=keys.__getitem__), key=keys.__getitem__):
        tied = list(tied)
        order += tied if len(tied) == 1 else sorted(tied, key=lambda k: _entry_key(ops[k]))
    return KrausFamily(ops[order])


@dataclass(frozen=True, eq=False)
class Channel:
    """A CP map with canonical minimal Kraus family.

    ``index`` equals the Choi rank by construction.  Unital and
    trace-preserving are not stored: ``kraus.validate(tol)`` decides both
    at each caller's tolerance, and the spectrum is ``kraus.spectrum``.
    """

    kraus: KrausFamily

    @classmethod
    def from_kraus(cls, ops, tol: Tolerance = DEFAULT_TOLERANCE) -> "Channel":
        """From the d×d Gram matrix G = conj(W) Wᵀ, W's rows vec(v_k): it has the
        nonzero spectrum of Choi = Wᵀ conj(W), and G u = λ u gives the Choi
        eigenvector Wᵀ u = vec(Σ_k u_k v_k) of norm √λ."""
        a = KrausFamily.from_ops(ops).ops
        w = a.reshape(len(a), -1)  # any flattening of the v_k gives the same G
        with np.errstate(over="ignore", invalid="ignore"):
            g = np.conj(w) @ w.T
        if not g.any() or not np.isfinite(g).all():
            raise ValueError("the Kraus products are zero or overflow: no finite nonzero map")
        vals, vecs = np.linalg.eigh(g)  # G is hermitian to rounding: eigh reads one triangle
        low = np.count_nonzero(vals <= rank_cutoff(vals, tol))  # the kept eigenpairs: eigh's top slice
        # Σ_k u_k v_k for each kept u, the u as contiguous rows: the bits of a one-row product follow strides
        mixed = (np.ascontiguousarray(vecs[:, low:].T) @ w).reshape(-1, *a.shape[1:])
        return cls(_canonical_family(vals[low:][::-1], mixed[::-1], tol))

    @classmethod
    def from_choi(cls, choi, tol: Tolerance = DEFAULT_TOLERANCE) -> "Channel":
        """:meth:`from_kraus` of the operators unvec(√λ u) of a PSD Choi matrix's
        :func:`~qbirkhoff.numerics.psd_factor`, whose Gram matrix is diag λ.  Raises
        :class:`NotCompletelyPositive` when it is not PSD, and ``ValueError`` when
        it is zero within the rank cutoff."""
        c = as_matrix(choi)
        n2 = c.shape[0]
        n = int(round(np.sqrt(n2)))
        if n * n != n2 or c.shape != (n2, n2):
            raise ValueError(f"Choi matrix of shape {c.shape} is not n² by n²")
        if not np.any(c):
            raise ValueError("the Choi matrix is zero: the zero map has no Kraus operators")
        vals, cols = psd_factor(c, tol)
        if not len(vals):
            raise ValueError("the map is zero within the rank cutoff: it has no Kraus operators")
        return cls.from_kraus(unvec(cols.T, n), tol)

    @property
    def dim(self) -> int:
        return self.kraus.dim

    @property
    def index(self) -> int:
        return self.kraus.index

    def apply(self, x) -> np.ndarray:
        x = as_matrix(x)
        if x.shape != (self.dim, self.dim):
            raise ValueError(f"operand of shape {x.shape} does not act on M_{self.dim}")
        a = self.kraus.ops
        return (a @ x @ dagger(a)).sum(axis=0)


def kraus_from_choi(choi, tol: Tolerance = DEFAULT_TOLERANCE) -> KrausFamily:
    """Canonical minimal Kraus family of a PSD Choi matrix, :meth:`Channel.from_choi`'s."""
    return Channel.from_choi(choi, tol).kraus


def adjoint_channel(ch: Channel, tol: Tolerance = DEFAULT_TOLERANCE) -> Channel:
    """The dual map x -> sum v_k* x v_k; defined for input doubly stochastic at ``tol``."""
    if not all(ch.kraus.validate(tol)):
        raise ValueError("adjoint channel requires a unital trace-preserving input")
    return Channel.from_kraus(ch.kraus.adjoint(), tol)


# --- JSON surface ---------------------------------------------------------
#
# Channel files are UTF-8 JSON {"dim": n, "kraus": [op, ...]} with each op an
# n×n row-major array of [re, im] pairs.  Floats are written with Python's
# shortest round-trip repr (full double precision); NaN/Inf are rejected on
# read and never written.  Text is parsed by ``loads_json`` and every array
# is decoded by ``float_array``, so a malformed file is a ``ValueError``.


def pairs_array(m) -> np.ndarray:
    """[re, im] pairs on a trailing axis of 2, for a complex array of any shape."""
    a = np.asarray(m, dtype=complex)
    return np.stack((a.real, a.imag), -1)


def float_array(value, axes: int, what: str) -> np.ndarray:
    """The one decode rule of the file formats: ``value`` as a float array with
    ``axes`` axes and finite entries.  Its leaves must be JSON numbers, int or
    float, of any size a float holds; a value that does not convert (a ragged
    list, a bool, string, object or null entry, a bare number) is
    ``ValueError``, never ``TypeError``."""
    try:
        leaves = np.asarray(value, dtype=object)
        if not set(map(type, leaves.ravel())) <= {int, float}:
            raise TypeError("entries must be JSON numbers")
        arr = leaves.astype(float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{what} is not an array of numbers: {exc}") from exc
    if arr.ndim != axes:
        raise ValueError(f"{what} of shape {arr.shape} does not have {axes} axes")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite or null entries")
    return arr


def complex_array(value, axes: int, what: str) -> np.ndarray:
    """A complex array with ``axes`` axes from nested [re, im] pairs, by
    :func:`float_array`'s rule; ``what`` names the value in its errors."""
    arr = float_array(value, axes + 1, what)
    if arr.shape[-1] != 2:
        raise ValueError(f"{what} of shape {arr.shape} is not made of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def channel_to_dict(ch: Channel) -> dict:
    return {"dim": ch.dim, "kraus": pairs_array(ch.kraus.ops).tolist()}


def family_from_dict(data) -> KrausFamily:
    """The Kraus family exactly as serialized, without canonicalization."""
    if not isinstance(data, dict) or "dim" not in data or "kraus" not in data:
        raise ValueError('channel file must be an object with "dim" and "kraus"')
    n = data["dim"]
    if type(n) is not int or n <= 0:  # not isinstance: JSON true is a bool, an int subclass
        raise ValueError(f'"dim" must be a positive integer, got {n!r}')
    fam = KrausFamily.from_ops(complex_array(data["kraus"], 3, '"kraus"'))
    if fam.dim != n:
        raise ValueError(f'Kraus operators of size {fam.dim} do not match "dim" {n}')
    return fam


def loads_json(text: str):
    """Parse JSON text, rejecting the NaN/Infinity tokens Python would accept, and
    nesting deeper than the decoder's recursion allows."""

    def reject(token):
        raise ValueError(f"non-finite number {token!r} in JSON input")

    try:
        return json.loads(text, parse_constant=reject)
    except RecursionError:
        raise ValueError("JSON input nested too deeply") from None
