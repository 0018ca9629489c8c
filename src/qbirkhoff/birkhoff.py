"""Classical doubly stochastic matrices and their permutation decompositions.

The commutative special case: every doubly stochastic matrix is a convex
combination of permutation matrices, found greedily by repeated perfect
matchings on the support graph.  ``embed_classical`` lifts a matrix to the
quantum side as a channel acting on diagonals.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

import numpy as np

from .channels import Channel, float_array, loads_json
from .numerics import DEFAULT_TOLERANCE, Tolerance, as_matrix

__all__ = [
    "PermutationDecomposition",
    "is_doubly_stochastic",
    "birkhoff_decompose",
    "embed_classical",
    "ds_matrix_to_dict",
    "ds_matrix_from_dict",
    "loads_ds_matrix",
    "decomposition_to_dicts",
]

# residual entries below 64·n·eps, a roundoff bound and so fixed, are zeroed between rounds
_CLAMP_FACTOR = 64 * np.finfo(float).eps

# the greedy loop stops once the residual mass drops below n times this roundoff floor
_MASS_FLOOR = 1e-13


def _as_real_square(s) -> np.ndarray:
    # complex input is read as complex: an imaginary part is refused, not cast away with a warning
    arr = np.asarray(s)
    arr = as_matrix(arr, complex if np.iscomplexobj(arr) else float)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square real matrix, got shape {arr.shape}")
    if np.iscomplexobj(arr) and arr.imag.any():
        raise ValueError("a doubly stochastic matrix is real: this one has a nonzero imaginary part")
    return arr.real.copy() if np.iscomplexobj(arr) else arr


def _checked(s, tol: Tolerance) -> np.ndarray:
    """The float array of ``s``; ``ValueError`` unless it is doubly stochastic at ``tol``."""
    arr = _as_real_square(s)
    if not is_doubly_stochastic(arr, tol):
        raise ValueError("matrix is not doubly stochastic within tolerance")
    return arr


def is_doubly_stochastic(s, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    try:
        arr = _as_real_square(s)
    except ValueError:
        return False
    # an empty matrix is none; entries past 1 fail before the sums, which could overflow
    if not arr.size or float(arr.min()) < -tol.cutoff or float(arr.max()) > 1.0 + tol.cutoff:
        return False
    rows = np.abs(arr.sum(axis=1) - 1.0)
    cols = np.abs(arr.sum(axis=0) - 1.0)
    return float(rows.max()) <= tol.cutoff and float(cols.max()) <= tol.cutoff


@dataclass(frozen=True)
class PermutationDecomposition:
    """Convex combination Σ w_k P_{π_k}; permutations map row -> column."""

    terms: tuple
    n: int

    def total_weight(self) -> float:
        return float(sum(w for w, _ in self.terms))

    def mixture(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        weights = np.array([w for w, _ in self.terms])
        perms = np.array([perm for _, perm in self.terms], dtype=int).reshape(-1, self.n)
        np.add.at(out, (np.arange(self.n), perms), weights[:, None])
        return out


def _flip(c, r, parent, resid, match_row, match_col, matched) -> None:
    # match free column c to row r, then walk the parents back to the free start
    # row; each row that moves writes its matched value back and reads the new one
    parent[c] = r
    while c >= 0:
        r = parent[c]
        cells = resid[r]
        old = match_row[r]
        if old >= 0:
            cells[old] = matched[r]
        matched[r] = cells[c]
        match_row[r], match_col[c] = c, r
        c = old


def _augment(row, resid, support, free, match_row, match_col, matched) -> bool:
    # Breadth-first from the free ``row``, columns in increasing order, checking each
    # row for a free column (the lowest in the sorted ``free``) before queueing it:
    # plain BFS flips the same path, only after expanding the rows queued before.
    parent = {}
    cells = resid[row]
    for end in free:
        if cells[end] > 0.0:
            free.remove(end)
            _flip(end, row, parent, resid, match_row, match_col, matched)
            return True
    queue = [row]
    for q in queue:
        for c in support[q]:
            if c not in parent:
                parent[c] = q
                r = match_col[c]
                cells = resid[r]
                for end in free:
                    if cells[end] > 0.0:
                        free.remove(end)
                        _flip(end, r, parent, resid, match_row, match_col, matched)
                        return True
                queue.append(r)
    return False


def _mass(resid, match_row, matched) -> float:
    # write the matched values back, then sum the residual as one n×n float64 array
    for r, c in enumerate(match_row):
        if c >= 0:
            resid[r][c] = matched[r]
    return float(np.asarray(resid).sum())


def birkhoff_decompose(s, tol: Tolerance = DEFAULT_TOLERANCE) -> PermutationDecomposition:
    """Greedy Birkhoff-von Neumann decomposition.

    Each round subtracts the minimum entry of a perfect matching on the
    support and clamps only the matched entries.  The matching persists
    across rounds: only rows whose entry vanished are re-matched, by
    iterative breadth-first augmenting paths (Hopcroft & Karp 1973) that look
    one row ahead for a free column, and the matched values live in a list,
    so a round costs O(n + path length) and no recursion.  The residual is
    summed for the stopping rule only once its nonzero entries, each at least
    the clamp, no longer outweigh the floor by count alone.  ``ValueError``
    when ``s`` is not doubly stochastic at ``tol``, or when the residual has no
    perfect matching: the input was only near doubly stochastic.
    """
    resid = _checked(s, tol).copy()
    n = resid.shape[0]
    clamp = float(_CLAMP_FACTOR * n)
    resid[resid < clamp] = 0.0

    support = [np.flatnonzero(row).tolist() for row in resid]
    left = sum(map(len, support))
    resid = resid.tolist()
    free = list(range(n))  # unmatched columns, sorted
    freed = list(range(n))  # unmatched rows, sorted
    match_row = [-1] * n
    match_col = [-1] * n
    matched = [0.0] * n  # resid[r][match_row[r]]; the list holds a stale positive value there
    terms = []
    # each of the ``left`` nonzero entries is at least the clamp
    while left * clamp > n * _MASS_FLOOR or _mass(resid, match_row, matched) > n * _MASS_FLOOR:
        for r in freed:
            if not _augment(r, resid, support, free, match_row, match_col, matched):
                mass = _mass(resid, match_row, matched)
                raise ValueError(
                    f"the residual's support has no perfect matching, with mass {mass:.3e}"
                    f" left: the input is doubly stochastic only to within the tolerance {tol.cutoff}"
                )
        weight = min(matched)
        matched = [x - weight for x in matched]
        terms.append((weight, tuple(match_row)))
        freed = [r for r, x in enumerate(matched) if x < clamp]
        for r in freed:
            c = match_row[r]
            resid[r][c] = 0.0
            support[r].remove(c)
            match_row[r] = match_col[c] = -1
            insort(free, c)
        left -= len(freed)
    return PermutationDecomposition(terms=tuple(terms), n=n)


def embed_classical(s, tol: Tolerance = DEFAULT_TOLERANCE) -> Channel:
    """The channel with Kraus family {√s_ij · e_i e_j*} over the support.

    Acts on diagonal states as the matrix itself: diag(p) -> diag(S p).
    """
    arr = _checked(s, tol)
    rows, cols = np.nonzero(arr > tol.cutoff)
    ops = np.zeros((rows.size, *arr.shape), dtype=complex)
    ops[np.arange(rows.size), rows, cols] = np.sqrt(arr[rows, cols])
    return Channel.from_kraus(ops, tol)


# --- JSON surface ---------------------------------------------------------


def ds_matrix_to_dict(s, tol: Tolerance = DEFAULT_TOLERANCE) -> dict:
    arr = _checked(s, tol)
    return {"n": arr.shape[0], "rows": arr.tolist()}


def ds_matrix_from_dict(data, tol: Tolerance = DEFAULT_TOLERANCE) -> np.ndarray:
    if not isinstance(data, dict) or "n" not in data or "rows" not in data:
        raise ValueError('matrix file must be an object with "n" and "rows"')
    n = data["n"]
    if type(n) is not int or n <= 0:  # not isinstance: JSON true is a bool, an int subclass
        raise ValueError(f'"n" must be a positive integer, got {n!r}')
    arr = float_array(data["rows"], 2, '"rows"')
    if arr.shape != (n, n):
        raise ValueError(f'"rows" of shape {arr.shape} does not match "n" = {n}')
    return _checked(arr, tol)


def loads_ds_matrix(text: str, tol: Tolerance = DEFAULT_TOLERANCE) -> np.ndarray:
    return ds_matrix_from_dict(loads_json(text), tol)


def decomposition_to_dicts(dec: PermutationDecomposition) -> list:
    return [{"weight": w, "permutation": list(perm)} for w, perm in dec.terms]
