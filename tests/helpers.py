"""Shared generators and independent oracles for the test suite.

Everything here deliberately avoids the library's own linear-algebra routes:
superoperators are rebuilt by applying the channel to matrix units, ranks are
recomputed from Gram matrices, and random doubly stochastic objects are
produced by explicit projection/mixture constructions.
"""

import copy
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import qbirkhoff
from qbirkhoff import Channel, KrausFamily, embed_classical
from qbirkhoff.birkhoff import _CLAMP_FACTOR, _MASS_FLOOR, PermutationDecomposition, _checked
from qbirkhoff.numerics import DEFAULT_TOLERANCE, dagger, vec


def partial_trace(m, dims, side):
    """Trace out one tensor factor of a matrix on a bipartite space.

    ``dims`` declares the factor sizes (first is the slow index, matching
    ``numpy.kron`` order); ``side`` names the factor that is traced out.
    """
    arr = np.asarray(m, dtype=complex)
    d1, d2 = dims
    if d1 <= 0 or d2 <= 0 or arr.shape != (d1 * d2, d1 * d2):
        raise ValueError(f"matrix of shape {arr.shape} does not match factors {dims}")
    four = arr.reshape(d1, d2, d1, d2)
    if side == "first":
        return np.trace(four, axis1=0, axis2=2)
    if side == "second":
        return np.trace(four, axis1=1, axis2=3)
    raise ValueError(f"side must be 'first' or 'second', got {side!r}")


def run_module(*argv, stdin=None):
    """``python -m qbirkhoff.cli argv`` in a fresh interpreter that imports the package
    under test: pytest's pythonpath setting does not reach a child process, so the
    child's path starts with the directory this process imported ``qbirkhoff`` from."""
    paths = [str(Path(qbirkhoff.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run(
        [sys.executable, "-m", "qbirkhoff.cli", *argv], input=stdin, capture_output=True, text=True, env=env
    )


def unitary_channel(u):
    return Channel.from_kraus([np.asarray(u, dtype=complex)])


def swap_channel():
    """Conjugation by the 2×2 basis swap."""
    return unitary_channel(np.array([[0.0, 1.0], [1.0, 0.0]]))


def cycle_embed_channel(n=3):
    """Embedding of the n-cycle permutation: diagonals rotate, off-diagonals die."""
    return embed_classical(np.roll(np.eye(n), 1, axis=0))


def haar_unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_ds_choi(n, rng, mix=0.35, max_rounds=50):
    """Random Choi matrix of a doubly stochastic channel on M_n.

    Starts from a Wishart matrix pulled toward the maximally mixed Choi
    (so the iterate stays interior), then alternates a PSD clip with an
    exact two-marginal correction until both partial traces are I.
    """
    m = rng.normal(size=(n * n, n * n)) + 1j * rng.normal(size=(n * n, n * n))
    w = m @ dagger(m)
    w *= n / np.trace(w).real
    c = (1.0 - mix) * w + mix * np.eye(n * n) / n
    c *= n / np.trace(c).real
    eye = np.eye(n)
    for _ in range(max_rounds):
        vals, vecs = np.linalg.eigh((c + dagger(c)) / 2)
        c = (vecs * np.clip(vals, 0.0, None)) @ dagger(vecs)
        c *= n / np.trace(c).real
        a = partial_trace(c, (n, n), "first")
        b = partial_trace(c, (n, n), "second")
        c = c + np.kron(eye, eye - a) / n + np.kron(eye - b, eye) / n
        a = partial_trace(c, (n, n), "first")
        b = partial_trace(c, (n, n), "second")
        marg = max(np.max(np.abs(a - eye)), np.max(np.abs(b - eye)))
        if marg < 1e-12 and np.linalg.eigvalsh((c + dagger(c)) / 2)[0] > -1e-12:
            return c
    raise RuntimeError("doubly stochastic projection did not converge")


def random_ds_channel(n, rng):
    return Channel.from_choi(random_ds_choi(n, rng))


def random_unitary_mixture(n, k, rng):
    """Channel Σ p_i u_i x u_i* — doubly stochastic, index k generically."""
    p = rng.dirichlet(np.ones(k))
    ops = [np.sqrt(p[i]) * haar_unitary(n, rng) for i in range(k)]
    return Channel.from_kraus(KrausFamily.from_ops(ops))


def random_periodic_channel(n, p, d, rng):
    """Mixture of d operators (block shift)·(random block-diagonal unitary)
    over p blocks of size n/p: block k maps onto block k+1 mod p, so the
    channel is ergodic with period p generically for d ≥ 2."""
    b = n // p
    shift = np.kron(np.roll(np.eye(p), 1, axis=0), np.eye(b))
    ops = []
    for w in rng.dirichlet(np.ones(d)):
        blocks = np.zeros((n, n), dtype=complex)
        for k in range(p):
            blocks[k * b : (k + 1) * b, k * b : (k + 1) * b] = haar_unitary(b, rng)
        ops.append(np.sqrt(w) * shift @ blocks)
    return Channel.from_kraus(KrausFamily.from_ops(ops))


def gauge_mixed(ops, u):
    """The Kraus family Σ_j u_kj v_j, k = 1..rows of u: the same channel when
    u has orthonormal columns."""
    return np.tensordot(u, np.asarray(ops), axes=1)


def perturbed(ops, rng=None, rel=1e-15):
    """``ops`` with each entry scaled by 1 + rel·t: t drawn uniform in [−1, 1]
    from ``rng``, or, without one, cos(k) for the entry's row-major index k in
    the whole stack."""
    a = np.asarray(ops, dtype=complex)
    t = np.cos(np.arange(a.size)) if rng is None else rng.uniform(-1.0, 1.0, a.size)
    return a * (1.0 + rel * t).reshape(a.shape)


def simple_spectrum(ch, gap=1e-4):
    """Whether the canonical operators' squared norms, the nonzero eigenvalues of
    the Gram matrix G (the canonical operators are orthogonal), are apart by
    more than ``gap`` times the largest."""
    vals = np.linalg.norm(ch.kraus.ops, axis=(1, 2)) ** 2
    return len(vals) < 2 or np.min(-np.diff(vals)) > gap * vals[0]


# --- planted-margin corpus (ROADMAP item 27) ---------------------------------
#
# Φ_δ = (1 − δ)·id + δ·depolarizing is exactly doubly stochastic for every δ, but
# its margins sit near the default cutoff T: the fixed-point decision at δ = T,
# and the Kraus keep, which drops the n² − 1 Gram eigenvalues δ/n of its family
# while they lie at or below T·n.

# δ/T on a geometric grid from 0.1 to 10³ that never lands on δ = T
PLANTED_RATIOS = tuple(float(r) for r in np.geomspace(0.1, 1e3, 40))


def planted_depolarizing(n, delta):
    """The Kraus family of Φ_δ as written: √(1 − δ)·I and √(δ/n)·E_ij, unit
    defects at rounding."""
    units = np.eye(n * n).reshape(n * n, n, n)  # E_ij at i·n + j
    ops = np.concatenate([[np.sqrt(1.0 - delta) * np.eye(n)], np.sqrt(delta / n) * units])
    return KrausFamily.from_ops(ops)


def planted_keep_band(n, ratio):
    """Whether the Kraus keep drops Φ_δ's n² − 1 depolarizing directions (δ/n at or
    below T·n, n the Gram's top eigenvalue to rounding) while the unit defect they
    leave, δ(1 − 1/n²), exceeds T: where the kept family fails the validity gate."""
    return 1.0 / (1.0 - 1.0 / n**2) < ratio < n**2


def planted_mirror(n=3, eps=2e-9):
    """{I, √ε·E_01}: the mirror of the band.  Its unit defects are ε, above the
    default cutoff, while its Gram eigenvalue ε lies below the keep's T·n, so
    the canonical channel is the identity."""
    e01 = np.zeros((n, n))
    e01[0, 1] = 1.0
    return KrausFamily.from_ops([np.eye(n), np.sqrt(eps) * e01])


def block_sum_channel(a, b):
    """Channel on M_{n+m} with Kraus operators v_k ⊕ w_k, for a and b of equal
    index: doubly stochastic when both are, and never ergodic (each block's
    unit is fixed)."""
    va, vb = a.kraus.ops, b.kraus.ops
    n, size = va.shape[1], va.shape[1] + vb.shape[1]
    ops = np.zeros((len(va), size, size), dtype=complex)
    ops[:, :n, :n] = va
    ops[:, n:, n:] = vb
    return Channel.from_kraus(KrausFamily.from_ops(ops))


def random_ds_matrix(n, rng, k=None):
    """Doubly stochastic matrix as a Dirichlet mixture of random permutations."""
    k = k or n * n
    s = np.zeros((n, n))
    for w in rng.dirichlet(np.ones(k)):
        s[np.arange(n), rng.permutation(n)] += w
    return s


def sinkhorn_ds_matrix(n, rng, rounds=2000):
    """Strictly positive doubly stochastic matrix via Sinkhorn balancing."""
    s = rng.uniform(0.1, 1.0, size=(n, n))
    for _ in range(rounds):
        s /= s.sum(axis=1, keepdims=True)
        s /= s.sum(axis=0, keepdims=True)
        if max(np.max(np.abs(s.sum(axis=1) - 1)), np.max(np.abs(s.sum(axis=0) - 1))) < 1e-14:
            break
    return s


# --- independent oracles ---------------------------------------------------


def super_by_apply(ch):
    """Superoperator rebuilt column by column from the channel's action."""
    n = ch.dim
    cols = []
    for j in range(n):
        for i in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            cols.append(vec(ch.apply(e)))
    return np.column_stack(cols)


def hermitian_basis(n):
    """The orthonormal hermitian basis of M_n: E_jj, then (E_jk + E_kj)/√2,
    then i(E_jk − E_kj)/√2, for j < k in row-major order."""
    units = np.eye(n * n).reshape(n, n, n, n)  # units[j, k] = E_jk
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    return (
        [units[j, j] for j in range(n)]
        + [(units[j, k] + units[k, j]) / np.sqrt(2) for j, k in pairs]
        + [1j * (units[j, k] - units[k, j]) / np.sqrt(2) for j, k in pairs]
    )


def real_form_by_apply(ch):
    """tr(B_a τ(B_b)) over :func:`hermitian_basis`, from the channel's action."""
    basis = hermitian_basis(ch.dim)
    images = [ch.apply(b) for b in basis]
    return np.array([[np.trace(a @ im) for im in images] for a in basis])


def subfamily_size(n, kind):
    """The least j with j² above the rank bound of the kind's test: n² ("CP")
    or 2n² − 1 ("CP_phi"), so that any j operators are dependent."""
    return n + 1 if kind == "CP" else math.isqrt(2 * n * n - 1) + 1


def _gram_rank(vectors, rel=1e-9):
    g = np.array([[np.vdot(a, b) for b in vectors] for a in vectors])
    vals = np.linalg.eigvalsh((g + dagger(g)) / 2)
    top = max(vals[-1], 0.0)
    if top == 0.0:
        return 0
    return int(np.sum(vals > rel * top))


def pair_vectors(family, reversed_too=False):
    """vec(v_i v_j*), or vec(v_i v_j*) ⊕ vec(v_j* v_i), for every pair (i, j)."""
    ops = family.ops
    vecs = []
    for a in ops:
        for b in ops:
            parts = [(a @ dagger(b)).ravel()]
            if reversed_too:
                parts.append((dagger(b) @ a).ravel())
            vecs.append(np.concatenate(parts))
    return vecs


def gram_product_rank(family):
    """Rank of span{v_i v_j*} from the Gram matrix (no SVD of stacked columns)."""
    return _gram_rank(pair_vectors(family))


def gram_stacked_rank(family):
    """Rank of span{v_i v_j* ⊕ v_j* v_i} from the Gram matrix."""
    return _gram_rank(pair_vectors(family, reversed_too=True))


def dilation_rank(rows, rel=1e-9):
    """Number of singular values of ``rows`` above ``rel`` times the largest,
    read off the eigenvalues of the hermitian dilation [[0, R], [R*, 0]].
    A Gram matrix squares the singular values, so it cannot resolve a ratio
    below about 1e-8; this resolves them to machine precision."""
    rows = np.asarray(rows)
    m, k = rows.shape
    dilation = np.zeros((m + k, m + k), dtype=complex)
    dilation[:m, m:] = rows
    dilation[m:, :m] = dagger(rows)
    vals = np.linalg.eigvalsh(dilation)
    return int(np.sum(vals > rel * vals[-1])) if vals[-1] > 0.0 else 0


def null_vector_by_projector(m, rel=1e-9):
    """The column of the null-space projector I − pinv(m)·m, singular values at or
    below ``rel`` times the largest dropped, with the largest diagonal entry (the
    first such), normalized: no basis of the null space enters it."""
    proj = np.eye(m.shape[1]) - np.linalg.pinv(m, rel) @ m
    k = int(np.argmax(np.diag(proj).real))
    return proj[:, k] / np.linalg.norm(proj[:, k])


def pairs_by_loop(a):
    """Nested [re, im] lists of a complex array, one entry at a time."""
    a = np.asarray(a, dtype=complex)
    if a.ndim == 0:
        return [float(a.real), float(a.imag)]
    return [pairs_by_loop(x) for x in a]


def choi_by_columns(ops):
    """Σ_k vec(v_k) vec(v_k)*, one operator at a time, vec stacking columns."""
    n = ops[0].shape[0]
    c = np.zeros((n * n, n * n), dtype=complex)
    for v in ops:
        x = _column_stack(v)
        c += np.outer(x, np.conj(x))
    return c


def check_decomposition(ch, dec, kind):
    """Assert that ``dec`` writes ``ch`` as a convex combination of extremal
    channels of ``kind`` ("CP" or "CP_phi"): positive weights summing to 1,
    Choi reconstruction within 1e-9, unit defects within 1e-8 (unital, and
    trace-preserving for CP_phi), minimal Kraus families (Gram rank of the
    operators), and independent (stacked) products at the library's 1e-9
    singular-value cutoff (dilation rank: kind-CP terms on M_2 come as
    close as 1e-8 to it)."""
    weights = np.array([w for w, _ in dec.terms])
    assert weights.size > 0 and np.all(weights > 0.0)
    assert abs(weights.sum() - 1.0) <= 1e-9
    mixture = sum(w * choi_by_columns(term.kraus.ops) for w, term in dec.terms)
    assert np.linalg.norm(mixture - choi_by_columns(ch.kraus.ops)) <= 1e-9
    for _, term in dec.terms:
        ops = term.kraus.ops
        eye = np.eye(term.dim)
        assert np.max(np.abs(sum(v @ dagger(v) for v in ops) - eye)) <= 1e-8
        if kind == "CP_phi":
            assert np.max(np.abs(sum(dagger(v) @ v for v in ops) - eye)) <= 1e-8
        assert _gram_rank([v.ravel() for v in ops]) == len(ops)
        products = pair_vectors(term.kraus, reversed_too=kind == "CP_phi")
        assert dilation_rank(products) == len(ops) ** 2


# --- per-pair loop oracles for the Kraus-pair kernels ------------------------


def _column_stack(m):
    return np.asarray(m).T.reshape(-1)


def product_columns_by_loop(family):
    """n²×d² matrix filled one pair at a time: column i·d+j is vec(v_i v_j*)."""
    ops = family.ops
    d, n = len(ops), ops[0].shape[0]
    cols = np.empty((n * n, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            cols[:, i * d + j] = _column_stack(ops[i] @ dagger(ops[j]))
    return cols


def stacked_columns_by_loop(family):
    """2n²×d² matrix: column i·d+j is vec(v_i v_j*) over vec(v_j* v_i)."""
    ops = family.ops
    d, n = len(ops), ops[0].shape[0]
    cols = np.empty((2 * n * n, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            cols[: n * n, i * d + j] = _column_stack(ops[i] @ dagger(ops[j]))
            cols[n * n :, i * d + j] = _column_stack(dagger(ops[j]) @ ops[i])
    return cols


def _coordinates_by_loop(family, pair):
    # column c: tr(B_r* X) over the output basis, X = Σ_ij (B_c)_ij pair(v_i, v_j)
    ops = family.ops
    d, n = len(ops), ops[0].shape[0]
    cols = []
    for b in hermitian_basis(d):
        x = np.zeros((n, n), dtype=complex)
        for i in range(d):
            for j in range(d):
                x += b[i, j] * pair(ops[i], ops[j])
        cols.append([np.trace(dagger(c) @ x) for c in hermitian_basis(n)])
    return np.array(cols).T


def product_coordinates_by_loop(family):
    """n²×d² matrix of λ ↦ Σ λ_ij v_i v_j* in hermitian coordinates, one basis
    element and one pair at a time (complex; its imaginary part is rounding)."""
    return _coordinates_by_loop(family, lambda a, b: a @ dagger(b))


def stacked_coordinates_by_loop(family):
    """2n²×d²: the product coordinates over those of λ ↦ Σ λ_ij v_j* v_i."""
    return np.vstack([
        product_coordinates_by_loop(family),
        _coordinates_by_loop(family, lambda a, b: dagger(b) @ a),
    ])


def block_matrix_by_loop(family):
    """nd×nd block matrix whose block (i, j) is v_i v_j*."""
    ops = family.ops
    d, n = len(ops), ops[0].shape[0]
    p = np.empty((n * d, n * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            p[i * n : (i + 1) * n, j * n : (j + 1) * n] = ops[i] @ dagger(ops[j])
    return p


def data_matrix_by_loop(family, rho):
    """d×d matrix with entry (i, j) = tr(ρ v_i v_j*)."""
    ops = family.ops
    d = len(ops)
    return np.array([[np.trace(rho @ ops[i] @ dagger(ops[j])) for j in range(d)] for i in range(d)])


def hermitian_by_slot_fill(x):
    """Σ x_a B_a over :func:`hermitian_basis` by filling the real and imaginary
    slots of a zero d×d matrix, each scaled coordinate written once and negated
    for the imaginary part below the diagonal: ``numerics.hermitian_from_coordinates``
    before it gathered through a plan, kept as an oracle of its bytes."""
    x = np.asarray(x, dtype=float)
    d = math.isqrt(x.size)
    j, k = np.triu_indices(d, 1)
    m, half = d * (d + 1) // 2, np.sqrt(0.5)
    lam = np.zeros((d, d), dtype=complex)
    lam.real[np.arange(d), np.arange(d)] = x[:d]
    lam.real[j, k] = lam.real[k, j] = x[d:m] * half
    lam.imag[j, k] = x[m:] * half
    lam.imag[k, j] = -lam.imag[j, k]
    return lam


def canonical_order_by_full_key(vals, ops):
    """Indices of ``ops`` sorted by one full key per operator: descending
    eigenvalue rounded to 12 places, then the row-major (re, im) entries each
    rounded to 12 places."""

    def key(k):
        entries = tuple((round(z.real, 12), round(z.imag, 12)) for z in ops[k].ravel().tolist())
        return -round(float(vals[k]), 12), entries

    return sorted(range(len(ops)), key=key)


def phase_fixed_by_loop(ops, cutoff=DEFAULT_TOLERANCE.cutoff):
    """Each matrix of a d×n×n stack on its own: times conj(z)/|z| (|z| by hypot), z its
    first entry of modulus above ``cutoff`` in row-major order, or, with no such entry,
    the matrix itself, signed zeros included."""
    out = []
    for op in np.asarray(ops, dtype=complex):
        row = op.reshape(1, -1)
        lead = [k for k, z in enumerate(row[0]) if abs(z) > cutoff]
        if lead:
            z = row[:, lead[0], None]
            row = row * (np.conj(z) / np.hypot(z.real, z.imag))
        out.append(row)
    return np.array(out, dtype=complex).reshape(np.shape(ops))


def canonical_kraus_by_loop(ops, cutoff=DEFAULT_TOLERANCE.cutoff):
    """The canonical Kraus operators of ``Channel.from_kraus`` by its rule, spelled out:
    the eigenpairs of the Gram matrix conj(W)·Wᵀ (W's rows the flattened v_k) whose
    eigenvalue is above cutoff·max(1, max|λ|), picked by a boolean mask; Σ_k u_k v_k for
    each, in one product; each phase-fixed on its own; ordered by the full key of
    :func:`canonical_order_by_full_key`."""
    a = np.asarray(ops, dtype=complex)
    w = a.reshape(len(a), -1)
    vals, vecs = np.linalg.eigh(np.conj(w) @ w.T)
    keep = vals > cutoff * max(1.0, float(np.abs(vals).max()))
    mixed = (vecs[:, keep].T @ w).reshape(-1, *a.shape[1:])[::-1]
    fixed = phase_fixed_by_loop(mixed, cutoff)
    return fixed[canonical_order_by_full_key(vals[keep][::-1], fixed)]


def blocks_by_plain_bfs(m):
    """Connected components of m's exact nonzero pattern, m[i][j] != 0 joining
    i and j either way, by breadth-first search over Python sets: each a sorted
    list, in order of its smallest index."""
    size = len(m)
    neighbours = [set() for _ in range(size)]
    for i in range(size):
        for j in range(size):
            if m[i][j] != 0:
                neighbours[i].add(j)
                neighbours[j].add(i)
    blocks, placed = [], set()
    for start in range(size):
        if start in placed:
            continue
        block, frontier = {start}, {start}
        while frontier:
            frontier = {k for j in frontier for k in neighbours[j]} - block
            block |= frontier
        placed |= block
        blocks.append(sorted(block))
    return blocks


def blocks_by_one_pass_each(m):
    """Connected components of m's exact nonzero pattern by one vectorized
    breadth-first search from each smallest index not yet placed, isolated
    indices included: ``numerics.diagonal_blocks`` before it read the isolated
    indices up front, kept as an oracle of the same arrays in the same order."""
    link = (m != 0) | (m.T != 0)
    blocks, rest = [], np.arange(len(m))
    while rest.size:
        seen = link[rest[0]]
        seen[rest[0]] = True  # a view: link's diagonal, which joins nothing
        size, grown = 0, np.count_nonzero(seen)
        while size < grown < rest.size:
            seen = link[seen].any(axis=0)
            size, grown = grown, np.count_nonzero(seen)
        inside = seen[rest]
        blocks.append(rest[inside])
        rest = rest[~inside]
    return blocks


def fixed_dim_by_rank(ch, tol=DEFAULT_TOLERANCE):
    """n² − rank(T − I), T from :func:`super_by_apply`, singular values cut at
    tol times the largest (floored at 1): the rule ``classify`` applied to the
    real form R, unitarily similar to T, before it read the spectrum."""
    s = np.linalg.svd(super_by_apply(ch) - np.eye(ch.dim**2), compute_uv=False)
    return len(s) - int(np.count_nonzero(s > tol.cutoff * max(1.0, s[0])))


def matched_distance(a, b):
    """Largest distance over a greedy matching of the multisets a and b: each
    entry of a, in order, takes the nearest entry of b not yet taken."""
    a, b = list(np.ravel(a)), list(np.ravel(b))
    assert len(a) == len(b)
    worst = 0.0
    for z in a:
        k = int(np.argmin(np.abs(np.array(b) - z)))
        worst = max(worst, abs(b.pop(k) - z))
    return worst


def _augment_by_plain_bfs(support, row, match_row, match_col) -> bool:
    # breadth-first from the free ``row``, columns in increasing order: deterministic
    parent = {}
    queue = [row]
    for r in queue:
        for c in support[r]:
            if c not in parent:
                parent[c] = r
                if match_col[c] < 0:
                    while c >= 0:
                        r = parent[c]
                        match_col[c] = r
                        c, match_row[r] = match_row[r], c
                    return True
                queue.append(match_col[c])
    return False


def birkhoff_by_plain_bfs(s, tol=DEFAULT_TOLERANCE):
    """The greedy Birkhoff decomposition on a numpy residual: each round sums the
    whole residual, re-matches every unmatched row by plain breadth-first search
    and subtracts the weight through fancy indexing."""
    resid = _checked(s, tol).copy()
    n = resid.shape[0]
    clamp = _CLAMP_FACTOR * n
    resid[resid < clamp] = 0.0

    rows = np.arange(n)
    support = [np.flatnonzero(row).tolist() for row in resid]
    match_row = [-1] * n
    match_col = [-1] * n
    terms = []
    while float(resid.sum()) > n * _MASS_FLOOR:
        for r in range(n):
            if match_row[r] < 0 and not _augment_by_plain_bfs(support, r, match_row, match_col):
                raise ValueError(
                    f"the residual's support has no perfect matching, with mass {resid.sum():.3e}"
                    f" left: the input is doubly stochastic only to within the tolerance {tol.cutoff}"
                )
        cols = np.array(match_row)
        weight = float(resid[rows, cols].min())
        resid[rows, cols] -= weight
        terms.append((weight, tuple(match_row)))
        for r in (resid[rows, cols] < clamp).nonzero()[0].tolist():
            c = match_row[r]
            resid[r, c] = 0.0
            support[r].remove(c)
            match_row[r] = match_col[c] = -1
    return PermutationDecomposition(terms=tuple(terms), n=n)


def permutation_mixture_by_loop(dec):
    """Σ w_k P_{π_k} added term by term, in term order."""
    out = np.zeros((dec.n, dec.n))
    for w, perm in dec.terms:
        out[np.arange(dec.n), list(perm)] += w
    return out


# --- JSON payloads -----------------------------------------------------------

# leaves whose text the stdlib encoder fixes: signed zero, the smallest
# subnormal, the largest finite float, and integers past every machine width
_FLOAT_EDGES = (-0.0, 0.0, 5e-324, 1e308, -1e308, 0.1, 1e16, 1e-7)
_INT_EDGES = (0, -1, 2**53 + 1, 2**64 + 1, -(2**70))
_OTHER_LEAVES = (None, True, False, "\u00e9\u2211 \"q\"\\\n", "")
_INT64_EDGES = (0, -1, 2**53 + 1, -(2**63), 2**63 - 1)


def _json_leaf(rng, kind):
    if kind == "float":
        if rng.random() < 0.3:
            return _FLOAT_EDGES[rng.integers(len(_FLOAT_EDGES))]
        return float(rng.normal() * 10.0 ** rng.integers(-300, 300))
    if kind == "int":
        if rng.random() < 0.3:
            return _INT_EDGES[rng.integers(len(_INT_EDGES))]
        return int(rng.integers(-1000, 1000))
    if kind == "float64":
        return np.float64(_json_leaf(rng, "float"))
    return _OTHER_LEAVES[rng.integers(len(_OTHER_LEAVES))]


def _json_array(rng, shape, leaf):
    if not shape:
        return leaf()
    return [_json_array(rng, shape[1:], leaf) for _ in range(shape[0])]


def _ndarray(rng, shape, dtype):
    # a numpy array of edge and random values: float64 and int64 ones render from
    # their own shape, bool and float32 ones through tolist
    size = math.prod(shape)
    if dtype == "int64":
        leaves = [_INT64_EDGES[rng.integers(5)] if rng.random() < 0.3 else int(rng.integers(-1000, 1000))
                  for _ in range(size)]
    elif dtype == "float64":
        leaves = [_json_leaf(rng, "float") for _ in range(size)]
    else:
        leaves = rng.normal(size=size) > 0 if dtype == "bool" else rng.normal(size=size)
    return np.array(leaves, dtype=dtype).reshape(shape)


def random_json_payload(rng, depth=3):
    """A random JSON value built the way the CLI's payloads are: rectangular
    float and int arrays, as numpy arrays (the shape of ``pairs_array`` output)
    or nested lists (permutations), inside dicts and lists, at every indent
    depth up to ``depth``, beside ragged, empty and mixed lists, bool, None,
    string and numpy float leaves, bool and float32 arrays, and dict keys
    whose text needs escaping."""
    roll = rng.integers(7 if depth > 0 else 2)
    if roll == 0:
        return _json_leaf(rng, ("float", "int", "float64", "other")[rng.integers(4)])
    if roll == 1:  # rectangular, one leaf kind; a zero extent makes it empty
        shape = tuple(rng.integers(0 if rng.random() < 0.1 else 1, 4, size=rng.integers(1, 4)))
        if rng.random() < 0.5:  # a numpy array, of 0 to 3 axes
            dtype = ("float64", "int64", "bool", "float32")[rng.integers(4)]
            return _ndarray(rng, shape[rng.integers(2) :], dtype)
        kind = ("float", "int", "float64", "other")[rng.integers(4)]
        return _json_array(rng, shape, lambda: _json_leaf(rng, kind))
    if roll == 2:  # ragged: equal depth, unequal lengths
        rows = [rng.integers(1, 4) for _ in range(rng.integers(2, 4))]
        rows[0] += 1
        return [[_json_leaf(rng, "float") for _ in range(r)] for r in rows]
    if roll == 3:  # mixed leaf kinds, or a list beside a leaf
        kinds = ("float", "int", "other")
        mixed = [_json_leaf(rng, kinds[i % 3]) for i in range(rng.integers(2, 5))]
        return mixed if rng.random() < 0.5 else [mixed[:1], mixed[-1]]
    if roll == 4:
        return {}
    if roll == 5:  # keys with a quote, %-format directives and non-ASCII text
        keys = ("weight", "lambda", "\u00e9", "a b", "", 'a"b', "%", "%s")
        return {k: random_json_payload(rng, depth - 1) for k in keys[: rng.integers(1, len(keys) + 1)]}
    return [random_json_payload(rng, depth - 1) for _ in range(rng.integers(0, 4))]


def _paths(o, keep, path=()):
    # the paths of the nodes of o for which keep holds, depth first, in key order
    found = [path] if keep(o) else []
    if isinstance(o, dict):
        items = o.items()
    elif isinstance(o, list):
        items = enumerate(o)
    else:
        return found
    return found + [p for k, v in items for p in _paths(v, keep, path + (k,))]


def _at(o, path):
    for key in path:
        o = o[key]
    return o


def _replaced(payload, path, value):
    # a copy of payload with the node at path replaced by value
    if not path:
        return value
    out = copy.deepcopy(payload)
    _at(out, path[:-1])[path[-1]] = value
    return out


def plant(payload, value, rng):
    """A copy of ``payload`` with one float leaf, or one entry of a nonempty
    numpy float array, drawn at random, replaced by ``value``; None when the
    payload holds neither."""
    paths = _paths(payload, lambda o: isinstance(o, float) or _float_ndarray(o) and o.size > 0)
    if not paths:
        return None
    path = paths[rng.integers(len(paths))]
    if _float_ndarray(node := _at(payload, path)):
        node = node.copy()
        node.flat[rng.integers(node.size)] = value
        value = node
    return _replaced(payload, path, value)


def _float_ndarray(o) -> bool:
    return type(o) is np.ndarray and o.dtype.kind == "f"
