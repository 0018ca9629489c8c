import dataclasses

import numpy as np
import pytest

from qbirkhoff.channels import KrausFamily, kraus_from_choi
from qbirkhoff.numerics import (
    DEFAULT_TOLERANCE,
    NotCompletelyPositive,
    Tolerance,
    block_views,
    dagger,
    diagonal_blocks,
    frobenius_norm,
    hermitian_eig,
    hermitize,
    is_psd,
    max_abs,
    numerical_rank,
    operator_norm,
    phase_fixed,
    psd_factor,
    rank_cutoff,
    unvec,
    vec,
)
from qbirkhoff.spectral import _eigenspace

import helpers
from helpers import partial_trace


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_tolerance_fields_validated():
    for bad in (0.0, -1e-9, 1.0, 1.5):
        with pytest.raises(ValueError):
            Tolerance(bad)
    assert Tolerance().cutoff == 1e-9
    assert DEFAULT_TOLERANCE == Tolerance()


def test_one_tolerance_value_moves_every_cutoff():
    assert [f.name for f in dataclasses.fields(Tolerance)] == ["cutoff"]
    tol = Tolerance(1e-6)
    c = rank_cutoff([1.0], tol)
    assert c == 1e-6
    # the PSD allowance and the rank drop are the same scaled cutoff
    vals, _ = psd_factor(np.diag([1.0, 0.5 * c, -0.99 * c]), tol)
    assert vals.tolist() == [1.0]
    with pytest.raises(NotCompletelyPositive):
        psd_factor(np.diag([1.0, -1.01 * c]), tol)
    assert is_psd(np.diag([1.0, -0.99 * c]), tol) and not is_psd(np.diag([1.0, -0.99 * c]))
    assert numerical_rank(np.diag([1.0, 0.5 * c]), tol) == 1
    assert numerical_rank(np.diag([1.0, 0.5 * c])) == 2
    # equality: the hermiticity check of an eigensolve, and the unit flags
    skew = np.array([[1.0, 0.5 * c], [0.0, 1.0]])
    hermitian_eig(skew, tol)
    with pytest.raises(ValueError, match="not hermitian"):
        hermitian_eig(skew)
    fam = KrausFamily.from_ops([(1.0 + 0.25 * c) * np.eye(2)])
    assert fam.validate(tol) == (True, True)
    assert fam.validate() == (False, False)


def test_derived_cutoffs_keep_their_values_at_the_default():
    # stdout at the default tolerance depends on these bytes, so they are compared
    # with ==; structural is 10·(10·c), since 100·1e-9 is 1.0000000000000001e-07
    tol = Tolerance()
    assert (tol.residual, tol.band, tol.structural, tol.boundary, tol.cutoff) == (1e-8, 1e-8, 1e-7, 1e-10, 1e-9)
    # each moves with the cutoff, and the band stays above 2·cutoff, the largest
    # distance to 1 of an eigenvalue counted as fixed
    for c in (1e-12, 1e-6, 1e-3):
        tol = Tolerance(c)
        assert tol.residual == 10 * c and tol.structural == 10 * (10 * c) and tol.boundary == c / 10
        assert tol.band > 2 * c


def test_vec_is_column_stacking(rng):
    m = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(vec(m), np.array([1, 3, 2, 4], dtype=complex))
    assert np.array_equal(unvec(vec(m), 2), m)
    # stacks vectorize matrix by matrix on the last two axes
    for shape in ((4, 3, 3), (2, 2, 3, 3)):
        stack = random_complex(rng, shape)
        flat = vec(stack)
        assert flat.shape == (*shape[:-2], 9)
        for idx in np.ndindex(*shape[:-2]):
            assert np.array_equal(flat[idx], vec(stack[idx]))
        assert np.array_equal(unvec(flat), stack)


def test_vec_kron_identity(rng):
    # vec(a x b) = (b^T ⊗ a) vec(x)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        a, x, b = (random_complex(rng, (n, n)) for _ in range(3))
        lhs = vec(a @ x @ b)
        rhs = np.kron(b.T, a) @ vec(x)
        assert max_abs(lhs - rhs) < 1e-10 * max(1.0, max_abs(rhs))


def test_hermitian_eig_reconstructs(rng):
    for _ in range(20):
        n = int(rng.integers(2, 8))
        m = random_complex(rng, (n, n))
        m = m + dagger(m)
        vals, vecs = hermitian_eig(m)
        assert np.all(np.diff(vals) <= 1e-12)  # descending
        rebuilt = (vecs * vals) @ dagger(vecs)
        assert frobenius_norm(rebuilt - m) < 1e-10 * max(1.0, frobenius_norm(m))


def test_numerical_rank_unitary_invariant(rng):
    for _ in range(10):
        n = int(rng.integers(3, 7))
        r = int(rng.integers(1, n))
        m = random_complex(rng, (n, r)) @ random_complex(rng, (r, n))
        u = helpers.haar_unitary(n, rng)
        w = helpers.haar_unitary(n, rng)
        assert numerical_rank(m) == r
        assert numerical_rank(u @ m @ w) == r


def test_rank_cutoff_floors_at_one():
    rel = DEFAULT_TOLERANCE.cutoff
    assert rank_cutoff(np.array([1e-3, 1e-12])) == rel
    assert rank_cutoff(np.array([0.0])) == rel
    assert rank_cutoff(np.array([-5.0, 2.0])) == 5.0 * rel
    # below 1 the cutoff does not shrink with the matrix: a tiny one has rank 0
    assert numerical_rank(1e-10 * np.eye(3)) == 0
    assert numerical_rank(np.zeros((2, 3))) == 0


def test_diagonal_blocks_match_a_plain_search():
    rng = np.random.default_rng(2101)
    for _ in range(80):
        size = int(rng.integers(1, 30))
        density = rng.choice([0.0, 0.02, 0.05, 0.1, 0.3, 1.0])
        m = rng.normal(size=(size, size)) * (rng.random((size, size)) < density)
        if rng.random() < 0.5:
            m = m * 1j  # the pattern, not the values, decides
        blocks = diagonal_blocks(m)
        assert [b.tolist() for b in blocks] == helpers.blocks_by_plain_bfs(m.tolist())


def test_diagonal_blocks_read_isolated_indices_up_front():
    # seeded sparse patterns, many indices isolated (a diagonal entry joins nothing): the same
    # index arrays, in the same order, as one breadth-first search from every index
    rng = np.random.default_rng(2601)
    for _ in range(120):
        size = int(rng.integers(1, 40))
        m = rng.normal(size=(size, size)) * (rng.random((size, size)) < rng.choice([0.0, 0.01, 0.03, 0.08]))
        m[np.diag_indices(size)] = rng.choice([0.0, 1.0], size=size)
        blocks, oracle = diagonal_blocks(m), helpers.blocks_by_one_pass_each(m)
        assert len(blocks) == len(oracle)
        assert all(b.dtype == o.dtype and np.array_equal(b, o) for b, o in zip(blocks, oracle))
    assert [b.tolist() for b in diagonal_blocks(np.eye(4))] == [[0], [1], [2], [3]]
    assert diagonal_blocks(np.zeros((0, 0))) == []


def test_diagonal_blocks_join_one_sided_links_only():
    m = np.zeros((6, 6))
    m[3, 0] = 1.0  # one-sided: joins 0 and 3
    m[2, 2] = 4.0  # a diagonal entry joins nothing
    m[1, 4] = -0.0  # an exact zero, of either sign, joins nothing
    m[5, 1] = 1e-300  # any nonzero joins
    assert [b.tolist() for b in diagonal_blocks(m)] == [[0, 3], [1, 5], [2], [4]]
    # a one-sided path visited out of order is one block, found in several steps
    order = np.random.default_rng(7).permutation(20)
    path = np.zeros((20, 20))
    path[order[1:], order[:-1]] = 1.0
    assert [b.tolist() for b in diagonal_blocks(path)] == [list(range(20))]


def test_block_views_and_rank_cut_over_the_union():
    dense = np.ones((3, 3))
    (whole,) = block_views(dense, diagonal_blocks(dense))
    assert whole is dense  # a spanning block is not copied
    m = np.zeros((3, 3))
    m[0, 0] = 10.0
    m[1:, 1:] = 4e-9  # singular value 8e-9: below the cutoff 1e-8 that 10 sets
    blocks = diagonal_blocks(m)
    assert [b.tolist() for b in blocks] == [[0], [1, 2]]
    assert [v.tolist() for v in block_views(m, blocks)] == [[[10.0]], [[4e-9, 4e-9], [4e-9, 4e-9]]]
    assert numerical_rank(m) == 1
    assert numerical_rank(m[1:, 1:]) == 1  # cut on its own, the small block counts
    # the kernel of T − μI is cut once over all blocks: at μ = 0 on
    # [[10]] ⊕ 4e-9·ones(2, 2) ⊕ [[1]], 8e-9 and 0 lie below the cutoff 1e-8 that
    # 10 sets, where a cut per block would keep 8e-9 (above its own 1e-9)
    t = np.zeros((4, 4))
    t[:3, :3] = m
    t[3, 3] = 1.0
    assert [b.tolist() for b in diagonal_blocks(t)] == [[0], [1, 2], [3]]
    assert len(_eigenspace(t, 0.0, DEFAULT_TOLERANCE)) == 2


def test_psd_factor_rebuilds_psd_input(rng):
    for _ in range(20):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, n + 1))
        g = random_complex(rng, (n, r)) / np.sqrt(n)
        m = g @ dagger(g)
        vals, cols = psd_factor(m)
        assert len(vals) == r and cols.shape == (n, r)
        assert np.all(np.diff(vals) <= 0.0)
        assert max_abs(cols @ dagger(cols) - m) < 1e-12


def test_psd_factor_drops_the_gap_and_rejects_non_psd():
    rel = DEFAULT_TOLERANCE.cutoff
    # 0.8·cutoff lies above cutoff·largest (largest 0.5) but not above cutoff
    vals, cols = psd_factor(np.diag([0.5, 0.8 * rel, 0.0]))
    assert vals.tolist() == [0.5] and cols.shape == (3, 1)
    edge = rank_cutoff(np.array([1.0]))
    psd_factor(np.diag([1.0, -0.99 * edge]))
    with pytest.raises(NotCompletelyPositive):
        psd_factor(np.diag([1.0, -1.01 * edge]))
    with pytest.raises(NotCompletelyPositive):
        psd_factor(np.zeros((3, 3)))


def test_kraus_from_choi_drops_an_operator_in_the_gap(rng):
    # Choi matrix with top eigenvalue 0.5 < 1 and a second one at 0.8·cutoff:
    # the floored cutoff counts the second as zero, so one operator is left
    q = np.linalg.qr(random_complex(rng, (4, 2)))[0]
    choi = 0.5 * np.outer(q[:, 0], np.conj(q[:, 0]))
    choi += 0.8 * DEFAULT_TOLERANCE.cutoff * np.outer(q[:, 1], np.conj(q[:, 1]))
    fam = kraus_from_choi(choi)
    assert fam.index == 1
    kept = np.outer(vec(fam.ops[0]), np.conj(vec(fam.ops[0])))
    assert max_abs(kept - 0.5 * np.outer(q[:, 0], np.conj(q[:, 0]))) < 1e-12


def test_partial_trace_of_kron_factors(rng):
    a = random_complex(rng, (2, 2))
    b = random_complex(rng, (3, 3))
    m = np.kron(a, b)
    assert max_abs(partial_trace(m, (2, 3), "first") - np.trace(a) * b) < 1e-12
    assert max_abs(partial_trace(m, (2, 3), "second") - np.trace(b) * a) < 1e-12


def test_partial_trace_preserves_psd(rng):
    for _ in range(10):
        m = random_complex(rng, (6, 6))
        p = m @ dagger(m)
        for side in ("first", "second"):
            red = partial_trace(p, (2, 3), side)
            assert is_psd(red)
            assert abs(np.trace(red) - np.trace(p)) < 1e-9 * max(1.0, abs(np.trace(p)))


def test_is_psd_boundary():
    assert is_psd(np.zeros((2, 2)))
    assert is_psd(np.diag([1.0, 0.0]))
    assert not is_psd(np.diag([1.0, -1e-6]))
    # tiny negative within allowance
    assert is_psd(np.diag([1.0, -1e-12]))


def test_hermitize_rejects_large_skew():
    m = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError):
        hermitize(m, cutoff=1e-9)
    soft = np.eye(2) + 1e-12 * np.array([[0, 1], [0, 0]])
    out = hermitize(soft, cutoff=1e-9)
    assert max_abs(out - dagger(out)) <= 1e-9


def test_operator_norm_matches_gram_eigenvalue(rng):
    m = random_complex(rng, (4, 4))
    top = np.sqrt(np.linalg.eigvalsh(dagger(m) @ m)[-1])
    assert abs(operator_norm(m) - top) < 1e-10 * top


def test_phase_fixed_leading_entry_real_positive(rng):
    for _ in range(10):
        m = random_complex(rng, (3, 3))
        out = phase_fixed(m, 1e-9)
        flat = out.ravel()
        lead = flat[np.abs(flat) > 1e-9][0]
        assert abs(lead.imag) < 1e-12 and lead.real > 0
        # same matrix up to a global phase
        assert abs(max_abs(out) - max_abs(m)) < 1e-12
    # a stack turns each matrix on its own, bit for bit; one with no entry
    # above the cutoff stays as it is
    stack = random_complex(rng, (4, 3, 3))
    stack[1, 0, :2] = 0.0
    stack[2] = 1e-12 * stack[2]
    out = phase_fixed(stack, 1e-9)
    for k in range(4):
        assert np.array_equal(out[k], phase_fixed(stack[k], 1e-9))
    assert np.array_equal(out[2], stack[2])
    empty = np.zeros((0, 3, 3), dtype=complex)
    assert phase_fixed(empty, 1e-9).shape == (0, 3, 3)


def test_non_finite_rejected():
    from qbirkhoff.numerics import as_matrix

    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf, 0], [0, 1]]))
    with pytest.raises(ValueError):
        as_matrix(np.array([1.0, 2.0]))
