import json

import numpy as np
import pytest

from qbirkhoff import (
    birkhoff_decompose,
    classify,
    embed_classical,
    is_doubly_stochastic,
)
from qbirkhoff.birkhoff import (
    _CLAMP_FACTOR,
    _MASS_FLOOR,
    decomposition_to_dicts,
    ds_matrix_from_dict,
    ds_matrix_to_dict,
    loads_ds_matrix,
)
from qbirkhoff.numerics import Tolerance, max_abs

import helpers


def test_is_doubly_stochastic():
    assert is_doubly_stochastic(np.eye(3))
    assert is_doubly_stochastic(np.full((3, 3), 1 / 3))
    assert not is_doubly_stochastic(np.array([[0.5, 0.5], [0.1, 0.9]]))
    assert not is_doubly_stochastic(np.array([[1.5, -0.5], [-0.5, 1.5]]))


def test_an_empty_matrix_is_not_doubly_stochastic():
    assert is_doubly_stochastic(np.zeros((0, 0))) is False
    for call in (birkhoff_decompose, embed_classical, ds_matrix_to_dict):
        with pytest.raises(ValueError, match="not doubly stochastic"):
            call(np.zeros((0, 0)))


@pytest.mark.filterwarnings("error")
def test_a_complex_matrix_is_refused_without_a_warning():
    # P + 0.5j·I has real part P, doubly stochastic; a cast to float would drop the
    # imaginary part with a ComplexWarning (an error here) and accept it
    p = np.eye(3)[[1, 2, 0]]
    bad = p + 0.5j * np.eye(3)
    assert is_doubly_stochastic(bad) is False
    for call in (birkhoff_decompose, embed_classical, ds_matrix_to_dict):
        with pytest.raises(ValueError, match="nonzero imaginary part"):
            call(bad)
    # a complex array whose imaginary part is zero is the real matrix
    assert is_doubly_stochastic(p + 0j)
    assert birkhoff_decompose(p + 0j).terms == birkhoff_decompose(p).terms


def test_decompose_small_frozen():
    s = np.array(
        [
            [0.5, 0.5, 0.0],
            [0.25, 0.25, 0.5],
            [0.25, 0.25, 0.5],
        ]
    )
    dec = birkhoff_decompose(s)
    assert max_abs(dec.mixture() - s) < 1e-12
    assert abs(dec.total_weight() - 1.0) < 1e-12
    assert len(dec.terms) <= 3 * 3 - 2 * 3 + 2
    for w, perm in dec.terms:
        assert w > 0
        assert sorted(perm) == [0, 1, 2]
    # deterministic: same input, same terms
    again = birkhoff_decompose(s)
    assert again.terms == dec.terms


def test_decompose_permutation_is_single_term():
    p = np.eye(4)[[2, 0, 3, 1]]
    dec = birkhoff_decompose(p)
    assert len(dec.terms) == 1
    w, perm = dec.terms[0]
    assert abs(w - 1.0) < 1e-12
    assert list(perm) == [2, 0, 3, 1]


def test_decompose_random_mixtures(rng):
    for _ in range(40):
        n = int(rng.integers(3, 9))
        s = helpers.random_ds_matrix(n, rng)
        dec = birkhoff_decompose(s)
        assert max_abs(dec.mixture() - s) < 1e-9
        assert len(dec.terms) <= n * n - 2 * n + 2
        assert abs(dec.total_weight() - 1.0) < 1e-12


def test_decompose_sinkhorn_matrices(rng):
    for n in (3, 5, 8):
        s = helpers.sinkhorn_ds_matrix(n, rng)
        dec = birkhoff_decompose(s)
        assert max_abs(dec.mixture() - s) < 1e-9
        assert len(dec.terms) <= n * n - 2 * n + 2


@pytest.mark.parametrize("n", [20, 30, 40])
@pytest.mark.parametrize("kind", ["sinkhorn", "permutations"])
def test_decompose_at_benchmark_sizes(kind, n, rng):
    if kind == "sinkhorn":
        s = helpers.sinkhorn_ds_matrix(n, rng)
    else:
        s = helpers.random_ds_matrix(n, rng, k=n)
    dec = birkhoff_decompose(s)
    assert len(dec.terms) <= (n - 1) ** 2 + 1
    mix = dec.mixture()
    assert np.array_equal(mix, helpers.permutation_mixture_by_loop(dec))
    assert max_abs(mix - s) <= 1e-9
    for w, perm in dec.terms:
        assert w > 0
        assert sorted(perm) == list(range(n))
    assert birkhoff_decompose(s).terms == dec.terms


def assert_same_as_plain_bfs(s):
    """The reference's terms, tuple-equal with bitwise-equal weights, or its
    exact ``ValueError`` message; returns the one or the other."""
    try:
        want = helpers.birkhoff_by_plain_bfs(s).terms
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            birkhoff_decompose(s)
        assert str(got.value) == str(exc)
        return str(exc)
    got = birkhoff_decompose(s).terms
    assert got == want
    assert [(type(w), w.hex()) for w, _ in got] == [(type(w), w.hex()) for w, _ in want]
    return got


@pytest.mark.parametrize("n", [2, 3, 5, 8, 20, 25, 30, 60])
def test_decompose_matches_plain_bfs(n):
    gen = np.random.default_rng(7400 + n)
    assert len(assert_same_as_plain_bfs(helpers.sinkhorn_ds_matrix(n, gen))) == (n - 1) ** 2 + 1
    for k in (1, 3, n, 2 * n):
        assert_same_as_plain_bfs(helpers.random_ds_matrix(n, gen, k=k))


def test_decompose_sparse_mixtures_clamp_round_off():
    # sums of few permutations leave round-off on matched entries; clamped,
    # it never becomes a term of its own
    gen = np.random.default_rng(7300)
    for _ in range(300):
        n = int(gen.integers(3, 9))
        s = helpers.random_ds_matrix(n, gen, k=int(gen.integers(1, 2 * n)))
        dec = birkhoff_decompose(s)
        assert min(w for w, _ in dec.terms) >= 64 * n * np.finfo(float).eps
        assert max_abs(dec.mixture() - s) < 1e-9
        assert_same_as_plain_bfs(s)


def test_decompose_long_augmenting_paths():
    # a depth-first matching follows a path through every row of this cycle,
    # deeper than Python's recursion limit
    n = 1200
    s = 0.5 * np.eye(n) + 0.5 * np.roll(np.eye(n), 1, axis=1)
    dec = birkhoff_decompose(s)
    assert len(dec.terms) == 2
    assert max_abs(dec.mixture() - s) < 1e-12
    assert_same_as_plain_bfs(s)


def test_decompose_without_perfect_matching():
    # accepted as doubly stochastic within the tolerance 1e-9, but once the
    # identity is peeled the stray entry cannot be matched
    s = np.eye(3)
    s[0, 1] = 1e-10
    assert is_doubly_stochastic(s)
    with pytest.raises(ValueError, match="no perfect matching, with mass 1.000e-10 left"):
        birkhoff_decompose(s)


# stray entries on np.eye(3), which n·_MASS_FLOOR = 3e-13 weighs once the identity is peeled
@pytest.mark.parametrize(
    "strays, outcome",
    [
        ({(0, 1): 1.4e-13, (1, 2): 1.5e-13}, 1),  # 2.9e-13 left: stop
        ({(0, 1): 1e-13, (1, 2): 1e-13, (2, 0): 1e-13}, 1),  # 3e-13 left, summed to the floor
        ({(0, 1): 1e-13, (1, 2): 1e-13, (2, 0): 1.1e-13}, 2),  # 3.1e-13 on a 3-cycle: one more term
        ({(0, 1): 1e-13, (0, 2): 1e-13, (1, 2): 1.1e-13}, "mass 3.100e-13 left"),  # no matching
    ],
)
def test_decompose_at_the_stopping_boundary(strays, outcome):
    s = np.eye(3)
    for (r, c), x in strays.items():
        s[r, c] = x
    assert is_doubly_stochastic(s)
    assert len(strays) * _CLAMP_FACTOR < _MASS_FLOOR  # too few entries to outweigh the floor
    got = assert_same_as_plain_bfs(s)
    if isinstance(outcome, int):
        assert len(got) == outcome
    else:
        assert outcome in got


def test_decompose_without_perfect_matching_past_the_count():
    # nine stray entries, enough to outweigh the floor by count alone, and
    # row 3 has none once the identity is peeled
    s = np.eye(4)
    s[:3] += 1e-10 * (1.0 - np.eye(4)[:3])
    assert is_doubly_stochastic(s)
    assert 9 * _CLAMP_FACTOR > _MASS_FLOOR
    assert "no perfect matching, with mass 9.000e-10 left" in assert_same_as_plain_bfs(s)


def test_decompose_without_perfect_matching_counts_held_rows():
    # row 2 stays matched through two rounds that take 1 off its entry, so the
    # reported mass holds that entry's current 1e-10, not the value it was matched at
    s = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    s[2, 2] += 1e-10
    s[0, 2] = 1e-10
    assert is_doubly_stochastic(s)
    assert "no perfect matching, with mass 2.000e-10 left" in assert_same_as_plain_bfs(s)


def test_decompose_rejects_non_ds():
    with pytest.raises(ValueError):
        birkhoff_decompose(np.array([[0.9, 0.0], [0.0, 0.9]]))


def test_embed_classical_cycle():
    s = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    ch = embed_classical(s)
    assert ch.kraus.validate() == (True, True)
    assert ch.kraus.index == 3  # one Kraus term per nonzero entry
    cl = classify(ch)
    assert cl.ergodic and cl.period == 3


def test_embed_classical_acts_on_diagonals(rng):
    n = 4
    s = helpers.random_ds_matrix(n, rng)
    ch = embed_classical(s)
    assert ch.kraus.index == int(np.sum(s > 1e-9))
    p = rng.dirichlet(np.ones(n))
    out = ch.apply(np.diag(p).astype(complex))
    assert max_abs(out - np.diag(s @ p)) < 1e-9
    # off-diagonal inputs are annihilated
    x = np.zeros((n, n), dtype=complex)
    x[0, 1] = 1.0
    assert max_abs(ch.apply(x)) < 1e-9


def test_serialization_roundtrip(rng):
    s = helpers.random_ds_matrix(3, rng)
    doc = ds_matrix_to_dict(s)
    back = ds_matrix_from_dict(doc)
    assert max_abs(back - s) < 1e-15
    # a raw matrix is validated at the caller's tolerance: rows off by 1e-7 pass at 1e-6
    off = s + np.diag([1e-7, 0.0, 0.0])
    with pytest.raises(ValueError, match="not doubly stochastic"):
        ds_matrix_to_dict(off)
    assert ds_matrix_to_dict(off, Tolerance(1e-6))["rows"] == off.tolist()
    with pytest.raises(ValueError):
        loads_ds_matrix(json.dumps(doc).replace(json.dumps(doc["rows"][0][0]), "NaN", 1))
    dec = birkhoff_decompose(s)
    dicts = decomposition_to_dicts(dec)
    assert all(set(d) == {"weight", "permutation"} for d in dicts)
    assert abs(sum(d["weight"] for d in dicts) - 1.0) < 1e-12


def test_matrix_file_roundtrip(rng, tmp_path):
    s = helpers.random_ds_matrix(4, rng)
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(ds_matrix_to_dict(s)), encoding="utf-8")
    assert np.array_equal(loads_ds_matrix(path.read_text(encoding="utf-8")), s)
