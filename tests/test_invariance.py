"""What the theory fixes must survive the transforms that keep it fixed.

A Kraus gauge mix Σ_j u_kj v_j (u unitary) is the same channel, so the index,
both extremality verdicts and the whole classification hold.  U∘Φ∘V, with U and
V unitary, has products U(v_i v_j*)U* and reversed products V*(v_j* v_i)V:
invertible linear images, so the index and both verdicts hold (the criteria of
Choi and Landau–Streater).  Conjugation, V = U*, is a similarity of the
superoperator, so the spectrum, fixed_dim and period hold too.

The corpus is the builtins, seeded unitary mixtures, a seeded doubly stochastic
channel on M_3 and the heaviest term of each kind of its decomposition (an
extremal term of index above 1), every term of a seeded doubly stochastic
channel's CP_phi and CP decompositions on M_4 and one CP_phi term on M_5, each
checked first to have every decision far from the default cutoff: a decision
near it may flip under rounding, and such channels stay out of these strict
checks.
The decomposed terms guard the rank tests that the decomposition's walk ends
on, whose full column rank the singular values alone decide.
"""

import functools

import numpy as np
import pytest

from qbirkhoff import (
    CP,
    CP_PHI,
    Channel,
    adjoint_channel,
    choi_extremal_test,
    classify,
    decompose_extremal,
    landau_streater_test,
)
from qbirkhoff.catalog import BUILTINS, build_example
from qbirkhoff.extremality import product_matrix, stacked_matrix

import helpers

SEEDS = (2111, 2112, 2113)
MIXTURES = {f"mixture n={n} k={k}": (n, k) for n, k in ((3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (4, 5))}
TERMS = {"CP_phi term": CP_PHI, "CP term": CP}
# (n, kind, position) of a decomposition's term: every CP_phi and CP term on M_4 (12 and 13),
# the heaviest CP_phi term on M_5
DECOMPOSED = {
    **{f"n=4 CP_phi term {k}": (4, CP_PHI, k) for k in range(12)},
    **{f"n=4 CP term {k}": (4, CP, k) for k in range(13)},
    "n=5 CP_phi term": (5, CP_PHI, 0),
}
NAMES = [*BUILTINS, *MIXTURES, "doubly stochastic", *TERMS, *DECOMPOSED]


@functools.cache
def _decomposition(n, kind):
    return decompose_extremal(helpers.random_ds_channel(n, np.random.default_rng(2120 + n)), kind=kind)


@functools.cache
def _channel(name):
    if name in DECOMPOSED:
        n, kind, k = DECOMPOSED[name]
        return _decomposition(n, kind).terms[k][1]
    if name in BUILTINS:
        return build_example(name)
    if name in MIXTURES:
        n, k = MIXTURES[name]
        return helpers.random_unitary_mixture(n, k, np.random.default_rng([2110, n, k]))
    ch = helpers.random_ds_channel(3, np.random.default_rng(2110))
    return decompose_extremal(ch, kind=TERMS[name]).terms[0][1] if name in TERMS else ch


def _outside(values, low=1e-12, high=1e-6):
    return bool(np.all((values < low) | (values > high)))


def _far_from_cutoff(ch):
    # unit defects, the rank tests' singular values (relative to the largest), and the
    # spectrum's distances to 1 and to the unit circle, none within 1e-12..1e-6
    found = [np.array(ch.kraus.unit_defects)]
    for matrix in (product_matrix, stacked_matrix):
        s = np.linalg.svd(matrix(ch.kraus), compute_uv=False)
        found.append(s / s[0])
    if all(ch.kraus.validate()):
        found += [np.abs(ch.kraus.spectrum - 1.0), np.abs(np.abs(ch.kraus.spectrum) - 1.0)]
    return all(map(_outside, found))


def _verdicts(ch):
    unital, tp = ch.kraus.validate()
    return (
        ch.index,
        unital,
        tp,
        choi_extremal_test(ch)[0] if unital else None,
        landau_streater_test(ch)[0] if unital and tp else None,
    )


def _classification(ch):
    if not all(ch.kraus.validate()):
        return None
    sc = classify(ch)
    return sc.fixed_dim, sc.ergodic, sc.period, sc.aperiodic, sc.strongly_mixing, sc.peripheral.size


def _same_spectrum(a, b):
    # a greedy nearest match, one eigenvalue of b for each of a
    if len(a) != len(b):
        return False
    rest = list(b)
    for z in a:
        k = int(np.argmin(np.abs(np.array(rest) - z)))
        if abs(rest.pop(k) - z) > 1e-9:
            return False
    return True


@pytest.mark.parametrize("name", NAMES)
def test_every_corpus_decision_is_far_from_the_cutoff(name):
    assert _far_from_cutoff(_channel(name))


def test_the_corpus_holds_every_term_of_the_m4_decomposition():
    # most: the index bound of an extremal point on M_4, d ≤ n (Choi) and d² ≤ 2n² − 1
    # (Landau–Streater)
    for kind, most in ((CP_PHI, 5), (CP, 4)):
        terms = _decomposition(4, kind).terms
        assert len(terms) == sum(n == 4 and k == kind for n, k, _ in DECOMPOSED.values())
        assert all(term.dim == 4 and 1 < term.index <= most for _, term in terms)
    assert _channel("n=5 CP_phi term").dim == 5


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", NAMES)
def test_a_kraus_gauge_mix_keeps_the_index_verdicts_and_classification(name, seed):
    ch = _channel(name)
    u = helpers.haar_unitary(ch.index, np.random.default_rng(seed))
    mixed = Channel.from_kraus(helpers.gauge_mixed(ch.kraus.ops, u))
    assert _verdicts(mixed) == _verdicts(ch)
    assert _classification(mixed) == _classification(ch)
    if _classification(ch) is not None:
        assert _same_spectrum(classify(mixed).eigenvalues, classify(ch).eigenvalues)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", NAMES)
def test_unitary_composition_keeps_the_index_and_both_verdicts(name, seed):
    ch = _channel(name)
    gen = np.random.default_rng(seed)
    u, v = (helpers.haar_unitary(ch.dim, gen) for _ in range(2))
    assert _verdicts(Channel.from_kraus(u @ ch.kraus.ops @ v)) == _verdicts(ch)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", NAMES)
def test_unitary_conjugation_also_keeps_the_spectrum_fixed_dim_and_period(name, seed):
    ch = _channel(name)
    u = helpers.haar_unitary(ch.dim, np.random.default_rng(seed))
    conj = Channel.from_kraus(u @ ch.kraus.ops @ u.conj().T)
    assert _verdicts(conj) == _verdicts(ch)
    assert _classification(conj) == _classification(ch)
    if _classification(ch) is not None:
        assert _same_spectrum(conj.kraus.spectrum, ch.kraus.spectrum)


@pytest.mark.parametrize("name", NAMES)
def test_the_adjoint_swaps_the_unit_defects_and_keeps_the_landau_streater_verdict(name):
    # the adjoint's products v_i* v_j are the channel's reversed products and the other
    # way round, so the stacked matrix keeps its rank; the Choi verdict reads the
    # products alone and need not hold
    ch = _channel(name)
    assert ch.kraus.adjoint().validate() == ch.kraus.validate()[::-1]
    if all(ch.kraus.validate()):
        assert landau_streater_test(adjoint_channel(ch))[0] == landau_streater_test(ch)[0]
