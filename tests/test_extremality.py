import sys

import numpy as np
import pytest

from qbirkhoff import (
    CP,
    CP_PHI,
    Channel,
    KrausFamily,
    choi_extremal_test,
    decompose_extremal,
    embed_classical,
    hermitize_certificate,
    landau_streater_test,
)
from qbirkhoff import extremality, numerics
from qbirkhoff.extremality import _least_covered, _rank_and_null, product_matrix, stacked_matrix
from qbirkhoff.catalog import build_example, weyl_basis
from qbirkhoff.numerics import (
    DEFAULT_TOLERANCE,
    NumericalFailure,
    dagger,
    hermitian_pair_map,
    max_abs,
    numerical_rank,
    operator_norm,
    rank_cutoff,
)

import helpers


# Gram-oracle ranks, frozen: ex2.4 -> 4/4 of d²=4, ex2.11 -> 9/9 of 9,
# Weyl pair m=2 -> 3/3 of 4, Weyl triple m=3 -> 7/7 of 9.
FROZEN_RANKS = {
    "ex2.4": (2, 4, 4),
    "ex2.11": (3, 9, 9),
    "weyl2": (2, 3, 3),
    "weyl3": (3, 7, 7),
}


def named_channels():
    return {
        "ex2.4": build_example("ex2.4"),
        "ex2.11": build_example("ex2.11"),
        "weyl2": build_example("ex2.12", m=2),
        "weyl3": build_example("ex2.12", m=3),
    }


def test_rank_matrices_match_gram_oracle():
    for name, ch in named_channels().items():
        d, prod_rank, stacked_rank = FROZEN_RANKS[name]
        fam = ch.kraus
        assert fam.index == d
        assert helpers.gram_product_rank(fam) == prod_rank
        assert helpers.gram_stacked_rank(fam) == stacked_rank
        assert numerical_rank(product_matrix(fam)) == prod_rank
        assert numerical_rank(stacked_matrix(fam)) == stacked_rank


def test_named_verdicts():
    chans = named_channels()
    assert choi_extremal_test(chans["ex2.4"]) == (True, None)
    assert landau_streater_test(chans["ex2.4"]) == (True, None)
    assert choi_extremal_test(chans["ex2.11"]) == (True, None)
    assert landau_streater_test(chans["ex2.11"]) == (True, None)
    ok, cert = landau_streater_test(chans["weyl2"])
    assert not ok and cert.kind == CP_PHI
    ok2, cert2 = choi_extremal_test(chans["weyl2"])
    assert not ok2 and cert2.kind == CP


def test_unitary_channel_is_extremal(rng):
    u = helpers.haar_unitary(3, rng)
    ch = Channel.from_kraus(KrausFamily.from_ops([u]))
    assert choi_extremal_test(ch) == (True, None)
    assert landau_streater_test(ch) == (True, None)


def test_weyl_pair_certificate_is_frozen_diagonal():
    _, cert = landau_streater_test(build_example("ex2.12", m=2))
    assert max_abs(cert.lam - np.diag([1.0, -1.0])) < 1e-9
    fwd, rev = cert.residuals(build_example("ex2.12", m=2).kraus)
    assert fwd < 1e-9 and rev < 1e-9


def test_hermitize_certificate_matches_the_tests(rng):
    # the routines the tests call, on the matrix of the first j operators (all of them up
    # to index j), give the leading j×j block of their certificate, which is zero outside it;
    # the index-4 mixture is past the CP bound, where the null vector comes from a QR
    cases = ((CP, choi_extremal_test, product_matrix), (CP_PHI, landau_streater_test, stacked_matrix))
    for kind, test, matrix in cases:
        for ch in (build_example("ex2.12", m=2), helpers.random_unitary_mixture(2, 4, rng)):
            _, cert = test(ch)
            j = min(ch.index, helpers.subfamily_size(ch.dim, kind))
            m = matrix(KrausFamily.from_ops(ch.kraus.ops[:j]))
            nullvec = extremality._null_vector(m, kind, DEFAULT_TOLERANCE)
            again = hermitize_certificate(nullvec, m, kind)
            assert again.kind == cert.kind == kind
            assert np.array_equal(again.lam, cert.lam[:j, :j])
            assert not np.any(cert.lam[j:]) and not np.any(cert.lam[:, j:])
            with pytest.raises(ValueError):
                hermitize_certificate(nullvec[:-1], m, kind)


def test_null_vector_ignores_row_mixing():
    # the null vector depends on m's row space alone: mixing m's rows by an orthogonal Q
    # keeps it to rounding, on square and tall matrices with null spaces of dimension 2 or more
    gen = np.random.default_rng(2201)
    for n, d in ((3, 3), (4, 3), (5, 4)):
        fam = helpers.random_unitary_mixture(n, d, gen).kraus
        for m in (product_matrix(fam), stacked_matrix(fam)):
            assert len(m) >= m.shape[1]
            rank, x = _rank_and_null(m, DEFAULT_TOLERANCE)
            assert m.shape[1] - rank >= 2
            assert max_abs(x - helpers.null_vector_by_projector(m)) < 1e-10
            q, _ = np.linalg.qr(gen.normal(size=(len(m), len(m))))
            assert max_abs(_rank_and_null(q @ m, DEFAULT_TOLERANCE)[1] - x) < 1e-12


def _rank_test_routes(monkeypatch):
    # ("qr", shape of mᵀ) for each QR and ("svd", shape of m) for each matrix whose rank
    # _rank_and_null's SVD decides, call by call
    routes, svd_rule, qr = [], extremality._rank_and_null, np.linalg.qr

    def recorded_svd(m, tol):
        routes.append(("svd", m.shape))
        return svd_rule(m, tol)

    def recorded_qr(a, *args, **kwargs):
        routes.append(("qr", a.shape))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(extremality, "_rank_and_null", recorded_svd)
    monkeypatch.setattr(np.linalg, "qr", recorded_qr)
    return routes


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_past_the_bound_certificates_come_from_a_qr(n, monkeypatch):
    # seeded unitary mixtures of every index d from j (the counting bound's subfamily size)
    # to n²: the certificate of the QR's row-space basis is the one of the projector column
    # on the whole rank-test matrix, and the first j operators are dependent by a rank oracle.
    # CP_phi on M_2 is the exception: its stacked rank is 4 of 7 rows, and it goes straight
    # to the SVD, with no QR
    routes = _rank_test_routes(monkeypatch)
    for kind, test, matrix in ((CP, choi_extremal_test, product_matrix),
                               (CP_PHI, landau_streater_test, stacked_matrix)):
        j = helpers.subfamily_size(n, kind)
        rows = n * n if kind == CP else 2 * n * n - 1
        for d in range(j, n * n + 1):
            ch = helpers.random_unitary_mixture(n, d, np.random.default_rng(2800 + 100 * n + d))
            assert ch.index == d
            routes.clear()
            ok, cert = test(ch)
            qubit_cp_phi = (n, kind) == (2, CP_PHI)
            assert routes == ([("svd", (2 * n * n, j * j))] if qubit_cp_phi else [("qr", (j * j, rows))])
            lead = KrausFamily(ch.kraus.ops[:j])
            assert not ok
            assert helpers.dilation_rank(helpers.pair_vectors(lead, kind == CP_PHI)) < j * j
            m = matrix(lead)
            oracle = hermitize_certificate(helpers.null_vector_by_projector(m), m, kind)
            assert max_abs(cert.lam[:j, :j] - oracle.lam) < 1e-12
            assert not np.any(cert.lam[j:]) and not np.any(cert.lam[:, j:])
            fwd, rev = cert.residuals(ch.kraus)
            assert fwd < 1e-8 and (kind == CP or rev < 1e-8)


def test_rank_drops_past_the_bound_keep_the_svd_certificate(monkeypatch):
    # past the bound, but with R's diagonal at the cutoff: depolarizing on M_3 and M_4 and a
    # classical permutation mixture on M_4 keep the SVD rule's certificate, bit for bit
    routes = _rank_test_routes(monkeypatch)
    s = helpers.random_ds_matrix(4, np.random.default_rng(2900))
    channels = (build_example("depolarizing", n=3), build_example("depolarizing", n=4), embed_classical(s))
    for ch in channels:
        for kind, test, matrix in ((CP, choi_extremal_test, product_matrix),
                                   (CP_PHI, landau_streater_test, stacked_matrix)):
            j = helpers.subfamily_size(ch.dim, kind)
            assert ch.index >= j
            m = matrix(KrausFamily(ch.kraus.ops[:j]))
            routes.clear()
            ok, cert = test(ch)
            assert not ok and routes[1:] == [("svd", m.shape)] and routes[0][0] == "qr"
            _, nullvec = _rank_and_null(m, DEFAULT_TOLERANCE)
            assert np.array_equal(cert.lam[:j, :j], hermitize_certificate(nullvec, m, kind).lam)


def _svd_calls(monkeypatch):
    # ("values", shape) for each np.linalg.svd call without singular vectors, ("vectors",
    # shape) for each with them
    calls, svd = [], np.linalg.svd

    def recorded(m, *args, **kwargs):
        calls.append(("values" if kwargs.get("compute_uv") is False else "vectors", np.shape(m)))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return calls


def test_rank_and_null_runs_the_vector_svd_only_for_a_null_vector(monkeypatch):
    # tall of full column rank: one values-only SVD decides.  Tall and rank-deficient: the
    # values, then the vectors, for the same (rank, null vector) as the vector SVD alone, the
    # projector column's.  Wide: straight to the vector SVD.  The unital qubit map {E_00, E_10}
    # is extremal, and its 4×4 product matrix is decided by its values alone
    calls, tol = _svd_calls(monkeypatch), DEFAULT_TOLERANCE
    gen = np.random.default_rng(2950)
    for rows, cols, rank in ((72, 16, None), (512, 9, None), (18, 16, None), (9, 9, None),
                             (256, 9, 4), (9, 9, 5), (18, 16, 12), (4, 16, None), (6, 16, 3)):
        m = gen.normal(size=(rows, cols)) if rank is None else (
            gen.normal(size=(rows, rank)) @ gen.normal(size=(rank, cols)))
        calls.clear()
        got_rank, x = _rank_and_null(m, tol)
        assert got_rank == (min(rows, cols) if rank is None else rank)
        if cols > rows:
            assert calls == [("vectors", m.shape)]
        elif rank is None:
            assert calls == [("values", m.shape)] and x is None
            continue
        else:
            assert calls == [("values", m.shape), ("vectors", m.shape)]
        _, s, vh = np.linalg.svd(m, full_matrices=False)  # the vector SVD alone, as before
        assert np.count_nonzero(s > rank_cutoff(s, tol)) == got_rank
        assert _least_covered(vh[:got_rank]).tobytes() == x.tobytes()
        assert max_abs(x - helpers.null_vector_by_projector(m, tol.cutoff)) < 1e-10
    ch = Channel.from_kraus([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])
    calls.clear()
    assert ch.kraus.validate() == (True, False) and choi_extremal_test(ch) == (True, None)
    assert calls == [("values", (4, 4))]


def test_certificates_hold_under_rounding_level_perturbations():
    # seeded: unitary mixtures of index 3 and 4, whose null spaces have dimension above 1.
    # With a simple spectrum of G, operators moved by 1e-15 relative canonicalize to
    # operators moved by rounding, and both certificates move no further
    used = 0
    for s in range(12):
        rng = np.random.default_rng(2300 + s)
        n, d = ((3, 3), (4, 3), (5, 4))[s % 3]
        ch = helpers.random_unitary_mixture(n, d, rng)
        if not helpers.simple_spectrum(ch):
            continue
        used += 1
        for _ in range(3):
            other = Channel.from_kraus(helpers.perturbed(ch.kraus.ops, rng))
            for test in (choi_extremal_test, landau_streater_test):
                (ok, cert), (ok_other, cert_other) = test(ch), test(other)
                assert not ok and not ok_other
                assert max_abs(cert.lam - cert_other.lam) < 1e-12
    assert used >= 6


def test_weyl_mixture_certificates_hold_under_a_last_bit_perturbation():
    # deterministic: I, v and u of weyl_basis(3) at weights 0.5, 0.3 and 0.2, and a copy with
    # entry k scaled by 1 + 1e-15·cos(k); both null spaces have dimension above 1
    ops = np.stack([np.sqrt(p) * u for p, u in zip((0.5, 0.3, 0.2), weyl_basis(3))])
    ch, other = Channel.from_kraus(ops), Channel.from_kraus(helpers.perturbed(ops))
    for test, matrix in ((choi_extremal_test, product_matrix), (landau_streater_test, stacked_matrix)):
        rank, _ = _rank_and_null(matrix(ch.kraus), DEFAULT_TOLERANCE)
        assert ch.index**2 - rank >= 2
        (ok, cert), (ok_other, cert_other) = test(ch), test(other)
        assert not ok and not ok_other
        assert max_abs(cert.lam - cert_other.lam) < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_full_rank_certificates_come_from_the_leading_operators(n):
    # index n² is past both counting bounds: the verdict is the oracle's, and the
    # certificate of the first j operators is one of the whole family
    ch = helpers.random_ds_channel(n, np.random.default_rng(100 + n))
    assert ch.index == n * n
    for kind, test in ((CP, choi_extremal_test), (CP_PHI, landau_streater_test)):
        ok, cert = test(ch)
        products = helpers.pair_vectors(ch.kraus, reversed_too=kind == CP_PHI)
        assert not ok and helpers.dilation_rank(products) < ch.index**2
        assert np.array_equal(cert.lam, dagger(cert.lam))
        assert abs(operator_norm(cert.lam) - 1.0) < 1e-12
        fwd, rev = cert.residuals(ch.kraus)
        assert fwd < 1e-8 and (kind == CP or rev < 1e-8)
        j = helpers.subfamily_size(n, kind)
        assert not np.any(cert.lam[j:]) and not np.any(cert.lam[:, j:])


def test_certificates_have_unit_norm_and_small_residual(ds_corpus):
    for kind, test in ((CP, choi_extremal_test), (CP_PHI, landau_streater_test)):
        seen = 0
        for ch in ds_corpus:
            ok, cert = test(ch)
            if ok:
                continue
            seen += 1
            assert np.array_equal(cert.lam, dagger(cert.lam))
            assert abs(operator_norm(cert.lam) - 1.0) < 1e-8
            # the sign rule: the first hermitian coordinate above the cutoff is positive
            coords = hermitian_pair_map(cert.lam[None, None])[:, 0]
            assert coords[np.argmax(np.abs(coords) > 1e-9)] > 0.0
            fwd, rev = cert.residuals(ch.kraus)
            assert fwd < 1e-8 and (kind == CP or rev < 1e-8)
        assert seen > 0  # random channels are never extremal


def test_choi_implies_landau_streater(ds_corpus, rng):
    pool = list(ds_corpus)
    pool.append(build_example("ex2.4"))
    pool.append(build_example("ex2.11"))
    pool.extend(helpers.random_unitary_mixture(3, 2, rng) for _ in range(5))
    for ch in pool:
        choi_ok, _ = choi_extremal_test(ch)
        ls_ok, _ = landau_streater_test(ch)
        if choi_ok:
            assert ls_ok


def test_ls_extremal_transfers_to_adjoint_and_choi(rng):
    # the stronger kind transfers to the weaker one and to the adjoint; use
    # channels rich enough to pass the test in the first place
    pool = [build_example("ex2.4"), build_example("ex2.11")]
    pool.extend(
        Channel.from_kraus(KrausFamily.from_ops([helpers.haar_unitary(n, rng)]))
        for n in (2, 3, 4)
    )
    for ch in pool:
        ls_ok, _ = landau_streater_test(ch)
        assert ls_ok
        choi_ok, _ = choi_extremal_test(ch)
        assert choi_ok
        adj = Channel.from_kraus(KrausFamily.from_ops([dagger(v) for v in ch.kraus.ops]))
        adj_ok, _ = landau_streater_test(adj)
        assert adj_ok


def test_decompose_weyl_pair_exactly():
    ch = build_example("ex2.12", m=2)
    dec = decompose_extremal(ch)
    assert dec.depth == 1
    assert len(dec.terms) == 2
    for weight, leaf in dec.terms:
        assert abs(weight - 0.5) < 1e-10
        assert leaf.kraus.index == 1
    assert dec.reconstruction_error(ch) < 1e-9


def test_decompose_properties_on_random_channels(rng):
    # random channels have full Choi rank n², so n = 4 has index 16
    for n, count in ((2, 6), (3, 6), (4, 2)):
        for _ in range(count):
            ch = helpers.random_ds_channel(n, rng)
            dec = decompose_extremal(ch)
            assert abs(dec.total_weight() - 1.0) < 1e-10
            assert dec.reconstruction_error(ch) < 1e-7
            for _, leaf in dec.terms:
                ok, _ = landau_streater_test(leaf)
                assert ok
            assert len(dec.terms) <= ch.index and dec.depth <= ch.index - 1
            helpers.check_decomposition(ch, dec, CP_PHI)


def test_decompose_step_that_keeps_the_index_raises(monkeypatch, rng):
    # every walk step and peel must lower the index, which bounds both loops; the shared
    # keep rule padded with one zero column gives a factor that keeps it.  A random n = 3
    # channel has index 9: its walk factors on 5×5 certificate blocks, its peel on 9×9
    ch = helpers.random_ds_channel(3, rng)
    assert ch.index == 9
    psd_columns = extremality.psd_columns

    def padded_at(size, calls):
        def rule(vals, vecs, tol):
            calls.append(len(vals))
            kept, cols = psd_columns(vals, vecs, tol)
            return kept, np.hstack([cols, np.zeros((len(cols), 1))]) if len(vals) == size else cols

        return rule

    walk_calls, peel_calls = [], []
    monkeypatch.setattr(extremality, "psd_columns", padded_at(5, walk_calls))
    with pytest.raises(NumericalFailure, match="a walk step kept the index at 9"):
        decompose_extremal(ch)
    assert walk_calls == [5]
    monkeypatch.setattr(extremality, "psd_columns", padded_at(9, peel_calls))
    with pytest.raises(NumericalFailure, match="a peel kept the index at 9"):
        decompose_extremal(ch)
    assert peel_calls[-1] == 9 and 9 not in peel_calls[:-1] and len(peel_calls) > 1


def _mixtures_of_both_kinds(seed):
    # seeded unitary mixtures on M_2..M_4 of random index 2..n², with each rank test
    rng = np.random.default_rng(seed)
    for n in (2, 3, 4):
        for _ in range(4):
            ch = helpers.random_unitary_mixture(n, int(rng.integers(2, n * n + 1)), rng)
            yield ch, choi_extremal_test
            yield ch, landau_streater_test


def test_certificate_eigenpairs_rebuild_it():
    # the eigenpairs the rank test solved, ascending, rebuild λ's leading block; the largest
    # |eigenvalue| is the operator norm 1
    for ch, test in _mixtures_of_both_kinds(2610):
        ok, cert = test(ch)
        if ok:
            continue
        vals, vecs = cert._eig
        j = len(vals)
        assert np.all(np.diff(vals) >= 0.0) and abs(max(-vals[0], vals[-1]) - 1.0) < 1e-15
        assert max_abs((vecs * vals) @ dagger(vecs) - cert.lam[:j, :j]) < 1e-13
        assert not np.any(cert.lam[j:]) and not np.any(cert.lam[:, j:])


def test_walk_and_peel_factors_reproduce_their_coefficient_matrices():
    # the walk factor b has one row fewer and bᵀ·conj(b) = I − σλ, λ padded by zeros and σ
    # making σλ's top eigenvalue 1; peeling rows b gives w = 1/g_max of G = bᵀ·conj(b) and a
    # factor c, one row fewer again, with cᵀ·conj(c) = (I − wG)/(1 − w)
    walked = 0
    for ch, test in _mixtures_of_both_kinds(2611):
        ok, cert = test(ch)
        if ok:
            continue
        walked += 1
        d, eye = ch.index, np.eye(ch.index)
        # σ from the certificate's own eigenvalues: ±1 tie to rounding in the Weyl-like cases
        vals = cert._eig[0]
        sigma = 1.0 if vals[-1] >= -vals[0] else -1.0
        b = extremality._walk_step(cert, eye, DEFAULT_TOLERANCE)
        gram = b.T @ np.conj(b)
        assert b.shape == (d - 1, d) and max_abs(gram - (eye - sigma * cert.lam)) < 1e-12
        w, c = extremality._peel(b, DEFAULT_TOLERANCE)
        assert abs(w * np.linalg.norm(b, 2) ** 2 - 1.0) < 1e-12 and 0.0 < w < 1.0
        assert c.shape == (d - 1, d)
        # relative to the remainder's scale 1/(1 − w), which reaches 1e3 here
        assert max_abs(c.T @ np.conj(c) - (eye - w * gram) / (1.0 - w)) * (1.0 - w) < 1e-12
    assert walked >= 12


def test_decompose_solves_one_eigh_per_walk_step_and_peel(monkeypatch, rng):
    # no operator norm and no hermitian_eig (the d×d eigh of I ∓ λ that psd_factor solved);
    # every SVD is a rank test's
    svd_callers, svd = [], np.linalg.svd

    def traced_svd(*args, **kwargs):
        svd_callers.append(sys._getframe(1).f_code.co_name)
        return svd(*args, **kwargs)

    def refused(name):
        def call(*args, **kwargs):
            raise AssertionError(f"decompose_extremal called {name}")

        return call

    monkeypatch.setattr(np.linalg, "svd", traced_svd)
    for name in ("operator_norm", "hermitian_eig"):
        monkeypatch.setattr(numerics, name, refused(name))
        monkeypatch.setattr(extremality, name, refused(name), raising=False)
    for kind in (CP, CP_PHI):
        dec = decompose_extremal(helpers.random_unitary_mixture(3, 9, rng), kind=kind)
        assert len(dec.terms) > 1
    assert svd_callers and set(svd_callers) == {"_rank_and_null"}


def test_decompose_weights_hold_under_rounding_level_perturbations():
    # the peel's remainder goes through from_kraus, so its operators do not depend on eigh's
    # basis of a degenerate eigenspace: operators moved by 1e-15 relative give the same terms
    # and weights to rounding
    for s in range(10):
        rng = np.random.default_rng(2620 + s)
        ch = helpers.random_unitary_mixture(3, 9, rng)
        other = Channel.from_kraus(helpers.perturbed(ch.kraus.ops, rng, 1e-15))
        dec, moved = decompose_extremal(ch), decompose_extremal(other)
        assert len(dec.terms) == len(moved.terms) > 1
        for (w, term), (w_moved, term_moved) in zip(dec.terms, moved.terms):
            assert abs(w - w_moved) < 1e-12
            assert max_abs(term.choi() - term_moved.choi()) < 1e-10


def test_decompose_unitary_mixtures_valid_or_numerical_failure():
    # a channel the walk or the peel derives can lose its unit flags to
    # rounding: that is a NumericalFailure, never the input's ValueError
    for kind in (CP, CP_PHI):
        for s in range(200):
            ch = helpers.random_unitary_mixture(2, 4, np.random.default_rng(s))
            try:
                dec = decompose_extremal(ch, kind=kind)
            except NumericalFailure as exc:
                assert "tolerance" in str(exc)
                continue
            assert len(dec.terms) <= ch.index
            helpers.check_decomposition(ch, dec, kind)


@pytest.mark.parametrize("seed", [192, 389, 607, 1021, 1276])
def test_decompose_knife_edge_unitary_mixtures(seed):
    # knife-edge inputs: a split that scales a certificate by 1/μ (μ small)
    # pushes its residual past the tolerance; a walk step keeps scale 1
    ch = helpers.random_unitary_mixture(2, 4, np.random.default_rng(seed))
    dec = decompose_extremal(ch)
    assert len(dec.terms) <= ch.index
    helpers.check_decomposition(ch, dec, CP_PHI)


@pytest.mark.parametrize("seed", [60, 292, 310, 389, 505, 607, 631, 932, 1199, 1225, 1231, 1287])
def test_decompose_cp_former_failures(seed):
    # these raised NumericalFailure when the null vector was the last right singular
    # vector of the wide product matrix; the least-covered-coordinate rule ends every
    # walk here at a unitary
    ch = helpers.random_unitary_mixture(2, 4, np.random.default_rng(seed))
    dec = decompose_extremal(ch, kind=CP)
    assert len(dec.terms) <= ch.index
    assert all(term.kraus.index == 1 for _, term in dec.terms)
    helpers.check_decomposition(ch, dec, CP)


@pytest.mark.parametrize("kind", [CP, CP_PHI])
def test_decompose_hermitizes_the_remainder(kind):
    # the remainder's coefficient matrix is hermitian by construction, but the
    # 1/(1−w) factor amplified its rounding past hermitize's tolerance check here
    ch = helpers.random_unitary_mixture(2, 4, np.random.default_rng(4727))
    dec = decompose_extremal(ch, kind=kind)
    assert len(dec.terms) <= ch.index
    helpers.check_decomposition(ch, dec, kind)


@pytest.mark.parametrize("kind", [CP, CP_PHI])
@pytest.mark.parametrize("seed", [3290, 4048, 4949])
def test_decompose_repairs_a_light_unit_defect(seed, kind):
    # a derived channel here has a unit defect of 1.5e-9 to 2.7e-9 (3290 with CP_phi,
    # 4048 and 4949 with CP), but it carries so little mass that one operator Sinkhorn
    # step mends it within the reconstruction bound
    ch = helpers.random_unitary_mixture(2, 4, np.random.default_rng(seed))
    dec = decompose_extremal(ch, kind=kind)
    assert len(dec.terms) <= ch.index
    helpers.check_decomposition(ch, dec, kind)


@pytest.mark.parametrize("kind", [CP, CP_PHI])
def test_derived_repairs_only_what_the_mass_bounds(kind, rng):
    # rows off the identity by 1e-6 give unit defects of about 1e-6: repaired at a
    # mass that keeps mass × defect within the tolerance, a NumericalFailure above it
    fam = helpers.random_unitary_mixture(3, 2, rng).kraus
    rows = np.diag([1.0 + 1e-6, 1.0 - 1e-6])
    assert min(KrausFamily(extremality._ops(rows, fam)).unit_defects) > 1e-7
    with pytest.raises(NumericalFailure, match="tolerance"):
        extremality._derived(rows, fam, kind, DEFAULT_TOLERANCE, 1e-2)
    repaired = extremality._derived(rows, fam, kind, DEFAULT_TOLERANCE, 1e-5)
    (unital, tp), (out_dev, in_dev) = repaired.kraus.validate(), repaired.kraus.unit_defects
    assert unital and out_dev <= 1e-9
    assert kind == CP or (tp and in_dev <= 1e-9)


def test_decompose_cp_last_known_failure():
    # the last remainder of the full-family rule had mass about 2e-7, and normalizing it
    # amplified a rounding-level unit defect past the tolerance; the first-j certificates
    # take another route, and the repair would cover this mass either way
    ch = helpers.random_unitary_mixture(2, 4, np.random.default_rng(1276))
    dec = decompose_extremal(ch, kind=CP)
    helpers.check_decomposition(ch, dec, CP)


def test_decompose_in_cp_class(rng):
    ch = helpers.random_unitary_mixture(2, 2, rng)
    dec = decompose_extremal(ch, kind=CP)
    for _, leaf in dec.terms:
        ok, _ = choi_extremal_test(leaf)
        assert ok
    assert dec.reconstruction_error(ch) < 1e-7


def test_extremal_input_decomposes_to_single_term():
    ch = build_example("ex2.4")
    dec = decompose_extremal(ch)
    assert len(dec.terms) == 1
    weight, leaf = dec.terms[0]
    assert abs(weight - 1.0) < 1e-12 and landau_streater_test(leaf)[0]
    assert max_abs(leaf.choi() - ch.choi()) < 1e-12


def test_landau_streater_requires_doubly_stochastic():
    v1 = np.array([[1, 0], [0, np.sqrt(0.5)]], dtype=complex)
    v2 = np.array([[0, np.sqrt(0.5)], [0, 0]], dtype=complex)
    ch = Channel.from_kraus(KrausFamily.from_ops([v1, v2]))
    with pytest.raises(ValueError):
        landau_streater_test(ch)
