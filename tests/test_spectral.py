import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from qbirkhoff import (
    Channel,
    CyclicFamily,
    KrausFamily,
    adjoint_channel,
    choi_extremal_test,
    classify,
    cyclic_projections,
    decompose_extremal,
    deperiodize,
    fixed_point_space,
    invariant_projection,
    landau_streater_test,
    schur_channel,
)
from qbirkhoff.birkhoff import (
    birkhoff_decompose,
    ds_matrix_from_dict,
    ds_matrix_to_dict,
    embed_classical,
)
from qbirkhoff.catalog import (
    build_example,
    depolarizing_channel,
    identity_channel,
    weyl_mixture_channel,
)
from qbirkhoff import channels, spectral
from qbirkhoff.channels import channel_to_dict
from qbirkhoff.cli import main
from qbirkhoff.numerics import DEFAULT_TOLERANCE, Tolerance, block_views, dagger, max_abs, vec
from qbirkhoff.spectral import _unitary_root, _verify_family

import helpers
from helpers import cycle_embed_channel, swap_channel


def test_identity_channel_is_maximally_non_ergodic():
    cl = classify(identity_channel())
    assert cl.fixed_dim == 4
    assert not cl.ergodic and not cl.strongly_mixing
    assert cl.period is None


def test_depolarizing_is_strongly_mixing():
    cl = classify(depolarizing_channel())
    assert cl.fixed_dim == 1 and cl.ergodic
    assert cl.period == 1 and cl.aperiodic and cl.strongly_mixing
    spectrum = np.sort(np.abs(cl.eigenvalues))
    assert abs(spectrum[-1] - 1.0) < 1e-9
    assert np.all(spectrum[:-1] < 1e-9)


def test_swap_channel_fixed_space():
    ch = swap_channel()
    cl = classify(ch)
    assert cl.fixed_dim == 2 and not cl.ergodic
    e = invariant_projection(ch)
    assert e is not None
    assert max_abs(e @ e - e) < 1e-9
    assert max_abs(e - dagger(e)) < 1e-9
    assert max_abs(ch.apply(e) - e) < 1e-9
    assert 0 < np.trace(e).real < ch.dim


def _period_two_block_sum(seed):
    rng = np.random.default_rng(seed)
    a = helpers.random_periodic_channel(4, 2, 2, rng)
    return helpers.block_sum_channel(a, helpers.random_periodic_channel(4, 2, 2, rng))


NON_ERGODIC = {
    "identity3": lambda: identity_channel(3),
    "(01)(23)": lambda: embed_classical(np.eye(4)[[1, 0, 3, 2]]),
    "(012)(3)": lambda: embed_classical(np.eye(4)[[2, 0, 1, 3]]),
    "diagonal-unitary": lambda: Channel.from_kraus(
        [np.diag(np.exp(2j * np.pi * np.array([0, 1 / 4, 7 / 12, 0])))]
    ),
    "ex2.4": lambda: build_example("ex2.4"),
    "ex2.8": lambda: build_example("ex2.8"),
    "ex2.9": lambda: build_example("ex2.9"),
    **{f"block-sum-{s}": (lambda s=s: _period_two_block_sum(s)) for s in range(5)},
}


@pytest.mark.parametrize("name", list(NON_ERGODIC))
def test_invariant_projection_contract(name):
    ch = NON_ERGODIC[name]()
    assert not classify(ch).ergodic
    e = invariant_projection(ch)
    assert max_abs(e @ e - e) < 1e-9
    assert max_abs(e - dagger(e)) < 1e-9
    assert max_abs(ch.apply(e) - e) < 1e-9
    assert 0.5 < np.trace(e).real < ch.dim - 0.5


def test_weyl_pair_period_three():
    cl = classify(build_example("ex2.12", m=2))
    assert cl.fixed_dim == 1 and cl.ergodic
    assert cl.period == 3 and not cl.aperiodic and not cl.strongly_mixing
    theta = np.exp(2j * np.pi / 3)
    peripheral = sorted(np.round(cl.peripheral, 9).tolist(), key=lambda z: np.angle(z))
    expect = sorted([1.0, theta, theta**2], key=lambda z: np.angle(z))
    assert np.max(np.abs(np.array(peripheral) - np.array(expect))) < 1e-8


def test_weyl_mixture_is_strongly_mixing():
    cl = classify(weyl_mixture_channel(2, 0.5))
    assert cl.ergodic and cl.strongly_mixing and cl.period == 1


def test_spectral_radius_one_and_identity_fixed(ds_corpus):
    for ch in ds_corpus[:8]:
        t = channels.superoperator_from_kraus(ch)
        eigs = np.linalg.eigvals(t)
        assert np.max(np.abs(eigs)) < 1.0 + 1e-8
        assert max_abs(t @ vec(np.eye(ch.dim)) - vec(np.eye(ch.dim))) < 1e-9


def test_fixed_space_closure_check_stays_small():
    # identity_channel(12) fixes all of M_12: 144 basis elements, whose 144² products
    # at once would hold about 48 MB; one left factor at a time holds a 144th of that
    ch = identity_channel(12)
    tracemalloc.start()
    try:
        basis = fixed_point_space(ch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(basis) == 144
    assert peak < 8e6


def test_fixed_space_is_star_algebra(ds_corpus):
    for ch in list(ds_corpus[:4]) + [swap_channel(), identity_channel()]:
        basis = fixed_point_space(ch)
        assert len(basis) == classify(ch).fixed_dim
        mat = np.column_stack([vec(b) for b in basis])
        proj = mat @ dagger(mat)
        for a in basis:
            for b in basis:
                prod = vec(a @ b)
                assert max_abs(proj @ prod - prod) < 1e-7 * max(1.0, max_abs(prod))
            adj = vec(dagger(a))
            assert max_abs(proj @ adj - adj) < 1e-7


def test_unitary_channel_peripheral_is_phase_differences(rng):
    phases = rng.uniform(0, 2 * np.pi, size=3)
    u = np.diag(np.exp(1j * phases))
    ch = Channel.from_kraus(KrausFamily.from_ops([u]))
    cl = classify(ch)
    expected = sorted(
        {round(float(np.angle(np.exp(1j * (a - b)))), 9) for a in phases for b in phases}
    )
    got = sorted({round(float(np.angle(z)), 9) for z in cl.peripheral})
    assert len(got) == len(expected)
    assert np.max(np.abs(np.array(got) - np.array(expected))) < 1e-6


def test_cyclic_family_period_is_its_projection_count():
    ps = tuple(np.diag(e).astype(complex) for e in np.eye(3))
    assert CyclicFamily(ps).period == len(ps) == 3
    assert CyclicFamily(ps[:1]).period == 1


def test_cyclic_family_weyl_pair():
    ch = build_example("ex2.12", m=2)
    fam = cyclic_projections(ch)
    assert fam is not None and fam.period == 3
    check_cyclic_postconditions(ch, fam)


def test_verify_family_rejects_wrong_order_and_perturbation():
    ch = build_example("ex2.12", m=2)
    projections = list(cyclic_projections(ch).projections)
    assert _verify_family(ch.kraus, projections, DEFAULT_TOLERANCE)
    assert not _verify_family(ch.kraus, projections[::-1], DEFAULT_TOLERANCE)
    bumped = [projections[0] + 1e-6 * np.diag([1.0, 0.0, 0.0]), *projections[1:]]
    assert not _verify_family(ch.kraus, bumped, DEFAULT_TOLERANCE)


def test_cyclic_family_swap():
    ch = swap_channel()
    fam = cyclic_projections(ch)
    assert fam is not None and fam.period == 2
    check_cyclic_postconditions(ch, fam)
    # frozen: the coordinate projections cycle under the swap
    mats = sorted(fam.projections, key=lambda e: abs(e[0, 0]))
    assert max_abs(mats[0] - np.diag([0.0, 1.0])) < 1e-9
    assert max_abs(mats[1] - np.diag([1.0, 0.0])) < 1e-9


def check_cyclic_postconditions(ch, fam):
    p = fam.period
    total = sum(fam.projections)
    assert max_abs(total - np.eye(ch.dim)) < 1e-9
    for k, e in enumerate(fam.projections):
        assert max_abs(e @ e - e) < 1e-9
        assert max_abs(e - dagger(e)) < 1e-9
        nxt = fam.projections[(k + 1) % p]
        assert max_abs(ch.apply(e) - nxt) < 1e-9
        for j in range(k):
            assert max_abs(e @ fam.projections[j]) < 1e-9


def test_cyclic_projections_refuse_aperiodic():
    with pytest.raises(ValueError):
        cyclic_projections(depolarizing_channel())


def test_cyclic_projections_none_when_the_root_is_no_eigenvalue():
    # phase differences of diag(1, i, e^{7πi/6}, 1) have denominators 4, 3
    # and 12, so p = 12, but e^{2πi/12} is no eigenvalue: an empty eigenspace
    u = np.diag(np.exp(2j * np.pi * np.array([0, 1 / 4, 7 / 12, 0])))
    ch = Channel.from_kraus(KrausFamily.from_ops([u]))
    assert cyclic_projections(ch) is None


@pytest.mark.parametrize("n, p", [(4, 2), (6, 3), (8, 4), (9, 3), (12, 4)])
def test_cyclic_family_on_random_periodic_channels(n, p):
    rng = np.random.default_rng(100 * n + p)
    ch = helpers.random_periodic_channel(n, p, 2, rng)
    assert classify(ch).period == p
    fam = cyclic_projections(ch)
    assert fam is not None and fam.period == p
    check_cyclic_postconditions(ch, fam)


@pytest.mark.parametrize("name", ["(01)(23)", *(f"block-sum-{s}" for s in range(5))])
def test_cyclic_family_on_non_ergodic_period_two_channels(name):
    # the −1 eigenspace is two-dimensional, and none of its orthonormal basis
    # elements need be a scaled unitary
    ch = NON_ERGODIC[name]()
    fam = cyclic_projections(ch)
    assert fam is not None and fam.period == 2
    check_cyclic_postconditions(ch, fam)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_unitary_root_on_a_degenerate_spectrum(p):
    # each eigenvalue cluster gets one principal root, the cluster at −1 too
    v = helpers.haar_unitary(6, np.random.default_rng(p))
    eigs = np.array([-1, -1, -1, 1j, 1j, 1])
    m = (v * eigs) @ dagger(v)
    r = _unitary_root(m, p, DEFAULT_TOLERANCE)
    assert max_abs(r @ dagger(r) - np.eye(6)) < 1e-12
    assert max_abs(np.linalg.matrix_power(r, p) - m) < 1e-12
    assert max_abs(r - (v * np.exp(1j * np.angle(eigs) / p)) @ dagger(v)) < 1e-12


def test_cycle_embed_deperiodizes():
    ch = cycle_embed_channel(3)
    cl = classify(ch)
    assert cl.ergodic and cl.period == 3
    fam = cyclic_projections(ch)
    assert fam is not None and fam.period == 3
    check_cyclic_postconditions(ch, fam)
    alpha, residual = deperiodize(ch, fam)
    assert max_abs(alpha @ dagger(alpha) - np.eye(3)) < 1e-9
    for e in fam.projections:
        assert max_abs(residual.apply(e) - e) < 1e-7
    rcl = classify(residual)
    assert not rcl.ergodic
    assert rcl.fixed_dim >= fam.period


def test_classify_consistency_on_corpus(ds_corpus):
    # T − I has s[0] < 1 on these two: a near-identity channel and a barely
    # mixed Weyl pair (strongly mixing)
    near_identity = Channel.from_kraus([np.sqrt(1.0 - 1e-10) * np.eye(2)])
    for ch in [*ds_corpus, near_identity, weyl_mixture_channel(2, 1e-8)]:
        cl = classify(ch)
        assert cl.fixed_dim >= 1
        assert cl.fixed_dim == len(fixed_point_space(ch))
        if cl.strongly_mixing:
            assert cl.ergodic and len(cl.peripheral) == 1
        if cl.ergodic:
            assert cl.period is not None
            assert cl.aperiodic == (cl.period == 1)
        else:
            assert cl.period is None and not cl.strongly_mixing


def test_spectrum_is_complex_and_closed_under_conjugation(ds_corpus, rng):
    # the real solver returns exact conjugate pairs and real eigenvalues as x + 0.0j
    periodic = [helpers.random_periodic_channel(6, p, 2, rng) for p in (2, 3)]
    for ch in [*ds_corpus, build_example("ex2.12"), *periodic]:
        eigs = classify(ch).eigenvalues
        assert eigs.dtype == np.complex128
        assert np.array_equal(np.sort_complex(eigs), np.sort_complex(np.conj(eigs)))
        assert np.all((eigs.imag == 0.0) | (np.abs(eigs.imag) > 1e-12))
        assert any(z.imag == 0.0 and abs(z - 1.0) < 1e-9 for z in eigs)


def test_identity_spectrum_is_real():
    exact = Channel(KrausFamily.from_ops([np.eye(3)]))
    assert classify(exact).eigenvalues.tolist() == [1 + 0j] * 9
    # the canonical Kraus operator of identity_channel(3) is I only to rounding
    eigs = classify(identity_channel(3)).eigenvalues
    assert eigs.dtype == np.complex128 and len(eigs) == 9
    assert np.all(eigs.imag == 0.0) and max_abs(eigs - 1.0) < 1e-15


def test_classify_and_cyclic_projections_share_one_eigensolve(monkeypatch):
    solved = []
    eigvals = np.linalg.eigvals

    def counting(a):
        solved.append(a.dtype)
        return eigvals(a)

    def no_svd(*args, **kwargs):
        raise AssertionError("classify reads the fixed dimension off the spectrum")

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    ch = build_example("ex2.12")
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "svd", no_svd)
        cl = classify(ch)
    # one real solve per diagonal block of R, all of them inside classify, and no SVD
    assert len(solved) == len(ch.kraus.real_blocks) and set(solved) == {np.dtype(np.float64)}
    fam = cyclic_projections(ch)
    assert cl.period == fam.period == 3
    assert len(solved) == len(ch.kraus.real_blocks)
    with pytest.raises(ValueError):
        ch.kraus.spectrum[0] = 0.0  # the cached spectrum is read-only


def _full_rank_mixture(n, rng):
    # Σ p_k u_k x u_k* over n² Haar unitaries, as written: index and Choi rank n²
    weights = rng.dirichlet(np.ones(n * n))
    return np.stack([np.sqrt(w) * helpers.haar_unitary(n, rng) for w in weights])


def test_the_classify_command_solves_once_per_block_and_builds_no_canonical_form(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(2401)
    files = {
        "aperiodic": KrausFamily.from_ops(_full_rank_mixture(3, rng)),
        "periodic": helpers.random_periodic_channel(6, 3, 2, rng).kraus,
    }
    solved, hermitian = [], []
    eigvals, eigh = np.linalg.eigvals, np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: solved.append(a.dtype) or eigvals(a))
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: hermitian.append(1) or eigh(*a, **k))
    for name, fam in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(channel_to_dict(Channel(fam))))
        solved.clear(), hermitian.clear()
        assert main(["classify", str(path), "--json"]) == 0, name
        report = json.loads(capsys.readouterr().out)
        blocks = KrausFamily(fam.ops.copy()).real_blocks  # nothing cached, outside the count
        assert all(len(b) > 1 for b in blocks), name
        assert solved == [np.dtype(np.float64)] * len(blocks), name
        # the Kraus canonical form starts with an eigh of the Gram matrix; only the
        # periodic channel's cyclic projections solve a hermitian problem
        if name == "aperiodic":
            assert not hermitian
        else:
            assert report["period"] == 3 and report["cyclic_projections"] is not None


def _as_given_families(seed):
    # a gauge mix of a block sum (non-ergodic), a periodic family with every operator
    # split in two (index 2d above the Choi rank d), and a full-rank mixture
    rng = np.random.default_rng(seed)
    block_sum = helpers.block_sum_channel(
        helpers.random_unitary_mixture(2, 3, rng), helpers.random_unitary_mixture(3, 3, rng)
    )
    periodic = helpers.random_periodic_channel(6, 2, 3, rng).kraus.ops
    split = rng.uniform(0.2, 0.8)
    return {
        "gauge-mixed": helpers.gauge_mixed(block_sum.kraus.ops, helpers.haar_unitary(block_sum.index, rng)),
        "duplicated": np.concatenate([np.sqrt(split) * periodic, np.sqrt(1.0 - split) * periodic]),
        "full-rank mixture": _full_rank_mixture(4, rng),
    }


def _discrete(cl):
    return cl.fixed_dim, cl.ergodic, cl.period, cl.aperiodic, cl.strongly_mixing, cl.peripheral.size


@pytest.mark.parametrize("seed", [2411, 2412, 2413])
def test_classify_of_a_family_as_given_is_the_canonical_channels(seed):
    for name, ops in _as_given_families(seed).items():
        fam = KrausFamily.from_ops(ops)
        ch = Channel.from_kraus(fam)
        for spectrum in (fam.spectrum, ch.kraus.spectrum):
            for margin in (np.abs(spectrum - 1.0), np.abs(np.abs(spectrum) - 1.0)):
                assert np.all((margin < 1e-12) | (margin > 1e-6)), name
        got, want = classify(fam), classify(ch)
        assert _discrete(got) == _discrete(want), name
        assert helpers.matched_distance(got.eigenvalues, want.eigenvalues) <= 1e-12, name
        if got.ergodic and got.period > 1:
            assert cyclic_projections(fam).period == cyclic_projections(ch).period == got.period, name


def _split_channels(seed):
    # block, periodic and block-sum channels, split in R and T by exact zeros,
    # and Haar-conjugated copies of each, which are dense
    rng = np.random.default_rng(seed)
    split = {
        "periodic-8-2": helpers.random_periodic_channel(8, 2, 2, rng),
        "periodic-9-3": helpers.random_periodic_channel(9, 3, 2, rng),
        "periodic-12-4": helpers.random_periodic_channel(12, 4, 2, rng),
        "block-sum-4-5": helpers.block_sum_channel(
            helpers.random_unitary_mixture(4, 2, rng), helpers.random_unitary_mixture(5, 2, rng)
        ),
        "periodic-block-sum": _period_two_block_sum(seed),
    }
    dense = {}
    for name, ch in split.items():
        u = helpers.haar_unitary(ch.dim, rng)
        dense[f"{name}-conjugated"] = Channel.from_kraus(u @ ch.kraus.ops @ dagger(u))
    return split, dense


def _whole_matrix_solve(monkeypatch):
    # every matrix is one block: the eigensolve and SVDs run on R and T whole
    for module in (channels, spectral):
        monkeypatch.setattr(module, "diagonal_blocks", lambda m: [np.arange(len(m))])


@pytest.mark.parametrize("seed", [2101, 2102])
def test_blockwise_spectrum_is_the_whole_spectrum(seed):
    split, dense = _split_channels(seed)
    for name, ch in {**split, **dense}.items():
        assert (len(ch.kraus.real_blocks) > 1) == (name in split), name
        whole = np.linalg.eigvals(ch.kraus.real_superoperator)
        assert helpers.matched_distance(ch.kraus.spectrum, whole) <= 1e-12, name


@pytest.mark.parametrize("seed", [2101, 2102])
def test_blockwise_classification_is_the_whole_classification(seed, monkeypatch):
    split, dense = _split_channels(seed)
    blockwise = {}
    for name, ch in {**split, **dense}.items():
        cl = classify(ch)
        fam = cyclic_projections(ch) if cl.ergodic and cl.period > 1 else None
        blockwise[name] = cl, fam
    _whole_matrix_solve(monkeypatch)
    for name, ch in {**split, **dense}.items():
        ch = Channel(KrausFamily(ch.kraus.ops))  # nothing cached
        cl = classify(ch)
        got, got_fam = blockwise[name]
        assert (got.fixed_dim, got.ergodic, got.period) == (cl.fixed_dim, cl.ergodic, cl.period)
        if got_fam is None:
            assert not (cl.ergodic and cl.period > 1), name
            continue
        fam = cyclic_projections(ch)
        assert fam.period == got_fam.period
        assert max_abs(np.stack(fam.projections) - np.stack(got_fam.projections)) <= 1e-12, name


def _one_by_one_channels():
    # real forms with 1×1 diagonal blocks: all of them (the identity, and a mixture
    # of diagonal sign unitaries, whose entries are random), and runs of them between
    # larger blocks (unitary conjugations with entries −1, embedded permutations and
    # block matrices)
    rng = np.random.default_rng(2301)
    signs = [np.sqrt(p) * np.diag(rng.choice([-1.0, 1.0], 5)) for p in rng.dirichlet(np.ones(3))]
    s = np.zeros((6, 6))
    s[0, 0] = 1.0
    s[1:3, 1:3] = 0.5
    s[3:, 3:] = [[0.2, 0.3, 0.5], [0.5, 0.2, 0.3], [0.3, 0.5, 0.2]]
    chans = {f"identity-{n}": identity_channel(n) for n in range(2, 9)}
    chans["signs-5"] = Channel.from_kraus(KrausFamily.from_ops(signs))
    chans["swap"] = swap_channel()
    chans["diag(1, i, -1)"] = helpers.unitary_channel(np.diag([1.0, 1j, -1.0]))
    chans["cycle-3"] = cycle_embed_channel(3)
    chans["(01)(23)"] = embed_classical(np.eye(4)[[1, 0, 3, 2]])
    chans["(0)(12)(345)"] = embed_classical(np.eye(6)[[0, 2, 1, 4, 5, 3]])
    chans["blocks-1-2-3"] = embed_classical(s)
    return chans


def test_one_by_one_blocks_read_bitwise_as_lapack_solves_them(monkeypatch):
    chans = _one_by_one_channels()
    read = {}
    for name, ch in chans.items():
        assert any(len(b) == 1 for b in ch.kraus.real_blocks), name
        read[name] = ch.kraus.spectrum, dataclasses.astuple(classify(ch))

    def per_block(fam):
        views = block_views(fam.real_superoperator, fam.real_blocks)
        return np.concatenate([np.linalg.eigvals(v) for v in views]).astype(complex)

    monkeypatch.setattr(KrausFamily, "spectrum", property(per_block))
    for name, ch in chans.items():
        ch = Channel(KrausFamily(ch.kraus.ops))  # nothing cached
        spectrum, cl = read[name]
        assert spectrum.tobytes() == ch.kraus.spectrum.tobytes(), name
        for got, want in zip(cl, dataclasses.astuple(classify(ch))):
            assert type(got) is type(want), name
            assert (got.tobytes() == want.tobytes()) if type(got) is np.ndarray else got == want, name


def test_fixed_dim_is_the_multiplicity_of_one_as_the_rank_of_r_minus_i_gives_it(ds_corpus):
    # eigenvalue 1 is semisimple, so its multiplicity is n² − rank(R − I); on these
    # channels the decision is far from the cutoff on both sides
    chans = [*ds_corpus, *_one_by_one_channels().values(), *map(identity_channel, range(2, 9))]
    for seed in (2101, 2102):
        for group in _split_channels(seed):
            chans += group.values()
    for ch in chans:
        gap = np.abs(ch.kraus.spectrum - 1.0)
        assert np.all((gap < 1e-12) | (gap > 1e-3))
        assert classify(ch).fixed_dim == helpers.fixed_dim_by_rank(ch)


def test_tol_moves_fixed_dim_under_both_rules():
    # λ·τ + (1 − λ)·id at λ = 1e-11: every eigenvalue lies within 2e-11 of 1, so
    # the default cutoff counts all nine as fixed and 1e-12 only the exact one
    for tol, fixed_dim in ((DEFAULT_TOLERANCE, 9), (Tolerance(1e-12), 1)):
        ch = build_example("ex2.12", lam=1e-11, tol=tol)
        assert classify(ch, tol).fixed_dim == helpers.fixed_dim_by_rank(ch, tol) == fixed_dim


@pytest.mark.parametrize(
    "gate",
    [classify, fixed_point_space, cyclic_projections, choi_extremal_test, landau_streater_test,
     adjoint_channel, decompose_extremal],
)
def test_a_channel_built_at_a_looser_cutoff_is_refused_not_answered(gate):
    # at the default cutoff λ = 1e-11 drops the shifts, leaving √(1 − λ)·I, whose unit
    # defects of 1e-11 pass there; at 1e-12 the channel is neither unital nor
    # trace-preserving, so every gate refuses it instead of answering (fixed_dim 0, or
    # "extremal") from validity decided at the build's cutoff
    ch = build_example("ex2.12", lam=1e-11)
    assert ch.kraus.validate() == (True, True)
    assert ch.kraus.validate(Tolerance(1e-12)) == (False, False)
    with pytest.raises(ValueError, match="unital"):
        gate(ch, tol=Tolerance(1e-12))


def test_a_looser_cutoff_still_answers_at_its_own_tolerance():
    ch = build_example("ex2.12", lam=1e-11)
    assert classify(ch).fixed_dim == 9
    assert choi_extremal_test(ch)[0] and landau_streater_test(ch)[0]
    assert adjoint_channel(ch).index == 1 and len(decompose_extremal(ch).terms) == 1


# 1.000001·P, P a 3×3 permutation, and a multiplier whose diagonal has 1 + 1e-6: each is
# off by 1e-6, so each call refuses it at 1e-12 and answers at 1e-3
_NEAR_DS = 1.000001 * np.eye(3)[[1, 2, 0]]
_NEAR_UNIT = [[1.0 + 1e-6, 0.5], [0.5, 1.0]]
MATRIX_GATES = {
    "birkhoff_decompose": (lambda tol: birkhoff_decompose(_NEAR_DS, tol), "not doubly stochastic"),
    "embed_classical": (lambda tol: embed_classical(_NEAR_DS, tol), "not doubly stochastic"),
    "ds_matrix_to_dict": (lambda tol: ds_matrix_to_dict(_NEAR_DS, tol), "not doubly stochastic"),
    "schur_channel": (lambda tol: schur_channel(_NEAR_UNIT, tol), "unit diagonal"),
}


@pytest.mark.parametrize("name", list(MATRIX_GATES))
def test_a_matrix_is_checked_at_each_call_s_tolerance(name):
    gate, message = MATRIX_GATES[name]
    gate(Tolerance(1e-3))
    with pytest.raises(ValueError, match=message):
        gate(Tolerance(1e-12))


def test_a_matrix_read_at_a_looser_cutoff_is_refused_at_a_tighter_one():
    # what a loose read returns is a plain array: no verdict travels with it
    s = ds_matrix_from_dict({"n": 3, "rows": _NEAR_DS.tolist()}, Tolerance(1e-3))
    assert birkhoff_decompose(s, Tolerance(1e-3)).terms == ((1.000001, (1, 2, 0)),)
    with pytest.raises(ValueError, match="not doubly stochastic"):
        birkhoff_decompose(s, Tolerance(1e-12))


LADDER = [1e-12, 1e-9, 1e-6, 1e-3]


@pytest.mark.parametrize("c", LADDER)
def test_every_fixed_eigenvalue_is_peripheral_at_every_cutoff(ds_corpus, c):
    # each corpus channel, and its lazy mix (1 − 1e-7)·id + 1e-7·τ, whose eigenvalues lie
    # within 2e-7 of 1, rebuilt at c and then read at every cutoff of the ladder: a read
    # either refuses a channel that is not doubly stochastic at its own cutoff, or counts
    # fixed_dim ≥ 1 fixed eigenvalues, the fixed_dim nearest 1, all in the peripheral band
    lam = 1e-7
    sources = [ch.kraus.ops for ch in ds_corpus]
    sources += [np.concatenate([[np.sqrt(1 - lam) * np.eye(v.shape[-1])], np.sqrt(lam) * v]) for v in sources]
    for ch in (Channel.from_kraus(v, Tolerance(c)) for v in sources):
        for tol in map(Tolerance, LADDER):
            if not all(ch.kraus.validate(tol)):
                with pytest.raises(ValueError, match="unital trace-preserving"):
                    classify(ch, tol)
                continue
            sc = classify(ch, tol)
            fixed = sc.eigenvalues[np.argsort(np.abs(sc.eigenvalues - 1.0), kind="stable")[: sc.fixed_dim]]
            assert sc.fixed_dim >= 1 and np.isin(fixed, sc.peripheral).all(), (c, tol, fixed, sc.peripheral)
