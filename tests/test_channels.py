import json

import numpy as np
import pytest

import qbirkhoff
from qbirkhoff import (
    Channel,
    KrausFamily,
    NotCompletelyPositive,
    adjoint_channel,
    channel_to_dict,
    family_from_dict,
)
from qbirkhoff.catalog import depolarizing_channel, identity_channel, weyl_basis
from qbirkhoff.channels import (
    _canonical_family,
    choi_from_kraus,
    kraus_from_choi,
    complex_array,
    loads_json,
    pairs_array,
    superoperator_from_kraus,
)
from qbirkhoff.numerics import DEFAULT_TOLERANCE, dagger, max_abs, phase_fixed, psd_factor, unvec, vec
from qbirkhoff.spectral import classify

import helpers
from helpers import partial_trace


def basis_units(n):
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            yield e


def test_family_validation_rejects_mixed_shapes():
    nan, inf = np.eye(2, dtype=complex), np.eye(2, dtype=complex)
    nan[0, 1], inf[1, 0] = np.nan, np.inf
    rejected = [
        [np.eye(2), np.eye(3)],
        [],
        [np.ones((2, 3))],
        [np.eye(2), nan],
        [inf],
        np.eye(2),  # one matrix, not a stack
        np.ones((1, 2, 2, 2)),
        np.zeros((1, 0, 0)),  # operators of size 0 act on no space
    ]
    for ops in rejected:
        with pytest.raises(ValueError):
            KrausFamily.from_ops(ops)
    stack = np.stack([np.eye(2), np.diag([1.0, -1.0])]).astype(complex)
    fam = KrausFamily.from_ops(stack)
    assert fam.ops is stack
    assert KrausFamily.from_ops(fam) is fam


def test_from_ops_takes_a_channel_as_its_family():
    ch = depolarizing_channel(2)
    assert KrausFamily.from_ops(ch) is ch.kraus
    # so every function that takes a Kraus family takes the channel too
    assert np.array_equal(choi_from_kraus(ch), choi_from_kraus(ch.kraus))
    assert np.array_equal(superoperator_from_kraus(ch), superoperator_from_kraus(ch.kraus))
    assert np.array_equal(qbirkhoff.choi_block_projection(ch), qbirkhoff.choi_block_projection(ch.kraus))


def test_identity_family_flags():
    fam = KrausFamily.from_ops([np.eye(3)])
    unital, tp = fam.validate()
    assert unital and tp
    assert fam.dim == 3 and fam.index == 1


def test_choi_kraus_roundtrip_on_random_corpus(ds_corpus):
    for ch in ds_corpus:
        back = Channel.from_choi(choi_from_kraus(ch))
        for e in basis_units(ch.dim):
            assert max_abs(ch.apply(e) - back.apply(e)) < 1e-8


def test_superoperator_matches_action_oracle(ds_corpus):
    for ch in ds_corpus[:10]:
        t = superoperator_from_kraus(ch.kraus)
        assert max_abs(t - helpers.super_by_apply(ch)) < 1e-10


def test_real_superoperator_is_the_superoperator_in_a_hermitian_basis():
    gen = np.random.default_rng(1212)
    for n in range(1, 6):
        for d in range(1, 5):
            unital = helpers.random_unitary_mixture(n, d, gen)
            ops = gen.normal(size=(d, n, n)) + 1j * gen.normal(size=(d, n, n))
            for ch in (unital, Channel.from_kraus(ops)):
                r, t = ch.kraus.real_superoperator, superoperator_from_kraus(ch)
                assert r.dtype == np.float64
                scale = max(1.0, np.linalg.norm(t, 2))
                oracle = helpers.real_form_by_apply(ch)
                assert max_abs(oracle.imag) < 1e-12 * scale
                assert max_abs(r - oracle.real) < 1e-12 * scale
                s_r = np.linalg.svd(r, compute_uv=False)
                s_t = np.linalg.svd(t, compute_uv=False)
                assert max_abs(s_r - s_t) < 1e-12 * scale
                # the same multiset: each eigenvalue of T claims its nearest of R
                left = list(np.linalg.eigvals(r))
                for mu in np.linalg.eigvals(t):
                    k = int(np.argmin(np.abs(np.array(left) - mu)))
                    assert abs(left.pop(k) - mu) < 1e-8 * scale


@pytest.mark.parametrize("n", range(1, 11))
def test_identity_real_form_is_exactly_the_identity(n):
    # identity pairs map to I exactly, through the planned gather (n ≤ 8) and the strided one
    assert np.array_equal(identity_channel(n).kraus.real_superoperator, np.eye(n * n))


def test_index_is_gauge_invariant(rng):
    for _ in range(10):
        n = int(rng.integers(2, 4))
        ch = helpers.random_unitary_mixture(n, 3, rng)
        mixed = helpers.gauge_mixed(ch.kraus.ops, helpers.haar_unitary(ch.kraus.index, rng))
        assert Channel.from_kraus(KrausFamily.from_ops(mixed)).index == ch.kraus.index


def _raw_families(gen):
    """Seeded Kraus families on M_n, n = 1..4, none canonical: Gaussian, trace
    preserving and unitary mixtures with d = 1, d = n² − 1 and d = n², and each
    Gaussian one stacked with a gauge-mixed copy of itself, each scaled by 1/√2,
    so d > n²."""
    for n in range(1, 5):
        for d in sorted({1, max(1, n * n - 1), n * n}):
            ops = gen.normal(size=(d, n, n)) + 1j * gen.normal(size=(d, n, n))
            vals, vecs = np.linalg.eigh(np.tensordot(np.conj(ops), ops, axes=([0, 1], [0, 1])))
            p = gen.dirichlet(np.ones(d))
            yield ops
            yield ops @ (vecs / np.sqrt(vals)) @ dagger(vecs)  # Σ v* v = I
            yield np.stack([np.sqrt(w) * helpers.haar_unitary(n, gen) for w in p])
            mixed = helpers.gauge_mixed(ops, helpers.haar_unitary(d, gen))
            yield np.concatenate([ops, mixed]) / np.sqrt(2)


def _assert_same_channel(a, b, same_ops):
    c = choi_from_kraus(a.kraus)
    scale = max(1.0, max_abs(c))
    assert a.index == b.index
    assert a.kraus.validate() == b.kraus.validate()
    assert max_abs(choi_from_kraus(b.kraus) - c) < 1e-12 * scale
    if same_ops:
        assert max_abs(a.kraus.ops - b.kraus.ops) < 1e-12 * scale


def test_from_kraus_agrees_with_the_choi_route():
    gen = np.random.default_rng(1901)
    seen = set()
    for ops in _raw_families(gen):
        ch = Channel.from_kraus(ops)
        ref = Channel.from_choi(choi_from_kraus(ops))
        c = choi_from_kraus(ch)
        assert max_abs(choi_from_kraus(ops) - c) < 1e-12 * max(1.0, max_abs(c))
        _assert_same_channel(ch, ref, helpers.simple_spectrum(ref))
        n2, d = ch.dim**2, len(ops)
        seen.add((d > n2) - (d < n2))
    assert seen == {-1, 0, 1}


def test_from_choi_is_from_kraus_of_the_psd_factor(ds_corpus):
    # one canonicalization route: a Choi matrix enters from_kraus as the operators
    # unvec(√λ u) of its PSD factor, and leaves with their bytes
    gen = np.random.default_rng(1905)
    chois = [choi_from_kraus(ch) for ch in ds_corpus] + [choi_from_kraus(ops) for ops in _raw_families(gen)]
    for c in chois:
        n = int(round(np.sqrt(len(c))))
        ch, ref = Channel.from_choi(c), Channel.from_kraus(unvec(psd_factor(c)[1].T, n))
        assert np.array_equal(ch.kraus.ops, ref.kraus.ops)
        assert ch.kraus.validate() == ref.kraus.validate()
        assert np.array_equal(kraus_from_choi(c).ops, ch.kraus.ops)


def test_choi_from_kraus_matches_the_column_loop():
    gen = np.random.default_rng(1906)
    for ops in _raw_families(gen):
        expect = helpers.choi_by_columns(ops)
        assert max_abs(choi_from_kraus(ops) - expect) <= 1e-15 * max(1.0, max_abs(expect))


def test_from_kraus_is_kraus_gauge_invariant():
    gen = np.random.default_rng(1902)
    for ops in _raw_families(gen):
        ch = Channel.from_kraus(ops)
        d, n = ops.shape[:2]
        mixed = Channel.from_kraus(helpers.gauge_mixed(ops, helpers.haar_unitary(d, gen)))
        zeros = np.zeros((int(gen.integers(1, 4)), n, n))
        padded = Channel.from_kraus(np.concatenate([ops, zeros]))
        for other in (mixed, padded):
            _assert_same_channel(ch, other, helpers.simple_spectrum(ch))


def test_from_kraus_builds_no_choi_matrix(monkeypatch):
    gen = np.random.default_rng(1903)
    families = list(_raw_families(gen))
    expected = [Channel.from_kraus(ops) for ops in families]

    def refuse(*_):
        raise AssertionError("the Choi route was taken")

    monkeypatch.setattr(qbirkhoff.channels, "choi_from_kraus", refuse)
    monkeypatch.setattr(qbirkhoff.channels, "kraus_from_choi", refuse)
    for ops, ch in zip(families, expected):
        again = Channel.from_kraus(ops)
        assert np.array_equal(again.kraus.ops, ch.kraus.ops)
        assert again.kraus.validate() == ch.kraus.validate()


def test_identity_canonicalizes_to_exactly_the_identity():
    for n in range(1, 7):
        ch = identity_channel(n)
        assert np.array_equal(ch.kraus.ops, np.eye(n)[None])
        eigs = classify(ch).eigenvalues
        assert len(eigs) == n * n and np.all(eigs == 1.0 + 0.0j)


def test_canonical_order_matches_the_full_key_sort():
    gen = np.random.default_rng(1904)
    cases = []
    for n in (2, 3, 4):  # one eigenvalue: the entries alone decide the order
        ops = depolarizing_channel(n).kraus.ops
        cases.append((np.full(len(ops), 1.0 / n), ops[gen.permutation(len(ops))]))
    for _ in range(60):
        n, d = int(gen.integers(1, 5)), int(gen.integers(1, 9))
        ops = gen.normal(size=(d, n, n)) + 1j * gen.normal(size=(d, n, n))
        ops[gen.integers(d)] = ops[0]  # entries that tie exactly
        ops[gen.integers(d)] = ops[0] + 1e-14  # and after rounding
        vals = gen.choice([1.0, 0.5, 0.5 + 1e-14, 0.25, gen.uniform()], size=d)
        cases.append((vals, ops))
    for vals, ops in cases:
        fixed = phase_fixed(ops, DEFAULT_TOLERANCE.cutoff)
        got = _canonical_family(vals, ops, DEFAULT_TOLERANCE).ops
        assert np.array_equal(got, fixed[helpers.canonical_order_by_full_key(vals, fixed)])


def _byte_oracle_families(gen):
    # (what, ops): 240 seeded Kraus inputs for the canonical form's byte oracle
    for _ in range(80):  # simple spectra
        n, d = int(gen.integers(1, 5)), int(gen.integers(2, 10))
        yield "simple", gen.normal(size=(d, n, n)) + 1j * gen.normal(size=(d, n, n))
    for _ in range(40):  # exactly duplicated operators: a rank drop
        n, d = int(gen.integers(1, 5)), int(gen.integers(2, 8))
        ops = gen.normal(size=(d, n, n)) + 1j * gen.normal(size=(d, n, n))
        ops[gen.integers(1, d)] = ops[0]
        yield "duplicated", ops
    for _ in range(40):  # orthogonal unitaries at tied weights, gauge-mixed: tied eigenvalues
        n = int(gen.integers(2, 5))
        basis = np.array(weyl_basis(n)[: int(gen.integers(2, n * n + 1))])
        ops = np.sqrt(gen.choice([0.25, 0.5], size=len(basis)))[:, None, None] * basis
        yield "tied", helpers.gauge_mixed(ops, helpers.haar_unitary(len(ops), gen))
    for _ in range(40):  # near-ties 1e-14 apart, in the operators and in the weights
        n, d = int(gen.integers(1, 5)), int(gen.integers(2, 8))
        ops = gen.normal(size=(d, n, n)) + 1j * gen.normal(size=(d, n, n))
        ops[gen.integers(1, d)] = ops[0] + 1e-14
        yield "near-tie", ops
        p, q = gen.uniform(0.1, 0.5, size=2)
        yield "near-tie", np.sqrt([p, p + 1e-14, q, q - 1e-14])[:, None, None] * np.array(weyl_basis(2))
    for _ in range(20):  # one operator
        n = int(gen.integers(1, 6))
        yield "d=1", (gen.normal(size=(1, n, n)) + 1j * gen.normal(size=(1, n, n)))


def test_canonical_kraus_bytes_match_the_loop_oracle():
    gen = np.random.default_rng(1905)
    seen = {}
    for what, ops in _byte_oracle_families(gen):
        got = Channel.from_kraus(ops).kraus.ops
        assert got.tobytes() == helpers.canonical_kraus_by_loop(ops).tobytes(), what
        seen[what] = seen.get(what, 0) + 1
    assert sum(seen.values()) >= 200 and len(seen) == 5


def test_phase_fix_keeps_a_matrix_with_no_entry_above_the_cutoff_bit_for_bit():
    # no canonical operator is that small (its squared norm is above the cutoff), so the
    # stack goes through phase_fixed and _canonical_family directly; its signed zeros stay
    gen = np.random.default_rng(1906)
    for _ in range(20):
        n, d = int(gen.integers(1, 5)), int(gen.integers(2, 7))
        ops = gen.normal(size=(d, n, n)) + 1j * gen.normal(size=(d, n, n))
        small = int(gen.integers(d))
        ops[small] *= 1e-12
        signs = gen.random((2, n, n))
        ops[small].real[signs[0] < 0.5] = -0.0
        ops[small].imag[signs[1] < 0.5] = 0.0
        fixed = phase_fixed(ops, DEFAULT_TOLERANCE.cutoff)
        assert fixed.tobytes() == helpers.phase_fixed_by_loop(ops).tobytes()
        assert fixed[small].tobytes() == ops[small].tobytes()
        vals = np.sort(gen.choice([1.0, 0.5, 0.25], size=d))[::-1]
        got = _canonical_family(vals, ops, DEFAULT_TOLERANCE).ops
        assert got.tobytes() == fixed[helpers.canonical_order_by_full_key(vals, fixed)].tobytes()


def test_zero_within_the_cutoff_has_no_kraus_family():
    for canonicalize, arg in (
        (Channel.from_kraus, [[[1e-6]]]),
        (Channel.from_kraus, 1e-160 * np.ones((2, 2, 2))),  # products are subnormal
        (kraus_from_choi, [[1e-12]]),
    ):
        with pytest.raises(ValueError) as info:
            canonicalize(arg)
        assert type(info.value) is ValueError  # not NotCompletelyPositive (exit 2)


def test_choi_psd_iff_kraus_extraction_succeeds(rng):
    n = 2
    good = helpers.random_ds_choi(n, rng)
    kraus_from_choi(good)  # should not raise
    bad = good - 0.5 * np.eye(4)
    with pytest.raises(NotCompletelyPositive):
        kraus_from_choi(bad)


def test_unital_tp_iff_partial_traces(ds_corpus, rng):
    for ch in ds_corpus[:6]:
        n = ch.dim
        c = choi_from_kraus(ch)
        assert max_abs(partial_trace(c, (n, n), "first") - np.eye(n)) < 1e-9
        assert max_abs(partial_trace(c, (n, n), "second") - np.eye(n)) < 1e-9
    # non-unital example: amplitude-damping-like contraction kept CP+TP
    v1 = np.array([[1, 0], [0, np.sqrt(0.5)]], dtype=complex)
    v2 = np.array([[0, np.sqrt(0.5)], [0, 0]], dtype=complex)
    fam = KrausFamily.from_ops([v1, v2])
    unital, tp = fam.validate()
    assert tp and not unital
    c = choi_from_kraus(fam)
    assert max_abs(partial_trace(c, (2, 2), "second") - np.eye(2)) < 1e-12
    assert max_abs(partial_trace(c, (2, 2), "first") - np.eye(2)) > 1e-3


def test_canonical_kraus_are_orthogonal(ds_corpus):
    for ch in ds_corpus[:8]:
        ops = ch.kraus.ops
        for a in range(len(ops)):
            for b in range(a):
                assert abs(np.vdot(vec(ops[a]), vec(ops[b]))) < 1e-8


def test_adjoint_channel_reverses_kraus(ds_corpus):
    ch = ds_corpus[0]
    adj = adjoint_channel(ch)
    x = np.arange(ch.dim * ch.dim, dtype=complex).reshape(ch.dim, ch.dim)
    direct = sum(dagger(v) @ x @ v for v in ch.kraus.ops)
    assert max_abs(adj.apply(x) - direct) < 1e-10


def _channel_text(ch) -> str:
    return json.dumps(channel_to_dict(ch), indent=2, allow_nan=False)


def test_json_roundtrip(ds_corpus):
    for ch in ds_corpus:
        # the raw (non-canonicalizing) decode recovers the stored operators bit-exactly
        fam = family_from_dict(loads_json(_channel_text(ch)))
        assert np.array_equal(fam.ops, ch.kraus.ops)
        back = Channel.from_kraus(fam)
        assert (back.index, *back.kraus.validate()) == (ch.index, *ch.kraus.validate())
        assert max_abs(choi_from_kraus(back) - choi_from_kraus(ch)) < 1e-12


def test_channel_to_dict_writes_each_entry_as_its_re_im_pair(ds_corpus):
    for ch in ds_corpus:
        # compared as text, where repr tells a signed zero from 0.0
        expect = {"dim": ch.dim, "kraus": helpers.pairs_by_loop(ch.kraus.ops)}
        assert json.dumps(channel_to_dict(ch)) == json.dumps(expect)


def test_json_rejects_non_finite():
    doc = {
        "dim": 2,
        "kraus": [[[ [1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
    }
    text = json.dumps(doc).replace("1.0", "NaN", 1)
    with pytest.raises(ValueError):
        loads_json(text)


def test_family_from_dict_preserves_raw_ops():
    v1 = np.diag([1.0, 0.0]).astype(complex)
    v2 = np.diag([0.0, 1.0]).astype(complex)
    doc = channel_to_dict(Channel.from_kraus(KrausFamily.from_ops([v1, v2])))
    fam = family_from_dict(doc)
    ch = Channel.from_kraus(fam)
    assert fam.index == 2 and ch.kraus.index == 2
    with pytest.raises(ValueError):
        family_from_dict({"dim": 0, "kraus": []})


_EYE = np.eye(2, dtype=complex)

# one fresh instance per call, so two calls give equal but distinct objects
ARRAY_HOLDERS = {
    "KrausFamily": lambda: KrausFamily.from_ops([_EYE]),
    "Channel": lambda: Channel.from_kraus([_EYE]),
    "DependencyCertificate": lambda: qbirkhoff.DependencyCertificate(np.diag([1.0, -1.0]), "CP"),
    "ExtremalDecomposition": lambda: qbirkhoff.ExtremalDecomposition(
        ((1.0, Channel.from_kraus([_EYE])),), 0
    ),
    "ConjugacyCertificate": lambda: qbirkhoff.ConjugacyCertificate(_EYE, _EYE, _EYE),
    "SpectralClassification": lambda: qbirkhoff.SpectralClassification(
        np.ones(4), 4, False, np.ones(4), None, False, False
    ),
    "CyclicFamily": lambda: qbirkhoff.CyclicFamily((_EYE,)),
}


@pytest.mark.parametrize("name", list(ARRAY_HOLDERS))
def test_array_holding_objects_compare_by_identity(name):
    # fields that hold arrays have no truth value: == and in must not ask for one
    a, b = ARRAY_HOLDERS[name](), ARRAY_HOLDERS[name]()
    assert type(a).__name__ == name
    assert a == a and not (a == b) and a != b
    assert a not in [b] and a in [b, a]
    assert hash(a) == hash(a) and len({a, b}) == 2


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3")
def test_load_channel_reproduces_the_saved_bytes(ds_corpus):
    # reading a channel file re-canonicalizes, which moves last bits: the eigh of
    # an already canonical family's Gram matrix returns eigenvectors a few 1e-14
    # off a permutation, and phase_fixed is not a bitwise fixed point (signed
    # zeros, changes of a few 1e-17); a canonical form that is a fixed point
    # shows up as an XPASS
    for ch in ds_corpus:
        text = _channel_text(ch)
        back = Channel.from_kraus(family_from_dict(loads_json(text)))
        assert _channel_text(back) == text


def test_matrix_pairs_roundtrip_and_malformed_input():
    m = np.array([[1.5, -0.0 + 2j], [1e-300j, -3.0]])
    pairs = pairs_array(m).tolist()
    assert pairs == [[[1.5, 0.0], [-0.0, 2.0]], [[0.0, 1e-300], [-3.0, 0.0]]]
    assert np.array_equal(complex_array(json.loads(json.dumps(pairs)), 2, "complex matrix"), m)
    assert pairs_array(np.array([1 + 2j, -1j])).tolist() == [[1.0, 2.0], [-0.0, -1.0]]
    for bad in (
        [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]],  # ragged rows
        [[[1.0, 0.0, 0.0]]],  # triples, not pairs
        [[1.0, 0.0]],  # bare numbers, not pairs
        [[["1", "x"]]],  # not numbers
        [[["1", "0"]]],  # numeric strings
        [[[True, False]]],  # booleans, which numpy would read as 1 and 0
        [[[1.0, None]]],  # null
        [[[10**400, 0]]],  # an integer no float holds
    ):
        with pytest.raises(ValueError):
            complex_array(bad, 2, "complex matrix")
    # JSON integers are numbers, also past 2^64 where numpy holds them as objects
    assert np.array_equal(complex_array([[[2**70, -1]]], 2, "complex matrix"), np.array([[2.0**70 - 1j]]))


# public calls that refuse their input, with the ValueError's message; None marks a
# call whose documented answer is None
LIBRARY_REFUSALS = {
    "from_choi-not-n2-by-n2": (lambda: Channel.from_choi(np.eye(3)), "not n² by n²"),
    "from_choi-zero": (lambda: Channel.from_choi(np.zeros((4, 4))), "Choi matrix is zero"),
    "weyl_mixture-weight-above-1": (
        lambda: qbirkhoff.catalog.weyl_mixture_channel(2, 1.5), r"mixing weight must lie in \[0, 1\]"
    ),
    "decompose-unknown-kind": (
        lambda: qbirkhoff.decompose_extremal(depolarizing_channel(2), kind="CQ"), "unknown extremality kind"
    ),
    "m3_scan-step-1": (lambda: qbirkhoff.m3_real_face_scan(1.0), r"grid_step must lie in \(0, 1\)"),
    "verify_certificate-index-1-and-2": (
        lambda: qbirkhoff.verify_certificate(
            [_EYE], [_EYE / np.sqrt(2)] * 2, qbirkhoff.ConjugacyCertificate(_EYE, np.eye(1), _EYE)
        ),
        "index mismatch: 1 vs 2",
    ),
    "apply-3x3-on-M2": (lambda: depolarizing_channel(2).apply(np.eye(3)), "does not act on M_2"),
    "invariant_projection-ergodic": (lambda: qbirkhoff.invariant_projection(depolarizing_channel(2)), None),
}


@pytest.mark.parametrize("name", list(LIBRARY_REFUSALS))
def test_a_public_call_refuses_its_input_or_answers_none(name):
    call, message = LIBRARY_REFUSALS[name]
    if message is None:
        assert call() is None
    else:
        with pytest.raises(ValueError, match=message):
            call()
