import json

import numpy as np
import pytest

from qbirkhoff import (
    Channel,
    ConjugacyCertificate,
    KrausFamily,
    choi_block_intertwiner,
    choi_block_projection,
    choi_extremal_test,
    conjugate_channel,
    conjugate_data_test,
    data_matrix,
    spectrum_invariant,
    verify_certificate,
)
from qbirkhoff.catalog import build_example, build_family, diagonal_pair_family, spin_triple_family
from qbirkhoff.cli import main
from qbirkhoff.conjugacy import certificate_from_dict, certificate_to_dict, spectra_match
from qbirkhoff.numerics import DEFAULT_TOLERANCE, NumericalFailure, Tolerance, dagger, max_abs

import helpers


def test_diagonal_pair_data_matrix_frozen():
    dm = data_matrix(diagonal_pair_family())
    expect = np.array([[0.5, (1 - 1j) / 8], [(1 + 1j) / 8, 0.5]])
    assert max_abs(dm - expect) < 1e-12
    assert abs(np.trace(dm) - 1.0) < 1e-12


def test_data_matrix_trace_one_on_corpus(ds_corpus):
    for ch in ds_corpus[:8]:
        dm = data_matrix(ch)
        assert abs(np.trace(dm) - 1.0) < 1e-10
        vals = spectrum_invariant(dm)
        assert vals[-1] > -1e-10  # PSD


def test_data_matrix_with_custom_state(rng):
    fam = diagonal_pair_family()
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    dm = data_matrix(fam, state=rho)
    direct = np.array(
        [
            [np.trace(rho @ a @ dagger(b)) for b in fam.ops]
            for a in fam.ops
        ]
    )
    assert max_abs(dm - direct) < 1e-12
    with pytest.raises(ValueError):
        data_matrix(fam, state=np.diag([0.9, 0.3, -0.1, -0.1]))
    with pytest.raises(ValueError):
        data_matrix(fam, state=np.diag([1.0, 1.0, 0.0, 0.0]))
    off = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    off[0, 1] = 1e-3  # PSD-looking, but not hermitian
    with pytest.raises(ValueError, match="not hermitian"):
        data_matrix(fam, state=off)


def test_trivial_certificate():
    ch = diagonal_pair_family()
    cert = ConjugacyCertificate(u=np.eye(4), g=np.eye(2), w=np.eye(4))
    assert verify_certificate(ch, ch, cert)


def test_antiunitary_certificate_against_adjoint_family():
    fam = diagonal_pair_family()
    adjoint = KrausFamily.from_ops([dagger(v) for v in fam.ops])
    cert = ConjugacyCertificate(
        u=np.eye(4), g=np.eye(2), w=np.eye(4), antiunitary=True
    )
    assert verify_certificate(fam, adjoint, cert)
    # and the invariant agrees, as it must for any verified certificate
    s1 = spectrum_invariant(data_matrix(fam))
    s2 = spectrum_invariant(data_matrix(adjoint))
    assert max_abs(s1 - s2) < 1e-9


def test_unitary_rotation_certificate(rng):
    for n in (2, 3):
        ch = helpers.random_ds_channel(n, rng)
        q = helpers.haar_unitary(n, rng)
        rotated = KrausFamily.from_ops([q @ v @ dagger(q) for v in ch.kraus.ops])
        d = ch.kraus.index
        cert = ConjugacyCertificate(u=q, g=np.eye(d), w=np.eye(n))
        assert verify_certificate(ch.kraus, rotated, cert)
        s1 = spectrum_invariant(data_matrix(ch.kraus))
        s2 = spectrum_invariant(data_matrix(rotated))
        assert max_abs(s1 - s2) < 1e-9


def test_wrong_certificate_rejected(rng):
    ch = helpers.random_ds_channel(2, rng)
    q = helpers.haar_unitary(2, rng)
    rotated = KrausFamily.from_ops([q @ v @ dagger(q) for v in ch.kraus.ops])
    bad = ConjugacyCertificate(
        u=helpers.haar_unitary(2, rng), g=np.eye(ch.kraus.index), w=np.eye(2)
    )
    assert not verify_certificate(ch.kraus, rotated, bad)


def test_a_certificate_that_is_not_unitary_is_refused():
    # the zero certificate solves the relation outright, and (2I, I, 4I) solves it
    # since 2v·2 = 4v; neither is a unitary triple, so neither verifies
    ch = build_example("ex2.12")
    n, d = ch.dim, ch.index
    assert (n, d) == (3, 2)
    assert verify_certificate(ch, ch, ConjugacyCertificate(u=np.eye(n), g=np.eye(d), w=np.eye(n)))
    zero = ConjugacyCertificate(u=np.zeros((n, n)), g=np.zeros((d, d)), w=np.zeros((n, n)))
    scaled = ConjugacyCertificate(u=2 * np.eye(n), g=np.eye(d), w=4 * np.eye(n))
    assert not verify_certificate(ch, ch, zero)
    assert not verify_certificate(ch, ch, scaled)
    # one factor off unitary by more than the cutoff is enough; within it still verifies
    for name, scale, verified in (("u", 1 + 1e-8, False), ("g", 1 + 1e-8, False), ("w", 1 + 1e-12, True)):
        factors = {"u": np.eye(n), "g": np.eye(d), "w": np.eye(n)}
        factors[name] = scale * factors[name]
        assert verify_certificate(ch, ch, ConjugacyCertificate(**factors)) is verified, name


@pytest.mark.parametrize("name, params", [("ex2.12", {}), ("depolarizing", {"n": 2})])
def test_the_cli_prints_the_failed_verdict_for_an_all_zero_certificate(tmp_path, capsys, name, params):
    fam = build_family(name, **params)
    n, d = fam.dim, fam.index
    path = tmp_path / "zero.json"
    zero = ConjugacyCertificate(u=np.zeros((n, n)), g=np.zeros((d, d)), w=np.zeros((n, n)))
    path.write_text(json.dumps(certificate_to_dict(zero)))
    flags = [f"--{key}={value}" for key, value in params.items()]
    code = main(["conjugacy", name, name, *flags, "--certificate", str(path), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["spectra_match"] is True
    assert report["certificate_verified"] is False
    assert report["verdict"] == "certificate FAILED verification (invariants match)"


def test_conjugate_data_test_finds_g(rng):
    ch = helpers.random_ds_channel(3, rng)
    q = helpers.haar_unitary(3, rng)
    rotated = KrausFamily.from_ops([q @ v @ dagger(q) for v in ch.kraus.ops])
    da, db = data_matrix(ch.kraus), data_matrix(rotated)
    g = conjugate_data_test(da, db)
    assert g is not None
    assert max_abs(g @ da @ dagger(g) - db) < 1e-7


def test_conjugate_data_test_rejects_different_spectra(rng):
    a = data_matrix(helpers.random_ds_channel(3, rng))
    b = data_matrix(helpers.random_ds_channel(3, rng))
    # two independent random channels essentially never share a spectrum
    assert conjugate_data_test(a, b) is None


def test_conjugacy_verdicts_match_the_trace_loop_data_matrices(ds_corpus):
    # each corpus channel against a Kraus-gauge mix of itself (D' = u D u*, conjugate) and
    # against the next channel (distinct spectra): the Gram-product data matrices give the
    # verdicts of the hermitized tr(ρ v_i v_j*) loop
    gen = np.random.default_rng(2750)

    def by_loop(fam):
        dm = helpers.data_matrix_by_loop(fam, np.eye(fam.dim) / fam.dim)
        return (dm + dagger(dm)) / 2.0

    verdicts = []
    for ch, other in zip(ds_corpus, ds_corpus[1:] + ds_corpus[:1]):
        mixed = KrausFamily(helpers.gauge_mixed(ch.kraus.ops, helpers.haar_unitary(ch.index, gen)))
        for fam in (mixed, other.kraus):
            got = (data_matrix(ch), data_matrix(fam))
            loop = (by_loop(ch.kraus), by_loop(fam))
            verdict = spectra_match(*map(spectrum_invariant, got)), conjugate_data_test(*got) is not None
            assert verdict == (spectra_match(*map(spectrum_invariant, loop)), conjugate_data_test(*loop) is not None)
            verdicts.append(verdict)
    assert verdicts == [(True, True), (False, False)] * len(ds_corpus)


def test_spectra_match_follows_the_tolerance():
    # entries within tol.residual = 10·cutoff agree: 1e-8 at the default
    a = np.array([0.75, 0.25])
    for gap, tol, match in (
        (5e-8, DEFAULT_TOLERANCE, False),
        (5e-8, Tolerance(1e-8), True),
        (5e-12, Tolerance(1e-13), False),
    ):
        assert spectra_match(a, a + [gap, -gap], tol) is match, (gap, tol)
    assert spectra_match(a, a + [5e-9, -5e-9]) is True
    # two empty spectra agree; spectra of different sizes never do
    assert spectra_match([], []) is True and spectra_match([], a) is False
    # conjugate_data_test reads the same cutoff
    dm = np.diag([0.75, 0.25])
    assert conjugate_data_test(dm, dm + np.diag([5e-8, -5e-8])) is None
    assert conjugate_data_test(dm, dm + np.diag([5e-8, -5e-8]), Tolerance(1e-8)) is not None


def test_block_projection_identity():
    p, is_proj = choi_block_projection(KrausFamily.from_ops([np.eye(2)]))
    assert is_proj
    assert max_abs(p - np.eye(2)) < 1e-12


def test_block_projection_diagonal_pair():
    p, is_proj = choi_block_projection(diagonal_pair_family())
    assert is_proj and p.shape == (8, 8)
    assert max_abs(p @ p - p) < 1e-12
    assert max_abs(p - dagger(p)) < 1e-12
    assert abs(np.trace(p).real - 4) < 1e-12  # rank n = 4


def test_block_projection_fails_off_the_class():
    # unital but not trace-preserving: idempotency genuinely breaks
    v1 = np.array([[1, 0], [0, np.sqrt(0.5)]], dtype=complex)
    v2 = np.array([[0, 0], [np.sqrt(0.5), 0]], dtype=complex)
    fam = KrausFamily.from_ops([v1, v2])
    unital, tp = fam.validate()
    assert unital and not tp
    p, is_proj = choi_block_projection(fam)
    assert not is_proj
    assert max_abs(p @ p - p) > 1e-6


def test_block_projection_trace_preserving_boundary():
    # P² = P needs only Σ v_i* v_i = I, so a trace-preserving family that is
    # not unital still yields an exact idempotent; the doubly stochastic flag
    # is the stronger classifier and stays false here.
    v1 = np.array([[1, 0], [0, np.sqrt(0.5)]], dtype=complex)
    v2 = np.array([[0, np.sqrt(0.5)], [0, 0]], dtype=complex)
    fam = KrausFamily.from_ops([v1, v2])
    unital, tp = fam.validate()
    assert tp and not unital
    p, is_proj = choi_block_projection(fam)
    assert not is_proj
    assert max_abs(p @ p - p) < 1e-12


def test_block_projection_flag_follows_the_tolerance():
    # unit defects of about 2ε, between the default 1e-9 and 1e-6; from ε = 2e-7 the
    # intertwiner's ‖uu* − I‖ (about 4ε) is past the fixed 1e-7 structural cutoff too
    loose = Tolerance(1e-6)
    for eps in (1e-8, 2e-7, 4e-7):
        fam = KrausFamily.from_ops([(1.0 + eps) * np.eye(2)])
        assert choi_block_projection(fam, loose)[1]
        assert not choi_block_projection(fam)[1]
        w, u = choi_block_intertwiner(fam, fam, loose)
        assert max_abs(u - np.eye(2)) < 5 * eps  # u = (1 + ε)²·I
        with pytest.raises(ValueError, match="not doubly stochastic"):
            choi_block_intertwiner(fam, fam)


def test_intertwiner_trivial():
    fam = diagonal_pair_family()
    w, u = choi_block_intertwiner(fam, fam)
    assert max_abs(w - np.eye(8)) < 1e-9
    assert max_abs(u - np.eye(4)) < 1e-9


def test_intertwiner_between_random_pairs(rng):
    # the (u, W) action is transitive: any two doubly stochastic families of
    # equal dimension and index admit a verified intertwining pair
    for n in (2, 3):
        a = helpers.random_ds_channel(n, rng)
        b = helpers.random_ds_channel(n, rng)
        if a.kraus.index != b.kraus.index:
            continue
        w, u = choi_block_intertwiner(a.kraus, b.kraus)
        nd = n * a.kraus.index
        assert max_abs(w @ dagger(w) - np.eye(nd)) < 1e-7
        assert max_abs(u @ dagger(u) - np.eye(n)) < 1e-7
        pa, _ = choi_block_projection(a.kraus)
        pb, _ = choi_block_projection(b.kraus)
        assert max_abs(dagger(w) @ pa @ w - pb) < 1e-7
        # defining relation: u l_j* = Σ_k v_k* W_kj
        for j in range(b.kraus.index):
            rhs = sum(
                dagger(a.kraus.ops[k]) @ w[k * n : (k + 1) * n, j * n : (j + 1) * n]
                for k in range(a.kraus.index)
            )
            assert max_abs(u @ dagger(b.kraus.ops[j]) - rhs) < 1e-7


def test_intertwiner_requires_doubly_stochastic():
    v1 = np.array([[1, 0], [0, np.sqrt(0.5)]], dtype=complex)
    v2 = np.array([[0, np.sqrt(0.5)], [0, 0]], dtype=complex)
    bad = KrausFamily.from_ops([v1, v2])
    with pytest.raises(ValueError):
        choi_block_intertwiner(bad, bad)


def test_conjugate_channel_spin_triple():
    fam = spin_triple_family()
    conj = conjugate_channel(fam)
    signs = (1.0, -1.0, 1.0)  # conjugation fixes l_x, l_z and negates l_y
    for sign, a, b in zip(signs, fam.ops, conj.ops):
        assert max_abs(b - sign * a) < 1e-12
    assert conj.validate() == (True, True)


def test_conjugate_channel_diagonal_pair():
    fam = diagonal_pair_family()
    conj = conjugate_channel(fam)
    for a, b in zip(fam.ops, conj.ops):
        assert max_abs(b - dagger(a)) < 1e-12  # diagonal: conjugate = adjoint


def test_conjugate_channel_is_the_conjugated_family_as_given():
    # conj(I/√2) twice is a family of index 2; its channel is the identity, of Choi
    # rank 1 and so extremal, which a channel kept at index 2 would call not extremal
    r = 1.0 / np.sqrt(2.0)
    conj = conjugate_channel([r * np.eye(2), r * np.eye(2)])
    assert isinstance(conj, KrausFamily) and conj.index == 2
    ch = Channel.from_kraus(conj)
    assert ch.index == 1 and choi_extremal_test(ch)[0]


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        verify_certificate(
            KrausFamily.from_ops([np.eye(2)]),
            KrausFamily.from_ops([np.eye(3)]),
            ConjugacyCertificate(u=np.eye(2), g=np.eye(1), w=np.eye(2)),
        )


@pytest.mark.parametrize("antiunitary", [False, True])
def test_certificate_dict_roundtrip(rng, antiunitary):
    cert = ConjugacyCertificate(
        u=helpers.haar_unitary(3, rng),
        g=helpers.haar_unitary(2, rng),
        w=helpers.haar_unitary(3, rng),
        antiunitary=antiunitary,
    )
    text = json.dumps(certificate_to_dict(cert))
    expect = {name: helpers.pairs_by_loop(getattr(cert, name)) for name in ("u", "g", "w")}
    assert text == json.dumps({**expect, "antiunitary": antiunitary})
    back = certificate_from_dict(json.loads(text))
    for name in ("u", "g", "w"):
        assert np.array_equal(getattr(back, name), getattr(cert, name))
    assert back.antiunitary is antiunitary
    assert json.dumps(certificate_to_dict(back)) == text
