"""End-to-end checks of the command line and the README, as a user runs them.

Each test writes its files under its own ``tmp_path`` and runs ``qbirkhoff.cli.main``
in-process, or ``python -m qbirkhoff.cli`` in a fresh interpreter where the check is
what a user sees on stderr.  Run against an installed package with pytest's
``pythonpath`` setting emptied, from outside the checkout:

    python -m pytest -o pythonpath= <checkout>/tests/test_smoke.py
"""

import io
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import helpers
from qbirkhoff.catalog import weyl_basis
from qbirkhoff.channels import pairs_array
from qbirkhoff.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _unitary_mixture(n, seed):
    # a seeded full-index mixture of n² unitaries, Haar-like by the QR of a Gaussian
    rng = np.random.default_rng(seed)
    ops = []
    for p in rng.dirichlet(np.ones(n * n)):
        q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        ops.append(np.sqrt(p) * q * (np.diag(r) / np.abs(np.diag(r))))
    return np.stack(ops)


def _mixture4():
    # seed 28 at n = 4, in its canonical Kraus form (orthogonal operators by descending
    # norm, first entry real positive), so that its certificates read in the file's
    # operators; index 16 is past both counting bounds, and the walk takes the QR route
    w = _unitary_mixture(4, 28).reshape(16, 16)
    _, vecs = np.linalg.eigh(np.conj(w) @ w.T)
    ops = (vecs[:, ::-1].T @ w).reshape(16, 4, 4)
    ops *= (np.conj(ops[:, 0, 0]) / np.abs(ops[:, 0, 0]))[:, None, None]
    return {"dim": 4, "kraus": pairs_array(ops).tolist()}


PAULIS = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]


def _depolarizing7():
    # the qubit depolarizing family at p = 1e-7: √(1 − 3p/4)·I and √(p/4)·σ_k
    p = 1e-7
    ops = [np.sqrt(1 - 3 * p / 4) * PAULIS[0]] + [np.sqrt(p / 4) * s for s in PAULIS[1:]]
    return {"dim": 2, "kraus": pairs_array(ops).tolist()}


def _split():
    # 1 ⊕ (qubit depolarizing), Kraus ½(1 ⊕ σ_k) for k = 0..3: its superoperator splits
    # into exact diagonal blocks
    ops = [0.5 * np.block([[np.eye(1), np.zeros((1, 2))], [np.zeros((2, 1)), p]]) for p in PAULIS]
    return {"dim": 3, "kraus": pairs_array(ops).tolist()}


def _sinkhorn25():
    # a seeded Sinkhorn-balanced n = 25 matrix, a generic interior point: 577 terms
    s = np.random.default_rng(25).uniform(0.1, 1.0, size=(25, 25))
    for _ in range(500):
        s /= s.sum(axis=1, keepdims=True)
        s /= s.sum(axis=0, keepdims=True)
    return {"n": 25, "rows": s.tolist()}


def _weyl(scale):
    # I, v and u of the qutrit Weyl basis at weights 0.5, 0.3 and 0.2, each entry times scale
    ops = np.stack([np.sqrt(p) * u for p, u in zip((0.5, 0.3, 0.2), weyl_basis(3))])
    return {"dim": 3, "kraus": pairs_array(ops * np.reshape(scale(ops.size), ops.shape)).tolist()}


INPUTS = {
    "ds.json": lambda: {"n": 3, "rows": [[0.5, 0.5, 0.0], [0.25, 0.25, 0.5], [0.25, 0.25, 0.5]]},
    "ds1.json": lambda: {"n": 1, "rows": [[1.0]]},
    "ds4.json": lambda: {
        "n": 4,
        "rows": [[0.5, 0.25, 0.25, 0.0], [0.25, 0.5, 0.0, 0.25], [0.25, 0.0, 0.5, 0.25], [0.0, 0.25, 0.25, 0.5]],
    },
    "sinkhorn.json": _sinkhorn25,
    "fullrank6.json": lambda: {"dim": 6, "kraus": pairs_array(_unitary_mixture(6, 29)).tolist()},
    "depolarizing7.json": _depolarizing7,
    "split.json": _split,
    "mixture.json": _mixture4,
    "weyl.json": lambda: _weyl(np.ones),
    # entry k scaled by 1 + 1e-15·cos(k): a last-bit perturbation
    "moved.json": lambda: _weyl(lambda size: 1.0 + 1e-15 * np.cos(np.arange(size))),
}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """An empty working directory; ``workdir(name, ...)`` writes those INPUTS into it."""
    monkeypatch.chdir(tmp_path)

    def write(*names):
        for name in names:
            (tmp_path / name).write_text(json.dumps(INPUTS[name]()))

    return write


def cli(capsys, *argv):
    """stdout of ``qbirkhoff argv``, which must exit 0."""
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, argv
    return out


def cli_json(capsys, *argv):
    return json.loads(cli(capsys, *argv, "--json"))


def _complex(pairs):
    a = np.asarray(pairs)
    return a[..., 0] + 1j * a[..., 1]


# --- refusals ---------------------------------------------------------------


@pytest.mark.parametrize("text", ['{"dim": 1, "kraus": 5}', '{"dim": 1, "kraus": [[[["1", "0"]]]]}'])
def test_a_malformed_channel_on_stdin_is_an_error_line_and_exit_1(capsys, monkeypatch, text):
    # an escaped exception would also exit 1, but its stderr would start "Traceback";
    # JSON numbers only, so a numeric string is invalid input
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["analyze", "-", "--json"]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "stdin",
    [
        '{"dim": 1, "kraus": [[[[1e308, 0]]]]}',
        '{"dim": 1, "kraus": [[[[1e-6, 0]]]]}',
        "[" * 100000 + "]" * 100000,
    ],
    ids=["1e308", "1e-6", "deep-nesting"],
)
def test_a_fresh_process_writes_one_error_line_and_no_numpy_warning(stdin):
    # an entry whose square overflows, a nonzero map whose Choi eigenvalues all lie
    # within the rank cutoff (no Kraus family, not an index-0 channel), and a document
    # nested past the decoder's recursion limit: invalid input, and the error line is
    # all of stderr, with no numpy warning or traceback before it
    got = helpers.run_module("analyze", "-", "--json", stdin=stdin)
    assert got.returncode == 1
    assert len(got.stderr.splitlines()) == 1 and got.stderr.startswith("error:")


# --- answers ----------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, terms, bound",
    [
        ("depolarizing --n 3", 6, None),
        ("ex2.9", 3, None),
        # every term is extremal within the counting bounds: index ≤ isqrt(2n² − 1) for
        # CP_phi and ≤ n for CP
        ("depolarizing --n 4", None, math.isqrt(31)),
        ("depolarizing --n 3 --kind CP", None, 3),
        # at n = 5 the walk's rank tests take both values-first branches: full column
        # rank decided by the singular values alone, and a drop that then needs the vectors
        ("depolarizing --n 5", None, math.isqrt(49)),
    ],
)
def test_decompose_splits_into_bounded_terms_whose_weights_sum_to_1(capsys, argv, terms, bound):
    got = cli_json(capsys, "decompose", *argv.split())
    assert terms is None or len(got) == terms
    assert bound is None or all(len(t["channel"]["kraus"]) <= bound for t in got)
    assert abs(sum(t["weight"] for t in got) - 1.0) < 1e-12


def test_past_both_counting_bounds_each_certificate_is_supported_on_the_first_j(capsys):
    # index 16: not extremal, with j = 5 (CP) and 6 (CP_phi)
    r = cli_json(capsys, "analyze", "depolarizing", "--n", "4")
    assert r["index"] == 16
    for key, j in (("choi_extremal", 5), ("landau_streater", 6)):
        assert r[key]["extremal"] is False
        lam = r[key]["certificate"]["lambda"]
        assert any(x != [0.0, 0.0] for row in lam[:j] for x in row[:j])
        assert all(x == [0.0, 0.0] for a, row in enumerate(lam) for b, x in enumerate(row) if max(a, b) >= j)


def test_certificates_are_hermitian_entry_for_entry(capsys):
    # each lambda[a][b] is [re, -im] of lambda[b][a], and the diagonal is real
    r = cli_json(capsys, "analyze", "ex2.12")
    for key in ("choi_extremal", "landau_streater"):
        lam = r[key]["certificate"]["lambda"]
        assert all(lam[a][b] == [lam[b][a][0], -lam[b][a][1]] for a in range(len(lam)) for b in range(len(lam)))
        assert all(repr(lam[a][a][1]) == "0.0" for a in range(len(lam)))


@pytest.mark.parametrize("source", ["mixture.json", "depolarizing --n 3"])
def test_certificates_from_the_qr_and_from_the_svd_solve_the_relation(capsys, workdir, source):
    # the mixture is past both counting bounds and takes the QR route; depolarizing --n 3,
    # whose R shows a rank drop, takes the SVD route
    if source in INPUTS:
        workdir(source)
        doc = json.loads(Path(source).read_text())
    else:
        doc = cli_json(capsys, "example", *source.split())
    ops = _complex(doc["kraus"])
    r = cli_json(capsys, "analyze", *source.split())
    for key in ("choi_extremal", "landau_streater"):
        assert r[key]["extremal"] is False, key
        lam = _complex(r[key]["certificate"]["lambda"])
        assert np.array_equal(lam, lam.conj().T), key
        assert abs(np.linalg.norm(lam, 2) - 1.0) < 1e-12, key
        fwd = np.einsum("ij,iab,jcb->ac", lam, ops, ops.conj())
        rev = np.einsum("ij,jba,ibc->ac", lam, ops.conj(), ops)
        assert np.abs(fwd).max() < 1e-8, key
        assert key == "choi_extremal" or np.abs(rev).max() < 1e-8, key


def test_certificates_hold_under_a_last_bit_perturbation(capsys, workdir):
    # both null spaces have dimension above 1, and the certificates depend on the
    # null space alone
    workdir("weyl.json", "moved.json")
    a, b = (cli_json(capsys, "analyze", name) for name in ("weyl.json", "moved.json"))
    for key in ("choi_extremal", "landau_streater"):
        assert a[key]["extremal"] is False and b[key]["extremal"] is False
        x, y = (r[key]["certificate"]["lambda"] for r in (a, b))
        gap = max(abs(p - q) for rx, ry in zip(x, y) for ex, ey in zip(rx, ry) for p, q in zip(ex, ey))
        assert gap < 1e-12, (key, gap)


def test_a_full_rank_n6_mixture_has_two_36_by_36_certificates(capsys, workdir):
    workdir("fullrank6.json")
    r = cli_json(capsys, "analyze", "fullrank6.json")
    assert r["index"] == 36
    assert all(len(r[key]["certificate"]["lambda"]) == 36 for key in ("choi_extremal", "landau_streater"))


def test_classify_a_superoperator_of_exact_diagonal_blocks(capsys, workdir):
    # the unit of each block is fixed
    workdir("split.json")
    r = cli_json(capsys, "classify", "split.json")
    assert r["fixed_dim"] == 2 and r["ergodic"] is False


@pytest.mark.parametrize("n", [3, 8, 9])
def test_the_identity_s_spectrum_is_exactly_1(capsys, n):
    # an all-real spectrum, for which eigvals returns a float array; the real form is I
    # exactly on both sides of the pair map's 4096-entry plan cap: n = 8 gathers through
    # the plan (n⁴ = 4096), n = 9 by strided blocks
    r = cli_json(capsys, "classify", "identity", "--n", str(n))
    assert r["fixed_dim"] == n * n and len(r["eigenvalues"]) == n * n
    assert all(e == [1.0, 0.0] for e in r["eigenvalues"])


@pytest.mark.parametrize("argv, fixed_dim", [((), 9), (("--tol", "1e-12"), 1)])
def test_tol_moves_fixed_dim(capsys, argv, fixed_dim):
    # fixed_dim counts the eigenvalues with |λ − 1| at the cutoff: every eigenvalue of
    # λ·τ + (1 − λ)·identity at λ = 1e-11 lies within 2e-11 of 1
    assert cli_json(capsys, "classify", "ex2.12", "--lam", "1e-11", *argv)["fixed_dim"] == fixed_dim


@pytest.mark.parametrize("argv", ["analyze ex2.12", "classify ex2.12", "decompose ex2.12", "conjugacy ex2.12 ex2.12"])
def test_spelling_out_the_default_tol_prints_the_same_bytes(capsys, argv):
    assert cli(capsys, *argv.split(), "--json") == cli(capsys, *argv.split(), "--tol", "1e-9", "--json")


def test_birkhoff_terms_of_a_three_permutation_mixture(capsys, workdir):
    workdir("ds4.json")
    assert cli_json(capsys, "birkhoff", "ds4.json") == [
        {"weight": 0.5, "permutation": [0, 1, 2, 3]},
        {"weight": 0.25, "permutation": [1, 0, 3, 2]},
        {"weight": 0.25, "permutation": [2, 3, 0, 1]},
    ]


def test_birkhoff_of_a_sinkhorn_balanced_n25_matrix_has_577_terms(capsys, workdir):
    workdir("sinkhorn.json")
    assert len(cli_json(capsys, "birkhoff", "sinkhorn.json")) == 577


BYTE_RULE_ARGVS = [
    "example ex2.12",
    "analyze depolarizing --n 3",
    "birkhoff ds.json",
    "birkhoff sinkhorn.json",
    "birkhoff ds1.json",
    "birkhoff ds4.json",
    "analyze fullrank6.json",
    "classify depolarizing7.json --tol 1e-6",
]


@pytest.mark.parametrize("argv", BYTE_RULE_ARGVS)
def test_stdout_is_the_stdlib_indent_2_rendering_of_its_payload(capsys, workdir, argv):
    workdir(*(word for word in argv.split() if word in INPUTS))
    text = cli(capsys, *argv.split(), "--json")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


# --- the README -------------------------------------------------------------


def _readme_blocks(language):
    return re.findall(r"^```%s\n(.*?)^```$" % language, README.read_text(encoding="utf-8"), re.M | re.S)


def test_the_readme_quick_start_runs_as_its_comments_say(capsys):
    scope = {}
    exec(compile(_readme_blocks("python")[0], str(README), "exec"), scope)
    dec, ch = scope["dec"], scope["ch"]
    assert scope["extremal"] is False and scope["cert"] is not None
    assert dec.depth == 1 and len(dec.terms) == 2
    assert all(abs(w - 0.5) < 1e-12 for w, _ in dec.terms)
    assert dec.reconstruction_error(ch) < 1e-12
    assert capsys.readouterr().out.splitlines()[1] == "True 3 False"
    assert len(scope["fam"].projections) == 3


def _readme_shell_lines():
    for block in _readme_blocks("sh"):
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["qbirkhoff"]:
                yield words


def _readme_example(key):
    # the README's file-format example whose object has this key
    (doc,) = [doc for doc in map(json.loads, _readme_blocks("json")) if key in doc]
    return doc


def test_the_readme_command_lines_exit_0(capsys, monkeypatch, workdir):
    # the files they name are the README's own examples: a channel conjugate to itself
    # by the certificate, and a stochastic matrix
    for name, key in (("a.json", "kraus"), ("b.json", "kraus"), ("cert.json", "u"), ("matrix.json", "rows")):
        Path(name).write_text(json.dumps(_readme_example(key)))
    lines = list(_readme_shell_lines())
    assert len(lines) == 9
    for words in lines:
        out = ""
        for command in " ".join(words).split(" | "):
            argv, target = command.split()[1:], None
            if ">" in argv:
                argv, target = argv[: argv.index(">")], argv[argv.index(">") + 1]
            monkeypatch.setattr("sys.stdin", io.StringIO(out))
            out = cli(capsys, *argv)
            if target:
                Path(target).write_text(out)
        if "--certificate" in words:
            assert json.loads(out)["verdict"] == "certificate verified: conjugate"


def _readme_contracts():
    # the "- **Title.** ..." entries of the README's Contracts section, keyed by title
    section = README.read_text(encoding="utf-8").partition("\n## Contracts\n")[2].split("\n## ")[0]
    return {re.sub(r"\W+", "-", e.split("**")[1].lower()).strip("-"): e for e in section.split("\n- ")[1:] if "**" in e}


CONTRACTS = _readme_contracts()


def test_the_readme_lists_eight_contracts():
    # nine since the classify contract joined; the name stays so the test id is stable
    assert " ".join(CONTRACTS) == "term-bounds canonical-form-as-it-stands tol classify-reads-the-family-as-given no-recursion-limit-deep-nesting-refused exit-codes stdout-byte-rule file-formats builtin-flag-routing"


@pytest.mark.parametrize("contract", list(CONTRACTS.values()), ids=list(CONTRACTS))
def test_every_test_the_readme_names_as_a_contract_exists(contract):
    named = re.findall(r"`tests/(\w+\.py)::(\w+)`", contract)
    assert named, contract
    for module, name in named:
        source = (Path(__file__).parent / module).read_text(encoding="utf-8")
        assert re.search(rf"^def {name}\(", source, re.M), f"{module}::{name}"
