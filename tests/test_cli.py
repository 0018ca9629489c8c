import argparse
import io
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import helpers
import qbirkhoff.cli as cli
from qbirkhoff.birkhoff import PermutationDecomposition, birkhoff_decompose, decomposition_to_dicts
from qbirkhoff.cli import build_parser, main
from qbirkhoff.extremality import CP, CP_PHI, ExtremalDecomposition, decompose_extremal
from qbirkhoff.channels import channel_to_dict, pairs_array
from qbirkhoff.numerics import DEFAULT_TOLERANCE
from qbirkhoff.catalog import BUILTINS, build_example


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_example_emits_channel_json(capsys):
    code, out, _ = run_cli(capsys, "example", "ex2.4")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 4
    assert len(doc["kraus"]) == 2


def test_example_unknown_name(capsys):
    # the message itself, not the repr that str() of a KeyError gives
    code, out, err = run_cli(capsys, "example", "nope")
    assert code == 1 and out == ""
    assert err == f"error: unknown example 'nope'; known: {', '.join(BUILTINS)}\n"


def test_analyze_builtin_spin_triple(capsys):
    code, out, err = run_cli(capsys, "analyze", "ex2.11", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["dim"] == 3
    assert report["index"] == 3
    assert report["unital"] and report["trace_preserving"]
    assert report["choi_extremal"]["extremal"] is True
    assert report["landau_streater"]["extremal"] is True
    assert err == ""  # --json mutes the prose


def test_analyze_prose_goes_to_stderr(capsys):
    code, out, err = run_cli(capsys, "analyze", "ex2.12", "--m", "2")
    assert code == 0
    json.loads(out)  # stdout stays machine-readable
    assert "index" in err


# the stderr note of a subcommand on a builtin, byte for byte; decompose's and
# birkhoff's are pinned beside their reconstruction errors below
STDERR_NOTES = {
    ("analyze", "ex2.12"): "channel on M_3, index 2 (unital, trace-preserving)\n"
    "unital cone: not extremal\ndoubly stochastic set: not extremal\n"
    "spectral: fixed_dim 1, ergodic, period 3\n",
    ("analyze", "ex2.11"): "channel on M_3, index 3 (unital, trace-preserving)\n"
    "unital cone: extremal\ndoubly stochastic set: extremal\n"
    "spectral: fixed_dim 1, ergodic, period 1, strongly mixing\n",
    ("analyze", "identity"): "channel on M_2, index 1 (unital, trace-preserving)\n"
    "unital cone: extremal\ndoubly stochastic set: extremal\nspectral: fixed_dim 4, non-ergodic\n",
    ("analyze", "m2"): "channel on M_2, index 2 (unital, not trace-preserving)\nunital cone: extremal\n",
    ("classify", "ex2.12", "--m", "3"): "fixed_dim 1; ergodic; period 1; strongly mixing\n",
    ("classify", "ex2.12"): "fixed_dim 1; ergodic; period 3\n",
    ("classify", "identity"): "fixed_dim 4; non-ergodic\n",
    ("conjugacy", "ex2.4", "ex2.4"): "invariants match (no certificate supplied)\n",
    ("conjugacy", "ex2.12", "ex2.11"): "invariants differ: not conjugate\n",
    ("example", "ex2.4"): "ex2.4: channel on M_4, index 2\n",
    ("example", "depolarizing", "--n", "3"): "depolarizing: channel on M_3, index 9\n",
}


@pytest.mark.parametrize("argv", list(STDERR_NOTES), ids=" ".join)
def test_stderr_notes_are_pinned_and_json_mutes_them(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == STDERR_NOTES[argv]
    assert run_cli(capsys, *argv, "--json") == (0, out, "")


def test_stderr_notes_of_a_channel_file_and_of_certificates(tmp_path, capsys):
    damping = tmp_path / "damping.json"  # trace-preserving, not unital: no extremality lines
    damping.write_text(json.dumps({"dim": 2, "kraus": pairs_array([[[1, 0], [0, 0]], [[0, 1], [0, 0]]]).tolist()}))
    assert run_cli(capsys, "analyze", str(damping))[2] == (
        "channel on M_2, index 2 (not unital, trace-preserving)\n"
    )
    u, swap = pairs_array(np.eye(4)).tolist(), np.array([[0, 1], [1, 0]])
    for g, verdict in (
        (np.eye(2), "certificate verified: conjugate\n"),
        (swap, "certificate FAILED verification (invariants match)\n"),
    ):
        cpath = tmp_path / "cert.json"
        cpath.write_text(json.dumps({"u": u, "g": pairs_array(g).tolist(), "w": u, "antiunitary": False}))
        assert run_cli(capsys, "conjugacy", "ex2.4", "ex2.4", "--certificate", str(cpath))[2] == verdict


def test_analyze_reports_certificate_for_weyl_pair(capsys):
    code, out, _ = run_cli(capsys, "analyze", "ex2.12", "--m", "2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["landau_streater"]["extremal"] is False
    cert = np.array([[c[0] + 1j * c[1] for c in row] for row in report["landau_streater"]["certificate"]["lambda"]])
    assert np.max(np.abs(cert - np.diag([1.0, -1.0]))) < 1e-9
    assert report["spectral"]["ergodic"] is True
    assert report["spectral"]["period"] == 3


def test_analyze_byte_stable(capsys):
    code1, out1, _ = run_cli(capsys, "analyze", "ex2.4", "--json")
    code2, out2, _ = run_cli(capsys, "analyze", "ex2.4", "--json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_analyze_channel_file_and_stdin(tmp_path, capsys, monkeypatch):
    text = json.dumps(channel_to_dict(build_example("identity", n=2)))
    path = tmp_path / "identity.json"
    path.write_text(text)
    code, out, _ = run_cli(capsys, "analyze", str(path), "--json")
    assert code == 0
    assert json.loads(out)["index"] == 1

    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run_cli(capsys, "analyze", "-", "--json")
    assert code == 0
    assert json.loads(out)["index"] == 1


def test_invalid_json_is_exit_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "analyze", str(path), "--json")
    assert code == 1
    assert err


def test_nan_rejected_as_invalid_input(tmp_path, capsys):
    text = json.dumps(channel_to_dict(build_example("identity", n=2))).replace("1.0", "NaN", 1)
    path = tmp_path / "nan.json"
    path.write_text(text)
    code, _, _ = run_cli(capsys, "analyze", str(path), "--json")
    assert code == 1


_ANALYZE, _BIRKHOFF = ("analyze", "--json"), ("birkhoff", "--json")
_CERTIFICATE = ("conjugacy", "ex2.4", "ex2.4", "--json", "--certificate")

# argv before the file path, and the file's JSON value (or its raw text)
MALFORMED_FILES = {
    "kraus-number": (_ANALYZE, {"dim": 1, "kraus": 5}),
    "kraus-null": (_ANALYZE, {"dim": 1, "kraus": None}),
    "rows-object-entry": (_BIRKHOFF, {"n": 1, "rows": [[{}]]}),
    "dim-boolean": (_ANALYZE, {"dim": True, "kraus": [[[[1.0, 0.0]]]]}),
    "n-boolean": (_BIRKHOFF, {"n": True, "rows": [[1.0]]}),
    "ragged-operator": (_ANALYZE, {"dim": 2, "kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]]}),
    "kraus-string-entries": (_ANALYZE, {"dim": 1, "kraus": [[[["one", "zero"]]]]}),
    "rows-string-entries": (_BIRKHOFF, {"n": 1, "rows": [["one"]]}),
    "certificate-numbers": (_CERTIFICATE, {"u": 5, "g": 5, "w": 5}),
    "certificate-object-entry": (_CERTIFICATE, {"u": [[{}]], "g": None, "w": 1}),
    "kraus-numeric-strings": (_ANALYZE, {"dim": 1, "kraus": [[[["1", "0"]]]]}),
    "kraus-booleans": (_ANALYZE, {"dim": 1, "kraus": [[[[True, False]]]]}),
    "rows-numeric-string": (_BIRKHOFF, {"n": 1, "rows": [["1.0"]]}),
    "kraus-integer-past-float": (_ANALYZE, {"dim": 1, "kraus": [[[[10**400, 0]]]]}),
    # finite entries whose products overflow: one error line, no numpy warning first
    "kraus-square-overflows": (_ANALYZE, {"dim": 1, "kraus": [[[[1e308, 0.0]]]]}),
    "rows-sum-overflows": (_BIRKHOFF, {"n": 2, "rows": [[1e308, 1e308], [1e308, 1e308]]}),
    # the zero map has a zero Choi matrix and no Kraus family, and so does a
    # family whose products all underflow to zero
    "kraus-zero-map": (_ANALYZE, {"dim": 2, "kraus": [[[[0, 0], [0, 0]], [[0, 0], [0, 0]]]]}),
    "kraus-products-underflow": (
        _ANALYZE,
        {"dim": 2, "kraus": [[[[1e-170, 0], [0, 0]], [[0, 0], [1e-170, 1e-170]]]]},
    ),
    # a nonzero map whose Choi eigenvalues all lie within the rank cutoff
    "kraus-within-cutoff": (_ANALYZE, {"dim": 1, "kraus": [[[[1e-6, 0]]]]}),
    # the shape gates of each file format
    "channel-list": (_ANALYZE, [1, 2]),
    "channel-without-kraus": (_ANALYZE, {"dim": 2}),
    "dim-above-the-operators": (_ANALYZE, {"dim": 2, "kraus": [[[[1.0, 0.0]]]]}),
    # raw text: JSON's 1e400 decodes to inf, which json.dumps would write as Infinity
    "kraus-decodes-to-inf": (_ANALYZE, '{"dim": 1, "kraus": [[[[1e400, 0]]]]}'),
    "matrix-list": (_BIRKHOFF, [1, 2]),
    "matrix-without-n": (_BIRKHOFF, {"rows": [[1.0]]}),
    "rows-below-n": (_BIRKHOFF, {"n": 2, "rows": [[1.0]]}),
    "certificate-list": (_CERTIFICATE, [1, 2]),
    "certificate-without-g-and-w": (_CERTIFICATE, {"u": [[[1.0, 0.0]]]}),
    "certificate-of-1x1-matrices": (
        _CERTIFICATE,
        {"u": [[[1.0, 0.0]]], "g": [[[1.0, 0.0]]], "w": [[[1.0, 0.0]]]},
    ),
}


@pytest.mark.parametrize("case", list(MALFORMED_FILES))
def test_malformed_file_is_one_error_line_and_exit_1(tmp_path, capsys, case):
    argv, doc = MALFORMED_FILES[case]
    path = tmp_path / "input.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *argv, str(path))
    assert not seen
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err


# past the decoder's recursion limit; json.dumps cannot write it, so it is raw text
DEEP_NESTING = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize("argv", [_ANALYZE, _BIRKHOFF, _CERTIFICATE], ids=["channel", "matrix", "certificate"])
def test_deeply_nested_json_is_one_error_line_and_exit_1(tmp_path, capsys, argv):
    path = tmp_path / "input.json"
    path.write_text(DEEP_NESTING)
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_numerical_failures_are_exit_2(capsys, monkeypatch):
    # the Kraus file format cannot encode a non-CP map, so exit 2 surfaces
    # only through the failure exceptions; check the mapping directly
    from qbirkhoff import NotCompletelyPositive
    from qbirkhoff.numerics import NumericalFailure
    import qbirkhoff.cli as cli

    for exc in (NumericalFailure("boom"), NotCompletelyPositive("boom")):
        def blow_up(*args, _exc=exc):
            raise _exc

        # the parser is built once and binds cmd_analyze; patch what it calls
        monkeypatch.setattr(cli, "choi_extremal_test", blow_up)
        code = cli.main(["analyze", "ex2.4", "--json"])
        capsys.readouterr()
        assert code == 2


@pytest.mark.parametrize("exc, text", [
    (MemoryError("Unable to allocate 74.5 GiB for an array with shape (100000, 100000)"),
     "Unable to allocate 74.5 GiB for an array with shape (100000, 100000)"),
    (MemoryError(), "size too large for memory"),
], ids=["numpy", "bare"])
def test_a_size_too_large_for_memory_is_exit_1(capsys, monkeypatch, exc, text):
    # `analyze identity --n 100000` asks numpy for a 74.5 GiB array; stand in for its
    # refusal without allocating anything
    def refuse(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "build_family", refuse)
    code, out, err = run_cli(capsys, "analyze", "identity", "--n", "100000")
    assert code == 1 and out == "" and err == f"error: {text}\n"


# every subcommand's positionals and options as the parser declares them: option
# strings, default and choices, in declaration order (help text is left out: argparse
# formats it differently across Python versions)
_HELP = (("-h", "--help"), argparse.SUPPRESS, None)
_COMMON = [(("--tol",), DEFAULT_TOLERANCE.cutoff, None), (("--json",), False, None)]
_BUILTIN_FLAGS = [((f"--{key}",), None, None) for key in dict.fromkeys(k for _, d in BUILTINS.values() for k in d)]
SUBCOMMANDS = {
    "analyze": (["channel"], [_HELP, *_COMMON, *_BUILTIN_FLAGS]),
    "decompose": (["channel"], [_HELP, (("--kind",), "CP_phi", ("CP", "CP_phi")), *_COMMON, *_BUILTIN_FLAGS]),
    "conjugacy": (["channel_a", "channel_b"], [_HELP, (("--certificate",), None, None), *_COMMON, *_BUILTIN_FLAGS]),
    "birkhoff": (["matrix"], [_HELP, *_COMMON]),
    "example": (["name"], [_HELP, *_COMMON, *_BUILTIN_FLAGS]),
    "classify": (["channel"], [_HELP, *_COMMON, *_BUILTIN_FLAGS]),
}


def test_each_subparser_declares_its_positionals_and_options():
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(subparsers.choices) == list(SUBCOMMANDS)
    for name, (positionals, options) in SUBCOMMANDS.items():
        p = subparsers.choices[name]
        assert [a.dest for a in p._actions if not a.option_strings] == positionals, name
        declared = [(tuple(a.option_strings), a.default, a.choices) for a in p._actions if a.option_strings]
        assert declared == options, name
        assert p.get_default("func") is getattr(cli, f"cmd_{name}")


def test_decompose_weyl_pair(capsys):
    code, out, _ = run_cli(capsys, "decompose", "ex2.12", "--m", "2", "--json")
    assert code == 0
    terms = json.loads(out)
    assert len(terms) == 2
    assert all(abs(t["weight"] - 0.5) < 1e-10 for t in terms)
    assert all(t["channel"]["dim"] == 3 for t in terms)
    assert all(len(t["channel"]["kraus"]) == 1 for t in terms)


def test_decompose_max_depth_is_an_unknown_flag(capsys):
    # every walk ends by the index bound, so there is no depth knob to set
    code, out, _ = run_cli(capsys, "decompose", "ex2.12", "--max-depth", "0", "--json")
    assert code == 1 and out == ""


def test_decompose_extremal_input_single_term(capsys):
    code, out, _ = run_cli(capsys, "decompose", "ex2.4", "--json")
    assert code == 0
    terms = json.loads(out)
    assert len(terms) == 1 and abs(terms[0]["weight"] - 1.0) < 1e-12


def test_conjugacy_same_channel_with_identity_certificate(tmp_path, capsys):
    cert = {
        "u": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
              [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
              [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]],
        "g": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        "w": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
              [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
              [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]],
        "antiunitary": False,
    }
    cpath = tmp_path / "cert.json"
    cpath.write_text(json.dumps(cert))
    code, out, _ = run_cli(
        capsys, "conjugacy", "ex2.12", "ex2.12", "--m", "2",
        "--certificate", str(cpath), "--json",
    )
    assert code == 0
    verdict = json.loads(out)
    assert verdict["certificate_verified"] is True
    assert verdict["spectra_match"] is True


def test_conjugacy_rejects_nan_in_certificate(tmp_path, capsys):
    # bool(nan) is True, so a parsed NaN would pass as an anti-unitary flag
    eye = json.dumps([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])
    cpath = tmp_path / "cert.json"
    cpath.write_text('{"u": %s, "g": [[[1.0, 0.0]]], "w": %s, "antiunitary": NaN}' % (eye, eye))
    code, out, err = run_cli(
        capsys, "conjugacy", "identity", "identity", "--n", "2",
        "--certificate", str(cpath), "--json",
    )
    assert code == 1
    assert out == ""
    assert "NaN" in err


@pytest.mark.parametrize("flag, code", [(False, 0), ("false", 1), (0, 1)])
def test_certificate_antiunitary_must_be_a_json_boolean(tmp_path, capsys, flag, code):
    # bool("false") is True: a string flag would silently flip the check
    u, g = pairs_array(np.eye(4)).tolist(), pairs_array(np.eye(2)).tolist()
    cpath = tmp_path / "cert.json"
    cpath.write_text(json.dumps({"u": u, "g": g, "w": u, "antiunitary": flag}))
    got, out, err = run_cli(
        capsys, "conjugacy", "ex2.4", "ex2.4", "--certificate", str(cpath), "--json"
    )
    assert got == code
    if code == 0:
        assert json.loads(out)["verdict"] == "certificate verified: conjugate"
    else:
        assert out == "" and "antiunitary" in err


def test_tol_sets_the_tolerance():
    args = build_parser().parse_args(["analyze", "ex2.4", "--tol", "1e-6"])
    assert args.tol == 1e-6
    assert build_parser().parse_args(["analyze", "ex2.4"]).tol == DEFAULT_TOLERANCE.cutoff


def test_conjugacy_detects_invariant_mismatch(capsys):
    code, out, err = run_cli(capsys, "conjugacy", "ex2.11", "ex2.12", "--json")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["spectra_match"] is False
    assert verdict["verdict"] == "invariants differ: not conjugate"


def test_conjugacy_dimension_mismatch_fails(capsys):
    code, _, _ = run_cli(capsys, "conjugacy", "ex2.4", "ex2.11", "--json")
    assert code == 1


def test_birkhoff_command(tmp_path, capsys):
    doc = {"n": 3, "rows": [[0.5, 0.5, 0.0], [0.25, 0.25, 0.5], [0.25, 0.25, 0.5]]}
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "birkhoff", str(path), "--json")
    assert code == 0
    terms = json.loads(out)
    assert abs(sum(t["weight"] for t in terms) - 1.0) < 1e-12
    for t in terms:
        assert sorted(t["permutation"]) == [0, 1, 2]


def test_birkhoff_rejects_unbalanced(tmp_path, capsys):
    doc = {"n": 2, "rows": [[0.9, 0.0], [0.0, 0.9]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, _ = run_cli(capsys, "birkhoff", str(path), "--json")
    assert code == 1


def test_birkhoff_long_augmenting_paths(tmp_path, capsys):
    n = 1200
    s = 0.5 * np.eye(n) + 0.5 * np.roll(np.eye(n), 1, axis=1)
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"n": n, "rows": s.tolist()}))
    code, out, _ = run_cli(capsys, "birkhoff", str(path), "--json")
    assert code == 0
    assert len(json.loads(out)) == 2


def test_birkhoff_without_perfect_matching(tmp_path, capsys):
    s = np.eye(3)
    s[0, 1] = 1e-10
    path = tmp_path / "stray.json"
    path.write_text(json.dumps({"n": 3, "rows": s.tolist()}))
    code, _, err = run_cli(capsys, "birkhoff", str(path), "--json")
    assert code == 1
    assert "no perfect matching" in err


PARAMETRIC_BUILTINS = [
    ("identity", "--n", "3"),
    ("depolarizing", "--n", "3"),
    ("ex2.8", "--z", "0.3+0.2j"),
    ("ex2.9", "--z1", "0.3", "--z2", "0.2", "--z3", "0.1"),
    ("ex2.10", "--x1", "0.2", "--x2", "-0.1", "--x3", "0.3"),
    ("ex2.12", "--m", "3"),
    ("ex2.12", "--lam", "0.5"),
    ("ex2.12", "--m", "4", "--lam", "0.3"),
    ("m2", "--c1", "0.3", "--c2", "0.7"),
]


def analyze_summary(report):
    """Index, flags and verdicts of an analyze report, and its spectra."""
    spectral = report.get("spectral", {})
    exact = {key: report[key] for key in ("dim", "index", "unital", "trace_preserving")}
    for test in ("choi_extremal", "landau_streater"):
        exact[test] = report.get(test, {}).get("extremal")
    for key in ("fixed_dim", "ergodic", "period", "aperiodic", "strongly_mixing"):
        exact[key] = spectral.get(key)
    spectra = [report["data_spectrum"], spectral.get("eigenvalues"), spectral.get("peripheral")]
    return exact, [np.array(x if x is not None else []) for x in spectra]


@pytest.mark.parametrize("builtin", PARAMETRIC_BUILTINS, ids=" ".join)
def test_builtin_parameters_reach_analyze(builtin, tmp_path, capsys):
    """analyze NAME <params> reports what analyze reports on the channel file
    that example NAME <params> writes."""
    code, text, _ = run_cli(capsys, "example", *builtin)
    assert code == 0
    path = tmp_path / "channel.json"
    path.write_text(text)
    summaries = []
    for source in (builtin, (str(path),)):
        code, out, _ = run_cli(capsys, "analyze", *source, "--json")
        assert code == 0
        summaries.append(analyze_summary(json.loads(out)))
    (named, named_spectra), (from_file, file_spectra) = summaries
    assert named == from_file
    for got, expect in zip(named_spectra, file_spectra):
        assert got.shape == expect.shape
        assert np.max(np.abs(got - expect), initial=0.0) <= 1e-9


def test_classify_reports_cyclic_projections(capsys):
    code, out, _ = run_cli(capsys, "classify", "ex2.12", "--m", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["period"] == 3
    assert doc["cyclic_projections"] is not None
    assert len(doc["cyclic_projections"]) == 3


def test_classify_aperiodic_has_no_family(capsys):
    code, out, _ = run_cli(capsys, "classify", "depolarizing", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["strongly_mixing"] is True
    assert doc["cyclic_projections"] is None


@pytest.mark.parametrize("command", ["analyze", "classify", "example"])
def test_size_zero_operators_are_exit_1(capsys, command):
    code, out, err = run_cli(capsys, command, "identity", "--n", "0", "--json")
    assert code == 1
    assert out == ""


def test_python_m_runs_the_cli():
    bad = helpers.run_module("analyze", "ex2.8", "--z", "1.5")
    assert bad.returncode == 2
    assert "outside the face" in bad.stderr
    ok = helpers.run_module("analyze", "ex2.4", "--json")
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["dim"] == 4


def test_reused_parser_prints_the_bytes_of_a_fresh_process(capsys):
    fresh = helpers.run_module("classify", "ex2.12", "--json")
    assert fresh.returncode == 0
    assert run_cli(capsys, "analyze", "--bogus")[0] == 1
    assert run_cli(capsys, "--help")[0] == 0
    code, out, _ = run_cli(capsys, "classify", "ex2.12", "--json")
    assert code == 0 and out == fresh.stdout


def test_missing_file_is_exit_1(capsys):
    code, _, _ = run_cli(capsys, "analyze", "/no/such/file.json", "--json")
    assert code == 1


def test_flag_no_channel_argument_takes_is_exit_1(tmp_path, capsys):
    code, out, err = run_cli(capsys, "example", "ex2.10", "--z1", "0.5", "--json")
    assert code == 1 and out == ""
    assert "--z1" in err and "ex2.10 takes --x1 --x2 --x3" in err
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(channel_to_dict(build_example("identity"))))
    code, out, err = run_cli(capsys, "analyze", str(path), "--n", "3", "--json")
    assert code == 1 and out == ""
    assert "--n" in err


def test_each_channel_argument_gets_the_flags_it_declares(capsys):
    code, out, _ = run_cli(capsys, "conjugacy", "identity", "ex2.12", "--n", "3", "--m", "3", "--json")
    assert code == 0  # identity on M_3: --n reached it, or the dimensions would differ
    assert len(json.loads(out)["spectrum_b"]) == 3  # one value per Kraus operator: m = 3


@pytest.mark.parametrize("name", list(BUILTINS))
def test_generated_flags_at_their_defaults(capsys, name):
    flags = []
    for key, (_, default) in BUILTINS[name][1].items():
        if default is not None:
            flags += [f"--{key}", str(default)]
    _, plain, _ = run_cli(capsys, "example", name, "--json")
    code, out, _ = run_cli(capsys, "example", name, *flags, "--json")
    assert code == 0 and out == plain


@pytest.mark.parametrize("command", ["analyze", "example"])
def test_tol_reaches_builtin_construction(capsys, command):
    argv = [command, "ex2.8", "--z", "1.0000001", "--json"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "not PSD" in err
    code, out, _ = run_cli(capsys, *argv, "--tol", "1e-3")
    assert code == 0
    assert json.loads(out)["dim"] == 2


def dumps(payload) -> str:
    """The stdout contract of every subcommand, by the stdlib encoder, which
    writes a numpy array as its tolist."""
    return json.dumps(payload, indent=2, allow_nan=False, default=np.ndarray.tolist) + "\n"


def emitted(capsys, payload) -> str:
    cli._emit(payload)
    return capsys.readouterr().out


EMIT_EDGE_CASES = [
    [], {}, [[]], [[], []], [[1.0], [2.0, 3.0]], [[1.0, 2.0], [3.0]], [[1.0], 2.0],
    [True, False], [[True, False]], [1, 2.0], [[1, 2], [3.0, 4.0]],
    [np.float64(0.5), np.float64(-1.5)], [[np.float64(0.25)]], np.float64(2.0),
    2**64 + 1, [[2**70, -3]], -0.0, [-0.0, 5e-324, 1e308, -1e308], 5e-324,
    "\u00e9\u2211 \"q\"", None, [None], (1.0, 2.0), {"k": (), "\u00e9": [[]]},
    {"a": [[[1.0, 2.0]], [[3.0, 4.0]]], "b": {"c": [[0, 1], [1, 0]], "d": [True]}},
    # numpy arrays: zero extents, edge values, 0-d, nested in dicts and records, lists of
    # arrays that join (one shape and dtype) or not, and bool and float32 through tolist
    np.zeros((0, 2)), np.zeros((2, 0)), {"p": np.zeros((2, 0)), "q": [np.zeros((0, 2))]},
    np.zeros((3, 0, 2)), np.array([-0.0, 5e-324, 1e308, -1e308, 0.1]), np.array(2.5),
    np.array([[np.iinfo(np.int64).min, np.iinfo(np.int64).max], [0, -1]]),
    {"lambda": np.arange(8.0).reshape(2, 2, 2), "e": {"f": np.arange(3)}},
    [np.eye(2), np.ones((2, 2))], [np.eye(2), np.eye(2, dtype=np.int64)], [np.eye(2), np.ones(3)],
    [{"w": 0.5, "k": np.eye(2)[None]}, {"w": 0.25, "k": np.ones((1, 2, 2))}],
    [{"w": 1, "k": [np.zeros((0, 2))]}, {"w": 2, "k": [np.zeros((0, 2))]}],
    [{"w": 1.0, "k": np.eye(2)}, {"w": 2.0, "k": np.eye(3)}],
    np.array([True, False]), [np.array([True]), np.array([False])], np.array([0.5, 2.0], np.float32),
]


@pytest.mark.parametrize("payload", EMIT_EDGE_CASES, ids=repr)
def test_emit_edge_cases_are_the_stdlib_bytes(capsys, payload):
    assert emitted(capsys, payload) == dumps(payload)


def test_emit_refuses_a_complex_array_as_the_stdlib_does(capsys):
    # complex entries are no JSON numbers: such an array never fills a template
    for payload in (np.array([1 + 2j]), [np.array([1j]), np.array([2j])], {"k": np.zeros((2, 2), complex)}):
        with pytest.raises(TypeError):
            dumps(payload)
        with pytest.raises(TypeError):
            cli._emit(payload)
        assert capsys.readouterr().out == ""


def test_emit_random_payloads_are_the_stdlib_bytes(capsys):
    rng = np.random.default_rng(1717)
    for _ in range(400):
        payload = helpers.random_json_payload(rng, depth=4)
        assert emitted(capsys, payload) == dumps(payload)


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_emit_refuses_a_non_finite_float_anywhere_and_writes_nothing(capsys, bad):
    rng = np.random.default_rng(1718)
    planted = [bad, [bad], [[1.0, bad]], {"k": [[0.5, 0.5], [bad, 0.0]]}, [1, bad], [True, bad]]
    planted += [np.array(bad), np.array([[0.5, bad]]), {"k": [np.eye(2), np.array([[bad, 0.0]] * 2)]}]
    # the records of birkhoff and decompose output, with a weight or a Kraus entry planted
    terms = [{"weight": 0.5, "permutation": [0, 1]}, {"weight": 0.5, "permutation": [1, 0]}]
    kraus = [{"weight": 0.5, "kraus": np.eye(2)[None]} for _ in range(2)]
    planted += [helpers.plant(records, bad, rng) for records in (terms, kraus) for _ in range(4)]
    while len(planted) < 60:
        payload = helpers.plant(helpers.random_json_payload(rng, depth=4), bad, rng)
        if payload is not None:
            planted.append(payload)
    for payload in planted:
        with pytest.raises(ValueError):
            cli._emit(payload)
        assert capsys.readouterr().out == ""


def test_classify_counts_every_fixed_eigenvalue_as_peripheral(tmp_path, capsys, monkeypatch):
    """At --tol 1e-6 the qubit depolarizing channel at p = 1e-7 reads as (1 − 7.5e-8)·id:
    every eigenvalue counts as fixed, and the peripheral band, 10 times the cutoff,
    holds all four.  Without --tol the channel is ergodic, with one peripheral eigenvalue."""
    p = 1e-7
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
    ops = [np.sqrt(1 - 3 * p / 4) * paulis[0]] + [np.sqrt(p / 4) * s for s in paulis[1:]]
    path = tmp_path / "depolarizing.json"
    path.write_text(json.dumps({"dim": 2, "kraus": pairs_array(ops).tolist()}))
    payloads, emit = [], cli._emit
    monkeypatch.setattr(cli, "_emit", lambda payload: payloads.append(payload) or emit(payload))
    code, out, _ = run_cli(capsys, "classify", str(path), "--tol", "1e-6", "--json")
    assert code == 0 and len(payloads) == 1 and out == dumps(payloads[0])
    report = json.loads(out)
    assert payloads[0]["peripheral"].shape == (4, 2) and report["peripheral"] == report["eigenvalues"]
    assert report["fixed_dim"] == 4 and report["ergodic"] is False
    code, out, _ = run_cli(capsys, "classify", str(path), "--json")
    report = json.loads(out)
    assert code == 0 and report["fixed_dim"] == 1 and report["ergodic"] is True
    assert len(report["peripheral"]) == 1


def _corpus_argvs(paths, ds_files):
    for path in paths:
        yield from (["analyze", path], ["classify", path], ["decompose", path])
    yield from (["conjugacy", a, b] for a, b in zip(paths, paths[1:]))
    yield from (["birkhoff", path] for path in ds_files)


def _builtin_argvs():
    for name in BUILTINS:
        yield from ([cmd, name] for cmd in ("analyze", "classify", "decompose", "example"))
        yield ["conjugacy", name, name]
    yield from (["analyze", *argv] for argv in PARAMETRIC_BUILTINS)
    yield ["decompose", "depolarizing", "--n", "3", "--kind", "CP"]


def test_every_subcommand_prints_the_stdlib_bytes_of_its_payload(
    tmp_path, capsys, monkeypatch, ds_corpus
):
    """On the builtins, the random corpus and random doubly stochastic
    matrices, stdout is json.dumps(payload, indent=2) and a newline."""
    payloads, emit = [], cli._emit

    def record(payload):
        payloads.append(payload)
        emit(payload)

    monkeypatch.setattr(cli, "_emit", record)
    paths = []
    for k, ch in enumerate(ds_corpus):
        paths.append(str(tmp_path / f"channel{k}.json"))
        Path(paths[-1]).write_text(json.dumps(channel_to_dict(ch)))
    rng = np.random.default_rng(1719)
    ds_files = []
    for n in (1, 2, 5, 9):
        for rows in (helpers.random_ds_matrix(n, rng), helpers.sinkhorn_ds_matrix(n, rng)):
            ds_files.append(str(tmp_path / f"ds{len(ds_files)}.json"))
            Path(ds_files[-1]).write_text(json.dumps({"n": n, "rows": rows.tolist()}))
    succeeded = set()
    for argv in [*_builtin_argvs(), *_corpus_argvs(paths, ds_files)]:
        payloads.clear()
        code, out, _ = run_cli(capsys, *argv, "--json")
        # birkhoff's payload is the decomposition itself, whose JSON is its dicts
        dicts = [decomposition_to_dicts(p) if type(p) is PermutationDecomposition else p for p in payloads]
        assert out == "".join(map(dumps, dicts)), argv
        assert len(payloads) == (code == 0), argv
        if code == 0:
            succeeded.add(argv[0])
    assert succeeded == {"analyze", "classify", "decompose", "conjugacy", "birkhoff", "example"}


def test_unencodable_payload_leaves_stdout_empty(capsys, monkeypatch):
    # the parser binds cmd_analyze once; patch what it calls
    monkeypatch.setattr(cli, "spectrum_invariant", lambda data, tol: [float("nan")])
    code, out, err = run_cli(capsys, "analyze", "ex2.4", "--json")
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_birkhoff_json_skips_the_stderr_only_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "ds.json"
    path.write_text(json.dumps({"n": 2, "rows": [[0.25, 0.75], [0.75, 0.25]]}))
    calls = []
    mixture = PermutationDecomposition.mixture
    monkeypatch.setattr(PermutationDecomposition, "mixture", lambda dec: calls.append(1) or mixture(dec))
    code, out, err = run_cli(capsys, "birkhoff", str(path), "--json")
    assert code == 0 and err == "" and calls == []
    assert len(json.loads(out)) == 2
    code, quiet_out, err = run_cli(capsys, "birkhoff", str(path))
    assert code == 0 and quiet_out == out and len(calls) == 1
    assert err == (
        "2 permutation terms, weight sum 1.000000000000, reconstruction error 0.00e+00\n"
    )


def _birkhoff_inputs():
    # Sinkhorn-balanced matrices, exact permutation mixtures (a few permutations, so
    # one round frees several rows at once, and n² of them) and the identity
    rng = np.random.default_rng(3501)
    for n in (1, 2, 3, 10, 25, 30):
        yield from (helpers.sinkhorn_ds_matrix(n, rng), helpers.random_ds_matrix(n, rng, k=3))
        yield from (helpers.random_ds_matrix(n, rng), np.eye(n))


def test_birkhoff_prints_the_stdlib_bytes_of_its_decomposition_dicts(tmp_path, capsys):
    path = tmp_path / "ds.json"
    for s in _birkhoff_inputs():
        n = len(s)
        path.write_text(json.dumps({"n": n, "rows": s.tolist()}))
        code, out, _ = run_cli(capsys, "birkhoff", str(path), "--json")
        dec = birkhoff_decompose(s)
        assert code == 0 and out == json.dumps(decomposition_to_dicts(dec), indent=2) + "\n", n
        # at any caller's pad, and for no terms at all
        assert cli._render(dec, "\n  ") == cli._render(decomposition_to_dicts(dec), "\n  ")
    assert cli._render(PermutationDecomposition(terms=(), n=0)) == "[]"


def test_birkhoff_output_fills_no_array_template(tmp_path, capsys, monkeypatch):
    # the terms render one by one, so no array template is ever asked
    def refused(shape, pad):
        raise AssertionError("birkhoff called _layout")

    monkeypatch.setattr(cli, "_layout", refused)
    path = tmp_path / "ds.json"
    s = helpers.sinkhorn_ds_matrix(25, np.random.default_rng(3502))
    path.write_text(json.dumps({"n": 25, "rows": s.tolist()}))
    code, out, _ = run_cli(capsys, "birkhoff", str(path), "--json")
    assert code == 0 and len(json.loads(out)) == len(birkhoff_decompose(s).terms)


def test_decompose_json_skips_the_stderr_only_error(capsys, monkeypatch):
    calls = []
    error = ExtremalDecomposition.reconstruction_error
    monkeypatch.setattr(
        ExtremalDecomposition, "reconstruction_error", lambda dec, ch: calls.append(1) or error(dec, ch)
    )
    code, out, err = run_cli(capsys, "decompose", "ex2.12", "--json")
    assert code == 0 and err == "" and calls == []
    code, quiet_out, err = run_cli(capsys, "decompose", "ex2.12")
    assert code == 0 and quiet_out == out and len(calls) == 1
    assert re.fullmatch(r"2 extremal terms, depth 1, reconstruction error \d\.\d\de-1\d\n", err)


def test_decompose_weights_are_exact_floats_and_equal_index_terms_render_as_the_stdlib():
    # exact float weights print as float.__repr__, as the stdlib does; a payload whose
    # terms share one index keeps the stdlib's bytes
    for n, d, kind in ((3, 9, CP), (3, 9, CP_PHI), (2, 4, CP)):
        dec = decompose_extremal(helpers.random_unitary_mixture(n, d, np.random.default_rng(60)), kind)
        assert len(dec.terms) > 1 and all(type(w) is float for w, _ in dec.terms)
    assert {term.index for _, term in dec.terms} == {1}  # the qubit CP walk ends at unitaries
    payload = [{"weight": w, "channel": channel_to_dict(term)} for w, term in dec.terms]
    assert cli._render(payload) == json.dumps(payload, indent=2)
    # as the CLI hands them over, the terms' Kraus stacks are arrays, each from its own template
    arrays = [{"weight": w, "channel": cli._channel_dict(term)} for w, term in dec.terms]
    assert cli._render(arrays) == cli._render(payload)
