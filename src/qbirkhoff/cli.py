"""Command-line surface.

Machine-readable JSON goes to stdout, human commentary to stderr, so the
commands compose in pipelines (``example`` emits channel files that
``analyze``, ``decompose`` and ``classify`` read back, from a path or "-").

Each ``cmd_*`` handler is ``(args, tol) -> (payload, note)``: ``note`` is a
zero-argument callable giving the stderr text, called only without ``--json``.
``main`` alone writes: the payload to stdout, then the note to stderr.

Exit codes: 0 ok, 1 invalid input, 2 CP/numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .birkhoff import (
    PermutationDecomposition,
    birkhoff_decompose,
    loads_ds_matrix,
)
from .catalog import BUILTINS, build_example, build_family
from .channels import (
    Channel,
    NotCompletelyPositive,
    family_from_dict,
    loads_json,
    pairs_array,
)
from .conjugacy import (
    data_matrix,
    load_certificate,
    spectra_match,
    spectrum_invariant,
    verify_certificate,
)
from .extremality import (
    CP,
    CP_PHI,
    choi_extremal_test,
    decompose_extremal,
    landau_streater_test,
)
from .numerics import DEFAULT_TOLERANCE, NumericalFailure, Tolerance
from .spectral import classify, cyclic_projections

__all__ = ["main", "run", "build_parser"]


@functools.lru_cache(maxsize=256)
def _layout(shape: tuple, pad: str) -> str:
    # json.dumps(indent=2) at indent pad of an array of this numpy shape, leaves as %s
    if not shape:
        return "%s"
    inner = pad + "  "
    items = [_layout(shape[1:], inner)] * shape[0]
    return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"


@functools.lru_cache(maxsize=256)
def _zero_row(shape: tuple, dtype: np.dtype, pad: str) -> str:
    # "," and an all-zero array of this shape and dtype at indent pad: one row of a padding run
    return "," + pad + _layout(shape, pad) % tuple(np.zeros(shape, dtype).ravel().tolist())


def _padded(o: np.ndarray, pad: str) -> str:
    # o's rows up to its last one with a nonzero bit (−0.0 has one), and at least one row,
    # fill the template; each later row is the cached zero row
    nonzero = np.flatnonzero(o.reshape(len(o), -1).view(np.int64).any(axis=1))
    k = int(nonzero[-1]) + 1 if nonzero.size else 1
    head = _layout((k, *o.shape[1:]), pad) % tuple(o[:k].ravel().tolist())
    close = len(pad) + 1  # pad and "]"
    return head[:-close] + _zero_row(o.shape[1:], o.dtype, pad + "  ") * (len(o) - k) + head[-close:]


def _render(o, pad: str = "\n") -> str:
    # Exact float and int (not bool, not numpy scalars) print as float.__repr__
    # and int.__repr__, as in the stdlib encoder, whose finite reprs hold no "n".
    # A finite float64 or int64 numpy array fills the cached template of its shape
    # from one ravel().tolist(), but for a trailing run of all-zero rows, written
    # from one cached row text; any other array renders as its tolist.
    # A PermutationDecomposition renders as its decomposition_to_dicts, term by term.
    if type(o) in (float, int) and "n" not in (text := type(o).__repr__(o)):
        return text
    if type(o) is np.ndarray:
        if o.dtype in (np.float64, np.int64) and np.isfinite(o).all():
            # a certificate past the counting bound is zero outside its leading j×j block
            if o.ndim > 1 and len(o) and not o[-1].tobytes().strip(b"\0"):
                return _padded(o, pad)
            return _layout(o.shape, pad) % tuple(o.ravel().tolist())
        return _render(o.tolist(), pad)
    inner = pad + "  "
    if type(o) is PermutationDecomposition:
        # weights are positive finite floats; each permutation is one join over a table of
        # its column texts, where the stdlib writes one str(int) at a time
        cols, leaf = [str(c) for c in range(o.n)], inner + "  "
        head, mid = "{" + leaf + '"weight": ', "," + leaf + '"permutation": [' + leaf + "  "
        sep, tail = "," + leaf + "  ", leaf + "]" + inner + "}"
        terms = [head + float.__repr__(w) + mid + sep.join([cols[c] for c in p]) + tail for w, p in o.terms]
        return "[" + inner + ("," + inner).join(terms) + pad + "]" if terms else "[]"
    if isinstance(o, dict) and o:
        items = [encode_basestring_ascii(k) + ": " + _render(v, inner) for k, v in o.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(o, (list, tuple)) and o:
        return "[" + inner + ("," + inner).join([_render(v, inner) for v in o]) + pad + "]"
    return json.dumps(o, allow_nan=False)


def _emit(payload):
    """The one JSON writer, every subcommand's stdout: exactly ``json.dumps(payload,
    indent=2, allow_nan=False, default=np.ndarray.tolist)`` and a newline (dict keys
    are strings; a ``PermutationDecomposition`` stands for its
    ``decomposition_to_dicts``), in one write.
    Rendering comes first, so a payload that does not encode (a non-finite float is
    ``ValueError``) leaves stdout empty."""
    sys.stdout.write(_render(payload) + "\n")


# every builtin parameter, in table order, with its flag's type and help
_PARAMS = {
    key: (kind, "parameter of " + ", ".join(n for n, (_, d) in BUILTINS.items() if key in d))
    for _, declared in BUILTINS.values()
    for key, (kind, _) in declared.items()
}


def _flags(keys) -> str:
    return " ".join(f"--{key}" for key in keys) or "no flags"


def _builtin_params(args, sources) -> list:
    """The builtin flags each channel argument takes: a builtin name takes
    the parameters it declares, a channel file or "-" none.  A flag that no
    argument takes is invalid input."""
    given = {k: getattr(args, k) for k in _PARAMS if getattr(args, k) is not None}
    declared = [BUILTINS[s][1] if s in BUILTINS else {} for s in sources]
    stray = [k for k in given if not any(k in d for d in declared)]
    if stray:
        takes = "; ".join(f"{s} takes {_flags(d)}" for s, d in zip(sources, declared))
        raise ValueError(f"no channel argument takes {_flags(stray)} ({takes})")
    return [{k: v for k, v in given.items() if k in d} for d in declared]


def _read_text(source: str) -> str:
    # the one reader of channel and matrix files, and of stdin
    if source == "-":
        return sys.stdin.read()
    with open(source, encoding="utf-8") as fh:
        return fh.read()


def _load_families(args, tol: Tolerance, *sources) -> list:
    """Channel sources: "-" for stdin, a channel file path, or a builtin name."""
    return [
        build_family(source, tol=tol, **params)
        if source in BUILTINS
        else family_from_dict(loads_json(_read_text(source)))
        for source, params in zip(sources, _builtin_params(args, sources))
    ]


def _load_channel(args, tol: Tolerance) -> Channel:
    (fam,) = _load_families(args, tol, args.channel)
    return Channel.from_kraus(fam, tol)


def _channel_dict(ch: Channel) -> dict:  # channel_to_dict's keys, the Kraus stack one array
    return {"dim": ch.dim, "kraus": pairs_array(ch.kraus.ops)}


def _test_dict(result) -> dict:
    extremal, cert = result  # an extremality test's verdict and certificate
    certificate = None if cert is None else {"kind": cert.kind, "lambda": pairs_array(cert.lam)}
    return {"extremal": extremal, "certificate": certificate}


def _classification_dict(sc) -> dict:
    # every field of the classification in order, its two eigenvalue arrays as [re, im] pairs
    report = {f.name: getattr(sc, f.name) for f in dataclasses.fields(sc)}
    return report | {key: pairs_array(report[key]) for key in ("eigenvalues", "peripheral")}


def _summary(sp: dict, sep: str) -> str:
    # the ergodic structure of a classification dict, for analyze's and classify's notes
    return (
        f"fixed_dim {sp['fixed_dim']}{sep}"
        + ("ergodic" if sp["ergodic"] else "non-ergodic")
        + (f"{sep}period {sp['period']}" if sp["period"] else "")
        + (f"{sep}strongly mixing" if sp["strongly_mixing"] else "")
    )


def cmd_analyze(args, tol: Tolerance):
    ch = _load_channel(args, tol)
    unital, tp = ch.kraus.validate(tol)
    report = {
        "dim": ch.dim,
        "index": ch.index,
        "unital": unital,
        "trace_preserving": tp,
    }
    if unital:
        report["choi_extremal"] = _test_dict(choi_extremal_test(ch, tol))
        if tp:
            report["landau_streater"] = _test_dict(landau_streater_test(ch, tol))
    if unital and tp:
        report["spectral"] = _classification_dict(classify(ch, tol))
    report["data_spectrum"] = spectrum_invariant(data_matrix(ch, tol=tol), tol)

    def note():
        flags = ("unital" if unital else "not unital", "trace-preserving" if tp else "not trace-preserving")
        lines = [f"channel on M_{ch.dim}, index {ch.index} ({', '.join(flags)})"]
        for key, label in (("choi_extremal", "unital cone"), ("landau_streater", "doubly stochastic set")):
            if key in report:
                lines.append(f"{label}: {'extremal' if report[key]['extremal'] else 'not extremal'}")
        if "spectral" in report:
            lines.append("spectral: " + _summary(report["spectral"], ", "))
        return "\n".join(lines)

    return report, note


def cmd_decompose(args, tol: Tolerance):
    ch = _load_channel(args, tol)
    dec = decompose_extremal(ch, kind=args.kind, tol=tol)
    terms = [{"weight": w, "channel": _channel_dict(term)} for w, term in dec.terms]
    return terms, lambda: (  # the error is for the note only, which --json skips
        f"{len(dec.terms)} extremal terms, depth {dec.depth}, "
        f"reconstruction error {dec.reconstruction_error(ch):.2e}"
    )


def cmd_conjugacy(args, tol: Tolerance):
    fam_a, fam_b = _load_families(args, tol, args.channel_a, args.channel_b)
    if fam_a.dim != fam_b.dim:
        raise ValueError(f"dimension mismatch: {fam_a.dim} vs {fam_b.dim}")
    spec_a, spec_b = (spectrum_invariant(data_matrix(fam, tol=tol), tol) for fam in (fam_a, fam_b))
    match = spectra_match(spec_a, spec_b, tol)
    report = {
        "spectrum_a": spec_a,
        "spectrum_b": spec_b,
        "spectra_match": match,
        "certificate_verified": None,
    }
    if args.certificate:
        cert = load_certificate(args.certificate)
        report["certificate_verified"] = verify_certificate(fam_a, fam_b, cert, tol)
    if not match:
        report["verdict"] = "invariants differ: not conjugate"
    elif report["certificate_verified"] is True:
        report["verdict"] = "certificate verified: conjugate"
    elif report["certificate_verified"] is False:
        report["verdict"] = "certificate FAILED verification (invariants match)"
    else:
        report["verdict"] = "invariants match (no certificate supplied)"
    return report, lambda: report["verdict"]


def cmd_birkhoff(args, tol: Tolerance):
    s = loads_ds_matrix(_read_text(args.matrix), tol)
    dec = birkhoff_decompose(s, tol)
    return dec, lambda: (  # as in cmd_decompose: the error is for the note only
        f"{len(dec.terms)} permutation terms, weight sum {dec.total_weight():.12f}, "
        f"reconstruction error {float(np.max(np.abs(dec.mixture() - s))):.2e}"
    )


def cmd_example(args, tol: Tolerance):
    (params,) = _builtin_params(args, [args.name])
    ch = build_example(args.name, tol=tol, **params)
    return _channel_dict(ch), lambda: f"{args.name}: channel on M_{ch.dim}, index {ch.index}"


def cmd_classify(args, tol: Tolerance):
    (fam,) = _load_families(args, tol, args.channel)  # as given: the spectrum needs no canonical form
    sc = classify(fam, tol)
    report = _classification_dict(sc)
    cyc = cyclic_projections(fam, tol) if sc.ergodic and not sc.aperiodic else None  # period > 1
    report["cyclic_projections"] = None if cyc is None else pairs_array(cyc.projections)
    return report, lambda: _summary(report, "; ")


# one row per subcommand: name, help, its own arguments (name and add_argument
# keywords, in help order), whether it takes the builtin flags, and its handler
_COMMANDS = (
    ("analyze", "validation, extremality, spectra of a channel",
     [("channel", {"help": 'channel file, "-" for stdin, or a builtin name'})], True, cmd_analyze),
    ("decompose", "convex decomposition into extremal channels",
     [("channel", {}), ("--kind", {"choices": (CP, CP_PHI), "default": CP_PHI})], True, cmd_decompose),
    ("conjugacy", "conjugacy invariants and certificate check",
     [("channel_a", {}), ("channel_b", {}), ("--certificate", {"help": "certificate JSON file to verify"})],
     True, cmd_conjugacy),
    ("birkhoff", "permutation decomposition of a stochastic matrix",
     [("matrix", {"help": 'matrix JSON file or "-"'})], False, cmd_birkhoff),
    ("example", "emit a builtin channel file", [("name", {"help": ", ".join(BUILTINS)})], True, cmd_example),
    ("classify", "spectral/ergodic classification", [("channel", {})], True, cmd_classify),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbirkhoff",
        description="Extremality, ergodic structure and Birkhoff-style "
        "decompositions of doubly stochastic channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, arguments, builtin_flags, func in _COMMANDS:
        p = sub.add_parser(name, help=text)
        for arg, keywords in arguments:
            p.add_argument(arg, **keywords)
        p.add_argument(
            "--tol", type=float, default=DEFAULT_TOLERANCE.cutoff,
            help="the one cutoff of every rank, PSD and equality decision "
            "(default 1e-9); the certificate residual, the spectra match and the "
            "peripheral band are 10 times it, the structural checks 100 times",
        )
        p.add_argument("--json", action="store_true", help="machine output only (mute stderr text)")
        for key, (kind, param_help) in _PARAMS.items() if builtin_flags else ():
            p.add_argument(f"--{key}", type=kind, help=param_help)
        p.set_defaults(func=func)
    return parser


# one parser per process: parse_args keeps no state between calls
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        payload, note = args.func(args, Tolerance(args.tol))
        _emit(payload)
        if not args.json:
            print(note(), file=sys.stderr)
        return 0
    except (NotCompletelyPositive, NumericalFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, MemoryError) as exc:  # a malformed file is a ValueError
        # str() of a KeyError is the repr of its message; a bare MemoryError has none
        text = exc.args[0] if type(exc) is KeyError else str(exc) or "size too large for memory"
        print(f"error: {text}", file=sys.stderr)
        return 1


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
