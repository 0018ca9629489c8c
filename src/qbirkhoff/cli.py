"""Command-line surface.

Machine-readable JSON goes to stdout, human commentary to stderr, so the
commands compose in pipelines (``example`` emits channel files that
``analyze``, ``decompose`` and ``classify`` read back, from a path or "-").

Exit codes: 0 ok, 1 invalid input, 2 CP/numerical failure.
"""

from __future__ import annotations

import argparse
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


def _say(args, text: str):
    if not args.json:
        print(text, file=sys.stderr)


@functools.lru_cache(maxsize=256)
def _layout(shape: tuple, pad: str) -> str:
    # json.dumps(indent=2) at indent pad of an array of this numpy shape, leaves as %s
    if not shape:
        return "%s"
    inner = pad + "  "
    items = [_layout(shape[1:], inner)] * shape[0]
    return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"


def _render(o, pad: str = "\n") -> str:
    # Exact float and int (not bool, not numpy scalars) print as float.__repr__
    # and int.__repr__, as in the stdlib encoder, whose finite reprs hold no "n".
    # A finite float64 or int64 numpy array fills the cached template of its shape
    # from one ravel().tolist(); any other array renders as its tolist.
    # A PermutationDecomposition renders as its decomposition_to_dicts, term by term.
    if type(o) in (float, int) and "n" not in (text := type(o).__repr__(o)):
        return text
    if type(o) is np.ndarray:
        if o.dtype in (np.float64, np.int64) and np.isfinite(o).all():
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


def _certificate_dict(cert) -> dict | None:
    if cert is None:
        return None
    return {"kind": cert.kind, "lambda": pairs_array(cert.lam)}


def _classification_dict(sc) -> dict:
    return {
        "eigenvalues": pairs_array(sc.eigenvalues),
        "fixed_dim": sc.fixed_dim,
        "ergodic": sc.ergodic,
        "peripheral": pairs_array(sc.peripheral),
        "period": sc.period,
        "aperiodic": sc.aperiodic,
        "strongly_mixing": sc.strongly_mixing,
    }


def cmd_analyze(args) -> int:
    tol = Tolerance(args.tol)
    ch = _load_channel(args, tol)
    unital, tp = ch.kraus.validate(tol)
    report = {
        "dim": ch.dim,
        "index": ch.index,
        "unital": unital,
        "trace_preserving": tp,
    }
    if unital:
        extremal, cert = choi_extremal_test(ch, tol)
        report["choi_extremal"] = {"extremal": extremal, "certificate": _certificate_dict(cert)}
        if tp:
            ls_extremal, ls_cert = landau_streater_test(ch, tol)
            report["landau_streater"] = {
                "extremal": ls_extremal,
                "certificate": _certificate_dict(ls_cert),
            }
    if unital and tp:
        report["spectral"] = _classification_dict(classify(ch, tol))
    report["data_spectrum"] = spectrum_invariant(data_matrix(ch, tol=tol), tol)
    _emit(report)

    flags = []
    flags.append("unital" if unital else "not unital")
    flags.append("trace-preserving" if tp else "not trace-preserving")
    _say(args, f"channel on M_{ch.dim}, index {ch.index} ({', '.join(flags)})")
    for key, label in (("choi_extremal", "unital cone"), ("landau_streater", "doubly stochastic set")):
        if key in report:
            _say(args, f"{label}: {'extremal' if report[key]['extremal'] else 'not extremal'}")
    if "spectral" in report:
        sp = report["spectral"]
        _say(
            args,
            f"spectral: fixed_dim {sp['fixed_dim']}, "
            f"{'ergodic' if sp['ergodic'] else 'non-ergodic'}"
            + (f", period {sp['period']}" if sp["period"] else "")
            + (", strongly mixing" if sp["strongly_mixing"] else ""),
        )
    return 0


def cmd_decompose(args) -> int:
    tol = Tolerance(args.tol)
    ch = _load_channel(args, tol)
    kind = CP_PHI if args.kind == "CP_phi" else CP
    dec = decompose_extremal(ch, kind=kind, tol=tol)
    _emit([{"weight": w, "channel": _channel_dict(term)} for w, term in dec.terms])
    if not args.json:  # the error is for the stderr line only, which --json mutes
        err = dec.reconstruction_error(ch)
        _say(args, f"{len(dec.terms)} extremal terms, depth {dec.depth}, reconstruction error {err:.2e}")
    return 0


def cmd_conjugacy(args) -> int:
    tol = Tolerance(args.tol)
    fam_a, fam_b = _load_families(args, tol, args.channel_a, args.channel_b)
    if fam_a.dim != fam_b.dim:
        raise ValueError(f"dimension mismatch: {fam_a.dim} vs {fam_b.dim}")
    spec_a = spectrum_invariant(data_matrix(fam_a, tol=tol), tol)
    spec_b = spectrum_invariant(data_matrix(fam_b, tol=tol), tol)
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
    _emit(report)
    _say(args, report["verdict"])
    return 0


def cmd_birkhoff(args) -> int:
    tol = Tolerance(args.tol)
    s = loads_ds_matrix(_read_text(args.matrix), tol)
    dec = birkhoff_decompose(s, tol)
    _emit(dec)
    if not args.json:  # as in cmd_decompose: the error is for the stderr line only
        err = float(np.max(np.abs(dec.mixture() - s)))
        _say(
            args,
            f"{len(dec.terms)} permutation terms, weight sum {dec.total_weight():.12f}, "
            f"reconstruction error {err:.2e}",
        )
    return 0


def cmd_example(args) -> int:
    (params,) = _builtin_params(args, [args.name])
    ch = build_example(args.name, tol=Tolerance(args.tol), **params)
    _emit(_channel_dict(ch))
    _say(args, f"{args.name}: channel on M_{ch.dim}, index {ch.index}")
    return 0


def cmd_classify(args) -> int:
    tol = Tolerance(args.tol)
    ch = _load_channel(args, tol)
    sc = classify(ch, tol)
    report = _classification_dict(sc)
    report["cyclic_projections"] = None
    period = sc.period if sc.period is not None else 0
    if period > 1:
        fam = cyclic_projections(ch, tol)
        if fam is not None:
            report["cyclic_projections"] = pairs_array(fam.projections)
    _emit(report)
    _say(
        args,
        f"fixed_dim {sc.fixed_dim}; "
        + ("ergodic" if sc.ergodic else "non-ergodic")
        + (f"; period {sc.period}" if sc.period else "")
        + ("; strongly mixing" if sc.strongly_mixing else ""),
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbirkhoff",
        description="Extremality, ergodic structure and Birkhoff-style "
        "decompositions of doubly stochastic channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--tol", type=float, default=DEFAULT_TOLERANCE.cutoff,
            help="the one cutoff of every rank, PSD and equality decision "
            "(default 1e-9); the certificate residual, the spectra match and the "
            "peripheral band are 10 times it, the structural checks 100 times",
        )
        p.add_argument("--json", action="store_true", help="machine output only (mute stderr text)")

    def example_params(p):
        for key, (kind, text) in _PARAMS.items():
            p.add_argument(f"--{key}", type=kind, help=text)

    p = sub.add_parser("analyze", help="validation, extremality, spectra of a channel")
    p.add_argument("channel", help='channel file, "-" for stdin, or a builtin name')
    common(p)
    example_params(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("decompose", help="convex decomposition into extremal channels")
    p.add_argument("channel")
    p.add_argument("--kind", choices=("CP", "CP_phi"), default="CP_phi")
    common(p)
    example_params(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("conjugacy", help="conjugacy invariants and certificate check")
    p.add_argument("channel_a")
    p.add_argument("channel_b")
    p.add_argument("--certificate", help="certificate JSON file to verify")
    common(p)
    example_params(p)
    p.set_defaults(func=cmd_conjugacy)

    p = sub.add_parser("birkhoff", help="permutation decomposition of a stochastic matrix")
    p.add_argument("matrix", help='matrix JSON file or "-"')
    common(p)
    p.set_defaults(func=cmd_birkhoff)

    p = sub.add_parser("example", help="emit a builtin channel file")
    p.add_argument("name", help=", ".join(BUILTINS))
    common(p)
    example_params(p)
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("classify", help="spectral/ergodic classification")
    p.add_argument("channel")
    common(p)
    example_params(p)
    p.set_defaults(func=cmd_classify)

    return parser


# one parser per process: parse_args keeps no state between calls
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (NotCompletelyPositive, NumericalFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:  # a malformed file is a ValueError
        # str() of a KeyError is the repr of its message
        print(f"error: {exc.args[0] if type(exc) is KeyError else exc}", file=sys.stderr)
        return 1


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
