"""Output checks for the benchmark, computed with numpy alone.

None of these routes goes through ``qbirkhoff``: Choi matrices come from
explicit column stacking, ranks from eigenvalues of Gram matrices and
hermitian dilations (not from an SVD), channel actions from einsum over the
Kraus operators.  Each ``check_*`` returns the
list of problems with one invocation's output; an empty list means correct.
"""

from __future__ import annotations

import json

import numpy as np

# The program's default rank cutoff (``Tolerance.rank_rel``): singular values
# of a product matrix, and eigenvalues of a Choi matrix, at or below this
# share of the largest count as zero.
RANK_REL = 1e-9

DECOMPOSE_CHOI_ERROR = 1e-8
BIRKHOFF_ERROR = 1e-9
UNIT_ERROR = 1e-8
CYCLIC_ERROR = 1e-8
SPECTRUM_ERROR = 1e-9


def _count_above(values: np.ndarray) -> int:
    top = float(values[-1])
    return int(np.count_nonzero(values > RANK_REL * top)) if top > 0.0 else 0


def rank(rows: np.ndarray) -> int:
    """Rank of ``rows`` at RANK_REL.  The singular values are the positive
    eigenvalues of the hermitian dilation [[0, R], [R*, 0]], which resolves
    them to machine precision where a Gram matrix squares them away."""
    m, k = rows.shape
    dilation = np.zeros((m + k, m + k), dtype=complex)
    dilation[:m, m:] = rows
    dilation[m:, :m] = rows.conj().T
    return _count_above(np.linalg.eigvalsh(dilation))


def choi(ops: np.ndarray) -> np.ndarray:
    """Σ_k vec(v_k) vec(v_k)*, with column-stacking vec."""
    x = ops.transpose(0, 2, 1).reshape(ops.shape[0], -1)
    return x.T @ x.conj()


def choi_rank(ops: np.ndarray) -> int:
    """Rank of the Choi matrix, from its nonzero eigenvalues: those of the
    Gram matrix of the vectorized Kraus operators."""
    x = ops.reshape(ops.shape[0], -1)
    return _count_above(np.linalg.eigvalsh(x.conj() @ x.T))


def extremal(ops: np.ndarray, kind: str) -> bool:
    """Products v_i v_j* (and, for CP_phi, v_j* v_i stacked beside them)
    linearly independent."""
    d = ops.shape[0]
    rows = np.einsum("iab,jcb->ijac", ops, ops.conj()).reshape(d * d, -1)
    if kind == "CP_phi":
        rev = np.einsum("jba,ibc->ijac", ops.conj(), ops).reshape(d * d, -1)
        rows = np.concatenate([rows, rev], axis=1)
    # more products than entries: dependent by counting alone
    return d * d <= rows.shape[1] and rank(rows) == d * d


def unit_defects(ops: np.ndarray) -> tuple[float, float]:
    eye = np.eye(ops.shape[1])
    out_sum = np.einsum("kab,kcb->ac", ops, ops.conj())
    in_sum = np.einsum("kba,kbc->ac", ops.conj(), ops)
    return float(np.max(np.abs(out_sum - eye))), float(np.max(np.abs(in_sum - eye)))


def apply(ops: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.einsum("kab,bc,kdc->ad", ops, x, ops.conj())


def _matrix(rows) -> np.ndarray:
    arr = np.asarray(rows, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _ops(channel: dict) -> np.ndarray:
    return np.stack([_matrix(v) for v in channel["kraus"]])


def _parse(code, out: str, problems: list):
    if code != 0:
        problems.append(f"exit code {code}")
        return None
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        problems.append(f"stdout is not JSON: {exc}")
        return None


def _spectral_problems(report: dict, expect: dict) -> list:
    problems = []
    for key in ("ergodic", "period", "fixed_dim"):
        if report[key] != expect[key]:
            problems.append(f"{key} {report[key]!r}, construction implies {expect[key]!r}")
    return problems


def check_analyze(inv, code, out: str) -> list:
    problems = []
    report = _parse(code, out, problems)
    if report is None:
        return problems
    ops = inv.expect["ops"]
    d, n = ops.shape[0], ops.shape[1]
    if choi_rank(ops) != d:
        problems.append("generated Kraus family is not minimal")
    if (report["dim"], report["index"]) != (n, d):
        problems.append(f"dim/index {report['dim']}/{report['index']}, expected {n}/{d}")
    if not (report["unital"] and report["trace_preserving"]):
        problems.append("doubly stochastic input not flagged unital and trace-preserving")
    for key, kind in (("choi_extremal", "CP"), ("landau_streater", "CP_phi")):
        want = extremal(ops, kind)
        if key not in report or report[key]["extremal"] != want:
            problems.append(f"{key} verdict differs from the rank oracle ({want})")
    if "spectral" not in report:
        problems.append("spectral block missing")
    else:
        problems += _spectral_problems(report["spectral"], inv.expect)
    return problems


def check_classify(inv, code, out: str) -> list:
    problems = []
    report = _parse(code, out, problems)
    if report is None:
        return problems
    problems += _spectral_problems(report, inv.expect)
    period = inv.expect["period"] or 1
    family = report["cyclic_projections"]
    if period == 1:
        if family is not None:
            problems.append("cyclic projections reported for an aperiodic channel")
        return problems
    if family is None or len(family) != period:
        return problems + [f"no cyclic family of length {period}"]
    ops = inv.expect["ops"]
    proj = [_matrix(e) for e in family]
    n = ops.shape[1]
    worst = max(np.max(np.abs(apply(ops, proj[k]) - proj[(k + 1) % period]))
                for k in range(period))
    worst = max(worst, np.max(np.abs(sum(proj) - np.eye(n))))
    for k, e in enumerate(proj):
        worst = max(worst, np.max(np.abs(e - e.conj().T)), np.max(np.abs(e @ e - e)))
        for f in proj[k + 1 :]:
            worst = max(worst, np.max(np.abs(e @ f)))
    if worst > CYCLIC_ERROR:
        problems.append(f"cyclic family fails verification by {worst:.2e}")
    return problems


def check_conjugacy(inv, code, out: str) -> list:
    problems = []
    report = _parse(code, out, problems)
    if report is None:
        return problems
    if report.get("verdict") != inv.expect["verdict"]:
        problems.append(f"verdict {report.get('verdict')!r}, expected {inv.expect['verdict']!r}")
    ops = inv.expect["ops"]
    data = np.einsum("iab,jab->ij", ops, ops.conj()) / ops.shape[1]
    want = np.sort(np.linalg.eigvalsh((data + data.conj().T) / 2))[::-1]
    got = np.asarray(report["spectrum_a"], dtype=float)
    if got.shape != want.shape or np.max(np.abs(got - want)) > SPECTRUM_ERROR:
        problems.append("data-matrix spectrum differs from the oracle")
    return problems


def check_decompose(inv, code, out: str) -> list:
    problems = []
    terms = _parse(code, out, problems)
    if terms is None:
        return problems
    ops, kind = inv.expect["ops"], inv.expect["kind"]
    weights = np.array([t["weight"] for t in terms], dtype=float)
    if weights.size == 0 or np.any(weights <= 0.0) or abs(weights.sum() - 1.0) > 1e-9:
        problems.append("weights are not positive with sum 1")
    # CP terms are extremal among unital CP maps, which need not preserve trace
    unit_sides, unit_name = (2, "doubly stochastic") if kind == "CP_phi" else (1, "unital")
    mixture = np.zeros_like(choi(ops))
    not_unit = not_extremal = 0
    for t, w in zip(terms, weights):
        term = _ops(t["channel"])
        mixture += w * choi(term)
        if max(unit_defects(term)[:unit_sides]) > UNIT_ERROR:
            not_unit += 1
        elif choi_rank(term) != term.shape[0] or not extremal(term, kind):
            not_extremal += 1
    if not_unit:
        problems.append(f"{not_unit} terms not {unit_name}")
    if not_extremal:
        problems.append(f"{not_extremal} terms not {kind}-extremal by the rank oracle")
    error = float(np.linalg.norm(mixture - choi(ops)))
    if error > DECOMPOSE_CHOI_ERROR:
        problems.append(f"Choi reconstruction error {error:.2e}")
    return problems


def check_birkhoff(inv, code, out: str) -> list:
    problems = []
    terms = _parse(code, out, problems)
    if terms is None:
        return problems
    target = inv.expect["matrix"]
    n = target.shape[0]
    mixture = np.zeros((n, n))
    for t in terms:
        perm = t["permutation"]
        if sorted(perm) != list(range(n)) or not t["weight"] > 0.0:
            problems.append(f"invalid term {t['weight']!r} · {perm!r}")
            continue
        mixture[np.arange(n), perm] += t["weight"]
    if len(terms) > (n - 1) ** 2 + 1:
        problems.append(f"{len(terms)} terms exceed the (n-1)²+1 bound")
    error = float(np.max(np.abs(mixture - target)))
    if error > BIRKHOFF_ERROR:
        problems.append(f"reconstruction error {error:.2e}")
    return problems


CHECKS = {
    "analyze": check_analyze,
    "classify": check_classify,
    "conjugacy": check_conjugacy,
    "decompose": check_decompose,
    "birkhoff": check_birkhoff,
}
