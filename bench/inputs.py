"""Seeded inputs for the benchmark workloads.

Every workload is a fixed, interleaved schedule of (subcommand, input
shape) pairs; the seed only draws the random entries.  So two seeds
give different channels and matrices of the same sizes, and per-size timings
stay comparable across seeds.  The program sees only the files written here.

Each workload runs all five data subcommands, because every end-to-end
metric is reported on every workload.  The subcommands a workload is built
around carry most of its time; the others appear as three small probe
invocations each, on inputs of the workload's own kind.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("analyze-fullrank", "analyze-lowrank", "decompose")


@dataclass
class Invocation:
    """One CLI call: ``argv`` for ``qbirkhoff.cli.main`` plus what the oracle
    needs to check its output."""

    command: str
    label: str  # input class, e.g. "n=4 d=12 CP_phi"
    argv: list
    files: list
    expect: dict = field(default_factory=dict)


@dataclass
class Suite:
    """One pass of a workload: the invocations and their input properties."""

    invocations: list
    properties: dict


# --- random objects -------------------------------------------------------


def haar_unitary(n: int, rng) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _weights(d: int, rng) -> np.ndarray:
    # bounded away from zero so no Kraus operator is numerically negligible
    return 0.5 * rng.dirichlet(np.ones(d)) + 0.5 / d


def _block_diag(blocks) -> np.ndarray:
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    at = 0
    for b in blocks:
        k = b.shape[0]
        out[at : at + k, at : at + k] = b
        at += k
    return out


def unitary_mixture(n: int, d: int, rng) -> np.ndarray:
    """Kraus family sqrt(w_k) U_k of d Haar unitaries: ergodic and aperiodic,
    with Choi rank d (full rank at d = n²)."""
    return np.stack([np.sqrt(w) * haar_unitary(n, rng) for w in _weights(d, rng)])


def periodic_mixture(n: int, p: int, d: int, rng) -> np.ndarray:
    """Block shift S (p blocks of size n/p) times random block-diagonal
    unitaries: ergodic with period p, the block projections cycle."""
    m = n // p
    shift = np.kron(np.roll(np.eye(p), 1, axis=0), np.eye(m))
    return np.stack(
        [
            np.sqrt(w) * shift @ _block_diag([haar_unitary(m, rng) for _ in range(p)])
            for w in _weights(d, rng)
        ]
    )


def block_mixture(sizes, d: int, rng) -> np.ndarray:
    """Block-diagonal random unitaries: not ergodic, one fixed block
    projection per block."""
    return np.stack(
        [
            np.sqrt(w) * _block_diag([haar_unitary(m, rng) for m in sizes])
            for w in _weights(d, rng)
        ]
    )


def conjugated_copy(ops: np.ndarray, rng):
    """A family B with certificate (u, g, w): u v_k u* = w Σ_j g_kj v'_j."""
    d, n, _ = ops.shape
    u, g, w = haar_unitary(n, rng), haar_unitary(d, rng), haar_unitary(n, rng)
    rotated = np.einsum("ab,kbc,dc->kad", u, ops, u.conj())
    copy = np.einsum("kj,ab,kbc->jac", g.conj(), w.conj().T, rotated)
    return copy, (u, g, w)


def permutation_mixture(n: int, k: int, rng) -> np.ndarray:
    eye = np.eye(n)
    return sum(w * eye[rng.permutation(n)] for w in rng.dirichlet(np.ones(k)))


def sinkhorn_matrix(n: int, rng) -> np.ndarray:
    """Strictly positive matrix balanced to doubly stochastic."""
    a = rng.random((n, n)) + 0.05
    for _ in range(10_000):
        a /= a.sum(axis=1, keepdims=True)
        a /= a.sum(axis=0, keepdims=True)
        if np.max(np.abs(a.sum(axis=1) - 1.0)) < 1e-14:
            return a
    raise RuntimeError("Sinkhorn balancing did not converge")


# --- files ----------------------------------------------------------------


def _pairs(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


class _Writer:
    """Writes numbered input files into the work directory."""

    def __init__(self, work: Path):
        self.work = work
        self.count = 0

    def _dump(self, stem: str, data) -> Path:
        self.count += 1
        path = self.work / f"{self.count:03d}-{stem}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        return path

    def channel(self, ops) -> Path:
        return self._dump("channel", {"dim": ops.shape[1], "kraus": [_pairs(v) for v in ops]})

    def matrix(self, m) -> Path:
        return self._dump("matrix", {"n": m.shape[0], "rows": m.tolist()})

    def certificate(self, u, g, w) -> Path:
        data = {"u": _pairs(u), "g": _pairs(g), "w": _pairs(w), "antiunitary": False}
        return self._dump("certificate", data)


# --- invocations ----------------------------------------------------------


class _Builder:
    """Accumulates a workload's invocations and the properties of its inputs."""

    def __init__(self, work: Path, rng):
        self.files = _Writer(work)
        self.rng = rng
        self.invocations = []
        self.channels = []  # (n, d, construction) per channel read by analyze/classify
        self.decompose_inputs = []
        self.matrices = []

    def _add(self, command, label, args, files, **expect):
        argv = [command, *args, "--json"]
        self.invocations.append(Invocation(command, label, argv, files, expect))

    def channel(self, ops, construction, ergodic=True, period=1, fixed_dim=1):
        """Write a channel and queue ``analyze`` and ``classify`` on it."""
        path = self.files.channel(ops)
        facts = {"ops": ops, "ergodic": ergodic, "period": period, "fixed_dim": fixed_dim}
        label = f"{construction} n={ops.shape[1]} d={ops.shape[0]}"
        self._add("analyze", label, [str(path)], [path], **facts)
        self._add("classify", label, [str(path)], [path], **facts)
        self.channels.append((ops.shape[1], ops.shape[0], construction))

    def conjugacy(self, ops, certificates: bool):
        """Conjugacy of a family with a conjugated copy of itself; with
        ``certificates``, once with the valid and once with a tampered one."""
        copy, (u, g, w) = conjugated_copy(ops, self.rng)
        path_a, path_b = self.files.channel(ops), self.files.channel(copy)
        pair = [str(path_a), str(path_b)]
        label = f"n={ops.shape[1]} d={ops.shape[0]}"
        if not certificates:
            self._add("conjugacy", label, pair, [path_a, path_b], ops=ops,
                      verdict="invariants match (no certificate supplied)")
            return
        good = self.files.certificate(u, g, w)
        tampered = g.copy()
        tampered[0, 0] += 1e-6
        bad = self.files.certificate(u, tampered, w)
        for cert, verdict, tag in (
            (good, "certificate verified: conjugate", "valid"),
            (bad, "certificate FAILED verification (invariants match)", "tampered"),
        ):
            self._add("conjugacy", f"{label} {tag}", [*pair, "--certificate", str(cert)],
                      [path_a, path_b, cert], ops=ops, verdict=verdict)

    def decompose(self, ops, kind="CP_phi"):
        path = self.files.channel(ops)
        args = [str(path)] if kind == "CP_phi" else [str(path), "--kind", kind]
        self._add("decompose", f"n={ops.shape[1]} d={ops.shape[0]} {kind}", args, [path],
                  ops=ops, kind=kind)
        self.decompose_inputs.append((ops.shape[1], ops.shape[0], kind))

    def birkhoff(self, m, construction):
        path = self.files.matrix(m)
        self._add("birkhoff", f"n={m.shape[0]} {construction}", [str(path)], [path], matrix=m)
        self.matrices.append(m.shape[0])

    def suite(self) -> Suite:
        # one interleaving for every seed: an invocation's time depends on
        # what ran before it (caches, allocator), so the order stays fixed
        order = np.random.default_rng(0).permutation(len(self.invocations))
        self.invocations = [self.invocations[k] for k in order]
        kinds = Counter(c for _, _, c in self.channels)
        total = max(len(self.channels), 1)
        properties = {
            "invocations": dict(Counter(inv.command for inv in self.invocations)),
            "channel_n": _hist(n for n, _, _ in self.channels),
            "channel_index": _hist(d for _, d, _ in self.channels),
            "periodic_share": kinds["periodic"] / total,
            "nonergodic_share": kinds["blocks"] / total,
            "decompose_n_index_kind": _hist(f"{n}/{d}/{k}" for n, d, k in self.decompose_inputs),
            "birkhoff_n": _hist(self.matrices),
        }
        return Suite(self.invocations, properties)


def _hist(values) -> dict:
    return {str(k): v for k, v in sorted(Counter(values).items())}


# --- workloads ------------------------------------------------------------
#
# Probe inputs per subcommand a workload is not built around; six, so a
# probe's median does not rest on a few samples of a 5-10 ms call.
PROBES = 6

# Counts per size are chosen so that each per-subcommand median falls inside
# one size class rather than between two, which keeps it steady across seeds.


def _analyze_fullrank(b: _Builder, tiny: bool):
    counts = {3: 1} if tiny else {3: 1, 4: 3, 5: 5, 6: 3}
    for n, count in counts.items():
        for _ in range(count):
            b.channel(unitary_mixture(n, n * n, b.rng), "mixture")
    for _ in range(PROBES):
        b.conjugacy(unitary_mixture(3, 9, b.rng), certificates=False)
        b.decompose(unitary_mixture(2, 4, b.rng))
        b.birkhoff(sinkhorn_matrix(10, b.rng), "sinkhorn")


def _analyze_lowrank(b: _Builder, tiny: bool):
    rng = b.rng
    # ten n = 16 invocations a pass hold the tail percentile among them
    mixtures = [(8, 2)] if tiny else [(8, 2), (10, 3), (12, 2), (14, 3), (16, 2), (16, 2),
                                      (16, 2), (16, 3)]
    periodic = [(8, 2, 2)] if tiny else [(8, 2, 2), (9, 3, 3), (12, 4, 2), (16, 4, 3)]
    blocks = [((4, 4), 2)] if tiny else [((4, 4), 2), ((6, 6), 3), ((5, 5, 5), 2), ((8, 8), 2)]
    for n, d in mixtures:
        b.channel(unitary_mixture(n, d, rng), "mixture")
    for n, p, d in periodic:
        b.channel(periodic_mixture(n, p, d, rng), "periodic", period=p)
    for sizes, d in blocks:
        b.channel(block_mixture(sizes, d, rng), "blocks", ergodic=False, period=None,
                  fixed_dim=len(sizes))
    # the two n = 12 pairs hold the conjugacy median
    pairs = [(8, 2)] if tiny else [(8, 2), (10, 2), (12, 3), (12, 3), (14, 2), (16, 2)]
    for n, d in pairs:
        b.conjugacy(unitary_mixture(n, d, rng), certificates=True)
    for _ in range(PROBES):
        b.decompose(unitary_mixture(8, 2, rng))
        b.birkhoff(sinkhorn_matrix(10, rng), "sinkhorn")


def _decompose(b: _Builder, tiny: bool):
    rng = b.rng
    if tiny:
        b.decompose(unitary_mixture(2, 4, rng))
        b.birkhoff(permutation_mixture(6, 6, rng), "permutations")
    else:
        # n = 4 stops at index 12 and the full-rank n = 4 channel (2048 terms,
        # ~25 s) is left out, so that a pass stays short enough for several
        # passes per run
        for n, d, count in [(2, 4, 4), (3, 9, 5), (4, 10, 1), (4, 11, 1), (4, 12, 1),
                            (5, 12, 1)]:
            for _ in range(count):
                b.decompose(unitary_mixture(n, d, rng))
        for n, d in [(2, 4), (3, 9)]:
            b.decompose(unitary_mixture(n, d, rng), kind="CP")
        # Sinkhorn matrices always take the (n-1)²+1 rounds of the bound;
        # matching time on permutation mixtures varies with the seed (up to
        # 1.7x at n = 40), so those stay small.  The three n = 30 matrices
        # are the slowest class, with enough samples in four passes to hold
        # the tail percentile; the three n = 25 ones hold the median.
        for n in (20, 25):
            b.birkhoff(permutation_mixture(n, n, rng), "permutations")
        for n in (20, 25, 25, 25, 30, 30, 30):
            b.birkhoff(sinkhorn_matrix(n, rng), "sinkhorn")
    for _ in range(PROBES):
        b.channel(unitary_mixture(3, 9, rng), "mixture")
        b.conjugacy(unitary_mixture(3, 9, rng), certificates=False)


_BUILDERS = {
    "analyze-fullrank": _analyze_fullrank,
    "analyze-lowrank": _analyze_lowrank,
    "decompose": _decompose,
}


def build(workload: str, seed: int, work: Path, tiny: bool = False) -> Suite:
    """Generate a workload's input files under ``work`` from ``seed``."""
    builder = _Builder(work, np.random.default_rng([seed, WORKLOADS.index(workload)]))
    _BUILDERS[workload](builder, tiny)
    return builder.suite()
