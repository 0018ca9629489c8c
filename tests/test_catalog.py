import json
import re
from pathlib import Path

import numpy as np
import pytest

from qbirkhoff.catalog import (
    BUILTINS,
    build_example,
    build_family,
    diagonal_pair_family,
    spin_triple_family,
    weyl_basis,
    weyl_mixture_channel,
    weyl_shift_clock_family,
)
from qbirkhoff.channels import NotCompletelyPositive, channel_to_dict
from qbirkhoff.numerics import Tolerance, dagger, max_abs

from helpers import cycle_embed_channel


def test_every_named_example_is_doubly_stochastic():
    for name in BUILTINS:
        ch = build_example(name)
        unital, tp = ch.kraus.validate()
        if name == "m2":
            # the default member c1=0, c2=1/2 sits in the unital cone only
            assert unital and not tp
        else:
            assert unital and tp, name


def test_unknown_example_name():
    with pytest.raises(KeyError):
        build_example("ex9.99")


def test_diagonal_pair_displayed_entries():
    v1, v2 = diagonal_pair_family().ops
    r = 1 / np.sqrt(2)
    assert max_abs(v1 - np.diag([1, 0, r, r])) == 0
    assert max_abs(v2 - np.diag([0, 1, r, 1j * r])) == 0


def test_spin_triple_commutation():
    lx, ly, lz = (op * np.sqrt(2) for op in spin_triple_family().ops)
    assert max_abs(lx @ ly - ly @ lx - 1j * lz) < 1e-12
    assert max_abs(ly @ lz - lz @ ly - 1j * lx) < 1e-12
    total = sum(m @ dagger(m) for m in (lx, ly, lz))
    assert max_abs(total - 2 * np.eye(3)) < 1e-12  # s(s+1) with s = 1


def test_weyl_commutation_and_order():
    basis = weyl_basis(3)
    theta = np.exp(2j * np.pi / 3)
    v, u = basis[1], basis[2]
    assert max_abs(u @ v - theta * v @ u) < 1e-12
    assert max_abs(basis[0] - np.eye(3)) < 1e-12
    for b in basis:
        assert max_abs(b @ dagger(b) - np.eye(3)) < 1e-12
    # nine pairwise trace-orthogonal unitaries
    assert len(basis) == 9
    for i in range(9):
        for j in range(i):
            assert abs(np.trace(dagger(basis[i]) @ basis[j]))< 1e-12


def test_weyl_family_scaling():
    for m in (2, 3, 5):
        fam = weyl_shift_clock_family(m)
        assert fam.index == m
        for op in fam.ops:
            assert abs(np.linalg.norm(op) ** 2 - 3 / m) < 1e-12
    with pytest.raises(ValueError):
        weyl_shift_clock_family(1)
    with pytest.raises(ValueError):
        weyl_shift_clock_family(9)


def test_weyl_mixture_interpolates():
    ch = weyl_mixture_channel(2, 0.0)
    assert ch.kraus.index == 1  # pure identity at λ = 0
    half = weyl_mixture_channel(2, 0.5)
    assert half.kraus.index == 3


def test_build_family_returns_displayed_ops():
    fam = build_family("ex2.4")
    assert fam.index == 2
    assert max_abs(fam.ops[0] - diagonal_pair_family().ops[0]) == 0
    fam12 = build_family("ex2.12", m=2)
    assert fam12.index == 2
    assert max_abs(fam12.ops[0] - weyl_shift_clock_family(2).ops[0]) == 0


def test_cycle_embed_matches_matrix():
    ch = cycle_embed_channel(3)
    p = np.diag([0.2, 0.3, 0.5]).astype(complex)
    out = ch.apply(p)
    s = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)
    assert max_abs(out - np.diag(s @ np.array([0.2, 0.3, 0.5]))) < 1e-12


def test_parameterized_examples():
    ch = build_example("ex2.9", z1=0.5, z2=0.5, z3=0.25)
    assert ch.dim == 3
    ch = build_example("ex2.10", x1=1.0, x2=1.0, x3=1.0)
    assert ch.dim == 3 and ch.kraus.index == 1  # the vertex is a unitary point
    ch = build_example("identity", n=3)
    assert ch.dim == 3 and ch.kraus.index == 1
    ch = build_example("m2", c1=0.2, c2=0.7)
    assert ch.dim == 2


@pytest.mark.parametrize("name", list(BUILTINS))
def test_every_builtin_takes_each_declared_parameter_at_its_default(name):
    plain = json.dumps(channel_to_dict(build_example(name)))
    for key, (_, default) in BUILTINS[name][1].items():
        assert json.dumps(channel_to_dict(build_example(name, **{key: default}))) == plain, key
        assert build_family(name, **{key: default}).dim == build_example(name).dim


def test_undeclared_parameters_are_rejected():
    for build in (build_example, build_family):
        with pytest.raises(ValueError, match="ex2.4 takes no parameter n"):
            build("ex2.4", n=3)
        with pytest.raises(ValueError, match="x1, x2, x3"):
            build("ex2.10", z1=0.5)


def test_tolerance_reaches_builtin_construction():
    # |z| = 1 + 1e-7 leaves the multiplier matrix an eigenvalue of -1e-7
    with pytest.raises(NotCompletelyPositive, match="not PSD"):
        build_example("ex2.8", z=1.0000001)
    loose = Tolerance(1e-3)
    ch = build_example("ex2.8", z=1.0000001, tol=loose)
    assert ch.dim == 2 and ch.kraus.index == 1


def test_readme_table_lists_every_builtin_and_parameter():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = {}
    for name, params in re.findall(r"^\| `([^`]+)` \|.*\| ([^|]*) \|$", readme, re.M):
        listed[name] = dict(re.findall(r"`--(\w+)` \(([^)]*)\)", params))
    declared = {
        name: {k: "unset" if d is None else f"{d:g}" for k, (_, d) in params.items()}
        for name, (_, params) in BUILTINS.items()
    }
    assert listed == declared
