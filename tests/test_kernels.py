"""Layout of the Kraus-pair kernels against per-pair loop oracles.

Rank tests cannot see an i <-> j transposition of the pair array; these
compare every column, block and entry with one explicit product per pair.
"""

import numpy as np
import pytest

from qbirkhoff import KrausFamily, choi_block_projection, data_matrix
from qbirkhoff.extremality import product_matrix, stacked_matrix
from qbirkhoff.numerics import dagger, max_abs

import helpers

SIZES = [(1, 1), (2, 1), (3, 5), (4, 2)]  # (dim n, index d)


def random_family(n, d, rng):
    return KrausFamily.from_ops(
        [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(d)]
    )


def random_state(n, rng):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


@pytest.mark.parametrize("n, d", SIZES)
def test_pair_kernels_match_per_pair_loops(n, d):
    rng = np.random.default_rng(7000 + 10 * n + d)
    fam = random_family(n, d, rng)
    scale = max(1.0, max_abs(fam.ops)) ** 2
    pairs = fam.products()
    assert pairs.shape == (d, d, n, n)
    for i in range(d):
        for j in range(d):
            assert max_abs(pairs[i, j] - fam.ops[i] @ dagger(fam.ops[j])) < 1e-12 * scale
    checks = [
        (product_matrix(fam), helpers.product_columns_by_loop(fam)),
        (stacked_matrix(fam), helpers.stacked_columns_by_loop(fam)),
        (choi_block_projection(fam)[0], helpers.block_matrix_by_loop(fam)),
    ]
    for state in (None, random_state(n, rng)):
        rho = np.eye(n) / n if state is None else state
        checks.append((data_matrix(fam, state=state).matrix, helpers.data_matrix_by_loop(fam, rho)))
    for got, expect in checks:
        assert got.shape == expect.shape
        assert max_abs(got - expect) < 1e-12 * scale
