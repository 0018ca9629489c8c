"""Layout of the Kraus-pair kernels against per-pair loop oracles.

Rank tests cannot see an i <-> j transposition of the pair array; these
compare every column, block and entry with one explicit product per pair.
The real product and stacked matrices are checked against the map applied to
each hermitian basis element, and against the complex matrices of
vec(v_i v_j*) columns, whose ranks and singular values they keep.  The rank
kernel of the extremality tests is checked against the singular values and
the null-space projector, on real and complex matrices.
"""

import numpy as np
import pytest

from qbirkhoff import KrausFamily, choi_block_projection, data_matrix, numerics
from qbirkhoff.extremality import _rank_and_null, product_matrix, stacked_matrix
from qbirkhoff.numerics import (
    DEFAULT_TOLERANCE,
    dagger,
    hermitian_from_coordinates,
    hermitian_pair_map,
    max_abs,
    numerical_rank,
)

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
        (product_matrix(fam), helpers.product_coordinates_by_loop(fam)),
        (stacked_matrix(fam), helpers.stacked_coordinates_by_loop(fam)),
        (choi_block_projection(fam), helpers.block_matrix_by_loop(fam)),
    ]
    for state in (None, random_state(n, rng)):
        rho = np.eye(n) / n if state is None else state
        checks.append((data_matrix(fam, state=state), helpers.data_matrix_by_loop(fam, rho)))
    for got, expect in checks:
        assert got.shape == expect.shape
        assert max_abs(got - expect) < 1e-12 * scale


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_data_matrix_gram_product_matches_the_trace_loop(n):
    # full Choi rank d = n², at the normalized trace and at seeded random states: the one
    # Gram product flat(ρ·V) · flat(V)* is tr(ρ v_i v_j*) entry for entry, exactly hermitian
    rng = np.random.default_rng(7500 + n)
    fam = helpers.random_unitary_mixture(n, n * n, rng).kraus
    assert fam.index == n * n
    scale = max(1.0, max_abs(fam.ops)) ** 2
    for state in (None, random_state(n, rng), random_state(n, rng)):
        rho = np.eye(n) / n if state is None else state
        dm = data_matrix(fam, state=state)
        assert dm.shape == (n * n, n * n)
        assert max_abs(dm - helpers.data_matrix_by_loop(fam, rho)) < 1e-14 * scale
        assert np.array_equal(dm, dagger(dm))


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_real_matrices_keep_the_complex_ranks(n, stacked):
    # the complex matrix in the orthonormal hermitian bases is the real one, so
    # the ranks agree and the singular values agree to rounding, past the bound too
    rng = np.random.default_rng(7200 + 10 * n + stacked)
    real_of, complex_of = (
        (stacked_matrix, helpers.stacked_columns_by_loop)
        if stacked
        else (product_matrix, helpers.product_columns_by_loop)
    )
    for d in range(1, helpers.subfamily_size(n, "CP_phi" if stacked else "CP") + 2):
        fam = random_family(n, d, rng)
        real, cplx = real_of(fam), complex_of(fam)
        assert real.dtype == float and real.shape == cplx.shape
        assert numerical_rank(real) == numerical_rank(cplx)
        s_real = np.linalg.svd(real, compute_uv=False)
        s_cplx = np.linalg.svd(cplx, compute_uv=False)
        assert np.max(np.abs(s_real - s_cplx)) <= 1e-12 * s_cplx[0]


def test_hermitian_coordinates_round_trip():
    # coordinates -> Σ x_a B_a is exactly hermitian, and reading it back through the
    # pair map of one pair (d = 1) returns the coordinates
    rng = np.random.default_rng(7300)
    for d in range(1, 6):
        x = rng.normal(size=d * d)
        lam = hermitian_from_coordinates(x)
        assert np.array_equal(lam, dagger(lam)) and not np.any(np.diag(lam).imag)
        expect = sum(a * b for a, b in zip(x, helpers.hermitian_basis(d)))
        assert max_abs(lam - expect) < 1e-15
        assert max_abs(hermitian_pair_map(lam[None, None])[:, 0] - x) < 1e-15
    assert np.array_equal(hermitian_pair_map(np.eye(9).reshape(3, 3, 3, 3)), np.eye(9))


def with_signed_zeros(z, rng):
    """z with about a tenth of its real and of its imaginary parts set to +0.0
    and as many to −0.0."""
    for part in (z.real, z.imag):
        u = rng.random(z.shape)
        part[u < 0.1] = 0.0
        part[u > 0.9] = -0.0
    return z


@pytest.mark.parametrize("d", range(1, 10))
def test_planned_pair_map_matches_the_strided_gather_byte_for_byte(d):
    # every size here is under the plan cap, so hermitian_pair_map takes the plan; inputs
    # hold exact zeros, −0.0 and exact cancellations g = −h, which a sign slip would show
    rng = np.random.default_rng(7400 + d)
    i, j = np.triu_indices(d, 1)
    for n in range(1, 7):
        assert (d * n) ** 2 <= numerics._PLAN_ENTRIES
        products = with_signed_zeros(random_family(n, d, rng).products(), rng)
        products[j[::2], i[::2]] = -products[i[::2], j[::2]]
        # strided as the real form's view of T, (n, n, d, d) read backwards
        view = with_signed_zeros(rng.normal(size=(n, n, d, d)) + 1j * rng.normal(size=(n, n, d, d)), rng)
        view = view.transpose(3, 2, 1, 0)
        for pairs in (products, view):
            got = hermitian_pair_map(pairs)
            assert got.shape == (n * n, d * d)
            assert got.tobytes() == numerics._strided_pair_map(pairs).tobytes()


@pytest.mark.parametrize("shape", [(2, 3, 2, 2), (3, 2, 2, 2), (2, 2, 2, 3), (2, 2, 4), (1, 1, 2, 2, 1)])
def test_pair_map_refuses_arrays_that_are_not_d_d_n_n(shape):
    with pytest.raises(ValueError, match="is not d×d×n×n"):
        hermitian_pair_map(np.ones(shape))


@pytest.mark.parametrize("size", [2, 3, 5, 8, 10])
def test_coordinates_of_no_square_size_are_refused(size):
    with pytest.raises(ValueError, match="not those of a square matrix"):
        hermitian_from_coordinates(np.ones(size))


def test_coordinates_gather_the_former_slot_fill_byte_for_byte():
    rng = np.random.default_rng(7500)
    for d in range(10):
        x = rng.normal(size=d * d)
        u = rng.random(d * d)
        x[u < 0.15] = 0.0
        x[u > 0.85] = -0.0
        lam = hermitian_from_coordinates(x)
        assert lam.tobytes() == helpers.hermitian_by_slot_fill(x).tobytes()
        # the diagonal's imaginary parts are +0.0, which the certificates' JSON shows
        assert not np.any(np.signbit(lam.diagonal().imag))


# (rows, columns, rank of the factor product; None for a full random matrix)
RANK_SHAPES = [
    (4, 16, None),
    (9, 81, None),
    (6, 16, 3),
    (9, 9, None),
    (9, 9, 5),
    (72, 16, None),
    (512, 9, None),
    (256, 9, 4),
]


@pytest.mark.parametrize("rows, cols, rank", RANK_SHAPES)
def test_rank_and_null_thin(rows, cols, rank):
    # the rank tests pass real matrices; the kernel serves complex ones alike, with one
    # rule for every shape: None at full column rank, else the column of the null-space
    # projector with the largest diagonal entry, normalized
    rng = np.random.default_rng(7100 + rows + cols)
    for real in (False, True):

        def gaussian(r, c):
            return rng.normal(size=(r, c)) + (0.0 if real else 1j * rng.normal(size=(r, c)))

        m = gaussian(rows, cols) if rank is None else gaussian(rows, rank) @ gaussian(rank, cols)
        assert np.isrealobj(m) == real
        tol = DEFAULT_TOLERANCE
        got_rank, x = _rank_and_null(m, tol)
        s = np.linalg.svd(m, compute_uv=False)
        assert got_rank == int(np.count_nonzero(s > tol.cutoff * s[0]))
        assert got_rank == (min(rows, cols) if rank is None else rank)
        if got_rank == cols:
            assert x is None
            continue
        assert np.isrealobj(x) == real
        assert abs(np.linalg.norm(x) - 1.0) < 1e-12
        again = _rank_and_null(m, tol)[1]
        assert np.array_equal(x, again)
        assert np.linalg.norm(m @ x) <= 1e-12 * s[0]
        assert max_abs(x - helpers.null_vector_by_projector(m, tol.cutoff)) < 1e-10
