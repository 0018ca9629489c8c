import numpy as np
import pytest

from qbirkhoff import (
    M2CanonicalForm,
    NotCompletelyPositive,
    choi_extremal_test,
    landau_streater_test,
    m2_index2_channel,
    m2_index2_is_extremal,
    m3_closed_form,
    m3_face_membership,
    m3_matrix,
    m3_real_face_scan,
    schur_channel,
)
from qbirkhoff.numerics import Tolerance, max_abs


def unit(i, j, n=3):
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def test_schur_defining_property(rng):
    # random PSD multiplier with unit diagonal
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m = a @ a.conj().T
    d = np.sqrt(np.real(np.diag(m)))
    m = m / np.outer(d, d)
    ch = schur_channel(m)
    for i in range(3):
        for j in range(3):
            out = ch.apply(unit(i, j))
            assert max_abs(out - m[i, j] * unit(i, j)) < 1e-9


def test_schur_rejects_outside_the_face():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # unit diagonal, not PSD
    with pytest.raises(NotCompletelyPositive):
        schur_channel(bad)
    with pytest.raises(ValueError, match="unit diagonal"):
        schur_channel(np.array([[2.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="not hermitian"):
        schur_channel(np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        schur_channel(np.ones((2, 3)))


def test_qubit_multiplier_dichotomy():
    from qbirkhoff.catalog import qubit_multiplier_channel

    on_circle = qubit_multiplier_channel(np.exp(0.7j))
    assert on_circle.kraus.index == 1
    ok, _ = landau_streater_test(on_circle)
    assert ok

    inside = qubit_multiplier_channel(0.3 + 0.4j)
    assert inside.kraus.index == 2
    ok, cert = landau_streater_test(inside)
    assert not ok and cert is not None


def test_m3_closed_form_frozen_values():
    assert abs(m3_closed_form(1, 1, 1)) < 1e-12
    assert abs(m3_closed_form(1, 1, -1) - (-4.0)) < 1e-12
    assert abs(m3_closed_form(0, 0, 0) - 1.0) < 1e-12
    # determinant identity against a direct eigenvalue product
    rng = np.random.default_rng(5)
    for _ in range(50):
        z = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        det = np.prod(np.linalg.eigvalsh(m3_matrix(*z)))
        assert abs(det - m3_closed_form(*z)) < 1e-9


def test_m3_membership_examples():
    assert m3_face_membership(1, 1, 1) == "boundary"
    assert m3_face_membership(0, 0, 0) == "interior"
    assert m3_face_membership(1, 1, -1) == "outside"
    assert m3_face_membership(1.5, 0, 0) == "outside"
    assert m3_face_membership(0.5, 0.5, 0.25) == "interior"


def test_m3_closed_form_matches_eigen_oracle(rng):
    for _ in range(2000):
        z = [
            np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            for _ in range(3)
        ]
        f = m3_closed_form(*z)
        if abs(f) <= 1e-9:
            continue
        min_eig = np.linalg.eigvalsh(m3_matrix(*z))[0]
        assert (f > 0) == (min_eig > 0)


def test_real_face_scan_vertices():
    scan = m3_real_face_scan(0.5)
    assert scan.vertices == (
        (-1.0, -1.0, 1.0),
        (-1.0, 1.0, -1.0),
        (1.0, -1.0, -1.0),
        (1.0, 1.0, 1.0),
    )
    for v in scan.vertices:
        assert v in scan.extreme_candidates
    assert len(scan.entries) == 5**3
    assert scan.entries[0] == ((-1.0, -1.0, -1.0), "outside")


def test_real_face_midpoints_are_not_extreme_candidates():
    scan = m3_real_face_scan(0.5)
    # (0,0,1) = midpoint of (1,1,1) and (-1,-1,1): boundary but not extreme
    boundary = {pt for pt, cls in scan.entries if cls == "boundary"}
    assert (0.0, 0.0, 1.0) in boundary
    assert (0.0, 0.0, 1.0) not in scan.extreme_candidates


def test_m2_form_validation():
    with pytest.raises(ValueError):
        M2CanonicalForm.from_c(-0.1, 0.5)
    with pytest.raises(ValueError):
        M2CanonicalForm.from_c(0.5, 1.2)
    # sorting keeps a NaN, and the constructor refuses it as it refuses a form built directly
    with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
        M2CanonicalForm.from_c(0.5, float("nan"))
    with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
        M2CanonicalForm(-0.1, 0.5)
    form = M2CanonicalForm.from_c(0.8, 0.2)  # arguments may arrive unsorted
    assert form.c1 <= form.c2
    assert abs(form.c1**2 + form.d1**2 - 1.0) < 1e-12
    assert abs(form.c2**2 + form.d2**2 - 1.0) < 1e-12
    assert M2CanonicalForm.from_c(0.3, 0.3).degenerate()
    # the caller's tolerance decides, as in m2_index2_is_extremal
    near = M2CanonicalForm.from_c(0.3, 0.3 + 1e-7)
    assert not near.degenerate() and near.degenerate(Tolerance(1e-6))


# (c1, c2) -> the bytes of d1 = √(1 − c1²) and d2 = √(1 − c2²) after sorting, as
# the form held them when it stored them
D_BYTES = {
    (0.0, 0.5): ("0x1.0000000000000p+0", "0x1.bb67ae8584caap-1"),
    (0.8, 0.2): ("0x1.f5a7cecdb684ap-1", "0x1.3333333333332p-1"),
    (0.3, 0.3 + 1e-7): ("0x1.e86ab810ea912p-1", "0x1.e86ab702c678ep-1"),
    (1 / 3, 0.9): ("0x1.e2b7dddfefa66p-1", "0x1.be59eba3a1659p-2"),
    (1.0, 0.1): ("0x1.fd6efe4c9b8a5p-1", "0x0.0p+0"),
}


@pytest.mark.parametrize("pair", list(D_BYTES), ids=str)
def test_m2_form_reads_d_off_c_with_the_stored_bytes(pair):
    form = M2CanonicalForm.from_c(*pair)
    assert (form.c1, form.c2) == tuple(sorted(pair))
    assert (form.d1.hex(), form.d2.hex()) == D_BYTES[pair]


def test_m2_channel_flags_and_formula():
    extremal_form = M2CanonicalForm.from_c(0.0, 0.5)
    ch = m2_index2_channel(extremal_form)
    assert ch.kraus.validate() == (True, False)
    assert m2_index2_is_extremal(extremal_form)
    ok, _ = choi_extremal_test(ch)
    assert ok

    mixture_form = M2CanonicalForm.from_c(0.5, 0.5)
    ch2 = m2_index2_channel(mixture_form)
    assert ch2.kraus.validate() == (True, True)
    assert not m2_index2_is_extremal(mixture_form)
    ok2, _ = choi_extremal_test(ch2)
    assert not ok2


def test_m2_formula_matches_choi_test_on_grid():
    for c1 in np.linspace(0.0, 1.0, 20):
        for c2 in np.linspace(0.0, 1.0, 20):
            form = M2CanonicalForm.from_c(float(c1), float(c2))
            margin = abs(form.d1 * form.c2 - form.d2 * form.c1)
            if margin <= 1e-6:
                continue
            ok, _ = choi_extremal_test(m2_index2_channel(form))
            assert ok == m2_index2_is_extremal(form), (c1, c2)
