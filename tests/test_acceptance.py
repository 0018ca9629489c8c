"""Acceptance gate: the nine shipping criteria, one visible line each.

Run with plain ``pytest`` — each criterion prints ``[criterion N] PASS/FAIL``
directly to the terminal (bypassing capture) and then asserts.
"""

import numpy as np

from qbirkhoff import (
    Channel,
    ConjugacyCertificate,
    KrausFamily,
    M2CanonicalForm,
    choi_extremal_test,
    classify,
    conjugate_channel,
    cyclic_projections,
    decompose_extremal,
    deperiodize,
    landau_streater_test,
    m2_index2_channel,
    m2_index2_is_extremal,
    m3_closed_form,
    m3_face_membership,
    m3_matrix,
    verify_certificate,
)
from qbirkhoff.birkhoff import birkhoff_decompose
from qbirkhoff.catalog import (
    build_example,
    depolarizing_channel,
    diagonal_pair_family,
    identity_channel,
    spin_triple_family,
    weyl_mixture_channel,
)
from qbirkhoff.numerics import dagger, max_abs

import helpers
from helpers import cycle_embed_channel, swap_channel


def report(capfd, num, ok, detail):
    with capfd.disabled():
        print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_diagonal_pair_reproduction(capfd):
    fam = diagonal_pair_family()
    unital, tp = fam.validate()
    v1 = fam.ops[0]
    product_err = max_abs(v1 @ dagger(v1) - np.diag([1.0, 0.0, 0.5, 0.5]))
    ch = Channel(fam)
    extremal, _ = choi_extremal_test(ch)
    adjoint = KrausFamily.from_ops([dagger(v) for v in fam.ops])
    cert = ConjugacyCertificate(
        u=np.eye(4), g=np.eye(2), w=np.eye(4), antiunitary=True
    )
    cert_ok = verify_certificate(fam, adjoint, cert)
    ok = unital and tp and product_err <= 1e-12 and extremal and cert_ok
    report(
        capfd, 1, ok,
        f"doubly stochastic={unital and tp}, |v1v1*-D(1,0,1/2,1/2)|={product_err:.2e}, "
        f"choi-extremal={extremal}, anti-unitary certificate={cert_ok}",
    )


def test_criterion_2_spin_triple_reproduction(capfd):
    fam = spin_triple_family()
    unit_err = max_abs(sum(v @ dagger(v) for v in fam.ops) - np.eye(3))
    extremal, _ = choi_extremal_test(build_example("ex2.11"))
    conj = conjugate_channel(fam)
    # expand each conjugated operator in the original three directions
    basis = fam.ops
    gram = np.array([[np.vdot(a.ravel(), b.ravel()) for b in basis] for a in basis])
    span_err = 0.0
    signs = []
    for k, c in enumerate(conj.ops):
        coeff = np.linalg.solve(gram, np.array([np.vdot(a.ravel(), c.ravel()) for a in basis]))
        rebuilt = sum(coeff[i] * basis[i] for i in range(3))
        span_err = max(span_err, max_abs(rebuilt - c))
        signs.append(np.round(coeff, 6).tolist())
    expected = [[1, 0, 0], [0, -1, 0], [0, 0, 1]]
    sign_ok = all(
        abs(signs[k][i] - expected[k][i]) < 1e-9 for k in range(3) for i in range(3)
    )
    ok = unit_err <= 1e-12 and extremal and span_err <= 1e-9 and sign_ok
    report(
        capfd, 2, ok,
        f"|Σvv*-I|={unit_err:.2e}, CP-extremal={extremal}, "
        f"conjugation negates exactly l_y (span error {span_err:.2e})",
    )


def test_criterion_3_weyl_pair(capfd):
    ch = build_example("ex2.12", m=2)
    cl = classify(ch)
    extremal, cert = landau_streater_test(ch)
    fwd, rev = cert.residuals(ch.kraus) if cert is not None else (np.inf, np.inf)
    dec = decompose_extremal(ch)
    weights_ok = (
        len(dec.terms) == 2
        and all(abs(w - 0.5) <= 1e-10 for w, _ in dec.terms)
        and all(leaf.kraus.index == 1 for _, leaf in dec.terms)
    )
    mixed = classify(weyl_mixture_channel(2, 0.5))
    ok = (
        ch.kraus.index == 2
        and cl.fixed_dim == 1
        and cl.ergodic
        and not extremal
        and fwd < 1e-9
        and rev < 1e-9
        and all(landau_streater_test(leaf)[0] for _, leaf in dec.terms)
        and weights_ok
        and mixed.strongly_mixing
    )
    report(
        capfd, 3, ok,
        f"index={ch.kraus.index}, fixed_dim={cl.fixed_dim}, certificate residuals "
        f"({fwd:.2e},{rev:.2e}), two unitary terms at weight 1/2={weights_ok}, "
        f"mixture strongly mixing={mixed.strongly_mixing}",
    )


def test_criterion_4_ls_choi_consistency(capfd):
    corpus = []
    for n in (2, 3, 4):
        gen = np.random.default_rng(4100 + n)
        corpus.extend(helpers.random_ds_channel(n, gen) for _ in range(170))
    gen = np.random.default_rng(4242)
    # structured members keep the LS ⟹ Choi direction non-vacuous
    structured = [build_example("ex2.4"), build_example("ex2.11")]
    structured += [
        Channel.from_kraus(KrausFamily.from_ops([helpers.haar_unitary(n, gen)]))
        for n in (2, 3, 4)
        for _ in range(4)
    ]
    structured += [helpers.random_unitary_mixture(3, 2, gen) for _ in range(4)]
    pool = corpus + structured
    choi_to_ls_violations = 0
    ls_to_choi_violations = 0
    ls_count = 0
    for ch in pool:
        choi_ok, _ = choi_extremal_test(ch)
        ls_ok, _ = landau_streater_test(ch)
        if choi_ok and not ls_ok:
            choi_to_ls_violations += 1
        if ls_ok:
            ls_count += 1
            if not choi_ok:
                ls_to_choi_violations += 1
    ok = (
        len(corpus) >= 500
        and choi_to_ls_violations == 0
        and ls_to_choi_violations == 0
        and ls_count > 0
    )
    report(
        capfd, 4, ok,
        f"{len(pool)} channels ({len(corpus)} random), {ls_count} LS-extremal, "
        f"violations: choi→ls {choi_to_ls_violations}, ls→choi {ls_to_choi_violations}",
    )


def test_criterion_5_qubit_decomposition(capfd):
    gen = np.random.default_rng(4500)
    non_extremal = 0
    non_unitary_leaves = 0
    worst_err = 0.0
    for _ in range(200):
        ch = helpers.random_ds_channel(2, gen)
        dec = decompose_extremal(ch)
        if not all(landau_streater_test(leaf)[0] for _, leaf in dec.terms):
            non_extremal += 1
        if any(leaf.kraus.index != 1 for _, leaf in dec.terms):
            non_unitary_leaves += 1
        worst_err = max(worst_err, dec.reconstruction_error(ch))
    ok = non_extremal == 0 and non_unitary_leaves == 0 and worst_err < 1e-7
    report(
        capfd, 5, ok,
        f"200 random M2 channels: non-extremal decompositions={non_extremal}, "
        f"non-unitary leaves={non_unitary_leaves}, worst reconstruction={worst_err:.2e}",
    )


def test_criterion_6_m2_grid(capfd):
    cells = 0
    disagreements = 0
    for c1 in np.linspace(0.0, 1.0, 20):
        for c2 in np.linspace(0.0, 1.0, 20):
            form = M2CanonicalForm.from_c(float(c1), float(c2))
            if abs(form.d1 * form.c2 - form.d2 * form.c1) <= 1e-6:
                continue
            cells += 1
            rank_verdict, _ = choi_extremal_test(m2_index2_channel(form))
            if rank_verdict != m2_index2_is_extremal(form):
                disagreements += 1
    ok = cells > 0 and disagreements == 0
    report(
        capfd, 6, ok,
        f"{cells} non-degenerate grid cells, closed form vs rank test "
        f"disagreements={disagreements}",
    )


def test_criterion_7_classical_birkhoff(capfd):
    gen = np.random.default_rng(4700)
    worst_recon = 0.0
    bound_violations = 0
    weight_err = 0.0
    for i in range(100):
        n = 3 + i % 6
        s = helpers.random_ds_matrix(n, gen)
        dec = birkhoff_decompose(s)
        worst_recon = max(worst_recon, max_abs(dec.mixture() - s))
        if len(dec.terms) > n * n - 2 * n + 2:
            bound_violations += 1
        weight_err = max(weight_err, abs(dec.total_weight() - 1.0))
    ok = worst_recon <= 1e-9 and bound_violations == 0 and weight_err <= 1e-12
    report(
        capfd, 7, ok,
        f"100 matrices n∈{{3..8}}: worst reconstruction={worst_recon:.2e}, "
        f"term bound violations={bound_violations}, worst weight defect={weight_err:.2e}",
    )


def test_criterion_8_spectral_ladder(capfd):
    ident = classify(identity_channel())
    depol = classify(depolarizing_channel())
    depol_tail = np.sort(np.abs(depol.eigenvalues))[:-1]
    swap = swap_channel()
    swap_cl = classify(swap)
    # independent dense eigensolve of the superoperator rebuilt by action
    swap_eigs = np.linalg.eigvals(helpers.super_by_apply(swap))
    oracle_fixed = int(np.sum(np.abs(swap_eigs - 1.0) < 1e-8))
    cycle = cycle_embed_channel(3)
    fam = cyclic_projections(cycle)
    _, residual = deperiodize(cycle, fam)
    residual_cl = classify(residual)
    ok = (
        not ident.ergodic
        and depol.strongly_mixing
        and abs(np.max(np.abs(depol.eigenvalues)) - 1.0) <= 1e-9
        and np.all(depol_tail <= 1e-9)
        and not swap_cl.ergodic
        and swap_cl.fixed_dim == oracle_fixed == 2
        and fam is not None
        and fam.period == 3
        and not residual_cl.ergodic
    )
    report(
        capfd, 8, ok,
        f"identity ergodic={ident.ergodic}, depolarizing mixing={depol.strongly_mixing} "
        f"(tail max {np.max(depol_tail):.1e}), swap fixed_dim={swap_cl.fixed_dim} "
        f"vs oracle {oracle_fixed}, cycle period={fam.period if fam else None}, "
        f"residual ergodic={residual_cl.ergodic}",
    )


def test_criterion_9_m3_face(capfd):
    gen = np.random.default_rng(4900)
    disagreements = 0
    checked = 0
    for _ in range(10_000):
        z = [
            np.sqrt(gen.uniform()) * np.exp(2j * np.pi * gen.uniform())
            for _ in range(3)
        ]
        f = m3_closed_form(*z)
        if abs(f) <= 1e-9:
            continue
        checked += 1
        min_eig = np.linalg.eigvalsh(m3_matrix(*z))[0]
        if (f > 0) != (min_eig > 0):
            disagreements += 1
    corner = m3_face_membership(1, 1, 1)
    origin = m3_face_membership(0, 0, 0)
    ok = disagreements == 0 and corner == "boundary" and origin == "interior"
    report(
        capfd, 9, ok,
        f"{checked} sampled points, disagreements={disagreements}, "
        f"(1,1,1)={corner}, (0,0,0)={origin}",
    )
