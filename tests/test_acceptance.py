"""Acceptance gate: the nine headline guarantees with pinned tolerances.

Each test prints exactly one pass/fail line (through captured-output
bypass, so the verdicts appear in the normal pytest run) and asserts the
same verdict.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from bellmi.analysis import (
    GG_MI_CLOSED_FORM,
    chsh,
    estimate_correlations,
    exact_singlet_conditional,
    mi_exact_finite,
    mi_finite_settings_tb,
    mi_gg_montecarlo,
    mi_gg_quadrature,
    mi_gg_uniform,
    mi_tb_montecarlo,
    mi_tb_quadrature,
    singlet_correlation,
    verify_bell_local,
)
from bellmi.models import (
    GisinGisinModel,
    SettingsSpec,
    TonerBaconModel,
    brans_build,
    input_broadcast_build,
    pr_box_conditional,
    preset,
)
from bellmi.sphere import RandomSource, sample_uniform_sphere
from bellmi.transforms import comm_to_cs
from conftest import exact_conditional, fibonacci_sphere, run_cli

ROOT_TWO = math.sqrt(2.0)


def _verdict(capsys, number, name, checks, elapsed, budget):
    """Print one pass/fail line for the criterion, then assert it."""
    checks = list(checks)
    if budget is not None:
        checks.append((elapsed < budget, f"runtime {elapsed:.2f}s < {budget:.0f}s"))
    ok = all(flag for flag, _ in checks)
    failed = [text for flag, text in checks if not flag]
    detail = "; ".join(text for _, text in checks)
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\ncriterion {number} [{status}] {name}: {detail}")
    assert ok, f"criterion {number} failed: {failed}"


def test_criterion_1_singlet_reproduction(capsys):
    t0 = time.perf_counter()
    checks = []
    spec = preset("chsh")
    est = estimate_correlations(TonerBaconModel(), spec, 1_000_000, RandomSource(101))
    worst = 0.0
    for x in range(2):
        for y in range(2):
            target = singlet_correlation(spec.alice_settings[x], spec.bob_settings[y])
            z = abs(est.correlator(x, y) - target) / est.correlator_se(x, y)
            worst = max(worst, z)
    checks.append((worst <= 4.0, f"chsh preset worst |E - (-x.y)| = {worst:.2f} se <= 4 se"))
    gen = RandomSource(102).generator()
    pairs = zip(sample_uniform_sphere(gen, 12), sample_uniform_sphere(gen, 12))
    worst = 0.0
    for (x, y), src in zip(pairs, RandomSource(103).split(12)):
        pair_est = estimate_correlations(
            TonerBaconModel(), SettingsSpec.finite([x], [y]), 1_000_000, src
        )
        z = abs(
            pair_est.correlator(0, 0) - singlet_correlation(x, y)
        ) / pair_est.correlator_se(0, 0)
        worst = max(worst, z)
    checks.append(
        (worst <= 4.0, f"12 random pairs at n=1e6 worst gap = {worst:.2f} se <= 4 se")
    )
    _verdict(capsys, 1, "singlet reproduction", checks, time.perf_counter() - t0, 30.0)


def test_criterion_2_headline_mi_communication(capsys):
    t0 = time.perf_counter()
    quad = mi_tb_quadrature()
    mc = mi_tb_montecarlo(200_000, RandomSource(104))
    z = abs(mc.value - quad.value) / mc.uncertainty
    checks = [
        (abs(quad.value - 0.85) <= 0.02, f"quadrature {quad.value:.6f} = 0.85 +/- 0.02"),
        (z <= 3.0, f"monte carlo gap {z:.2f} sigma <= 3 sigma"),
    ]
    _verdict(capsys, 2, "one-bit route mutual information", checks,
             time.perf_counter() - t0, 5.0)


def test_criterion_3_headline_mi_detection(capsys):
    t0 = time.perf_counter()
    closed = mi_gg_uniform()
    quad = mi_gg_quadrature()
    mc = mi_gg_montecarlo(200_000, RandomSource(105))
    z = abs(mc.value - closed.value) / mc.uncertainty
    checks = [
        (
            closed.value == GG_MI_CLOSED_FORM
            and abs(closed.value - (1 - 1 / (2 * math.log(2)))) < 1e-15,
            f"closed form {closed.value:.6f} = 1 - 1/(2 ln 2)",
        ),
        (abs(closed.value - 0.28) <= 0.01, "matches 0.28 +/- 0.01"),
        (
            abs(quad.value - closed.value) < 1e-8,
            f"quadrature gap {abs(quad.value - closed.value):.1e} < 1e-8",
        ),
        (z <= 3.0, f"monte carlo gap {z:.2f} sigma <= 3 sigma"),
    ]
    _verdict(capsys, 3, "detection route mutual information", checks,
             time.perf_counter() - t0, 5.0)


def test_criterion_4_exact_bound_pr_box(capsys):
    t0 = time.perf_counter()
    spec = preset("chsh")
    comm = input_broadcast_build(pr_box_conditional(), spec)
    cs, report = comm_to_cs(comm, spec)
    loc = verify_bell_local(cs, tol=1e-12)
    checks = [
        (report.corr_deviation == 0.0, "reproduction deviation = 0 exactly"),
        (report.inputs_deviation == 0.0, "input-marginal deviation = 0 exactly"),
        (loc.ok and loc.max_deviation <= 1e-12,
         f"bell-local at 1e-12 (residual {loc.max_deviation:.1e})"),
        (report.mi_bound == 1.0, "H(m) = 1 bit exactly"),
        (report.mi_value <= report.mi_bound,
         f"I = {report.mi_value} <= H(m) = {report.mi_bound}"),
    ]
    _verdict(capsys, 4, "exact one-bit bound on the pr-box", checks,
             time.perf_counter() - t0, 1.0)


def test_criterion_5_chain_identities(capsys):
    t0 = time.perf_counter()
    spec = preset("chsh")
    cs, _ = comm_to_cs(input_broadcast_build(pr_box_conditional(), spec), spec)
    t = cs.table
    i_total = t.mutual_information(("x", "y"), ("mu", "m"))
    i_mu = t.mutual_information(("x", "y"), ("mu",))
    i_m_given_mu = t.conditional_mutual_information(("x", "y"), ("m",), ("mu",))
    h_m_given_mu = t.entropy(("m", "mu")) - t.entropy(("mu",))
    i_bob = t.mutual_information(("y",), ("mu", "m"))
    checks = [
        (
            abs(i_total - (i_mu + i_m_given_mu)) <= 1e-10,
            f"I(lam:x,y) = I(mu:x,y) + I(m:x,y|mu) to 1e-10 "
            f"(gap {abs(i_total - (i_mu + i_m_given_mu)):.1e})",
        ),
        (
            abs(i_total - h_m_given_mu) <= 1e-10,
            f"I(lam:x,y) = H(m|mu) to 1e-10 (gap {abs(i_total - h_m_given_mu):.1e})",
        ),
        (i_bob == 0.0, "I(y:lam) = 0 exactly"),
    ]
    _verdict(capsys, 5, "chain identities", checks, time.perf_counter() - t0, 1.0)


def test_criterion_6_detection_efficiencies(capsys):
    t0 = time.perf_counter()
    checks = []
    gen = RandomSource(106).generator()
    from bellmi.sphere import sample_uniform_sphere

    alice = sample_uniform_sphere(gen, 5)
    bob = sample_uniform_sphere(gen, 5)
    spec = SettingsSpec.finite(alice, bob)
    est = estimate_correlations(GisinGisinModel(), spec, 1_000_000, RandomSource(107))
    eff = est.alice_efficiency()
    attempts = est.attempts.sum(axis=1)
    worst = max(
        abs(eff[i] - 0.5) / math.sqrt(0.25 / attempts[i]) for i in range(5)
    )
    checks.append(
        (worst <= 4.0, f"P(D_A) = 0.5: worst gap {worst:.2f} sigma <= 4 sigma")
    )
    checks.append((est.bob_efficiency() == 1.0, "P(D_B) = 1 exactly"))
    worst = 0.0
    for x in range(5):
        for y in range(5):
            target = singlet_correlation(alice[x], bob[y])
            z = abs(est.correlator(x, y) - target) / est.correlator_se(x, y)
            worst = max(worst, z)
    checks.append(
        (worst <= 4.0, f"post-selected E: worst gap {worst:.2f} sigma <= 4 sigma")
    )
    # accepted hidden vectors against the post-selected density |lam.x| / 2pi:
    # along t = lam.x the accepted marginal is |t| on [-1, 1]
    n = 400_000
    batch = GisinGisinModel().sample_rounds(
        np.tile([[0.0, 0.0, 1.0]], (n, 1)),
        np.tile([[1.0, 0.0, 0.0]], (n, 1)),
        RandomSource(110),
    )
    t = batch.lam[batch.click_a, 2]
    edges = np.linspace(-1.0, 1.0, 41)
    cdf = (edges * np.abs(edges) + 1.0) / 2.0
    expected = t.size * np.diff(cdf)
    obs, _ = np.histogram(t, bins=edges)
    stat = float(((obs - expected) ** 2 / expected).sum())
    pval = float(stats.chi2.sf(stat, 39))
    checks.append(
        (pval > 1e-3, f"accepted-lambda histogram chi2 p = {pval:.3f} > 1e-3")
    )
    _verdict(capsys, 6, "detection efficiencies", checks, time.perf_counter() - t0, 30.0)


def test_criterion_7_chsh_paradox(capsys):
    t0 = time.perf_counter()
    spec = preset("chsh")
    corr = exact_singlet_conditional(spec)
    direct = chsh(corr)
    model = brans_build(corr, spec)
    loc = verify_bell_local(model, tol=1e-12)
    rebuilt = chsh(exact_conditional(model))
    mi = mi_exact_finite(model)
    h_xy = model.table.entropy(("x", "y"))
    checks = [
        (
            abs(abs(direct.s) - 2 * ROOT_TWO) <= 1e-12,
            f"exact table |S| = 2 sqrt 2 to 1e-12 (gap {abs(abs(direct.s) - 2 * ROOT_TWO):.1e})",
        ),
        (loc.ok and loc.max_deviation == 0.0, "verifier deviation = 0 exactly"),
        (
            abs(abs(rebuilt.s) - 2 * ROOT_TWO) <= 1e-12,
            "settings-correlated model gives the same |S|",
        ),
        (mi.value == 2.0 and h_xy == 2.0, "I(x,y:lam) = H(x,y) = 2 bits exactly"),
    ]
    _verdict(capsys, 7, "violation under bell-locality", checks,
             time.perf_counter() - t0, 1.0)


def test_criterion_8_finite_settings_bound(capsys):
    t0 = time.perf_counter()
    est = mi_finite_settings_tb(preset("chsh"), 100_000, RandomSource(108))
    checks = [
        (
            est.value <= 1.0 + 3 * est.uncertainty,
            f"chsh preset I = {est.value:.4f} <= 1 + 3 sigma",
        )
    ]
    # 100 spread settings approach the continuum value; the tolerance
    # combines monte carlo error with a discretization allowance (the
    # 100-point bias measures ~2e-3)
    settings = fibonacci_sphere(100)
    spread = mi_finite_settings_tb(
        SettingsSpec.finite(settings, settings), 100_000, RandomSource(109)
    )
    quad = mi_tb_quadrature()
    tol = 3 * spread.uncertainty + 0.01
    gap = abs(spread.value - quad.value)
    checks.append(
        (gap <= tol, f"100 spread settings gap {gap:.2e} <= {tol:.2e}")
    )
    _verdict(capsys, 8, "finite-settings bound", checks, time.perf_counter() - t0, 60.0)


def test_criterion_9_cli_determinism(capsys, tmp_path):
    t0 = time.perf_counter()
    checks = []

    sim = ["simulate", "--model", "tb", "--rounds", "50000", "--seed", "11"]
    _, out_p1, _ = run_cli(sim + ["--parallelism", "1"])
    _, out_p4, _ = run_cli(sim + ["--parallelism", "4"])
    _, out_again, _ = run_cli(sim + ["--parallelism", "1"])
    checks.append((out_p1 == out_again, "simulate repeat is byte-identical"))
    checks.append((out_p1 == out_p4, "simulate independent of parallelism degree"))

    mi = ["mutual-info", "--target", "tb-finite", "--samples", "20000", "--seed", "12"]
    _, mi_a, _ = run_cli(mi)
    _, mi_b, _ = run_cli(mi)
    checks.append((mi_a == mi_b, "mutual-info repeat is byte-identical"))

    f1, f2 = tmp_path / "m1.json", tmp_path / "m2.json"
    tr = ["transform", "--model", "gg", "--rounds", "30000", "--seed", "13"]
    _, rep_a, _ = run_cli(tr + ["--out-file", str(f1)])
    _, rep_b, _ = run_cli(tr + ["--out-file", str(f2)])
    checks.append(
        (rep_a == rep_b and f1.read_bytes() == f2.read_bytes(),
         "transform report and model file are byte-identical"),
    )

    payload = json.loads(out_p1)
    checks.append(
        ("parallelism" not in payload, "output does not echo the parallelism degree")
    )
    _verdict(capsys, 9, "cli determinism", checks, time.perf_counter() - t0, None)
