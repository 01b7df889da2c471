"""Estimators, the locality verifier, and the mutual-information numerics."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from bellmi.analysis import (
    GG_MI_CLOSED_FORM,
    MIEstimate,
    _simpson,
    chsh,
    estimate_correlations,
    exact_singlet_conditional,
    factorization_deviation,
    make_signaling_example,
    mi_exact_finite,
    mi_finite_settings_tb,
    mi_gg_montecarlo,
    mi_gg_quadrature,
    mi_gg_uniform,
    mi_tb_montecarlo,
    mi_tb_quadrature,
    singlet_correlation,
    tb_mi_integrand,
    verify_bell_local,
)
from bellmi.errors import ConfigError, InternalConsistencyError, ValidationError
from bellmi.models import (
    GisinGisinModel,
    SettingsSpec,
    TonerBaconModel,
    brans_build,
    input_broadcast_build,
    pr_box_conditional,
    preset,
)
from bellmi.sphere import RandomSource, vec_polar
from bellmi.transforms import comm_to_cs


# ----------------------------------------------------------------------
# exact singlet quantities
# ----------------------------------------------------------------------

def test_singlet_correlation_special_cases():
    z = np.array([0.0, 0.0, 1.0])
    x = np.array([1.0, 0.0, 0.0])
    assert singlet_correlation(z, z) == -1.0
    assert singlet_correlation(z, -z) == 1.0
    assert singlet_correlation(z, x) == 0.0
    with pytest.raises(ValidationError):
        singlet_correlation(z, 2 * z)


def test_exact_singlet_conditional_is_normalized():
    spec = preset("chsh")
    corr = exact_singlet_conditional(spec)
    np.testing.assert_allclose(corr.probs.sum(axis=(2, 3)), 1.0, atol=1e-15)
    r = chsh(corr)
    assert abs(abs(r.s) - 2 * math.sqrt(2)) < 1e-12
    assert r.se == 0.0


# ----------------------------------------------------------------------
# Monte Carlo estimation
# ----------------------------------------------------------------------

def test_estimate_is_independent_of_parallelism():
    spec = preset("chsh")
    model = TonerBaconModel()
    serial = estimate_correlations(model, spec, 150_000, RandomSource(60))
    threaded = estimate_correlations(
        model, spec, 150_000, RandomSource(60), parallelism=4
    )
    np.testing.assert_array_equal(serial.counts, threaded.counts)
    np.testing.assert_array_equal(serial.attempts, threaded.attempts)


def test_estimate_correlator_tracks_target():
    x = vec_polar(0.3, 1.1)
    y = vec_polar(1.9, -0.4)
    spec = SettingsSpec.finite([x], [y])
    est = estimate_correlations(TonerBaconModel(), spec, 100_000, RandomSource(61))
    e = est.correlator(0, 0)
    se = est.correlator_se(0, 0)
    assert abs(e - singlet_correlation(x, y)) < 4 * se


def test_estimate_rejects_bad_args():
    spec = preset("chsh")
    with pytest.raises(ConfigError):
        estimate_correlations(TonerBaconModel(), spec, 0, RandomSource(0))
    with pytest.raises(ConfigError):
        estimate_correlations(
            TonerBaconModel(), spec, 100, RandomSource(0), parallelism=0
        )


def test_empty_cell_reports_config_error():
    p = np.array([[1.0, 0.0], [0.0, 0.0]])
    spec = SettingsSpec.finite(preset("chsh").alice_settings,
                               preset("chsh").bob_settings, p)
    est = estimate_correlations(TonerBaconModel(), spec, 5_000, RandomSource(63))
    assert est.kept_per_cell[0, 1] == 0
    with pytest.raises(ConfigError):
        est.correlator(0, 1)


def test_chsh_error_combines_cells():
    spec = preset("chsh")
    est = estimate_correlations(TonerBaconModel(), spec, 60_000, RandomSource(64))
    r = chsh(est)
    ses = [est.correlator_se(x, y) for x in range(2) for y in range(2)]
    assert r.se == pytest.approx(math.sqrt(sum(s * s for s in ses)), abs=1e-15)
    assert abs(r.s + 2 * math.sqrt(2)) < 6 * r.se


# ----------------------------------------------------------------------
# locality verifier
# ----------------------------------------------------------------------

def test_verifier_passes_brans_and_fails_signaling():
    spec = preset("chsh")
    model = brans_build(exact_singlet_conditional(spec), spec)
    report = verify_bell_local(model, tol=1e-12)
    assert report.ok
    assert report.max_deviation == 0.0
    bad = make_signaling_example()
    report = verify_bell_local(bad, tol=1e-9)
    assert not report.ok
    assert report.witness is not None
    assert report.max_deviation == pytest.approx(0.5, abs=1e-12)


def loop_factorization_deviation(j, resp_a, resp_b):
    """Reference: the factorization check cell by cell in Python."""
    worst = 0.0
    for ia, ib, ix, iy, il in np.ndindex(j.shape):
        mass = j[:, :, ix, iy, il].sum()
        if mass > 0.0:
            pa, pb = resp_a[ia, ix, il], resp_b[ib, iy, il]
            worst = max(worst, abs(j[ia, ib, ix, iy, il] / mass - pa * pb))
    return worst


def test_factorization_deviation_matches_cell_loop():
    spec = preset("chsh")
    models = [
        brans_build(exact_singlet_conditional(spec), spec),
        comm_to_cs(input_broadcast_build(pr_box_conditional(), spec), spec)[0],
    ]
    for model in models:
        j = model.joint()
        with np.errstate(divide="ignore", invalid="ignore"):
            resp_a = j.sum(axis=(1, 3)) / j.sum(axis=(0, 1, 3))  # P(a|x,lam)
            resp_b = j.sum(axis=(0, 2)) / j.sum(axis=(0, 1, 2))  # P(b|y,lam)
        variants = {
            "derived": (resp_a, resp_b, 0.0),
            "flipped a": (1.0 - resp_a, resp_b, 1.0),
            "coin b": (resp_a, np.full_like(resp_b, 0.5), 0.5),
        }
        for name, (ra, rb, want) in variants.items():
            got = float(factorization_deviation(j, ra, rb).max())
            assert got == want, name
            assert got == loop_factorization_deviation(j, ra, rb), name


def test_signaling_example_is_a_valid_table():
    t = make_signaling_example().table
    assert abs(sum(p for _, p in t.entries()) - 1.0) < 1e-12


# ----------------------------------------------------------------------
# MI estimates
# ----------------------------------------------------------------------

def test_mi_estimate_clamps_tiny_negatives():
    est = MIEstimate(value=-5e-11, method="exact", uncertainty=0.0)
    assert est.value == 0.0
    with pytest.raises(InternalConsistencyError):
        MIEstimate(value=-1e-9, method="exact", uncertainty=0.0)
    with pytest.raises(ConfigError):
        MIEstimate(value=0.5, method="guesswork", uncertainty=0.0)


def test_simpson_matches_scipy_on_smooth_integrand():
    want, _ = integrate.quad(math.sin, 0.0, math.pi)
    assert _simpson(np.sin, 0.0, math.pi, 64) == pytest.approx(want, abs=1e-6)
    # fourth-order convergence: doubling panels shrinks the error ~16x
    e1 = abs(_simpson(np.sin, 0.0, math.pi, 64) - want)
    e2 = abs(_simpson(np.sin, 0.0, math.pi, 128) - want)
    assert e2 < e1 / 12.0


def test_tb_integrand_shape():
    theta = np.linspace(0.0, math.pi, 7)
    vals = tb_mi_integrand(theta)
    assert vals[0] == 0.0
    assert vals[-1] == pytest.approx(0.0, abs=1e-15)
    assert np.all(vals >= 0.0)


def test_mi_tb_quadrature_stability():
    est = mi_tb_quadrature()
    # doubling the panel count moves the value by less than the reported bound
    est2 = mi_tb_quadrature(2048)
    assert abs(est2.value - est.value) <= est.uncertainty
    assert est.method == "quadrature"
    with pytest.raises(ConfigError):
        mi_tb_quadrature(10)
    with pytest.raises(ConfigError):
        mi_tb_quadrature(1001)


def test_mi_tb_quadrature_pinned_value():
    # frozen from the converged quadrature ladder
    assert mi_tb_quadrature(8192).value == pytest.approx(0.8504541153, abs=1e-9)


def test_mi_tb_montecarlo_agrees_with_quadrature():
    quad = mi_tb_quadrature()
    mc = mi_tb_montecarlo(150_000, RandomSource(70))
    assert abs(mc.value - quad.value) < 3 * mc.uncertainty
    assert mc.method == "monte-carlo"


def test_mi_gg_closed_form_and_quadrature():
    closed = mi_gg_uniform()
    assert closed.value == GG_MI_CLOSED_FORM
    assert closed.value == pytest.approx(1 - 1 / (2 * math.log(2)), abs=1e-15)
    quad = mi_gg_quadrature()
    assert abs(quad.value - closed.value) < 1e-8


def test_mi_gg_montecarlo_agrees_with_closed_form():
    mc = mi_gg_montecarlo(150_000, RandomSource(71))
    assert abs(mc.value - GG_MI_CLOSED_FORM) < 3 * mc.uncertainty


def test_mi_finite_settings_validation():
    with pytest.raises(ConfigError):
        mi_finite_settings_tb(preset("chsh"), 100, RandomSource(0))
    with pytest.raises(ConfigError):
        mi_finite_settings_tb(SettingsSpec.continuous_uniform(), 2000, RandomSource(0))


def test_mi_finite_single_alice_setting_is_zero():
    # with one Alice setting the message is a function of mu alone
    spec = SettingsSpec.finite([[0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]])
    est = mi_finite_settings_tb(spec, 2_000, RandomSource(72))
    assert est.value == 0.0
    assert est.uncertainty == 0.0


def test_mi_finite_chsh_stays_below_one_bit():
    est = mi_finite_settings_tb(preset("chsh"), 20_000, RandomSource(73))
    assert est.value <= 1.0 + 3 * est.uncertainty


@pytest.mark.parametrize(
    "estimate",
    [
        lambda: mi_tb_montecarlo(1_000_000, RandomSource(74)),
        lambda: mi_finite_settings_tb(preset("chsh"), 1_000_000, RandomSource(75)),
    ],
    ids=["mi_tb_montecarlo", "mi_finite_settings_tb"],
)
def test_mi_montecarlo_memory_stays_one_chunk_deep(estimate):
    # a million samples drawn at once hold two 24 MB vector arrays
    tracemalloc.start()
    try:
        estimate()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


def test_mi_exact_finite_brans_default_vars():
    spec = preset("chsh")
    model = brans_build(exact_singlet_conditional(spec), spec)
    est = mi_exact_finite(model)
    assert est.method == "exact"
    assert est.value == pytest.approx(2.0, abs=1e-12)
    # restricting to Bob's setting alone gives H(y) = 1 bit
    est_y = mi_exact_finite(model, a_vars=("y",))
    assert est_y.value == pytest.approx(1.0, abs=1e-12)
