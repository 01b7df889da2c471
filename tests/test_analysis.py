"""Estimators, the locality verifier, and the mutual-information numerics."""

import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from bellmi import analysis
from bellmi.analysis import (
    CHUNK_ROUNDS,
    GG_MI_CLOSED_FORM,
    MAX_PARALLELISM,
    MIEstimate,
    _chunks,
    _simpson,
    chsh,
    estimate_correlations,
    exact_singlet_conditional,
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
    ExactCSModel,
    GisinGisinModel,
    SettingsSpec,
    TonerBaconModel,
    brans_build,
    preset,
)
from bellmi.sphere import RandomSource, vec_polar
from bellmi.table import FiniteDistribution


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
    for parallelism in (0, MAX_PARALLELISM + 1):
        with pytest.raises(ConfigError):
            estimate_correlations(
                TonerBaconModel(), spec, 100, RandomSource(0), parallelism=parallelism
            )


def _row_major_sphere(gen, k):
    z = gen.uniform(-1.0, 1.0, k)
    phi = gen.uniform(0.0, 2.0 * np.pi, k)
    s = np.sqrt(1.0 - z * z)
    return np.column_stack([s * np.cos(phi), s * np.sin(phi), z])


def _dot(v, w):
    return v[:, 0] * w[:, 0] + v[:, 1] * w[:, 1] + v[:, 2] * w[:, 2]


def _reference_estimate(kind, spec, rounds, seed):
    """(counts, attempts, alice_clicks) drawn round for round as the
    chunk path draws them, but with ``Generator.choice``, row-major sphere
    draws, fancy-index gathers and the outcome formulas written out."""
    n_a, n_b = spec.n_alice, spec.n_bob
    counts = np.zeros((n_a * n_b * 4,), dtype=np.int64)
    attempts = np.zeros(n_a * n_b, dtype=np.int64)
    clicks = np.zeros(n_a * n_b, dtype=np.int64)
    n_chunks = -(-rounds // CHUNK_ROUNDS)
    for i, sub in enumerate(RandomSource(seed).split(n_chunks)):
        k = min(CHUNK_ROUNDS, rounds - i * CHUNK_ROUNDS)
        s_set, s_mod = sub.split(2)
        p = spec.p_xy.ravel()
        code = s_set.generator().choice(p.size, size=k, p=p)
        xs = spec.alice_settings[code // n_b]
        ys = spec.bob_settings[code % n_b]
        gen = s_mod.generator()
        if kind == "tb":
            l1 = _row_major_sphere(gen, k)
            l2 = _row_major_sphere(gen, k)
            d1 = _dot(xs, l1)
            m = np.where(d1 >= 0.0, 1.0, -1.0) * np.where(_dot(xs, l2) >= 0.0, 1.0, -1.0)
            v = l1 + m[:, None] * l2
            assert not (v == 0.0).all(axis=1).any()  # no degenerate round to resample
            a = np.where(d1 >= 0.0, -1, 1)
            b = np.where(_dot(ys, v) >= 0.0, 1, -1)
            kept = np.ones(k, dtype=bool)
        else:
            lam = _row_major_sphere(gen, k)
            u = gen.random(k)
            da = _dot(xs, lam)
            a = np.where(da >= 0.0, 1, -1)
            b = np.where(_dot(ys, lam) >= 0.0, -1, 1)
            kept = u < np.abs(da)
        cell = code * 4 + (1 - a) // 2 * 2 + (1 - b) // 2
        counts += np.bincount(cell[kept], minlength=counts.size)
        attempts += np.bincount(code, minlength=attempts.size)
        clicks += np.bincount(code[kept], minlength=clicks.size)
    return counts.reshape(n_a, n_b, 2, 2), attempts.reshape(n_a, n_b), clicks.reshape(n_a, n_b)


def _non_product_3x5():
    gen = np.random.default_rng(35)
    w = np.exp(gen.standard_normal((3, 5)))
    w[1, 2] = 0.0
    alice = [vec_polar(0.2 + t, 1.3 * t) for t in (0.0, 1.0, 2.0)]
    bob = [vec_polar(0.5 + 0.6 * t, -0.7 * t) for t in range(5)]
    return SettingsSpec.finite(alice, bob, w / w.sum())


@pytest.mark.parametrize("kind", ["tb", "gg"])
@pytest.mark.parametrize("spec_name", ["chsh", "3x5"])
def test_estimate_matches_row_major_reference(kind, spec_name):
    spec = preset("chsh") if spec_name == "chsh" else _non_product_3x5()
    rounds = 2 * CHUNK_ROUNDS + 123
    counts, attempts, clicks = _reference_estimate(kind, spec, rounds, 81)
    model = TonerBaconModel() if kind == "tb" else GisinGisinModel()
    for parallelism in (1, 2):
        est = estimate_correlations(model, spec, rounds, RandomSource(81), parallelism)
        np.testing.assert_array_equal(est.counts, counts)
        np.testing.assert_array_equal(est.attempts, attempts)
        if kind == "gg":
            np.testing.assert_array_equal(est.kept_per_cell, clicks)
            np.testing.assert_array_equal(
                est.alice_efficiency(), clicks.sum(axis=1) / attempts.sum(axis=1)
            )
            assert est.bob_efficiency() == 1.0
        else:
            assert not est.post_selected


def test_chunks_start_without_building_every_child(monkeypatch):
    # 10**13 items are about 1.5e8 chunks; their children must not be built
    # before the first chunk runs
    def split_all(self, n):
        raise AssertionError(f"split({n}) builds every child up front")

    source = RandomSource(5)
    first_child = source.child(0).generator().random(4)
    monkeypatch.setattr(RandomSource, "split", split_all)
    chunks = _chunks(source, 10**13, lambda sub, k: (sub.generator().random(4), k))
    draws, k = next(chunks)
    chunks.close()
    assert k == CHUNK_ROUNDS
    np.testing.assert_array_equal(draws, first_child)


def test_chunks_keep_two_per_worker_in_flight(monkeypatch):
    submitted = []

    class CountingExecutor(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            submitted.append(args)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(analysis, "ThreadPoolExecutor", CountingExecutor)
    sizes = []
    for k in _chunks(RandomSource(0), 40 * CHUNK_ROUNDS + 7, lambda sub, k: k, parallelism=3):
        assert len(submitted) - len(sizes) <= 2 * 3  # this result included
        sizes.append(k)
    assert sizes == [CHUNK_ROUNDS] * 40 + [7]


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


def loop_factorization_deviation(model):
    """Reference: the factorization check cell by cell in Python.

    Returns the worst deviation and the deviation of every support cell,
    keyed by index tuples over ("a", "b", "x", "y") + hidden variables.
    The responses P(a|x,lam) and P(b|y,lam) are summed cell by cell too.
    """
    names = ("a", "b", "x", "y") + model.hidden_vars
    j = model.table.marginal(names)
    n_x, n_y = j.shape[2], j.shape[3]
    cells = {}
    for ia, ib, ix, iy, *il in np.ndindex(j.shape):
        lam = tuple(il)

        def p(a, b, x, y):
            return j[(a, b, x, y) + lam]

        mass = sum(p(a, b, ix, iy) for a in range(2) for b in range(2))
        if mass == 0.0:
            continue
        x_mass = sum(p(a, b, ix, y) for a in range(2) for b in range(2) for y in range(n_y))
        y_mass = sum(p(a, b, x, iy) for a in range(2) for b in range(2) for x in range(n_x))
        pa = sum(p(ia, b, ix, y) for b in range(2) for y in range(n_y)) / x_mass
        pb = sum(p(a, ib, x, iy) for a in range(2) for x in range(n_x)) / y_mass
        cells[(ia, ib, ix, iy) + lam] = abs(p(ia, ib, ix, iy) / mass - pa * pb)
    return max(cells.values()), cells


@st.composite
def hidden_variable_tables(draw):
    """Models with a, b in {1, -1}, 1-3 settings a side, 1-2 hidden
    variables, some cells empty, and the table's axes in random order."""
    hidden = [
        (f"h{k}", tuple(range(draw(st.integers(1, 3)))))
        for k in range(draw(st.integers(1, 2)))
    ]
    variables = draw(st.permutations(
        [("a", (1, -1)), ("b", (1, -1)),
         ("x", tuple(range(draw(st.integers(1, 3))))),
         ("y", tuple(range(draw(st.integers(1, 3)))))] + hidden
    ))
    shape = tuple(len(labels) for _, labels in variables)
    zeros = draw(st.integers(0, 4))
    w = draw(st.lists(st.sampled_from([0] * zeros + [1, 2, 3]),
                      min_size=math.prod(shape), max_size=math.prod(shape)))
    w = np.array(w, dtype=np.float64).reshape(shape)
    if w.sum() == 0.0:
        w.flat[0] = 1.0
    table = FiniteDistribution(variables, w / w.sum())
    hidden_vars = draw(st.permutations([name for name, _ in hidden]))
    return ExactCSModel(table=table, hidden_vars=tuple(hidden_vars))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(hidden_variable_tables())
def test_verifier_matches_cell_loop(model):
    report = verify_bell_local(model, tol=1e-9)
    worst, cells = loop_factorization_deviation(model)
    assert abs(report.max_deviation - worst) <= 1e-12
    assert report.ok == (report.max_deviation <= 1e-9)
    if not report.ok:
        names = ("a", "b", "x", "y") + model.hidden_vars
        assert list(report.witness) == list(names)
        cell = tuple(
            model.table.labels(name).index(report.witness[name]) for name in names
        )
        assert abs(cells[cell] - report.max_deviation) <= 1e-12


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
