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
    estimate_correlations,
    exact_singlet_conditional,
    mi_exact_finite,
    mi_finite_settings_tb,
    mi_gg_quadrature,
    mi_gg_uniform,
    mi_tb_montecarlo,
    mi_tb_quadrature,
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
from bellmi.transforms import brans_to_cs
from conftest import (
    chsh,
    dense_conditional_mutual_information,
    dense_locality_deviations,
    dense_marginal,
    dense_mutual_information,
    dense_table,
    dense_weights,
    fibonacci_sphere,
    make_signaling_example,
    mi_gg_montecarlo,
    row_major_sphere,
    singlet_conditional_oracle,
    singlet_correlation,
    table_entries,
)


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


# the six signed axes, with signed zero components, so some dots are -0.0
SIGNED_AXES = [tuple(sign * (i == k) for i in range(3)) for k in range(3) for sign in (1.0, -1.0)]


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.sqrt(v @ v)


@st.composite
def singlet_specs(draw):
    """Specs whose Bob alphabet is drawn apart from Alice's, or is her
    alphabet itself, its antipodes, or vectors orthogonal to hers, so dots
    of exactly +-1 (and rounded past them) and of +-0.0 both occur."""
    raw = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: sum(c * c for c in v) > 0.01)
    points = st.one_of(raw.map(_unit), st.sampled_from(SIGNED_AXES).map(np.array))
    alice = np.array(draw(st.lists(points, min_size=1, max_size=8)))
    mode = draw(st.sampled_from(("drawn", "identical", "antipodal", "orthogonal")))
    if mode == "drawn":
        bob = np.array(draw(st.lists(points, min_size=1, max_size=8)))
    elif mode == "identical":
        bob = alice.copy()
    elif mode == "antipodal":
        bob = -alice
    else:  # crossed with the axis least along each vector
        axes = np.eye(3)[np.argmin(np.abs(alice), axis=1)]
        bob = np.array([_unit(v) for v in np.cross(alice, axes)])
    return SettingsSpec(alice, bob)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(singlet_specs())
def test_exact_singlet_conditional_matches_the_dot_loop_bitwise(spec):
    got = exact_singlet_conditional(spec).probs
    assert got.tobytes() == singlet_conditional_oracle(spec).probs.tobytes()


def test_exact_singlet_conditional_on_signed_axes():
    spec = SettingsSpec(np.array(SIGNED_AXES), np.array(SIGNED_AXES))
    probs = exact_singlet_conditional(spec).probs
    assert probs.tobytes() == singlet_conditional_oracle(spec).probs.tobytes()
    # parallel settings anticorrelate, antipodal ones correlate, and
    # orthogonal ones give the uniform block
    assert (probs[0, 0] == [[0.0, 0.5], [0.5, 0.0]]).all()
    assert (probs[0, 1] == [[0.5, 0.0], [0.0, 0.5]]).all()
    assert (probs[0, 2] == 0.25).all()


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
    spec = SettingsSpec([x], [y])
    est = estimate_correlations(TonerBaconModel(), spec, 100_000, RandomSource(61))
    e = est.correlators[0, 0]
    se = est.correlator_se[0, 0]
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


def _dot(v, w):
    return v[:, 0] * w[:, 0] + v[:, 1] * w[:, 1] + v[:, 2] * w[:, 2]


def _reference_estimate(kind, spec, rounds, seed):
    """(counts, attempts, alice_clicks) drawn round for round as the
    chunk path draws them, but with ``Generator.choice``, pair-by-pair
    row-major sphere draws, fancy-index gathers and the outcome formulas
    written out."""
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
            l1 = row_major_sphere(gen, k)
            l2 = row_major_sphere(gen, k)
            d1 = _dot(xs, l1)
            m = np.where(d1 >= 0.0, 1.0, -1.0) * np.where(_dot(xs, l2) >= 0.0, 1.0, -1.0)
            v = l1 + m[:, None] * l2
            assert not (v == 0.0).all(axis=1).any()  # no degenerate round to resample
            a = np.where(d1 >= 0.0, -1, 1)
            b = np.where(_dot(ys, v) >= 0.0, 1, -1)
            kept = np.ones(k, dtype=bool)
        else:
            lam = row_major_sphere(gen, k)
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
    return SettingsSpec(alice, bob, w / w.sum())


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
            # Python's int quotient and numpy's float64 division agree bit for bit
            assert est.efficiency == {
                "alice_per_setting": (clicks.sum(axis=1) / attempts.sum(axis=1)).tolist(),
                "bob": 1.0,
            }
        else:
            assert not est.post_selected
            assert est.efficiency is None


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
    spec = SettingsSpec(preset("chsh").alice_settings, preset("chsh").bob_settings, p)
    est = estimate_correlations(TonerBaconModel(), spec, 5_000, RandomSource(63))
    assert est.kept_per_cell[0, 1] == 0
    # an empty cell estimates NaN, never a zero that reads as data
    assert np.isnan(est.probs[0, 1]).all() and np.isnan(est.correlators[0, 1])
    assert np.isnan(est.prob_se[0, 1]).all() and np.isnan(est.correlator_se[0, 1])
    assert np.isfinite(est.correlators[0, 0])
    for arr in (est.probs, est.prob_se, est.correlators, est.correlator_se):
        assert not arr.flags.writeable
    with pytest.raises(ConfigError):
        chsh(est)


def test_chsh_error_combines_cells():
    spec = preset("chsh")
    est = estimate_correlations(TonerBaconModel(), spec, 60_000, RandomSource(64))
    r = chsh(est)
    ses = [est.correlator_se[x, y] for x in range(2) for y in range(2)]
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


@pytest.mark.parametrize("mirrored", [False, True])
def test_verifier_passes_local_models_with_more_settings_than_hidden_values(mirrored):
    # three settings on one side, one on the other, two lam values: a = +1
    # iff x + lam is even, b = +1; the mirrored model swaps the sides
    entries = [(1 - 2 * ((x + lam) % 2), 1, x, 0, lam) for x in range(3) for lam in range(2)]
    sides = [("x", (0, 1, 2)), ("y", (0,))]
    if mirrored:
        entries = [(b, a, y, x, lam) for a, b, x, y, lam in entries]
        sides = [("x", (0,)), ("y", (0, 1, 2))]
    variables = [("a", (1, -1)), ("b", (1, -1)), *sides, ("lam", (0, 1))]
    codes = [[labels.index(v) for v in column]
             for (_, labels), column in zip(variables, zip(*entries))]
    model = ExactCSModel(table=FiniteDistribution(variables, codes, [1 / 6] * 6),
                         hidden_vars=("lam",))
    report = verify_bell_local(model, tol=1e-12)
    assert report.ok
    assert report.max_deviation == 0.0


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
    table = dense_table(variables, w / w.sum())
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


@st.composite
def sparse_models(draw, n_hidden=st.integers(1, 2)):
    """``(model, dyadic)``: a model built from sparse entries, with a, b in
    {1, -1} or {1, 0, -1}, 1-3 settings a side, ``n_hidden`` hidden
    variables, the variables in random order, and entries that repeat cells
    or carry zero weight.
    ``dyadic`` tables have weights k / 2**n, so every sum of them is exact."""
    hidden = [
        (f"h{k}", tuple(range(draw(st.integers(1, 4)))))
        for k in range(draw(n_hidden))
    ]
    outcomes = st.sampled_from([(1, -1), (1, 0, -1)])
    variables = draw(st.permutations(
        [("a", draw(outcomes)), ("b", draw(outcomes)),
         ("x", tuple(range(draw(st.integers(1, 3))))),
         ("y", tuple(range(draw(st.integers(1, 3)))))] + hidden
    ))
    cell = st.tuples(*(st.sampled_from(labels) for _, labels in variables))
    pool = draw(st.lists(cell, min_size=1, max_size=8))
    cells = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=16))
    raw = draw(st.lists(st.sampled_from([0, 0, 1, 2, 3]),
                        min_size=len(cells), max_size=len(cells)))
    raw[0] = raw[0] or 1
    total = sum(raw)
    dyadic = draw(st.booleans())
    if dyadic:  # pad the total up to a power of two
        pad = 2 ** math.ceil(math.log2(total)) - total
        cells, raw, total = cells + [draw(st.sampled_from(pool))], raw + [pad], total + pad
    codes = [[labels.index(v) for v in column]
             for (_, labels), column in zip(variables, zip(*cells))]
    table = FiniteDistribution(variables, codes, [r / total for r in raw])
    hidden_vars = draw(st.permutations([name for name, _ in hidden]))
    return ExactCSModel(table=table, hidden_vars=tuple(hidden_vars)), dyadic


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(sparse_models())
def test_support_reads_match_the_dense_oracles(model_dyadic):
    model, dyadic = model_dyadic
    t, hidden = model.table, model.hidden_vars
    for names in (t.variables[::-1], ("x", "y"), ("y", "x", "a", "b"), hidden):
        np.testing.assert_allclose(t.marginal(names), dense_marginal(t, names),
                                   rtol=0.0, atol=1e-12)
    w = dense_weights(t)
    p = w[w > 0.0]
    assert abs(t.entropy(t.variables) - float(-(p * np.log2(p)).sum())) <= 1e-12
    for a, b in ((("x", "y"), hidden), (("a",), ("b",) + hidden), (hidden[::-1], ("y",))):
        assert abs(t.mutual_information(a, b) - dense_mutual_information(t, a, b)) <= 1e-12
    # I(A:B|C) by the chain rule, I(A:B,C) - I(A:C), from the one measure
    for a, b, c in ((("a",), ("b",), ("x", "y") + hidden), (("x",), ("y",), ()),
                    (hidden, ("x",), ("a", "y"))):
        got = t.mutual_information(a, b + c) - (t.mutual_information(a, c) if c else 0.0)
        assert abs(got - dense_conditional_mutual_information(t, a, b, c)) <= 1e-12
    assert_verifier_matches_the_oracle(model, dyadic)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sparse_models(n_hidden=st.just(0)))
def test_verifier_without_hidden_variables_matches_the_oracle(model_dyadic):
    assert_verifier_matches_the_oracle(*model_dyadic)


def assert_verifier_matches_the_oracle(model, dyadic):
    report = verify_bell_local(model, tol=1e-9)
    dev = dense_locality_deviations(model)
    worst = float(dev.max())
    assert abs(report.max_deviation - worst) <= 1e-12
    assert report.ok == (report.max_deviation <= 1e-9)
    if report.ok:
        return
    names = ("a", "b", "x", "y") + model.hidden_vars
    cell = tuple(model.table.labels(n).index(report.witness[n]) for n in names)
    assert list(report.witness) == list(names) and dev[cell] >= worst - 1e-12
    if dyadic:
        # exact sums give both sides bitwise equal deviations, so the
        # witness is the first worst cell in row-major order, as argmax finds
        assert cell == np.unravel_index(int(np.argmax(dev)), dev.shape)


def test_exact_path_memory_follows_the_support():
    # 24x24 Brans: 2 304 weights in a dense product of 5.3 M cells (42 MB)
    gen = np.random.default_rng(24)
    v = gen.standard_normal((48, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    spec = SettingsSpec(v[:24], v[24:])
    corr = exact_singlet_conditional(spec)
    tracemalloc.start()
    try:
        cs, _ = brans_to_cs(corr, spec)
        peaks = [tracemalloc.get_traced_memory()[1]]
        for step in (verify_bell_local, mi_exact_finite):
            tracemalloc.reset_peak()
            step(cs)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert cs.table.weights.size == 4 * 24 * 24
    assert max(peaks) < 8 * 2**20, [f"{p / 2**20:.1f} MB" for p in peaks]


def test_signaling_example_is_a_valid_table():
    t = make_signaling_example().table
    assert abs(sum(p for _, p in table_entries(t)) - 1.0) < 1e-12


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


def test_mi_finite_single_alice_setting_is_zero():
    # with one Alice setting the message is a function of mu alone
    spec = SettingsSpec([[0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]])
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
        lambda: mi_finite_settings_tb(
            SettingsSpec(fibonacci_sphere(64)[::2], fibonacci_sphere(64)[1::2]),
            1_000_000, RandomSource(76),
        ),
    ],
    ids=["mi_tb_montecarlo", "mi_finite_settings_tb", "mi_finite_settings_tb_32"],
)
def test_mi_montecarlo_memory_stays_one_chunk_deep(estimate):
    # a million samples drawn at once hold two 24 MB vector arrays, and one
    # (32, 65536) float array of setting dots holds 16 MB
    tracemalloc.start()
    try:
        estimate()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("model, cap_mb", [(TonerBaconModel(), 5.25), (GisinGisinModel(), 3.75)],
                         ids=["tb", "gg"])
def test_estimate_chunk_memory_stays_under_its_cap(model, cap_mb):
    # one chunk of rounds; per-round copies of the setting vectors, every
    # dot kept alive at once and a copy of the kept sphere draws peaked at
    # 11.1 MB (tb) and 8.9 MB (gg); whole uniform blocks in the sphere
    # draws, chunk-long kernel scratch and hidden vectors kept through the
    # tally at 6.7 MB and 5.2 MB; separate x and y index arrays in place of
    # one cell code per round at 5.35 and 3.97 MiB
    spec = preset("chsh")
    estimate_correlations(model, spec, CHUNK_ROUNDS, RandomSource(1))  # caches built
    tracemalloc.start()
    try:
        estimate_correlations(model, spec, CHUNK_ROUNDS, RandomSource(41))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < cap_mb * 2**20, f"traced peak {peak / 2**20:.1f} MB"


def test_tb_finite_chunk_memory_stays_under_its_cap():
    # one chunk of 32 settings; whole uniform blocks in the two sphere draws
    # and both hidden-vector batches kept through binary_entropy peaked at
    # 7.0 MB
    spec = SettingsSpec(fibonacci_sphere(64)[::2], fibonacci_sphere(64)[1::2])
    mi_finite_settings_tb(spec, CHUNK_ROUNDS, RandomSource(1))
    tracemalloc.start()
    try:
        mi_finite_settings_tb(spec, CHUNK_ROUNDS, RandomSource(77))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, f"traced peak {peak / 2**20:.1f} MB"


def test_mi_exact_finite_brans_default_vars():
    spec = preset("chsh")
    model = brans_build(exact_singlet_conditional(spec), spec)
    est = mi_exact_finite(model)
    assert est.method == "exact"
    assert est.value == pytest.approx(2.0, abs=1e-12)
    # restricting to Bob's setting alone gives H(y) = 1 bit
    est_y = mi_exact_finite(model, a_vars=("y",))
    assert est_y.value == pytest.approx(1.0, abs=1e-12)
