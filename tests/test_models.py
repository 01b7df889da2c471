"""Settings specifications, protocol models, and model builders."""

import logging
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from bellmi.errors import ConfigError, ValidationError
from bellmi.models import (
    ConditionalTable,
    SettingsSpec,
    GisinGisinModel,
    TonerBaconModel,
    brans_build,
    input_broadcast_build,
    pr_box_conditional,
    preset,
)
from bellmi import table as table_module
from bellmi.sphere import RandomSource, empty_batches, sample_uniform_sphere
from bellmi.analysis import exact_singlet_conditional, verify_bell_local
from conftest import (
    comm_conditional,
    exact_conditional,
    fibonacci_sphere,
    fixed_settings,
    max_deviation,
    per_round_settings,
    table_entries,
)


def sgn_dot(v, w) -> int:
    """Sign of v.w with the tie at exactly 0 broken to +1."""
    return 1 if float(np.dot(v, w)) >= 0.0 else -1


def tb_replay(x, y, l1, l2):
    """Scalar reference for one one-bit round: (a, b, m) from (x, y, mu).

    The bit is a function of (x, mu) only, Alice's outcome of (x, mu) and
    Bob's of (y, mu, m); the kernel must agree round by round.
    """
    m = sgn_dot(x, l1) * sgn_dot(x, l2)
    return -sgn_dot(x, l1), sgn_dot(y, np.asarray(l1) + m * np.asarray(l2)), m


# ----------------------------------------------------------------------
# settings
# ----------------------------------------------------------------------

def test_settings_require_unit_vectors():
    with pytest.raises(ValidationError):
        SettingsSpec(np.array([[0.0, 0.0, 2.0]]), np.array([[0.0, 0.0, 1.0]]))
    for empty in ([], np.zeros((0, 3))):
        with pytest.raises(ConfigError):
            SettingsSpec(empty, np.eye(3))
        with pytest.raises(ConfigError):
            SettingsSpec(np.eye(3), empty)
    with pytest.raises(ConfigError):
        SettingsSpec(np.eye(3), np.eye(3)[:2], np.full((2, 3), 1 / 6))


def test_settings_default_input_dist_is_uniform():
    spec = SettingsSpec(np.eye(3), np.eye(3)[:2])
    assert spec.p_xy.shape == (3, 2)
    np.testing.assert_allclose(spec.p_xy, 1 / 6)
    np.testing.assert_allclose(spec.p_x, 1 / 3)
    np.testing.assert_allclose(spec.p_xy.sum(axis=0), 1 / 2)
    explicit = SettingsSpec(np.eye(3), np.eye(3)[:2], np.full((3, 2), 1 / 6))
    assert spec.p_xy.tobytes() == explicit.p_xy.tobytes()
    # a flat 3-vector is one setting
    single = SettingsSpec([0.0, 0.0, 1.0], np.eye(3)[:2])
    assert single.alice_settings.shape == (1, 3) and single.n_alice == 1
    assert single.p_xy.tobytes() == np.full((1, 2), 0.5).tobytes()


def test_preset_chsh_geometry():
    spec = preset("chsh")
    # two orthogonal Alice settings, Bob at 45 and 135 degrees in-plane
    assert spec.n_alice == 2 and spec.n_bob == 2
    assert abs(spec.alice_settings[0] @ spec.alice_settings[1]) < 1e-15
    for x in range(2):
        for y in range(2):
            e = -spec.alice_settings[x] @ spec.bob_settings[y]
            assert abs(abs(e) - 1 / math.sqrt(2)) < 1e-12


def test_preset_parallel_and_unknown():
    spec = preset("parallel")
    np.testing.assert_allclose(spec.alice_settings, spec.bob_settings)
    with pytest.raises(ConfigError):
        preset("nope")


def test_sample_indices_follow_input_dist():
    p = np.array([[0.5, 0.0], [0.25, 0.25]])
    spec = SettingsSpec(np.eye(3)[:2], np.eye(3)[:2], p)
    cell = spec.sample_indices(RandomSource(0).generator(), 40_000, np.empty(40_000, np.intp))
    assert cell.dtype == np.intp
    counts = np.bincount(cell, minlength=4).reshape(2, 2)
    assert counts[0, 1] == 0  # zero-probability cell never drawn
    live = p > 0
    chi2 = float(((counts[live] - 40_000 * p[live]) ** 2 / (40_000 * p[live])).sum())
    assert stats.chi2.sf(chi2, live.sum() - 1) > 1e-4


def _weighted_spec(shape, seed) -> SettingsSpec:
    """Seeded spec with a non-product p_xy and about a fifth of its cells at 0."""
    gen = np.random.default_rng([seed, *shape])
    w = np.exp(gen.standard_normal(shape))
    w[gen.random(shape) < 0.2] = 0.0
    if not w.any():
        w[0, 0] = 1.0
    return SettingsSpec(fibonacci_sphere(shape[0]), fibonacci_sphere(shape[1]), w / w.sum())


@pytest.mark.parametrize("shape", [(1, 1), (7, 1), (2, 2), (3, 5), (32, 32)])
@pytest.mark.parametrize("seed", range(5))
def test_sample_indices_match_generator_choice(shape, seed):
    # draw for draw the cell codes x*n_b + y of Generator.choice on the same stream
    for spec in (_weighted_spec(shape, seed), SettingsSpec(
            fibonacci_sphere(shape[0]), fibonacci_sphere(shape[1]))):
        cell = spec.sample_indices(RandomSource(seed).generator(), 20_000,
                                   np.empty(20_000, np.intp))
        want = RandomSource(seed).generator().choice(
            spec.p_xy.size, size=20_000, p=spec.p_xy.ravel()
        )
        assert cell.dtype == np.intp
        np.testing.assert_array_equal(cell, want)


class _FixedUniforms:
    """Stands in for a Generator whose ``random(n)`` returns chosen values."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, n):
        assert n == self.u.size
        return self.u.copy()


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 5)])
def test_sample_indices_on_cdf_values_and_bucket_edges(shape):
    # uniforms on and beside every cdf value and every guide-bucket edge,
    # where a bucket lookup and a binary search could part
    for spec in (preset("chsh"), _weighted_spec(shape, 9)):
        p = spec.p_xy.ravel()
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        edges = np.arange(1 << 12) / (1 << 12)
        points = np.concatenate([cdf[:-1], edges])
        u = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, 1.0)])
        u = u[(u >= 0.0) & (u < 1.0)]
        cell = spec.sample_indices(_FixedUniforms(u), u.size, np.empty(u.size, np.intp))
        want = cdf.searchsorted(u, side="right")
        np.testing.assert_array_equal(cell, want)
        assert p[want].min() > 0.0  # a zero-probability cell is never drawn


def test_sample_indices_memory_stays_under_its_cap():
    # the uniforms, their product with the guide size and its astype(intp)
    # copy, alive at once, peaked at 1.50 MiB for 0.5 MiB of codes
    spec = preset("chsh")
    spec.sample_indices(RandomSource(1).generator(), 65_536,
                        np.empty(65_536, np.intp))  # guide table built
    tracemalloc.start()
    try:
        spec.sample_indices(RandomSource(2).generator(), 65_536, np.empty(65_536, np.intp))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * 2**20, f"traced peak {peak / 2**20:.3f} MiB"


# ----------------------------------------------------------------------
# conditional tables
# ----------------------------------------------------------------------

def test_conditional_table_validates_block_sums():
    bad = np.full((1, 1, 2, 2), 0.3)
    with pytest.raises(ValidationError):
        ConditionalTable(bad)


def test_pr_box_correlators():
    pr = pr_box_conditional()
    for x in range(2):
        for y in range(2):
            want = -1.0 if x == 1 and y == 1 else 1.0
            assert pr.correlators[x, y] == want
    # outcome marginals stay uniform
    np.testing.assert_array_equal(pr.alice_conditional(), 0.5)


def test_max_deviation_is_symmetric_and_zero_on_self():
    pr = pr_box_conditional()
    sing = exact_singlet_conditional(preset("chsh"))
    assert max_deviation(pr, pr) == 0.0
    assert max_deviation(pr, sing) == max_deviation(sing, pr)


# ----------------------------------------------------------------------
# one-bit communication model
# ----------------------------------------------------------------------

def test_tb_sample_rounds_match_replay():
    model = TonerBaconModel()
    gen = RandomSource(21).generator()
    from bellmi.sphere import sample_uniform_sphere

    xs = sample_uniform_sphere(gen, 2000)
    ys = sample_uniform_sphere(gen, 2000)
    l1, l2 = hidden = empty_batches(2, 2000)
    batch = model.sample_rounds(*per_round_settings(xs, ys), RandomSource(22), hidden)
    for i in range(0, 2000, 97):
        a, b, _ = tb_replay(xs[i], ys[i], l1[i], l2[i])
        assert (a, b) == (batch.a[i], batch.b[i])


def test_tb_alice_marginal_is_unbiased():
    # a = -sgn(x.l1) with l1 uniform: P(a=+1) = 1/2
    model = TonerBaconModel()
    batch = model.sample_rounds(*fixed_settings(100_000), RandomSource(9),
                                empty_batches(2, 100_000))
    p_plus = np.mean(batch.a == 1)
    assert abs(p_plus - 0.5) < 4 * math.sqrt(0.25 / 100_000)


# ----------------------------------------------------------------------
# detection model
# ----------------------------------------------------------------------

def test_gg_outputs_follow_hidden_vector():
    model = GisinGisinModel()
    gen = RandomSource(31).generator()
    from bellmi.sphere import sample_uniform_sphere

    xs = sample_uniform_sphere(gen, 3000)
    ys = sample_uniform_sphere(gen, 3000)
    (lam,) = hidden = empty_batches(1, 3000)
    batch = model.sample_rounds(*per_round_settings(xs, ys), RandomSource(32), hidden)
    assert batch.kept.dtype == bool  # Alice's clicks; Bob always clicks
    for i in range(0, 3000, 113):
        assert batch.b[i] == -sgn_dot(ys[i], lam[i])
        if batch.kept[i]:
            assert batch.a[i] == sgn_dot(xs[i], lam[i])


def test_gg_click_probability_tracks_overlap():
    # P(click | lam) = |x.lam|; overall P(D_A) = 1/2
    model = GisinGisinModel()
    n = 200_000
    (lam,) = hidden = empty_batches(1, n)
    batch = model.sample_rounds(*fixed_settings(n), RandomSource(33), hidden)
    rate = batch.kept.mean()
    assert abs(rate - 0.5) < 4 * math.sqrt(0.25 / n)
    # clicks concentrate where |lam_z| is large
    overlap = np.abs(lam[:, 2])
    assert overlap[batch.kept].mean() > overlap.mean() + 0.05


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------

def test_input_broadcast_rejects_signaling_targets():
    # P(a|x, y) depending on y cannot be broadcast from Alice's side
    probs = np.empty((1, 2, 2, 2))
    probs[0, 0] = [[0.5, 0.0], [0.0, 0.5]]  # P(a=+1|x,y=0) = 0.5
    probs[0, 1] = [[0.9, 0.0], [0.0, 0.1]]  # P(a=+1|x,y=1) = 0.9
    corr = ConditionalTable(probs)
    spec = SettingsSpec(np.eye(3)[:1], np.eye(3)[:2])
    with pytest.raises(ValidationError):
        input_broadcast_build(corr, spec)


def test_input_broadcast_reproduces_singlet_table_exactly():
    spec = preset("chsh")
    corr = exact_singlet_conditional(spec)
    comm = input_broadcast_build(corr, spec)
    rebuilt = comm_conditional(comm, spec)
    assert max_deviation(rebuilt, corr) <= 1e-15


def test_input_broadcast_requires_matching_shapes():
    with pytest.raises(ConfigError):
        input_broadcast_build(
            pr_box_conditional(), SettingsSpec(np.eye(3), np.eye(3))
        )


def test_input_broadcast_cap_counts_scripts_with_weight():
    # a = +1 fixes b = +1 and a = -1 leaves b uniform, so each x adds 1 + 2**3
    # scripts: 9**5 = 59 049 in all, under the cap, though the per-cell bound
    # 2**5 * 2**15 is not
    probs = np.zeros((5, 3, 2, 2))
    probs[:, :, 0, 0] = 0.5
    probs[:, :, 1, :] = 0.25
    spec = SettingsSpec(fibonacci_sphere(5), fibonacci_sphere(3))
    comm = input_broadcast_build(ConditionalTable(probs), spec)
    assert len(comm.mu_labels) == len(set(comm.mu_labels)) == 9**5
    assert comm.mu_weights.min() > 0.0
    assert comm.mu_weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_brans_build_pins_settings_in_hidden_variable():
    spec = preset("chsh")
    corr = exact_singlet_conditional(spec)
    model = brans_build(corr, spec)
    assert model.hidden_vars == ("lam",)
    assert verify_bell_local(model).max_deviation == 0.0
    # lambda determines the settings outright
    t = model.table
    assert t.variables == ("a", "b", "x", "y", "lam")
    weights = dict(table_entries(t))
    for lam in t.labels("lam"):
        x, y, a, b = lam
        assert weights[a, b, x, y, lam] > 0.0
    # conditional matches the target bitwise
    assert max_deviation(exact_conditional(model), corr) == 0.0


def _seeded_spec_5x4():
    gen = RandomSource(34).generator()
    alice, bob = sample_uniform_sphere(gen, 5), sample_uniform_sphere(gen, 4)
    p = gen.random((5, 4))
    p[1, 2] = p[4, 0] = 0.0  # cells without mass have no lambda
    return SettingsSpec(alice, bob, p / p.sum())


@pytest.mark.parametrize("make_spec", [lambda: preset("chsh"), _seeded_spec_5x4],
                         ids=["chsh", "seeded-5x4"])
def test_brans_build_lists_its_entries_in_table_order(monkeypatch, make_spec):
    # entries in the table's row-major (a, b, x, y) order reach the table's
    # group_sums as strictly increasing cell codes, which it takes unsorted
    spec = make_spec()
    increasing = []
    real = table_module.group_sums

    def spy(keys, weights):
        increasing.append(bool((keys[1:] > keys[:-1]).all()))
        return real(keys, weights)

    monkeypatch.setattr(table_module, "group_sums", spy)
    corr = exact_singlet_conditional(spec)
    model = brans_build(corr, spec)
    assert increasing == [True]
    # lambda's alphabet stays in (x, y, a, b) row-major order
    w = spec.p_xy[:, :, None, None] * corr.probs
    assert model.table.labels("lam") == tuple(
        (x, y, a, b)
        for x in range(spec.n_alice) for y in range(spec.n_bob)
        for i, a in enumerate((1, -1)) for j, b in enumerate((1, -1))
        if w[x, y, i, j] > 0.0
    )


def test_brans_mi_equals_input_entropy_property():
    # I(x,y:lambda) = H(x,y) for any input distribution
    gen = np.random.default_rng(17)
    from bellmi.analysis import mi_exact_finite

    for _ in range(5):
        p = gen.random((2, 2))
        p /= p.sum()
        spec = SettingsSpec(
            preset("chsh").alice_settings, preset("chsh").bob_settings, p
        )
        model = brans_build(exact_singlet_conditional(spec), spec)
        mi = mi_exact_finite(model)
        assert mi.value == pytest.approx(model.table.entropy(("x", "y")), abs=1e-12)


def test_tb_resample_logs_warning(caplog):
    # force the degenerate bob direction once, then a clean redraw
    model = TonerBaconModel()
    calls = {"n": 0}
    import bellmi.models as M

    real = M.sample_uniform_sphere

    def rigged(gen, n=None, out=None):
        calls["n"] += 1
        if calls["n"] == 1:
            return np.array([[0.0, 0.0, 1.0]])
        if calls["n"] == 2:
            return np.array([[0.0, 0.0, -1.0]])
        return real(gen, n, out=out)

    M.sample_uniform_sphere = rigged
    try:
        with caplog.at_level(logging.WARNING, logger="bellmi.models"):
            batch = model.sample_rounds(
                *per_round_settings(np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 1.0, 0.0]])),
                RandomSource(2), empty_batches(2, 1),
            )
    finally:
        M.sample_uniform_sphere = real
    assert batch.resampled == 1
    assert any("resampl" in rec.message for rec in caplog.records)
