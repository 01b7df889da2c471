"""Settings specifications, protocol models, and model builders."""

import logging
import math

import numpy as np
import pytest
from scipy import stats

from bellmi.errors import ConfigError, ValidationError
from bellmi.models import (
    ConditionalTable,
    ExactCSModel,
    LocalityCertificate,
    SettingsSpec,
    GisinGisinModel,
    TonerBaconModel,
    brans_build,
    gg_round,
    input_broadcast_build,
    pr_box_conditional,
    preset,
    tb_round,
)
from bellmi.sphere import RandomSource, sgn_dot
from bellmi.analysis import exact_singlet_conditional


# ----------------------------------------------------------------------
# settings
# ----------------------------------------------------------------------

def test_settings_require_unit_vectors():
    with pytest.raises(ValidationError):
        SettingsSpec.finite(np.array([[0.0, 0.0, 2.0]]), np.array([[0.0, 0.0, 1.0]]))


def test_settings_default_input_dist_is_uniform():
    spec = SettingsSpec.finite(np.eye(3), np.eye(3)[:2])
    assert spec.p_xy.shape == (3, 2)
    np.testing.assert_allclose(spec.p_xy, 1 / 6)
    np.testing.assert_allclose(spec.p_x, 1 / 3)
    np.testing.assert_allclose(spec.p_y, 1 / 2)


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
    spec = SettingsSpec.finite(np.eye(3)[:2], np.eye(3)[:2], p)
    x_idx, y_idx = spec.sample_indices(RandomSource(0).generator(), 40_000)
    counts = np.zeros((2, 2))
    np.add.at(counts, (x_idx, y_idx), 1)
    assert counts[0, 1] == 0  # zero-probability cell never drawn
    live = p > 0
    chi2 = float(((counts[live] - 40_000 * p[live]) ** 2 / (40_000 * p[live])).sum())
    assert stats.chi2.sf(chi2, live.sum() - 1) > 1e-4


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
            assert pr.correlator(x, y) == want
    # outcome marginals stay uniform
    np.testing.assert_array_equal(pr.alice_conditional(), 0.5)


def test_max_deviation_is_symmetric_and_zero_on_self():
    pr = pr_box_conditional()
    sing = exact_singlet_conditional(preset("chsh"))
    assert pr.max_deviation(pr) == 0.0
    assert pr.max_deviation(sing) == sing.max_deviation(pr)


# ----------------------------------------------------------------------
# one-bit communication model
# ----------------------------------------------------------------------

def test_tb_sample_rounds_match_replay():
    model = TonerBaconModel()
    gen = RandomSource(21).generator()
    from bellmi.sphere import sample_uniform_sphere

    xs = sample_uniform_sphere(gen, 2000)
    ys = sample_uniform_sphere(gen, 2000)
    batch = model.sample_rounds(xs, ys, RandomSource(22))
    for i in range(0, 2000, 97):
        m = model.conversation(xs[i], batch.l1[i], batch.l2[i])
        assert m == batch.m[i]
        assert model.alice_output(xs[i], batch.l1[i], batch.l2[i], m) == batch.a[i]
        assert model.bob_output(ys[i], batch.l1[i], batch.l2[i], m) == batch.b[i]


def test_tb_alice_marginal_is_unbiased():
    # a = -sgn(x.l1) with l1 uniform: P(a=+1) = 1/2
    model = TonerBaconModel()
    x = np.tile([[0.0, 0.0, 1.0]], (100_000, 1))
    y = np.tile([[1.0, 0.0, 0.0]], (100_000, 1))
    batch = model.sample_rounds(x, y, RandomSource(9))
    p_plus = np.mean(batch.a == 1)
    assert abs(p_plus - 0.5) < 4 * math.sqrt(0.25 / 100_000)


def test_tb_single_round_and_correlator_sign():
    r = tb_round(
        np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]), RandomSource(4)
    )
    assert r.a in (-1, 1) and r.b in (-1, 1) and r.m in (-1, 1)
    model = TonerBaconModel()
    assert model.target_correlator(
        np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0])
    ) == -1.0


# ----------------------------------------------------------------------
# detection model
# ----------------------------------------------------------------------

def test_gg_outputs_follow_hidden_vector():
    model = GisinGisinModel()
    gen = RandomSource(31).generator()
    from bellmi.sphere import sample_uniform_sphere

    xs = sample_uniform_sphere(gen, 3000)
    ys = sample_uniform_sphere(gen, 3000)
    batch = model.sample_rounds(xs, ys, RandomSource(32))
    assert np.all(batch.click_b)
    for i in range(0, 3000, 113):
        assert batch.b[i] == -sgn_dot(ys[i], batch.lam[i])
        if batch.click_a[i]:
            assert batch.a[i] == sgn_dot(xs[i], batch.lam[i])


def test_gg_click_probability_tracks_overlap():
    # P(click | lam) = |x.lam|; overall P(D_A) = 1/2
    model = GisinGisinModel()
    n = 200_000
    x = np.tile([[0.0, 0.0, 1.0]], (n, 1))
    y = np.tile([[1.0, 0.0, 0.0]], (n, 1))
    batch = model.sample_rounds(x, y, RandomSource(33))
    rate = batch.click_a.mean()
    assert abs(rate - 0.5) < 4 * math.sqrt(0.25 / n)
    # clicks concentrate where |lam_z| is large
    overlap = np.abs(batch.lam[:, 2])
    assert overlap[batch.click_a].mean() > overlap.mean() + 0.05


def test_gg_single_round():
    r = gg_round(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), RandomSource(5))
    assert r.click_b
    assert r.b == -sgn_dot(np.array([1.0, 0.0, 0.0]), r.lam)


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------

def test_input_broadcast_rejects_signaling_targets():
    # P(a|x, y) depending on y cannot be broadcast from Alice's side
    probs = np.empty((1, 2, 2, 2))
    probs[0, 0] = [[0.5, 0.0], [0.0, 0.5]]  # P(a=+1|x,y=0) = 0.5
    probs[0, 1] = [[0.9, 0.0], [0.0, 0.1]]  # P(a=+1|x,y=1) = 0.9
    corr = ConditionalTable(probs)
    spec = SettingsSpec.finite(np.eye(3)[:1], np.eye(3)[:2])
    with pytest.raises(ValidationError):
        input_broadcast_build(corr, spec)


def test_input_broadcast_reproduces_singlet_table_exactly():
    spec = preset("chsh")
    corr = exact_singlet_conditional(spec)
    comm = input_broadcast_build(corr, spec)
    from bellmi.transforms import comm_conditional

    rebuilt = comm_conditional(comm, spec)
    assert rebuilt.max_deviation(corr) <= 1e-15


def test_input_broadcast_requires_matching_shapes():
    with pytest.raises(ConfigError):
        input_broadcast_build(
            pr_box_conditional(), SettingsSpec.finite(np.eye(3), np.eye(3))
        )


def test_brans_build_pins_settings_in_hidden_variable():
    spec = preset("chsh")
    corr = exact_singlet_conditional(spec)
    model = brans_build(corr, spec)
    assert model.hidden_vars == ("lam",)
    assert model.certificate_deviation() == 0.0
    # lambda determines the settings outright
    t = model.table
    for (lam,), w in zip(
        [(l,) for l in t.labels("lam")], np.ones(len(t.labels("lam")))
    ):
        x, y, a, b = lam
        assert t.prob({"x": x, "y": y, "a": a, "b": b, "lam": lam}) > 0.0
    del w
    # conditional matches the target bitwise
    assert model.conditional().max_deviation(corr) == 0.0


def loop_certificate_deviation(model):
    """Reference: the declared responses checked cell by cell in Python."""
    j = model.joint()
    t = model.table
    worst = 0.0
    for ia, ib, ix, iy, il in np.ndindex(j.shape):
        mass = j[:, :, ix, iy, il].sum()
        if mass <= 0.0:
            continue
        hidden = model.hidden_label(il)
        pa = model.certificate.alice_response(t.labels("a")[ia], t.labels("x")[ix], hidden)
        pb = model.certificate.bob_response(t.labels("b")[ib], t.labels("y")[iy], hidden)
        worst = max(worst, abs(j[ia, ib, ix, iy, il] / mass - pa * pb))
    return worst


def test_certificate_deviation_matches_cell_loop():
    from bellmi.transforms import comm_to_cs

    spec = preset("chsh")
    corr = exact_singlet_conditional(spec)
    models = [
        brans_build(corr, spec),
        comm_to_cs(input_broadcast_build(pr_box_conditional(), spec), spec)[0],
    ]
    for model in models:
        cert = model.certificate
        variants = {
            "declared": (cert.alice_response, cert.bob_response, 0.0),
            "flipped a": (lambda a, x, h: 1.0 - cert.alice_response(a, x, h),
                          cert.bob_response, 1.0),
            "coin b": (cert.alice_response, lambda b, y, h: 0.5, 0.5),
        }
        for name, (alice, bob, want) in variants.items():
            altered = ExactCSModel(
                table=model.table,
                hidden_vars=model.hidden_vars,
                certificate=LocalityCertificate(alice, bob, name),
            )
            got = altered.certificate_deviation()
            assert got == want, name
            assert got == loop_certificate_deviation(altered), name


def test_brans_mi_equals_input_entropy_property():
    # I(x,y:lambda) = H(x,y) for any input distribution
    gen = np.random.default_rng(17)
    from bellmi.analysis import mi_exact_finite

    for _ in range(5):
        p = gen.random((2, 2))
        p /= p.sum()
        spec = SettingsSpec.finite(
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

    def rigged(gen, n=None):
        calls["n"] += 1
        if calls["n"] == 1:
            return np.array([[0.0, 0.0, 1.0]])
        if calls["n"] == 2:
            return np.array([[0.0, 0.0, -1.0]])
        return real(gen, n)

    M.sample_uniform_sphere = rigged
    try:
        with caplog.at_level(logging.WARNING, logger="bellmi.models"):
            batch = model.sample_rounds(
                np.array([[1.0, 0.0, 0.0]]),
                np.array([[0.0, 1.0, 0.0]]),
                RandomSource(2),
            )
    finally:
        M.sample_uniform_sphere = real
    assert batch.resampled == 1
    assert any("resampl" in rec.message for rec in caplog.records)
