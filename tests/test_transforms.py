"""Protocol-to-model conversions and their reports."""

import numpy as np
import pytest

from bellmi.errors import (
    AcceptanceFloorError,
    ConfigError,
    InternalConsistencyError,
    ValidationError,
)
from bellmi.models import (
    ExactCSModel,
    GisinGisinModel,
    SampledCSModel,
    SettingsSpec,
    TonerBaconModel,
    input_broadcast_build,
    pr_box_conditional,
    preset,
)
from bellmi.sphere import RandomSource
from bellmi.transforms import (
    TransformReport,
    _estimated_corr_deviation,
    comm_conditional,
    comm_to_cs,
    det_to_cs,
)
from bellmi.analysis import CorrelationTable, exact_singlet_conditional


def test_report_rejects_negative_deviations():
    with pytest.raises(ValidationError):
        TransformReport(source="x", corr_deviation=-1e-3, inputs_deviation=0.0)


def test_report_rejects_mi_above_bound():
    with pytest.raises(InternalConsistencyError):
        TransformReport(
            source="x",
            corr_deviation=0.0,
            inputs_deviation=0.0,
            mi_value=1.5,
            mi_bound=1.0,
        )


def test_estimated_corr_deviation_matches_cell_loop():
    spec = SettingsSpec.finite(np.eye(3), np.eye(3)[:2])
    counts = np.random.default_rng(5).integers(0, 50, size=(3, 2, 2, 2))
    counts[1, 0] = 0  # an empty cell is skipped, not read as P = 0 or NaN
    est = CorrelationTable(spec=spec, counts=counts, attempts=counts.sum(axis=(2, 3)))
    target = exact_singlet_conditional(spec)
    worst = 0.0
    for x, y in np.ndindex(3, 2):
        if (x, y) not in est.empty_cells:
            dev = np.abs(est.cell_probs(x, y) - target.probs[x, y])
            worst = max(worst, float(np.max(dev)))
    assert _estimated_corr_deviation(est, target) == worst
    empty = CorrelationTable(spec=spec, counts=0 * counts, attempts=0 * est.attempts)
    assert _estimated_corr_deviation(empty, target) == 0.0


def test_comm_conditional_reproduces_pr_box():
    spec = preset("chsh")
    comm = input_broadcast_build(pr_box_conditional(), spec)
    rebuilt = comm_conditional(comm, spec)
    assert rebuilt.max_deviation(pr_box_conditional()) == 0.0


def test_comm_to_cs_exact_on_pr_box():
    spec = preset("chsh")
    comm = input_broadcast_build(pr_box_conditional(), spec)
    cs, report = comm_to_cs(comm, spec)
    assert isinstance(cs, ExactCSModel)
    assert report.corr_deviation == 0.0
    assert report.inputs_deviation == 0.0
    assert report.mi_value <= report.mi_bound
    assert report.extras["exact"] is True
    # hidden variable is (mu, m) and the certificate replays the protocol
    assert cs.hidden_vars == ("mu", "m")
    assert cs.certificate_deviation() == 0.0


def test_comm_to_cs_exact_singlet_table():
    spec = preset("chsh")
    corr = exact_singlet_conditional(spec)
    cs, report = comm_to_cs(input_broadcast_build(corr, spec), spec)
    assert report.corr_deviation <= 1e-15
    assert report.mi_value <= report.mi_bound + 1e-12


def test_comm_to_cs_sampled_requires_source():
    with pytest.raises(ConfigError):
        comm_to_cs(TonerBaconModel(), preset("chsh"))


def test_comm_to_cs_rejects_unknown_models():
    with pytest.raises(ConfigError):
        comm_to_cs(object(), preset("chsh"))


def test_comm_to_cs_sampled_report_and_determinism():
    spec = preset("chsh")
    cs1, rep1 = comm_to_cs(
        TonerBaconModel(), spec, source=RandomSource(40), rounds=40_000
    )
    cs2, rep2 = comm_to_cs(
        TonerBaconModel(), spec, source=RandomSource(40), rounds=40_000
    )
    assert isinstance(cs1, SampledCSModel)
    assert rep1.corr_deviation == rep2.corr_deviation
    assert rep1.inputs_deviation == rep2.inputs_deviation
    assert rep1.mi_bound == 1.0
    # 40k rounds over 4 cells: 4-sigma per-cell radius is ~0.02
    assert rep1.corr_deviation < 0.05
    # draws replay identically from an equal source
    d1 = cs1.draw(RandomSource(8), 512)
    d2 = cs1.draw(RandomSource(8), 512)
    np.testing.assert_array_equal(d1.a, d2.a)
    np.testing.assert_array_equal(d1.hidden["m"], d2.hidden["m"])


def test_comm_to_cs_sampled_continuous_spec():
    cs, report = comm_to_cs(
        TonerBaconModel(),
        SettingsSpec.continuous_uniform(),
        source=RandomSource(41),
        rounds=40_000,
    )
    assert report.corr_deviation < 0.08
    d = cs.draw(RandomSource(3), 256)
    assert d.x_idx is None and d.xs.shape == (256, 3)


def test_det_to_cs_report_fields():
    spec = preset("chsh")
    cs, report = det_to_cs(
        GisinGisinModel(), spec, source=RandomSource(50), rounds=60_000
    )
    assert report.extras["bob_efficiency"] == 1.0
    assert abs(report.extras["acceptance_rate"] - 0.5) < 0.02
    for eff in report.extras["alice_efficiency"]:
        assert abs(eff - 0.5) < 0.02
    assert report.corr_deviation < 0.05
    assert cs.hidden_names == ("lam",)
    assert cs.certificate is not None


SAMPLED = {
    "tb": lambda spec: comm_to_cs(
        TonerBaconModel(), spec, source=RandomSource(51), rounds=50_000
    ),
    "gg": lambda spec: det_to_cs(
        GisinGisinModel(), spec, source=RandomSource(51), rounds=50_000
    ),
}


@pytest.mark.parametrize("model", sorted(SAMPLED))
def test_det_to_cs_draw_returns_exactly_n_kept_rounds(model):
    cs, _ = SAMPLED[model](preset("chsh"))
    d = cs.draw(RandomSource(1), 777)
    assert d.a.shape == d.b.shape == d.x_idx.shape == (777,)
    assert d.xs.shape == d.ys.shape == (777, 3)
    assert set(d.hidden) == set(cs.hidden_names)
    for h in cs.hidden_names:
        assert d.hidden[h].shape[0] == 777
    if model == "gg":
        assert d.hidden["lam"].shape == (777, 3)
    # post-selection keeps only double-click rounds, so outcomes are definite
    assert set(np.unique(d.a)) <= {-1, 1}
    d2 = cs.draw(RandomSource(1), 777)
    np.testing.assert_array_equal(d.b, d2.b)
    for h in cs.hidden_names:
        np.testing.assert_array_equal(d.hidden[h], d2.hidden[h])
    # the declared responses reproduce every drawn outcome from its hidden
    # variables, so the gathered fields line up round by round
    cert = cs.certificate
    for i in range(777):
        hidden = tuple(d.hidden[h][i] for h in cs.hidden_names)
        assert cert.alice_response(d.a[i], d.xs[i], hidden) == 1.0
        assert cert.bob_response(d.b[i], d.ys[i], hidden) == 1.0


def test_det_to_cs_floor_validation_and_breach():
    spec = preset("chsh")
    with pytest.raises(ConfigError):
        det_to_cs(GisinGisinModel(), spec, source=RandomSource(1), floor=0.0)
    with pytest.raises(ConfigError):
        det_to_cs(GisinGisinModel(), spec, source=RandomSource(1), floor=1.5)
    with pytest.raises(ConfigError):
        det_to_cs(GisinGisinModel(), spec, source=RandomSource(1), floor=float("nan"))
    # acceptance sits near 0.5, so a 0.9 floor must abort
    with pytest.raises(AcceptanceFloorError):
        det_to_cs(
            GisinGisinModel(), spec, source=RandomSource(52), rounds=60_000, floor=0.9
        )


def test_det_to_cs_draw_floor_breach():
    spec = preset("chsh")
    cs, _ = det_to_cs(
        GisinGisinModel(), spec, source=RandomSource(53), rounds=50_000, floor=0.4
    )
    # rebuild the sampler with an impossible floor via a fresh transform,
    # then pull enough rounds to cross the evidence threshold
    with pytest.raises(AcceptanceFloorError):
        cs2, _ = det_to_cs(
            GisinGisinModel(),
            spec,
            source=RandomSource(54),
            rounds=200_000,
            floor=0.9,
        )
        cs2.draw(RandomSource(0), 100_000)
