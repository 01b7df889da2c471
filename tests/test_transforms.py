"""Protocol-to-model conversions and their reports."""

import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellmi.errors import (
    AcceptanceFloorError,
    ConfigError,
    InternalConsistencyError,
    ValidationError,
)
from bellmi.models import (
    ConditionalTable,
    ExactCSModel,
    FiniteCommModel,
    GisinGisinModel,
    SampledCSModel,
    SettingsSpec,
    TonerBaconModel,
    input_broadcast_build,
    pr_box_conditional,
    preset,
)
from bellmi.serialize import json_text, load_model, model_payload
from bellmi.sphere import RandomSource, vec_polar
from bellmi.transforms import (
    TransformReport,
    _corr_deviation,
    brans_to_cs,
    comm_to_cs,
    det_to_cs,
)
from bellmi.analysis import (
    CorrelationTable,
    exact_singlet_conditional,
    mi_exact_finite,
    verify_bell_local,
)
from conftest import comm_conditional, exact_conditional, max_deviation


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
        if est.kept_per_cell[x, y] > 0:
            dev = np.abs(est.cell_probs(x, y) - target.probs[x, y])
            worst = max(worst, float(np.max(dev)))
    assert _corr_deviation(est.counts, target) == worst
    assert _corr_deviation(0 * counts, target) == 0.0


def test_comm_conditional_reproduces_pr_box():
    spec = preset("chsh")
    comm = input_broadcast_build(pr_box_conditional(), spec)
    rebuilt = comm_conditional(comm, spec)
    assert max_deviation(rebuilt, pr_box_conditional()) == 0.0


def test_comm_to_cs_exact_on_pr_box():
    spec = preset("chsh")
    comm = input_broadcast_build(pr_box_conditional(), spec)
    cs, report = comm_to_cs(comm, spec)
    assert isinstance(cs, ExactCSModel)
    assert report.corr_deviation == 0.0
    assert report.inputs_deviation == 0.0
    assert report.mi_value <= report.mi_bound
    assert report.extras["exact"] is True
    # hidden variable is (mu, m), and it fixes both responses
    assert cs.hidden_vars == ("mu", "m")
    assert verify_bell_local(cs).max_deviation == 0.0


def test_comm_to_cs_exact_singlet_table():
    spec = preset("chsh")
    corr = exact_singlet_conditional(spec)
    cs, report = comm_to_cs(input_broadcast_build(corr, spec), spec)
    assert report.corr_deviation <= 1e-15
    assert report.mi_value <= report.mi_bound + 1e-12


@st.composite
def small_targets(draw):
    """(spec, target): at most 3x3 random settings, a random positive p_xy
    and random correlators in [-1, 1]."""
    n_a, n_b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    angles = st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi))
    alice = [vec_polar(*draw(angles)) for _ in range(n_a)]
    bob = [vec_polar(*draw(angles)) for _ in range(n_b)]
    cells = n_a * n_b
    p = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=cells, max_size=cells)))
    e = draw(st.lists(st.floats(-1.0, 1.0), min_size=cells, max_size=cells))
    spec = SettingsSpec.finite(alice, bob, (p / p.sum()).reshape(n_a, n_b))
    return spec, ConditionalTable.from_correlators(np.reshape(e, (n_a, n_b)))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(small_targets())
def test_built_models_are_local_after_a_file_round_trip(target):
    spec, corr = target
    built = [
        brans_to_cs(corr, spec)[0],
        comm_to_cs(input_broadcast_build(corr, spec), spec)[0],
    ]
    for cs in built:
        loaded = load_model(json_text(model_payload(cs)))
        assert list(loaded.table.entries()) == list(cs.table.entries())
        assert verify_bell_local(loaded).max_deviation == 0.0


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(small_targets(), st.randoms(use_true_random=False))
def test_model_files_read_by_name_in_any_variable_order(target, rnd):
    # a model file may list its variables, and so every assignment, in any
    # order; everything read from the loaded table must not depend on it
    spec, corr = target
    built = [
        brans_to_cs(corr, spec)[0],
        comm_to_cs(input_broadcast_build(corr, spec), spec)[0],
    ]
    for cs in built:
        payload = model_payload(cs)
        perm = list(range(len(payload["variables"])))
        rnd.shuffle(perm)
        payload["variables"] = [payload["variables"][i] for i in perm]
        for w in payload["weights"]:
            w["assignment"] = [w["assignment"][i] for i in perm]
        loaded = load_model(json.dumps(payload))
        assert max_deviation(exact_conditional(loaded), corr) <= 1e-12
        np.testing.assert_allclose(
            loaded.table.marginal(("x", "y")), cs.table.marginal(("x", "y")),
            rtol=0.0, atol=1e-12,
        )
        assert verify_bell_local(loaded).max_deviation == 0.0
        assert mi_exact_finite(loaded).value == pytest.approx(
            mi_exact_finite(cs).value, abs=1e-12
        )


@st.composite
def deterministic_comm_models(draw):
    """(model, spec): a random finite one-round protocol with up to 3x3
    settings, 4 shared-randomness labels and 3 messages, whose target is
    its own P(a,b|x,y) by enumeration.

    The message is a table over (x, y, mu); Alice answers from (x, mu, m)
    and Bob from (y, mu, m), both deterministically.
    """
    n_a, n_b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n_mu, n_m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    angles = st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi))
    alice = [vec_polar(*draw(angles)) for _ in range(n_a)]
    bob = [vec_polar(*draw(angles)) for _ in range(n_b)]
    p = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n_a * n_b, max_size=n_a * n_b)))
    spec = SettingsSpec.finite(alice, bob, (p / p.sum()).reshape(n_a, n_b))
    w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n_mu, max_size=n_mu)))

    def table(shape, values):
        size = int(np.prod(shape))
        return np.reshape(draw(st.lists(values, min_size=size, max_size=size)), shape)

    msg = table((n_a, n_b, n_mu), st.integers(0, n_m - 1))
    out_a = table((n_a, n_mu, n_m), st.sampled_from((1, -1)))
    out_b = table((n_b, n_mu, n_m), st.sampled_from((1, -1)))
    protocol = dict(
        mu_labels=tuple(range(n_mu)),
        mu_weights=w / w.sum(),
        conversation=lambda x, y, mu: (int(msg[x, y, mu]),),
        alice=lambda x, mu, m: int(out_a[x, mu, m[0]]),
        bob=lambda y, mu, m: int(out_b[y, mu, m[0]]),
    )
    target = comm_conditional(SimpleNamespace(**protocol), spec)
    return FiniteCommModel(**protocol, target=target), spec


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(deterministic_comm_models())
def test_comm_to_cs_chain_identity_on_random_protocols(case):
    model, spec = case
    cs, report = comm_to_cs(model, spec)
    t = cs.table
    i_lam = t.mutual_information(("x", "y"), ("mu", "m"))
    i_mu = t.mutual_information(("mu",), ("x", "y"))
    i_m_given_mu = t.conditional_mutual_information(("m",), ("x", "y"), ("mu",))
    h_m_given_mu = t.entropy(("mu", "m")) - t.entropy(("mu",))
    assert i_lam == pytest.approx(i_mu + i_m_given_mu, abs=1e-12)
    assert i_m_given_mu == pytest.approx(h_m_given_mu, abs=1e-12)
    assert i_mu == pytest.approx(0.0, abs=1e-12)
    assert report.mi_value == i_lam
    assert report.corr_deviation == pytest.approx(0.0, abs=1e-12)
    assert report.inputs_deviation == pytest.approx(0.0, abs=1e-12)
    assert i_lam <= t.entropy(("m",)) + 1e-12
    assert verify_bell_local(cs).max_deviation == 0.0


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


def test_comm_to_cs_sampled_continuous_spec():
    _, report = comm_to_cs(
        TonerBaconModel(),
        SettingsSpec.continuous_uniform(),
        source=RandomSource(41),
        rounds=40_000,
    )
    assert report.corr_deviation < 0.08


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
    assert cs.certificate == GisinGisinModel.certificate


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
