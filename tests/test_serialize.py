"""Deterministic JSON/CSV writers and their loaders."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bellmi.analysis import (
    CorrelationTable,
    estimate_correlations,
    exact_singlet_conditional,
)
from bellmi.errors import ConfigError, ValidationError
from bellmi.models import SettingsSpec, TonerBaconModel, brans_build, preset
from bellmi.serialize import (
    correlation_csv,
    correlation_payload,
    format_float,
    json_text,
    load_correlation,
    load_input_dist,
    load_model,
    load_settings,
    model_payload,
    parse_json,
    sampler_payload,
)
from bellmi.sphere import RandomSource, vec_polar
from conftest import LOCAL_MODEL


def test_format_float_round_trips_float64():
    gen = np.random.default_rng(0)
    specials = [0.0, 1.0, -1.0, 0.1, 2 / 3, math.pi, 1e-300, 1e300, 2**-52]
    for x in list(gen.standard_normal(200)) + specials:
        assert float(format_float(x)) == float(x)


def test_json_text_is_deterministic_and_ordered():
    payload = {"b": 1, "a": [1.5, None, True], "c": {"z": 0.1}}
    text = json_text(payload)
    assert text == json_text(payload)
    # insertion order preserved, not alphabetized
    assert text.index('"b"') < text.index('"a"') < text.index('"c"')
    assert text.endswith("\n")
    # non-finite floats become null rather than invalid JSON
    assert json_text({"x": float("nan")}) == '{"x": null}\n'
    json.loads(text)  # stdlib parser accepts the output


def test_parse_json_raises_config_error():
    with pytest.raises(ConfigError):
        parse_json("{nope")


def test_settings_round_trip():
    spec = preset("chsh")
    text = json_text(
        {
            "alice_settings": spec.alice_settings,
            "bob_settings": spec.bob_settings,
            "p_xy": spec.p_xy,
        }
    )
    back = load_settings(text)
    np.testing.assert_array_equal(back.alice_settings, spec.alice_settings)
    np.testing.assert_array_equal(back.bob_settings, spec.bob_settings)
    np.testing.assert_array_equal(back.p_xy, spec.p_xy)


def test_load_input_dist():
    p = load_input_dist('{"p_xy": [[0.5, 0.0], [0.25, 0.25]]}')
    np.testing.assert_array_equal(p, [[0.5, 0.0], [0.25, 0.25]])
    with pytest.raises(ConfigError):
        load_input_dist('{"weights": [1.0]}')


def test_correlation_payload_round_trip():
    spec = preset("chsh")
    est = estimate_correlations(TonerBaconModel(), spec, 20_000, RandomSource(80))
    payload = correlation_payload(
        est, model="tb", seed=80, quantum=exact_singlet_conditional(spec)
    )
    spec2, corr = load_correlation(json_text(payload))
    np.testing.assert_array_equal(spec2.alice_settings, spec.alice_settings)
    for x in range(2):
        for y in range(2):
            assert corr.correlator(x, y) == pytest.approx(
                est.correlator(x, y), abs=1e-15
            )
    # quantum comparison fields present and within-4-sigma flags set
    cell = payload["cells"][0]
    assert {"pp", "pm", "mp", "mm", "n", "e", "se_e", "quantum_e", "ok"} <= set(cell)


@st.composite
def estimated_tables(draw):
    """A CorrelationTable on at most 4x4 random settings with a random
    positive p_xy and random counts, at least one kept round per cell."""
    n_a, n_b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    angles = st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi))
    alice = [vec_polar(*draw(angles)) for _ in range(n_a)]
    bob = [vec_polar(*draw(angles)) for _ in range(n_b)]
    cells = n_a * n_b
    p = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=cells, max_size=cells)))
    spec = SettingsSpec.finite(alice, bob, (p / p.sum()).reshape(n_a, n_b))
    counts = np.array(
        draw(st.lists(st.integers(0, 10**6), min_size=4 * cells, max_size=4 * cells))
    ).reshape(n_a, n_b, 2, 2)
    counts[:, :, 0, 0] += 1
    return CorrelationTable(spec=spec, counts=counts, attempts=counts.sum(axis=(2, 3)))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(estimated_tables())
def test_correlation_file_round_trip_is_bitwise(est):
    spec, corr = load_correlation(json_text(correlation_payload(est, model="tb", seed=0)))
    np.testing.assert_array_equal(spec.alice_settings, est.spec.alice_settings)
    np.testing.assert_array_equal(spec.bob_settings, est.spec.bob_settings)
    np.testing.assert_array_equal(spec.p_xy, est.spec.p_xy)
    kept = est.counts.sum(axis=(2, 3))
    np.testing.assert_array_equal(corr.probs, est.counts / kept[:, :, None, None])


def test_correlation_csv_shape():
    spec = preset("chsh")
    est = estimate_correlations(TonerBaconModel(), spec, 8_000, RandomSource(81))
    payload = correlation_payload(est, model="tb", seed=81)
    csv = correlation_csv(payload)
    lines = csv.strip().split("\n")
    assert len(lines) == 1 + 4
    assert lines[0].startswith("x,y,pp,pm,mp,mm,n,e,se_e")


def test_model_payload_round_trip_preserves_tuple_labels():
    spec = preset("chsh")
    model = brans_build(exact_singlet_conditional(spec), spec)
    back = load_model(json_text(model_payload(model)))
    assert back.hidden_vars == ("lam",)
    assert back.table.variables == model.table.variables
    # tuple-valued hidden labels survive the array round trip
    assert back.table.labels("lam") == model.table.labels("lam")
    got = dict(back.table.entries())
    want = dict(model.table.entries())
    assert got.keys() == want.keys()
    for k in want:
        assert got[k] == want[k]  # %.17g round-trips exactly


def test_load_model_rejects_bad_structure():
    with pytest.raises(ConfigError):
        load_model('{"variables": "x"}')


SETTINGS_FILE = {
    "alice_settings": [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
    "bob_settings": [[0.0, 0.0, 1.0]],
    "p_xy": [[0.5], [0.5]],
}
VALID_FILES = {
    load_settings: SETTINGS_FILE,
    load_input_dist: {"p_xy": [[0.25, 0.25], [0.25, 0.25]]},
    load_correlation: {
        **SETTINGS_FILE,
        "cells": [
            {"x": x, "y": 0, "pp": 0.5, "pm": 0.0, "mp": 0.0, "mm": 0.5}
            for x in (0, 1)
        ],
    },
    load_model: LOCAL_MODEL,
}
# (loader, path): a top-level field, or one field of one list entry
FIELDS = [
    (loader, path)
    for loader, payload in VALID_FILES.items()
    for key, value in payload.items()
    for path in [(key,)] + [
        (key, i, field)
        for i, entry in enumerate(value) if isinstance(entry, dict)
        for field in entry
    ]
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(FIELDS), JSON_VALUES)
@example((load_settings, ("p_xy",)), "abc")
@example((load_correlation, ("cells",)), 5)
@example((load_model, ("hidden_variables",)), 5)
@example((load_model, ("weights", 0, "p")), 10**400)  # no float64 holds it
def test_loaders_reject_any_malformed_field_with_a_package_error(field, value):
    loader, path = field
    payload = json.loads(json.dumps(VALID_FILES[loader]))  # deep copy
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    try:
        loader(json.dumps(payload))
    except (ConfigError, ValidationError):
        pass


def test_sampler_payload_records_regeneration_recipe():
    from bellmi.transforms import det_to_cs
    from bellmi.models import GisinGisinModel

    spec = preset("chsh")
    cs, _ = det_to_cs(GisinGisinModel(), spec, source=RandomSource(82), rounds=30_000)
    payload = sampler_payload(cs, seed=82)
    assert payload["sampled"] is True
    assert payload["kind"].endswith("postselected")
    assert payload["seed"] == 82
    assert payload["hidden_variables"] == ["lam"]
    assert payload["settings"]["p_xy"] is not None
