"""Deterministic JSON/CSV writers and their loaders."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bellmi import serialize
from bellmi.analysis import (
    CorrelationTable,
    estimate_correlations,
    exact_singlet_conditional,
)
from bellmi.errors import ConfigError, ValidationError
from bellmi.models import (
    ExactCSModel,
    SettingsSpec,
    TonerBaconModel,
    brans_build,
    input_broadcast_build,
    preset,
)
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
from bellmi.table import FiniteDistribution
from bellmi.transforms import comm_to_cs
from conftest import (
    LOCAL_MODEL,
    fibonacci_sphere,
    oracle_load_model,
    oracle_model_payload,
    table_entries,
)
from test_analysis import sparse_models


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
            assert corr.correlators[x, y] == pytest.approx(
                est.correlators[x, y], abs=1e-15
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
    payload = correlation_payload(
        est, model="tb", seed=0, quantum=exact_singlet_conditional(est.spec)
    )
    spec, corr = load_correlation(json_text(payload))
    np.testing.assert_array_equal(spec.alice_settings, est.spec.alice_settings)
    np.testing.assert_array_equal(spec.bob_settings, est.spec.bob_settings)
    np.testing.assert_array_equal(spec.p_xy, est.spec.p_xy)
    kept = est.counts.sum(axis=(2, 3))
    np.testing.assert_array_equal(corr.probs, est.counts / kept[:, :, None, None])


def test_correlation_csv_shape():
    spec = preset("chsh")
    est = estimate_correlations(TonerBaconModel(), spec, 8_000, RandomSource(81))
    payload = correlation_payload(
        est, model="tb", seed=81, quantum=exact_singlet_conditional(spec)
    )
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
    got = dict(table_entries(back.table))
    want = dict(table_entries(model.table))
    assert got.keys() == want.keys()
    for k in want:
        assert got[k] == want[k]  # %.17g round-trips exactly


def test_load_model_rejects_bad_structure():
    with pytest.raises(ConfigError):
        load_model('{"variables": "x"}')


def test_load_model_matches_assignment_labels_by_value():
    # 1.0 and -1.0 match the declared 1 and -1, as tuples built from the
    # labels would; a short assignment is refused, not truncated
    payload = json.loads(json.dumps(LOCAL_MODEL))
    payload["weights"][0]["assignment"] = [1.0, 1, 0, 0, 1.0]
    payload["weights"][1]["assignment"] = [-1.0, -1, 0.0, 0, -1]
    assert table_entries(load_model(json.dumps(payload)).table) == [
        ((1, 1, 0, 0, 1), 0.5), ((-1, -1, 0, 0, -1), 0.5),
    ]
    payload["weights"][1]["assignment"] = [-1, -1, 0, 0]
    with pytest.raises(ConfigError, match="does not cover all 5 variables"):
        load_model(json.dumps(payload))
    payload["weights"][1]["assignment"] = [-1, -1, 0, 0, 2]
    with pytest.raises(ConfigError, match="unknown label"):
        load_model(json.dumps(payload))
    payload["weights"][1]["assignment"] = [-1, -1, 0, 0, True]
    with pytest.raises(ConfigError, match="bad structure"):
        load_model(json.dumps(payload))


def _lam_model(labels, entries) -> str:
    """LOCAL_MODEL's file with the lam alphabet ``labels`` and the two
    weight rows' lam entries ``entries``."""
    payload = json.loads(json.dumps(LOCAL_MODEL))
    payload["variables"][4]["labels"] = labels
    for w, lam in zip(payload["weights"], entries):
        w["assignment"][4] = lam
    return json.dumps(payload)  # NaN is written as NaN, which json.loads reads


def _nested(value, depth: int):
    """``value`` inside ``depth`` arrays."""
    for _ in range(depth):
        value = [value]
    return value


NAN = float("nan")


@pytest.mark.parametrize("labels, entries, want", [
    ([[1, 0], [-1, 0]], [[1.0, 0], [-1, 0.0]], [(1, 0), (-1, 0)]),
    ([0.0, 1], [-0.0, 1], [0.0, 1]),  # -0.0 == 0.0: the declared 0.0 comes back
    ([NAN, 1], [NAN, 1], [NAN, 1]),  # NaN != NaN, yet the declared NaN matches
    ([_nested(1, 8), 2], [_nested(1.0, 8), 2], [((((((((1,),),),),),),),), 2]),
    # labels two arrays deep, assigned with floats
    ([[[1, 0], [2]], [[-1], []]], [[[1.0, 0], [2.0]], [[-1.0], []]],
     [((1, 0), (2,)), ((-1,), ())]),
    ([1, [1, 0]], [1.0, [1, 0.0]], [1, (1, 0)]),  # scalar and array labels in one variable
])
def test_load_model_matches_assignment_values_to_declared_labels(labels, entries, want):
    loaded = load_model(_lam_model(labels, entries))
    assert repr(table_entries(loaded.table)) == repr(
        [((1, 1, 0, 0, want[0]), 0.5), ((-1, -1, 0, 0, want[1]), 0.5)]
    )


@pytest.mark.parametrize("labels, entries", [
    ([[1, 0], [-1, 0]], [[True, 0], [-1, 0]]),  # True == 1, but it is no JSON number
    ([1, -1], [True, -1]),
    ([_nested([1], 8), 2], [_nested([1], 8), 2]),  # 9 arrays deep, the innermost flat
    ([_nested(1, 8), 2], [_nested([1], 8), 2]),
    ([_nested(1, 9), 2], [2, 2]),  # a declared label 9 arrays deep, never assigned
    ([[[1], [2]], 2], [[[1], [True]], 2]),  # true two arrays deep
])
def test_load_model_refuses_assignment_values_that_are_no_labels(labels, entries):
    with pytest.raises(ConfigError, match="bad structure"):
        load_model(_lam_model(labels, entries))


def test_model_file_bytes_are_pinned():
    # a hand-built table, so no libm or BLAS result reaches the file
    variables = [
        ("a", (1, -1)),
        ("b", (1, -7)),
        ("x", (0, 2**63 + 5)),
        ("y", (0.5, -0.0, 1e-300)),
        ("lam", ('say "hi"', "back\\slash", "h\u00e9llo \u2713", ((1, -2), ("a", 0.5)))),
    ]
    codes = ([0, 1, 0, 1], [0, 0, 1, 1], [0, 1, 1, 0], [0, 1, 2, 1], [0, 1, 2, 3])
    table = FiniteDistribution(variables, codes, [0.1, 0.2, 0.3, 0.4])
    model = ExactCSModel(table=table, hidden_vars=("lam",), certificate="pinned")
    text = json_text(model_payload(model))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "643f14306a615f01d1639ffb2fdb7c9570351789cdd363402c637aaa0976c46c"
    )
    assert table_entries(load_model(text).table) == table_entries(table)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(sparse_models(), st.randoms(use_true_random=False))
def test_model_files_match_the_entry_at_a_time_oracles(model_dyadic, rnd):
    model, _ = model_dyadic
    text = json_text(model_payload(model))
    assert text == json_text(oracle_model_payload(model))
    # the same file with its variables shuffled and some labels respelled
    payload = parse_json(text)
    perm = list(range(len(payload["variables"])))
    rnd.shuffle(perm)
    payload["variables"] = [payload["variables"][i] for i in perm]
    for w in payload["weights"]:
        w["assignment"] = [
            float(v) if rnd.random() < 0.5 else v for v in (w["assignment"][i] for i in perm)
        ]
    for t in (text, json.dumps(payload)):
        got, want = load_model(t), oracle_load_model(t)
        assert got.table.variables == want.table.variables
        assert got.hidden_vars == want.hidden_vars
        assert got.table.weights.tobytes() == want.table.weights.tobytes()
        assert repr(table_entries(got.table)) == repr(table_entries(want.table))


def test_load_model_converts_each_declared_label_once(monkeypatch):
    # the 3x3 singlet broadcast model: 4 096 mu labels of 12 outcomes each,
    # repeated across 36 864 assignments
    settings = fibonacci_sphere(6)
    spec = SettingsSpec.finite(settings[::2], settings[1::2])
    cs, _ = comm_to_cs(input_broadcast_build(exact_singlet_conditional(spec), spec), spec)
    text = json_text(model_payload(cs))
    calls = 0
    walk = serialize._json_values

    def counting(values, leaves, depth=0):
        nonlocal calls
        calls += 1
        return walk(values, leaves, depth)

    monkeypatch.setattr(serialize, "_json_values", counting)
    loaded = load_model(text)
    # one call per nesting level of each declared label list and each
    # assignment column (a, b, x, y flat, m one array deep, mu two), and
    # one for the weights
    assert calls == 2 * (4 * 1 + 2 + 3) + 1
    assert loaded.table.weights.tobytes() == cs.table.weights.tobytes()
    assert table_entries(loaded.table) == table_entries(cs.table)


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
