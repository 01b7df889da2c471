"""Deterministic JSON/CSV writers and their loaders."""

import hashlib
import json
import math
import struct
from importlib import resources

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
    GisinGisinModel,
    SettingsSpec,
    TonerBaconModel,
    brans_build,
    input_broadcast_build,
    preset,
)
from bellmi.serialize import (
    correlation_csv,
    correlation_payload,
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
    assert_same_table,
    fibonacci_sphere,
    local_model_with_lam_codes,
    make_signaling_example,
    oracle_load_model,
    oracle_model_payload,
    row_payload,
    table_entries,
)
from test_analysis import sparse_models


def test_format_float_round_trips_float64():
    gen = np.random.default_rng(0)
    specials = [0.0, -0.0, 1.0, -1.0, 0.1, 2 / 3, math.pi, 1e-300, 1e300, 2**-52, 5e-324]
    values = list(gen.standard_normal(200)) + specials
    back = json.loads(json_text({"v": values}))["v"]
    assert all(type(v) is float for v in back)
    assert struct.pack(f"<{len(values)}d", *values) == struct.pack(f"<{len(back)}d", *back)


def test_json_text_renders_keys_like_json_dumps_once_each(monkeypatch):
    # a 32x32 detection-model table with never-drawn cells and settings:
    # null estimates, null efficiencies and 1 024 cells of the same 16 keys
    settings = fibonacci_sphere(64)
    p = np.ones((32, 32))
    p[3] = 0.0
    p[:, 5] = 0.0
    spec = SettingsSpec(settings[:32], settings[32:], p / p.sum())
    est = estimate_correlations(GisinGisinModel(), spec, 5_000, RandomSource(2410))
    payload = correlation_payload(
        est, model="gg", seed=2410, quantum=exact_singlet_conditional(spec)
    )
    payload["extra"] = {"café": [1.5, None], 'q"uote': "\n", "7": -0.0}
    assert len(payload["cells"]) == 1024 and len(payload["cells"][0]) == 16
    assert any(c["e"] is None for c in payload["cells"])
    want = json.dumps(payload) + "\n"
    rendered = []
    dumps = json.dumps

    def spy(obj, *args, **kwargs):
        rendered.append(obj)
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(serialize.json, "dumps", spy)
    text = json_text(payload)
    assert text == want
    # the whole payload goes through one json.dumps call, not one per key
    assert len(rendered) == 1 and rendered[0] is payload
    assert json.loads(text) == json.loads(want)


def test_json_text_is_deterministic_and_ordered():
    payload = {"b": 1, "a": [1.5, None, True], "c": {"z": 0.1}}
    text = json_text(payload)
    assert text == json_text(payload)
    # insertion order preserved, not alphabetized
    assert text.index('"b"') < text.index('"a"') < text.index('"c"')
    assert text.endswith("\n")
    json.loads(text)  # stdlib parser accepts the output


def test_json_text_round_trips_by_type_and_bits_and_refuses_the_rest():
    values = [-0.0, 1.0, 1e-300, 5e-324, 2**63 + 5, (0.1, (2.0, -3)), "caf\u00e9"]
    back = json.loads(json_text({"v": values}))["v"]
    assert repr(back) == repr([-0.0, 1.0, 1e-300, 5e-324, 2**63 + 5, [0.1, [2.0, -3]], "caf\u00e9"])
    assert [type(v) for v in back[:5]] == [float] * 4 + [int]
    assert struct.pack("<4d", *values[:4]) == struct.pack("<4d", *back[:4])
    cycle = []
    cycle.append(cycle)  # no payload holds one; the encoder skips its cycle check
    for bad in (math.nan, math.inf, -math.inf, [1, math.nan], np.int64(1), cycle):
        with pytest.raises(ConfigError, match="cannot write JSON"):
            json_text({"v": bad})


def test_parse_json_raises_config_error():
    with pytest.raises(ConfigError):
        parse_json("{nope", "settings file")


def test_settings_round_trip():
    spec = preset("chsh")
    text = json_text(
        {
            "alice_settings": spec.alice_settings.tolist(),
            "bob_settings": spec.bob_settings.tolist(),
            "p_xy": spec.p_xy.tolist(),
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
    spec = SettingsSpec(alice, bob, (p / p.sum()).reshape(n_a, n_b))
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
        assert got[k] == want[k]  # repr round-trips exactly


def test_load_model_rejects_bad_structure():
    with pytest.raises(ConfigError):
        load_model('{"variables": "x"}')
    # a file in the row layout: its variables have no code columns
    with pytest.raises(ConfigError, match=r"model file: bad structure \('codes'\)"):
        load_model(json.dumps(row_payload(LOCAL_MODEL)))


def test_load_model_validates_code_columns():
    # one code per weight in each column, each inside its label range
    for codes, error in (
        ([-1, 1], r"codes of variable 'lam' must lie in \[0, 2\)"),
        ([0, 2], r"must lie in \[0, 2\)"),  # the label count
        ([0, 2**63], "a code of variable 'lam' is past the int64 range"),
        ([0], "variable 'lam' has 1 codes for 2 weights"),
        ([0, 1, 1], "has 3 codes for 2 weights"),
        ("01", "bad structure"),  # a string, not an array
    ):
        with pytest.raises(ConfigError, match=error):
            load_model(json.dumps(local_model_with_lam_codes(codes)))


def _lam_model(labels, entries) -> str:
    """LOCAL_MODEL's file with the lam alphabet ``labels`` and the two
    entries' lam codes ``entries``."""
    payload = local_model_with_lam_codes(entries)
    payload["variables"][4] = {**payload["variables"][4], "labels": labels}
    return json.dumps(payload)  # NaN is written as NaN, which the reader refuses


def _nested(value, depth: int):
    """``value`` inside ``depth`` arrays."""
    for _ in range(depth):
        value = [value]
    return value


# an entry's assignment along lam is the declared label its code picks
@pytest.mark.parametrize("labels, entries, want", [
    ([[1, 0], [-1, 0]], [0, 1], [(1, 0), (-1, 0)]),
    ([-0.0, 1], [0, 1], [-0.0, 1]),  # -0.0 == 0.0, yet the declared -0.0 comes back
    ([_nested(1, 8), 2], [0, 1], [((((((((1,),),),),),),),), 2]),
    ([[[1, 0], [2]], [[-1], []]], [0, 1], [((1, 0), (2,)), ((-1,), ())]),  # two arrays deep
    ([1, [1, 0]], [1, 0], [(1, 0), 1]),  # scalar and array labels in one variable
    ([2**63 + 5, 0.5], [1, 0], [0.5, 2**63 + 5]),  # an int past int64 stays an int
])
def test_load_model_matches_assignment_values_to_declared_labels(labels, entries, want):
    loaded = load_model(_lam_model(labels, entries))
    assert repr(table_entries(loaded.table)) == repr(
        [((1, 1, 0, 0, want[0]), 0.5), ((-1, -1, 0, 0, want[1]), 0.5)]
    )


@pytest.mark.parametrize("labels, entries", [
    ([[1, 0], [-1, 0]], [True, 1]),  # True == 1, but it is no JSON integer
    ([1, -1], [0.0, 1]),  # 0.0 == 0, but a code is an integer
    ([_nested([1], 8), 2], [0, 1]),  # a declared label 9 arrays deep, the innermost flat
    ([_nested(1, 8), 2], [[0], 1]),  # a code inside an array
    ([_nested(1, 9), 2], [1, 1]),  # a declared label 9 arrays deep, never picked
    ([[[1], [True]], 2], [0, 1]),  # true two arrays deep in a declared label
])
def test_load_model_refuses_assignment_values_that_are_no_labels(labels, entries):
    with pytest.raises(ConfigError, match="bad structure|must be integers"):
        load_model(_lam_model(labels, entries))


# each reader, and a file of it whose text holds the constant "C"
CONSTANT_FILES = {
    "model file": (load_model, _lam_model(["C", 1], [0, 1])),
    "settings file": (
        load_settings, '{"alice_settings": [[0, 0, "C"]], "bob_settings": [[0, 0, 1]]}'
    ),
    "input-dist file": (load_input_dist, '{"p_xy": [["C"]]}'),
    "correlation file": (
        load_correlation,
        '{"alice_settings": [[0, 0, 1]], "bob_settings": [[0, 0, 1]], '
        '"cells": [{"x": 0, "y": 0, "pp": "C", "pm": 0, "mp": 0, "mm": 0}]}',
    ),
}


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("where", sorted(CONSTANT_FILES))
def test_readers_refuse_non_finite_constants(where, constant):
    # json.loads reads them; the writer never writes them
    load, text = CONSTANT_FILES[where]
    with pytest.raises(ConfigError, match=f"^{where}: invalid JSON: non-finite number {constant}$"):
        load(text.replace('"C"', constant))


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
        "77a6c6d496dc6b3ad7541069a9d53a0bf3f4a2fcc5b1911ed64bdfc56ed0634f"
    )
    loaded = load_model(text).table
    assert table_entries(loaded) == table_entries(table)
    # the weights as the earlier writer spelled them, with 17 significant digits
    weights = '"weights": [0.1, 0.3, 0.2, 0.4]'
    assert weights in text
    earlier = text.replace(weights, '"weights": [0.10000000000000001, 0.29999999999999999, '
                                    '0.20000000000000001, 0.40000000000000002]')
    assert_same_table(load_model(earlier).table, loaded)
    assert_same_table(loaded, oracle_load_model(json.dumps(row_payload(json.loads(text)))).table)


def _float_label_model(labels):
    variables = [("a", (1, -1)), ("b", (1, -1)), ("x", labels), ("y", (0,)), ("lam", (0,))]
    codes = ([0] * len(labels), [1] * len(labels), range(len(labels)), [0] * len(labels),
             [0] * len(labels))
    table = FiniteDistribution(variables, codes, np.full(len(labels), 1.0 / len(labels)))
    return ExactCSModel(table=table, hidden_vars=("lam",))


def test_float_labels_round_trip_by_type_and_bits():
    labels = (1.0, -0.0, 0.1, (2.0, 3))
    text = json_text(model_payload(_float_label_model(labels)))
    assert '"labels": [1.0, -0.0, 0.1, [2.0, 3]]' in text
    loaded = load_model(text).table.labels("x")
    assert [type(v) for v in loaded] == [float, float, float, tuple]
    assert [type(v) for v in loaded[3]] == [float, int]
    assert struct.pack("<3d", *loaded[:3]) == struct.pack("<3d", *labels[:3])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, (1, np.float64("nan"))])
def test_non_finite_labels_are_refused_when_written(bad):
    with pytest.raises(ConfigError, match="cannot write JSON .*not JSON compliant"):
        json_text(model_payload(_float_label_model((0, bad))))


def test_numpy_integer_labels_are_refused_when_written():
    # every builder makes its labels with .tolist(); a numpy integer has no
    # JSON form
    with pytest.raises(ConfigError, match="cannot write JSON .*int64"):
        json_text(model_payload(_float_label_model((0, np.int64(1)))))


def test_bundled_counterexample_is_the_builders_model():
    path = resources.files("bellmi").joinpath("data/signaling_counterexample.json")
    loaded = load_model(path.read_text(encoding="utf-8"))
    want = make_signaling_example()
    assert loaded.hidden_vars == want.hidden_vars
    assert_same_table(loaded.table, want.table)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(sparse_models(), st.randoms(use_true_random=False))
def test_model_files_match_the_entry_at_a_time_oracles(model_dyadic, rnd):
    model, _ = model_dyadic
    text = json_text(model_payload(model))
    assert text == json_text(oracle_model_payload(model))
    # the file, and the file with its variables shuffled, read as columns
    # by the package and in the row layout by the entry-at-a-time oracle
    payload = parse_json(text, "model file")
    perm = list(range(len(payload["variables"])))
    rnd.shuffle(perm)
    shuffled = {**payload, "variables": [payload["variables"][i] for i in perm]}
    for p in (payload, shuffled):
        got = load_model(json.dumps(p))
        want = oracle_load_model(json.dumps(row_payload(p)))
        assert got.hidden_vars == want.hidden_vars
        assert_same_table(got.table, want.table)


def test_load_model_converts_each_declared_label_once(monkeypatch):
    # the 3x3 singlet broadcast model: 4 096 mu labels of 12 outcomes each,
    # picked by 36 864 entries
    settings = fibonacci_sphere(6)
    spec = SettingsSpec(settings[::2], settings[1::2])
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
    # one call per nesting level of each declared label list (a, b, x, y
    # flat, m one array deep, mu two), and one for the weights
    assert calls == 4 * 1 + 2 + 3 + 1
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
@example((load_model, ("weights", 0)), 10**400)  # no float64 holds it
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
    payload = sampler_payload(cs, spec, seed=82)
    assert payload["sampled"] is True
    assert payload["kind"].endswith("postselected")
    assert payload["seed"] == 82
    assert payload["hidden_variables"] == ["lam"]
    assert payload["settings"]["p_xy"] is not None
