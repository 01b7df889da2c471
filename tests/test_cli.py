"""End-to-end command-line behavior through real subprocesses, plus an
in-process property test of flag values."""

import contextlib
import io
import json
from importlib import resources

import pytest
from hypothesis import example, given, settings, strategies as st

from bellmi import cli
from bellmi.analysis import CHUNK_ROUNDS
from conftest import LOCAL_MODEL, fibonacci_sphere, run_cli


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------

def test_simulate_bytes_identical_across_parallelism():
    base = ["simulate", "--model", "tb", "--rounds", "20000", "--seed", "5"]
    code1, out1, _ = run_cli(base + ["--parallelism", "1"])
    code4, out4, _ = run_cli(base + ["--parallelism", "4"])
    assert code1 == code4 == 0
    assert out1 == out4


def test_repeated_commands_are_byte_identical():
    args = [
        "mutual-info", "--target", "tb-finite", "--samples", "5000", "--seed", "3",
    ]
    _, first, _ = run_cli(args)
    _, second, _ = run_cli(args)
    assert first == second


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

def test_simulate_json_payload():
    code, out, err = run_cli(
        ["simulate", "--model", "gg", "--rounds", "30000", "--seed", "1"]
    )
    assert code == 0, err
    payload = json.loads(out)
    assert payload["model"] == "gg"
    assert payload["seed"] == 1
    assert "parallelism" not in payload
    assert len(payload["cells"]) == 4
    eff = payload["efficiency"]
    assert abs(eff["alice_per_setting"][0] - 0.5) < 0.03
    assert eff["bob"] == 1.0


def test_simulate_csv_output(tmp_path):
    out_file = tmp_path / "table.csv"
    code, out, err = run_cli(
        [
            "simulate", "--model", "tb", "--rounds", "4000", "--seed", "2",
            "--output", "csv", "--out-file", str(out_file),
        ]
    )
    assert code == 0, err
    assert out == b""
    lines = out_file.read_text().strip().split("\n")
    assert len(lines) == 5
    assert lines[0].startswith("x,y,")


def test_simulate_rejects_unknown_model():
    code, _, err = run_cli(["simulate", "--model", "brans", "--rounds", "10"])
    assert code == 2
    assert "brans" in err


# ----------------------------------------------------------------------
# mutual-info
# ----------------------------------------------------------------------

def test_mutual_info_targets(tmp_path):
    code, out, _ = run_cli(["mutual-info", "--target", "tb-uniform"])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - 0.85) < 0.02
    assert payload["bound"] == 1.0

    code, out, _ = run_cli(["mutual-info", "--target", "gg-uniform"])
    payload = json.loads(out)
    assert abs(payload["value"] - 0.2787) < 0.001
    assert payload["method"] == "closed-form"

    code, out, _ = run_cli(
        ["mutual-info", "--target", "tb-finite", "--samples", "20000", "--seed", "7"]
    )
    payload = json.loads(out)
    assert payload["value"] <= 1.0
    assert payload["seed"] == 7

    model_file = tmp_path / "model.json"
    run_cli(["transform", "--model", "brans", "--out-file", str(model_file)])
    code, out, _ = run_cli(
        ["mutual-info", "--target", "exact-model-file", "--model-file", str(model_file)]
    )
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(2.0, abs=1e-12)


def test_mutual_info_model_file_required():
    code, _, err = run_cli(["mutual-info", "--target", "exact-model-file"])
    assert code == 2
    assert "model-file" in err


# ----------------------------------------------------------------------
# transform
# ----------------------------------------------------------------------

def test_transform_requires_out_file():
    code, _, err = run_cli(["transform", "--model", "brans"])
    assert code == 2
    assert "out-file" in err


def test_transform_brans_then_verify(tmp_path):
    model_file = tmp_path / "brans.json"
    code, out, err = run_cli(
        ["transform", "--model", "brans", "--out-file", str(model_file)]
    )
    assert code == 0, err
    report = json.loads(out)
    assert report["corr_deviation"] == 0.0
    assert report["mi_value"] == 2.0
    code, out, _ = run_cli(["verify", str(model_file)])
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_transform_input_broadcast_pr_box(tmp_path):
    model_file = tmp_path / "ib.json"
    code, out, _ = run_cli(
        [
            "transform", "--model", "input-broadcast", "--corr", "pr-box",
            "--out-file", str(model_file),
        ]
    )
    assert code == 0
    report = json.loads(out)
    assert report["corr_deviation"] == 0.0
    assert report["mi_value"] == 1.0
    assert report["mi_bound"] == 1.0
    code, _, _ = run_cli(["verify", str(model_file), "--tol", "1e-12"])
    assert code == 0


def test_transform_sampled_models(tmp_path):
    tb_file = tmp_path / "tb.json"
    code, out, err = run_cli(
        [
            "transform", "--model", "tb", "--rounds", "20000", "--seed", "4",
            "--out-file", str(tb_file),
        ]
    )
    assert code == 0, err
    report = json.loads(out)
    assert report["mi_bound"] == 1.0
    assert report["extras"]["exact"] is False
    descriptor = json.loads(tb_file.read_bytes())
    assert descriptor["sampled"] is True

    gg_file = tmp_path / "gg.json"
    code, out, err = run_cli(
        [
            "transform", "--model", "gg", "--rounds", "20000", "--seed", "4",
            "--out-file", str(gg_file),
        ]
    )
    assert code == 0, err
    report = json.loads(out)
    assert abs(report["extras"]["acceptance_rate"] - 0.5) < 0.03


def test_transform_floor_breach_exit_code(tmp_path):
    code, _, err = run_cli(
        [
            "transform", "--model", "gg", "--rounds", "30000", "--seed", "4",
            "--floor", "0.9", "--out-file", str(tmp_path / "gg.json"),
        ]
    )
    assert code == 4
    assert "floor" in err


def test_transform_corr_file_round_trip(tmp_path):
    table_file = tmp_path / "table.json"
    run_cli(
        [
            "simulate", "--model", "tb", "--rounds", "20000", "--seed", "8",
            "--out-file", str(table_file),
        ]
    )
    model_file = tmp_path / "model.json"
    code, out, err = run_cli(
        [
            "transform", "--model", "brans", "--corr-file", str(table_file),
            "--out-file", str(model_file),
        ]
    )
    assert code == 0, err
    assert json.loads(out)["corr_deviation"] <= 1e-12
    code, _, _ = run_cli(["verify", str(model_file)])
    assert code == 0


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def test_verify_bundled_signaling_counterexample():
    path = resources.files("bellmi").joinpath("data/signaling_counterexample.json")
    code, out, _ = run_cli(["verify", str(path)])
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["witness"] is not None


def test_parallel_settings_round_past_one(tmp_path):
    # both sides share fibonacci_sphere(4); one setting's self-dot rounds
    # to 1 + 2.2e-16, which must not make a singlet cell negative
    settings = fibonacci_sphere(4).tolist()
    settings_file = tmp_path / "settings.json"
    settings_file.write_text(
        json.dumps({"alice_settings": settings, "bob_settings": settings})
    )
    brans_file = tmp_path / "brans.json"
    for args in (
        ["simulate", "--model", "tb", "--rounds", "2000"],
        ["transform", "--model", "brans", "--out-file", str(brans_file)],
        ["transform", "--model", "tb", "--rounds", "2000",
         "--out-file", str(tmp_path / "tb.json")],
    ):
        code, _, err = run_cli(args + ["--settings-file", str(settings_file)])
        assert code == 0, (args, err)
    code, out, err = run_cli(["verify", str(brans_file)])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["max_deviation"] == 0.0


# Alice on z, x, y and Bob on z, x; Alice's y and two more cells are never drawn
ZERO_MASS_SPEC = {
    "alice_settings": [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    "bob_settings": [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
    "p_xy": [[0.5, 0.0], [0.25, 0.25], [0.0, 0.0]],
}


def test_gg_efficiency_of_an_undrawn_setting_is_null_without_warning(tmp_path):
    settings_file = tmp_path / "settings.json"
    settings_file.write_text(json.dumps(ZERO_MASS_SPEC))
    code, out, err = run_cli(
        ["simulate", "--model", "gg", "--rounds", "2000",
         "--settings-file", str(settings_file)]
    )
    assert code == 0, err
    assert err == ""
    alice = json.loads(out)["efficiency"]["alice_per_setting"]
    assert alice[2] is None and 0.0 < alice[0] < 1.0 and 0.0 < alice[1] < 1.0


@pytest.mark.parametrize("model, mi", [("brans", 1.5), ("input-broadcast", 1.0)])
def test_exact_transforms_skip_zero_mass_cells(tmp_path, model, mi):
    # the reproduced table is checked on the drawn cells only; I(x,y:lam) is
    # H(x,y) = 1.5 bits for Brans and H(m) = H(x) = 1 bit for the broadcast
    settings_file = tmp_path / "settings.json"
    settings_file.write_text(json.dumps(ZERO_MASS_SPEC))
    model_file = tmp_path / "model.json"
    code, out, err = run_cli(
        ["transform", "--model", model, "--settings-file", str(settings_file),
         "--out-file", str(model_file)]
    )
    assert code == 0, err
    report = json.loads(out)
    assert report["corr_deviation"] == 0.0
    assert report["inputs_deviation"] == 0.0
    code, out, err = run_cli(["verify", str(model_file)])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["ok"] is True and payload["max_deviation"] == 0.0
    code, out, err = run_cli(
        ["mutual-info", "--target", "exact-model-file", "--model-file", str(model_file)]
    )
    assert code == 0, err
    assert json.loads(out)["value"] == pytest.approx(mi, abs=1e-12)


SIMULATE = ["simulate", "--model", "tb", "--rounds", "100"]
SIGNALING = str(resources.files("bellmi").joinpath("data/signaling_counterexample.json"))
MI_MODEL_FILE = [
    "mutual-info", "--target", "exact-model-file", "--model-file", "input.json",
]
ONE_CELL = {
    "alice_settings": [[0.0, 0.0, 1.0]],
    "bob_settings": [[0.0, 0.0, 1.0]],
    "cells": [{"x": 0, "y": 0, "pp": 0.25, "pm": 0.25, "mp": 0.25, "mm": 0.25}],
}
# one weight, but 4 * 4000**8 dense cells: far more than numpy can allocate
HUGE_MODEL = {
    "variables": [
        {"name": name, "labels": [1, -1] if name in "ab" else list(range(4000))}
        for name in ("a", "b", "x", "y", "h1", "h2", "h3", "h4", "h5", "h6")
    ],
    "weights": [{"assignment": [1, 1] + [0] * 8, "p": 1.0}],
}

# case -> (argv, payload); the payload, if any, is written to input.json in
# the working directory of the run.
BAD_INPUTS = {
    "nan-settings": (
        SIMULATE + ["--settings-file", "input.json"],
        {"alice_settings": [[float("nan")] * 3], "bob_settings": [[0.0, 0.0, 1.0]]},
    ),
    "nan-p-xy": (
        SIMULATE + ["--input-dist-file", "input.json"],
        {"p_xy": [[float("nan"), 0.5], [0.25, 0.25]]},
    ),
    "negative-seed": (SIMULATE + ["--seed", "-1"], None),
    # one chunk of rounds, so not even a missing cap could start many threads
    "parallelism-above-cap": (SIMULATE + ["--parallelism", "1000000"], None),
    "verify-tol-nan": (["verify", SIGNALING, "--tol", "nan"], None),
    "verify-tol-negative": (["verify", SIGNALING, "--tol", "-1"], None),
    "verify-tol-inf": (["verify", SIGNALING, "--tol", "inf"], None),
    "floor-nan": (
        ["transform", "--model", "gg", "--rounds", "1000", "--floor", "nan",
         "--out-file", "model.json"],
        None,
    ),
    "floor-nan-tb": (
        ["transform", "--model", "tb", "--rounds", "1000", "--floor", "nan",
         "--out-file", "model.json"],
        None,
    ),
    "floor-negative-brans": (
        ["transform", "--model", "brans", "--floor", "-3", "--out-file", "model.json"],
        None,
    ),
    # x = -1 would index the last Alice setting and fill the missing x = 1 cell
    "corr-negative-cell": (
        ["transform", "--model", "brans", "--corr-file", "input.json",
         "--out-file", "model.json"],
        {
            "alice_settings": [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
            "bob_settings": [[0.0, 0.0, 1.0]],
            "cells": [
                {"x": x, "y": 0, "pp": 0.25, "pm": 0.25, "mp": 0.25, "mm": 0.25}
                for x in (-1, 0)
            ],
        },
    ),
    # a repeated cell would let its later values win silently
    "corr-duplicate-cell": (
        ["transform", "--model", "brans", "--corr-file", "input.json",
         "--out-file", "model.json"],
        {
            "alice_settings": [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
            "bob_settings": [[0.0, 0.0, 1.0]],
            "cells": [
                {"x": x, "y": 0, "pp": 0.25, "pm": 0.25, "mp": 0.25, "mm": 0.25}
                for x in (0, 1, 0)
            ],
        },
    ),
    # the file fixes the settings, so a preset would be ignored silently
    "corr-file-with-preset": (
        ["transform", "--model", "brans", "--corr-file", "input.json",
         "--preset", "parallel", "--out-file", "model.json"],
        {
            "alice_settings": [[0.0, 0.0, 1.0]],
            "bob_settings": [[0.0, 0.0, 1.0]],
            "cells": [{"x": 0, "y": 0, "pp": 0.25, "pm": 0.25, "mp": 0.25, "mm": 0.25}],
        },
    ),
    # the file fixes the target too, so --corr would be ignored silently
    "corr-file-with-corr": (
        ["transform", "--model", "brans", "--corr-file", "input.json",
         "--corr", "pr-box", "--out-file", "model.json"],
        ONE_CELL,
    ),
    # tb and gg always reproduce the singlet, so a target would be ignored
    "tb-corr-file": (
        ["transform", "--model", "tb", "--corr-file", "input.json", "--rounds", "2000",
         "--out-file", "model.json"],
        ONE_CELL,
    ),
    "gg-corr-pr-box": (
        ["transform", "--model", "gg", "--corr", "pr-box", "--rounds", "2000",
         "--out-file", "model.json"],
        None,
    ),
    # int() would truncate x = 1.5 to 1 and accept the file as complete
    "corr-fractional-index": (
        ["transform", "--model", "brans", "--corr-file", "input.json",
         "--out-file", "model.json"],
        {
            "alice_settings": [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
            "bob_settings": [[0.0, 0.0, 1.0]],
            "cells": [
                {"x": x, "y": 0, "pp": 0.25, "pm": 0.25, "mp": 0.25, "mm": 0.25}
                for x in (0, 1.5)
            ],
        },
    ),
    # malformed fields must fail the loaders' checks, not end in a TypeError
    # or ValueError traceback with exit 1
    "corr-cells-not-list": (
        ["transform", "--model", "brans", "--corr-file", "input.json",
         "--out-file", "model.json"],
        {**ONE_CELL, "cells": 5},
    ),
    "settings-pxy-not-numeric": (
        SIMULATE + ["--settings-file", "input.json"],
        {**ONE_CELL, "p_xy": "abc"},
    ),
    "model-hidden-not-list": (
        ["verify", "input.json"], {**LOCAL_MODEL, "hidden_variables": 5}
    ),
    # an empty side would report I = 0 under a label that names other variables
    "mi-empty-vars-a": (MI_MODEL_FILE + ["--vars-a", ""], LOCAL_MODEL),
    "mi-empty-vars-b": (MI_MODEL_FILE + ["--vars-b", ","], LOCAL_MODEL),
    "mi-overlapping-vars": (
        MI_MODEL_FILE + ["--vars-a", "x,y", "--vars-b", "x"], LOCAL_MODEL
    ),
    # each target rejects the flags it does not read instead of ignoring them
    "mi-tb-uniform-settings-file": (
        ["mutual-info", "--target", "tb-uniform", "--settings-file", "nope.json"], None
    ),
    "mi-gg-uniform-preset": (
        ["mutual-info", "--target", "gg-uniform", "--preset", "parallel"], None
    ),
    "mi-tb-finite-model-file": (
        ["mutual-info", "--target", "tb-finite", "--samples", "1000",
         "--model-file", "nope.json"],
        None,
    ),
    "mi-exact-model-preset": (MI_MODEL_FILE + ["--preset", "parallel"], LOCAL_MODEL),
    "mi-tb-uniform-samples": (
        ["mutual-info", "--target", "tb-uniform", "--samples", "5"], None
    ),
    "mi-exact-model-seed": (MI_MODEL_FILE + ["--seed", "2"], LOCAL_MODEL),
    "mi-gg-uniform-panels": (
        ["mutual-info", "--target", "gg-uniform", "--panels", "64"], None
    ),
    "brans-rounds": (
        ["transform", "--model", "brans", "--rounds", "5", "--out-file", "model.json"],
        None,
    ),
    "brans-floor": (
        ["transform", "--model", "brans", "--floor", "0.5", "--out-file", "model.json"],
        None,
    ),
    # the dense table is refused before numpy is asked for it
    "verify-model-over-cell-cap": (["verify", "input.json"], HUGE_MODEL),
    "mi-model-over-cell-cap": (MI_MODEL_FILE, HUGE_MODEL),
    # numpy refuses this grid up front; a value nearer the cap would allocate it
    "mi-panels-huge": (
        ["mutual-info", "--target", "tb-uniform", "--panels", str(10**13)], None
    ),
    # an object label is unhashable, so it would reach the table as a TypeError
    "model-object-label": (
        ["verify", "input.json"],
        {
            "variables": [
                {"name": "a", "labels": [{"k": 1}, -1]},
                {"name": "b", "labels": [1, -1]},
                {"name": "x", "labels": [0]},
                {"name": "y", "labels": [0]},
                {"name": "lam", "labels": [0]},
            ],
            "weights": [{"assignment": [-1, 1, 0, 0, 0], "p": 1.0}],
        },
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_one_error_line(tmp_path, case):
    argv, payload = BAD_INPUTS[case]
    if payload is not None:
        # writes NaN, which json.loads accepts
        (tmp_path / "input.json").write_text(json.dumps(payload))
    code, out, err = run_cli(argv, cwd=tmp_path)
    assert code == 2, err
    assert out == b""
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


def test_config_errors_exit_2(tmp_path):
    code, _, _ = run_cli(["verify", str(tmp_path / "missing.json")])
    assert code == 2
    code, _, err = run_cli(
        [
            "simulate", "--model", "tb", "--rounds", "100",
            "--preset", "chsh", "--settings-file", "x.json",
        ]
    )
    assert code == 2
    assert "exclusive" in err
    code, _, _ = run_cli(["simulate"])  # missing required --model
    assert code == 2


# flag -> (argv before it, small valid values); every valid run is one chunk
# on at most one worker thread
FLAG_RUNS = {
    "--rounds": (["simulate", "--model", "tb"], st.integers(1, CHUNK_ROUNDS)),
    "--parallelism": (["simulate", "--model", "tb", "--rounds", "1000"],
                      st.integers(1, 4)),
    "--samples": (["mutual-info", "--target", "tb-finite"], st.integers(1, 2000)),
    "--seed": (["mutual-info", "--target", "tb-finite", "--samples", "1000"],
               st.integers(0, 2**64)),
    "--panels": (["mutual-info", "--target", "tb-uniform"],
                 st.integers(1, 4096) | st.just(10**13)),
    "--tol": (["verify", "{model}"], st.floats(0.0, 1.0)),
    # valid floors sit below the acceptance rate of about 1/2, so they exit 0
    "--floor": (["transform", "--model", "gg", "--rounds", "1000", "--out-file", "{out}"],
                st.floats(0.0, 0.25)),
}
BAD_VALUES = st.sampled_from(["-1", "-1e9", "0", "0.0", "nan", "inf", "-inf", "abc", ""])


@pytest.fixture(scope="module")
def flag_files(tmp_path_factory):
    work = tmp_path_factory.mktemp("flags")
    (work / "model.json").write_text(json.dumps(LOCAL_MODEL))
    return {"model": str(work / "model.json"), "out": str(work / "out.json")}


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(FLAG_RUNS)).flatmap(
    lambda flag: st.tuples(
        st.just(flag), BAD_VALUES | FLAG_RUNS[flag][1].map(str)
    )
))
@example(("--panels", str(10**13)))
def test_flag_values_exit_0_or_2_without_traceback(flag_files, case):
    flag, value = case
    base, _ = FLAG_RUNS[flag]
    argv = [arg.format(**flag_files) for arg in base] + [flag, value]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the value
            code = exc.code
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
