"""End-to-end command-line behavior through real subprocesses, plus
in-process tests of flag values and of the flags each mode reads."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bellmi import analysis, cli, serialize, transforms
from bellmi.analysis import CHUNK_ROUNDS
from conftest import (
    LOCAL_MODEL,
    assert_same_table,
    fibonacci_sphere,
    local_model_with_lam_codes,
    oracle_load_model,
    row_payload,
    run_cli,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import fuzz_inputs  # noqa: E402


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------

def test_simulate_bytes_identical_across_parallelism():
    base = ["simulate", "--model", "tb", "--rounds", "20000", "--seed", "5"]
    code1, out1, _ = run_cli(base + ["--parallelism", "1"])
    code4, out4, _ = run_cli(base + ["--parallelism", "4"])
    assert code1 == code4 == 0
    assert out1 == out4


def test_post_selected_csv_bytes_identical_across_parallelism():
    # the detection model tallies only kept rounds; its CSV must not depend
    # on how many threads ran the chunks
    base = ["simulate", "--model", "gg", "--preset", "parallel", "--rounds", "200000",
            "--output", "csv"]
    code1, out1, err1 = run_cli(base + ["--parallelism", "1"])
    code2, out2, err2 = run_cli(base + ["--parallelism", "2"])
    assert code1 == code2 == 0, err1 + err2
    assert out1.startswith(b"x,y,pp,pm,mp,mm,n,") and out1.count(b"\n") == 5
    assert out1 == out2


@pytest.mark.parametrize("model", ["tb", "gg"])
def test_sampled_transform_bytes_identical_across_parallelism(tmp_path, model):
    # four chunks of report rounds, so two threads run chunks side by side
    base = ["transform", "--model", model, "--rounds", str(3 * CHUNK_ROUNDS + 7),
            "--seed", "11"]
    runs = []
    for parallelism in ("1", "2"):
        model_file = tmp_path / f"model-{parallelism}.json"
        code, out, err = run_cli(
            base + ["--parallelism", parallelism, "--out-file", str(model_file)]
        )
        assert code == 0, err
        runs.append((out, model_file.read_bytes()))
    assert runs[0] == runs[1]
    assert json.loads(runs[0][0])["extras"]["check_rounds"] == 3 * CHUNK_ROUNDS + 7


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
    assert b'"method": "exact", "uncertainty": 0.0, ' in out


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


def test_brans_past_the_dense_cell_count(tmp_path):
    # 40x40 settings: a dense table would hold 16 * 40**4 = 41 M cells, over
    # the 2**25 cell cap; the support holds at most 6 400
    gen = np.random.default_rng(40)
    v = gen.standard_normal((80, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    settings_file = tmp_path / "settings.json"
    settings_file.write_text(json.dumps(
        {"alice_settings": v[:40].tolist(), "bob_settings": v[40:].tolist()}
    ))
    model_file = str(tmp_path / "brans.json")
    h_xy = math.log2(40 * 40)  # uniform p_xy
    code, out, err = run_cli(["transform", "--model", "brans", "--settings-file",
                              str(settings_file), "--out-file", model_file])
    assert code == 0, err
    assert abs(json.loads(out)["mi_value"] - h_xy) <= 1e-9
    code, out, err = run_cli(["verify", model_file])
    assert code == 0, err
    assert json.loads(out)["max_deviation"] == 0.0
    code, out, err = run_cli(
        ["mutual-info", "--target", "exact-model-file", "--model-file", model_file]
    )
    assert code == 0, err
    assert abs(json.loads(out)["value"] - h_xy) <= 1e-9


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
    # the run fails after its work, so an existing destination keeps its bytes
    (tmp_path / "gg.json").write_bytes(b"earlier model\n")
    code, _, err = run_cli(
        [
            "transform", "--model", "gg", "--rounds", "30000", "--seed", "4",
            "--floor", "0.9", "--out-file", str(tmp_path / "gg.json"),
        ]
    )
    assert code == 4
    assert "floor" in err
    assert (tmp_path / "gg.json").read_bytes() == b"earlier model\n"


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "tb"],
    ["transform", "--model", "tb"],
    ["transform", "--model", "gg"],
    ["transform", "--model", "input-broadcast"],
])
def test_bad_out_file_exits_2_before_the_work(monkeypatch, tmp_path, argv):
    def never(*args, **kwargs):
        raise AssertionError("the work ran before the destination was checked")

    monkeypatch.setattr(transforms, "comm_to_cs", never)
    monkeypatch.setattr(analysis, "estimate_correlations", never)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--out-file", str(tmp_path / "missing" / "x.json")])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue() == "error: --out-file: No such file or directory\n"


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
    # the values the file printed in the row layout, before code columns
    assert out == (
        b'{"ok": false, "max_deviation": 0.5, "tol": 1e-09, '
        b'"witness": {"a": 1, "b": 1, "x": 0, "y": 0, "lam": "free"}}\n'
    )


def test_verify_tol_0_accepts_an_exactly_local_model(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(LOCAL_MODEL))
    code, out, err = run_cli(["verify", str(path), "--tol", "0"])
    assert code == 0, err
    assert out == b'{"ok": true, "max_deviation": 0.0, "tol": 0.0, "witness": null}\n'


@pytest.mark.parametrize("hidden", [[], None])
def test_verify_model_without_hidden_variables(tmp_path, hidden):
    # two settings a side, uniform; "copy" has a copy y, which Alice cannot see
    def model(a_of_y):
        xs, ys = [0, 0, 1, 1], [0, 1, 0, 1]
        return {
            "variables": [
                {"name": n, "labels": labels, "codes": codes} for n, labels, codes in (
                    ("a", [1, -1], [[1, -1].index(a_of_y(y)) for y in ys]),
                    ("b", [1, -1], [0] * 4), ("x", [0, 1], xs), ("y", [0, 1], ys),
                )
            ],
            "weights": [0.25] * 4,
            "hidden_variables": hidden,
        }

    for name, a_of_y, want in (("fixed", lambda y: 1, 0), ("copy", lambda y: 1 - 2 * y, 1)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(model(a_of_y)))
        code, out, err = run_cli(["verify", str(path)])
        assert code == want, err
        report = json.loads(out)
        assert report["max_deviation"] == 0.5 * want
        if want:
            assert report["witness"] == {"a": 1, "b": 1, "x": 0, "y": 0}


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


def test_gg_transform_efficiency_of_an_undrawn_setting_is_null(tmp_path):
    settings_file = tmp_path / "settings.json"
    settings_file.write_text(json.dumps(ZERO_MASS_SPEC))
    code, out, err = run_cli(
        ["transform", "--model", "gg", "--rounds", "2000", "--settings-file",
         str(settings_file), "--out-file", str(tmp_path / "model.json")]
    )
    assert code == 0, err
    alice = json.loads(out)["extras"]["alice_efficiency"]
    assert alice[2] is None and 0.0 < alice[0] < 1.0 and 0.0 < alice[1] < 1.0
    assert b'"alice_efficiency": [0.' in out and b", null]" in out


ESTIMATES = ("pp", "pm", "mp", "mm", "se_pp", "se_pm", "se_mp", "se_mm", "e", "se_e")
ZERO_MASS_CELLS = [(0, 1), (2, 0), (2, 1)]


def test_simulate_writes_empty_cells_as_null_and_blank(tmp_path):
    settings_file = tmp_path / "settings.json"
    settings_file.write_text(json.dumps(ZERO_MASS_SPEC))
    argv = ["simulate", "--model", "tb", "--rounds", "2000",
            "--settings-file", str(settings_file)]
    code, out, err = run_cli(argv)
    assert code == 0 and err == ""
    payload = json.loads(out)
    for cell in payload["cells"]:
        empty = (cell["x"], cell["y"]) in ZERO_MASS_CELLS
        assert cell["empty"] is empty and (cell["n"] == 0) is empty
        assert all((cell[k] is None) is empty for k in ESTIMATES)
        if empty:
            assert cell["ok"] is False
    assert payload["deviations_ok"] is False
    code, out, err = run_cli(argv + ["--output", "csv"])
    assert code == 0 and err == ""
    header, *rows = [line.split(",") for line in out.decode().splitlines()]
    assert len(rows) == 6
    for row in rows:
        cell = dict(zip(header, row))
        empty = (int(cell["x"]), int(cell["y"])) in ZERO_MASS_CELLS
        blank = [cell[k] == "" for k in ("pp", "pm", "mp", "mm", "e", "se_e")]
        assert blank == [empty] * 6


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


# (model, p_xy) -> sha256 of (model file, stdout) of ``transform --corr pr-box
# --preset chsh``.  With dyadic cells and row sums every weight, ratio and
# log2 is exact, so no libm or BLAS rounding reaches the pinned bytes.
PINNED_TRANSFORMS = {
    ("input-broadcast", None): (
        "f011f1285215ae3a7ce2864eac40b6901e350a1f34d49f71adefbd706bd1007b",
        "0dedf49da2e49100c65cc4cd683d34255e5161c4c6b0f894b624ffd6de035b21",
    ),
    ("input-broadcast", ((0.5, 0.0), (0.25, 0.25))): (
        "619e919377709f6f352c702f2ea9920c3d13d9eb9765b88d338b92bc7e6489b4",
        "0dedf49da2e49100c65cc4cd683d34255e5161c4c6b0f894b624ffd6de035b21",
    ),
    # the only weight sits on x = 1, so the "m" alphabet holds the one message
    # sent, [1], and H(m) of that point mass is written as 0.0, not -0.0
    ("input-broadcast", ((0.0, 0.0), (0.5, 0.5))): (
        "62fa868a9f1c1dc800feb90ac09164f4c8cc977132027e52b070a078eb499ddd",
        "32437800da6da701660a2a2f45bd8f99022b2557f2998374fa6802a610be794b",
    ),
    ("brans", None): (
        "05394dc22383c4f9c3208abdb4b255ff22843baa4003d6b07035a61eb31686e0",
        "6b64c6d1f9fb7a13e356cab3147a54c9e1174e15786c3df2aa6fe52c35a9567d",
    ),
    ("brans", ((0.5, 0.0), (0.25, 0.25))): (
        "5e2dfa29d218a78a13dbeed0bc60ed62b3e0d2397b1762571ac9dcdcf3d26a8b",
        "ecf2d3630ec2517ac2ecd69135baf2468394eeb15e8936bd44fea07346cc639e",
    ),
}


@pytest.mark.parametrize("model, p_xy", sorted(PINNED_TRANSFORMS, key=str))
def test_exact_transform_bytes_are_pinned(tmp_path, model, p_xy):
    argv = ["transform", "--model", model, "--corr", "pr-box", "--preset", "chsh",
            "--out-file", str(tmp_path / "model.json")]
    if p_xy is not None:
        (tmp_path / "p_xy.json").write_text(json.dumps({"p_xy": p_xy}))
        argv += ["--input-dist-file", str(tmp_path / "p_xy.json")]
    code, out, err = run_cli(argv)
    assert code == 0, err
    text = (tmp_path / "model.json").read_text()
    got = (hashlib.sha256(text.encode()).hexdigest(), hashlib.sha256(out).hexdigest())
    assert got == PINNED_TRANSFORMS[model, p_xy]
    # the file holds the table that the row-layout oracle reads from its rows
    oracle = oracle_load_model(json.dumps(row_payload(json.loads(text))))
    assert_same_table(serialize.load_model(text).table, oracle.table)
    # the exact models draw nothing, yet accept --seed: perfbench's
    # exact-sweep passes it to every transform it runs
    code, seeded_out, err = run_cli(argv + ["--seed", "5"])
    assert code == 0, err
    assert ((tmp_path / "model.json").read_text(), seeded_out) == (text, out)


def _spec_files(tmp_path, shape=(32, 32), seed=1919):
    """Seeded n_a x n_b settings file and a non-product, non-uniform p_xy file."""
    gen = np.random.default_rng(seed)
    alice, bob = gen.standard_normal((shape[0], 3)), gen.standard_normal((shape[1], 3))
    alice /= np.sqrt((alice * alice).sum(axis=1))[:, None]
    bob /= np.sqrt((bob * bob).sum(axis=1))[:, None]
    w = np.exp(0.7 * gen.standard_normal(shape))
    (tmp_path / "settings.json").write_text(
        json.dumps({"alice_settings": alice.tolist(), "bob_settings": bob.tolist()})
    )
    (tmp_path / "p_xy.json").write_text(json.dumps({"p_xy": (w / w.sum()).tolist()}))
    return ["--settings-file", str(tmp_path / "settings.json"),
            "--input-dist-file", str(tmp_path / "p_xy.json")]


# sha256 of the stdout of ``mutual-info --target tb-finite`` on the wide spec
# above, with Marsaglia's sphere map; the agreement kernel's bits were
# checked against the one-setting-at-a-time loop (commit 394b20a) on the
# earlier (z, phi) map.
PINNED_TB_FINITE = "b551fcbb5744b87bdbc5555e47efa401cb2768226214140d05589011c976513e"


def test_tb_finite_bytes_are_pinned(tmp_path):
    argv = ["mutual-info", "--target", "tb-finite", "--samples", "200000", "--seed", "19"]
    argv += _spec_files(tmp_path)
    for parallelism in ("1", "2"):
        code, out, err = run_cli(argv + ["--parallelism", parallelism])
        assert code == 0, err
        assert hashlib.sha256(out).hexdigest() == PINNED_TB_FINITE, parallelism


# sha256 of the stdout of ``simulate --preset chsh --rounds 100000 --seed 23``
# per model, with Marsaglia's sphere map.  A failure on one machine only may
# come from its numpy build; CI prints ``numpy.show_runtime()`` for that.
PINNED_SIMULATE = {
    "tb": "5f3606cefefa66042fd386fb94e1ba167bf20cc08158caf1ed6f61af844b98c3",
    "gg": "9531683ff2849910b9231ebcf2374501d561820acf92fe7a52ae0558534b057f",
}


@pytest.mark.parametrize("model", sorted(PINNED_SIMULATE))
def test_simulate_bytes_are_pinned(model):
    argv = ["simulate", "--model", model, "--preset", "chsh", "--rounds", "100000",
            "--seed", "23"]
    for parallelism in ("1", "3"):
        code, out, err = run_cli(argv + ["--parallelism", parallelism])
        assert code == 0, err
        assert hashlib.sha256(out).hexdigest() == PINNED_SIMULATE[model], parallelism


# sha256 of (model file, stdout) of ``transform --model M --preset chsh
# --rounds 200000 --seed 31``, and of the stdout of ``simulate --model M
# --rounds 150000 --seed 31`` (three chunks) on the seeded 5x4 spec files,
# taken before the outcome kernels read setting index arrays.
PINNED_SAMPLED_TRANSFORM = {
    "tb": (
        "3f9deef65154965f2f4430f359170afe5bec873a29a441ccb14a8be6e20f2a4e",
        "608463d1ea4c75eded5c1b5b282a537bad2c80faf5344de9050f9a656c3e0823",
    ),
    "gg": (
        "62d625b8a42ed7d5cbb3aac828b589e32cd739eaecbf4f00ff84aefce2822378",
        "05c73e2895e699744ce713a812fb825f6e9d4e715efaec24009fd5559f76177e",
    ),
}
PINNED_SIMULATE_FILES = {
    "tb": "0fef380ab297456b516f85302c7d4968e9bfc77ef4853c1e7761046194581b88",
    "gg": "f28443ba750a84c5e0f0d2e1289916eb93c544e62fae4ee0e5d446eaffdbfec6",
}


@pytest.mark.parametrize("model", sorted(PINNED_SAMPLED_TRANSFORM))
def test_sampled_transform_bytes_are_pinned(tmp_path, model):
    argv = ["transform", "--model", model, "--preset", "chsh", "--rounds", "200000",
            "--seed", "31", "--out-file", str(tmp_path / "model.json")]
    for parallelism in ("1", "3"):
        code, out, err = run_cli(argv + ["--parallelism", parallelism])
        assert code == 0, err
        got = (hashlib.sha256((tmp_path / "model.json").read_bytes()).hexdigest(),
               hashlib.sha256(out).hexdigest())
        assert got == PINNED_SAMPLED_TRANSFORM[model], parallelism


@pytest.mark.parametrize("model", sorted(PINNED_SIMULATE_FILES))
def test_simulate_on_spec_files_bytes_are_pinned(tmp_path, model):
    argv = ["simulate", "--model", model, "--rounds", "150000", "--seed", "31"]
    argv += _spec_files(tmp_path, (5, 4), 3131)
    for parallelism in ("1", "3"):
        code, out, err = run_cli(argv + ["--parallelism", parallelism])
        assert code == 0, err
        assert hashlib.sha256(out).hexdigest() == PINNED_SIMULATE_FILES[model], parallelism


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
# the descriptor ``transform --model tb`` writes: a seed and the settings,
# no weight table
TB_DESCRIPTOR = {
    "kind": "tb-comm", "sampled": True, "seed": 4,
    "settings": {k: v for k, v in ONE_CELL.items() if k != "cells"},
    "hidden_variables": ["l1", "l2", "m"],
    "certificate": "deterministic replay of the one-bit protocol",
}
# 2**13 labels for a and b and 2**10 weights on distinct lam values: the
# support is small, but verify would check 2**36 (a, b, x, y, lam) cells
WIDE_OUTCOME_MODEL = {
    "variables": [
        {"name": "a", "labels": list(range(2**13)), "codes": list(range(2**10))},
        {"name": "b", "labels": list(range(2**13)), "codes": list(range(2**10))},
        {"name": "x", "labels": [0], "codes": [0] * 2**10},
        {"name": "y", "labels": [0], "codes": [0] * 2**10},
        {"name": "lam", "labels": list(range(2**10)), "codes": list(range(2**10))},
    ],
    "weights": [2.0**-10] * 2**10,
    "hidden_variables": ["lam"],
}
# one weight, but 4 * 4000**8 cells: more than int64 cell codes can index
HUGE_MODEL = {
    "variables": [
        {"name": name, "labels": [1, -1] if name in "ab" else list(range(4000)), "codes": [0]}
        for name in ("a", "b", "x", "y", "h1", "h2", "h3", "h4", "h5", "h6")
    ],
    "weights": [1.0],
}



def _nested(depth: int) -> str:
    """JSON text of an array nested ``depth`` deep; json.dumps would recurse."""
    return "[" * depth + "0" + "]" * depth


# one extra lam label, nested 900 arrays deep and given no weight
DEEP_LABEL_MODEL = json.dumps({
    **LOCAL_MODEL,
    "variables": LOCAL_MODEL["variables"][:4]
    + [{**LOCAL_MODEL["variables"][4], "labels": [1, -1, "D"]}],
}).replace('"D"', _nested(900))
# the hidden variable's name is an array nested 900 deep
NESTED_NAME_MODEL = json.dumps({
    **LOCAL_MODEL,
    "variables": LOCAL_MODEL["variables"][:4] + [{**LOCAL_MODEL["variables"][4], "name": "D"}],
    "hidden_variables": None,
}).replace('"D"', _nested(900))
# the verifier rejects this model and would write the 400-deep label as its witness
DEEP_WITNESS_MODEL = (
    resources.files("bellmi").joinpath("data/signaling_counterexample.json")
    .read_text(encoding="utf-8").replace('"free"', _nested(400))
)
# a correlation file whose first cell's x is an array nested 980 deep
DEEP_CELL_CORR = json.dumps(ONE_CELL).replace('"x": 0', '"x": ' + _nested(980), 1)


# alphabets of four settings a side, no two parallel: every x and (x, y) has
# two outcomes, so the broadcast scripts number 2**4 * 2**16
FOUR_BY_FOUR = {
    "alice_settings": fibonacci_sphere(8)[::2].tolist(),
    "bob_settings": fibonacci_sphere(8)[1::2].tolist(),
}

# case -> (argv, payload); the payload, if any, is written to input.json in
# the working directory of the run, as it stands if it is a string or bytes
# and through json.dumps otherwise.
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
    # the range check of simulate, on the other commands that take threads
    **{
        f"{name}-parallelism-{n}": (argv + ["--parallelism", str(n)], None)
        for name, argv in (
            ("mi-tb-finite", ["mutual-info", "--target", "tb-finite", "--samples", "1000"]),
            ("tb", ["transform", "--model", "tb", "--rounds", "1000", "--out-file", "model.json"]),
            ("gg", ["transform", "--model", "gg", "--rounds", "1000", "--out-file", "model.json"]),
        )
        for n in (0, 65)
    },
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
    # a string would iterate as its characters: one code per character of
    # an assignment column, and one hidden name per letter
    "model-string-assignment": (
        ["verify", "input.json"],
        {
            "variables": [
                {"name": name, "labels": list(labels), "codes": codes}
                for name, labels, codes in
                (("a", "+-", "01"), ("b", "+-", "01"), ("x", "0", "00"), ("y", "0", "00"),
                 ("lam", "+-", "01"))
            ],
            "weights": [0.5, 0.5],
            "hidden_variables": ["lam"],
        },
    ),
    "model-string-hidden": (
        ["verify", "input.json"], {**LOCAL_MODEL, "hidden_variables": "lam"}
    ),
    # true, false and numeric strings are not numbers, though float() reads them
    "settings-bool-vector": (
        SIMULATE + ["--settings-file", "input.json"],
        {"alice_settings": [[False, False, True]], "bob_settings": [[0.0, 0.0, 1.0]]},
    ),
    "input-dist-string-p": (
        SIMULATE + ["--input-dist-file", "input.json"],
        {"p_xy": [[0.25, 0.25], [0.25, "0.25"]]},
    ),
    "input-dist-bool-p": (
        SIMULATE + ["--input-dist-file", "input.json"],
        {"p_xy": [[0.25, 0.25], [0.25, True]]},
    ),
    "corr-bool-probs": (
        ["transform", "--model", "brans", "--corr-file", "input.json",
         "--out-file", "model.json"],
        {**ONE_CELL,
         "cells": [{"x": 0, "y": 0, "pp": False, "pm": True, "mp": 0.0, "mm": 0.0}]},
    ),
    "model-string-weight": (
        ["verify", "input.json"],
        {**LOCAL_MODEL, "weights": ["0.5", "0.5"]},
    ),
    # an empty side would report I = 0 under a label that names other variables
    "mi-empty-vars-a": (MI_MODEL_FILE + ["--vars-a", ""], LOCAL_MODEL),
    "mi-empty-vars-b": (MI_MODEL_FILE + ["--vars-b", ","], LOCAL_MODEL),
    "mi-empty-string-vars-b": (MI_MODEL_FILE + ["--vars-b", ""], LOCAL_MODEL),
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
    "mi-tb-uniform-parallelism": (
        ["mutual-info", "--target", "tb-uniform", "--parallelism", "2"], None
    ),
    "brans-rounds": (
        ["transform", "--model", "brans", "--rounds", "5", "--out-file", "model.json"],
        None,
    ),
    "brans-floor": (
        ["transform", "--model", "brans", "--floor", "0.5", "--out-file", "model.json"],
        None,
    ),
    "brans-parallelism": (
        ["transform", "--model", "brans", "--parallelism", "2", "--out-file", "model.json"],
        None,
    ),
    # 4 * 4000**8 cells overflow the int64 cell codes of the table
    "verify-model-over-cell-cap": (["verify", "input.json"], HUGE_MODEL),
    "mi-model-over-cell-cap": (MI_MODEL_FILE, HUGE_MODEL),
    "verify-model-wide-outcomes": (["verify", "input.json"], WIDE_OUTCOME_MODEL),
    # numpy refuses this grid up front; a value nearer the cap would allocate it
    "mi-panels-huge": (
        ["mutual-info", "--target", "tb-uniform", "--panels", str(10**13)], None
    ),
    # nesting deeper than the interpreter's recursion limit, or a label deeper
    # than the label cap, would end in a RecursionError traceback
    "settings-nested-too-deep": (
        SIMULATE + ["--settings-file", "input.json"],
        '{"alice_settings": ' + _nested(100_000) + ', "bob_settings": [[0.0, 0.0, 1.0]]}',
    ),
    # json.dumps refuses an integer this long, and json.loads raises a
    # ValueError that is not a JSONDecodeError
    "p-xy-huge-integer": (
        SIMULATE + ["--input-dist-file", "input.json"],
        '{"p_xy": [[' + "1" * 5000 + ', 0], [0, 0]]}',
    ),
    # every file flag and verify's model file are read as UTF-8
    "settings-not-utf8": (SIMULATE + ["--settings-file", "input.json"], b"\xff\xfe{}"),
    "verify-not-utf8": (["verify", "input.json"], b"\xff\xfe{}"),
    # an empty path is a path to read, not a flag left unset
    "settings-file-empty-path": (SIMULATE + ["--settings-file", ""], None),
    "input-dist-file-empty-path": (SIMULATE + ["--input-dist-file", ""], None),
    "corr-file-empty-path": (
        ["transform", "--model", "brans", "--corr-file", "", "--out-file", "model.json"],
        None,
    ),
    "model-file-empty-path": (
        ["mutual-info", "--target", "exact-model-file", "--model-file", ""], None
    ),
    "out-file-empty-path": (["transform", "--model", "brans", "--out-file", ""], None),
    # no variables: no cell codes to build the table from
    "model-no-variables": (["verify", "input.json"], {"variables": [], "weights": [1.0]}),
    "mi-model-no-variables": (MI_MODEL_FILE, {"variables": [], "weights": [1.0]}),
    "model-label-nested-900": (["verify", "input.json"], DEEP_LABEL_MODEL),
    "witness-label-nested-400": (["verify", "input.json"], DEEP_WITNESS_MODEL),
    "broadcast-over-support-cap": (
        ["transform", "--model", "input-broadcast", "--settings-file", "input.json",
         "--out-file", "model.json"],
        FOUR_BY_FOUR,
    ),
    # variable and hidden names are JSON strings; str() used to turn these
    # into variables called "5", "None" and "[[[..."
    "model-numeric-name": (
        ["verify", "input.json"],
        {**{k: v for k, v in LOCAL_MODEL.items() if k != "hidden_variables"},
         "variables": LOCAL_MODEL["variables"][:4] + [{**LOCAL_MODEL["variables"][4], "name": 5}]},
    ),
    "model-null-hidden-name": (
        ["verify", "input.json"],
        {**LOCAL_MODEL, "hidden_variables": [None],
         "variables": LOCAL_MODEL["variables"][:4]
         + [{**LOCAL_MODEL["variables"][4], "name": "None"}]},
    ),
    "model-nested-name": (["verify", "input.json"], NESTED_NAME_MODEL),
    # an object label is unhashable, so it would reach the table as a TypeError
    "model-object-label": (
        ["verify", "input.json"],
        {
            "variables": [
                {"name": "a", "labels": [{"k": 1}, -1], "codes": [1]},
                {"name": "b", "labels": [1, -1], "codes": [0]},
                {"name": "x", "labels": [0], "codes": [0]},
                {"name": "y", "labels": [0], "codes": [0]},
                {"name": "lam", "labels": [0], "codes": [0]},
            ],
            "weights": [1.0],
        },
    ),
    # each code column holds one JSON integer per weight, inside its label
    # range; numpy would turn true and 1.0 into the code 1
    "model-bool-code": (["verify", "input.json"], local_model_with_lam_codes([0, True])),
    "model-float-code": (["verify", "input.json"], local_model_with_lam_codes([0, 1.0])),
    "model-negative-code": (["verify", "input.json"], local_model_with_lam_codes([-1, 1])),
    "model-code-at-label-count": (["verify", "input.json"], local_model_with_lam_codes([0, 2])),
    "model-code-past-int64": (["verify", "input.json"], local_model_with_lam_codes([0, 2**64])),
    "model-short-code-column": (["verify", "input.json"], local_model_with_lam_codes([0])),
    "model-missing-codes": (
        ["verify", "input.json"],
        {**LOCAL_MODEL,
         "variables": LOCAL_MODEL["variables"][:4] + [{"name": "lam", "labels": [1, -1]}]},
    ),
    # the layout before code columns: regenerate such a file with transform
    "model-row-layout": (["verify", "input.json"], row_payload(LOCAL_MODEL)),
    # a sampled model's descriptor holds no table to verify or price
    "verify-sampled-descriptor": (["verify", "input.json"], TB_DESCRIPTOR),
    "mi-sampled-descriptor": (MI_MODEL_FILE, TB_DESCRIPTOR),
    # a file whose top-level value is not an object has no fields to read
    "model-top-level-array": (["verify", "input.json"], [LOCAL_MODEL]),
    "settings-top-level-array": (SIMULATE + ["--settings-file", "input.json"], [1, 2]),
    "input-dist-top-level-array": (SIMULATE + ["--input-dist-file", "input.json"], [1, 2]),
    "corr-top-level-array": (
        ["transform", "--model", "brans", "--corr-file", "input.json",
         "--out-file", "model.json"],
        [1, 2],
    ),
    # the error line names the cell's position, not its 2 000-character repr
    "corr-cell-nested-980": (
        ["transform", "--model", "brans", "--corr-file", "input.json",
         "--out-file", "model.json"],
        DEEP_CELL_CORR,
    ),
    "corr-no-cells": (
        ["transform", "--model", "brans", "--corr-file", "input.json",
         "--out-file", "model.json"],
        {k: v for k, v in ONE_CELL.items() if k != "cells"},
    ),
    # NaN and Infinity are no JSON numbers; the writer never writes them
    "model-nan-label": (
        ["verify", "input.json"],
        {**LOCAL_MODEL, "variables": LOCAL_MODEL["variables"][:2]
         + [{"name": "x", "labels": [math.nan, 0], "codes": [0, 1]}]
         + LOCAL_MODEL["variables"][3:]},
    ),
    "model-infinity-weight": (
        ["verify", "input.json"], {**LOCAL_MODEL, "weights": [math.inf, 0.5]}
    ),
    # literals past the float64 range would load as inf; raw text, since
    # json.dumps writes an infinite float as Infinity
    "model-overflowing-label": (
        ["verify", "input.json"],
        json.dumps(LOCAL_MODEL).replace('"x", "labels": [0]', '"x", "labels": [1e999]'),
    ),
    "p-xy-overflowing-float": (
        SIMULATE + ["--input-dist-file", "input.json"],
        '{"p_xy": [[' + "1" * 400 + '.0, 0], [0, 0]]}',
    ),
    # the readers scan the values they keep, not each literal as it is
    # parsed: a nested label, a weight, a settings vector, a settings file's
    # p_xy and a correlation cell, each overflowing to +inf or -inf
    "model-overflowing-nested-label": (
        ["verify", "input.json"],
        json.dumps(LOCAL_MODEL).replace(
            '"lam", "labels": [1, -1]', '"lam", "labels": [[1, -1e999], -1]'
        ),
    ),
    "model-overflowing-weight": (
        ["verify", "input.json"],
        json.dumps(LOCAL_MODEL).replace('"weights": [0.5, 0.5]', '"weights": [-1e999, 0.5]'),
    ),
    "settings-overflowing-literal": (
        SIMULATE + ["--settings-file", "input.json"],
        '{"alice_settings": [[-1e999, 0.0, 0.0]], "bob_settings": [[0.0, 0.0, 1.0]]}',
    ),
    "settings-p-xy-overflowing-literal": (
        SIMULATE + ["--settings-file", "input.json"],
        '{"alice_settings": [[1.0, 0.0, 0.0]], "bob_settings": [[0.0, 0.0, 1.0]], '
        '"p_xy": [[1e999]]}',
    ),
    "corr-overflowing-literal": (
        ["transform", "--model", "brans", "--corr-file", "input.json",
         "--out-file", "model.json"],
        json.dumps(ONE_CELL).replace('"pp": 0.25', '"pp": -1e999'),
    ),
    # a hidden name that is an outcome or a setting, or that repeats, would
    # price the model as I(x,y:a) or I(x,y:lam,b)
    "model-outcome-hidden": (
        ["verify", "input.json"],
        {"variables": LOCAL_MODEL["variables"][:4], "weights": [0.5, 0.5],
         "hidden_variables": ["a"]},
    ),
    "model-duplicate-hidden": (
        ["verify", "input.json"], {**LOCAL_MODEL, "hidden_variables": ["lam", "lam"]}
    ),
    "input-dist-malformed": (SIMULATE + ["--input-dist-file", "input.json"], "{nope"),
    "model-duplicate-variable": (
        ["verify", "input.json"],
        {"variables": LOCAL_MODEL["variables"][:4] + [{**LOCAL_MODEL["variables"][4], "name": "a"}],
         "weights": [0.5, 0.5]},
    ),
    # 1 == 1.0 and both hash alike, so the two labels are one
    "model-duplicate-labels": (
        ["verify", "input.json"],
        {**LOCAL_MODEL, "variables": LOCAL_MODEL["variables"][:4]
         + [{**LOCAL_MODEL["variables"][4], "labels": [1, 1.0]}]},
    ),
    "model-empty-labels": (
        ["verify", "input.json"],
        {"variables": [{"name": n, "labels": [] if n == "lam" else [0], "codes": []}
                       for n in ("a", "b", "x", "y", "lam")],
         "weights": []},
    ),
    "corr-negative-probability": (
        ["transform", "--model", "brans", "--corr-file", "input.json",
         "--out-file", "model.json"],
        {**ONE_CELL,
         "cells": [{"x": 0, "y": 0, "pp": -0.25, "pm": 0.75, "mp": 0.25, "mm": 0.25}]},
    ),
    "settings-three-dimensional": (
        SIMULATE + ["--settings-file", "input.json"],
        {"alice_settings": [[[0.0, 0.0, 1.0]]], "bob_settings": [[0.0, 0.0, 1.0]]},
    ),
    # squaring 1e300 would overflow, and under -W error turn into exit 1
    "settings-overflowing-component": (
        SIMULATE + ["--settings-file", "input.json"],
        {"alice_settings": [[1e300, 0.0, 0.0]], "bob_settings": [[0.0, 0.0, 1.0]]},
    ),
    # summing these would overflow the same way
    "p-xy-overflowing-sum": (
        SIMULATE + ["--input-dist-file", "input.json"],
        {"p_xy": [[1.7e308, 1.7e308], [0.25, 0.25]]},
    ),
    "corr-overflowing-sum": (
        ["transform", "--model", "brans", "--corr-file", "input.json",
         "--out-file", "model.json"],
        {**ONE_CELL,
         "cells": [{"x": 0, "y": 0, "pp": 1.7e308, "pm": 1.7e308, "mp": 0.25, "mm": 0.25}]},
    ),
    # arrays of different lengths, which numpy refuses in several lines
    "settings-ragged": (
        SIMULATE + ["--settings-file", "input.json"],
        {"alice_settings": [[0.0, 1.0], [1.0, 0.0, 0.0]], "bob_settings": [[0.0, 0.0, 1.0]]},
    ),
    "p-xy-ragged": (
        SIMULATE + ["--input-dist-file", "input.json"],
        {"p_xy": [[0.5], [0.25, 0.25]]},
    ),
    "corr-list-probability": (
        ["transform", "--model", "brans", "--corr-file", "input.json",
         "--out-file", "model.json"],
        {**ONE_CELL,
         "cells": [{"x": 0, "y": 0, "pp": [0.25, 0.1], "pm": 0.25, "mp": 0.25, "mm": 0.25}]},
    ),
    # a key listed twice would let its last value win silently, at the top
    # level of a file or inside a nested object
    "settings-duplicate-key": (
        SIMULATE + ["--settings-file", "input.json"],
        '{"alice_settings": [[0.0, 0.0, 1.0]], "bob_settings": [[0.0, 0.0, 1.0]], '
        '"alice_settings": [[1.0, 0.0, 0.0]]}',
    ),
    "corr-duplicate-key": (
        ["transform", "--model", "brans", "--corr-file", "input.json",
         "--out-file", "model.json"],
        json.dumps(ONE_CELL).replace('"pp": 0.25', '"pp": 0.25, "pp": 0.5'),
    ),
    "model-duplicate-key": (
        ["verify", "input.json"],
        json.dumps(LOCAL_MODEL).replace('"name": "lam"', '"name": "lam", "name": "x"'),
    ),
    # refused by argparse itself: a value it cannot convert, a choice it
    # does not know
    "rounds-empty": (["simulate", "--model", "tb", "--rounds", ""], None),
    "model-unknown": (["simulate", "--model", "tbx"], None),
    # the error names the flag's word, not an internal parameter
    "samples-below-floor": (["mutual-info", "--target", "tb-finite", "--samples", "5"], None),
}
# case -> words its error line must hold, where the cause is easy to misname
BAD_INPUT_WORDING = {
    "rounds-empty": "error: argument --rounds: invalid int value: ''",
    "model-unknown": "error: argument --model: invalid choice: 'tbx'",
    "samples-below-floor": "error: samples must be >= 1000, got 5",
    **{f"{cmd}-parallelism-{n}": f"parallelism must lie in [1, 64], got {n}"
       for cmd in ("mi-tb-finite", "tb", "gg") for n in (0, 65)},
    "mi-tb-uniform-parallelism": "mutual-info --target tb-uniform does not read --parallelism",
    "brans-parallelism": "transform --model brans does not read --parallelism",
    "corr-no-cells": "cells are missing",
    "model-top-level-array": "model file: must be a JSON object, got list",
    "settings-top-level-array": "settings file: must be a JSON object, got list",
    "input-dist-top-level-array": "input-dist file: must be a JSON object, got list",
    "corr-top-level-array": "correlation file: must be a JSON object, got list",
    "verify-sampled-descriptor": "sampled-model descriptor",
    "mi-sampled-descriptor": "sampled-model descriptor",
    "model-nan-label": "model file: invalid JSON: non-finite number NaN",
    "model-infinity-weight": "model file: invalid JSON: non-finite number Infinity",
    "nan-settings": "settings file: invalid JSON: non-finite number NaN",
    "nan-p-xy": "input-dist file: invalid JSON: non-finite number NaN",
    "input-dist-malformed": "input-dist file: invalid JSON: Expecting property name",
    "model-overflowing-label": "model file: invalid JSON: number literal overflows float64",
    "p-xy-overflowing-float": "input-dist file: invalid JSON: number literal overflows float64",
    "model-overflowing-nested-label": "model file: invalid JSON: number literal overflows float64",
    "model-overflowing-weight": "model file: invalid JSON: number literal overflows float64",
    "settings-overflowing-literal": "settings file: invalid JSON: number literal overflows float64",
    "settings-p-xy-overflowing-literal": (
        "settings file: invalid JSON: number literal overflows float64"
    ),
    "corr-overflowing-literal": "correlation file: invalid JSON: number literal overflows float64",
    "model-outcome-hidden": "hidden variables ['a'] must be distinct and none of a, b, x, y",
    "model-duplicate-hidden": "hidden variables ['lam', 'lam'] must be distinct and none of",
    "model-duplicate-variable": "duplicate variable names in ('a', 'b', 'x', 'y', 'a')",
    "model-duplicate-labels": "variable 'lam' has duplicate labels",
    "model-empty-labels": "variable 'lam' has an empty alphabet",
    "corr-negative-probability": "negative probability in conditional table",
    "settings-three-dimensional": "settings must be arrays of shape (n, 3)",
    "settings-overflowing-component": "a component is not finite or exceeds 2",
    "p-xy-overflowing-sum": "weight above 1 in distribution",
    "corr-overflowing-sum": "probability above 1 in conditional table",
    "settings-ragged": "settings file: bad or missing settings or p_xy (alice_settings is a ragged",
    "p-xy-ragged": "input-dist file: bad or missing p_xy (p_xy is a ragged array)",
    "corr-list-probability": "correlation file: bad cell at position 0 (TypeError: pp, pm, mp",
    "settings-duplicate-key": "settings file: invalid JSON: duplicate key 'alice_settings'",
    "corr-duplicate-key": "correlation file: invalid JSON: duplicate key 'pp'",
    "model-duplicate-key": "model file: invalid JSON: duplicate key 'name'",
    "settings-file-empty-path": "settings file: No such file or directory",
    "input-dist-file-empty-path": "input-dist file: No such file or directory",
    "corr-file-empty-path": "correlation file: No such file or directory",
    "model-file-empty-path": "model file: No such file or directory",
    "out-file-empty-path": "--out-file: No such file or directory",
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_one_error_line(tmp_path, case):
    argv, payload = BAD_INPUTS[case]
    if payload is not None:
        # json.dumps writes NaN and Infinity as they are, which the readers refuse
        if isinstance(payload, bytes):
            (tmp_path / "input.json").write_bytes(payload)
        else:
            text = payload if isinstance(payload, str) else json.dumps(payload)
            (tmp_path / "input.json").write_text(text)
    code, out, err = run_cli(argv, cwd=tmp_path)
    assert code == 2, err
    assert out == b""
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert len(lines[0]) < 200, err
    assert BAD_INPUT_WORDING.get(case, "") in lines[0], err


def test_internal_inconsistency_exits_3(monkeypatch):
    # a quadrature that disagrees with the closed form by more than GG_CHECK_TOL
    check = analysis.mi_gg_quadrature
    monkeypatch.setattr(
        analysis, "mi_gg_quadrature",
        lambda: dataclasses.replace(check(), value=check().value + 1e-6),
    )
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["mutual-info", "--target", "gg-uniform"])
    assert code == cli.EXIT_INTERNAL == 3
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: quadrature "), lines


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


def test_file_errors_name_the_kind_under_a_long_path(tmp_path):
    # the error line names the file kind, so a long path cannot stretch it
    long_dir = tmp_path / ("d" * 150)
    long_dir.mkdir()
    (long_dir / "input.json").write_bytes(b"\xff\xfe{}")
    cases = {
        "input-dist file: not UTF-8 text": (
            SIMULATE + ["--input-dist-file", str(long_dir / "input.json")]
        ),
        "model file: No such file or directory": ["verify", str(long_dir / "missing.json")],
        "--out-file: No such file or directory": (
            SIMULATE + ["--out-file", str(long_dir / "missing" / "out.json")]
        ),
        "model file: Is a directory": ["verify", str(long_dir)],
    }
    for wording, argv in cases.items():
        code, out, err = run_cli(argv, cwd=long_dir)
        assert (code, out) == (2, b""), err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert len(lines[0]) < 200 and wording in lines[0], err


# ----------------------------------------------------------------------
# the table of the flags each mode reads
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def seed_paths(tmp_path_factory):
    return fuzz_inputs.seed_paths(tmp_path_factory.mktemp("walk"))


def test_every_flag_is_read_by_some_mode():
    # a flag added to the parser with no row in cli.READS fails here
    for command, flags in fuzz_inputs.command_flags().items():
        read = {fuzz_inputs.flag(dest)
                for (cmd, _), reads in cli.READS.items() if cmd == command for dest in reads}
        assert set(flags) <= read & set(fuzz_inputs.FLAG_VALUES), (command, flags)


@pytest.mark.parametrize("command, mode", list(cli.READS))
def test_each_mode_reads_its_flags_and_refuses_the_rest(seed_paths, command, mode):
    reads = {fuzz_inputs.flag(dest): default
             for dest, default in cli.READS[command, mode].items()}
    flags = fuzz_inputs.command_flags()[command]
    required = [f for f in flags if reads.get(f) is cli.REQUIRED]
    base = [command] + fuzz_inputs.mode_args(command, mode)
    for name in required + [f for f in fuzz_inputs.COSTLY if f in reads]:
        base += [name, fuzz_inputs.FLAG_VALUES[name][0]]

    def run(argv):
        code, out, err = fuzz_inputs.run([seed_paths.get(a, a) for a in argv])
        assert code == 0 or (out == "" and len(err.splitlines()) == 1
                             and err.startswith("error: ") and len(err) < 200), (argv, err)
        return code, err

    where = " ".join(base[:3])  # the command and its mode; verify refuses nothing
    for name in flags:
        code, err = run(base + [name, fuzz_inputs.FLAG_VALUES[name][0]])
        if name in reads:
            assert code == 0, (name, err)
        else:
            assert code == 2 and f"{where} does not read {name}" in err, (name, err)
    for name in required:
        without = base[:base.index(name)] + base[base.index(name) + 2:]
        assert run(without) == (2, f"error: {where} needs {name}\n")
    for first, second in cli.EXCLUSIVE:
        pair = [fuzz_inputs.flag(first), fuzz_inputs.flag(second)]
        if set(pair) <= reads.keys():
            argv = base + [arg for f in pair for arg in (f, fuzz_inputs.FLAG_VALUES[f][0])]
            assert run(argv) == (2, f"error: {pair[0]} and {pair[1]} are mutually exclusive\n")


# ----------------------------------------------------------------------
# one parser per process
# ----------------------------------------------------------------------

def _main_in_process(argv):
    """(exit code, stdout) of ``cli.main(argv)``, with argparse's exits caught."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def test_main_builds_one_parser_per_process(monkeypatch):
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert _main_in_process(["mutual-info", "--target", "gg-uniform"])[0] == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def test_reused_parser_applies_the_defaults_again():
    argv = ["simulate", "--model", "tb", "--rounds", "100"]
    code, out = _main_in_process(argv + ["--seed", "7"])
    assert code == 0 and json.loads(out)["seed"] == 7
    code, out = _main_in_process(argv)
    assert code == 0 and json.loads(out)["seed"] == 0


def test_main_runs_the_current_command_function(monkeypatch):
    assert _main_in_process(["verify", SIGNALING])[0] == cli.EXIT_VERIFY_FAILED
    seen = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args.tol) or 42)
    assert _main_in_process(["verify", SIGNALING, "--tol", "0.5"])[0] == 42
    assert seen == [0.5]


@pytest.mark.parametrize("command", [[], ["simulate"], ["mutual-info"], ["transform"],
                                     ["verify"]])
def test_reused_parser_help_matches_a_fresh_parser(command):
    argv = command + ["--help"]
    for _ in range(2):  # the second call reads the parser the first one left
        code, text = _main_in_process(argv)
        assert code == 0
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
            cli.build_parser().parse_args(argv)
        assert text == out.getvalue() != ""


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
        code = cli.main(argv)
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
