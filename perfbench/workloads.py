"""The benchmark's workloads: seeded input files, command lists and checks.

Every input file is generated from the workload seed, and every ``--seed``
passed to the program is derived from it.  One pass over a workload runs
its command list once, in order; a command fails when its exit code is not
0 or its output fails the check attached to it.  README.md in this
directory says why each workload exists.

Setting alphabets are independent random draws for Alice and Bob.
Identical alphabets on both sides make ``exact_singlet_conditional`` raise
"negative probability" (ROADMAP item 3); the inputs neither trigger nor
avoid that on purpose, and fixing it is item 3's job.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

# Problem sizes; changing one changes the benchmark.
SIM_ROUNDS = 1_000_000
REPORT_ROUNDS = 200_000
TB_FINITE_SAMPLES = 1_000_000
WIDE_SIZE = 32
SWEEP_SIZES = (8, 16, 24)

# Output checks.  Sampled reports at REPORT_ROUNDS have probability
# standard errors near 0.003, so 0.02 is more than six of them.
SAMPLED_DEV_MAX = 0.02
# Per-cell correlator z-score limit on the 1 024-cell table, with the
# standard error taken from the quantum prediction.
WIDE_Z_MAX = 6.0
EXACT_ATOL = 1e-9

Check = Callable[[str, dict], Optional[str]]

# Per-command metrics printed by the untraced run: command tag ->
# (metric, unit, "rate" = work per median second, or "sum" = median
# seconds per pass summed over the tag's commands).
COMMAND_METRICS = {
    "tb_p1": ("tb_rounds_per_s", "rounds/s", "rate"),
    "tb_p2": ("tb_rounds_per_s_p2", "rounds/s", "rate"),
    "gg": ("gg_rounds_per_s", "rounds/s", "rate"),
    "mi_tb_finite": ("mi_samples_per_s", "samples/s", "rate"),
    "transform_brans": ("transform_brans_s", "s", "sum"),
    "verify": ("verify_s", "s", "sum"),
    "mi_exact": ("mi_exact_s", "s", "sum"),
}


@dataclass
class Command:
    """One CLI invocation: argv for bellmi.cli.main, plus what to check."""

    tag: str
    argv: list
    check: Check
    work: int = 0  # rounds or samples, for rates


@dataclass
class Workload:
    name: str
    commands: list
    reference: str  # kernel in reference.py timed before each command
    inputs: dict = field(default_factory=dict)


def _program_seeds(seed: int, n: int) -> list:
    return [int(v) for v in np.random.SeedSequence([seed, 1]).generate_state(n)]


def _unit_vectors(gen: np.random.Generator, n: int) -> np.ndarray:
    v = gen.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _entropy_bits(p: np.ndarray) -> float:
    q = p[p > 0.0]
    return float(-(q * np.log2(q)).sum())


# ----------------------------------------------------------------------
# checks: each returns None when the output is right, else a reason
# ----------------------------------------------------------------------

def _json(out: str) -> dict:
    return json.loads(out)


def _deviations_ok(out: str, seen: dict) -> Optional[str]:
    payload = _json(out)
    if payload["rounds"] != SIM_ROUNDS:
        return f"rounds {payload['rounds']} != {SIM_ROUNDS}"
    if payload.get("deviations_ok") is not True:
        return "deviations_ok is not true"
    return None


def _same_bytes_as(tag: str) -> Check:
    def check(out: str, seen: dict) -> Optional[str]:
        if tag not in seen:
            return f"no output from {tag} to compare with"
        return None if out == seen[tag] else f"output bytes differ from {tag}"
    return check


def _wide_cells_ok(out: str, seen: dict) -> Optional[str]:
    payload = _json(out)
    if payload["rounds"] != SIM_ROUNDS:
        return f"rounds {payload['rounds']} != {SIM_ROUNDS}"
    worst = 0.0
    for cell in payload["cells"]:
        if cell["empty"]:
            return f"cell ({cell['x']}, {cell['y']}) is empty"
        q = cell["quantum_e"]
        se = math.sqrt(max(1.0 - q * q, 1e-12) / cell["n"])
        worst = max(worst, abs(cell["e"] - q) / se)
    return None if worst <= WIDE_Z_MAX else f"worst cell |z| = {worst:.2f} > {WIDE_Z_MAX}"


def _sampled_report_ok(want_bound: Optional[float], rate: Optional[tuple]) -> Check:
    def check(out: str, seen: dict) -> Optional[str]:
        rep = _json(out)
        if not rep["corr_deviation"] <= SAMPLED_DEV_MAX:
            return f"corr_deviation {rep['corr_deviation']} > {SAMPLED_DEV_MAX}"
        if not rep["inputs_deviation"] <= SAMPLED_DEV_MAX:
            return f"inputs_deviation {rep['inputs_deviation']} > {SAMPLED_DEV_MAX}"
        if rep["mi_bound"] != want_bound:
            return f"mi_bound {rep['mi_bound']} != {want_bound}"
        if rate is not None:
            got = rep["extras"]["acceptance_rate"]
            if not rate[0] < got < rate[1]:
                return f"acceptance_rate {got} outside {rate}"
        return None
    return check


def _tb_uniform_ok(out: str, seen: dict) -> Optional[str]:
    value = _json(out)["value"]  # acceptance criterion 2
    return None if abs(value - 0.85) <= 0.02 else f"tb-uniform {value} not 0.85 +/- 0.02"


def _gg_uniform_ok(out: str, seen: dict) -> Optional[str]:
    value = _json(out)["value"]  # acceptance criterion 3
    closed = 1.0 - 1.0 / (2.0 * math.log(2.0))
    if abs(value - closed) >= 1e-15 or abs(value - 0.28) > 0.01:
        return f"gg-uniform {value} is not 1 - 1/(2 ln 2)"
    return None


def _tb_finite_ok(out: str, seen: dict) -> Optional[str]:
    est = _json(out)  # acceptance criterion 8: I <= 1 + 3 sigma
    if est["method"] != "monte-carlo" or not 0.0 < est["value"] <= 1.0 + 3 * est["uncertainty"]:
        return f"tb-finite {est['value']} +/- {est['uncertainty']} outside (0, 1 + 3 sigma]"
    return None


def _brans_report_ok(h_xy: float, support: int) -> Check:
    def check(out: str, seen: dict) -> Optional[str]:
        rep = _json(out)
        if not (rep["corr_deviation"] <= EXACT_ATOL and rep["inputs_deviation"] <= EXACT_ATOL):
            return f"brans deviations {rep['corr_deviation']}, {rep['inputs_deviation']}"
        if abs(rep["mi_value"] - h_xy) > EXACT_ATOL:
            return f"brans report I = {rep['mi_value']} != H(x,y) = {h_xy}"
        if rep["extras"]["lambda_support"] != support:
            return f"lambda support {rep['extras']['lambda_support']} != {support}"
        return None
    return check


def _verify_ok(out: str, seen: dict) -> Optional[str]:
    rep = _json(out)
    if rep["ok"] is not True or rep["max_deviation"] != 0.0:
        return f"verify ok={rep['ok']} max_deviation={rep['max_deviation']}"
    return None


def _mi_equals(h_xy: float) -> Check:
    def check(out: str, seen: dict) -> Optional[str]:
        est = _json(out)
        if est["method"] != "exact" or abs(est["value"] - h_xy) > EXACT_ATOL:
            return f"exact I = {est['value']} != H(x,y) = {h_xy}"
        return None
    return check


def _broadcast_ok(out: str, seen: dict) -> Optional[str]:
    rep = _json(out)  # acceptance criterion 4
    if rep["corr_deviation"] != 0.0 or rep["inputs_deviation"] != 0.0:
        return "input-broadcast deviations are not exactly 0"
    if rep["mi_bound"] != 1.0 or not rep["mi_value"] <= rep["mi_bound"]:
        return f"I = {rep['mi_value']} vs H(m) = {rep['mi_bound']}"
    return None


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

def _mc_chsh(seed: int, work_dir: str) -> Workload:
    s = _program_seeds(seed, 4)
    sim = ["simulate", "--preset", "chsh", "--rounds", str(SIM_ROUNDS)]
    tb = sim + ["--model", "tb", "--seed", str(s[0])]
    rep = ["transform", "--preset", "chsh", "--rounds", str(REPORT_ROUNDS)]
    commands = [
        Command("tb_p1", tb + ["--parallelism", "1"], _deviations_ok, work=SIM_ROUNDS),
        Command("tb_p2", tb + ["--parallelism", "2"], _same_bytes_as("tb_p1"), work=SIM_ROUNDS),
        Command("gg", sim + ["--model", "gg", "--seed", str(s[1])], _deviations_ok,
                work=SIM_ROUNDS),
        Command("transform_tb",
                rep + ["--model", "tb", "--seed", str(s[2]),
                       "--out-file", os.path.join(work_dir, "tb-model.json")],
                _sampled_report_ok(1.0, None)),
        Command("transform_gg",
                rep + ["--model", "gg", "--seed", str(s[3]),
                       "--out-file", os.path.join(work_dir, "gg-model.json")],
                _sampled_report_ok(None, (0.45, 0.55))),
        Command("mi_tb_uniform", ["mutual-info", "--target", "tb-uniform"], _tb_uniform_ok),
        Command("mi_gg_uniform", ["mutual-info", "--target", "gg-uniform"], _gg_uniform_ok),
    ]
    return Workload("mc-chsh", commands, "vec", {"program_seeds": s})


def _mc_wide(seed: int, work_dir: str) -> Workload:
    gen = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    n = WIDE_SIZE
    settings = os.path.join(work_dir, "wide-settings.json")
    dist = os.path.join(work_dir, "wide-p_xy.json")
    _write_json(settings, {
        "alice_settings": _unit_vectors(gen, n).tolist(),
        "bob_settings": _unit_vectors(gen, n).tolist(),
    })
    # Log-normal cell weights: non-uniform, and not a product of marginals.
    w = np.exp(0.7 * gen.standard_normal((n, n)))
    _write_json(dist, {"p_xy": (w / w.sum()).tolist()})
    s = _program_seeds(seed, 2)
    files = ["--settings-file", settings, "--input-dist-file", dist]
    tb = ["simulate", "--model", "tb", "--rounds", str(SIM_ROUNDS), "--seed", str(s[0])] + files
    commands = [
        Command("tb_p1", tb + ["--parallelism", "1"], _wide_cells_ok, work=SIM_ROUNDS),
        Command("tb_p2", tb + ["--parallelism", "2"], _same_bytes_as("tb_p1"), work=SIM_ROUNDS),
        Command("mi_tb_finite",
                ["mutual-info", "--target", "tb-finite", "--samples", str(TB_FINITE_SAMPLES),
                 "--seed", str(s[1])] + files,
                _tb_finite_ok, work=TB_FINITE_SAMPLES),
    ]
    inputs = {"program_seeds": s, "alphabet": [n, n]}
    return Workload("mc-wide", commands, "vec", inputs)


def _exact_sweep(seed: int, work_dir: str) -> Workload:
    gen = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    s = _program_seeds(seed, len(SWEEP_SIZES))
    commands = []
    for n, prog_seed in zip(SWEEP_SIZES, s):
        settings = os.path.join(work_dir, f"brans-{n}-settings.json")
        model = os.path.join(work_dir, f"brans-{n}-model.json")
        _write_json(settings, {
            "alice_settings": _unit_vectors(gen, n).tolist(),
            "bob_settings": _unit_vectors(gen, n).tolist(),
        })
        h_xy = _entropy_bits(np.full(n * n, 1.0 / (n * n)))  # uniform p_xy
        commands += [
            Command("transform_brans",
                    ["transform", "--model", "brans", "--settings-file", settings,
                     "--seed", str(prog_seed), "--out-file", model],
                    _brans_report_ok(h_xy, 4 * n * n)),
            Command("verify", ["verify", model], _verify_ok),
            Command("mi_exact",
                    ["mutual-info", "--target", "exact-model-file", "--model-file", model],
                    _mi_equals(h_xy)),
        ]
    commands.append(Command(
        "transform_broadcast",
        ["transform", "--model", "input-broadcast", "--corr", "pr-box", "--preset", "chsh",
         "--out-file", os.path.join(work_dir, "broadcast-model.json")],
        _broadcast_ok,
    ))
    inputs = {"program_seeds": s, "alphabets": list(SWEEP_SIZES)}
    return Workload("exact-sweep", commands, "interp", inputs)


BUILDERS = {"mc-chsh": _mc_chsh, "mc-wide": _mc_wide, "exact-sweep": _exact_sweep}


def build(name: str, seed: int, work_dir: str) -> Workload:
    """Write the workload's input files into work_dir and list its commands."""
    return BUILDERS[name](seed, work_dir)


def working_set(name: str) -> dict:
    """Computed working-set sizes in bytes, from array shapes."""
    from bellmi.analysis import CHUNK_ROUNDS

    vec = 3 * 8
    if name == "exact-sweep":
        return {f"dense_table_n{n}": 16 * n**4 * 8 for n in SWEEP_SIZES}
    out = {"chunk_vectors": CHUNK_ROUNDS * 4 * vec}  # xs, ys, l1, l2 per chunk
    if name == "mc-wide":
        out["tb_finite_vectors"] = TB_FINITE_SAMPLES * 2 * vec  # l1, l2
    return out
