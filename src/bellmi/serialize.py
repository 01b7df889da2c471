"""Deterministic serialization of tables, models, and reports.

JSON is the authoritative format.  Field names and orders are fixed, floats
are written as decimals with 17 significant digits (enough to round-trip
float64 exactly), and nothing time- or host-dependent is ever emitted, so
identical inputs produce identical bytes.  The stdlib encoder cannot format
floats per value, hence the small recursive writer here.

Schemas:

- correlation table: ``{"alice_settings": [[x,y,z]...], "bob_settings":
  [[x,y,z]...], "p_xy": [[...]], "cells": [{"x", "y", "pp", "pm", "mp",
  "mm", "n", ...}...]}`` plus estimation extras per cell.
- finite model: ``{"variables": [{"name", "labels"}...], "weights":
  [{"assignment": [...], "p": ...}...]}`` plus the hidden-variable names.

Tuples used as labels are written as JSON arrays and restored as tuples on
load.  CSV output is a flat cell-per-row projection of the correlation
table for spreadsheet use.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping, Sequence
from typing import Optional

import numpy as np

from .errors import ConfigError
from .models import ConditionalTable, ExactCSModel, SettingsSpec
from .table import FiniteDistribution


def format_float(x: float) -> str:
    """Decimal with 17 significant digits; round-trips float64 exactly."""
    return "%.17g" % float(x)


def json_text(obj) -> str:
    """Render a payload as deterministic JSON (fixed key order, one line)."""
    return _render(obj) + "\n"


def _render(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, Mapping):
        items = ", ".join(f"{json.dumps(str(k))}: {_render(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, np.ndarray):
        return _render(obj.tolist())
    if isinstance(obj, Sequence):
        return "[" + ", ".join(_render(v) for v in obj) + "]"
    raise ConfigError(f"cannot serialize object of type {type(obj).__name__}")


def parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from None


def _as_label(value):
    """JSON arrays become tuples so labels hash again after a round trip.

    Labels are strings, numbers or arrays of these; anything else raises
    :class:`ValueError`.
    """
    if isinstance(value, list):
        return tuple(_as_label(v) for v in value)
    if type(value) in (str, int, float):  # not bool, null or an object
        return value
    raise ValueError(f"label {value!r} is not a string, number or array of these")


# ----------------------------------------------------------------------
# correlation tables
# ----------------------------------------------------------------------

# A cell's ``ok`` flag allows this many standard errors of |e - quantum_e|.
FLAG_SIGMAS = 4.0


def _vec_rows(arr: np.ndarray) -> list:
    return [[float(v) for v in row] for row in arr]


def correlation_payload(
    est,
    *,
    model: str,
    seed: Optional[int],
    quantum: ConditionalTable,
) -> dict:
    """Payload for an estimated correlation table.

    Each cell carries the estimated conditional probabilities, the kept
    count ``n``, standard errors, the correlator with error, the
    ``quantum`` correlator and an ``ok`` flag (deviation within
    :data:`FLAG_SIGMAS` standard errors).  Empty cells are flagged with
    ``"empty": true``, null estimates and ``"ok": false``.
    """
    spec = est.spec
    cells = []
    all_ok = True
    for x in range(spec.n_alice):
        for y in range(spec.n_bob):
            n = int(est.kept_per_cell[x, y])
            cell = {"x": x, "y": y}
            if n > 0:
                p = est.cell_probs(x, y)
                se = est.cell_prob_se(x, y)
                e = est.correlator(x, y)
                se_e = est.correlator_se(x, y)
                cell.update(
                    pp=float(p[0, 0]), pm=float(p[0, 1]),
                    mp=float(p[1, 0]), mm=float(p[1, 1]),
                    n=n, empty=False,
                    se_pp=float(se[0, 0]), se_pm=float(se[0, 1]),
                    se_mp=float(se[1, 0]), se_mm=float(se[1, 1]),
                    e=e, se_e=se_e,
                )
            else:
                cell.update(
                    pp=None, pm=None, mp=None, mm=None, n=0, empty=True,
                    se_pp=None, se_pm=None, se_mp=None, se_mm=None,
                    e=None, se_e=None,
                )
            q = quantum.correlator(x, y)
            ok = n > 0 and abs(cell["e"] - q) <= FLAG_SIGMAS * max(cell["se_e"], 1e-300)
            cell.update(quantum_e=q, ok=bool(ok))
            all_ok = all_ok and ok
            cells.append(cell)
    payload = {
        "model": model,
        "seed": seed,
        "rounds": int(est.attempts.sum()),
        "alice_settings": _vec_rows(spec.alice_settings),
        "bob_settings": _vec_rows(spec.bob_settings),
        "p_xy": _vec_rows(spec.p_xy),
        "cells": cells,
    }
    if est.post_selected:
        payload["efficiency"] = {
            "alice_per_setting": [float(v) for v in est.alice_efficiency()],
            "bob": est.bob_efficiency(),
        }
    else:
        payload["efficiency"] = None
    payload["deviations_ok"] = bool(all_ok)
    return payload


CSV_COLUMNS = ("x", "y", "pp", "pm", "mp", "mm", "n", "e", "se_e", "quantum_e", "ok")


def correlation_csv(payload: dict) -> str:
    """Flat cell-per-row CSV projection of a correlation payload."""
    lines = [",".join(CSV_COLUMNS)]
    for cell in payload["cells"]:
        row = []
        for col in CSV_COLUMNS:
            v = cell.get(col)
            if v is None:
                row.append("")
            elif isinstance(v, bool):
                row.append("true" if v else "false")
            elif isinstance(v, float):
                row.append(format_float(v))
            else:
                row.append(str(v))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _settings_from_payload(payload: dict, *, where: str) -> SettingsSpec:
    try:
        alice = np.asarray(payload["alice_settings"], dtype=np.float64)
        bob = np.asarray(payload["bob_settings"], dtype=np.float64)
        p_xy = payload.get("p_xy")
        if p_xy is not None:
            p_xy = np.asarray(p_xy, dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: bad or missing settings or p_xy ({exc})") from None
    return SettingsSpec.finite(alice, bob, p_xy)


def load_settings(text: str) -> SettingsSpec:
    """Settings file: alice_settings, bob_settings, optional p_xy."""
    return _settings_from_payload(parse_json(text), where="settings file")


def load_input_dist(text: str) -> np.ndarray:
    """Input-distribution file: {"p_xy": [[...]]}."""
    payload = parse_json(text)
    try:
        return np.asarray(payload["p_xy"], dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"input-dist file: bad or missing p_xy ({exc})") from None


def load_correlation(text: str):
    """Correlation-table file; returns (SettingsSpec, ConditionalTable).

    Every (x, y) cell must be present with its pp/pm/mp/mm conditional
    probabilities, listed once, and indexed by JSON integers.
    """
    payload = parse_json(text)
    spec = _settings_from_payload(payload, where="correlation file")
    probs = np.full((spec.n_alice, spec.n_bob, 2, 2), np.nan)
    seen = set()
    cells = payload.get("cells", ())
    if not isinstance(cells, list):
        raise ConfigError(f"correlation file: cells must be a list, got {cells!r}")
    for cell in cells:
        try:
            x, y = cell["x"], cell["y"]
            if not all(type(v) is int for v in (x, y)):
                raise TypeError("cell indices must be JSON integers")
            if not (0 <= x < spec.n_alice and 0 <= y < spec.n_bob):
                raise IndexError(
                    f"cell index outside [0, {spec.n_alice}) x [0, {spec.n_bob})"
                )
            if (x, y) in seen:
                raise ValueError("cell listed twice")
            seen.add((x, y))
            probs[x, y, 0, 0] = float(cell["pp"])
            probs[x, y, 0, 1] = float(cell["pm"])
            probs[x, y, 1, 0] = float(cell["mp"])
            probs[x, y, 1, 1] = float(cell["mm"])
        except (KeyError, TypeError, ValueError, OverflowError, IndexError) as exc:
            raise ConfigError(f"correlation file: bad cell {cell!r} ({exc})") from None
    if np.any(np.isnan(probs)):
        raise ConfigError("correlation file: some (x, y) cells are missing")
    return spec, ConditionalTable(probs)


# ----------------------------------------------------------------------
# finite models
# ----------------------------------------------------------------------

def model_payload(model: ExactCSModel) -> dict:
    """Payload for an exact correlated-settings model."""
    table = model.table
    variables = [
        {"name": name, "labels": list(table.labels(name))}
        for name in table.variables
    ]
    weights = [
        {"assignment": list(assignment), "p": p}
        for assignment, p in table.entries()
    ]
    return {
        "variables": variables,
        "weights": weights,
        "hidden_variables": list(model.hidden_vars),
        "certificate": model.certificate,
    }


def load_model(text: str) -> ExactCSModel:
    """Parse an exact-model file back into an :class:`ExactCSModel`.

    The certificate is a description only and is not read back (the
    verifier derives the responses from the table); the loaded model
    carries ``certificate=None``.
    """
    payload = parse_json(text)
    try:
        variables = [
            (str(v["name"]), tuple(_as_label(lab) for lab in v["labels"]))
            for v in payload["variables"]
        ]
        entries = [
            (tuple(_as_label(lab) for lab in w["assignment"]), float(w["p"]))
            for w in payload["weights"]
        ]
        hidden = payload.get("hidden_variables")
        if hidden is not None:
            hidden = tuple(str(h) for h in hidden)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"model file: bad structure ({exc})") from None
    table = FiniteDistribution.from_entries(variables, entries)
    if hidden is None:
        hidden = tuple(n for n in table.variables if n not in ("a", "b", "x", "y"))
    return ExactCSModel(table=table, hidden_vars=hidden)


def sampler_payload(model, *, seed: int) -> dict:
    """Descriptor for a sampled correlated-settings model.

    Sampled models have continuous hidden variables and no weight table, so
    the file records the construction's kind, the seed and the settings.
    The package does not read these descriptors back; ``load_model``
    rejects them.
    """
    spec = model.spec
    if spec.is_finite:
        settings = {
            "alice_settings": spec.alice_settings,
            "bob_settings": spec.bob_settings,
            "p_xy": spec.p_xy,
        }
    else:
        settings = None
    return {
        "kind": model.kind,
        "sampled": True,
        "seed": seed,
        "settings": settings,
        "hidden_variables": list(model.hidden_names),
        "certificate": model.certificate,
    }


# ----------------------------------------------------------------------
# reports and estimates
# ----------------------------------------------------------------------

def mi_payload(estimate, *, target: str, bound: Optional[float] = None, **extra) -> dict:
    payload = {
        "target": target,
        "value": estimate.value,
        "method": estimate.method,
        "uncertainty": estimate.uncertainty,
        "bound": bound,
    }
    payload.update(extra)
    return payload


def transform_payload(report) -> dict:
    return {
        "source": report.source,
        "corr_deviation": report.corr_deviation,
        "inputs_deviation": report.inputs_deviation,
        "mi_value": report.mi_value,
        "mi_bound": report.mi_bound,
        "extras": dict(report.extras),
    }


def locality_payload(report) -> dict:
    witness = None
    if report.witness is not None:
        witness = {str(k): v for k, v in report.witness.items()}
    return {
        "ok": report.ok,
        "max_deviation": report.max_deviation,
        "tol": report.tol,
        "witness": witness,
    }
