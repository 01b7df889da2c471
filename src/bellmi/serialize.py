"""Deterministic serialization of tables, models, and reports.

JSON is the authoritative format.  Every file and report goes through one
writer, :func:`json_text`, which is the stdlib encoder: field names and
orders are fixed by the payload builders, and by the fields of the report
dataclasses under :func:`dataclasses.asdict`; every float is written by its
``repr`` (the shortest decimal that round-trips float64, always with a
point or an exponent, so ``1.0`` and ``-0.0`` load back as floats), and
nothing time- or host-dependent is ever emitted, so identical inputs
produce identical bytes.  Payloads hold plain Python values only; an
estimate that does not exist, such as one of a cell never drawn, is None
where it is computed, and any non-finite float, like any value of another
type, is refused with :class:`ConfigError`.  The readers refuse ``NaN``,
``Infinity`` and ``-Infinity``, and a key listed twice in one object, as
:func:`parse_json` meets them.  A number
literal past the float64 range loads as an infinity; each reader refuses
one among the values it keeps, after the parse and without a per-literal
hook: :func:`_json_values` scans each level of labels that holds floats, and
every number a reader keeps is checked in its float64 array (settings,
``p_xy``, model weights and correlation cells).  The error line is the one
an unparsable file gets.  Files written with the earlier ``%.17g`` spelling
still load to the same values.

Schemas:

- correlation table: ``{"alice_settings": [[x,y,z]...], "bob_settings":
  [[x,y,z]...], "p_xy": [[...]], "cells": [{"x", "y", "pp", "pm", "mp",
  "mm", "n", ...}...]}`` plus estimation extras per cell.
- finite model: ``{"variables": [{"name", "labels", "codes"}...], "weights":
  [p...]}`` plus the hidden-variable names and a certificate description.
  ``codes`` holds one label index per entry, and ``weights[k]`` is the
  probability of the cell that entry k's codes pick, one code per variable;
  the writer lists the table's support in row-major cell order.

Tuples used as labels are written as JSON arrays and restored as tuples on
load.  Every label and number a reader takes from a file is checked and
converted by one walker, :func:`_json_values`, a nesting level at a time;
the code columns are checked and converted by
:meth:`FiniteDistribution.from_entries`.  A model file in the earlier row
layout, one ``{"assignment", "p"}`` object per weight, is rejected;
``transform`` writes it again.  CSV output is a flat cell-per-row projection
of the correlation table for spreadsheet use, with the same float spelling.
"""

from __future__ import annotations

import json
import math
from itertools import chain, islice, repeat
from typing import Optional

import numpy as np

from .errors import ConfigError
from .models import ConditionalTable, ExactCSModel, SettingsSpec
from .table import FiniteDistribution


def json_text(obj) -> str:
    """``obj`` as one line of JSON, in its own key order.

    ``obj`` is made of dicts with string keys, lists, tuples, strings,
    ints, finite floats, bools and None.  A NaN or infinity, a numpy
    integer, bool or array, or any other value has no JSON form here and
    raises :class:`ConfigError`.  Every payload is a fresh tree, so the
    encoder skips its cycle check; a cycle or a value nested past the
    interpreter's recursion limit raises :class:`ConfigError` too.
    """
    try:
        return json.dumps(obj, allow_nan=False, check_circular=False) + "\n"
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot write JSON ({exc})") from None
    except RecursionError:
        raise ConfigError("cannot write JSON (nested too deeply)") from None


def _refuse_constant(name: str):
    """The reader's answer to ``NaN``, ``Infinity`` and ``-Infinity``."""
    raise ValueError(f"non-finite number {name}")


# A reader's error after its file kind, for a kept number that is infinite:
# parse_json refuses the Infinity constants, so it was a literal past float64.
_OVERFLOW = "invalid JSON: number literal overflows float64"


class _LiteralOverflow(ValueError):
    """A label or number a reader keeps is an overflowed literal."""


def _finite(numbers: np.ndarray) -> np.ndarray:
    """``numbers``, float64 values read from JSON, unless one is infinite."""
    if np.isinf(numbers).any():
        raise _LiteralOverflow(_OVERFLOW)
    return numbers


def _unique_keys(pairs: list) -> dict:
    """A JSON object from its (key, value) pairs, unless a key repeats."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                shown = repr(key)
                raise ValueError(f"duplicate key {shown[:57] + '...' if len(shown) > 60 else shown}")
            seen.add(key)
    return obj


def parse_json(text: str, where: str) -> dict:
    """The top-level object of a JSON file; ``where`` names the file in errors.

    A key listed twice in one object, at any depth, is refused: a reader
    would otherwise keep the last value silently.
    """
    try:
        payload = json.loads(
            text, parse_constant=_refuse_constant, object_pairs_hook=_unique_keys
        )
    except ValueError as exc:  # JSONDecodeError, a refused constant, or an over-long integer
        raise ConfigError(f"{where}: invalid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError(f"{where}: invalid JSON: nested too deeply") from None
    if type(payload) is not dict:
        raise ConfigError(f"{where}: must be a JSON object, got {type(payload).__name__}")
    return payload


# Deepest array nesting of a JSON value the readers convert; the package
# writes model labels at most two arrays deep.
DEPTH_CAP = 8

# The leaf types of a model label and of a numeric field: a bool is neither.
_LABELS = frozenset((int, str, float))
_NUMBERS = frozenset((int, float))


def _json_values(values: list, leaves: frozenset, depth: int = 0) -> list:
    """``values`` with every JSON array turned into a tuple, so labels hash.

    Each value is a leaf (its type in ``leaves``) or an array of values,
    nested at most :data:`DEPTH_CAP` arrays deep.  The check runs a nesting
    level at a time: one type check per level, and the arrays of a level
    are converted together by one call on their concatenated items.  A
    level of labels that holds floats is scanned for infinities, which raise
    :class:`_LiteralOverflow`; numbers are checked later, as arrays, by
    :func:`_finite`.  Anything else raises :class:`ValueError`.
    """
    kinds = set(map(type, values))
    if float in kinds and leaves is _LABELS and (math.inf in values or -math.inf in values):
        raise _LiteralOverflow(_OVERFLOW)
    if kinds <= leaves:
        return values
    if not kinds <= leaves | {list}:
        allowed = ", ".join(sorted(k.__name__ for k in leaves))
        bad = ", ".join(sorted(k.__name__ for k in kinds - leaves - {list}))
        raise ValueError(f"expected {allowed} or an array of these, got {bad}")
    if depth == DEPTH_CAP:
        raise ValueError(f"value nested more than {DEPTH_CAP} arrays deep")
    arrays = values if kinds == {list} else [v for v in values if type(v) is list]
    items = list(chain.from_iterable(arrays))
    inner = _json_values(items, leaves, depth + 1)
    if inner is items:  # a level of leaves: each array's items as they are
        tuples = map(tuple, arrays)
    else:
        tuples = map(tuple, map(islice, repeat(iter(inner)), map(len, arrays)))
    if arrays is values:
        return list(tuples)
    return [next(tuples) if type(v) is list else v for v in values]


def _as_name(value) -> str:
    """A variable name: a JSON string, else :class:`ValueError`."""
    if type(value) is not str:
        raise ValueError(f"variable names must be strings, got {type(value).__name__}")
    return value


def _json_array(value) -> list:
    """``value`` if it is a JSON array (not a string), else :class:`TypeError`."""
    if type(value) is not list:
        raise TypeError(f"expected a JSON array, got {type(value).__name__}")
    return value


def _numbers(value, name: str) -> np.ndarray:
    """``value``, a JSON number or nested arrays of numbers, as float64.

    Arrays nested side by side must have one length, else
    :class:`ValueError` names the array by ``name``.
    """
    value = _json_values([value], _NUMBERS)[0]
    try:
        numbers = np.asarray(value, dtype=np.float64)
    except ValueError:  # numpy's message runs to several lines of shapes
        raise ValueError(f"{name} is a ragged array") from None
    return _finite(numbers)


# ----------------------------------------------------------------------
# correlation tables
# ----------------------------------------------------------------------

# A cell's ``ok`` flag allows this many standard errors of |e - quantum_e|.
FLAG_SIGMAS = 4.0

# The fields of a cell that are estimated from its kept rounds.
_ESTIMATES = ("pp", "pm", "mp", "mm", "se_pp", "se_pm", "se_mp", "se_mm", "e", "se_e")


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
    :data:`FLAG_SIGMAS` standard errors).  An empty cell has ``"empty":
    true``, None for each of its :data:`_ESTIMATES` and ``"ok": false``.
    """
    spec = est.spec
    n, p, se = est.kept_per_cell.tolist(), est.probs.tolist(), est.prob_se.tolist()
    e, se_e = est.correlators.tolist(), est.correlator_se.tolist()
    q = quantum.correlators.tolist()
    cells = []
    for x in range(spec.n_alice):
        for y in range(spec.n_bob):
            (pp, pm), (mp, mm) = p[x][y]
            (se_pp, se_pm), (se_mp, se_mm) = se[x][y]
            cell = {
                "x": x, "y": y, "pp": pp, "pm": pm, "mp": mp, "mm": mm,
                "n": n[x][y], "empty": n[x][y] == 0,
                "se_pp": se_pp, "se_pm": se_pm, "se_mp": se_mp, "se_mm": se_mm,
                "e": e[x][y], "se_e": se_e[x][y], "quantum_e": q[x][y],
                "ok": n[x][y] > 0
                and abs(e[x][y] - q[x][y]) <= FLAG_SIGMAS * max(se_e[x][y], 1e-300),
            }
            if cell["empty"]:  # its estimates are NaN
                cell.update(dict.fromkeys(_ESTIMATES))
            cells.append(cell)
    return {
        "model": model,
        "seed": seed,
        "rounds": int(est.attempts.sum()),
        "alice_settings": spec.alice_settings.tolist(),
        "bob_settings": spec.bob_settings.tolist(),
        "p_xy": spec.p_xy.tolist(),
        "cells": cells,
        "efficiency": est.efficiency,
        "deviations_ok": all(cell["ok"] for cell in cells),
    }


CSV_COLUMNS = ("x", "y", "pp", "pm", "mp", "mm", "n", "e", "se_e", "quantum_e", "ok")


def correlation_csv(payload: dict) -> str:
    """Flat cell-per-row CSV projection of a correlation payload.

    Floats are spelled as in the JSON, and a null estimate is left blank.
    """
    lines = [",".join(CSV_COLUMNS)]
    for cell in payload["cells"]:
        row = []
        for col in CSV_COLUMNS:
            v = cell[col]
            if v is None:
                row.append("")
            elif isinstance(v, bool):
                row.append("true" if v else "false")
            else:
                row.append(str(v))  # a float's str is its repr
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _settings_from_payload(payload: dict, *, where: str) -> SettingsSpec:
    try:
        alice = _numbers(payload["alice_settings"], "alice_settings")
        bob = _numbers(payload["bob_settings"], "bob_settings")
        p_xy = payload.get("p_xy")
        if p_xy is not None:
            p_xy = _numbers(p_xy, "p_xy")
    except _LiteralOverflow:
        raise ConfigError(f"{where}: {_OVERFLOW}") from None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: bad or missing settings or p_xy ({exc})") from None
    return SettingsSpec(alice, bob, p_xy)


def load_settings(text: str) -> SettingsSpec:
    """Settings file: alice_settings, bob_settings, optional p_xy."""
    return _settings_from_payload(parse_json(text, "settings file"), where="settings file")


def load_input_dist(text: str) -> np.ndarray:
    """Input-distribution file: {"p_xy": [[...]]}."""
    payload = parse_json(text, "input-dist file")
    try:
        return _numbers(payload["p_xy"], "p_xy")
    except _LiteralOverflow:
        raise ConfigError(f"input-dist file: {_OVERFLOW}") from None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"input-dist file: bad or missing p_xy ({exc})") from None


def load_correlation(text: str):
    """Correlation-table file; returns (SettingsSpec, ConditionalTable).

    Every (x, y) cell must be present with its pp/pm/mp/mm conditional
    probabilities, listed once, and indexed by JSON integers.  An error
    names a bad cell by its position in ``cells``, never by its content.
    """
    payload = parse_json(text, "correlation file")
    spec = _settings_from_payload(payload, where="correlation file")
    probs = np.full((spec.n_alice, spec.n_bob, 2, 2), np.nan)
    seen = set()
    if "cells" not in payload:
        raise ConfigError("correlation file: cells are missing")
    cells = payload["cells"]
    if not isinstance(cells, list):
        raise ConfigError(f"correlation file: cells must be a list, got {type(cells).__name__}")
    for i, cell in enumerate(cells):
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
            block = [[cell["pp"], cell["pm"]], [cell["mp"], cell["mm"]]]
            if not all(type(p) is int or type(p) is float for row in block for p in row):
                raise TypeError("pp, pm, mp and mm must be JSON numbers")
            probs[x, y] = block
        except (KeyError, TypeError, ValueError, OverflowError, IndexError) as exc:
            raise ConfigError(
                f"correlation file: bad cell at position {i} ({type(exc).__name__}: {exc})"
            ) from None
    if np.isinf(probs).any():
        raise ConfigError(f"correlation file: {_OVERFLOW}")
    if np.any(np.isnan(probs)):
        raise ConfigError("correlation file: some (x, y) cells are missing")
    return spec, ConditionalTable(probs)


# ----------------------------------------------------------------------
# finite models
# ----------------------------------------------------------------------

def model_payload(model: ExactCSModel) -> dict:
    """Payload for an exact correlated-settings model."""
    table = model.table
    names = table.variables
    codes, w = table.support(names)
    return {
        "variables": [
            {"name": name, "labels": list(table.labels(name)), "codes": c.tolist()}
            for name, c in zip(names, codes)
        ],
        "weights": w.tolist(),
        "hidden_variables": list(model.hidden_vars),
        "certificate": model.certificate,
    }


def load_model(text: str) -> ExactCSModel:
    """Parse an exact-model file back into an :class:`ExactCSModel`.

    Its lists must be JSON arrays.  Each variable's declared labels are
    checked and converted by :func:`_json_values`, the weights as one
    column of numbers, and the code columns by
    :meth:`FiniteDistribution.from_entries`.  A file in the row layout,
    whose variables carry no ``codes``, is a bad structure.  The
    certificate is a description only and is not read back (the verifier
    derives the responses from the table); the loaded model carries
    ``certificate=None``.  A sampled-model descriptor, which
    :func:`sampler_payload` writes, has no weight table and is refused with
    a line that says so.
    """
    payload = parse_json(text, "model file")
    if payload.get("sampled") is True:
        raise ConfigError(
            "model file: a sampled-model descriptor (transform --model tb|gg) has no weight "
            "table; verify and mutual-info read the exact model files of transform "
            "--model brans|input-broadcast"
        )
    try:
        variables, columns = [], []
        for v in _json_array(payload["variables"]):
            name = _as_name(v["name"])
            variables.append((name, _json_values(_json_array(v["labels"]), _LABELS)))
            columns.append(_json_array(v["codes"]))
        probs = _json_array(payload["weights"])
        # fromiter takes scalars only: an array weight raises ValueError, and
        # an integer past the float64 range OverflowError
        probs = _finite(
            np.fromiter(_json_values(probs, _NUMBERS), dtype=np.float64, count=len(probs))
        )
        hidden = payload.get("hidden_variables")
        if hidden is not None:
            hidden = tuple(_as_name(h) for h in _json_array(hidden))
    except _LiteralOverflow:
        raise ConfigError(f"model file: {_OVERFLOW}") from None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"model file: bad structure ({exc})") from None
    table = FiniteDistribution.from_entries(variables, columns, probs)
    if hidden is None:
        hidden = tuple(n for n in table.variables if n not in ("a", "b", "x", "y"))
    return ExactCSModel(table=table, hidden_vars=hidden)


def sampler_payload(sampler, spec: SettingsSpec, *, seed: int) -> dict:
    """Descriptor for the correlated-settings model of ``sampler`` on ``spec``.

    Sampled models have continuous hidden variables and no weight table, so
    the file records the sampler's kind, the seed and the settings.
    The package does not read these descriptors back; :func:`load_model`
    rejects them.
    """
    return {
        "kind": sampler.kind,
        "sampled": True,
        "seed": seed,
        "settings": {
            "alice_settings": spec.alice_settings.tolist(),
            "bob_settings": spec.bob_settings.tolist(),
            "p_xy": spec.p_xy.tolist(),
        },
        "hidden_variables": list(sampler.hidden_names),
        "certificate": sampler.certificate,
    }
