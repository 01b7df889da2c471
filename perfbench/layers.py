"""Per-layer metrics computed from the spans of one pass over a workload.

Times are summed over calls and over threads, so a layer that runs on both
``--parallelism 2`` workers can report more busy time than wall time.
``*_self_ms`` metrics subtract the time covered by child spans; the other
``*_ms`` metrics are whole-call durations.  Counts come from the counters
below, evaluated on each call's arguments and result.  Kernel bytes are
computed from array sizes (inputs plus outputs), not measured traffic.
"""

from __future__ import annotations

import numpy as np

from spans import LAYERS, self_times_ns

# Every per-layer metric the traced run prints: name -> unit.
PER_LAYER = {
    "sphere.sample_ms": "ms",
    "sphere.vectors": "count",
    "models.settings_draw_ms": "ms",
    "models.gather_ms": "ms",
    "models.sample_rounds_self_ms": "ms",
    "models.tb_resampled": "count",
    "models.brans_build_ms": "ms",
    "models.input_broadcast_build_ms": "ms",
    "models.mu_support": "count",
    "kernels.tb_outcomes_ms": "ms",
    "kernels.gg_outcomes_ms": "ms",
    "kernels.tally_ms": "ms",
    "kernels.agreement_probs_ms": "ms",
    "kernels.elements": "count",
    "kernels.bytes_computed": "B",
    "analysis.estimate_self_ms": "ms",
    "analysis.chunks": "count",
    "analysis.gg_kept_ratio": "ratio",
    "analysis.mi_finite_self_ms": "ms",
    "analysis.singlet_table_ms": "ms",
    "analysis.verify_ms": "ms",
    "analysis.mi_exact_ms": "ms",
    "transforms.comm_to_cs_ms": "ms",
    "transforms.det_to_cs_ms": "ms",
    "transforms.acceptance_rate": "ratio",
    "table.from_entries_ms": "ms",
    "table.marginal_ms": "ms",
    "table.mi_ms": "ms",
    "table.dense_cells": "count",
    "table.support_cells": "count",
    "serialize.correlation_payload_ms": "ms",
    "serialize.model_payload_ms": "ms",
    "serialize.json_text_ms": "ms",
    "serialize.load_model_ms": "ms",
    "serialize.bytes_written": "B",
    "setup.import_ms": "ms",
    "cli.parse_ms": "ms",
    "cli.command_self_ms": "ms",
    "sphere.self_ms": "ms",
    "models.self_ms": "ms",
    "kernels.self_ms": "ms",
    "analysis.self_ms": "ms",
    "transforms.self_ms": "ms",
    "table.self_ms": "ms",
    "serialize.self_ms": "ms",
    "cli.self_ms": "ms",
    "trace.spans": "count",
    "trace.unattributed_ms": "ms",
    "trace.overhead_ms": "ms",
}

# Metrics that count work; they repeat exactly for a given seed.
COUNTS = tuple(name for name, unit in PER_LAYER.items() if unit in ("count", "B"))

# Times that are above 0 on every workload.  Every other time is 0 on a
# workload that leaves its layer idle.  Those are printed with the rest but
# left out of BENCHMARK.json and the result line, where a time that reads
# 0 on every run cannot be told from a constant.
ALWAYS_TIMED = (
    "analysis.singlet_table_ms", "serialize.json_text_ms", "setup.import_ms",
    "cli.parse_ms", "cli.command_self_ms", "sphere.self_ms", "models.self_ms",
    "analysis.self_ms", "serialize.self_ms", "cli.self_ms",
    "trace.unattributed_ms", "trace.overhead_ms",
)
LISTED = {name: unit for name, unit in PER_LAYER.items()
          if unit != "ms" or name in ALWAYS_TIMED}

# Whole-call durations: metric -> span names.
_DURATION = {
    "sphere.sample_ms": ("sphere.sample_uniform_sphere",),
    "models.settings_draw_ms": ("models.SettingsSpec.sample_indices",),
    "models.gather_ms": ("models.SettingsSpec.vectors_for",),
    "models.brans_build_ms": ("models.brans_build",),
    "models.input_broadcast_build_ms": ("models.input_broadcast_build",),
    "kernels.tb_outcomes_ms": ("_kernels.tb_outcomes",),
    "kernels.gg_outcomes_ms": ("_kernels.gg_outcomes",),
    "kernels.tally_ms": ("_kernels.tally",),
    "kernels.agreement_probs_ms": ("_kernels.agreement_probs",),
    "analysis.singlet_table_ms": ("analysis.exact_singlet_conditional",),
    "analysis.verify_ms": ("analysis.verify_bell_local",),
    "analysis.mi_exact_ms": ("analysis.mi_exact_finite",),
    "transforms.comm_to_cs_ms": ("transforms.comm_to_cs",),
    "transforms.det_to_cs_ms": ("transforms.det_to_cs",),
    "table.from_entries_ms": ("table.FiniteDistribution.from_entries",),
    "table.marginal_ms": ("table.FiniteDistribution.marginal",),
    "table.mi_ms": ("table.FiniteDistribution.mutual_information",),
    "serialize.correlation_payload_ms": ("serialize.correlation_payload",),
    "serialize.model_payload_ms": ("serialize.model_payload",),
    "serialize.json_text_ms": ("serialize.json_text",),
    "serialize.load_model_ms": ("serialize.load_model",),
}

# Self times: metric -> span names.
_SELF = {
    "models.sample_rounds_self_ms": (
        "models.TonerBaconModel.sample_rounds",
        "models.GisinGisinModel.sample_rounds",
    ),
    "analysis.estimate_self_ms": ("analysis.estimate_correlations",),
    "analysis.mi_finite_self_ms": ("analysis.mi_finite_settings_tb",),
    "cli.command_self_ms": (
        "cli.cmd_simulate", "cli.cmd_mutual_info", "cli.cmd_transform", "cli.cmd_verify",
    ),
}

_SUMMED_COUNTS = (
    "sphere.vectors", "models.tb_resampled", "models.mu_support",
    "kernels.elements", "kernels.bytes_computed", "table.dense_cells",
    "table.support_cells", "serialize.bytes_written",
)


def _kernel_counter(elements):
    def count(args, kwargs, result):
        outs = result if isinstance(result, tuple) else (result,)
        arrays = [a for a in (*args, *kwargs.values(), *outs) if isinstance(a, np.ndarray)]
        return {
            "kernels.elements": int(elements(args)),
            "kernels.bytes_computed": sum(int(a.nbytes) for a in arrays),
        }
    return count


def _det_counter(args, kwargs, result):
    extras = result[1].extras
    rounds = int(extras["check_rounds"])
    return {"det.accepted": round(extras["acceptance_rate"] * rounds), "det.attempted": rounds}


# Span name -> fn(args, kwargs, result) -> counts, for spans.Tracer.
COUNTERS = {
    "sphere.sample_uniform_sphere": lambda a, k, r: {
        "sphere.vectors": 1 if r.ndim == 1 else int(r.shape[0])
    },
    "_kernels.tb_outcomes": _kernel_counter(lambda a: a[0].shape[0]),
    "_kernels.gg_outcomes": _kernel_counter(lambda a: a[0].shape[0]),
    "_kernels.tally": _kernel_counter(lambda a: a[0].shape[0]),
    # One sign comparison per (setting, hidden pair).
    "_kernels.agreement_probs": _kernel_counter(lambda a: a[0].shape[0] * a[2].shape[0]),
    "models.TonerBaconModel.sample_rounds": lambda a, k, r: {
        "models.tb_resampled": int(r.resampled)
    },
    "models.GisinGisinModel.sample_rounds": lambda a, k, r: {
        "gg.kept": int(np.count_nonzero(r.kept)), "gg.attempted": int(r.a.shape[0])
    },
    "models.input_broadcast_build": lambda a, k, r: {"models.mu_support": len(r.mu_labels)},
    "transforms.det_to_cs": _det_counter,
    "table.FiniteDistribution.from_entries": lambda a, k, r: {
        "table.dense_cells": int(r.weights.size),
        "table.support_cells": int(np.count_nonzero(r.weights)),
    },
    "serialize.json_text": lambda a, k, r: {"serialize.bytes_written": len(r.encode())},
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def chunk_count(spans) -> int:
    """Model-round batches run directly under estimate_correlations."""
    return sum(
        1 for s in spans
        if s.name.endswith(".sample_rounds")
        and s.parent is not None and s.parent.name == "analysis.estimate_correlations"
    )


def layer_metrics(spans) -> dict:
    """Every span-derived metric in PER_LAYER for one pass over a workload.

    ``setup.import_ms``, ``trace.unattributed_ms`` and ``trace.overhead_ms``
    are not span sums; the caller fills them in.
    """
    self_ns = self_times_ns(spans)
    dur = {}
    slf = {}
    layer_self = dict.fromkeys(LAYERS, 0)
    counts: dict = {}
    for s in spans:
        dur[s.name] = dur.get(s.name, 0) + s.duration_ns
        slf[s.name] = slf.get(s.name, 0) + self_ns[id(s)]
        layer_self[s.name.split(".", 1)[0]] += self_ns[id(s)]
        for key, value in (s.counts or {}).items():
            counts[key] = counts.get(key, 0) + value

    out = {}
    for metric, names in _DURATION.items():
        out[metric] = sum(dur.get(n, 0) for n in names) / 1e6
    for metric, names in _SELF.items():
        out[metric] = sum(slf.get(n, 0) for n in names) / 1e6
    for layer, ns in layer_self.items():
        out[f"{layer.lstrip('_')}.self_ms"] = ns / 1e6
    for key in _SUMMED_COUNTS:
        out[key] = counts.get(key, 0)
    out["analysis.chunks"] = chunk_count(spans)
    out["analysis.gg_kept_ratio"] = _ratio(counts.get("gg.kept", 0), counts.get("gg.attempted", 0))
    out["transforms.acceptance_rate"] = _ratio(
        counts.get("det.accepted", 0), counts.get("det.attempted", 0)
    )
    # argparse's parse_args runs in cli.main's own time.
    out["cli.parse_ms"] = (dur.get("cli.build_parser", 0) + slf.get("cli.main", 0)) / 1e6
    out["trace.spans"] = len(spans)
    return out
