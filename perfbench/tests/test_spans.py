"""Tests of the benchmark's span recording and per-layer accounting.

Run from the root of a checkout:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import bellmi  # noqa: E402
from bellmi import analysis, cli, models, sphere, transforms  # noqa: E402
from bellmi.models import TonerBaconModel, preset  # noqa: E402
from bellmi.sphere import RandomSource  # noqa: E402

from layers import COUNTERS, LISTED, PER_LAYER, chunk_count, layer_metrics  # noqa: E402
from spans import Span, Tracer, covered_ns, self_times_ns  # noqa: E402

ROOT = HERE.parent.parent


def _span(name, start, end, parent=None, thread=1):
    s = Span(name, parent, thread)
    s.start, s.end = start, end
    return s


def test_self_time_subtracts_union_of_child_coverage():
    parent = _span("analysis.estimate_correlations", 0, 100)
    # Two worker threads whose spans overlap in [30, 50].
    a = _span("models.TonerBaconModel.sample_rounds", 10, 50, parent, thread=2)
    b = _span("models.TonerBaconModel.sample_rounds", 30, 70, parent, thread=3)
    grandchild = _span("sphere.sample_uniform_sphere", 12, 20, a, thread=2)
    # A child running past its parent only counts inside the parent.
    late = _span("_kernels.tally", 90, 130, parent)
    selfs = self_times_ns([parent, a, b, grandchild, late])
    assert selfs[id(parent)] == 100 - (60 + 10)
    assert selfs[id(a)] == 40 - 8
    assert selfs[id(b)] == 40
    assert selfs[id(grandchild)] == 8
    assert covered_ns([(5, 10), (0, 3), (2, 4), (8, 12)], 0, 11) == 4 + 6


def _estimate(parallelism):
    tracer = Tracer(counters=COUNTERS)
    with tracer:
        analysis.estimate_correlations(
            TonerBaconModel(), preset("chsh"), 3 * analysis.CHUNK_ROUNDS + 5,
            RandomSource(7), parallelism=parallelism,
        )
    return tracer.drain()


def test_parallel_worker_spans_are_children_of_the_estimate():
    spans = _estimate(parallelism=2)
    (est,) = [s for s in spans if s.name == "analysis.estimate_correlations"]
    rounds = [s for s in spans if s.name == "models.TonerBaconModel.sample_rounds"]
    assert len(rounds) == 4
    assert all(s.parent is est for s in rounds)
    assert all(s.thread != threading.get_ident() for s in rounds)
    children = [(s.start, s.end) for s in spans if s.parent is est]
    selfs = self_times_ns(spans)
    assert selfs[id(est)] == est.duration_ns - covered_ns(children, est.start, est.end)
    assert 0 <= selfs[id(est)] < est.duration_ns


def test_counts_do_not_depend_on_parallelism():
    one, two = layer_metrics(_estimate(1)), layer_metrics(_estimate(2))
    assert chunk_count(_estimate(1)) == 4
    for name in ("analysis.chunks", "sphere.vectors", "kernels.elements", "kernels.bytes_computed"):
        assert one[name] == two[name], name
    assert one["sphere.vectors"] == 2 * (3 * analysis.CHUNK_ROUNDS + 5)


def test_wrapped_function_is_seen_through_every_importer():
    original = sphere.sample_uniform_sphere
    importers = [m for m in (models, analysis, transforms, bellmi)
                 if getattr(m, "sample_uniform_sphere", None) is original]
    assert len(importers) == 4
    tracer = Tracer(counters=COUNTERS)
    with tracer:
        for module in importers + [sphere]:
            assert module.sample_uniform_sphere is not original
            assert module.sample_uniform_sphere is sphere.sample_uniform_sphere
        analysis.mi_tb_montecarlo(1000, RandomSource(3))
        spans = tracer.drain()
    assert all(m.sample_uniform_sphere is original for m in importers + [sphere])
    draws = [s for s in spans if s.name == "sphere.sample_uniform_sphere"]
    assert len(draws) == 2
    assert all(s.parent.name == "analysis.mi_tb_montecarlo" for s in draws)
    assert sum(s.counts["sphere.vectors"] for s in draws) == 2000


def test_cli_command_spans_nest_under_main(tmp_path, capsys):
    model = tmp_path / "model.json"
    tracer = Tracer(counters=COUNTERS)
    with tracer:
        rc = cli.main(["transform", "--model", "input-broadcast", "--corr", "pr-box",
                       "--out-file", str(model)])
        assert rc == 0
        assert cli.main(["verify", str(model)]) == 0
        spans = tracer.drain()
    capsys.readouterr()
    names = {s.name for s in spans}
    assert {"cli.main", "cli.cmd_transform", "cli.cmd_verify",
            "analysis.verify_bell_local", "serialize.load_model",
            "table.FiniteDistribution.from_entries"} <= names
    roots = [s for s in spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.main", "cli.main"]
    metrics = layer_metrics(spans)
    assert metrics["models.mu_support"] == 4
    assert metrics["analysis.verify_ms"] > 0.0


def test_benchmark_json_lists_the_harness_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LISTED
    assert set(LISTED) <= set(PER_LAYER)
    from run import END_TO_END

    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END


@pytest.fixture(autouse=True)
def _no_tracer_left_installed():
    original = sphere.sample_uniform_sphere
    yield
    assert sphere.sample_uniform_sphere is original
