#!/usr/bin/env python3
"""Benchmark for the ``bellmi`` command.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc-chsh --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

One process drives ``bellmi.cli.main(argv)`` as a single client in a
closed loop: each command starts when the previous one returns.  The
workload's command list runs once unmeasured, then again and again until
``--seconds`` have passed; timings are medians over those passes.  Set-up
is measured separately, in fresh interpreters.

``--trace 0`` prints the end-to-end metrics.  Before and after each
command of an untraced pass a fixed reference kernel is timed (``reference.py``), and
``wall_ref`` divides the pass's command time by the kernels' time, so the
host's drifting speed cancels out of it.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, including the
tracing overhead and the time no span covers.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Lines before it record the machine, the inputs and every metric by name.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import reference
from spans import Tracer, covered_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("mc-chsh", "mc-wide", "exact-sweep")
# Fresh-interpreter set-up probes: half before the timed passes, half after.
SETUP_SAMPLES = 10
PROBE_TIMEOUT_S = 120

# glibc mallopt parameters.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

# Gated end-to-end metrics, as listed in BENCHMARK.json.
END_TO_END = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MB"}


# ----------------------------------------------------------------------
# set-up, in fresh interpreters
# ----------------------------------------------------------------------

def setup_probe(workload: str, seed: int, work_dir: str) -> None:
    """Import bellmi.cli, build its parser and write the inputs, timed."""
    t0 = time.perf_counter()
    import bellmi.cli

    t1 = time.perf_counter()
    bellmi.cli.build_parser()
    t2 = time.perf_counter()
    import workloads

    workloads.build(workload, seed, work_dir)
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "parser_s": t2 - t1,
                      "inputs_s": t3 - t2, "setup_s": t3 - t0}))


def measure_setup(workload: str, seed: int, count: int) -> list:
    samples = []
    for _ in range(count):
        with tempfile.TemporaryDirectory(dir=WORK) as work_dir:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--setup-probe", work_dir,
                 "--workload", workload, "--seed", str(seed)],
                capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up probe failed with exit code {proc.returncode}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def pin_allocator() -> bool:
    """Fix glibc's mmap and trim thresholds for this process.

    By default glibc raises its mmap threshold as large blocks are freed
    and trims the heap top, so how often numpy's temporaries fault in
    fresh pages depends on the allocation history.  On a 2-core Xeon, five
    mc-chsh runs spread by 12% in wall time and 15% in peak RSS (quartile
    distance over median); with fixed thresholds, by 5% and 0.7%.  Freed
    blocks below 32 MiB stay mapped, so the timings leave out that fault
    traffic and peak RSS is the heap's high-water mark.
    """
    path = ctypes.util.find_library("c")
    if path is None:
        return False
    mallopt = ctypes.CDLL(path).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(M_MMAP_THRESHOLD, 32 << 20)) and bool(mallopt(M_TRIM_THRESHOLD, 1 << 30))


# ----------------------------------------------------------------------
# environment record
# ----------------------------------------------------------------------

def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _git_commit() -> Optional[str]:
    head = _read(ROOT / ".git" / "HEAD").strip()
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    commit = _read(ROOT / ".git" / ref).strip()
    if commit:
        return commit
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "bellmi").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _l3_size() -> Optional[str]:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(index / "level").strip() == "3":
            return _read(index / "size").strip() or None
    return None


def environment() -> dict:
    import numpy

    from bellmi import _kernels

    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), None)
    mem = next((line.split(":", 1)[1].strip() for line in _read("/proc/meminfo").splitlines()
                if line.startswith("MemTotal")), None)
    return {
        "cpu": cpu, "nproc": len(os.sched_getaffinity(0)), "l3": _l3_size(), "mem_total": mem,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "backend": _kernels.active_backend(),
        "git_commit": _git_commit(), "source_sha256": _source_sha256(),
    }


# ----------------------------------------------------------------------
# passes over the command list
# ----------------------------------------------------------------------

@dataclass
class Result:
    """One command's outcome within a pass."""

    tag: str
    seconds: float
    problem: Optional[str]
    spans: list
    unattributed_ns: int
    ref_seconds: float = 0.0  # reference kernel timed just before and after; untraced only


def run_command(cli, cmd, seen: dict, tracer=None) -> Result:
    out, err = io.StringIO(), io.StringIO()
    problem = None
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter_ns()
        try:
            rc = cli.main(list(cmd.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # the loop must go on; the command counts as failed
            rc = None
            problem = traceback.format_exc()
        t1 = time.perf_counter_ns()
    text = out.getvalue()
    if problem is None and rc != 0:
        problem = f"exit code {rc}: {err.getvalue().strip()}"
    if problem is None:
        try:
            problem = cmd.check(text, seen)
        except (KeyError, TypeError, ValueError) as exc:
            problem = f"unreadable output ({exc!r})"
    seen[cmd.tag] = text
    spans, unattributed = [], 0
    if tracer is not None:
        spans = tracer.drain()
        roots = [(s.start, s.end) for s in spans if s.parent is None]
        unattributed = (t1 - t0) - covered_ns(roots, t0, t1)
    return Result(cmd.tag, (t1 - t0) / 1e9, problem, spans, unattributed)


def run_pass(cli, wl, tracer=None) -> list:
    seen: dict = {}
    results = []
    for cmd in wl.commands:
        if tracer is not None:
            results.append(run_command(cli, cmd, seen, tracer))
            continue
        before = reference.timed(wl.reference)
        results.append(run_command(cli, cmd, seen))
        results[-1].ref_seconds = before + reference.timed(wl.reference)
    if tracer is not None:
        _check_parallel_counts(results)
    for r in results:
        if r.problem:
            print(f"FAIL {wl.name} {r.tag}: {r.problem}", file=sys.stderr)
    return results


def _check_parallel_counts(results) -> None:
    """Chunks and sphere draws must not depend on --parallelism."""
    from layers import chunk_count

    by_tag = {r.tag: r for r in results}
    if "tb_p1" not in by_tag or "tb_p2" not in by_tag:
        return
    p1, p2 = by_tag["tb_p1"], by_tag["tb_p2"]

    def vectors(r):
        return sum((s.counts or {}).get("sphere.vectors", 0) for s in r.spans)

    got = (chunk_count(p1.spans), vectors(p1)), (chunk_count(p2.spans), vectors(p2))
    if got[0] != got[1] and p2.problem is None:
        p2.problem = f"(chunks, sphere vectors) at parallelism 1 vs 2: {got[0]} vs {got[1]}"


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def _median_per_pass(passes, tags=None, ref=False) -> float:
    return statistics.median(
        sum(r.ref_seconds if ref else r.seconds for r in p if tags is None or r.tag in tags)
        for p in passes
    )


def _median_wall_ref(passes) -> float:
    return statistics.median(
        sum(r.seconds for r in p) / sum(r.ref_seconds for r in p) for p in passes
    )


def command_metrics(wl, passes) -> dict:
    from workloads import COMMAND_METRICS

    out = {}
    for tag, (metric, unit, kind) in COMMAND_METRICS.items():
        cmds = [c for c in wl.commands if c.tag == tag]
        if not cmds:
            continue
        seconds = _median_per_pass(passes, {tag})
        value = sum(c.work for c in cmds) / seconds if kind == "rate" else seconds
        out[metric] = (value, unit)
    return out


def layer_report(plain, traced, setup) -> dict:
    from layers import COUNTS, PER_LAYER, layer_metrics

    per_pass = []
    for p in traced:
        m = layer_metrics([s for r in p for s in r.spans])
        m["trace.unattributed_ms"] = sum(r.unattributed_ns for r in p) / 1e6
        per_pass.append(m)
    out = {}
    for name in PER_LAYER:
        if name in ("setup.import_ms", "trace.overhead_ms"):
            continue
        values = [m[name] for m in per_pass]
        out[name] = values[0] if name in COUNTS else statistics.median(values)
    out["setup.import_ms"] = statistics.median(s["import_s"] for s in setup) * 1e3
    out["trace.overhead_ms"] = (_median_per_pass(traced) - _median_per_pass(plain)) * 1e3
    return {name: (out[name], unit) for name, unit in PER_LAYER.items()}


def _print_metric(name: str, value, unit: str) -> None:
    print(f"metric {name:34s} {value:.6g} {unit}")


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    WORK.mkdir(exist_ok=True)
    setup = measure_setup(name, seed, SETUP_SAMPLES // 2)
    allocator_pinned = pin_allocator()

    import bellmi.cli as cli

    import workloads
    from layers import COUNTERS

    with tempfile.TemporaryDirectory(dir=WORK) as work_dir:
        wl = workloads.build(name, seed, work_dir)
        record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "allocator_pinned": allocator_pinned,
                  "inputs": wl.inputs, "reference_kernel": wl.reference, "working_set_bytes": workloads.working_set(name),
                  "environment": environment()}
        print("record " + json.dumps(record))
        tracer = Tracer(counters=COUNTERS) if trace else None

        all_results = run_pass(cli, wl)  # warm-up: checked, not timed
        plain, traced = [], []
        deadline = time.perf_counter() + seconds
        while True:
            plain.append(run_pass(cli, wl))
            if tracer is not None:
                with tracer:
                    traced.append(run_pass(cli, wl, tracer))
            if time.perf_counter() >= deadline:
                break
    for p in plain + traced:
        all_results += p
    setup += measure_setup(name, seed, SETUP_SAMPLES - SETUP_SAMPLES // 2)

    attempted = len(all_results)
    failed = sum(1 for r in all_results if r.problem)
    print(f"passes untraced={len(plain)} traced={len(traced)} commands={attempted}")
    print("pass_s " + json.dumps([[round(sum(r.seconds for r in p), 4),
                                    round(sum(r.ref_seconds for r in p), 4)] for p in plain]))
    if trace:
        from layers import LISTED

        printed = layer_report(plain, traced, setup)
        metrics = {k: v for k, v in printed.items() if k in LISTED}
        for metric, (value, unit) in printed.items():
            if metric not in LISTED:
                _print_metric(metric, value, unit)
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (statistics.median(s["setup_s"] for s in setup), "s"),
            "wall_ref": (_median_wall_ref(plain), "ref"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        extra = {"wall_s": (_median_per_pass(plain), "s"),
                 "ref_s": (_median_per_pass(plain, ref=True), "s")}
        extra.update(command_metrics(wl, plain))
        extra["fail_ratio"] = (failed / attempted, "failed/attempted")
        for metric, (value, unit) in extra.items():
            _print_metric(metric, value, unit)
    for metric, (value, unit) in metrics.items():
        _print_metric(metric, value, unit)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process so peak memory stays its own."""
    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
        )
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    # One client: keep BLAS from starting threads of its own.  Set before
    # numpy is imported; probes and workload processes inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.setup_probe)
        return 0
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        try:
            WORK.rmdir()
        except OSError:  # not empty: another run is using it
            pass


if __name__ == "__main__":
    sys.exit(main())
