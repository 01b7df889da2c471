"""Fuzz the input contract of the ``bellmi`` command line.

Each example mutates one of five valid input files (a settings file, an
input-distribution file, a correlation file, and the CHSH Brans and
input-broadcast model files) and runs the mutant through two commands that
read that kind of file, in process via ``bellmi.cli.main``, with every
warning raised as an error.  Every run must

- exit 0, 1, 2 or 4, never 3 (an internal inconsistency);
- on exit 2, print nothing on stdout and exactly one stderr line, which
  starts with ``error: `` and is under 200 characters;
- raise no exception out of ``cli.main``.

A mutant makes one to three edits to the seed file's JSON tree.  Each edit
picks one node and replaces it with a value from :data:`PALETTE`, deletes
it, duplicates it inside its array, or wraps it in an array.  The palette
holds literals past the float64 range, huge and negative integers, bools,
null, strings, floats where integers belong, and ragged, empty and deeply
nested arrays.  Three in ten mutants then get one edit of their text from
:data:`TEXT_EDITS`: a key of one object listed twice, a UTF-8 byte order
mark in front, or bytes that are not UTF-8 inserted anywhere.

A second generator draws whole command lines from ``cli.READS``: a
command and mode, then flags of that command, read by the mode or not,
each with a small valid value from :data:`FLAG_VALUES` or one of ``""``,
``0``, ``-1`` and ``nan``.  ``--parallelism`` takes only 0, 1, 2 and 65,
and ``--rounds`` and ``--samples`` are always set where the mode reads
them, so no run starts many threads or runs long.  Every run keeps the
contract above, a value that argparse cannot convert included.

Each example is one mutant and one drawn command line.  Run from the root
of a checkout (2 000 examples took about 14 s on a 2-vCPU Xeon VM)::

    python3 tools/fuzz_inputs.py --examples 2000 --seed 1

It exits 0 when every example keeps the contract.  Otherwise hypothesis
shrinks the first failing example and the script exits 1 with its command,
its output and the mutant's text.  ``tests/test_fuzz_inputs.py`` runs the
same generators on a bounded, derandomized set of examples.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import functools
import io
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import hypothesis  # noqa: E402
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from bellmi import cli  # noqa: E402

EXIT_CODES = (0, 1, 2, 4)
LINE_MAX = 200


class Raw(str):
    """JSON text written as it is: a value that ``json.dumps`` cannot write."""


def render(node) -> str:
    """``node`` as JSON text, with each :class:`Raw` value written verbatim."""
    if isinstance(node, Raw):
        return str(node)
    if isinstance(node, list):
        return "[" + ", ".join(map(render, node)) + "]"
    if isinstance(node, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {render(v)}" for k, v in node.items()) + "}"
    return json.dumps(node)


PALETTE = (
    0, 1, -1, 2, 2**31, 2**63, -(2**63) - 1, 10**30, Raw("1" * 5000),
    0.5, 1.0, -0.0, 1e300, -1e300, 5e-324, 1.7e308,
    Raw("1e999"), Raw("-1e999"), Raw("NaN"), Raw("-Infinity"),
    True, False, None, "", "a", "lam",
    [], [[]], [1, 2, 3], [0.5, [0.5]], [[0.0, 1.0], [1.0, 0.0, 0.0]], [[1, 2], [3]],
    {}, {"x": 0}, Raw("[" * 3000 + "]" * 3000),
)
EDITS = ("replace", "delete", "duplicate", "wrap")
# None leaves the text as the tree renders it; seven in ten mutants keep it
TEXT_EDITS = (None,) * 7 + ("duplicate-key", "bom", "non-utf8")
# each is invalid UTF-8 wherever it lands, since the rendered text is ASCII
NON_UTF8 = (b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80")

S = math.sqrt(0.5)
CHSH_SETTINGS = {
    "alice_settings": [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
    "bob_settings": [[S, 0.0, S], [-S, 0.0, S]],
}
# the PR box as a correlation file: perfect correlation except at (1, 1)
PR_CELLS = [
    {"x": x, "y": y, "pp": 0.5 * (x * y == 0), "pm": 0.5 * (x * y == 1),
     "mp": 0.5 * (x * y == 1), "mm": 0.5 * (x * y == 0)}
    for x in (0, 1) for y in (0, 1)
]

# seed kind -> the commands that read it; FILE is the mutant, OUT a model
# file a transform writes
FILE, OUT = "{file}", "{out}"
MODEL_COMMANDS = (
    ("verify", FILE),
    ("mutual-info", "--target", "exact-model-file", "--model-file", FILE),
)
COMMANDS = {
    "settings": (
        ("simulate", "--model", "tb", "--rounds", "2000", "--settings-file", FILE),
        ("transform", "--model", "brans", "--settings-file", FILE, "--out-file", OUT),
    ),
    "input-dist": (
        ("simulate", "--model", "gg", "--rounds", "2000", "--input-dist-file", FILE),
        ("mutual-info", "--target", "tb-finite", "--samples", "2000",
         "--input-dist-file", FILE),
    ),
    "correlation": (
        ("transform", "--model", "brans", "--corr-file", FILE, "--out-file", OUT),
        ("transform", "--model", "input-broadcast", "--corr-file", FILE, "--out-file", OUT),
    ),
    "brans-model": MODEL_COMMANDS,
    "broadcast-model": MODEL_COMMANDS,
}


# flag -> small valid values, the first a typical one; "{kind}" is the seed
# file of that kind, OUT a file a run may write and MISSING a path in a
# directory that does not exist
MISSING = "{missing}"
FLAG_VALUES = {
    "--preset": ("parallel", "chsh"),
    "--settings-file": ("{settings}",),
    "--input-dist-file": ("{input-dist}",),
    "--corr": ("pr-box", "quantum"),
    "--corr-file": ("{correlation}",),
    "--model-file": ("{brans-model}",),
    "--vars-a": ("x", "x,y"),
    "--vars-b": ("lam",),
    "--rounds": ("2000", "1"),
    "--samples": ("2000", "1000"),
    "--panels": ("16", "64"),
    "--seed": ("3", "0"),
    "--parallelism": ("2", "1"),
    "--floor": ("0.25",),
    "--output": ("csv", "json"),
    "--tol": ("0.5", "1e-9"),
    "--out-file": (OUT, MISSING),
}
# a bad value is any flag's; relative paths such as "0" are never written,
# since --out-file takes only its own values and ""
BAD_FLAG_VALUES = ("", "0", "-1", "nan")
PARALLELISM = ("0", "1", "2", "65")
# flags whose defaults run 100 000 rounds or more, always set where read
COSTLY = ("--rounds", "--samples")


def flag(dest: str) -> str:
    """The command-line flag of an ``argparse`` destination."""
    return "--" + dest.replace("_", "-")


@functools.cache
def command_flags() -> dict:
    """Command -> its optional flags, as ``cli.build_parser()`` defines them,
    without ``--help`` and the required flag that names the mode."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {
        command: [a.option_strings[0] for a in parser._actions
                  if a.option_strings and not a.required
                  and not isinstance(a, argparse._HelpAction)]
        for command, parser in sub.choices.items()
    }


def mode_args(command: str, mode) -> list:
    """The arguments that name ``mode``: verify's model file, which it
    takes in place of a mode, or the ``--target`` or ``--model`` flag."""
    if command == "verify":
        return ["{brans-model}"]
    return ["--target" if command == "mutual-info" else "--model", mode]


def run(argv) -> tuple:
    """``cli.main(argv)`` with warnings as errors: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@functools.cache
def seed_payloads() -> dict:
    """The five valid files as JSON trees, by seed kind; the two model files
    are the ones ``transform`` writes on the CHSH preset."""
    seeds = {
        "settings": {**CHSH_SETTINGS, "p_xy": [[0.25, 0.25], [0.25, 0.25]]},
        "input-dist": {"p_xy": [[0.4, 0.1], [0.2, 0.3]]},
        "correlation": {**CHSH_SETTINGS, "cells": PR_CELLS},
    }
    with tempfile.TemporaryDirectory() as work:
        out = str(Path(work) / "model.json")
        for kind, model, corr in (("brans-model", "brans", "quantum"),
                                  ("broadcast-model", "input-broadcast", "pr-box")):
            code, _, err = run(("transform", "--model", model, "--corr", corr,
                                "--preset", "chsh", "--out-file", out))
            assert code == 0, err
            seeds[kind] = json.loads(Path(out).read_text())
    return seeds


def _nodes(tree, parent=None, key=None):
    """Every node of ``tree`` as (parent, key), in pre-order; the root's
    parent is None."""
    yield parent, key
    if isinstance(tree, dict):
        for k, v in tree.items():
            yield from _nodes(v, tree, k)
    elif isinstance(tree, list):
        for i, v in enumerate(tree):
            yield from _nodes(v, tree, i)


def _node(tree, parent, key):
    """The node at ``parent[key]``, or the root if ``parent`` is None."""
    return tree if parent is None else parent[key]


def _edit(tree, parent, key, edit, value):
    """``tree`` after one edit of the node at ``parent[key]`` (the root if
    ``parent`` is None).  Deleting the root, or duplicating a node that is
    not in an array, wraps it instead."""
    node = _node(tree, parent, key)
    if edit == "replace":
        new = copy.deepcopy(value)
    elif edit == "delete" and parent is not None:
        del parent[key]
        return tree
    elif edit == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(node))
        return tree
    else:
        new = [node]
    if parent is None:
        return new
    parent[key] = new
    return tree


def _duplicate_key(obj: dict, key) -> Raw:
    """``obj`` as JSON text with the pair of ``key`` listed again at its end."""
    pairs = list(obj.items()) + [(key, obj[key])]
    return Raw("{" + ", ".join(f"{json.dumps(k)}: {render(v)}" for k, v in pairs) + "}")


@st.composite
def mutants(draw):
    """(seed kind, file bytes) of one mutated seed file."""
    kind = draw(st.sampled_from(sorted(COMMANDS)))
    tree = copy.deepcopy(seed_payloads()[kind])
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(_nodes(tree))
        parent, key = nodes[draw(st.integers(0, len(nodes) - 1))]
        edit = draw(st.sampled_from(EDITS))
        value = draw(st.sampled_from(PALETTE)) if edit == "replace" else None
        tree = _edit(tree, parent, key, edit, value)
    text_edit = draw(st.sampled_from(TEXT_EDITS))
    if text_edit == "duplicate-key":
        objects = [(p, k) for p, k in _nodes(tree) if isinstance(_node(tree, p, k), dict)
                   and _node(tree, p, k)]
        if objects:
            parent, key = objects[draw(st.integers(0, len(objects) - 1))]
            obj = _node(tree, parent, key)
            dup = _duplicate_key(obj, draw(st.sampled_from(list(obj))))
            tree = _edit(tree, parent, key, "replace", dup)
    data = render(tree).encode("utf-8")
    if text_edit == "bom":
        data = "\ufeff".encode("utf-8") + data
    elif text_edit == "non-utf8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(NON_UTF8)) + data[at:]
    return kind, data


def contract_breach(code: int, out: str, err: str):
    """What a run's exit code and output break of the contract, or None."""
    if code not in EXIT_CODES:
        return f"exit {code}"
    if code == 2:
        lines = err.splitlines()
        if out:
            return "exit 2 with output on stdout"
        if len(lines) != 1 or not lines[0].startswith("error: ") or len(lines[0]) >= LINE_MAX:
            return f"exit 2 without one short error line: {err!r}"
    return None


def check_mutant(mutant, work_dir: Path) -> list:
    """Run ``mutant``, a seed kind and the file's bytes, through its kind's
    commands and return their exit codes; a breach of the contract raises
    AssertionError, and an exception out of ``cli.main`` propagates."""
    kind, data = mutant
    path, out = work_dir / "input.json", work_dir / "model.json"
    path.write_bytes(data)
    codes = []
    for command in COMMANDS[kind]:
        argv = [str(path) if a == FILE else str(out) if a == OUT else a for a in command]
        code, stdout, stderr = run(argv)
        breach = contract_breach(code, stdout, stderr)
        assert breach is None, f"{' '.join(command)} on a {kind} mutant: {breach}\n{data[:2000]!r}"
        codes.append(code)
    return codes


def flag_value(name: str):
    """A strategy of values for the flag ``name``."""
    if name == "--parallelism":
        return st.sampled_from(PARALLELISM)
    bad = ("",) if name == "--out-file" else BAD_FLAG_VALUES
    return st.sampled_from(FLAG_VALUES[name]) | st.sampled_from(bad)


@st.composite
def flag_runs(draw):
    """One command line drawn from ``cli.READS``, with file values as
    placeholders: a command and mode, its required and costly flags, and
    up to four more flags of the command, read by the mode or not."""
    command, mode = draw(st.sampled_from(list(cli.READS)))
    flags = command_flags()[command]
    forced = [flag(dest) for dest, default in cli.READS[command, mode].items()
              if default is cli.REQUIRED or flag(dest) in COSTLY]
    chosen = forced + draw(st.lists(st.sampled_from(flags), max_size=4, unique=True))
    argv = [command] + mode_args(command, mode)
    # verify's required model file is its positional argument, not a flag
    for name in dict.fromkeys(name for name in chosen if name in flags):
        argv += [name, draw(flag_value(name))]
    return argv


def seed_paths(work_dir: Path) -> dict:
    """Placeholder -> path: each seed file, written to ``work_dir``, the
    output file and a path under a missing directory."""
    paths = {OUT: str(work_dir / "model.json"), MISSING: str(work_dir / "missing" / "x.json")}
    for kind, payload in seed_payloads().items():
        paths["{" + kind + "}"] = str(work_dir / f"{kind}.json")
        (work_dir / f"{kind}.json").write_text(render(payload))
    return paths


def check_flag_run(argv, paths: dict) -> int:
    """Run ``argv`` with its placeholders replaced from ``paths`` and return
    its exit code; a breach of the contract raises AssertionError."""
    argv = [paths.get(a, a) for a in argv]
    code, stdout, stderr = run(argv)
    breach = contract_breach(code, stdout, stderr)
    assert breach is None, f"{' '.join(argv)}: {breach}"
    return code


def campaign(examples: int, seed: int, work_dir: Path) -> None:
    """Check ``examples`` mutants and as many flag command lines drawn from
    ``seed``; the first failure is shrunk and raised."""
    paths = seed_paths(work_dir)

    @hypothesis.seed(seed)
    @settings(max_examples=examples, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mutants(), flag_runs())
    def check(mutant, argv):
        check_mutant(mutant, work_dir)
        check_flag_run(argv, paths)

    check()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--examples", type=int, default=2000,
                        help="examples to run, each a mutant and a flag command line")
    parser.add_argument("--seed", type=int, default=0, help="seed of the mutant draws")
    args = parser.parse_args(argv)
    if args.examples < 1:
        parser.error("--examples must be at least 1")
    with tempfile.TemporaryDirectory() as work:
        try:
            campaign(args.examples, args.seed, Path(work))
        except AssertionError as exc:
            print(f"contract broken: {exc}", file=sys.stderr)
            return 1
    print(f"{args.examples} mutants and flag command lines from seed {args.seed}: "
          "every run kept the input contract")
    return 0


if __name__ == "__main__":
    sys.exit(main())
