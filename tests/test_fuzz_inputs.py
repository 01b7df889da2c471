"""The input contract under mutated input files and drawn flag values: no
traceback, no exit 3, and bad input exits 2 with one short error line.

The generator and the checks live in ``tools/fuzz_inputs.py``, which runs
longer campaigns of the same mutants outside this suite.
"""

import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import fuzz_inputs  # noqa: E402


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("kind", sorted(fuzz_inputs.COMMANDS))
def test_every_seed_file_passes_its_commands(work_dir, kind):
    data = fuzz_inputs.render(fuzz_inputs.seed_payloads()[kind]).encode("utf-8")
    assert fuzz_inputs.check_mutant((kind, data), work_dir) == [0, 0]


@pytest.mark.parametrize("edit", ["duplicate-key", "bom", "non-utf8"])
@pytest.mark.parametrize("kind", sorted(fuzz_inputs.COMMANDS))
def test_text_edits_of_a_seed_file_exit_2(work_dir, kind, edit):
    # a repeated top-level key, a byte order mark, or a stray 0xff byte in
    # the middle: each refused with one error line by both commands
    tree = fuzz_inputs.seed_payloads()[kind]
    data = fuzz_inputs.render(tree).encode("utf-8")
    if edit == "duplicate-key":
        data = str(fuzz_inputs._duplicate_key(tree, next(iter(tree)))).encode("utf-8")
    elif edit == "bom":
        data = "\ufeff".encode("utf-8") + data
    else:
        data = data[:len(data) // 2] + b"\xff" + data[len(data) // 2:]
    assert fuzz_inputs.check_mutant((kind, data), work_dir) == [2, 2]


# a few milliseconds per example, so 200 examples take about a second
@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fuzz_inputs.mutants())
def test_mutated_input_files_keep_the_input_contract(work_dir, mutant):
    fuzz_inputs.check_mutant(mutant, work_dir)


@pytest.fixture(scope="module")
def seed_paths(tmp_path_factory):
    return fuzz_inputs.seed_paths(tmp_path_factory.mktemp("flags"))


# at most 2 000 rounds or samples on at most two threads per example
@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fuzz_inputs.flag_runs())
def test_drawn_flag_values_keep_the_input_contract(seed_paths, argv):
    fuzz_inputs.check_flag_run(argv, seed_paths)
