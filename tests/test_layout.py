"""Every name defined in ``src/bellmi`` is referenced from ``src/bellmi``.

The scan parses each module except ``__init__.py`` (whose re-exports would
count every public name as used) and compares two sets: the functions,
methods and classes defined without a leading ``__``, and every name or
attribute the code reads.  Comments and docstrings are not parsed, so they
count as no caller.  The only definitions allowed to have no caller in
``src/`` are listed in ``UNCALLED``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bellmi"

UNCALLED = {
    # oracles the acceptance gate checks the command's numbers against
    "singlet_correlation",
    "chsh",
    "conditional_mutual_information",
    "mi_tb_montecarlo",
    "mi_gg_montecarlo",
    "make_signaling_example",
    # read only by the benchmark harness under perfbench/
    "active_backend",
    # only tests construct it; the continuous-spec branch it feeds holds
    # transforms' sample_uniform_sphere import, whose importers the
    # perfbench span test counts
    "continuous_uniform",
}


def _defined_and_referenced():
    defined, referenced = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("__"):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return defined, referenced


def test_every_src_definition_has_a_src_caller():
    defined, referenced = _defined_and_referenced()
    uncalled = defined - referenced
    assert uncalled == UNCALLED, (
        f"no src caller: {sorted(uncalled - UNCALLED)}; "
        f"listed but called or gone: {sorted(UNCALLED - uncalled)}"
    )
