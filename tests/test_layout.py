"""Every name defined in ``src/bellmi`` is referenced from ``src/bellmi``,
no two definitions share a name unless listed, and the package exports
exactly what its ``__init__.py`` imports.

The scan parses each module except ``__init__.py`` (whose re-exports would
count every public name as used) and compares two sets: the functions,
methods and classes defined without a leading ``__``, and every name or
attribute the code reads.  Comments and docstrings are not parsed, so they
count as no caller.  The only definitions allowed to have no caller in
``src/`` are listed in ``UNCALLED``; the package exports none of them.
Callers are matched by bare name, so a dead twin of a name defined twice
would pass the first check unseen; the names defined more than once are
listed in ``TWINS``.
"""

import ast
from collections import Counter
from pathlib import Path

import bellmi

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bellmi"

# Only names that the benchmark under perfbench/ holds, until it changes
# too: perfbench/tests/test_spans.py line 93 calls mi_tb_montecarlo,
# perfbench/run.py line 177 records active_backend, and the same span test
# counts four importers of sample_uniform_sphere (its "== 4"), transforms
# among them, which imports it only for _random_pair_spec.
UNCALLED = {"mi_tb_montecarlo", "active_backend", "_random_pair_spec"}

# Names defined more than once, each definition live: the settings counts
# of SettingsSpec and ConditionalTable, the round samplers of the two
# models, and the nested chunk functions of the two Monte Carlo estimates.
TWINS = {"n_alice", "n_bob", "sample_rounds", "draw"}


def _defined_and_referenced():
    """Each definition name with its count, and the set of names read."""
    defined, referenced = Counter(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("__"):
                    defined[node.name] += 1
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return defined, referenced


def test_every_src_definition_has_a_src_caller():
    defined, referenced = _defined_and_referenced()
    uncalled = defined.keys() - referenced
    assert uncalled == UNCALLED, (
        f"no src caller: {sorted(uncalled - UNCALLED)}; "
        f"listed but called or gone: {sorted(UNCALLED - uncalled)}"
    )


def test_names_defined_twice_are_listed():
    defined, _ = _defined_and_referenced()
    twins = {name for name, count in defined.items() if count > 1}
    assert twins == TWINS, (
        f"defined more than once: {sorted(twins - TWINS)}; "
        f"listed but defined once or gone: {sorted(TWINS - twins)}"
    )


def test_the_package_exports_what_it_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(bellmi.__all__) == sorted(imported)
    assert not imported & UNCALLED, sorted(imported & UNCALLED)
