"""Everything imports, every example loads, and three examples run to the end.

The fast tier's stand-in for a linter (neither ``ruff`` nor ``pyflakes`` ships
in every sandbox this repo is built in): a name deleted from ``src/`` that some
module, example or lazily imported driver still references fails here instead
of in whichever command happens to reach it first, and an import inside a
function that nothing reads fails here as ruff's F401 would.  The byte-compile
half is ``python -m compileall -q src tests benchmarks examples`` (CI runs both).
"""

from __future__ import annotations

import ast
import importlib
import os
import pathlib
import pkgutil
import re
import runpy
import subprocess
import sys

import pytest

import repro

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(module.name for module in pkgutil.walk_packages(repro.__path__, "repro."))
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


def test_the_walk_found_the_tree():
    assert {"repro.plan", "repro.cli", "repro.parallel.engine", "repro.search.pool"} <= set(MODULES)
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize(
    "statement",
    [
        # Either side of the repro.core <-> repro.parallel.engine edge may be
        # the first thing a process imports (the walk above only tries one order).
        "import repro.core.selective_stage",
        "import repro.parallel.engine",
        # The plan sits below every consumer: building one pulls in no layer.
        "import repro.plan, sys; repro.plan.ParallelPlan.preset('cb_fe_sc'); "
        "assert not {'repro.core', 'repro.simulator', 'repro.parallel.engine'} & set(sys.modules)",
    ],
)
def test_entry_point_imports_in_a_fresh_interpreter(statement):
    environment = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    subprocess.run([sys.executable, "-c", statement], check=True, env=environment, timeout=60)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_loads(path):
    """Module level only (imports, constants, defs): ``main()`` is not called."""
    namespace = runpy.run_path(str(path), run_name="not_main")
    assert callable(namespace["main"])


@pytest.mark.parametrize(
    "name", ["cluster_performance_study", "pipeline_schedule_visualization", "quickstart"]
)
def test_example_runs(name, monkeypatch, capsys):
    """The simulator-only examples, and the quickstart (~2 s), which also trains."""
    path = REPO_ROOT / "examples" / f"{name}.py"
    monkeypatch.setattr(sys, "argv", [path.name])
    runpy.run_path(str(path), run_name="not_main")["main"]()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) > 10
    if name == "quickstart":
        # Its "Backward bytes saved" column, read from the trainer's log.
        saved = {
            cells[0].strip(): cells[-1].strip()
            for cells in (line.split("|") for line in lines)
            if cells[0].strip() in ("Baseline", "Compressed backpropagation")
        }
        assert saved == {"Baseline": "0%", "Compressed backpropagation": "17%"}


def _trace_patches() -> list[tuple]:
    """Every ``(module, dotted attribute)`` the e2e span tracer patches by name."""
    tables = runpy.run_path(str(REPO_ROOT / "benchmarks" / "e2e" / "trace.py"), run_name="not_main")
    return sorted(
        {
            (patch[0], patch[1])
            for name, table in tables.items()
            if name.endswith("_PATCHES")
            for patch in table
        }
    )


TRACE_PATCHES = _trace_patches()


def test_the_trace_tables_were_found():
    assert ("repro.optim.fused_adam", "FusedAdam.zero_grad") in TRACE_PATCHES
    assert ("repro.parallel.arena", "ParameterArena.snapshot") in TRACE_PATCHES
    assert len(TRACE_PATCHES) > 40


@pytest.mark.parametrize("module, dotted", TRACE_PATCHES, ids=lambda value: value)
def test_every_attribute_the_tracer_patches_is_defined(module, dotted):
    """The tracer wraps these by name; one renamed away would stop being timed."""
    target = importlib.import_module(module)
    for attribute in dotted.split("."):
        target = getattr(target, attribute)
    assert callable(target)


#: A line that may hold a function-scope import (files without one are not parsed).
INDENTED_IMPORT = re.compile(r"^[ \t]+(?:import|from)\s", re.MULTILINE)


def _unused_function_scope_imports() -> list[str]:
    """``path:line name`` of every import inside a function that nothing in it reads.

    A local stand-in for ruff's F401 on function scope: the innermost function
    holding an import must mention the bound name somewhere (a nested
    function's use counts, as a closure reads it).
    """
    found = []
    for tree_name in ("src", "tests", "benchmarks", "examples"):
        for path in sorted((REPO_ROOT / tree_name).rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            if not INDENTED_IMPORT.search(source):
                continue
            module = ast.parse(source, filename=str(path))
            for function in ast.walk(module):
                if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                used, imports = set(), []
                for node in ast.walk(function):
                    if isinstance(node, ast.Name):
                        used.add(node.id)
                    elif isinstance(node, (ast.Import, ast.ImportFrom)):
                        imports.append(node)
                for statement in imports:
                    for alias in statement.names:
                        bound = alias.asname or alias.name.split(".")[0]
                        if bound != "*" and bound not in used:
                            relative = path.relative_to(REPO_ROOT)
                            found.append(f"{relative}:{statement.lineno} {bound}")
    return sorted(set(found))


def test_every_function_scope_import_is_used():
    assert _unused_function_scope_imports() == []
