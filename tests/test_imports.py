"""Everything imports, every example loads, and the simulator-only examples run.

The fast tier's stand-in for a linter (neither ``ruff`` nor ``pyflakes`` ships
in every sandbox this repo is built in): a name deleted from ``src/`` that some
module, example or lazily imported driver still references fails here instead
of in whichever command happens to reach it first.  The byte-compile half is
``python -m compileall -q src tests benchmarks examples`` (CI runs both).
"""

from __future__ import annotations

import importlib
import os
import pathlib
import pkgutil
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


@pytest.mark.parametrize("name", ["cluster_performance_study", "pipeline_schedule_visualization"])
def test_simulator_only_example_runs(name, monkeypatch, capsys):
    path = REPO_ROOT / "examples" / f"{name}.py"
    monkeypatch.setattr(sys, "argv", [path.name])
    runpy.run_path(str(path), run_name="not_main")["main"]()
    assert len(capsys.readouterr().out.splitlines()) > 10
