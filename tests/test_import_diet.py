"""The import diet: a process loads only what its command executes.

Every ``python -m repro`` process compiles the modules it imports from
source (the bench host sets ``PYTHONDONTWRITEBYTECODE=1``), so what
``import repro.__main__`` drags in is a fixed cost under every campaign.
The modules below serve single commands (``report``, ``watch``,
``trace``/``explain``, ``lint``), the ``--jobs N`` pools, or nothing on
the hot path; they must stay out of ``sys.modules`` until used — while
every public import path keeps resolving.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LAZY = [
    "repro.obs.report",
    "repro.obs.watch",
    "repro.obs.trace",
    "repro.obs.provenance",
    "repro.analysis.lint",
    "repro.analysis.rules",
    "repro.analysis.rules.base",
    "repro.core.iterative",
    "repro.bench.summary",
    "concurrent.futures",
    "html",
    "statistics",
    "subprocess",
]


def fresh_interpreter(code: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    finished = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
        capture_output=True, text=True, timeout=120,
    )
    return json.loads(finished.stdout.strip().splitlines()[-1])


def loaded_after(statement: str) -> list:
    return fresh_interpreter(
        f"import json, sys\n{statement}\n"
        f"print(json.dumps([name for name in {LAZY!r} if name in sys.modules]))"
    )


def test_importing_the_cli_loads_none_of_the_lazy_modules():
    assert loaded_after("import repro.__main__") == []


@pytest.mark.parametrize(
    "argv",
    [
        ["list"],
        ["compare", "f1", "--jobs", "1", "--max-rounds", "3", "--no-cache",
         "--no-events", "--no-ledger"],
    ],
    ids=["list", "compare-jobs-1"],
)
def test_a_command_imports_only_what_it_executes(argv):
    loaded = loaded_after(
        "import contextlib, io\nimport repro.__main__ as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0"
    )
    assert loaded == []


def test_public_import_paths_still_resolve():
    resolved = fresh_interpreter(
        "import json, sys\n"
        "from repro import Explorer, TraceRecorder, IterativeExplorer\n"
        "import repro, repro.obs, repro.core, repro.analysis, repro.bench\n"
        "from repro.obs import NULL_RECORDER, WALL, Span, build_plan_provenance, write_report\n"
        "from repro.obs import watch, report\n"
        "from repro.obs.trace import NULL_RECORDER as same, NullRecorder, TraceRecorder as direct\n"
        "from repro.core import IterativeResult\n"
        "from repro.analysis import lint_package, registered_rules, Finding\n"
        "from repro.bench import record_outcome, write_bench_summary\n"
        "missing = [n for m in (repro, repro.obs, repro.core, repro.analysis, repro.bench)\n"
        "           for n in m.__all__ if not hasattr(m, n)]\n"
        "try:\n"
        "    repro.obs.no_such_name\n"
        "except AttributeError as error:\n"
        "    message = str(error)\n"
        "print(json.dumps({'missing': missing, 'same': same is NULL_RECORDER,\n"
        "    'direct': direct is TraceRecorder is repro.obs.TraceRecorder,\n"
        "    'rules': len(registered_rules()) > 0, 'message': message,\n"
        "    'submodule': repro.obs.trace.__name__}))"
    )
    assert resolved == {
        "missing": [],
        "same": True,
        "direct": True,
        "rules": True,
        "message": "module 'repro.obs' has no attribute 'no_such_name'",
        "submodule": "repro.obs.trace",
    }


def test_round_level_speculation_left_no_module_behind():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.core.speculate")


def test_lint_help_still_lists_the_rule_catalog():
    finished = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--help"],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    assert "(default: all of abort-on-handled, await-under-lock," in " ".join(
        finished.stdout.split()
    )
