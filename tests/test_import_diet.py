"""The import diet: a process loads only what its command executes.

Every ``python -m repro`` process compiles the modules it imports from
source (the bench host sets ``PYTHONDONTWRITEBYTECODE=1``), so what
``import repro.__main__`` drags in is a fixed cost under every campaign.
The modules in ``LAZY`` serve single commands (``report``, ``watch``,
``trace``/``explain``, ``lint``), the ``--jobs N`` pools, the fork
machinery no search uses, or nothing on the hot path; they must stay out of ``sys.modules`` until used — while
every public import path keeps resolving.  ``DENIED`` is what ``list``,
``--help`` and ``import repro`` must not load at all: the search stack,
the campaign engine and every case module (the catalog index answers
them).  ``SERVED_DENIED`` is what a ``compare`` whose every cell the
run cache serves must not load, at any ``--jobs``, nor a ``reproduce``
whose one cell it serves: they read cells through the catalog index,
``core.params``, the run cache, ``obs`` and the table printer, and
compute nothing.  This module is that gate;
CI's bench job only prints the ten most expensive imports of ``list``.
"""

import importlib
import json
import os
import re
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
    "repro.sim.checkpoint",
    "concurrent.futures",
    "html",
    "statistics",
    "subprocess",
]


DENIED = re.compile(
    r"repro\.((core|sim|analysis|systems|injection|cache|obs|logs|baselines)(\.|$)"
    r"|bench\.(harness|parallel)$|failures\.(case|zk|hdfs|hbase|kafka|cassandra)$)"
)
CASE_MODULES = [f"repro.failures.{name}" for name in ("zk", "hdfs", "hbase", "kafka", "cassandra")]
SERVED_DENIED = re.compile(
    r"repro\.((sim|systems|analysis|baselines|injection|logs)(\.|$)"
    r"|core\.explorer$|bench\.harness$|obs\.(coverage|null)$"
    r"|failures\.(case|zk|hdfs|hbase|kafka|cassandra)$)"
    r"|concurrent\.futures(\.|$)"
)


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
        "import repro.sim\n"
        "from repro.sim import CheckpointPool, snapshot_fingerprint\n"
        "from repro.sim.checkpoint import CheckpointPool as pool, checkpoint_supported\n"
        "missing = [n for m in (repro, repro.obs, repro.core, repro.analysis, repro.bench,\n"
        "                       repro.sim)\n"
        "           for n in m.__all__ if not hasattr(m, n)]\n"
        "try:\n"
        "    repro.obs.no_such_name\n"
        "except AttributeError as error:\n"
        "    message = str(error)\n"
        "print(json.dumps({'missing': missing, 'same': same is NULL_RECORDER,\n"
        "    'direct': direct is TraceRecorder is repro.obs.TraceRecorder,\n"
        "    'rules': len(registered_rules()) > 0, 'message': message,\n"
        "    'submodule': repro.obs.trace.__name__,\n"
        "    'pool': pool is CheckpointPool is repro.sim.CheckpointPool}))"
    )
    assert resolved == {
        "missing": [],
        "same": True,
        "direct": True,
        "rules": True,
        "message": "module 'repro.obs' has no attribute 'no_such_name'",
        "submodule": "repro.obs.trace",
        "pool": True,
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


def imported_by(*argv) -> list:
    """Every module ``python -X importtime ARGV`` imports, in order."""
    finished = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    rows = [line.rsplit("|", 1)[1].strip() for line in finished.stderr.splitlines()
            if line.startswith("import time:")]
    return rows[1:]  # past the header row


@pytest.mark.parametrize(
    "argv",
    [["-m", "repro", "list"], ["-m", "repro", "--help"], ["-c", "import repro"]],
    ids=["list", "help", "import-repro"],
)
def test_the_cheapest_commands_load_nothing_on_the_deny_list(argv):
    modules = imported_by(*argv)
    assert "repro" in modules
    assert [name for name in modules if DENIED.match(name)] == []


def loaded_case_modules(statement: str) -> list:
    return fresh_interpreter(
        f"import json, sys\n{statement}\n"
        f"print(json.dumps([name for name in {CASE_MODULES!r} if name in sys.modules]))"
    )


def test_get_case_imports_exactly_one_case_module():
    assert loaded_case_modules(
        "from repro.failures import get_case\nassert get_case('f1').case_id == 'f1'"
    ) == ["repro.failures.zk"]


def test_an_unknown_id_raises_before_any_case_module_loads():
    assert loaded_case_modules(
        "from repro.failures import UnknownCaseError, get_case\n"
        "try:\n    get_case('f99')\n"
        "except UnknownCaseError as error:\n    assert error.args == ('f99',)\n"
        "else:\n    raise AssertionError('f99 resolved')"
    ) == []


@pytest.mark.parametrize("command", ["compare", "analyze"])
def test_an_unknown_id_in_a_list_is_rejected_from_the_index(command):
    loaded = loaded_case_modules(
        "import contextlib, io\nimport repro.__main__ as cli\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stderr(err):\n"
        f"    assert cli.main([{command!r}, 'f1,fX', '--no-cache']) == 2\n"
        "assert err.getvalue().splitlines()[-1] == \"error: unknown case id 'fX'\""
    )
    assert loaded == []


def test_a_case_registered_at_run_time_resolves():
    resolved = fresh_interpreter(
        "import dataclasses, json\n"
        "from repro.failures import INDEX, all_cases, get_case, register\n"
        "extra = register(dataclasses.replace(\n"
        "    get_case('f1'), case_id='f99', issue='ZK-99', title='run-time case'))\n"
        "ids = [case.case_id for case in all_cases()]\n"
        "print(json.dumps({'same': get_case('f99') is extra, 'last': ids[-1],\n"
        "    'count': len(ids), 'issue': extra.issue, 'indexed': 'f99' in INDEX}))"
    )
    assert resolved == {
        "same": True, "last": "f99", "count": 28, "issue": "ZK-99", "indexed": False,
    }


def test_a_campaign_cell_imports_nothing_the_parent_did_not_load(tmp_path):
    """``compare --jobs 2`` forks its workers after its set-up: a module a
    cell imported first would be compiled once per worker.  Run the
    command up to the fan-out — the pool ``run_tasks`` builds for the
    cells it could not serve — then one cell inline in its place."""
    new = fresh_interpreter(
        "import concurrent.futures, json, sys\n"
        "import repro.__main__ as cli\n"
        "from repro.bench import parallel\n"
        "class Pool:\n"
        "    def __init__(self, *args, **kwargs):\n"
        "        before = set(sys.modules)\n"
        "        parallel.execute_task(parallel.CampaignTask.anduril('f1', max_rounds=1))\n"
        "        print(json.dumps(sorted(set(sys.modules) - before)))\n"
        "        raise SystemExit(0)\n"
        "concurrent.futures.ProcessPoolExecutor = Pool\n"
        f"cli.main(['compare', 'f1,f24', '--jobs', '2', '--cache-dir', {str(tmp_path)!r},\n"
        f"          '--events-out', {str(tmp_path / 'events.jsonl')!r}, '--no-ledger'])"
    )
    assert [name for name in new if name.startswith("repro")] == []


def test_a_pool_forks_after_the_parent_loaded_what_its_cells_run(tmp_path):
    """``compare --jobs 2`` builds its pool only once the parent holds the
    Explorer, every listed case's module and the package digest that
    names served cells: each forked worker inherits them instead of
    compiling or reading them again."""
    preloaded = fresh_interpreter(
        "import concurrent.futures, json, sys\n"
        "import repro.__main__ as cli\n"
        "from repro.cache import runcache\n"
        "class Pool:\n"
        "    def __init__(self, *args, **kwargs):\n"
        "        wanted = ['repro.core.explorer', 'repro.failures.zk', 'repro.failures.kafka']\n"
        "        print(json.dumps({'loaded': [n for n in wanted if n in sys.modules],\n"
        "            'digest': runcache._PACKAGE in runcache._DIGESTS}))\n"
        "        raise SystemExit(0)\n"
        "concurrent.futures.ProcessPoolExecutor = Pool\n"
        f"cli.main(['compare', 'f1,f24', '--jobs', '2', '--cache-dir', {str(tmp_path)!r},\n"
        "          '--no-events', '--no-ledger'])"
    )
    assert preloaded == {
        "loaded": ["repro.core.explorer", "repro.failures.zk", "repro.failures.kafka"],
        "digest": True,
    }


SERVED_CASES = "f1,f11,f14,f24,f21"


@pytest.fixture(scope="module")
def served_cache(tmp_path_factory):
    """A cache directory holding every cell of ``compare SERVED_CASES``."""
    directory = tmp_path_factory.mktemp("served")
    subprocess.run(
        [sys.executable, "-m", "repro", "compare", SERVED_CASES, "--jobs", "1",
         "--no-events", "--no-ledger", "--cache-dir", str(directory)],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        cwd=ROOT, check=True, capture_output=True, timeout=600,
    )
    return directory


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("cases", ["f21", SERVED_CASES], ids=["one-case", "five-case"])
def test_a_served_campaign_loads_no_case_search_or_kernel_module(
    served_cache, cases, jobs
):
    """Every cell served: the campaign is an index read, at any --jobs."""
    loaded = fresh_interpreter(
        "import contextlib, io, json, sys\n"
        "import repro.__main__ as cli\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
        f"    assert cli.main(['compare', {cases!r}, '--jobs', {jobs!r}, '--no-events',\n"
        f"                     '--no-ledger', '--cache-dir', {str(served_cache)!r}]) == 0\n"
        "print(json.dumps({'served': err.getvalue().splitlines()[-1],\n"
        "                  'modules': sorted(sys.modules)}))"
    )
    cells = 10 * len(cases.split(","))
    assert loaded["served"] == f"[cells: {cells} served from the cache]"
    assert [name for name in loaded["modules"] if SERVED_DENIED.match(name)] == []


def test_a_served_reproduce_loads_no_case_search_or_kernel_module(tmp_path):
    """``reproduce`` is a one-cell campaign: run again on its cache
    directory, it is served like ``compare`` and loads as little."""
    argv = ["reproduce", "f1", "--no-events", "--no-ledger", "--cache-dir", str(tmp_path)]
    subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        cwd=ROOT, check=True, capture_output=True, timeout=600,
    )
    loaded = fresh_interpreter(
        "import contextlib, io, json, sys\n"
        "import repro.__main__ as cli\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
        f"    assert cli.main({argv!r}) == 0\n"
        "print(json.dumps({'served': err.getvalue().splitlines()[-1],\n"
        "                  'modules': sorted(sys.modules)}))"
    )
    assert loaded["served"] == "[cells: 1 served from the cache]"
    assert [name for name in loaded["modules"] if SERVED_DENIED.match(name)] == []


def test_the_cell_module_alone_loads_only_the_search_parameters():
    loaded = fresh_interpreter(
        "import json, sys\n"
        "import repro.bench.cell\n"
        "print(json.dumps(sorted(name for name in sys.modules if name.startswith('repro'))))"
    )
    packages = ["repro", "repro._lazy", "repro.bench", "repro.core"]
    assert loaded == sorted([*packages, "repro.bench.cell", "repro.core.params"])
