"""Cache keys cover the code a run executes: an edit to a mini system
(or the simulator, the injection layer, the workload's own module) —
committed or not — must turn every cached run of it into a miss.
"""

import os
import pathlib
import shutil
import subprocess
import sys

import repro
from repro.cache import runcache


def test_fingerprint_covers_the_workload_module_and_the_run_code(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(tmp_path))
    module = tmp_path / "fingerprinted_workloads.py"
    module.write_text("def drive(cluster):\n    pass\n\ndef other(cluster):\n    pass\n")
    import fingerprinted_workloads as workloads

    def fresh(workload):
        """The fingerprint a new process would compute."""
        runcache._DIGESTS.clear()
        runcache._FINGERPRINTS.clear()
        return runcache.workload_fingerprint(workload)

    before = fresh(workloads.drive)
    assert before == fresh(workloads.drive) != fresh(workloads.other)
    # An edit anywhere in the defining module (an oracle, a helper) ...
    module.write_text(module.read_text() + "\nLIMIT = 3\n")
    edited = fresh(workloads.drive)
    assert edited != before
    # ... or in what every run executes: here a copy of the injection
    # layer with one more line.
    package = tmp_path / "repro"
    shutil.copytree(
        pathlib.Path(repro.__file__).parent / "injection", package / "injection",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    for part in ("systems", "sim", "logs"):
        (package / part).mkdir()
    (package / "logs" / "record.py").write_text("")
    monkeypatch.setattr(runcache, "_PACKAGE", str(package))
    relocated = fresh(workloads.drive)
    with open(package / "injection" / "fir.py", "a") as handle:
        handle.write("\n# edited\n")
    assert fresh(workloads.drive) != relocated
    runcache._DIGESTS.clear()
    runcache._FINGERPRINTS.clear()


def test_an_edited_mini_system_misses_in_a_fresh_interpreter(tmp_path):
    """ROADMAP item 8's reproduction: fill a cache, make f1's ground-truth
    site unreachable, run again — the cache must answer as ``--no-cache``
    does, not with the previous build's runs."""
    tree = tmp_path / "tree"
    shutil.copytree(
        pathlib.Path(repro.__file__).parent, tree / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    cache_flags = ["--cache-dir", str(tmp_path / "cache")]

    def reproduce(*flags):
        return subprocess.run(
            [sys.executable, "-m", "repro", "reproduce", "f1",
             "--no-ledger", "--no-events", *flags],
            env={**os.environ, "PYTHONPATH": str(tree)}, cwd=tmp_path,
            capture_output=True, text=True, timeout=120,
        )

    cold = reproduce(*cache_flags)
    assert cold.returncode == 0 and "reproduced in 1 rounds" in cold.stdout
    warm = reproduce(*cache_flags)
    assert warm.stdout == cold.stdout and " 0 miss(es)" in warm.stderr

    txnlog = tree / "repro" / "systems" / "minizk" / "txnlog.py"
    source = txnlog.read_text()
    reachable = "        self.env.disk_append(self.path, payload)\n"
    assert source.count(reachable) == 1
    txnlog.write_text(source.replace(
        reachable, "        if self.count < 0:\n    " + reachable
    ))
    uncached = reproduce("--no-cache")
    assert uncached.returncode != 0
    assert "ground-truth instance did not fire" in uncached.stderr
    edited = reproduce(*cache_flags)
    assert edited.returncode == uncached.returncode
    assert edited.stdout == uncached.stdout
    assert edited.stderr.splitlines()[-1] == uncached.stderr.splitlines()[-1]
