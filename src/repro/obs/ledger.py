"""The persistent run ledger: an append-only JSONL campaign history.

Every ``reproduce`` / ``compare`` / bench run appends one JSON object per
(strategy, case) cell to ``benchmarks/out/ledger.jsonl``.  Entries are
schema-versioned and keyed by ``(git_sha, case_id, strategy, seed,
jobs)`` so trends survive one-shot table files: the HTML report reads
them back to plot success and wall-clock trajectories across commits.

Versioning rules (see DESIGN.md §7.2):

* every entry carries ``schema``; writers always stamp the current
  :data:`SCHEMA_VERSION`;
* readers must *skip* (never fail on) blank lines, malformed JSON, and
  entries whose ``schema`` is newer than they understand — an append-only
  file shared across versions is only useful if old readers degrade
  gracefully;
* fields are only ever added, never renamed or repurposed, within one
  schema version.

Like the rest of ``repro.obs``, this module imports nothing from sibling
``repro`` packages; entries are built from duck-typed outcome objects.
"""

from __future__ import annotations

import datetime
import json
import os
import warnings
from typing import Iterable, Optional

SCHEMA_VERSION = 1

#: Default ledger location, shared with the bench outputs.
_REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "..")
)
DEFAULT_PATH = os.path.join(_REPO_ROOT, "benchmarks", "out", "ledger.jsonl")

_GIT_SHA: Optional[str] = None


def _read_head_sha() -> Optional[str]:
    """HEAD's SHA read from the enclosing ``.git`` directory (loose ref
    or ``packed-refs``); ``""`` when no ancestor holds one, ``None`` when
    the layout is another (a worktree's ``.git`` file) and git must be asked."""
    root = _REPO_ROOT
    while not os.path.exists(os.path.join(root, ".git")):
        parent = os.path.dirname(root)
        if parent == root:
            return ""
        root = parent
    git_dir = os.path.join(root, ".git")
    sha = None
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="ascii") as handle:
            sha = handle.read().strip()
        if sha.startswith("ref: "):
            ref, sha = sha[len("ref: "):], None
            try:
                with open(os.path.join(git_dir, ref), encoding="ascii") as handle:
                    sha = handle.read().strip()
            except FileNotFoundError:
                with open(os.path.join(git_dir, "packed-refs")) as handle:
                    for line in handle:
                        if line.rstrip().endswith(" " + ref):
                            sha = line.split()[0]
        int(sha, 16)
    except (OSError, ValueError, TypeError):
        return None
    return sha if len(sha) >= 40 else None


def git_sha() -> str:
    """Best-effort short SHA of the checked-out commit (cached).

    Read from ``.git`` directly (seven digits, git's default
    abbreviation); ``git rev-parse`` is only the fallback.  ``"unknown"``
    outside a git checkout, so the ledger still works from an installed
    package or an exported tree.
    """
    global _GIT_SHA
    if _GIT_SHA is None:
        sha = _read_head_sha()
        if sha is None:
            import subprocess

            try:
                sha = subprocess.run(
                    ["git", "rev-parse", "--short", "HEAD"], cwd=_REPO_ROOT,
                    capture_output=True, text=True, timeout=5, check=True,
                ).stdout.strip()
            except (OSError, subprocess.SubprocessError):
                sha = ""
        _GIT_SHA = sha[:7] or "unknown"
    return _GIT_SHA


def default_path() -> str:
    return DEFAULT_PATH


def make_entry(
    *,
    case_id: str,
    strategy: str,
    success: bool,
    rounds: int,
    seconds: float,
    seed: int = 0,
    jobs: int = 1,
    coverage: Optional[dict] = None,
    metrics: Optional[dict] = None,
    sha: Optional[str] = None,
    params: Optional[dict] = None,
    served: bool = False,
) -> dict:
    """One schema-versioned ledger entry (a plain JSON-able dict);
    ``params`` is the search's resolved ``SearchParams`` as a dict.
    ``served`` marks a cell read back from the run cache: its
    ``seconds`` are the computing run's, not a new measurement."""
    entry = {
        "schema": SCHEMA_VERSION,
        "recorded_at": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "git_sha": git_sha() if sha is None else sha,
        "case_id": case_id,
        "strategy": strategy,
        "seed": int(seed),
        "jobs": int(jobs),
        "success": bool(success),
        "rounds": int(rounds),
        "seconds": round(float(seconds), 6),
    }
    if coverage:
        entry["coverage"] = coverage
    if metrics:
        entry["metrics"] = {
            key: round(value, 9) if isinstance(value, float) else value
            for key, value in sorted(metrics.items())
        }
    if params:
        entry["params"] = params
    if served:
        entry["served"] = True
    return entry


def entry_from_outcome(
    outcome,
    *,
    strategy: str,
    seed: int = 0,
    jobs: int = 1,
    sha: Optional[str] = None,
) -> dict:
    """Build an entry from a ``CellOutcome``-like object (anything with
    ``case_id``/``success``/``rounds``/``seconds``)."""
    return make_entry(
        case_id=outcome.case_id,
        strategy=strategy,
        success=outcome.success,
        rounds=outcome.rounds,
        seconds=outcome.seconds,
        seed=seed,
        jobs=jobs,
        coverage=getattr(outcome, "coverage", None),
        metrics=getattr(outcome, "metrics", None),
        sha=sha,
        params=getattr(outcome, "params", None),
        served=getattr(outcome, "served", False),
    )


def entry_key(entry: dict) -> tuple:
    """The identity a ledger entry is keyed by."""
    return (
        entry.get("git_sha", "unknown"),
        entry.get("case_id", ""),
        entry.get("strategy", ""),
        entry.get("seed", 0),
        entry.get("jobs", 1),
    )


def compaction_key(entry: dict) -> tuple:
    """The identity compaction retires duplicates within.

    Deliberately *excludes* ``git_sha`` (unlike :func:`entry_key`): the
    ledger grows one batch per commit under CI cache restores, so a
    per-commit key would never retire anything.  Keeping the last N per
    ``(case_id, strategy, seed, jobs)`` preserves a bounded trend window
    across commits — exactly what the report sparklines consume.
    """
    return (
        entry.get("case_id", ""),
        entry.get("strategy", ""),
        entry.get("seed", 0),
        entry.get("jobs", 1),
    )


def compact_entries(entries: list[dict], keep_last: int = 20) -> list[dict]:
    """Keep the last ``keep_last`` entries per :func:`compaction_key`.

    Order is preserved; the newest entries win (the ledger is
    append-only, so later lines are newer).
    """
    keep_last = max(int(keep_last), 1)
    seen: dict[tuple, int] = {}
    kept_reversed: list[dict] = []
    for entry in reversed(entries):
        key = compaction_key(entry)
        count = seen.get(key, 0)
        if count < keep_last:
            seen[key] = count + 1
            kept_reversed.append(entry)
    return kept_reversed[::-1]


def rewrite_entries(entries: Iterable[dict], path: Optional[str] = None) -> str:
    """Atomically replace the ledger's contents (compaction's writer).

    Writes a sibling temp file and ``os.replace``\\ s it over the ledger,
    so a concurrent tolerant reader sees either the old file or the new
    one — never a torn half-rewrite.
    """
    if path is None:
        path = default_path()
    directory = os.path.dirname(os.path.abspath(path))
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        for entry in entries:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
    os.replace(tmp_path, path)
    return path


def append_entries(entries: Iterable[dict], path: Optional[str] = None) -> str:
    """Append entries (one JSON line each), creating parent directories.

    Growth is capped offline, by ``tools/compact_ledger.py``.
    """
    if path is None:
        path = default_path()
    directory = os.path.dirname(os.path.abspath(path))
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        for entry in entries:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return path


def parse_jsonl_line(line: str, schema_version: int) -> Optional[dict]:
    """One tolerant-reader step: the object on ``line``, or ``None`` when
    it is malformed JSON, not an object, or carries an unusable or newer
    ``schema`` than ``schema_version``."""
    try:
        entry = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(entry, dict):
        return None
    try:
        schema = int(entry.get("schema", 0))
    except (TypeError, ValueError):
        # valid JSON, unusable schema tag (null, "two", ...)
        return None
    return entry if schema <= schema_version else None


def read_jsonl(path: str, schema_version: int, noun: str) -> list[dict]:
    """Load a schema-versioned JSONL file tolerantly.

    Blank lines are skipped silently; lines :func:`parse_jsonl_line`
    rejects are skipped and counted, with one aggregate warning naming
    them ``noun`` lines.  A missing file reads as empty.
    """
    entries: list[dict] = []
    skipped = 0
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if not line.strip():
                    continue
                entry = parse_jsonl_line(line, schema_version)
                if entry is None:
                    skipped += 1
                else:
                    entries.append(entry)
    except OSError:
        return []
    if skipped:
        warnings.warn(
            f"{path}: skipped {skipped} unreadable or newer-schema {noun} "
            f"line(s)",
            RuntimeWarning,
            stacklevel=3,
        )
    return entries


def read_entries(path: Optional[str] = None) -> list[dict]:
    """Load ledger entries tolerantly (:func:`read_jsonl`), per the
    versioning rules above."""
    return read_jsonl(
        default_path() if path is None else path, SCHEMA_VERSION, "ledger"
    )
