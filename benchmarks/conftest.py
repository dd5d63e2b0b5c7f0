"""Shared fixtures for the experiment benchmarks.

Each benchmark regenerates one table or figure of the paper; expensive
shared artifacts (the ANDURIL runs over all 22 cases) are computed once
per session and reused.  The campaign fans out across one worker process
per usable core, and its per-case outcomes are written to
``benchmarks/out/bench_summary.json`` at session end for ``repro report``.
"""

import pytest

from repro.bench import resolve_jobs, run_anduril_many
from repro.bench import summary as bench_summary
from repro.failures import get_case, paper_cases
from repro.obs import ledger


@pytest.fixture(scope="session")
def cases():
    return paper_cases()


_ANDURIL_CACHE = {}


@pytest.fixture(scope="session")
def anduril_outcomes(cases):
    """ANDURIL (full feedback) outcome per case, computed once.

    Profiled so Table 4's decision-latency column reports measured
    values; the search outcomes themselves are profile-invariant.
    """
    if not _ANDURIL_CACHE:
        for outcome in run_anduril_many(cases, profile=True):
            _ANDURIL_CACHE[outcome.case_id] = outcome
            bench_summary.record_outcome(outcome)
    return dict(_ANDURIL_CACHE)


def pytest_sessionfinish(session, exitstatus):
    """Persist the campaign summary for ``repro report``, and append the
    session's ANDURIL outcomes to the run ledger."""
    if bench_summary.collected_case_count():
        path = bench_summary.write_bench_summary()
        print(f"\n[bench summary saved to {path}]")
    if _ANDURIL_CACHE:
        jobs = resolve_jobs(None)
        entries = [
            ledger.entry_from_outcome(
                outcome,
                strategy="anduril",
                seed=get_case(case_id).seed,
                jobs=jobs,
            )
            for case_id, outcome in sorted(_ANDURIL_CACHE.items())
        ]
        ledger_path = ledger.append_entries(entries)
        print(f"[run ledger: {len(entries)} entries appended to {ledger_path}]")


def emit(name: str, content: str) -> None:
    """Print a rendered table and persist it under benchmarks/out/."""
    from repro.bench import write_table

    print()
    print(content)
    path = write_table(name, content)
    print(f"[saved to {path}]")
