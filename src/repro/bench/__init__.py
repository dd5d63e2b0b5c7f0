"""Experiment harness: run strategies over the failure dataset and format
paper-style tables, serially or fanned out across worker processes."""

from .._lazy import lazy_exports
from .harness import (
    AndurilOutcome,
    StrategyOutcome,
    run_anduril,
    run_baseline,
)
from .parallel import (
    CampaignTask,
    inline_fallback_count,
    resolve_jobs,
    run_anduril_many,
    run_baseline_many,
    run_compare_campaign,
    run_tasks,
)
from .tables import format_table, write_table

__getattr__ = lazy_exports(
    __name__,
    {"record_outcome": ".summary", "write_bench_summary": ".summary"},
    submodules=("summary",),
)

__all__ = [
    "AndurilOutcome",
    "CampaignTask",
    "StrategyOutcome",
    "format_table",
    "inline_fallback_count",
    "record_outcome",
    "resolve_jobs",
    "run_anduril",
    "run_anduril_many",
    "run_baseline",
    "run_baseline_many",
    "run_compare_campaign",
    "run_tasks",
    "write_bench_summary",
    "write_table",
]
