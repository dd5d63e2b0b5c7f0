"""Experiment harness: run strategies over the failure dataset and format
paper-style tables, serially or fanned out across worker processes.
Every export loads its module on first use."""

from .._lazy import lazy_exports

_EXPORTS = {
    ".cell": ("CampaignTask", "CellOutcome"),
    ".harness": ("run_anduril", "run_baseline"),
    ".parallel": (
        "inline_fallback_count", "resolve_jobs", "run_anduril_many",
        "run_compare_campaign", "run_tasks",
    ),
    ".summary": ("record_outcome", "write_bench_summary"),
    ".tables": ("format_table", "write_table"),
}
__getattr__ = lazy_exports(__name__, _EXPORTS, submodules=("summary",))
__all__ = sorted(name for names in _EXPORTS.values() for name in names)
