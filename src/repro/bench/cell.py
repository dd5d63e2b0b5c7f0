"""A campaign cell, named and reported (DESIGN §5.3, §8.1).

This module imports nothing from ``repro`` but :mod:`repro.core.params`:
a campaign that only reads stored cells names, unpickles and renders
them without loading a case, a search or the simulator.  The defaults
of ``run_anduril`` and ``run_baseline`` (:mod:`repro.bench.harness`)
are written here, once, and a :class:`CampaignTask` fills them in.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..core.params import SearchParams

#: Every strategy ``compare`` runs beside ANDURIL, in table order: the
#: keys of ``repro.baselines.ALL_STRATEGIES``.
STRATEGIES = (
    "exhaustive",
    "fault-site-distance",
    "fault-site-distance-limit",
    "fault-site-feedback",
    "multiply-feedback",
    "fate",
    "crashtuner",
    "stacktrace",
    "random",
)

#: ``run_anduril``'s search: coverage also over the statically pruned space.
ANDURIL_PARAMS = SearchParams(prune="static")

#: ``run_anduril``'s keyword defaults.  ``checkpoint`` and
#: ``early_verdict`` are accepted and ignored (DESIGN §5.3).
ANDURIL_DEFAULTS = dict(
    max_rounds=600, max_seconds=60.0, profile=False, params=ANDURIL_PARAMS,
    checkpoint=False, early_verdict=False,
)

#: ``run_baseline``'s keyword defaults.
BASELINE_DEFAULTS = dict(
    max_rounds=300, max_seconds=8.0, checkpoint=False, early_verdict=False,
    params=SearchParams(),
)


@dataclasses.dataclass(frozen=True)
class CampaignTask:
    """One independent cell of a campaign: a strategy applied to a case.

    ``strategy`` is ``"anduril"`` for ANDURIL itself, as on the
    :class:`CellOutcome` it makes.  A task spells the
    ``run_anduril``/``run_baseline`` call it stands for one way, defaults
    filled in and other keywords sorted: one search, one cell (DESIGN §8.1).
    """

    case_id: str
    strategy: str
    params: SearchParams
    max_rounds: int
    max_seconds: Optional[float]
    profile: bool = False
    options: tuple = ()

    @classmethod
    def anduril(cls, case_id: str, **options) -> "CampaignTask":
        return cls._of(case_id, "anduril", ANDURIL_DEFAULTS, options)

    @classmethod
    def baseline(cls, name: str, case_id: str, **options) -> "CampaignTask":
        return cls._of(case_id, name, BASELINE_DEFAULTS, options)

    @classmethod
    def _of(cls, case_id, strategy, defaults, options) -> "CampaignTask":
        """The task for a runner with keyword ``defaults`` called with
        ``options``: every default filled in, the keywords the runner
        ignores dropped, and the rest (its ``**options``) split into
        search parameters and sorted others."""
        given = dict(defaults, **options)
        named = {name: given.pop(name) for name in defaults}
        params, rest = SearchParams.split(given, named["params"])
        seconds = named["max_seconds"]  # a budget of 60 and of 60.0 is one
        return cls(
            case_id, strategy, params, named["max_rounds"],
            None if seconds is None else float(seconds),
            named.get("profile", False), tuple(sorted(rest.items())),
        )


@dataclasses.dataclass
class CellOutcome:
    """One campaign cell: a strategy (``"anduril"`` for ANDURIL) on a case."""

    strategy: str
    case_id: str
    success: bool
    rounds: int
    seconds: float
    rank_trajectory: list[tuple[int, int]]
    median_requests: int
    median_init_ms: float
    median_workload_ms: float
    #: Fault-space coverage accounting dict.
    coverage: dict
    #: Why the search stopped (``ExplorationResult.message``).
    message: str = ""
    #: ANDURIL's prepare step (Tables 4/8); 0.0 on baseline cells.
    prepare_seconds: float = 0.0
    #: The search's resolved ``SearchParams`` as a dict.
    params: dict = dataclasses.field(default_factory=dict)
    #: The case's seed, which the ledger keys entries by.
    seed: int = 0
    #: Mean FIR decision latency in µs, reported by the ``repro.obs``
    #: metrics layer; 0.0 unless the run was profiled (see ``profile``).
    mean_decision_us: float = 0.0
    #: Flat ``repro.obs`` metrics dict (empty unless profiled).
    metrics: dict = dataclasses.field(default_factory=dict)
    #: This cell's :func:`repro.obs.metrics.capture` envelope — counter
    #: and histogram movement, plus the bus events captured when a pool
    #: worker ran it — attached where the cell was computed
    #: (``execute_task``) or served (``run_tasks``), so a campaign parent
    #: can merge it.  Per-cell runner stats are
    #: ``runner_stats(telemetry["counters"])``.
    telemetry: dict = dataclasses.field(default_factory=dict)
    #: Read from the run cache's ``cells`` tier rather than computed:
    #: set by the lookup, never stored, and no part of the outcome.
    served: bool = dataclasses.field(default=False, compare=False)

    @property
    def cell(self) -> str:
        return f"{self.rounds}/{self.seconds:.1f}s" if self.success else "-"

    @property
    def deterministic_cell(self) -> str:
        """Wall-clock-free cell — byte-identical across runs and job counts."""
        return str(self.rounds) if self.success else "-"
