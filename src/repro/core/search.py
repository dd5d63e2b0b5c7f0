"""The round loop (§3 steps 3–5, Algorithm 2): the only one in the tree.

Each round arms a window of fault instances, runs the workload under that
plan, asks the oracle, and hands the outcome back to whoever chose the
window.  :func:`search` owns what every way of choosing shares: budgets,
plan, run, oracle call, bus events, coverage, trace spans, round records.
What differs is a *policy* (DESIGN §5.5) — ANDURIL's
:class:`~repro.core.explorer.FeedbackPolicy`, or a baseline
:class:`~repro.baselines.base.Strategy` — duck-typed as a bus ``name`` and

``window() -> list[FaultInstance]``
    what to arm, best first; empty means the fault space is exhausted.
    Called exactly once per round.
``feedback(window, result, injected, satisfied) -> int``
    the round's outcome, oracle verdict included (``injected`` is ``None``
    on a dry round): mark what was tried, re-rank, and return how many
    relevant observables the run produced.
``rank()``
    the ground-truth site's rank under the current ordering, or ``None``.
``entries``
    the ``WindowEntry`` rows behind the last window, for plan provenance;
    ``()`` when the policy keeps none.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Optional

from ..injection.fir import InjectionPlan, dedupe_instances
from ..injection.sites import FaultInstance
from ..obs import WALL
from ..obs.bus import RoundReporter
from ..obs.coverage import CoverageSummary
from ..sim.cluster import RunResult
from .report import ReproductionScript


#: The message of a search stopped by its time budget: the one outcome
#: that depends on the host, not only on (case, seed, search parameters).
OUT_OF_TIME = "time budget exhausted"


@dataclasses.dataclass
class RoundRecord:
    round_number: int
    window_size: int
    injected: Optional[FaultInstance]
    satisfied: bool
    root_site_rank: Optional[int]
    init_seconds: float
    workload_seconds: float
    injection_requests: int
    decision_seconds: float
    present_observables: int = 0


@dataclasses.dataclass
class ExplorationResult:
    """What a search came to, for ANDURIL and every baseline alike.
    ``injected``, ``final_run`` and ``run_seed`` are set on success only;
    ``script`` is the Explorer's reproduction script, attached on success."""

    success: bool
    message: str
    round_records: list[RoundRecord]
    elapsed_seconds: float
    coverage: CoverageSummary
    injected: Optional[FaultInstance] = None
    final_run: Optional[RunResult] = None
    run_seed: Optional[int] = None
    script: Optional[ReproductionScript] = None

    @property
    def rounds(self) -> int:
        return len(self.round_records)

    @property
    def rank_trajectory(self) -> list[tuple[int, int]]:
        """(round, root-cause site rank) pairs — the Figure 6 series."""
        return [
            (record.round_number, record.root_site_rank)
            for record in self.round_records
            if record.root_site_rank is not None
        ]

    def signature(self) -> tuple:
        """Semantic identity of the search outcome, excluding wall times.

        A pure function of (case, seed, search parameters): no runner
        knob may move it.  A satisfied round's ``injection_requests`` is
        masked as ``-1``: a retired runner knob could shorten that run,
        and the committed signature baselines were captured with the
        mask, so it stays to keep them byte-identical.
        """
        return (
            self.success,
            self.rounds,
            self.message,
            self.injected,
            self.script,
            tuple(
                (
                    record.round_number,
                    record.window_size,
                    record.injected,
                    record.satisfied,
                    record.root_site_rank,
                    -1 if record.satisfied else record.injection_requests,
                    record.present_observables,
                )
                for record in self.round_records
            ),
        )


def window_entry_for(entries, injected):
    """Locate the fired instance in the round's window: ``(position,
    entry)``, or ``None`` when it came from outside the window.

    Matches the full ``(site, exception, occurrence)`` identity —
    mirroring ``repro.obs.provenance._matches`` — so two candidates
    sharing a site and occurrence under different exceptions never swap
    provenance.
    """
    fired = (injected.site_id, injected.exception, injected.occurrence)
    for position, entry in enumerate(entries, start=1):
        offered = entry.instance
        if (offered.site_id, offered.exception, offered.occurrence) == fired:
            return position, entry
    return None


def search(
    context,
    oracle,
    policy,
    *,
    case_id: str,
    max_rounds: int,
    max_seconds: Optional[float],
    started: Optional[float] = None,
) -> ExplorationResult:
    """Run rounds of ``policy`` until ``oracle`` is satisfied, the policy
    runs dry, or a budget is spent.  Of the search's
    :class:`~repro.core.prepared.SearchContext` it reads the pipeline,
    the probe, the base faults, the recorder, ``runs_per_round`` and the
    coverage tracker, which accounts every committed round.

    ``started`` is the ``perf_counter`` reading the time budget and
    ``elapsed_seconds`` count from (default: now).  Round events go to the
    process-active bus (``repro.obs.bus.set_active_bus``).
    """
    if started is None:
        started = time.perf_counter()
    pipeline, coverage = context.pipeline, context.coverage
    recorder, base_faults = context.recorder, context.base_faults
    probe = context.prepared.normal_run.trace
    runs_per_round = context.params.runs_per_round
    seed = pipeline.seed
    reporter = RoundReporter(None, case_id, policy.name)
    records: list[RoundRecord] = []

    def outcome(success: bool, message: str, **found) -> ExplorationResult:
        return ExplorationResult(
            success, message, records, time.perf_counter() - started,
            coverage.summary(), **found,
        )

    def span(name: str, start: float, duration: float, **fields) -> None:
        recorder.add_span(
            name, "explorer", clock=WALL, start=recorder.rel(start),
            duration=duration, round=round_number, **fields,
        )

    for round_number in range(1, max_rounds + 1):
        init_started = time.perf_counter()
        if max_seconds is not None and init_started - started > max_seconds:
            return outcome(False, OUT_OF_TIME)
        window = policy.window()
        rerank_started = time.perf_counter()
        rank = policy.rank()
        init_seconds = time.perf_counter() - init_started
        if recorder.enabled:
            span(
                "round.prepare", init_started, rerank_started - init_started,
                window=len(window),
            )
            span(
                "round.rerank", rerank_started,
                init_started + init_seconds - rerank_started,
            )
            # The per-round Figure 6 sample: where the ground-truth
            # site sits in the ranking, and what the window offered.
            recorder.event(
                "explorer.rerank", "explorer", round=round_number, rank=rank,
                window_size=len(window),
                top=[
                    [
                        entry.instance.site_id,
                        entry.instance.exception,
                        entry.instance.occurrence,
                        entry.site_priority,
                        entry.chosen_observable,
                    ]
                    for entry in policy.entries[:10]
                ],
            )
        if not window:
            return outcome(False, "fault space exhausted")
        reporter.begin(round_number)

        run_seed = seed
        # A window can offer the same (site, occurrence) under different
        # exceptions; only the highest-priority one is armable in a
        # single-shot window (the plan rejects the rest).
        plan = InjectionPlan.of(dedupe_instances(window), always=base_faults)
        # At the probe's seed the window runs as the one instance it
        # fires (DESIGN §8.2), so windows that fire alike share one run
        # and a dry window is the probe itself.
        first = plan.first_firing(probe)
        reduced = (
            InjectionPlan.of([first] if first else [], always=base_faults)
            if first or base_faults else None
        )
        workload_started = time.perf_counter()
        result = pipeline.run(run_seed, reduced)
        # §6: retry the round under perturbed seeds when nothing in the
        # window occurred (only useful in nondeterministic setups).  The
        # probe says nothing about another seed: these run the window.
        sub_run = 0
        while result.injected_instance is None and sub_run + 1 < runs_per_round:
            sub_run += 1
            run_seed = seed + round_number * 1009 + sub_run
            result = pipeline.run(run_seed, plan)
        feedback_started = time.perf_counter()
        workload_seconds = feedback_started - workload_started
        if recorder.enabled:
            span("round.run", workload_started, workload_seconds, seed=run_seed)

        # Fired -> oracle -> feedback: the policy learns from a run only
        # once it is known not to be the reproduction.
        injected = result.injected_instance
        satisfied = injected is not None and oracle.satisfied(result)
        present_count = policy.feedback(window, result, injected, satisfied)
        feedback_seconds = time.perf_counter() - feedback_started
        if recorder.enabled:
            span(
                "round.feedback", feedback_started, feedback_seconds,
                injected=str(injected) if injected is not None else None,
                satisfied=satisfied, present_observables=present_count,
            )
            # Plan-inclusion provenance: where the fired instance sat in
            # this round's window, and via which observable k* it earned
            # that position (repro.obs.provenance).
            located = (
                None if injected is None
                else window_entry_for(policy.entries, injected)
            )
            if located is not None:
                position, entry = located
                recorder.event(
                    "explorer.plan", "explorer", round=round_number,
                    site=injected.site_id, exception=injected.exception,
                    occurrence=injected.occurrence, window_position=position,
                    window_size=len(window), priority=entry.site_priority,
                    observable=entry.chosen_observable, satisfied=satisfied,
                )
        reporter.end(
            round_number, injected, satisfied, rank, len(window),
            run_seconds=workload_seconds,
            feedback_seconds=feedback_seconds,
            round_seconds=feedback_started + feedback_seconds - init_started,
        )
        coverage.record_round(round_number, plan.instances, injected)
        records.append(
            RoundRecord(
                round_number=round_number, window_size=len(window),
                injected=injected, satisfied=satisfied, root_site_rank=rank,
                init_seconds=init_seconds, workload_seconds=workload_seconds,
                injection_requests=result.injection_requests,
                decision_seconds=result.decision_seconds,
                present_observables=present_count,
            )
        )
        if satisfied:
            return outcome(
                True, "reproduced",
                injected=injected, final_run=result, run_seed=run_seed,
            )

    return outcome(False, "round budget exhausted")
