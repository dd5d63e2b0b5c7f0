"""Live campaign view over the ``repro.obs.bus`` event stream.

``python -m repro watch`` feeds events — from a finished file or a
``--follow`` tail against a concurrently running campaign — through a
:class:`WatchState` reducer and renders a compact TTY table: per-cell
status and round counts, rank-of-ground-truth movement, the operational
rates carried by heartbeats (cache/checkpoint/workers), and an ETA
estimated from the rolling ledger history.

Like the rest of ``repro.obs``, this module imports nothing from
sibling ``repro`` packages (the ledger and bus are package-local).
"""

from __future__ import annotations

import dataclasses
import statistics
from typing import Optional

from . import ledger

#: Cell lifecycle: announced -> emitting rounds -> finished.
PENDING = "pending"
RUNNING = "running"
DONE = "done"


@dataclasses.dataclass
class CellState:
    """Progress of one (case, strategy) campaign cell."""

    case_id: str
    strategy: str
    status: str = PENDING
    rounds: int = 0
    #: Rank-of-ground-truth movement: first/last seen (explorer cells).
    first_rank: Optional[int] = None
    last_rank: Optional[int] = None
    last_injected: Optional[str] = None
    success: Optional[bool] = None
    result_rounds: Optional[int] = None
    seconds: Optional[float] = None

    @property
    def key(self) -> tuple[str, str]:
        return (self.case_id, self.strategy)

    @property
    def rank_cell(self) -> str:
        """``first->last`` ground-truth rank movement, or ``-``."""
        if self.last_rank is None:
            return "-"
        if self.first_rank is None or self.first_rank == self.last_rank:
            return str(self.last_rank)
        return f"{self.first_rank}->{self.last_rank}"

    @property
    def result_cell(self) -> str:
        if self.status != DONE:
            return "-"
        if self.success:
            return f"ok {self.result_rounds}r/{self.seconds:.1f}s"
        return f"fail {self.result_rounds}r"


class WatchState:
    """Reducer folding a bus event stream into live campaign progress."""

    def __init__(self):
        self.cells: dict[tuple[str, str], CellState] = {}
        self.campaign: Optional[dict] = None
        self.campaign_done: Optional[dict] = None
        self.started_at: Optional[float] = None
        self.last_t: Optional[float] = None
        #: Latest heartbeat per source ("explorer", "campaign", ...).
        self.heartbeats: dict[str, dict] = {}
        self.events_seen = 0
        self.rounds_seen = 0

    # ----------------------------------------------------------------- apply

    def _cell(self, event: dict) -> Optional[CellState]:
        case_id = event.get("case_id")
        strategy = event.get("strategy")
        if not isinstance(case_id, str) or not isinstance(strategy, str):
            return None
        cell = self.cells.get((case_id, strategy))
        if cell is None:
            cell = CellState(case_id, strategy)
            self.cells[cell.key] = cell
        return cell

    def apply(self, event: dict) -> None:
        if not isinstance(event, dict):
            return
        self.events_seen += 1
        t = event.get("t")
        if isinstance(t, (int, float)):
            self.last_t = float(t)
        event_type = event.get("type")
        if event_type == "campaign.start":
            # A new campaign in the same stream resets the board.
            self.__init__()
            self.events_seen = 1
            self.campaign = event
            if isinstance(t, (int, float)):
                self.started_at = float(t)
                self.last_t = float(t)
        elif event_type == "case.start":
            cell = self._cell(event)
            if cell is not None and cell.status == PENDING:
                cell.status = RUNNING
        elif event_type in ("round.begin", "round.end"):
            cell = self._cell(event)
            if cell is not None:
                if cell.status == PENDING:
                    cell.status = RUNNING
                round_number = event.get("round")
                if isinstance(round_number, int):
                    cell.rounds = max(cell.rounds, round_number)
                if event_type == "round.end":
                    self.rounds_seen += 1
                    rank = event.get("rank")
                    if isinstance(rank, int):
                        if cell.first_rank is None:
                            cell.first_rank = rank
                        cell.last_rank = rank
                    injected = event.get("injected")
                    if isinstance(injected, str):
                        cell.last_injected = injected
        elif event_type == "plan.fired":
            cell = self._cell(event)
            if cell is not None and cell.status == PENDING:
                cell.status = RUNNING
        elif event_type == "case.done":
            cell = self._cell(event)
            if cell is not None:
                cell.status = DONE
                cell.success = bool(event.get("success"))
                rounds = event.get("rounds")
                if isinstance(rounds, int):
                    cell.result_rounds = rounds
                    cell.rounds = max(cell.rounds, rounds)
                seconds = event.get("seconds")
                if isinstance(seconds, (int, float)):
                    cell.seconds = float(seconds)
        elif event_type == "campaign.done":
            self.campaign_done = event
        elif event_type == "heartbeat":
            source = event.get("source")
            if isinstance(source, str):
                self.heartbeats[source] = event

    # ------------------------------------------------------------------- eta

    def eta_seconds(self, history: Optional[list[dict]] = None) -> Optional[float]:
        """Remaining wall-clock estimate from the rolling ledger history.

        Each unfinished cell costs the median ledger ``seconds`` of its
        ``(case_id, strategy)`` across past campaigns (campaign median
        across all cells when that cell has no history); the total is
        divided by the campaign's worker count.  ``None`` without any
        usable history or with nothing left to run.
        """
        unfinished = [
            cell for cell in self.cells.values() if cell.status != DONE
        ]
        if self.campaign is not None:
            cells = self.campaign.get("cells")
            if isinstance(cells, int) and cells > len(self.cells):
                # Announced cells that have not even started yet.
                unfinished.extend(
                    [None] * (cells - len(self.cells))
                )
        if not unfinished:
            return 0.0
        if history is None:
            history = ledger.read_entries()
        by_cell: dict[tuple[str, str], list[float]] = {}
        everything: list[float] = []
        for entry in history:
            seconds = entry.get("seconds")
            if not isinstance(seconds, (int, float)):
                continue
            key = (entry.get("case_id"), entry.get("strategy"))
            by_cell.setdefault(key, []).append(float(seconds))
            everything.append(float(seconds))
        if not everything:
            return None
        fallback = statistics.median(everything)
        total = 0.0
        for cell in unfinished:
            samples = by_cell.get(cell.key) if cell is not None else None
            total += statistics.median(samples) if samples else fallback
        jobs = 1
        if self.campaign is not None and isinstance(
            self.campaign.get("jobs"), int
        ):
            jobs = max(self.campaign["jobs"], 1)
        return total / jobs


# -------------------------------------------------------------------- render


def _format_table(rows: list[list[str]]) -> list[str]:
    widths = [
        max(len(row[column]) for row in rows)
        for column in range(len(rows[0]))
    ]
    return [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]


def _rate(stats: dict, key: str = "hit_rate") -> Optional[str]:
    value = stats.get(key) if isinstance(stats, dict) else None
    if isinstance(value, (int, float)):
        return f"{value * 100:.0f}%"
    return None


def _heartbeat_line(state: WatchState) -> Optional[str]:
    """One line merging the freshest operational stats across sources."""
    parts: list[str] = []
    merged: dict[str, dict] = {}
    for event in state.heartbeats.values():
        for section in ("cache", "checkpoint", "workers"):
            if isinstance(event.get(section), dict):
                merged[section] = event[section]
    cache = merged.get("cache")
    if cache:
        rate = _rate(cache)
        if rate is not None:
            parts.append(f"cache {rate} hit")
    checkpoint = merged.get("checkpoint")
    if checkpoint:
        forks = checkpoint.get("forks")
        if isinstance(forks, (int, float)):
            parts.append(f"checkpoint forks {int(forks)}")
    workers = merged.get("workers")
    if workers and isinstance(workers.get("jobs"), int):
        live = f"workers {workers['jobs']}"
        if isinstance(workers.get("pending"), int):
            live += f" ({workers['pending']} cells pending)"
        parts.append(live)
    if not parts:
        return None
    return "stats: " + " · ".join(parts)


def _latency_line(state: WatchState) -> Optional[str]:
    latency = None
    for event in state.heartbeats.values():
        if isinstance(event.get("latency"), dict):
            latency = event["latency"]
    if not latency:
        return None
    parts = []
    for name, quantiles in sorted(latency.items()):
        if not isinstance(quantiles, dict):
            continue
        p50 = quantiles.get("p50")
        p90 = quantiles.get("p90")
        if p50 is None:
            continue
        short = name.removeprefix("latency.").removesuffix("_seconds")
        part = f"{short} p50 {p50 * 1e3:.0f}ms"
        if p90 is not None:
            part += f" p90 {p90 * 1e3:.0f}ms"
        parts.append(part)
    if not parts:
        return None
    return "latency: " + " · ".join(parts)


def render(state: WatchState, history: Optional[list[dict]] = None) -> str:
    """The text view of the current state (one multi-line string)."""
    lines: list[str] = []
    header = "campaign"
    if state.campaign is not None:
        cases = state.campaign.get("cases")
        strategies = state.campaign.get("strategies")
        if isinstance(cases, list) and isinstance(strategies, list):
            header += f": {len(cases)} case(s) x {len(strategies)} strategy(ies)"
        cells = state.campaign.get("cells")
        if isinstance(cells, int):
            header += f", {cells} cell(s)"
        jobs = state.campaign.get("jobs")
        if isinstance(jobs, int):
            header += f", jobs={jobs}"
    if state.started_at is not None and state.last_t is not None:
        header += f"  elapsed {state.last_t - state.started_at:.1f}s"
    if state.campaign_done is not None:
        successes = state.campaign_done.get("successes")
        cells = state.campaign_done.get("cells")
        header += f"  — done ({successes}/{cells} reproduced)"
    else:
        eta = state.eta_seconds(history)
        if eta:
            header += f"  eta ~{eta:.0f}s"
    lines.append(header)
    if state.cells:
        rows = [["cell", "status", "rounds", "rank", "last injected", "result"]]
        for cell in sorted(
            state.cells.values(),
            key=lambda c: (c.strategy != "anduril", c.strategy,
                           len(c.case_id), c.case_id),
        ):
            rows.append(
                [
                    f"{cell.case_id}/{cell.strategy}",
                    cell.status,
                    str(cell.rounds) if cell.rounds else "-",
                    cell.rank_cell,
                    cell.last_injected or "-",
                    cell.result_cell,
                ]
            )
        lines.extend(_format_table(rows))
    else:
        lines.append("(no cells yet)")
    heartbeat = _heartbeat_line(state)
    if heartbeat:
        lines.append(heartbeat)
    latency = _latency_line(state)
    if latency:
        lines.append(latency)
    return "\n".join(lines)
