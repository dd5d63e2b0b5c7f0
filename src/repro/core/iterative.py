"""Iterative multi-fault reproduction (§3's workflow for multi-fault bugs).

ANDURIL injects a single fault per round, so failures that need multiple
causally-independent root-cause faults cannot be reproduced in one search.
The paper's prescribed workflow: when the search fails, its near-miss
runs produce logs *close* to the failure log; fix the most promising
fault into the workload and run ANDURIL again for the next one.

:class:`IterativeExplorer` automates that loop: each stage runs a full
Explorer with the already-found faults armed as unconditional base
faults; if the stage fails, the round whose log matched the failure log
best (most relevant observables present) contributes its fault to the
base set for the next stage.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Optional

from ..injection.sites import FaultInstance
from .explorer import Explorer
from .search import ExplorationResult


@dataclasses.dataclass
class IterativeResult:
    success: bool
    stages: int
    faults: tuple[FaultInstance, ...]
    final: Optional[ExplorationResult]
    elapsed_seconds: float
    message: str = ""

    @property
    def script(self):
        return self.final.script if self.final else None


class IterativeExplorer:
    """Runs Explorer stages, fixing one fault per failed stage."""

    def __init__(self, max_faults: int = 2, **explorer_kwargs) -> None:
        if max_faults < 1:
            raise ValueError("max_faults must be at least 1")
        self.max_faults = max_faults
        self.explorer_kwargs = dict(explorer_kwargs)
        self.explorer_kwargs.pop("base_faults", None)

    def explore(self) -> IterativeResult:
        started = time.perf_counter()
        fixed: list[FaultInstance] = []
        last: Optional[ExplorationResult] = None
        for stage in range(1, self.max_faults + 1):
            explorer = Explorer(
                base_faults=tuple(fixed), **self.explorer_kwargs
            )
            result = explorer.explore()
            last = result
            if result.success:
                return IterativeResult(
                    success=True,
                    stages=stage,
                    faults=(*fixed, result.injected),
                    final=result,
                    elapsed_seconds=time.perf_counter() - started,
                    message=f"reproduced with {len(fixed) + 1} fault(s)",
                )
            near_miss = self._best_near_miss(result, exclude=fixed)
            if near_miss is None:
                break
            fixed.append(near_miss)
        return IterativeResult(
            success=False,
            stages=min(self.max_faults, len(fixed) + 1),
            faults=tuple(fixed),
            final=last,
            elapsed_seconds=time.perf_counter() - started,
            message="not reproduced within the fault budget",
        )

    @staticmethod
    def _best_near_miss(
        result: ExplorationResult, exclude: list[FaultInstance]
    ) -> Optional[FaultInstance]:
        """The injected fault whose run log was closest to the failure log."""
        best = None
        best_present = -1
        for record in result.round_records:
            if record.injected is None or record.injected in exclude:
                continue
            if record.present_observables > best_present:
                best_present = record.present_observables
                best = record.injected
        return best
