"""Deterministic reproduction scripts (§3 step 4.a).

When the Explorer satisfies the oracle, it emits a script that pins the
exact (site, exception, occurrence) plus the seed and horizon, so the
failure replays deterministically — the artifact a developer attaches to
the bug report.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Optional

from ..injection.fir import InjectionPlan
from ..injection.sites import FaultInstance
from ..sim.cluster import RunResult, WorkloadFn, execute_workload


@dataclasses.dataclass(frozen=True)
class ReproductionScript:
    """Everything needed to replay a reproduced failure."""

    case_id: str
    system: str
    instance: FaultInstance
    seed: int
    horizon: float
    oracle_description: str = ""
    #: Additional always-fire faults for multi-fault reproductions.
    extra_instances: tuple = ()

    def describe(self) -> str:
        """One-line human summary (used by the ``explain`` command)."""
        extras = (
            f" + {len(self.extra_instances)} base fault(s)"
            if self.extra_instances
            else ""
        )
        return (
            f"{self.case_id} ({self.system}): inject {self.instance}"
            f"{extras} with seed={self.seed} over {self.horizon:g}s"
        )

    def replay(self, workload: WorkloadFn) -> RunResult:
        """Re-run the workload injecting exactly the pinned fault(s)."""
        return execute_workload(
            workload,
            horizon=self.horizon,
            seed=self.seed,
            plan=InjectionPlan.of(
                [self.instance], always=list(self.extra_instances)
            ),
        )

    # ------------------------------------------------------------ serialization

    def to_json(self) -> str:
        return json.dumps(
            {
                "case_id": self.case_id,
                "system": self.system,
                "site_id": self.instance.site_id,
                "exception": self.instance.exception,
                "occurrence": self.instance.occurrence,
                "seed": self.seed,
                "horizon": self.horizon,
                "oracle": self.oracle_description,
                "extra": [
                    {
                        "site_id": extra.site_id,
                        "exception": extra.exception,
                        "occurrence": extra.occurrence,
                    }
                    for extra in self.extra_instances
                ],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "ReproductionScript":
        data = json.loads(text)
        return cls(
            case_id=data["case_id"],
            system=data["system"],
            instance=FaultInstance(
                site_id=data["site_id"],
                spec=data["exception"],
                occurrence=data["occurrence"],
            ),
            seed=data["seed"],
            horizon=data["horizon"],
            oracle_description=data.get("oracle", ""),
            extra_instances=tuple(
                FaultInstance(
                    site_id=extra["site_id"],
                    spec=extra["exception"],
                    occurrence=extra["occurrence"],
                )
                for extra in data.get("extra", [])
            ),
        )
