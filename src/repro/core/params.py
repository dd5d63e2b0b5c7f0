"""What one search searches (DESIGN §5.3).  This module imports nothing
from ``repro``: naming or unpickling a campaign cell loads no search code.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

#: Static pruning's radius in probe-run log messages: searches fire within
#: ~2 messages of an observable, so 8 keeps a ~4x margin.
DEFAULT_RADIUS = 8.0


@dataclasses.dataclass(frozen=True)
class SearchParams:
    """A search's knobs, the paper's settings by default: a search's
    outcome is a pure function of (case, seed, ``SearchParams``).  Here is
    the one range check of each knob."""

    initial_window: int = 10
    adjustment: int = 1
    aggregate: str = "min"
    temporal_mode: str = "messages"
    max_instances_per_site: Optional[int] = None
    runs_per_round: int = 1
    prune: str = "none"
    prune_radius: float = DEFAULT_RADIUS
    #: ``None`` leaves the fault dimensions to the case (:meth:`resolve`).
    fault_dims: Optional[str] = None

    def __post_init__(self) -> None:
        if self.aggregate not in ("min", "sum"):
            raise ValueError("aggregate must be 'min' or 'sum'")
        if self.temporal_mode not in ("messages", "order"):
            raise ValueError("temporal_mode must be 'messages' or 'order'")
        if self.runs_per_round < 1:
            raise ValueError("runs_per_round must be at least 1")
        if self.prune not in ("none", "static"):
            raise ValueError("prune must be 'none' or 'static'")
        if not float(self.prune_radius) >= 0.0:  # NaN fails this too
            raise ValueError(f"radius must be zero or more, got {self.prune_radius!r}")
        if self.fault_dims not in (None, "exceptions", "soft", "all"):
            raise ValueError("fault_dims must be 'exceptions', 'soft', or 'all'")
        # One spelling per search: a radius of 8 and of 8.0 is one value.
        object.__setattr__(self, "prune_radius", float(self.prune_radius))

    def resolve(self, fault_dims: str = "exceptions") -> SearchParams:
        """These parameters, with ``fault_dims`` where they leave it open."""
        if self.fault_dims is not None:
            return self
        return dataclasses.replace(self, fault_dims=fault_dims)

    @classmethod
    def split(cls, options: dict, params: Optional[SearchParams] = None):
        """``params`` under the fields ``options`` name, and the rest."""
        names = {field.name for field in dataclasses.fields(cls)}
        knobs = {name: value for name, value in options.items() if name in names}
        rest = {name: value for name, value in options.items() if name not in names}
        return dataclasses.replace(params or cls(), **knobs), rest
