"""Propagation-graph cache keyed on the workload fingerprint.

The flow pass (:mod:`repro.analysis.flow`) is a pure function of the
analyzed package's source, and the workload fingerprint from
:func:`repro.cache.runcache.workload_fingerprint` already digests the
workload's module plus every mini system's source — exactly the
staleness key the run cache uses.  Reusing it here means a
:class:`~repro.analysis.flow.PropagationGraph` built from one source
tree can never be served to another, with zero extra bookkeeping.

Two tiers, mirroring the run cache:

* an in-process memo (always on), keyed on the fingerprint — or, for
  unfingerprintable workloads, the per-model memo of the
  :class:`~repro.analysis.system_model.SystemModel` itself; and
* an on-disk tier of JSON records in the ``flow/`` sub-tier of the
  active run cache's directory (:meth:`RunCache.tier`), so it exists
  exactly when the run cache has a disk tier, moves with
  ``--cache-dir``, and degrades like it.
"""

from __future__ import annotations

import json
from typing import Optional

from ..analysis.flow import PropagationGraph, build_propagation_graph
from .runcache import active, workload_fingerprint

SCHEMA_VERSION = 1

_MEMO: dict[str, PropagationGraph] = {}


def _tier():
    cache = active()
    return None if cache is None else cache.tier("flow")


def _disk_get(tier, fingerprint: str) -> Optional[PropagationGraph]:
    def decode(data: bytes) -> PropagationGraph:
        payload = json.loads(data)
        if (
            not isinstance(payload, dict)
            or payload.get("version") != SCHEMA_VERSION
            or payload.get("fingerprint") != fingerprint
        ):
            raise ValueError("flow-cache entry key/version mismatch")
        return PropagationGraph.from_dict(payload["graph"])

    return tier.read(fingerprint, decode)


def _disk_store(tier, fingerprint: str, graph: PropagationGraph) -> None:
    tier.write(
        fingerprint,
        lambda: json.dumps(
            {
                "version": SCHEMA_VERSION,
                "fingerprint": fingerprint,
                "graph": graph.to_dict(),
            },
            separators=(",", ":"),
        ).encode("utf-8"),
    )


def cached_propagation_graph(
    model, workload=None, package: str = ""
) -> PropagationGraph:
    """The flow pass's result for ``model``, served from cache when possible.

    ``workload`` supplies the cache key; when it is ``None`` or cannot
    be fingerprinted the graph is memoized per model object only (still
    free within one process, never persisted).
    """
    fingerprint = workload_fingerprint(workload) if workload is not None else None
    if fingerprint is None:
        return model.memo(
            PropagationGraph,
            lambda: build_propagation_graph(model, package=package),
        )

    graph = _MEMO.get(fingerprint)
    if graph is not None:
        return graph
    tier = _tier()
    if tier is not None:
        graph = _disk_get(tier, fingerprint)
    if graph is None:
        graph = build_propagation_graph(model, package=package)
        if tier is not None:
            _disk_store(tier, fingerprint, graph)
    _MEMO[fingerprint] = graph
    return graph


def reset() -> None:
    """Drop the in-process memo (tests)."""
    _MEMO.clear()
