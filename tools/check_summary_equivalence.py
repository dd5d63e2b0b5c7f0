#!/usr/bin/env python3
"""Assert campaign summaries are equivalent modulo timing and cache.

The run cache (``repro.cache``), the event bus and the parallel
campaign engine all promise *outcome invariance*: turning the cache or
the event stream on or off, or changing ``--jobs``, may only move
wall-clock numbers and cache bookkeeping — never rounds, successes, or
coverage.
This gate makes that promise testable in CI:

    python tools/check_summary_equivalence.py a.json b.json [c.json ...]

Every summary is normalized by recursively dropping the keys that are
*allowed* to differ (wall-clock fields, the ``cache`` sections, and the
operational ``counters``); the normalized documents must then be
byte-identical, pairwise against the first.  Exit codes: 0 equivalent,
1 divergent, 2 usage/IO error.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.obs.metrics import RUNNER_SECTIONS  # noqa: E402

#: Keys that may legitimately differ between equivalent campaigns.
#: Wall-clock fields move with machine load; ``counters``/``metrics``
#: hold operational telemetry (cache hit rates, fallback counts)
#: that varies with scheduling; ``latency`` holds wall-clock histogram
#: quantiles; and the runner knobs' bookkeeping sections — whatever the
#: reducer names them, so a new knob's section is volatile the day it is
#: added — exist only when their knob is on and record exactly what may
#: differ between knob-on and knob-off campaigns (hit counts).
#: Everything else must match exactly.
VOLATILE_KEYS = frozenset(
    {
        "seconds",
        "median_seconds",
        "total_seconds",
        "prepare_seconds",
        "counters",
        "metrics",
        "latency",
        *RUNNER_SECTIONS,
    }
)


def normalize(node):
    """Drop volatile keys, recursively, preserving everything else."""
    if isinstance(node, dict):
        return {
            key: normalize(value)
            for key, value in node.items()
            if key not in VOLATILE_KEYS
        }
    if isinstance(node, list):
        return [normalize(item) for item in node]
    return node


def _first_divergence(a, b, path: str = "$") -> str:
    """A human-readable pointer at the first differing node."""
    if type(a) is not type(b):
        return f"{path}: type {type(a).__name__} != {type(b).__name__}"
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a:
                return f"{path}.{key}: missing on the left"
            if key not in b:
                return f"{path}.{key}: missing on the right"
            if a[key] != b[key]:
                return _first_divergence(a[key], b[key], f"{path}.{key}")
        return f"{path}: dicts differ (unreachable)"
    if isinstance(a, list):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for index, (left, right) in enumerate(zip(a, b)):
            if left != right:
                return _first_divergence(left, right, f"{path}[{index}]")
        return f"{path}: lists differ (unreachable)"
    return f"{path}: {a!r} != {b!r}"


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        try:
            with open(path, encoding="utf-8") as handle:
                documents.append((path, normalize(json.load(handle))))
        except (OSError, json.JSONDecodeError) as error:
            print(f"error: cannot load {path}: {error}", file=sys.stderr)
            return 2
    reference_path, reference = documents[0]
    divergent = False
    for path, document in documents[1:]:
        if document != reference:
            divergent = True
            print(
                f"DIVERGENT: {path} vs {reference_path}\n"
                f"  first difference at {_first_divergence(reference, document)}"
            )
    if divergent:
        return 1
    print(
        f"equivalent: {len(documents)} summar(ies) identical modulo "
        f"{', '.join(sorted(VOLATILE_KEYS))}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
