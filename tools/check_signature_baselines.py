#!/usr/bin/env python3
"""Gate: exception-only searches must be byte-identical across commits.

The fault-spec generalization (DESIGN.md §11) promises that the legacy
exception dimension is untouched: for every pre-spec case the Explorer
must visit the same windows in the same order and finish with the same
outcome, bit for bit.  This gate makes that promise testable in CI by
diffing every case's canonical ``ExplorationResult.signature()`` against
a committed baseline:

    PYTHONPATH=src python tools/check_signature_baselines.py
    PYTHONPATH=src python tools/check_signature_baselines.py --cases f1,f9
    PYTHONPATH=src python tools/check_signature_baselines.py --update

Signatures are captured in the canonical configuration (checkpointing
off, run cache off).  Only cases whose ``fault_dims`` is
``exceptions`` (the pre-spec default) are gated — soft-fault cases
explore a strictly larger space by design and are covered by their own
reproduction tests instead.

``--update`` re-captures the baseline file; commit the result when a
deliberate search-behavior change (new prior, new ranking term) moves
the signatures.  Exit codes: 0 identical, 1 divergent or missing
baseline, 2 usage/IO error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"),
)

DEFAULT_BASELINE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "..",
    "benchmarks",
    "baselines",
    "signature_baselines.json",
)


def canonical_signature(result) -> dict:
    """A JSON-able canonical form of ``ExplorationResult.signature()``."""

    def canon_value(value):
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        return str(value)

    success, rounds, message, injected, script, rows = result.signature()
    return {
        "success": success,
        "rounds": rounds,
        "message": message,
        "injected": str(injected) if injected is not None else None,
        "script": script.to_json() if script is not None else None,
        "rows": [[canon_value(value) for value in row] for row in rows],
    }


def capture(case_ids=None, early_verdict: bool = False) -> dict:
    from repro.cache import runcache
    from repro.failures import paper_cases

    runcache.configure(enabled=False)
    signatures = {}
    for case in paper_cases():
        if case_ids is not None and case.case_id not in case_ids:
            continue
        result = case.explorer(
            checkpoint=False, early_verdict=early_verdict
        ).explore()
        signatures[case.case_id] = canonical_signature(result)
        print(
            f"{case.case_id}: rounds={result.rounds} "
            f"success={result.success}",
            file=sys.stderr,
        )
    return signatures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff exception-only search signatures against the "
        "committed baseline."
    )
    parser.add_argument(
        "--baseline",
        default=os.path.normpath(DEFAULT_BASELINE),
        help="baseline JSON path (default: %(default)s)",
    )
    parser.add_argument(
        "--cases",
        help="comma-separated case ids to check (default: every "
        "exception-only case)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="re-capture and write the baseline instead of checking",
    )
    parser.add_argument(
        "--early-verdict",
        action="store_true",
        help="capture with early-verdict cutoff enabled; signatures must "
        "match the cutoff-off baseline byte for byte (DESIGN.md §13)",
    )
    args = parser.parse_args(argv)

    case_ids = set(args.cases.split(",")) if args.cases else None
    current = capture(case_ids, early_verdict=args.early_verdict)
    if not current:
        print("no exception-only cases matched", file=sys.stderr)
        return 2

    if args.update:
        os.makedirs(os.path.dirname(os.path.abspath(args.baseline)), exist_ok=True)
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(current, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {len(current)} signature(s) to {args.baseline}")
        return 0

    try:
        with open(args.baseline, encoding="utf-8") as handle:
            baseline = json.load(handle)
    except OSError as error:
        print(
            f"cannot read baseline {args.baseline}: {error} "
            f"(run with --update to create it)",
            file=sys.stderr,
        )
        return 1

    divergent = []
    for case_id, signature in sorted(current.items()):
        expected = baseline.get(case_id)
        if expected is None:
            divergent.append((case_id, "missing from baseline"))
        elif expected != signature:
            fields = [
                field
                for field in ("success", "rounds", "message", "injected",
                              "script", "rows")
                if expected.get(field) != signature.get(field)
            ]
            divergent.append((case_id, f"differs in {', '.join(fields)}"))
    if divergent:
        for case_id, reason in divergent:
            print(f"SIGNATURE DIVERGENCE {case_id}: {reason}", file=sys.stderr)
        print(
            f"{len(divergent)} of {len(current)} case(s) diverged from "
            f"{args.baseline}; if the change is deliberate, re-capture "
            f"with --update and commit the result",
            file=sys.stderr,
        )
        return 1
    print(f"{len(current)} case signature(s) identical to {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
