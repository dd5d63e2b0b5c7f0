"""The late-failing ``-xl`` cases of ``benchmarks/bench_cases.py``, for tests.

Catalog cases replay in under 10 ms; these run 90–250 ms and fail late,
the regime the checkpoint pool serves (DESIGN §10.2).  Tests that fork
the benchmark's replay leg, or search a case whose runs are long, use
them.
"""

import os
import sys

_BENCHMARKS = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "benchmarks"
)


def xl_case(case_id: str):
    """The bench case ``case_id`` (``f1-xl``, ``f5-xl``, ``f16-xl``, ...).

    Their ground truth sits 70–95 % deep, so a replay of it forks off a
    deep rung.
    """
    if _BENCHMARKS not in sys.path:
        sys.path.insert(0, _BENCHMARKS)
    from bench_cases import bench_cases

    return {case.case_id: case for case in bench_cases()}[case_id]
