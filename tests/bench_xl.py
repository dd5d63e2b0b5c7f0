"""The late-failing ``-xl`` cases of ``benchmarks/bench_cases.py``, for tests.

Catalog cases replay in under 10 ms, where the checkpoint pool's cost
model (DESIGN §10.3) rightly never forks.  Tests that must see the *real*
model fork run on these 90–250 ms cases instead.
"""

import os
import sys

_BENCHMARKS = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "benchmarks"
)


def xl_case(case_id: str):
    """The bench case ``case_id`` (``f1-xl``, ``f5-xl``, ``f16-xl``, ...).

    Their ground truth sits 70–95 % deep and the search's windows follow
    it there, so under an oracle that keeps the search going every round
    after the first forks off a deep rung with a wide margin.
    """
    if _BENCHMARKS not in sys.path:
        sys.path.insert(0, _BENCHMARKS)
    from bench_cases import bench_cases

    return {case.case_id: case for case in bench_cases()}[case_id]
