"""Catalog of reproducible failure cases (the paper's 22-case dataset is
:func:`paper_cases`).

Import this package and call :func:`get_case`/:func:`all_cases`; the
per-system modules register their cases on import.
"""

from .case import (
    CATALOG,
    FailureCase,
    GroundTruth,
    UnknownCaseError,
    all_cases,
    clear_failure_log_cache,
    get_case,
    paper_cases,
    register,
)

# Importing the case modules populates the catalog.
from . import zk  # noqa: E402,F401
from . import hdfs  # noqa: E402,F401
from . import hbase  # noqa: E402,F401
from . import kafka  # noqa: E402,F401
from . import cassandra  # noqa: E402,F401

__all__ = [
    "CATALOG",
    "FailureCase",
    "GroundTruth",
    "UnknownCaseError",
    "all_cases",
    "clear_failure_log_cache",
    "get_case",
    "paper_cases",
    "register",
]
