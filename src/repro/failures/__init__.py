"""Catalog of reproducible failure cases (the paper's 22-case dataset is
:func:`paper_cases`).

The catalog is data first: :data:`INDEX` gives every case's issue,
system and title, and :data:`SYSTEMS` each system's case module and
package.  They are the only place those fields are written, and ``list``
and case-id validation read nothing else.  A case module defines the
rest of its cases (workload, oracle, ground truth) and registers them
when it is imported; :func:`register` fills the four fields from the
index row.  :func:`get_case` imports the one case module that defines
its case, :func:`all_cases` all five.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .case import FailureCase

#: System -> (case module, mini-system package).
SYSTEMS = {
    "zookeeper": ("zk", "repro.systems.minizk"),
    "hdfs": ("hdfs", "repro.systems.minidfs"),
    "hbase": ("hbase", "repro.systems.minihbase"),
    "kafka": ("kafka", "repro.systems.minikafka"),
    "cassandra": ("cassandra", "repro.systems.minicass"),
}

_ROWS = """\
f1   ZK-2247            zookeeper  Server unavailable when leader fails to write transaction log
f2   ZK-3157            zookeeper  Connection loss causes the client to fail
f3   ZK-4203            zookeeper  Leader election stuck forever due to connection error
f4   ZK-3006            zookeeper  Invalid disk file content causes null pointer exception
f5   HDFS-4233          hdfs       Rolling backup fails but the server keeps serving
f6   HDFS-12248         hdfs       Exception transferring fsimage makes checkpointing skip the backup
f7   HDFS-12070         hdfs       Open files remain open indefinitely if block recovery fails
f8   HDFS-13039         hdfs       Data block creation leaks a socket on exception
f9   HDFS-16332         hdfs       Missing handling of expired block token causes slow reads
f10  HDFS-14333         hdfs       Disk error during registration keeps the datanode down
f11  HDFS-15032         hdfs       Balancer crashes when it fails to contact a namenode
f12  HBase-18137        hbase      Empty WAL file causes replication to get stuck
f13  HBase-19608        hbase      Interrupted procedure mistakenly causes a failed state flag
f14  HBase-19876        hbase      Exception converting pb mutation messes up the CellScanner
f15  HBase-20583        hbase      Failure during log split causes resubmit of the wrong task
f16  HBase-16144        hbase      Replication queue lock lives forever after holder aborts
f17  HBase-25905        hbase      Transient DFS failure stops WAL services permanently
f18  KAFKA-12508        kafka      Emit-on-change tables lose updates after error and restart
f19  KAFKA-9374         kafka      Blocked connectors disable the workers
f20  KAFKA-10048        kafka      Consumer failover under MM2 leaves a data gap between clusters
f21  CASSANDRA-17663    cassandra  Interrupted FileStreamTask compromises the shared channel proxy
f22  CASSANDRA-6415     cassandra  Snapshot repair blocks forever without a makeSnapshot response
f23  HDFS-SOFT-23       hdfs       Truncated fsimage read-back is advertised before it is verified
f24  KAFKA-SOFT-24      kafka      Offset relay commits a stale fetched offset behind the high-water mark
f25  ZK-SOFT-25         zookeeper  Snapshot served from the wrong epoch after a corrupt header decode
f26  HBASE-SOFT-26      hbase      WAL trimmer retires the active segment after a reordered listing
f27  CASSANDRA-SOFT-27  cassandra  Short hint transfer is acknowledged as a full delivery
"""

#: Case id -> (issue, system, title), in id order.
INDEX = {
    case_id: (issue, system, title)
    for case_id, issue, system, title in (row.split(None, 3) for row in _ROWS.splitlines())
}

#: Registered cases by id: the index's cases once their module loaded,
#: plus any case registered at run time.
CATALOG: dict[str, FailureCase] = {}


class UnknownCaseError(KeyError):
    """:func:`get_case` was asked for an id the catalog does not hold."""


def register(case: FailureCase) -> FailureCase:
    """Add ``case`` to the catalog, its index row's fields filled in."""
    if case.case_id in CATALOG:
        raise ValueError(f"duplicate failure case {case.case_id}")
    if case.case_id in INDEX:
        case.issue, case.system, case.title = INDEX[case.case_id]
        case.package = SYSTEMS[case.system][1]
    CATALOG[case.case_id] = case
    return case


def check_case_ids(case_ids) -> None:
    """Raise :class:`UnknownCaseError` for the first id neither the index
    nor a run-time registration knows, loading no case module."""
    for case_id in case_ids:
        if case_id not in INDEX and case_id not in CATALOG:
            raise UnknownCaseError(case_id)


def _load(system: str) -> None:
    importlib.import_module(f".{SYSTEMS[system][0]}", __name__)


def get_case(case_id: str) -> FailureCase:
    """The case ``case_id``, importing at most its own case module."""
    check_case_ids([case_id])
    if case_id not in CATALOG:
        _load(INDEX[case_id][1])
    return CATALOG[case_id]


def all_cases() -> list[FailureCase]:
    for system in SYSTEMS:
        _load(system)
    return sorted(CATALOG.values(), key=lambda case: int(case.case_id[1:]))


def paper_cases() -> list[FailureCase]:
    """The paper's dataset (Tables 1–7): the cases searched over
    exception faults only, i.e. all but the later soft-fault additions."""
    return [case for case in all_cases() if case.fault_dims == "exceptions"]


__getattr__ = lazy_exports(
    __name__, {".case": ("FailureCase", "GroundTruth", "clear_failure_log_cache")}
)

__all__ = [
    "CATALOG",
    "FailureCase",
    "GroundTruth",
    "INDEX",
    "SYSTEMS",
    "UnknownCaseError",
    "all_cases",
    "check_case_ids",
    "clear_failure_log_cache",
    "get_case",
    "paper_cases",
    "register",
]
