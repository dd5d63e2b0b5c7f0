"""Production-scale bench variants of one failure case per mini system.

The catalog cases (``repro.failures``) are deliberately tiny so the unit
suite stays fast — most replay in under 5 ms, where the fixed cost of a
checkpoint fork (measured at 7-8 ms end to end on a small host, DESIGN
§10.4) buries the prefix it eliminates.  The paper's subject systems are the opposite
regime: executions run for seconds and the triggering fault fires *deep*
into the run, after the system has done substantial work (that is what
makes their reproduction expensive, and what prefix elimination is for).

Each bench case here is a catalog case whose failure scenario *develops
late*: the workload is scaled up (more clients, more traffic, more
streamed files) and staggered across the horizon, the ground-truth
occurrence is moved deep into the trace, and the oracle additionally
requires that the system had made substantial progress before the
failure hit.  The defect, the fault site, and the failure symptom are
exactly the catalog's; only the *when* moves.  The progress gate is what
keeps the search honest — a shallow injection at the same site produces
the same symptom too early and does not reproduce the recorded failure.

Progress-at-failure is read from frozen state where the failure is fatal
(f1: the cluster stops serving, so per-client completion markers stop
appearing; f21: the shared channel is wedged, so ``streams_completed``
stops moving) and from a watcher snapshot where it is not (f5: the
namenode keeps serving after the roll failure; f18: the table task
restarts and keeps emitting).  The watcher is a plain sim task with no
instrumented operations, so it adds no fault sites and no trace requests.

The cases are intentionally NOT registered in the global catalog; they
exist only for benchmarks.
"""

from __future__ import annotations

import dataclasses

from repro.core.oracle import StatePredicateOracle
from repro.failures import get_case
from repro.failures.hdfs import _base_cluster as _dfs_base
from repro.failures.hdfs import _client_script as _dfs_client_script
from repro.failures.zk import _boot_cluster as _zk_boot
from repro.sim.cluster import Cluster
from repro.sim.errors import SocketException
from repro.systems.base import Component
from repro.systems.minicass.repair import WriteDriver
from repro.systems.minicass.replica import Replica
from repro.systems.minicass.streaming import StreamingService
from repro.systems.minidfs.client import DfsClient
from repro.systems.minihbase.hdfs_stream import MiniDfsService
from repro.systems.minihbase.regionserver import RegionServer
from repro.systems.minihbase.replication import ReplicationQueueClaimer
from repro.systems.minikafka.broker import Broker, BrokerClient
from repro.systems.minikafka.table import INPUT_TOPIC, EmitOnChangeProcessor
from repro.systems.minizk.client import ZkClient

__all__ = ["bench_cases"]


def _watch_failure(cluster, failed, snapshot_key, progress, period=0.1):
    """Snapshot workload progress the first time ``failed(state)`` holds.

    For defects the system survives, the final state no longer says how
    far the workload had come when the failure struck — this watcher
    records it as it happens.  Pure sleeps and dict reads only: no
    instrumented operations, so the fault space and trace are untouched.
    """

    def watch():
        while True:
            yield cluster.sleep(period)
            if snapshot_key not in cluster.state and failed(cluster.state):
                cluster.state[snapshot_key] = progress(cluster.state)

    cluster.spawn("bench-failure-watch", watch())


# --------------------------------------------------------------------- f1-xl

ZK_CLIENTS = 48
ZK_OPS = 40
#: Ground-truth txnlog-append occurrence; tuned against the probe so the
#: failure lands after most of the staggered bulk workload has finished
#: (see the gate below) but comfortably inside the horizon.
ZK_DEEP_OCCURRENCE = 1500


def _zk_scaled(cluster: Cluster) -> None:
    """f1's write workload with 48 staggered bulk clients."""
    _zk_boot(cluster)
    for index in range(1, ZK_CLIENTS + 1):
        ops = [f"create /app/node{index}-{i}" for i in range(ZK_OPS)]
        client = ZkClient(cluster, f"cli{index}", "zk3", ops)

        def staggered(c=client, start=1.0 + 0.5 * (index - 1)):
            yield c.sleep(start)
            yield from c.run()

        cluster.spawn(f"cli{index}", staggered())


def _zk_clients_done(state) -> int:
    return sum(
        1
        for index in range(1, ZK_CLIENTS + 1)
        if state.get(f"cli{index}_done", 0) >= ZK_OPS - 8
    )


#: The outage is fatal, so clients that had not finished when ZooKeeper
#: died never set their completion marker: the done-count in the final
#: state IS the progress at failure time.
_ZK_GATE = StatePredicateOracle(
    lambda state: _zk_clients_done(state) >= 26,
    "outage hit after most bulk clients had finished",
)


# --------------------------------------------------------------------- f5-xl

DFS_LOADS = 36
DFS_FILES_PER_LOAD = 10
#: Edit rolls tick roughly every 1.5 virtual seconds; this occurrence
#: lands the roll failure late in the staggered bulk-load window.
DFS_DEEP_OCCURRENCE = 15


def _hdfs_scaled(cluster: Cluster) -> None:
    """f5's workload plus 36 staggered write-only bulk loaders."""
    _dfs_base(cluster)
    client = DfsClient(cluster, "dfsclient")
    cluster.spawn(
        "dfsclient",
        _dfs_client_script(client, ["/data/a", "/data/b", "/data/c", "/data/d"]),
    )
    for index in range(1, DFS_LOADS + 1):
        extra = DfsClient(cluster, f"dfsload{index}")
        files = [f"/load{index}/f{i}" for i in range(DFS_FILES_PER_LOAD)]

        def load(c=extra, fs=files, start=0.45 * (index - 1), name=f"dfsload{index}"):
            yield cluster.sleep(start)
            yield from _dfs_client_script(c, fs, read=False, pace=0.3)
            cluster.state[f"{name}_done"] = True
            c.log.info("Bulk load %s finished %d files", name, len(fs))

        cluster.spawn(f"dfsload{index}", load())
    # HDFS-4233 is survivable — the namenode keeps serving — so progress
    # has to be sampled the moment the backup goes invalid.
    _watch_failure(
        cluster,
        lambda state: state.get("backup_valid") is False,
        "loads_at_roll_failure",
        lambda state: sum(
            1
            for index in range(1, DFS_LOADS + 1)
            if state.get(f"dfsload{index}_done")
        ),
        period=0.2,
    )


_DFS_GATE = StatePredicateOracle(
    lambda state: state.get("loads_at_roll_failure", 0) >= 14,
    "edit roll failed late in the bulk-load window",
)


# -------------------------------------------------------------------- f18-xl

KAFKA_CHANGES = 144
#: Flush occurrence K loses change K — provided record K-1 is not
#: followed by a suppressible duplicate that would re-flush it after the
#: restart (every third record is; 119 % 3 != 0 avoids that).  Late in
#: the feed.
KAFKA_DEEP_OCCURRENCE = 120


def _table_records() -> list:
    """A long emit-on-change feed: every record is a change, and every
    third record is followed by a duplicate the table must suppress."""
    records = []
    for index in range(KAFKA_CHANGES):
        key = f"k{index % 8}"
        records.append((key, f"v{index}"))
        if index % 3 == 0:
            records.append((key, f"v{index}"))
    return records


def _kafka_scaled(cluster: Cluster) -> None:
    """f18's emit-on-change table fed a long change list, plus 40 background feeds."""
    Broker(cluster, "broker1").start()
    EmitOnChangeProcessor(cluster, "table-task", "broker1").start()
    feeder = BrokerClient(cluster, "table-feeder", "broker1")
    records = _table_records()

    def feed():
        yield feeder.sleep(0.3)
        for key, value in records:
            yield from feeder.produce(INPUT_TOPIC, (key, value))
            yield feeder.jitter(0.1)
        cluster.state["feed_done"] = True

    cluster.spawn("table-feeder", feed())
    cluster.state["expected_emits"] = KAFKA_CHANGES
    for index in range(1, 41):
        bg = BrokerClient(cluster, f"bg-feeder{index}", "broker1")

        def background(f=bg, topic=f"bg-topic{index}"):
            yield f.sleep(0.2)
            for value in range(70):
                yield from f.produce(topic, ("bg", value))
                yield f.jitter(0.25)

        cluster.spawn(f"bg-feeder{index}", background())
    # The task restarts and keeps emitting after the flush failure, so
    # the emit count at restart time has to be sampled as it happens.
    _watch_failure(
        cluster,
        lambda state: state.get("table_restarts", 0) >= 1,
        "emits_at_restart",
        lambda state: state.get("table_emitted", 0),
        period=0.1,
    )


_KAFKA_GATE = StatePredicateOracle(
    lambda state: state.get("emits_at_restart", 0) >= 104,
    "flush failed late in the feed",
)


# -------------------------------------------------------------------- f16-xl

#: The claimers only wake after the WAL traffic has been running for a
#: while — the claim race is inherently a late event in this deployment,
#: so the ground-truth occurrence stays 1 and needs no gate.
HBASE_CLAIM_DELAY = 12.0


def _hbase_scaled(cluster: Cluster) -> None:
    """f16's claim race after a long multi-region WAL write window."""
    MiniDfsService(cluster).start()
    rs1 = RegionServer(cluster, "rs1", roll_period=2.5)
    rs1.add_region("regionA")
    rs1.add_region("regionB")
    rs1.add_region("regionC")
    rs1.start(burst=8, burst_period=0.2)
    rs2 = RegionServer(cluster, "rs2")
    for index in (3, 4):
        extra = RegionServer(cluster, f"rs{index}", roll_period=3.0)
        extra.add_region(f"load-region{index}a")
        extra.add_region(f"load-region{index}b")
        extra.start(burst=8, burst_period=0.25)
    cluster.disk.write(ReplicationQueueClaimer.QUEUE_PATH, b"edit\n" * 8)
    ReplicationQueueClaimer(cluster, rs1, delay=HBASE_CLAIM_DELAY).start()
    ReplicationQueueClaimer(cluster, rs2, delay=HBASE_CLAIM_DELAY + 0.5).start()


# -------------------------------------------------------------------- f21-xl

CASS_FILES = 56
#: Stream tasks take the shared proxy in turn (one transfer per file);
#: this occurrence is the transfer of a late file.
CASS_DEEP_OCCURRENCE = 44


class _CassFeeder(Component):
    """A named WriteDriver clone so many can run side by side."""

    def __init__(self, cluster, replicas, name: str, count: int) -> None:
        super().__init__(cluster, name=name)
        self.replicas = list(replicas)
        self.count = count

    def start(self) -> None:
        self.cluster.spawn(self.name, self.run())

    def run(self):
        yield self.sleep(1.0)
        for index in range(self.count):
            replica = self.replicas[index % len(self.replicas)]
            try:
                self.env.sock_send(
                    self.name,
                    replica,
                    "write",
                    ("cf1", f"{self.name}-k{index}", f"v{index}"),
                )
            except SocketException as error:
                self.log.warn(
                    "Write %d to %s failed: %s", index, replica, error
                )
            yield self.jitter(0.2)


def _cass_scaled(cluster: Cluster) -> None:
    """f21's streaming workload with 56 staggered files and 40 feeders."""
    names = ("cass1", "cass2", "cass3")
    replicas = [Replica(cluster, name) for name in names]
    for replica in replicas:
        replica.start()
    files = [(f"/cass/stream/file{i}", 10 + 2 * (i % 6)) for i in range(CASS_FILES)]
    StreamingService(cluster, files).start()
    WriteDriver(cluster, names, count=40).start()
    for index in range(1, 41):
        _CassFeeder(cluster, names, f"cass-feeder{index}", count=96).start()


#: The wedged proxy kills every later stream task, so the completed-file
#: counter freezes at failure time: final state IS progress at failure.
_CASS_GATE = StatePredicateOracle(
    lambda state: state.get("streams_completed", 0) >= 38,
    "channel wedged after most files had streamed",
)


# ------------------------------------------------------------------ assembly


def _deep(case, occurrence: int):
    return dataclasses.replace(
        case.ground_truth, occurrence=occurrence
    )


def bench_cases() -> list:
    """One scaled, late-failing case per mini system."""
    f1 = get_case("f1")
    zk = dataclasses.replace(
        f1,
        case_id="f1-xl",
        workload=_zk_scaled,
        horizon=30.0,
        oracle=f1.oracle & _ZK_GATE,
        ground_truth=_deep(f1, ZK_DEEP_OCCURRENCE),
        alternates=[],
    )
    f5 = get_case("f5")
    hdfs = dataclasses.replace(
        f5,
        case_id="f5-xl",
        workload=_hdfs_scaled,
        horizon=26.0,
        oracle=f5.oracle & _DFS_GATE,
        ground_truth=_deep(f5, DFS_DEEP_OCCURRENCE),
        alternates=[],
    )
    f16 = get_case("f16")
    hbase = dataclasses.replace(
        f16, case_id="f16-xl", workload=_hbase_scaled, horizon=18.0
    )
    f18 = get_case("f18")
    kafka = dataclasses.replace(
        f18,
        case_id="f18-xl",
        workload=_kafka_scaled,
        horizon=22.0,
        oracle=f18.oracle & _KAFKA_GATE,
        ground_truth=_deep(f18, KAFKA_DEEP_OCCURRENCE),
        alternates=[],
    )
    f21 = get_case("f21")
    cass = dataclasses.replace(
        f21,
        case_id="f21-xl",
        workload=_cass_scaled,
        horizon=26.0,
        oracle=f21.oracle & _CASS_GATE,
        ground_truth=_deep(f21, CASS_DEEP_OCCURRENCE),
        alternates=[],
    )
    return [zk, hdfs, hbase, kafka, cass]
