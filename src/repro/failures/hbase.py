"""MiniHBase failure cases: f12–f17 (HBase-18137 … HBase-25905) and f26 (soft-fault)."""

from __future__ import annotations

from ..core.oracle import (
    LogMessageOracle,
    StatePredicateOracle,
    StuckTaskOracle,
)
from ..sim.cluster import Cluster
from ..systems.minihbase.hdfs_stream import MiniDfsService
from ..systems.minihbase.procedure import MasterChore, ProcedureExecutor
from ..systems.minihbase.regionserver import MultiClient, RegionServer
from ..systems.minihbase.replication import (
    ReplicationPeer,
    ReplicationQueueClaimer,
    ReplicationSource,
)
from ..systems.minihbase.splitlog import SplitLogManager, SplitWorker
from ..systems.minihbase.wal_trimmer import TRIMMER_ENDPOINT, WalTrimmer
from . import register
from .case import FailureCase, GroundTruth


def wal_workload(cluster: Cluster) -> None:
    """Region server writing through the async WAL, with replication."""
    MiniDfsService(cluster).start()
    rs = RegionServer(cluster, "rs1", roll_period=2.0)
    rs.add_region("regionA")
    rs.add_region("regionB")
    rs.start(burst=5, burst_period=0.4)
    ReplicationPeer(cluster).start()
    ReplicationSource(cluster, "rs1").start()


def multi_workload(cluster: Cluster) -> None:
    """Batched mutations sharing a cell scanner (HB-19876)."""
    MiniDfsService(cluster).start()
    rs = RegionServer(cluster, "rs1", roll_period=3.0)
    rs.add_region("regionA")
    rs.start(burst=2, burst_period=0.8)
    expected = {}
    batches = []
    for batch_index in range(3):
        actions = [f"row{batch_index}-{i}" for i in range(4)]
        cells = [f"val{batch_index}-{i}" for i in range(4)]
        expected.update(dict(zip(actions, cells)))
        batches.append((actions, cells, False))
    cluster.state["expected_data"] = expected
    MultiClient(cluster, "hclient", "rs1", batches).start()


def _region_data_corrupted(state: dict) -> bool:
    expected = state.get("expected_data", {})
    data = state.get("region_data", {})
    return any(key in data and data[key] != value for key, value in expected.items())


def split_workload(cluster: Cluster) -> None:
    """Split a dead server's WAL files across two workers (HB-20583)."""
    wal_paths = []
    for index in range(4):
        path = f"/hbase/dead-rs/wal.{index}"
        cluster.disk.write(path, b"WALHDR\n" + b"edit\n" * (4 + index))
        wal_paths.append(path)
    for worker_name in ("split-worker1", "split-worker2"):
        SplitWorker(cluster, worker_name, "split-manager").start()
    SplitLogManager(
        cluster, ("split-worker1", "split-worker2"), wal_paths
    ).start()


def wal_trim_workload(cluster: Cluster) -> None:
    """The WAL workload plus the old-segment trimmer (f26)."""
    wal_workload(cluster)
    trimmer = WalTrimmer(cluster, period=1.8)
    cluster.spawn(TRIMMER_ENDPOINT, trimmer.wal_trim_loop())


def procedure_workload(cluster: Cluster) -> None:
    """Three multi-step master procedures plus master chores (HB-19608)."""
    executor = ProcedureExecutor(cluster)
    executor.start(procedures=[4, 4, 4])
    MasterChore(cluster).start()


def claim_workload(cluster: Cluster) -> None:
    """Two region servers race to claim a dead server's replication
    queue under a persistent lock (HB-16144)."""
    MiniDfsService(cluster).start()
    rs1 = RegionServer(cluster, "rs1", roll_period=2.5)
    rs1.add_region("regionA")
    rs1.start(burst=3, burst_period=0.5)
    rs2 = RegionServer(cluster, "rs2", roll_period=2.5)
    cluster.disk.write(
        ReplicationQueueClaimer.QUEUE_PATH, b"edit\n" * 8
    )
    ReplicationQueueClaimer(cluster, rs1, delay=0.5).start()
    ReplicationQueueClaimer(cluster, rs2, delay=1.0).start()


register(
    FailureCase(
        case_id="f12",
        description=(
            "A WAL stream that breaks before the first entry persists "
            "leaves a header-only WAL file; the replication reader can "
            "never advance past a finished-but-empty file, so replication "
            "lags forever."
        ),
        workload=wal_workload,
        horizon=15.0,
        oracle=(
            LogMessageOracle("Replication source for .* is stuck")
            & StatePredicateOracle(
                lambda state: state.get("replication_stuck") is True,
                "replication pinned on an empty WAL",
            )
        ),
        ground_truth=GroundTruth(
            function="write_packet",
            op="sock_send",
            exception="SocketException",
            occurrence=107,  # calibrated: first packet of a freshly rolled WAL
            module_suffix="minihbase/hdfs_stream.py",
        ),
        failure_seed=7,
    )
)


register(
    FailureCase(
        case_id="f13",
        description=(
            "A transient IOException in one procedure step sets the "
            "executor's failed latch; the step retry succeeds but the "
            "latch is never cleared, so later procedures are refused."
        ),
        workload=procedure_workload,
        horizon=10.0,
        oracle=(
            LogMessageOracle("Procedure executor is aborting")
            & StatePredicateOracle(
                lambda state: state.get("procedures_completed", 0) < 3,
                "later procedures refused",
            )
        ),
        ground_truth=GroundTruth(
            function="persist_step",
            op="disk_write",
            exception="IOException",
            occurrence=2,
            module_suffix="minihbase/procedure.py",
        ),
    )
)


register(
    FailureCase(
        case_id="f14",
        description=(
            "A decode failure for one non-atomic mutation skips the "
            "shared cell scanner's advance; every later mutation in the "
            "batch silently writes its predecessor's value."
        ),
        workload=multi_workload,
        horizon=10.0,
        oracle=(
            LogMessageOracle("Failed converting mutation")
            & StatePredicateOracle(_region_data_corrupted, "region data corrupted")
        ),
        ground_truth=GroundTruth(
            function="apply_batch",
            op="codec_decode",
            exception="IOException",
            occurrence=6,
            module_suffix="minihbase/regionserver.py",
        ),
    )
)


register(
    FailureCase(
        case_id="f15",
        description=(
            "A worker that fails a split task triggers a resubmit of the "
            "most recently assigned task instead of the failed one; the "
            "failed WAL is never split and the manager waits forever."
        ),
        workload=split_workload,
        horizon=12.0,
        oracle=(
            LogMessageOracle("resubmitting task")
            & StuckTaskOracle("wait_for_split", task_prefix="split-manager")
        ),
        ground_truth=GroundTruth(
            function="work_loop",
            op="disk_read",
            exception="IOException",
            occurrence=2,
            module_suffix="minihbase/splitlog.py",
        ),
    )
)


register(
    FailureCase(
        case_id="f16",
        description=(
            "A region server aborts while holding the replication queue "
            "lock; the abort path never removes the lock file, so every "
            "other claimer spins on it forever."
        ),
        workload=claim_workload,
        horizon=14.0,
        oracle=(
            LogMessageOracle("ABORTING region server")
            & StuckTaskOracle("claim_queue", task_prefix="rs2")
        ),
        ground_truth=GroundTruth(
            function="process_queue",
            op="disk_read",
            exception="IOException",
            occurrence=1,
            module_suffix="minihbase/replication.py",
        ),
    )
)


register(
    FailureCase(
        case_id="f17",
        description=(
            "The motivating example: a broken WAL pipeline strands more "
            "than one batch of unacked appends; a log roll that arrives "
            "mid-drain wedges the consumer, the roller blocks in "
            "wait_for_safe_point forever, and region flushes time out."
        ),
        workload=wal_workload,
        horizon=15.0,
        oracle=(
            LogMessageOracle("Failed to get sync result")
            & StuckTaskOracle("wait_for_safe_point", task_prefix="rs1")
        ),
        ground_truth=GroundTruth(
            function="read_ack",
            op="sock_recv",
            exception="IOException",
            occurrence=55,  # calibrated: one of ~8 satisfying of 409 instances
            module_suffix="minihbase/hdfs_stream.py",
        ),
        failure_seed=7,
    )
)

register(
    FailureCase(
        case_id="f26",
        description=(
            "The trimmer assumes the directory listing is oldest-first "
            "and deletes its head; a reordered listing puts the active "
            "segment first, so the trimmer deletes the segment it is "
            "still writing.  Listing or delete exceptions only skip the "
            "round, so no injected exception can lose the active segment."
        ),
        workload=wal_trim_workload,
        horizon=12.0,
        oracle=(
            LogMessageOracle("WAL trimmer deleted the active segment")
            & StatePredicateOracle(
                lambda state: bool(state.get("trim_lost_active")),
                "active WAL segment deleted",
            )
        ),
        ground_truth=GroundTruth(
            function="trim_wal_once",
            op="disk_list",
            exception="corrupt:reorder_fields",
            occurrence=3,
            module_suffix="minihbase/wal_trimmer.py",
        ),
        fault_dims="all",
        addon_modules=("repro.systems.minihbase.wal_trimmer",),
    )
)
