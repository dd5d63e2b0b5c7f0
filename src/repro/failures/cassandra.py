"""MiniCassandra failure cases: f21 (C*-17663), f22 (C*-6415) and f27 (soft-fault)."""

from __future__ import annotations

from ..core.oracle import (
    CrashedTaskOracle,
    LogMessageOracle,
    StatePredicateOracle,
    StuckTaskOracle,
)
from ..sim.cluster import Cluster
from ..systems.minicass.hint_replayer import (
    HintReplayer,
    REPLAY_TARGET,
    REPLAYER_ENDPOINT,
)
from ..systems.minicass.repair import RepairCoordinator, WriteDriver
from ..systems.minicass.replica import Replica
from ..systems.minicass.streaming import StreamingService
from . import register
from .case import FailureCase, GroundTruth


REPLICAS = ("cass1", "cass2", "cass3")


def repair_workload(cluster: Cluster) -> None:
    replicas = [Replica(cluster, name) for name in REPLICAS]
    for replica in replicas:
        replica.start()
    RepairCoordinator(cluster, REPLICAS).start()
    WriteDriver(cluster, REPLICAS).start()


def streaming_workload(cluster: Cluster) -> None:
    replicas = [Replica(cluster, name) for name in REPLICAS]
    for replica in replicas:
        replica.start()
    files = [(f"/cass/stream/file{i}", 16 * (i + 1)) for i in range(4)]
    StreamingService(cluster, files).start()
    WriteDriver(cluster, REPLICAS, count=8).start()


def hint_replay_workload(cluster: Cluster) -> None:
    """Replicas and writes plus the hinted-handoff replayer (f27)."""
    replicas = [Replica(cluster, name) for name in REPLICAS]
    for replica in replicas:
        replica.start()
    WriteDriver(cluster, REPLICAS, count=8).start()
    replayer = HintReplayer(cluster, period=1.2)
    cluster.net.register(REPLAYER_ENDPOINT)
    cluster.net.register(REPLAY_TARGET)
    cluster.spawn(REPLAYER_ENDPOINT, replayer.hint_replay_loop())


register(
    FailureCase(
        case_id="f21",
        description=(
            "A stream task that fails mid-transfer never releases the "
            "shared channel proxy; the next task finds the channel busy "
            "and dies of an IllegalStateException."
        ),
        workload=streaming_workload,
        horizon=12.0,
        oracle=(
            LogMessageOracle("failed mid-transfer")
            & CrashedTaskOracle(
                task_prefix="stream-task", error_type="IllegalStateException"
            )
        ),
        ground_truth=GroundTruth(
            function="stream_file",
            op="net_transfer",
            exception="IOException",
            occurrence=2,
            module_suffix="minicass/streaming.py",
        ),
    )
)


register(
    FailureCase(
        case_id="f22",
        description=(
            "The repair coordinator waits for a snapshot ack from every "
            "replica with no timeout; a lost request (or a replica whose "
            "column family was never created) blocks the session forever."
        ),
        workload=repair_workload,
        horizon=12.0,
        oracle=(
            LogMessageOracle("Still waiting for snapshot responses")
            & StuckTaskOracle("await_snapshots", task_prefix="repair-coordinator")
        ),
        ground_truth=GroundTruth(
            function="snapshot_phase",
            op="sock_send",
            exception="SocketException",
            occurrence=2,
            module_suffix="minicass/repair.py",
        ),
        alternates=[
            # CA-18748-style deeper root cause: the replica's column
            # family was never created because of a disk fault, so the
            # snapshot can never be taken — same observed symptom.
            GroundTruth(
                function="create_column_family",
                op="disk_write",
                exception="IOException",
                occurrence=2,
                module_suffix="minicass/replica.py",
            ),
        ],
    )
)


register(
    FailureCase(
        case_id="f27",
        description=(
            "The hint replayer acknowledges delivery without comparing "
            "the transferred byte count to the hint size, so a short "
            "transfer silently drops the hint's tail after the delivery "
            "is already acknowledged.  Transfer exceptions defer the "
            "hint to the next round, so only corrupt transfer results "
            "can acknowledge a short delivery."
        ),
        workload=hint_replay_workload,
        horizon=12.0,
        oracle=(
            LogMessageOracle("Hint replay to hint-target delivered")
            & StatePredicateOracle(
                lambda state: state.get("hint_short_delivery", 0) > 0,
                "short hint delivery acknowledged",
                # Audited: only ever assigned a positive shortfall.
                monotone=True,
            )
        ),
        ground_truth=GroundTruth(
            function="replay_hint_once",
            op="net_transfer",
            exception="corrupt:truncate_read",
            occurrence=2,
            module_suffix="minicass/hint_replayer.py",
        ),
        fault_dims="all",
        addon_modules=("repro.systems.minicass.hint_replayer",),
    )
)
