"""MiniZK failure cases: f1–f4 (ZK-2247 … ZK-3006) and f25 (soft-fault)."""

from __future__ import annotations

from ..core.oracle import (
    CrashedTaskOracle,
    LogMessageOracle,
    StatePredicateOracle,
    StuckTaskOracle,
)
from ..sim.cluster import Cluster
from ..systems.minizk import ZkClient, ZkServer
from ..systems.minizk.snapshot_loader import LOADER_ENDPOINT, SnapshotLoader
from . import register
from .case import FailureCase, GroundTruth

SERVER_IDS = (1, 2, 3)


def _boot_cluster(cluster: Cluster, with_epoch_files: bool = False) -> list[ZkServer]:
    servers = [ZkServer(cluster, sid, SERVER_IDS) for sid in SERVER_IDS]
    if with_epoch_files:
        for server in servers:
            cluster.disk.write(f"/{server.name}/currentEpoch", b"7")
    for server in servers:
        server.start()
    return servers


def write_workload(cluster: Cluster) -> None:
    """Quorum of three, two clients writing against the leader (zk3)."""
    _boot_cluster(cluster)
    for index in range(1, 3):
        ops = [f"create /app/node{index}-{i}" for i in range(5)]
        client = ZkClient(cluster, f"cli{index}", "zk3", ops)

        def delayed_start(c=client):
            yield c.sleep(2.0)  # let the election settle first
            yield from c.run()

        cluster.spawn(f"cli{index}", delayed_start())


def restart_workload(cluster: Cluster) -> None:
    """Servers booting from existing on-disk epoch files (restart analog)."""
    _boot_cluster(cluster, with_epoch_files=True)
    ops = [f"set /config/{i}" for i in range(3)]
    client = ZkClient(cluster, "cli1", "zk3", ops)

    def delayed_start():
        yield client.sleep(2.0)
        yield from client.run()

    cluster.spawn("cli1", delayed_start())


def snapshot_workload(cluster: Cluster) -> None:
    """The write workload plus the observer-side snapshot loader (f25)."""
    _boot_cluster(cluster)
    loader = SnapshotLoader(cluster, quorum_epoch=7, period=1.6)
    cluster.spawn(LOADER_ENDPOINT, loader.snapshot_serve_loop())


register(
    FailureCase(
        case_id="f1",
        description=(
            "An IOException while the leader appends to the transaction log "
            "is treated as a severe unrecoverable error: the request "
            "processor shuts down, but the quorum never re-elects, so the "
            "service stays unavailable."
        ),
        workload=write_workload,
        horizon=12.0,
        oracle=(
            LogMessageOracle("ZooKeeper service is not available anymore")
            & StatePredicateOracle(
                lambda state: state.get("zk_serving") is False,
                "service stopped serving",
            )
        ),
        ground_truth=GroundTruth(
            function="append",
            op="disk_append",
            exception="IOException",
            occurrence=3,
            module_suffix="minizk/txnlog.py",
        ),
    )
)


register(
    FailureCase(
        case_id="f2",
        description=(
            "An IOException while reading the session establishment "
            "response makes the client abandon the session instead of "
            "retrying; the client never recovers."
        ),
        workload=write_workload,
        horizon=12.0,
        oracle=(
            LogMessageOracle("Unable to read additional data from server")
            & StatePredicateOracle(
                lambda state: state.get("client_failed") is True,
                "client gave up its session",
            )
        ),
        ground_truth=GroundTruth(
            function="connect",
            op="sock_recv",
            exception="IOException",
            occurrence=1,
            module_suffix="minizk/client.py",
        ),
    )
)


register(
    FailureCase(
        case_id="f3",
        description=(
            "An IOException while the leader accepts a follower connection "
            "kills the whole listener; no follower can ever join, and "
            "followers block forever waiting for their join ack."
        ),
        workload=write_workload,
        horizon=12.0,
        oracle=(
            LogMessageOracle("Leaving listener")
            & StuckTaskOracle("wait_for_join", task_prefix="zk")
        ),
        ground_truth=GroundTruth(
            function="accept_loop",
            op="sock_recv",
            exception="IOException",
            occurrence=1,
            module_suffix="minizk/leader.py",
        ),
    )
)


register(
    FailureCase(
        case_id="f4",
        description=(
            "An IOException while loading the currentEpoch file is "
            "'handled' by returning a null epoch; the boot path then "
            "dereferences it and the server dies of the NPE analog."
        ),
        workload=restart_workload,
        horizon=12.0,
        oracle=(
            LogMessageOracle("Failed reading current epoch file")
            & CrashedTaskOracle(task_prefix="zk", error_type="TypeError")
        ),
        ground_truth=GroundTruth(
            function="load_epoch",
            op="disk_read",
            exception="IOException",
            occurrence=1,
            module_suffix="minizk/txnlog.py",
        ),
    )
)


register(
    FailureCase(
        case_id="f25",
        description=(
            "The snapshot loader trusts the epoch decoded from the "
            "snapshot header without cross-checking the quorum epoch, so "
            "a corrupted header makes it serve a snapshot from the wrong "
            "epoch.  Decode exceptions keep the previous snapshot, so "
            "only corrupt decoded data can skew the served epoch."
        ),
        workload=snapshot_workload,
        horizon=12.0,
        oracle=(
            LogMessageOracle("Serving snapshot from epoch")
            & StatePredicateOracle(
                lambda state: state.get("snapld_epoch_skew") is True,
                "served epoch diverged from quorum epoch",
            )
        ),
        ground_truth=GroundTruth(
            function="load_snapshot_once",
            op="codec_decode",
            exception="corrupt:bitflip_field",
            occurrence=2,
            module_suffix="minizk/snapshot_loader.py",
        ),
        fault_dims="all",
        addon_modules=("repro.systems.minizk.snapshot_loader",),
    )
)
