"""MiniDFS failure cases: f5–f11 (HDFS-4233 … HDFS-15032) and f23 (soft-fault)."""

from __future__ import annotations

from ..core.oracle import (
    CrashedTaskOracle,
    LogMessageOracle,
    StatePredicateOracle,
)
from ..sim.cluster import Cluster
from ..systems.minidfs.balancer import Balancer
from ..systems.minidfs.checkpoint import CheckpointDaemon
from ..systems.minidfs.client import DfsClient
from ..systems.minidfs.datanode import DataNode
from ..systems.minidfs.image_auditor import AUDITOR_ENDPOINT, ImageAuditor
from ..systems.minidfs.namenode import NN_ENDPOINT, NameNode
from . import register
from .case import FailureCase, GroundTruth


def _base_cluster(cluster: Cluster, datanodes: int = 3):
    namenode = NameNode(cluster)
    namenode.start()
    nodes = [DataNode(cluster, f"dn{i}") for i in range(1, datanodes + 1)]
    for node in nodes:
        node.start()
    CheckpointDaemon(cluster, namenode, period=2.0).start()
    return namenode, nodes


def _client_script(
    client: DfsClient, files, blocks: int = 3, read: bool = True, pace: float = 0.8
):
    yield client.sleep(0.6)
    for path in files:
        yield from client.write_file(path, blocks=blocks)
        yield client.sleep(pace)
    if read:
        yield from client.fetch_token()
        for path in files:
            for index in range(blocks):
                block = f"{path.replace('/', '_')}-blk{index}"
                yield from client.read_block(block, "dn1")
    client.cluster.state["client_done"] = True


def dfs_workload(cluster: Cluster) -> None:
    """Namenode, three datanodes, checkpointing, one write+read client."""
    _base_cluster(cluster)
    client = DfsClient(cluster, "dfsclient")
    cluster.spawn(
        "dfsclient",
        _client_script(client, ["/data/a", "/data/b", "/data/c", "/data/d"]),
    )


def dying_client_workload(cluster: Cluster) -> None:
    """A client dies mid-write, forcing lease recovery (HDFS-12070)."""
    _base_cluster(cluster)
    client = DfsClient(cluster, "dfsclient")
    cluster.spawn(
        "dfsclient", _client_script(client, ["/data/a"], blocks=2, read=False)
    )
    doomed = DfsClient(cluster, "doomed")
    task = cluster.spawn(
        "doomed", _client_script(doomed, ["/data/tmp"], blocks=30, read=False)
    )
    cluster.sim.call_at(1.8, lambda: cluster.sim.kill(task))


def image_audit_workload(cluster: Cluster) -> None:
    """The write workload plus the fsimage integrity auditor (f23)."""
    _base_cluster(cluster)
    client = DfsClient(cluster, "dfsclient")
    cluster.spawn("dfsclient", _client_script(client, ["/data/a", "/data/b"]))
    auditor = ImageAuditor(cluster, period=2.0)
    cluster.spawn(AUDITOR_ENDPOINT, auditor.image_audit_loop())


def balancer_workload(cluster: Cluster) -> None:
    """The write workload plus a running balancer (HDFS-15032)."""
    _base_cluster(cluster)
    client = DfsClient(cluster, "dfsclient")
    cluster.spawn("dfsclient", _client_script(client, ["/data/a"], read=False))
    Balancer(cluster, [NN_ENDPOINT], ["dn1", "dn2", "dn3"], period=1.5).start()


register(
    FailureCase(
        case_id="f5",
        description=(
            "A FileNotFoundException while rolling the edit log leaves the "
            "backup image invalid, but the namenode keeps serving with no "
            "usable backup."
        ),
        workload=dfs_workload,
        horizon=12.0,
        oracle=(
            LogMessageOracle("Unable to roll edit log")
            & StatePredicateOracle(
                lambda state: state.get("backup_valid") is False
                and state.get("nn_serving") is True,
                "backup invalid while still serving",
            )
        ),
        ground_truth=GroundTruth(
            function="edit_roll_loop",
            op="disk_read",
            exception="FileNotFoundException",
            occurrence=2,
            module_suffix="minidfs/namenode.py",
        ),
    )
)


register(
    FailureCase(
        case_id="f6",
        description=(
            "An InterruptedException during the image upload is ignored "
            "and the round is recorded as successful; since nothing new "
            "arrives afterwards, the upload is never redone and the "
            "namenode's backup image stays stale."
        ),
        workload=dfs_workload,
        horizon=12.0,
        oracle=(
            LogMessageOracle("Ignoring exception during image transfer")
            & StatePredicateOracle(
                lambda state: state.get("checkpoint_txid", -1)
                > state.get("nn_backup_txid", -1),
                "namenode backup image stale",
            )
        ),
        ground_truth=GroundTruth(
            function="checkpoint_once",
            op="net_transfer",
            exception="InterruptedException",
            occurrence=2,  # calibrated: the last upload carrying fresh edits
            module_suffix="minidfs/checkpoint.py",
            index=1,  # the upload transfer (index 0 is the download)
        ),
    )
)


register(
    FailureCase(
        case_id="f7",
        description=(
            "The block-recovery RPC for an expired lease fails once and is "
            "never retried; the file stays open forever, risking data loss."
        ),
        workload=dying_client_workload,
        horizon=12.0,
        oracle=(
            LogMessageOracle("Failed to recover block")
            & StatePredicateOracle(
                lambda state: len(state.get("open_files", [])) > 0,
                "file still open at end of run",
            )
        ),
        ground_truth=GroundTruth(
            function="lease_monitor",
            op="sock_send",
            exception="SocketException",
            occurrence=1,
            module_suffix="minidfs/namenode.py",
        ),
    )
)


register(
    FailureCase(
        case_id="f8",
        description=(
            "When the mirror connect of a write pipeline fails, the block "
            "is abandoned and retried but the first datanode's socket is "
            "never closed."
        ),
        workload=dfs_workload,
        horizon=12.0,
        oracle=(
            LogMessageOracle("Abandoning block")
            & StatePredicateOracle(
                lambda state: state.get("leaked_sockets", 0) > 0,
                "socket leaked",
            )
        ),
        ground_truth=GroundTruth(
            function="write_block",
            op="sock_connect",
            exception="ConnectException",
            occurrence=2,
            module_suffix="minidfs/client.py",
            index=1,  # the mirror connect
        ),
    )
)


register(
    FailureCase(
        case_id="f9",
        description=(
            "A failure while fetching the block token is swallowed and the "
            "dead token cached; every read is denied and retried with "
            "growing backoff before the token is finally refreshed."
        ),
        workload=dfs_workload,
        horizon=16.0,
        oracle=(
            LogMessageOracle("Block token is expired")
            & StatePredicateOracle(
                lambda state: state.get("slowest_read", 0.0) > 3.0,
                "read slowed by orders of magnitude",
            )
        ),
        ground_truth=GroundTruth(
            function="fetch_token",
            op="sock_recv",
            exception="IOException",
            occurrence=1,
            module_suffix="minidfs/client.py",
        ),
    )
)


register(
    FailureCase(
        case_id="f10",
        description=(
            "A disk error while persisting the VERSION file during "
            "registration makes the datanode give up starting entirely."
        ),
        workload=dfs_workload,
        horizon=12.0,
        oracle=(
            LogMessageOracle("Failed to start datanode")
            & StatePredicateOracle(
                lambda state: len(state.get("datanodes_started", [])) < 3,
                "a datanode never started",
            )
        ),
        ground_truth=GroundTruth(
            function="register",
            op="disk_write",
            exception="IOException",
            occurrence=1,
            module_suffix="minidfs/datanode.py",
        ),
    )
)


register(
    FailureCase(
        case_id="f11",
        description=(
            "Per-datanode failures are tolerated, but a connection failure "
            "while contacting the namenode escapes the loop and kills the "
            "balancer thread."
        ),
        workload=balancer_workload,
        horizon=12.0,
        oracle=(
            LogMessageOracle("Balancer exiting: failed to contact namenode")
            & CrashedTaskOracle(task_prefix="balancer", error_type="SocketException")
        ),
        ground_truth=GroundTruth(
            function="run",
            op="sock_connect",
            exception="SocketException",
            occurrence=3,
            module_suffix="minidfs/balancer.py",
        ),
    )
)


register(
    FailureCase(
        case_id="f23",
        description=(
            "The audit re-read of a freshly written checkpoint image "
            "verifies only the magic header before the image is "
            "advertised; a short read with an intact header is noticed "
            "only after downstream consumers already saw the txid.  Every "
            "exception on the audit path is downgraded to a skipped "
            "round, so only corrupt read data can trigger the failure."
        ),
        workload=image_audit_workload,
        horizon=12.0,
        oracle=(
            LogMessageOracle("Advertised checkpoint image")
            & StatePredicateOracle(
                lambda state: state.get("aud_truncated_txid", -1) > 0,
                "truncated image advertised",
            )
        ),
        ground_truth=GroundTruth(
            function="audit_fsimage_once",
            op="disk_read",
            exception="corrupt:truncate_read",
            occurrence=1,
            module_suffix="minidfs/image_auditor.py",
        ),
        fault_dims="all",
        addon_modules=("repro.systems.minidfs.image_auditor",),
    )
)
