"""MiniKafka failure cases: f18–f20 (KA-12508 … KA-10048) and f24 (soft-fault)."""

from __future__ import annotations

from ..core.oracle import (
    LogMessageOracle,
    StatePredicateOracle,
    StuckTaskOracle,
)
from ..sim.cluster import Cluster
from ..systems.minikafka.broker import Broker, BrokerClient
from ..systems.minikafka.connect import ConfigService, Herder
from ..systems.minikafka.mirror import FailoverConsumer, MirrorTask, Producer
from ..systems.minikafka.offset_relay import (
    OffsetRelay,
    RELAY_ENDPOINT,
    RELAY_FEEDER,
)
from ..systems.minikafka.table import INPUT_TOPIC, EmitOnChangeProcessor
from . import register
from .case import FailureCase, GroundTruth


#: (key, value) records fed to the emit-on-change table: repeated values
#: must be suppressed; each change must be emitted exactly once.
TABLE_RECORDS = [
    ("k1", "a"), ("k2", "x"), ("k1", "a"), ("k1", "b"), ("k2", "x"),
    ("k2", "y"), ("k1", "c"), ("k3", "m"), ("k3", "m"), ("k1", "d"),
]
TABLE_EXPECTED_EMITS = 7  # distinct changes in TABLE_RECORDS


def table_workload(cluster: Cluster) -> None:
    broker = Broker(cluster, "broker1")
    broker.start()
    processor = EmitOnChangeProcessor(cluster, "table-task", "broker1")
    processor.start()
    feeder = BrokerClient(cluster, "table-feeder", "broker1")

    def feed():
        yield feeder.sleep(0.3)
        for key, value in TABLE_RECORDS:
            yield from feeder.produce(INPUT_TOPIC, (key, value))
            yield feeder.jitter(0.25)
        cluster.state["feed_done"] = True

    cluster.spawn("table-feeder", feed())
    cluster.state["expected_emits"] = TABLE_EXPECTED_EMITS


def connect_workload(cluster: Cluster) -> None:
    Broker(cluster, "broker1").start()
    ConfigService(
        cluster,
        {name: {"tasks": 2} for name in ("sink-a", "sink-b", "sink-c")},
    ).start()
    herder = Herder(cluster)
    herder.start(["sink-a", "sink-b", "sink-c"])
    feeder = BrokerClient(cluster, "connect-traffic", "broker1")

    def traffic():
        yield feeder.sleep(0.4)
        for index in range(12):
            yield from feeder.produce("connect-status", ("status", index))
            if index % 4 == 3:
                feeder.log.info("Connect status topic at offset %d", index + 1)
            yield feeder.jitter(0.4)

    cluster.spawn("connect-traffic", traffic())


def offset_relay_workload(cluster: Cluster) -> None:
    """A broker plus the cross-cluster offset relay (f24)."""
    Broker(cluster, "broker1").start()
    relay = OffsetRelay(cluster, period=0.5)
    cluster.net.register(RELAY_ENDPOINT)
    cluster.net.register(RELAY_FEEDER)
    cluster.spawn(RELAY_FEEDER, relay.offset_feed_loop())
    cluster.spawn(RELAY_ENDPOINT, relay.offset_relay_loop())


def mirror_workload(cluster: Cluster) -> None:
    Broker(cluster, "brokerA").start()
    Broker(cluster, "brokerB").start()
    Producer(cluster, "brokerA", "payments", [f"p{i}" for i in range(24)]).start()
    MirrorTask(cluster, "brokerA", "brokerB", "payments").start()
    FailoverConsumer(cluster, "brokerA", "brokerB", "payments", failover_at=2.5).start()


register(
    FailureCase(
        case_id="f18",
        description=(
            "The input offset is committed before the changelog flush; a "
            "flush failure restarts the task, and the already-committed "
            "update is neither re-processed nor restored — it is lost "
            "downstream."
        ),
        workload=table_workload,
        horizon=12.0,
        oracle=(
            LogMessageOracle("State flush failed .* restarting task")
            & StatePredicateOracle(
                lambda state: state.get("feed_done") is True
                and state.get("table_emitted", 0) < state.get("expected_emits", 0),
                "a change was never emitted downstream",
            )
        ),
        ground_truth=GroundTruth(
            function="flush_change",
            op="disk_append",
            exception="IOException",
            occurrence=4,
            module_suffix="minikafka/table.py",
        ),
        log_style="kafka",
        alternates=[
            # A different instance of the same flush site loses a
            # different update — the same symptom from another change.
            GroundTruth(
                function="flush_change",
                op="disk_append",
                exception="IOException",
                occurrence=3,
                module_suffix="minikafka/table.py",
            ),
        ],
    )
)


register(
    FailureCase(
        case_id="f19",
        description=(
            "A failed config read parks a connector start on a condition "
            "nobody signals; the herder's only worker thread is pinned, "
            "and every later connector request times out."
        ),
        workload=connect_workload,
        horizon=12.0,
        oracle=(
            LogMessageOracle("worker thread may be blocked")
            & StuckTaskOracle("start_connector", task_prefix="connect-worker")
        ),
        ground_truth=GroundTruth(
            function="start_connector",
            op="sock_recv",
            exception="IOException",
            occurrence=1,
            module_suffix="minikafka/connect.py",
        ),
        log_style="kafka",
    )
)


register(
    FailureCase(
        case_id="f20",
        description=(
            "A failed mirrored produce is skipped with the source position "
            "advancing anyway; the record never reaches the target "
            "cluster, and a consumer failing over can never read it."
        ),
        workload=mirror_workload,
        horizon=14.0,
        oracle=(
            LogMessageOracle("Failed mirroring record")
            & StatePredicateOracle(
                lambda state: state.get("consumer_done") is True
                and state.get("mirror_position", 0)
                >= state.get("topic:brokerA:payments", 0)
                and state.get("topic:brokerB:payments", 0)
                < state.get("topic:brokerA:payments", 0),
                "target cluster permanently missing records",
            )
        ),
        ground_truth=GroundTruth(
            function="call",
            op="sock_send",
            exception="SocketException",
            occurrence=21,  # calibrated: a mirror produce to the target broker
            module_suffix="minikafka/broker.py",
        ),
        failure_seed=7,
        log_style="kafka",
    )
)


register(
    FailureCase(
        case_id="f24",
        description=(
            "The offset relay commits whatever offset it fetched with no "
            "monotonicity check against its high-water mark, so one stale "
            "or mangled offset payload silently rewinds the committed "
            "position.  Fetch exceptions only skip the record, so only a "
            "corrupt payload can regress the commit."
        ),
        workload=offset_relay_workload,
        horizon=8.0,
        oracle=(
            LogMessageOracle("Offset relay committed")
            & StatePredicateOracle(
                lambda state: state.get("relay_regressed") is True,
                "committed offset regressed",
            )
        ),
        ground_truth=GroundTruth(
            function="offset_relay_loop",
            op="sock_recv",
            exception="corrupt:stale_payload",
            occurrence=4,
            module_suffix="minikafka/offset_relay.py",
        ),
        log_style="kafka",
        fault_dims="all",
        addon_modules=("repro.systems.minikafka.offset_relay",),
    )
)
