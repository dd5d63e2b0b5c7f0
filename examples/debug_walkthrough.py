"""A developer's-eye walkthrough of the reproduction pipeline.

Uses the stuck-leader-election failure (ZooKeeper-4203 analog) and shows
every intermediate artifact a developer would look at:

  * the production failure log versus a healthy run's log;
  * the relevant observables the per-thread diff extracts;
  * the causal graph linking those observables back to fault sites;
  * the ranked fault candidates and the first injection windows;
  * the reproduction script and the stuck-thread report of the replay.

Run:  python examples/debug_walkthrough.py
"""

from repro.failures import get_case
from repro.sim.scheduler import stuck_report


def main() -> None:
    case = get_case("f3")
    print(f"=== {case.issue}: {case.title} ===")
    print(case.description.strip())
    print()

    failure_log = case.failure_log()
    print(f"--- production failure log ({len(failure_log)} lines, tail) ---")
    for record in failure_log.records[-6:]:
        print(" ", record.format_line().split("\n")[0])
    print()

    explorer = case.explorer(max_rounds=300)
    context = explorer.prepare()
    prepared = context.prepared
    print(f"--- probe run: {len(prepared.normal_run.log)} log lines, "
          f"{len(prepared.normal_run.trace)} fault-site executions ---")
    print()

    print("--- relevant observables (failure-log-only messages) ---")
    for key in sorted(context.observables.keys()):
        observable = context.observables.get(key)
        print(f"  {key}  (at failure-log positions {observable.failure_positions})")
    print()

    print(f"--- causal graph: {prepared.graph.node_count} nodes, "
          f"{prepared.graph.edge_count} edges ---")
    kinds = {}
    for node in prepared.graph.nodes.values():
        kinds[node.kind.value] = kinds.get(node.kind.value, 0) + 1
    for kind, count in sorted(kinds.items()):
        print(f"  {kind:20s} {count}")
    print()

    print("--- ranked fault candidates (first window) ---")
    for entry in explorer.policy.pool.window(5):
        print(f"  F_i={entry.site_priority:<4} T={entry.temporal:<8.1f} "
              f"{entry.instance}")
    print()

    result = explorer.explore()
    assert result.success, result.message
    print(f"--- reproduced in {result.rounds} round(s) ---")
    print(result.script.to_json())
    print()

    replay = result.script.replay(case.workload)
    stuck = [
        summary for summary in replay.stuck if summary.blocked_in("wait_for_join")
    ]
    print("--- stuck threads in the replay (jstack analog) ---")
    for summary in stuck:
        print(f'  Thread "{summary.name}" blocked in: {" -> ".join(summary.stack)}')


if __name__ == "__main__":
    main()
