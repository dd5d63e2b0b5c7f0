"""Quickstart: reproduce the paper's motivating failure (HBase-25905).

A region server's WAL pipeline to DFS breaks at exactly the wrong moment,
stranding more than one batch of unacked appends; a log roll arriving
mid-drain wedges the WAL consumer forever.  The symptom the user saw:
"Failed to get sync result" timeouts plus a log roller stuck at
wait_for_safe_point.

This script runs the full ANDURIL workflow on that failure:
  1. take the production failure log and the failure oracle;
  2. probe the workload, derive relevant observables, build the causal
     graph, and rank the fault candidates;
  3. search with feedback until the oracle is satisfied;
  4. emit a deterministic reproduction script and replay it.

Run:  python examples/quickstart.py
"""

from repro.failures import get_case


def main() -> None:
    case = get_case("f17")
    print(f"Failure: {case.issue} — {case.title}")
    print(f"Oracle:  {case.oracle.description}")
    print()

    explorer = case.explorer(max_rounds=800)
    context = explorer.prepare()
    graph, pool = context.prepared.graph, explorer.policy.pool
    print(f"Relevant observables: {len(context.observables)}")
    print(f"Causal graph: {graph.node_count} nodes, {graph.edge_count} edges")
    print(f"Injectable fault candidates: {pool.candidate_count} "
          f"({pool.remaining_instances()} dynamic instances)")
    print()

    print("Searching (each round = one workload run with one injection)...")
    result = explorer.explore()
    assert result.success, result.message
    print(f"Reproduced in {result.rounds} rounds "
          f"({result.elapsed_seconds:.1f}s wall time)")
    print(f"Root-cause fault: {result.injected}")
    print()

    print("Deterministic reproduction script:")
    print(result.script.to_json())
    print()

    replay = result.script.replay(case.workload)
    print(f"Replay satisfies the oracle: {case.oracle.satisfied(replay)}")
    stuck = [s.name for s in replay.stuck if s.blocked_in("wait_for_safe_point")]
    print(f"Stuck threads in replay: {stuck}")


if __name__ == "__main__":
    main()
