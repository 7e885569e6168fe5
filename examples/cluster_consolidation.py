"""Scenario: cluster-level consolidation with per-node Dirigent.

The paper argues Dirigent is orthogonal to QoS-aware cluster schedulers
(Paragon, Quasar, ...) and "can be integrated with these schemes to
manage performance on each node".  This example plays the cluster
scheduler's role:

1. measure the completion-time distribution of a latency-critical task
   stream under Baseline and under Dirigent;
2. let a reservation-based dispatcher pack as many streams as possible
   onto a rack of nodes for each distribution (Figure 2 at rack scale);
3. run a small mixed cluster — one unmanaged node, one Dirigent node —
   and report per-node and cluster-wide outcomes;
4. crash one node of a small fleet mid-run and let the self-healing
   control plane (:mod:`repro.cluster.control`) re-place its stream.

Run with::

    python examples/cluster_consolidation.py
"""

from repro.cluster import (
    Cluster,
    ClusterNode,
    ReservationDispatcher,
    StreamRequest,
)
from repro.core import BASELINE, DIRIGENT
from repro.experiments import measure_baseline, mix_by_name, run_policy
from repro.faults import NodeFaultPlan, NodeFaultSpec
from repro.sched.reservation import reservation_for

EXECUTIONS = 25
RACK_NODES = 4


def main(executions: int = EXECUTIONS, rack_nodes: int = RACK_NODES) -> None:
    mix = mix_by_name("ferret rs")
    baseline = measure_baseline(mix, executions=executions)
    dirigent = run_policy(mix, DIRIGENT, executions=executions)

    print("Task: %s (deadline %.3f s)" % (mix.fg_name, baseline.deadlines_s[0]))
    print(
        "95%% reservation per task: Baseline %.3f s, Dirigent %.3f s"
        % (
            reservation_for(baseline.all_durations, 0.95),
            reservation_for(dirigent.all_durations, 0.95),
        )
    )

    # Rack-scale packing: three latency-critical cores per node.
    period = reservation_for(baseline.all_durations, 0.95) * 1.1
    for label, durations in (
        ("Baseline", baseline.all_durations),
        ("Dirigent", dirigent.all_durations),
    ):
        dispatcher = ReservationDispatcher(
            num_nodes=rack_nodes, capacity_cores=3.0
        )
        requests = [
            StreamRequest(
                name="stream-%d" % i,
                period_s=period,
                durations_s=tuple(durations),
            )
            for i in range(4 * rack_nodes)
        ]
        admitted = dispatcher.place_all(requests)
        print(
            "%s distributions: %2d streams admitted on %d nodes "
            "(mean reserved utilization %.0f%%)"
            % (
                label,
                admitted,
                rack_nodes,
                100
                * sum(dispatcher.utilization())
                / (len(dispatcher.utilization()) * 3.0),
            )
        )

    # A small mixed cluster.
    print()
    print("Running a 2-node cluster (one unmanaged, one Dirigent)...")
    cluster = Cluster(
        [
            ClusterNode("unmanaged", mix, BASELINE, executions=executions),
            ClusterNode("dirigent", mix, DIRIGENT, executions=executions,
                        seed=1),
        ]
    )
    outcome = cluster.run()
    for name, result in outcome.node_results.items():
        print(
            "  %-9s FG success %3.0f%%  sigma %.4f s  batch %.2f Ginstr/s"
            % (
                name,
                100 * result.fg_success_ratio,
                result.fg_stats.std_s,
                result.bg_instr_per_s / 1e9,
            )
        )
    print(
        "  cluster-wide FG success: %.0f%%, total batch %.2f Ginstr/s"
        % (
            100 * outcome.fg_success_ratio,
            outcome.total_bg_instr_per_s / 1e9,
        )
    )

    # Fleet self-healing: crash one node mid-run; the control plane
    # detects the missing heartbeats and re-places its stream.
    print()
    print("Crashing one node of a 3-node Dirigent fleet...")
    fleet = Cluster(
        [
            ClusterNode("n%d" % i, mix, DIRIGENT, executions=executions,
                        seed=10 + i, warmup=2)
            for i in range(3)
        ]
    )
    plan = NodeFaultPlan(
        scenario="demo-crash",
        seed=0,
        overrides=(NodeFaultSpec(node="n1", kind="crash", onset_s=0.5),),
    )
    healed = fleet.run(fault_plan=plan)
    print(
        "  fleet attainment %.0f%%  failovers %d  stranded executions %d"
        % (
            100 * healed.fg_success_ratio,
            healed.failovers,
            healed.stranded_executions,
        )
    )
    for incident, (ttd, ttr) in enumerate(
        zip(healed.time_to_detection_s, healed.time_to_recovery_s)
    ):
        print(
            "  incident %d: detected after %.0f ms, re-placed after %.0f ms"
            % (incident, 1000 * ttd, 1000 * ttr)
        )


if __name__ == "__main__":
    main()
