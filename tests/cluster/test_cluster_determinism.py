"""Determinism and isolation checks for cluster runs."""

import pytest

from repro.cluster import Cluster, ClusterNode
from repro.core.policies import BASELINE, DIRIGENT
from repro.experiments.harness import clear_caches, run_policy
from repro.experiments.mixes import mix_by_name
from repro.sim.batch import ENV_BACKEND

EXECS = 5


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestClusterDeterminism:
    def test_cluster_run_is_reproducible(self):
        def outcome():
            nodes = [
                ClusterNode("a", mix_by_name("ferret rs"), BASELINE,
                            executions=EXECS, warmup=2, seed=0),
                ClusterNode("b", mix_by_name("bodytrack bwaves"), BASELINE,
                            executions=EXECS, warmup=2, seed=1),
            ]
            result = Cluster(nodes).run()
            return {
                name: r.durations_s for name, r in result.node_results.items()
            }

        assert outcome() == outcome()

    def test_nodes_do_not_interfere(self):
        # Lockstep co-execution must produce exactly the results of
        # running each node alone: nodes share no simulated state.
        solo = run_policy(
            mix_by_name("ferret rs"), BASELINE, executions=EXECS, warmup=2
        )
        nodes = [
            ClusterNode("a", mix_by_name("ferret rs"), BASELINE,
                        executions=EXECS, warmup=2, seed=0),
            ClusterNode("b", mix_by_name("streamcluster pca"), BASELINE,
                        executions=EXECS, warmup=2, seed=7),
        ]
        together = Cluster(nodes).run()
        assert together.node_results["a"].durations_s == solo.durations_s

    def test_nodes_finish_at_different_times(self):
        # Nodes with different-length tasks finish independently; the
        # cluster keeps ticking the unfinished ones.
        nodes = [
            ClusterNode("short", mix_by_name("fluidanimate bwaves"),
                        BASELINE, executions=EXECS, warmup=2),
            ClusterNode("long", mix_by_name("raytrace bwaves"),
                        BASELINE, executions=EXECS, warmup=2),
        ]
        result = Cluster(nodes).run()
        short = result.node_results["short"].elapsed_s
        long_ = result.node_results["long"].elapsed_s
        assert long_ > short


def _mixed_fleet():
    """One Baseline node, one Dirigent node and one Dirigent node with
    no warmup (its measurement window opens after the first tick)."""
    return [
        ClusterNode("base", mix_by_name("ferret rs"), BASELINE,
                    executions=3, warmup=2, seed=0),
        ClusterNode("dirigent", mix_by_name("ferret rs"), DIRIGENT,
                    executions=3, warmup=2, seed=1),
        ClusterNode("cold", mix_by_name("bodytrack bwaves"), DIRIGENT,
                    executions=3, warmup=0, seed=2),
    ]


class TestPerTickReference:
    @pytest.mark.parametrize("backend", [None, "scalar"],
                             ids=["default", "scalar"])
    def test_block_driven_run_matches_per_tick_lockstep(
        self, backend, monkeypatch
    ):
        # Reference: step every unfinished node one PolicySession.tick
        # at a time, round-robin, until all are done.  Cluster.run then
        # only aggregates, because every session is already finished.
        if backend is not None:
            monkeypatch.setenv(ENV_BACKEND, backend)
        nodes = _mixed_fleet()
        pending = list(nodes)
        while pending:
            for node in pending:
                node.session.tick()
            pending = [node for node in pending if not node.done]
        reference = Cluster(nodes).run()

        clear_caches()
        result = Cluster(_mixed_fleet()).run()

        assert result.node_results == reference.node_results
        assert result.fg_success_ratio == reference.fg_success_ratio
        assert result.total_bg_instr_per_s == \
            reference.total_bg_instr_per_s
