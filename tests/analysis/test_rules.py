"""Per-rule unit tests for the determinism & invariant analyzer.

Each rule gets (at least) one seeded-violation fixture asserting the
finding fires, and a suppressed twin asserting the inline
``# repro-lint: disable=RULE`` comment silences exactly it.
"""

import textwrap

import pytest

from repro.analysis.core import analyze_paths, default_rules, run_analysis


def lint_source(tmp_path, source, relpath="mod.py", select=None):
    """Write ``source`` under ``tmp_path`` and lint it.

    Returns the finding list; ``relpath`` may carry directories (used
    to place fixtures inside rule scopes such as ``sim/``).
    """
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    rules = default_rules()
    if select is not None:
        rules = [rule for rule in rules if rule.id in select]
    return analyze_paths([tmp_path], rules=rules, root=tmp_path)


def rule_ids(findings):
    return [finding.rule for finding in findings]


class TestDet001ImportTimeNondeterminism:
    def test_flags_import_time_clock_read(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import time
            START = time.time()
        """, select={"DET001"})
        assert rule_ids(findings) == ["DET001"]
        assert findings[0].line == 2

    def test_flags_argument_default(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import time

            def f(now=time.time()):
                return now
        """, select={"DET001"})
        assert rule_ids(findings) == ["DET001"]

    def test_call_inside_function_body_is_fine(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import time

            def f():
                return time.time()
        """, select={"DET001"})
        assert findings == []

    def test_suppressed(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import time
            START = time.time()  # repro-lint: disable=DET001
        """, select={"DET001"})
        assert findings == []


class TestDet002SharedOrUnseededRng:
    def test_flags_global_rng_anywhere(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import random

            def draw():
                return random.gauss(0.0, 1.0)
        """, select={"DET002"})
        assert rule_ids(findings) == ["DET002"]

    def test_flags_unseeded_random(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import random

            def make_rng():
                return random.Random()
        """, select={"DET002"})
        assert rule_ids(findings) == ["DET002"]

    def test_seeded_random_is_fine(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import random

            def make_rng(seed):
                return random.Random(seed)
        """, select={"DET002"})
        assert findings == []

    def test_suppressed(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import random

            def make_rng():
                return random.Random()  # repro-lint: disable=DET002
        """, select={"DET002"})
        assert findings == []


class TestDet003SetIterationInHotPath:
    SOURCE = """\
        def total(values):
            acc = 0.0
            for v in set(values):
                acc += v
            return acc
    """

    def test_flags_inside_sim_scope(self, tmp_path):
        findings = lint_source(tmp_path, self.SOURCE,
                               relpath="sim/hot.py", select={"DET003"})
        assert rule_ids(findings) == ["DET003"]

    def test_flags_comprehension_over_set_literal(self, tmp_path):
        findings = lint_source(tmp_path, """\
            def f():
                return [x for x in {1.0, 2.0}]
        """, relpath="sim/hot.py", select={"DET003"})
        assert rule_ids(findings) == ["DET003"]

    def test_outside_sim_scope_is_fine(self, tmp_path):
        findings = lint_source(tmp_path, self.SOURCE,
                               relpath="report.py", select={"DET003"})
        assert findings == []

    def test_sorted_set_is_fine(self, tmp_path):
        findings = lint_source(tmp_path, """\
            def total(values):
                acc = 0.0
                for v in sorted(set(values)):
                    acc += v
                return acc
        """, relpath="sim/hot.py", select={"DET003"})
        assert findings == []

    def test_suppressed(self, tmp_path):
        findings = lint_source(tmp_path, """\
            def total(values):
                acc = 0.0
                for v in set(values):  # repro-lint: disable=DET003
                    acc += v
                return acc
        """, relpath="sim/hot.py", select={"DET003"})
        assert findings == []


class TestDet004SumOverSet:
    def test_flags_sum_of_set_call(self, tmp_path):
        findings = lint_source(tmp_path, """\
            def f(values):
                return sum(set(values))
        """, select={"DET004"})
        assert rule_ids(findings) == ["DET004"]

    def test_flags_generator_over_set_literal(self, tmp_path):
        findings = lint_source(tmp_path, """\
            def f():
                return sum(x * x for x in {1.0, 2.0})
        """, select={"DET004"})
        assert rule_ids(findings) == ["DET004"]

    def test_sum_of_list_is_fine(self, tmp_path):
        findings = lint_source(tmp_path, """\
            def f(values):
                return sum(sorted(set(values)))
        """, select={"DET004"})
        assert findings == []

    def test_suppressed(self, tmp_path):
        findings = lint_source(tmp_path, """\
            def f(values):
                return sum(set(values))  # repro-lint: disable=DET004
        """, select={"DET004"})
        assert findings == []


class TestEnv001EnvironReadOutsideConfig:
    def test_flags_environ_get(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import os

            def workers():
                return os.environ.get("REPRO_WORKERS")
        """, select={"ENV001"})
        assert rule_ids(findings) == ["ENV001"]

    def test_flags_getenv_and_subscript(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import os

            def f():
                return os.getenv("A"), os.environ["B"]
        """, select={"ENV001"})
        assert rule_ids(findings) == ["ENV001", "ENV001"]

    def test_write_is_allowed(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import os

            def export(value):
                os.environ["REPRO_SIM_BACKEND"] = value
        """, select={"ENV001"})
        assert findings == []

    def test_config_module_is_exempt(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import os

            def knob():
                return os.environ.get("REPRO_X")
        """, relpath="repro/sim/config.py", select={"ENV001"})
        assert findings == []

    def test_suppressed(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import os

            def f():
                return os.getenv("A")  # repro-lint: disable=ENV001
        """, select={"ENV001"})
        assert findings == []


class TestEnv002ImportTimeEnvRead:
    def test_flags_module_constant(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import os

            LIMIT = int(os.environ.get("REPRO_LIMIT", "4"))
        """, select={"ENV002"})
        assert rule_ids(findings) == ["ENV002"]

    def test_flags_import_time_accessor_call(self, tmp_path):
        # Knob accessors from repro.sim.config.KNOBS are recognized by
        # name; calling one at import time freezes the knob per process.
        findings = lint_source(tmp_path, """\
            from repro.sim.config import default_executions

            EXECUTIONS = default_executions()
        """, select={"ENV002"})
        assert rule_ids(findings) == ["ENV002"]

    def test_call_time_read_is_fine(self, tmp_path):
        findings = lint_source(tmp_path, """\
            from repro.sim.config import default_executions

            def executions():
                return default_executions()
        """, select={"ENV002"})
        assert findings == []

    def test_applies_even_in_config_module(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import os

            CACHED = os.environ.get("REPRO_X")
        """, relpath="repro/sim/config.py", select={"ENV002"})
        assert rule_ids(findings) == ["ENV002"]

    def test_suppressed(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import os

            LIMIT = os.environ.get("L")  # repro-lint: disable=ENV001,ENV002
        """, select={"ENV002"})
        assert findings == []


class TestEnv003CacheKeyCrossCheck:
    HARNESS_MISSING_KNOBS = """\
        def run_policy_cached(cache, fg_name, config, warmup, seed):
            key = (fg_name, config, warmup, seed)
            return cache.get("policy", key)
    """

    def test_flags_harness_missing_cache_relevant_knobs(self, tmp_path):
        findings = lint_source(
            tmp_path, self.HARNESS_MISSING_KNOBS,
            relpath="repro/experiments/harness.py", select={"ENV003"},
        )
        assert rule_ids(findings) == ["ENV003", "ENV003"]
        messages = " ".join(finding.message for finding in findings)
        assert "REPRO_EXECUTIONS" in messages
        assert "REPRO_SIM_BACKEND" in messages

    def test_passes_when_symbols_present(self, tmp_path):
        findings = lint_source(tmp_path, """\
            from repro.sim.batch import resolve_backend

            def run_policy_cached(cache, fg_name, config, executions,
                                  warmup, seed):
                key = (fg_name, config, executions, warmup, seed,
                       resolve_backend())
                return cache.get("policy", key)
        """, relpath="repro/experiments/harness.py", select={"ENV003"})
        assert findings == []

    def test_skipped_when_harness_not_analyzed(self, tmp_path):
        findings = lint_source(tmp_path, "x = 1\n", select={"ENV003"})
        assert findings == []


class TestPar001WorkerMustBeImportable:
    def test_flags_lambda_and_nested_function(self, tmp_path):
        findings = lint_source(tmp_path, """\
            from concurrent.futures import ProcessPoolExecutor

            def run(cells):
                def helper(c):
                    return c
                with ProcessPoolExecutor() as pool:
                    pool.submit(lambda c: c, 1)
                    pool.map(helper, cells)
        """, select={"PAR001"})
        assert rule_ids(findings) == ["PAR001", "PAR001"]

    def test_module_level_worker_is_fine(self, tmp_path):
        findings = lint_source(tmp_path, """\
            from concurrent.futures import ProcessPoolExecutor

            def worker(c):
                return c

            def run(cells):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(worker, cells))
        """, select={"PAR001"})
        assert findings == []

    def test_no_pool_no_findings(self, tmp_path):
        findings = lint_source(tmp_path, """\
            def run(cells):
                return list(map(lambda c: c, cells))
        """, select={"PAR001"})
        assert findings == []

    def test_suppressed(self, tmp_path):
        findings = lint_source(tmp_path, """\
            from concurrent.futures import ProcessPoolExecutor

            def run(cells):
                with ProcessPoolExecutor() as pool:
                    pool.submit(lambda c: c, 1)  # repro-lint: disable=PAR001
        """, select={"PAR001"})
        assert findings == []


class TestPar002WorkerMustNotMutateModuleState:
    def test_flags_mutating_method_and_global(self, tmp_path):
        findings = lint_source(tmp_path, """\
            from concurrent.futures import ProcessPoolExecutor

            RESULTS = []
            COUNT = 0

            def worker(cell):
                global COUNT
                COUNT += 1
                RESULTS.append(cell)
                return cell

            def run(cells):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(worker, cells))
        """, select={"PAR002"})
        assert rule_ids(findings) == ["PAR002", "PAR002"]

    def test_flags_subscript_store(self, tmp_path):
        findings = lint_source(tmp_path, """\
            from concurrent.futures import ProcessPoolExecutor

            STATE = {}

            def worker(cell):
                STATE[cell] = 1
                return cell

            def run(cells):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(worker, cells))
        """, select={"PAR002"})
        assert rule_ids(findings) == ["PAR002"]

    def test_local_shadow_is_fine(self, tmp_path):
        findings = lint_source(tmp_path, """\
            from concurrent.futures import ProcessPoolExecutor

            STATE = {}

            def worker(cell):
                STATE = {}
                STATE[cell] = 1
                return STATE

            def run(cells):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(worker, cells))
        """, select={"PAR002"})
        assert findings == []

    def test_pure_worker_is_fine(self, tmp_path):
        findings = lint_source(tmp_path, """\
            from concurrent.futures import ProcessPoolExecutor

            def worker(cell):
                out = []
                out.append(cell)
                return out

            def run(cells):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(worker, cells))
        """, select={"PAR002"})
        assert findings == []


class TestPar003PoolInitializerMustBePure:
    def test_flags_lambda_initializer(self, tmp_path):
        findings = lint_source(tmp_path, """\
            from concurrent.futures import ProcessPoolExecutor

            def run(cells):
                pool = ProcessPoolExecutor(initializer=lambda: None)
                return pool
        """, select={"PAR003"})
        assert rule_ids(findings) == ["PAR003"]

    def test_flags_nested_initializer(self, tmp_path):
        findings = lint_source(tmp_path, """\
            from concurrent.futures import ProcessPoolExecutor

            def run(cells):
                def warm():
                    pass
                pool = ProcessPoolExecutor(initializer=warm)
                return pool
        """, select={"PAR003"})
        assert rule_ids(findings) == ["PAR003"]

    def test_flags_initializer_mutating_module_state(self, tmp_path):
        findings = lint_source(tmp_path, """\
            from concurrent.futures import ProcessPoolExecutor

            WARMED = []

            def warm():
                WARMED.append(1)

            def run(cells):
                pool = ProcessPoolExecutor(initializer=warm)
                return pool
        """, select={"PAR003"})
        assert rule_ids(findings) == ["PAR003"]

    def test_pure_module_level_initializer_is_fine(self, tmp_path):
        findings = lint_source(tmp_path, """\
            from concurrent.futures import ProcessPoolExecutor

            def warm(payload):
                shapes, config = payload
                return len(shapes)

            def run(cells, payload):
                pool = ProcessPoolExecutor(
                    max_workers=2, initializer=warm, initargs=(payload,)
                )
                return pool
        """, select={"PAR003"})
        assert findings == []

    def test_suppressed(self, tmp_path):
        findings = lint_source(tmp_path, """\
            from concurrent.futures import ProcessPoolExecutor

            def run(cells):
                pool = ProcessPoolExecutor(initializer=lambda: None)  # repro-lint: disable=PAR003
                return pool
        """, select={"PAR003"})
        assert findings == []


class TestGen001ExecHygiene:
    def test_flags_exec_without_namespace(self, tmp_path):
        findings = lint_source(tmp_path, """\
            def compile_kernel(src):
                exec(src)
        """, select={"GEN001"})
        assert len(findings) == 2  # missing namespace + missing entry points
        assert {finding.rule for finding in findings} == {"GEN001"}

    def test_exec_with_namespace_and_entry_points_is_fine(self, tmp_path):
        findings = lint_source(tmp_path, """\
            def template_shapes():
                return ()

            def generate_kernel_source(shape):
                return ""

            def compile_kernel(src):
                namespace = {"__builtins__": {}}
                exec(src, namespace)
                return namespace
        """, select={"GEN001"})
        assert findings == []

    def test_suppressed(self, tmp_path):
        findings = lint_source(tmp_path, """\
            def compile_kernel(src):
                exec(src)  # repro-lint: disable=GEN001
        """, select={"GEN001"})
        assert findings == []


def write_tree(tmp_path, files):
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return tmp_path


def lint_tree(tmp_path, files, select=None):
    """Write a {relpath: source} tree under ``tmp_path`` and lint it."""
    write_tree(tmp_path, files)
    rules = default_rules()
    if select is not None:
        rules = [rule for rule in rules if rule.id in select]
    return analyze_paths([tmp_path], rules=rules, root=tmp_path)


COV_MACHINE = """\
    SCALAR_ONLY_STATE = frozenset({"_scratch"})


    class Machine:
        def tick(self, dt):
            self._rho = 1.0
            self._scratch = 0
            self.governor.tick(dt)
            for core, proc in enumerate(self._procs_by_core):
                proc.advance(dt)
"""

COV_VECTOR = """\
    CELL_COLUMNS = {
        "_rho": "per-cell utilization column",
        "governor": "governor sub-state",
        "process.advance()": "progress advance",
    }
"""


class TestCov001VectorColumnCoverage:
    def test_mirrored_state_is_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "repro/sim/machine.py": COV_MACHINE,
            "repro/sim/vector.py": COV_VECTOR,
        }, select={"COV001"})
        assert findings == []

    def test_flags_unmirrored_hot_state(self, tmp_path):
        machine = COV_MACHINE.replace(
            "self._rho = 1.0", "self._rho = 1.0\n            self._leak = dt"
        )
        findings = lint_tree(tmp_path, {
            "repro/sim/machine.py": machine,
            "repro/sim/vector.py": COV_VECTOR,
        }, select={"COV001"})
        assert rule_ids(findings) == ["COV001"]
        assert "'_leak'" in findings[0].message
        assert findings[0].path.endswith("machine.py")

    def test_flags_mutation_through_alias(self, tmp_path):
        machine = COV_MACHINE.replace(
            "self._rho = 1.0",
            "self._rho = 1.0\n"
            "            stash = self._leaky\n"
            "            stash[0] = dt",
        )
        findings = lint_tree(tmp_path, {
            "repro/sim/machine.py": machine,
            "repro/sim/vector.py": COV_VECTOR,
        }, select={"COV001"})
        assert rule_ids(findings) == ["COV001"]
        assert "'_leaky'" in findings[0].message

    def test_flags_stale_registry_entry(self, tmp_path):
        vector = COV_VECTOR.replace(
            '"_rho": "per-cell utilization column",',
            '"_rho": "per-cell utilization column",\n'
            '        "ghost": "column with no scalar counterpart",',
        )
        findings = lint_tree(tmp_path, {
            "repro/sim/machine.py": COV_MACHINE,
            "repro/sim/vector.py": vector,
        }, select={"COV001"})
        assert rule_ids(findings) == ["COV001"]
        assert "'ghost'" in findings[0].message
        assert findings[0].path.endswith("vector.py")

    def test_flags_stale_allowlist_entry(self, tmp_path):
        machine = COV_MACHINE.replace(
            'frozenset({"_scratch"})',
            'frozenset({"_scratch", "_gone"})',
        )
        findings = lint_tree(tmp_path, {
            "repro/sim/machine.py": machine,
            "repro/sim/vector.py": COV_VECTOR,
        }, select={"COV001"})
        assert rule_ids(findings) == ["COV001"]
        assert "'_gone'" in findings[0].message

    def test_suppressed(self, tmp_path):
        machine = COV_MACHINE.replace(
            'SCALAR_ONLY_STATE = frozenset({"_scratch"})',
            'SCALAR_ONLY_STATE = frozenset({"_scratch"})'
            '  # repro-lint: disable=COV001',
        ).replace(
            "self._rho = 1.0", "self._rho = 1.0\n            self._leak = dt"
        )
        findings = lint_tree(tmp_path, {
            "repro/sim/machine.py": machine,
            "repro/sim/vector.py": COV_VECTOR,
        }, select={"COV001"})
        assert findings == []


class TestCov002KernelStateCoverage:
    SPANPLAN = """\
        KERNEL_STATE = {
            "_rho": "utilization",
            "governor": "governor",
            "process.advance()": "progress advance",
        }
    """

    def test_mirrored_state_is_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "repro/sim/machine.py": COV_MACHINE.replace(
                '"_scratch"', '"_scratch"'),
            "repro/sim/spanplan.py": self.SPANPLAN,
        }, select={"COV002"})
        assert findings == []

    def test_flags_unmirrored_hot_state(self, tmp_path):
        machine = COV_MACHINE.replace(
            "self._rho = 1.0", "self._rho = 1.0\n            self._leak = dt"
        )
        findings = lint_tree(tmp_path, {
            "repro/sim/machine.py": machine,
            "repro/sim/spanplan.py": self.SPANPLAN,
        }, select={"COV002"})
        assert rule_ids(findings) == ["COV002"]
        assert "'_leak'" in findings[0].message

    def test_suppressed(self, tmp_path):
        machine = COV_MACHINE.replace(
            'SCALAR_ONLY_STATE = frozenset({"_scratch"})',
            'SCALAR_ONLY_STATE = frozenset({"_scratch"})'
            '  # repro-lint: disable=COV002',
        ).replace(
            "self._rho = 1.0", "self._rho = 1.0\n            self._leak = dt"
        )
        findings = lint_tree(tmp_path, {
            "repro/sim/machine.py": machine,
            "repro/sim/spanplan.py": self.SPANPLAN,
        }, select={"COV002"})
        assert findings == []


class TestCov003CacheKeyFieldCoverage:
    HARNESS = """\
        CACHE_KEY_FIELDS = {
            "run": ("mix", "seed"),
        }


        def run_cached(disk, mix, seed):
            key = (mix, seed)
            hit = disk.get("run", key)
            if hit is None:
                disk.put("run", key, mix)
            return hit
    """

    def test_declared_fields_are_clean(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "repro/experiments/harness.py": self.HARNESS,
        }, select={"COV003"})
        assert findings == []

    def test_flags_undeclared_namespace(self, tmp_path):
        harness = self.HARNESS.replace('disk.get("run", key)',
                                       'disk.get("rogue", key)')
        findings = lint_tree(tmp_path, {
            "repro/experiments/harness.py": harness,
        }, select={"COV003"})
        assert "'rogue'" in findings[0].message
        assert any("not declared" in f.message for f in findings)

    def test_flags_missing_key_field(self, tmp_path):
        harness = self.HARNESS.replace("key = (mix, seed)",
                                       "key = (mix,)")
        findings = lint_tree(tmp_path, {
            "repro/experiments/harness.py": harness,
        }, select={"COV003"})
        assert len(findings) == 2  # both the get and the put site
        assert all("seed" in f.message for f in findings)
        assert findings[0].line > 1  # anchored at the call site

    def test_flags_stale_namespace_row(self, tmp_path):
        harness = self.HARNESS.replace(
            '"run": ("mix", "seed"),',
            '"run": ("mix", "seed"),\n            "orphan": ("mix",),',
        )
        findings = lint_tree(tmp_path, {
            "repro/experiments/harness.py": harness,
        }, select={"COV003"})
        assert rule_ids(findings) == ["COV003"]
        assert "'orphan'" in findings[0].message

    def test_missing_registry_is_an_error(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "repro/experiments/harness.py": """\
                def run_cached(disk, mix):
                    return disk.get("run", (mix,))
            """,
        }, select={"COV003"})
        assert rule_ids(findings) == ["COV003"]
        assert "CACHE_KEY_FIELDS" in findings[0].message

    def test_suppressed(self, tmp_path):
        harness = self.HARNESS.replace(
            'hit = disk.get("run", key)',
            'hit = disk.get("rogue", key)  # repro-lint: disable=COV003',
        ).replace('disk.put("run", key, mix)',
                  'disk.put("rogue", key, mix)'
                  '  # repro-lint: disable=COV003')
        # The declared "run" row is now unused; silence that at the
        # registry line too.
        harness = harness.replace(
            "CACHE_KEY_FIELDS = {",
            "CACHE_KEY_FIELDS = {  # repro-lint: disable=COV003",
        )
        findings = lint_tree(tmp_path, {
            "repro/experiments/harness.py": harness,
        }, select={"COV003"})
        assert findings == []


class TestFlo001SeedProvenance:
    def test_flags_wall_clock_seed(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import random
            import time

            def make_rng():
                seed = int(time.time())
                return random.Random(seed)
        """, select={"FLO001"})
        assert rule_ids(findings) == ["FLO001"]
        assert "time.time" in findings[0].message

    def test_flags_reseed_from_global_rng(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import random

            def shuffle_stream(rng):
                rng.seed(random.random())
        """, select={"FLO001"})
        assert rule_ids(findings) == ["FLO001"]

    def test_config_seed_is_clean(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import random

            def make_rng(config, stream):
                seed = "%d/%s" % (config.seed, stream)
                return random.Random(seed)
        """, select={"FLO001"})
        assert findings == []

    def test_suppressed(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import random
            import time

            def make_rng():
                return random.Random(int(time.time()))  # repro-lint: disable=FLO001
        """, select={"FLO001"})
        assert findings == []


class TestFlo002SharedRngInstance:
    def test_flags_import_time_rng(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import random

            RNG = random.Random(7)
        """, select={"FLO002"})
        assert rule_ids(findings) == ["FLO002"]
        assert "import time" in findings[0].message

    def test_flags_duplicate_constant_streams(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import random

            def surface_a():
                return random.Random(7)

            def surface_b():
                return random.Random(7)
        """, select={"FLO002"})
        assert rule_ids(findings) == ["FLO002"]
        assert findings[0].line == 7  # the second construction

    def test_distinct_constant_streams_are_clean(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import random

            def surface_a():
                return random.Random(7)

            def surface_b():
                return random.Random(8)
        """, select={"FLO002"})
        assert findings == []

    def test_derived_streams_are_clean(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import random

            def make_rng(seed, stream):
                return random.Random("%d/%s" % (seed, stream))
        """, select={"FLO002"})
        assert findings == []

    def test_suppressed(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import random

            RNG = random.Random(7)  # repro-lint: disable=FLO002
        """, select={"FLO002"})
        assert findings == []


class TestFlo003ReseedInLoop:
    def test_flags_construction_in_sim_loop(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import random

            def run(seeds):
                out = []
                for s in seeds:
                    rng = random.Random(s)
                    out.append(rng.random())
                return out
        """, relpath="sim/hot.py", select={"FLO003"})
        assert rule_ids(findings) == ["FLO003"]

    def test_flags_reseed_in_while_loop(self, tmp_path):
        findings = lint_source(tmp_path, """\
            def run(rng, n):
                while n > 0:
                    rng.seed(n)
                    n -= 1
        """, relpath="sim/hot.py", select={"FLO003"})
        assert rule_ids(findings) == ["FLO003"]

    def test_comprehension_hoist_is_clean(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import random

            def make_lanes(seeds):
                return [random.Random(s) for s in seeds]
        """, relpath="sim/hot.py", select={"FLO003"})
        assert findings == []

    def test_outside_sim_scope_is_fine(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import random

            def run(seeds):
                out = []
                for s in seeds:
                    out.append(random.Random(s))
                return out
        """, select={"FLO003"})
        assert findings == []

    def test_suppressed(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import random

            def run(seeds):
                out = []
                for s in seeds:
                    out.append(random.Random(s))  # repro-lint: disable=FLO003
                return out
        """, relpath="sim/hot.py", select={"FLO003"})
        assert findings == []


class TestBlanketSuppression:
    def test_disable_without_rule_list_silences_everything(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import time
            START = time.time()  # repro-lint: disable
        """)
        assert findings == []


class TestParseErrors:
    def test_unparsable_file_yields_parse_finding(self, tmp_path):
        findings = lint_source(tmp_path, "def broken(:\n")
        assert rule_ids(findings) == ["PARSE"]
        assert findings[0].severity == "error"


class TestRegistry:
    def test_all_families_registered(self):
        ids = {rule.id for rule in default_rules()}
        for family in ("DET", "ENV", "PAR", "GEN", "COV", "FLO"):
            assert any(rule_id.startswith(family) for rule_id in ids), (
                "no %s rules registered" % family
            )

    def test_rules_have_metadata(self):
        for rule in default_rules():
            assert rule.id
            assert rule.severity in ("error", "warning")
            assert rule.description


def det_rules():
    return [r for r in default_rules() if r.id.startswith("DET")]


BAD_SOURCE = "import time\nSTART = time.time()\n"


class TestOverlappingPathDedupe:
    def test_nested_paths_report_once(self, tmp_path):
        tree = write_tree(tmp_path, {"pkg/mod.py": BAD_SOURCE})
        findings = analyze_paths([tree, tree / "pkg",
                                  tree / "pkg" / "mod.py"],
                                 rules=det_rules(), root=tree)
        assert len(findings) == 1


class TestDecoratorAnchoring:
    SOURCE = """\
        import time


        def deco(stamp):
            def wrap(fn):
                return fn
            return wrap


        @deco(time.time())
        def handler():
            return 1
    """

    def test_finding_anchors_at_the_def_line(self, tmp_path):
        tree = write_tree(tmp_path, {"mod.py": self.SOURCE})
        findings = analyze_paths([tree], rules=det_rules(), root=tree)
        assert [f.rule for f in findings] == ["DET001"]
        # Line 11 is `def handler():`, not line 10 (the decorator).
        assert findings[0].line == 11

    def test_suppression_on_the_def_line_works(self, tmp_path):
        source = self.SOURCE.replace(
            "def handler():",
            "def handler():  # repro-lint: disable=DET001",
        )
        tree = write_tree(tmp_path, {"mod.py": source})
        assert analyze_paths([tree], rules=det_rules(),
                             root=tree) == []


class TestSuppressedTally:
    def test_inline_suppression_is_counted(self, tmp_path):
        tree = write_tree(tmp_path / "src", {
            "a.py": "import time\n"
                    "START = time.time()  # repro-lint: disable=DET001\n",
        })
        result = run_analysis([tree], rules=det_rules(), root=tree)
        assert result.findings == []
        assert result.suppressed == 1


@pytest.mark.parametrize("family",
                         ["DET", "ENV", "PAR", "GEN", "COV", "FLO"])
def test_each_family_fails_lint_on_seeded_fixture(tmp_path, family):
    """Acceptance: one seeded violation per family exits non-zero."""
    from repro.analysis.cli import run_lint

    fixtures = {
        "DET": ("mod.py", "import time\nSTART = time.time()\n"),
        "ENV": ("mod.py",
                "import os\nLIMIT = os.environ.get('REPRO_LIMIT')\n"),
        "PAR": ("mod.py", (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def run(cells):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        pool.submit(lambda c: c, 1)\n"
        )),
        "GEN": ("mod.py", "def f(src):\n    exec(src)\n"),
        "COV": ("repro/sim/machine.py", (
            "class Machine:\n"
            "    def tick(self, dt):\n"
            "        self._leak = dt\n"
        )),
        "FLO": ("mod.py", "import random\nRNG = random.Random(7)\n"),
    }
    relpath, source = fixtures[family]
    (tmp_path / relpath).parent.mkdir(parents=True, exist_ok=True)
    (tmp_path / relpath).write_text(source)
    exit_code = run_lint([str(tmp_path), "--select", family,
                          "--root", str(tmp_path)])
    assert exit_code == 1
