"""Every reprolint rule catches its seeded violation and spares clean code.

Each rule gets at least one *positive* fixture (a minimal snippet carrying
the violation the rule exists for — the lint must flag it) and one
*negative* fixture (the disciplined variant — the lint must stay silent).
Snippets are linted under fabricated paths so the scope machinery is
exercised too.
"""

import textwrap

import pytest

from repro.analysis.reprolint import all_rules, lint_file, lint_source

CORE = "src/repro/core/snippet.py"
RUNTIME = "src/repro/runtime/snippet.py"
EXPERIMENT = "experiments/snippet.py"


def findings_for(source, path, rule_id=None):
    found = lint_source(textwrap.dedent(source), path)
    active = [f for f in found if not f.suppressed]
    if rule_id is None:
        return active
    return [f for f in active if f.rule == rule_id]


def assert_clean(source, path, rule_id):
    hits = findings_for(source, path, rule_id)
    assert hits == [], [f.format() for f in hits]


# ---------------------------------------------------------------------------
# D101 unseeded randomness
# ---------------------------------------------------------------------------

class TestD101:
    def test_flags_stdlib_random_import(self):
        assert findings_for("import random\n", CORE, "D101")

    def test_flags_from_random_import(self):
        assert findings_for("from random import shuffle\n", CORE, "D101")

    def test_flags_argless_default_rng(self):
        src = """
        import numpy as np
        rng = np.random.default_rng()
        """
        assert findings_for(src, CORE, "D101")

    def test_flags_global_stream_sampler(self):
        src = """
        import numpy as np
        x = np.random.rand(10)
        """
        assert findings_for(src, CORE, "D101")

    def test_accepts_seeded_generator(self):
        src = """
        import numpy as np

        def sample(seed: int):
            rng = np.random.default_rng(seed)
            return rng.normal(size=4)
        """
        assert_clean(src, CORE, "D101")

    def test_out_of_scope_module_is_ignored(self):
        assert_clean("import random\n", "src/repro/reporting/plots.py",
                     "D101")


# ---------------------------------------------------------------------------
# D102 wall clock in core numerics
# ---------------------------------------------------------------------------

class TestD102:
    def test_flags_perf_counter_in_core(self):
        src = """
        import time

        def cost():
            return time.perf_counter()
        """
        assert findings_for(src, CORE, "D102")

    def test_runtime_may_read_the_host_clock(self):
        src = """
        import time

        def elapsed():
            return time.perf_counter()
        """
        assert_clean(src, RUNTIME, "D102")


# ---------------------------------------------------------------------------
# D103 unordered iteration
# ---------------------------------------------------------------------------

class TestD103:
    def test_flags_dict_items_loop(self):
        src = """
        def merge(partials):
            for key, value in partials.items():
                consume(key, value)
        """
        assert findings_for(src, CORE, "D103")

    def test_flags_sum_over_dict_values(self):
        src = """
        def total(by_cg):
            return sum(by_cg.values())
        """
        assert findings_for(src, CORE, "D103")

    def test_flags_set_iteration(self):
        src = """
        def drain(ids):
            return [x for x in set(ids)]
        """
        assert findings_for(src, CORE, "D103")

    def test_accepts_sorted_items(self):
        src = """
        def merge(partials):
            for key, value in sorted(partials.items()):
                consume(key, value)
        """
        assert_clean(src, CORE, "D103")


# ---------------------------------------------------------------------------
# D104 float equality
# ---------------------------------------------------------------------------

class TestD104:
    def test_flags_inertia_equality(self):
        src = """
        def converged(prev_inertia, inertia):
            return prev_inertia == inertia
        """
        assert findings_for(src, CORE, "D104")

    def test_flags_float_literal_comparison(self):
        src = """
        def check(shift):
            return shift == 0.5
        """
        assert findings_for(src, CORE, "D104")

    def test_accepts_tolerance_comparison(self):
        src = """
        def converged(shift, tol):
            return shift <= tol
        """
        assert_clean(src, CORE, "D104")

    def test_accepts_shape_metadata_equality(self):
        src = """
        def compatible(centroids, other):
            return centroids.shape == other.shape
        """
        assert_clean(src, CORE, "D104")


# ---------------------------------------------------------------------------
# D105 completion-order collection
# ---------------------------------------------------------------------------

class TestD105:
    def test_flags_as_completed_import(self):
        src = "from concurrent.futures import as_completed\n"
        assert findings_for(src, RUNTIME, "D105")

    def test_flags_first_completed_wait(self):
        src = """
        import concurrent.futures as cf

        def drain(futures):
            return cf.wait(futures, return_when=cf.FIRST_COMPLETED)
        """
        assert findings_for(src, RUNTIME, "D105")

    def test_accepts_submission_order_collection(self):
        src = """
        def drain(futures):
            return [f.result() for f in futures]
        """
        assert_clean(src, RUNTIME, "D105")


# ---------------------------------------------------------------------------
# D106's fixtures: manual accumulation over engine.map partials, linted by
# W601, the whole-program rule D106 was folded into
# ---------------------------------------------------------------------------

class TestD106:
    def test_flags_augassign_loop_over_partials(self):
        src = """
        def iterate(self, X, C, k, d):
            import numpy as np
            partials = self.engine.map(self.shard_work, range(8))
            sums = np.zeros((k, d))
            counts = np.zeros(k)
            for s, c in partials:
                sums += s
                counts += c
            return sums, counts
        """
        assert findings_for(src, CORE, "W601")

    def test_flags_loop_over_derived_partials(self):
        src = """
        def iterate(self, plan):
            partials = self.engine.map(self.unit_work, range(plan.units))
            unit_sums = {u: partials[u][0] for u in range(plan.units)}
            total = 0.0
            for u in sorted(unit_sums):
                total += unit_sums[u].sum()
            return total
        """
        assert findings_for(src, RUNTIME, "W601")

    def test_flags_sum_comprehension_over_partials(self):
        src = """
        def iterate(self):
            partials = self.engine.map(self.work, range(4))
            return sum(p[0] for p in partials)
        """
        assert findings_for(src, CORE, "W601")

    def test_accepts_map_reduce(self):
        src = """
        def iterate(self, plan):
            sums, counts = self.engine.map_reduce(
                self.group_work, range(plan.n_groups), topology=self.reduce)
            return sums, counts
        """
        assert_clean(src, CORE, "W601")

    def test_accepts_non_accumulating_loop_over_partials(self):
        src = """
        def iterate(self):
            partials = self.engine.map(self.work, range(4))
            for value in partials:
                self.ledger.charge("compute", "ok", float(value))
            return partials
        """
        assert_clean(src, CORE, "W601")

    def test_reduce_module_is_exempt(self):
        src = """
        def fold(self, engine):
            partials = engine.map(self.work, range(4))
            total = 0.0
            for p in partials:
                total += p
            return total
        """
        assert_clean(src, "src/repro/runtime/reduce.py", "W601")

    def test_out_of_scope_module_is_ignored(self):
        src = """
        def collect(self):
            partials = self.engine.map(self.work, range(4))
            total = 0.0
            for p in partials:
                total += p
            return total
        """
        assert_clean(src, "benchmarks/bench_engine.py", "W601")


# ---------------------------------------------------------------------------
# D107 stale bounds after checkpoint restore
# ---------------------------------------------------------------------------

class TestD107:
    def test_flags_bounds_read_after_restore(self):
        src = """
        def recover(self, X, C):
            checkpoint = self.checkpoints.restore()
            return build_tasks(self.engine, X, C, self._pruned_bounds)
        """
        assert findings_for(src, CORE, "D107")

    def test_flags_bounds_read_after_load_checkpoint(self):
        src = """
        def resume(self, directory, X, C):
            snapshot = load_checkpoint(directory)
            if self._pruned_bounds.valid:
                return self._pruned_bounds.labels
            return None
        """
        assert findings_for(src, CORE, "D107")

    def test_flags_bounds_read_after_checkpoint_resume(self) -> None:
        src = """
        def run(self, X, C):
            self._pruned_bounds.invalidate()
            C, start = self.checkpoints.resume(C)
            return build_tasks(self.engine, X, C, self._pruned_bounds)
        """
        assert findings_for(src, CORE, "D107")

    def test_accepts_invalidate_between_restore_and_read(self):
        src = """
        def recover(self, X, C):
            checkpoint = self.checkpoints.restore()
            self._pruned_bounds.invalidate()
            return build_tasks(self.engine, X, C, self._pruned_bounds)
        """
        assert_clean(src, CORE, "D107")

    def test_accepts_reset_hook_between_restore_and_read(self):
        src = """
        def recover(self, X, C):
            checkpoint = self.checkpoints.restore()
            self._reset_state_after_replan()
            return build_tasks(self.engine, X, C, self._pruned_bounds)
        """
        assert_clean(src, CORE, "D107")

    def test_accepts_carrier_rebuilt_after_restore(self):
        src = """
        def resume(self, directory, X, C):
            snapshot = load_checkpoint(directory)
            pruned_bounds = BlockBounds()
            return build_tasks(self.engine, X, C, pruned_bounds)
        """
        assert_clean(src, CORE, "D107")

    def test_accepts_read_before_restore(self):
        src = """
        def snapshot_then_restore(self):
            labels = self._pruned_bounds.labels
            checkpoint = self.checkpoints.restore()
            self._pruned_bounds.invalidate()
            return labels
        """
        assert_clean(src, CORE, "D107")

    def test_out_of_scope_module_is_ignored(self):
        src = """
        def recover(self):
            checkpoint = self.checkpoints.restore()
            return self._pruned_bounds.labels
        """
        assert_clean(src, "benchmarks/bench_engine.py", "D107")


# ---------------------------------------------------------------------------
# L201's fixtures: a ledger charge inside an engine task, linted by W602,
# the whole-program rule L201 was folded into
# ---------------------------------------------------------------------------

class TestL201:
    def test_flags_charge_inside_mapped_function(self):
        src = """
        def iterate(self, X):
            def unit_work(unit):
                self.ledger.charge("compute", "bad", 1.0)
                return unit
            return self.engine.map(unit_work, range(4))
        """
        assert findings_for(src, CORE, "W602")

    def test_flags_charge_inside_mapped_lambda(self):
        src = """
        def iterate(self, X):
            return self.engine.map(
                lambda u: self.ledger.charge_parallel("dma", "bad", [u]),
                range(4))
        """
        assert findings_for(src, CORE, "W602")

    def test_accepts_charging_in_serial_loop(self):
        src = """
        def iterate(self, X):
            def unit_work(unit):
                return unit * 2
            partials = self.engine.map(unit_work, range(4))
            for value in partials:
                self.ledger.charge("compute", "ok", float(value))
            return partials
        """
        assert_clean(src, CORE, "W602")


# ---------------------------------------------------------------------------
# L202 unknown charge category
# ---------------------------------------------------------------------------

class TestL202:
    def test_flags_typoed_category(self):
        src = """
        def charge_it(ledger):
            ledger.charge("comptue", "l1.assign", 1.0)
        """
        assert findings_for(src, CORE, "L202")

    def test_accepts_canonical_categories(self):
        src = """
        def charge_it(ledger):
            ledger.charge("compute", "l1.assign", 1.0)
            ledger.charge_parallel("dma", "l1.stream", [1.0, 2.0])
        """
        assert_clean(src, CORE, "L202")


# ---------------------------------------------------------------------------
# C301 LDM-infeasible literal configs
# ---------------------------------------------------------------------------

class TestC301:
    def test_flags_level1_c1_violation(self):
        # d(1+2k)+k for k=2000, d=12288 is ~49e6 elements vs 8192 in LDM.
        src = """
        N, K, D = 1_000_000, 2000, 12_288
        plan = plan_level1(machine, N, K, D)
        """
        assert findings_for(src, EXPERIMENT, "C301")

    def test_flags_level2_c2_violation(self):
        # 3d+1 > 8192 elements: a whole sample no longer fits one CPE.
        src = """
        plan = plan_level2(machine, 10_000, 16, 12_288, mgroup=64)
        """
        assert findings_for(src, EXPERIMENT, "C301")

    def test_flags_level3_c1pp_violation(self):
        src = """
        plan = plan_level3(machine, 10_000, 200_000, 12_288, mprime_group=1)
        """
        assert findings_for(src, EXPERIMENT, "C301")

    def test_accepts_feasible_level1_config(self):
        # k=16, d=64: 64*33+16 = 2128 elements < 8192.
        src = """
        plan = plan_level1(machine, 100_000, 16, 64)
        """
        assert_clean(src, EXPERIMENT, "C301")

    def test_streaming_lifts_residency(self):
        src = """
        N, K, D = 1_000_000, 2000, 12_288
        plan = plan_level1(machine, N, K, D, streaming=True)
        """
        assert_clean(src, EXPERIMENT, "C301")

    def test_unresolvable_shapes_are_left_to_the_planner(self):
        src = """
        def run(machine, n, k, d):
            return plan_level1(machine, n, k, d)
        """
        assert_clean(src, EXPERIMENT, "C301")

    def test_core_is_out_of_scope(self):
        src = """
        plan = plan_level1(machine, 1_000_000, 2000, 12_288)
        """
        assert_clean(src, CORE, "C301")


# ---------------------------------------------------------------------------
# C302 partition parameter bounds
# ---------------------------------------------------------------------------

class TestC302:
    def test_flags_mgroup_above_cg_size(self):
        src = "plan = plan_level2(machine, 1000, 16, 64, mgroup=65)\n"
        assert findings_for(src, EXPERIMENT, "C302")

    def test_flags_zero_mprime_group(self):
        src = "plan = plan_level3(machine, 1000, 16, 64, mprime_group=0)\n"
        assert findings_for(src, EXPERIMENT, "C302")

    def test_accepts_legal_group_sizes(self):
        src = """
        a = plan_level2(machine, 1000, 16, 64, mgroup=8)
        b = plan_level3(machine, 1000, 16, 64, mprime_group=4)
        """
        assert_clean(src, EXPERIMENT, "C302")


# ---------------------------------------------------------------------------
# E401's fixtures: raw environment reads, linted by W603, the
# whole-program rule E401 was folded into
# ---------------------------------------------------------------------------

class TestE401:
    def test_flags_os_environ_get(self):
        src = """
        import os

        def engine_name():
            return os.environ.get("HOME")
        """
        assert findings_for(src, RUNTIME, "W603")

    def test_flags_os_getenv(self):
        src = """
        import os
        value = os.getenv("HOME")
        """
        assert findings_for(src, RUNTIME, "W603")

    def test_accessor_module_is_exempt(self):
        src = """
        import os
        value = os.environ.get("REPRO_ENGINE")
        """
        assert_clean(src, "src/repro/analysis/envvars.py", "W603")

    def test_accepts_typed_accessors(self):
        src = """
        from repro.analysis.envvars import ENV_ENGINE, read_str

        def engine_name():
            return read_str(ENV_ENGINE)
        """
        assert_clean(src, RUNTIME, "W603")


# ---------------------------------------------------------------------------
# E402 undeclared REPRO_* names
# ---------------------------------------------------------------------------

class TestE402:
    def test_flags_unregistered_variable(self):
        src = 'KNOB = "REPRO_SECRET_KNOB"\n'
        assert findings_for(src, RUNTIME, "E402")

    def test_accepts_registered_variable(self):
        src = 'KNOB = "REPRO_ENGINE"\n'
        assert_clean(src, RUNTIME, "E402")

    def test_non_repro_strings_are_ignored(self):
        src = 'OTHER = "PYTHONHASHSEED"\n'
        assert_clean(src, RUNTIME, "E402")


# ---------------------------------------------------------------------------
# E403 swallowed FaultError
# ---------------------------------------------------------------------------

class TestE403:
    def test_flags_broad_except_without_fault_arm(self):
        src = """
        def run(task):
            try:
                return task()
            except Exception:
                return None
        """
        assert findings_for(src, RUNTIME, "E403")

    def test_flags_bare_except(self):
        src = """
        def run(task):
            try:
                return task()
            except:
                return None
        """
        assert findings_for(src, RUNTIME, "E403")

    def test_accepts_fault_arm_before_broad_except(self):
        src = """
        from repro.errors import FaultError

        def run(task):
            try:
                return task()
            except FaultError:
                raise
            except Exception:
                return None
        """
        assert_clean(src, RUNTIME, "E403")

    def test_accepts_reraising_broad_except(self):
        src = """
        def run(task):
            try:
                return task()
            except Exception:
                cleanup()
                raise
        """
        assert_clean(src, RUNTIME, "E403")


# ---------------------------------------------------------------------------
# E405 raw checkpoint I/O
# ---------------------------------------------------------------------------

class TestE405:
    def test_flags_raw_load_of_checkpoint_literal(self):
        src = """
        import numpy as np

        def peek(directory):
            return np.load(directory + "/checkpoint.npz")
        """
        assert findings_for(src, CORE, "E405")

    def test_flags_raw_savez_to_checkpoint_variable(self):
        src = """
        import numpy as np

        def snapshot(checkpoint_path, C):
            np.savez(checkpoint_path, centroids=C)
        """
        assert findings_for(src, RUNTIME, "E405")

    def test_flags_savez_compressed_to_registry_attribute(self):
        src = """
        import numpy as np

        def dump(store, C):
            np.savez_compressed(store.registry_path, centroids=C)
        """
        assert findings_for(src, CORE, "E405")

    def test_accepts_unrelated_paths(self):
        src = """
        import numpy as np

        def load_samples(path):
            return np.load(path)

        def save_result(path, C):
            np.savez_compressed(path, centroids=C)
        """
        assert_clean(src, CORE, "E405")

    def test_checkpoint_module_is_exempt(self):
        src = """
        import numpy as np

        def _persist(checkpoint_path, C):
            np.savez(checkpoint_path, centroids=C)
        """
        assert_clean(src, "src/repro/core/checkpoint.py", "E405")

    def test_store_methods_not_flagged(self):
        # Going through the sanctioned seam is the disciplined variant.
        src = """
        from repro.core.checkpoint import load_checkpoint

        def resume(checkpoint_dir):
            return load_checkpoint(checkpoint_dir)
        """
        assert_clean(src, CORE, "E405")


# ---------------------------------------------------------------------------
# T501 missing annotations
# ---------------------------------------------------------------------------

class TestT501:
    def test_flags_unannotated_public_function(self):
        src = """
        def assign(X, C):
            return X @ C
        """
        assert findings_for(src, CORE, "T501")

    def test_flags_missing_return_annotation(self):
        src = """
        import numpy as np

        def assign(X: np.ndarray, C: np.ndarray):
            return X @ C
        """
        assert findings_for(src, CORE, "T501")

    def test_accepts_fully_annotated_function(self):
        src = """
        import numpy as np

        def assign(X: np.ndarray, C: np.ndarray) -> np.ndarray:
            return X @ C
        """
        assert_clean(src, CORE, "T501")

    def test_private_helpers_and_self_are_exempt(self):
        src = """
        class Executor:
            def run(self, n: int) -> int:
                return self._helper(n)

            def _helper(self, n):
                return n
        """
        assert_clean(src, CORE, "T501")

    @pytest.mark.parametrize("above", ["tests", "neutral"])
    def test_scope_ignores_directories_above_the_project(self, tmp_path,
                                                         above):
        # The same checkout under a directory named "tests" or under a
        # neutral one: only the path inside the project decides scope.
        repo = tmp_path / above / "checkout"
        (repo / "pkg" / "core").mkdir(parents=True)
        (repo / "pyproject.toml").write_text("[project]\n")
        snippet = repo / "pkg" / "core" / "snippet.py"
        snippet.write_text("def assign(X, C):\n    return X @ C\n")
        hits = lint_file(snippet)
        assert [(f.rule, f.line) for f in hits] == [("T501", 1)]


# ---------------------------------------------------------------------------
# Registry integrity
# ---------------------------------------------------------------------------

def test_rule_ids_are_unique_and_stable():
    rules = all_rules()
    ids = [r.id for r in rules]
    assert len(ids) == len(set(ids))
    # The documented catalogue: removing a rule is an API break.
    assert {"D101", "D102", "D103", "D104", "D105", "D107",
            "L202", "C301", "C302",
            "E402", "E403", "T501"} <= set(ids)


def test_every_rule_has_summary_and_name():
    for rule in all_rules():
        assert rule.id and rule.name and rule.summary


@pytest.mark.parametrize("rule", all_rules(), ids=lambda r: r.id)
def test_rule_scopes_use_real_path_components(rule):
    known = {"core", "runtime", "machine", "analysis", "errors", "io",
             "repro", "experiments", "benchmarks", "examples", "envvars",
             "reduce", "checkpoint", "engine", "tests"}
    assert set(rule.scopes) <= known
    assert set(rule.exempt) <= known
