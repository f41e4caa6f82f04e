"""W601–W605: the interprocedural rules.

The positive fixtures here launder the violation through at least one
hop — a helper function, a return, a module boundary, an import alias —
that a walk of one function's AST cannot follow.  The direct cases of
W601–W603 are the fixtures of the per-file rules they replaced (D106,
L201, E401), kept in ``test_reprolint_rules.py``.  W604 has no per-file
ancestor, so its section also covers the direct cases (a lambda or
nested def handed straight to the seam).  W605's hole test shows what
D103, which stays, cannot see.
"""

import textwrap

from repro.analysis.reprolint import all_rules, lint_paths, lint_source

CORE = "src/repro/core/snippet.py"
RUNTIME = "src/repro/runtime/snippet.py"


def findings_for(source, path, rule_id):
    source = textwrap.dedent(source)
    return [f for f in lint_source(source, path)
            if f.rule == rule_id and not f.suppressed]


def assert_fires(source, path, rule_id):
    found = findings_for(source, path, rule_id)
    assert found, f"{rule_id} should fire on:\n{textwrap.dedent(source)}"
    return found


def assert_clean(source, path, rule_id):
    found = findings_for(source, path, rule_id)
    assert not found, f"{rule_id} should NOT fire: {found}"


def write_package(tmp_path, files):
    """Materialise {relpath: source} under tmp_path and return the root."""
    for rel, src in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(src), encoding="utf-8")
    return tmp_path


# ---------------------------------------------------------------------------
# W601 — engine.map partials reaching manual accumulation anywhere
# ---------------------------------------------------------------------------

W601_HELPER_HOP = """
    def fan_out(engine, items, fn):
        return engine.map(fn, items)

    def run(engine, items, fn):
        partials = fan_out(engine, items, fn)
        total = 0.0
        for p in partials:
            total += p.inertia
        return total
"""


def test_w601_fires_through_helper_return():
    assert_fires(W601_HELPER_HOP, CORE, "W601")


def test_w601_fires_through_parameter_hop():
    assert_fires(
        """
        def accumulate(parts):
            total = 0.0
            for p in parts:
                total += p
            return total

        def run(engine, items, fn):
            return accumulate(engine.map(fn, items))
        """,
        CORE, "W601")


def test_w601_fires_on_sum_over_laundered_partials():
    assert_fires(
        """
        def fan_out(engine, items, fn):
            return engine.map(fn, items)

        def run(engine, items, fn):
            return sum(fan_out(engine, items, fn))
        """,
        CORE, "W601")


def test_w601_clean_on_map_reduce():
    assert_clean(
        """
        def run(engine, items, fn, combine):
            merged, partials = engine.map_reduce(fn, items, combine)
            return merged
        """,
        CORE, "W601")


def test_w601_clean_on_unrelated_accumulation():
    assert_clean(
        """
        def run(engine, items, fn):
            partials = engine.map(fn, items)
            total = 0.0
            for x in range(10):
                total += float(x)
            return partials, total
        """,
        CORE, "W601")


def test_w601_suppression_comment_mutes_the_sink():
    src = textwrap.dedent("""
        def fan_out(engine, items, fn):
            return engine.map(fn, items)

        def run(engine, items, fn):
            partials = fan_out(engine, items, fn)
            total = 0.0
            for p in partials:
                total += p  # reprolint: disable=W601 -- test probe
            return total
    """)
    found = [f for f in lint_source(src, CORE) if f.rule == "W601"]
    assert found and all(f.suppressed for f in found)


def test_w601_fires_across_modules(tmp_path):
    root = write_package(tmp_path, {
        "src/repro/core/fanout.py": """
            def fan_out(engine, items, fn):
                return engine.map(fn, items)
        """,
        "src/repro/core/consume.py": """
            from repro.core.fanout import fan_out

            def run(engine, items, fn):
                parts = fan_out(engine, items, fn)
                total = 0.0
                for p in parts:
                    total += p
                return total
        """,
    })
    findings = lint_paths([root / "src"])
    w601 = [f for f in findings if f.rule == "W601" and not f.suppressed]
    assert len(w601) == 1
    assert w601[0].path.endswith("consume.py")


# ---------------------------------------------------------------------------
# W602 — ledger charges reachable from engine task bodies
# ---------------------------------------------------------------------------

W602_DEEP_CHARGE = """
    def deep(ledger, t):
        ledger.charge("compute", t)

    def middle(ledger, t):
        deep(ledger, t)

    def task(block, ledger):
        middle(ledger, 1.0)
        return block

    def run(engine, blocks, ledger):
        import functools
        return engine.map(functools.partial(task, ledger=ledger), blocks)
"""


def test_w602_fires_two_calls_deep():
    found = assert_fires(W602_DEEP_CHARGE, CORE, "W602")
    assert "reached from task" in found[0].message


def test_w602_fires_through_a_lambda_task():
    found = assert_fires(
        """
        def charge_block(ledger, block):
            ledger.charge("compute", 1.0)
            return block

        def run(engine, blocks, ledger):
            return engine.map(lambda b: charge_block(ledger, b), blocks)
        """,
        CORE, "W602")
    assert "reached from task `run.<lambda@" in found[0].message


def test_w602_fires_for_combine_callables():
    assert_fires(
        """
        def combine(a, b, ledger):
            ledger.charge("reduce", 1.0)
            return a

        def run(engine, parts, ledger):
            import functools
            fn = functools.partial(combine, ledger=ledger)
            return engine.reduce_partials(parts, fn)
        """,
        CORE, "W602")


def test_w602_clean_when_charging_in_serial_loop():
    assert_clean(
        """
        def task(block):
            return block

        def run(engine, blocks, ledger):
            partials = engine.map(task, blocks)
            for p in partials:
                ledger.charge("compute", p)
            return partials
        """,
        CORE, "W602")


def test_w602_clean_for_helper_not_reachable_from_task():
    assert_clean(
        """
        def charger(ledger, t):
            ledger.charge("compute", t)

        def task(block):
            return block

        def run(engine, blocks, ledger):
            partials = engine.map(task, blocks)
            charger(ledger, 1.0)
            return partials
        """,
        CORE, "W602")


# ---------------------------------------------------------------------------
# W603 — environment reads laundered past envvars.py
# ---------------------------------------------------------------------------

W603_IMPORT_ALIAS = """
    from os import environ

    def run():
        return environ["REPRO_ENGINE"]
"""


def test_w603_fires_on_from_import_alias():
    assert_fires(W603_IMPORT_ALIAS, RUNTIME, "W603")


def test_w603_fires_on_rebound_getter():
    assert_fires(
        """
        import os

        def run():
            getter = os.getenv
            return getter("REPRO_ENGINE")
        """,
        RUNTIME, "W603")


def test_w603_fires_on_mapping_passed_through_helper():
    assert_fires(
        """
        from os import environ

        def pick(mapping, key):
            return mapping.get(key)

        def run():
            return pick(environ, "REPRO_ENGINE")
        """,
        RUNTIME, "W603")


def test_w603_clean_on_typed_accessors():
    assert_clean(
        """
        from repro.analysis import envvars

        def run():
            return envvars.read_str(envvars.ENV_ENGINE)
        """,
        RUNTIME, "W603")


# ---------------------------------------------------------------------------
# W604 — unpicklable callables flowing into the engine seam
# ---------------------------------------------------------------------------

W604_FACTORY = """
    def make_task(scale):
        return lambda b: b * scale

    def run(engine, blocks):
        fn = make_task(2.0)
        return engine.map(fn, blocks)
"""


def test_w604_fires_on_factory_returned_lambda():
    assert_fires(W604_FACTORY, CORE, "W604")


def test_w604_fires_through_wrapper_parameter():
    assert_fires(
        """
        def submit(engine, fn, blocks):
            return engine.map(fn, blocks)

        def run(engine, blocks):
            return submit(engine, lambda b: b + 1, blocks)
        """,
        CORE, "W604")


def test_w604_fires_on_partial_over_nested_def():
    assert_fires(
        """
        import functools

        def run(engine, blocks):
            def inner(b, scale):
                return b * scale

            fn = functools.partial(inner, scale=2.0)
            return engine.map(fn, blocks)
        """,
        CORE, "W604")


def test_w604_flags_lambda_task() -> None:
    assert_fires(
        """
        def run(engine, items):
            return engine.map(lambda item: item + 1, items)
        """,
        CORE, "W604")


def test_w604_flags_lambda_in_map_reduce() -> None:
    assert_fires(
        """
        class Executor:
            def step(self, items):
                return self.engine.map_reduce(lambda b: b.sum(), items)
        """,
        CORE, "W604")


def test_w604_flags_nested_def_task() -> None:
    assert_fires(
        """
        def run(engine, X, items):
            def block(item):
                return X[item].sum()
            return engine.map(block, items)
        """,
        RUNTIME, "W604")


def test_w604_flags_name_bound_to_lambda() -> None:
    assert_fires(
        """
        def run(engine, items):
            block = lambda item: item + 1
            return engine.map(block, items)
        """,
        CORE, "W604")


def test_w604_flags_partial_over_lambda() -> None:
    assert_fires(
        """
        import functools

        def run(engine, items):
            fn = functools.partial(lambda k, item: item + k, 2)
            return engine.map(fn, items)
        """,
        CORE, "W604")


def test_w604_accepts_module_level_function() -> None:
    assert_clean(
        """
        def block(item):
            return item + 1

        def run(engine, items):
            return engine.map(block, items)
        """,
        CORE, "W604")


def test_w604_accepts_partial_over_module_function() -> None:
    assert_clean(
        """
        import functools

        def combine(a, b):
            return a + b

        def run(engine, partials, schedule):
            merge = functools.partial(combine)
            return engine.map(merge, schedule)
        """,
        CORE, "W604")


def test_w604_accepts_imported_attribute() -> None:
    assert_clean(
        """
        from repro.core import block_tasks

        def run(engine, items):
            return engine.map(block_tasks.fused_assign_block, items)
        """,
        CORE, "W604")


def test_w604_out_of_scope_module_is_ignored() -> None:
    assert_clean(
        """
        def run(engine, items):
            return engine.map(lambda item: item, items)
        """,
        "src/repro/reporting/plots.py", "W604")


def test_w604_clean_on_module_level_partial():
    assert_clean(
        """
        import functools

        def task(block, scale):
            return block * scale

        def run(engine, blocks):
            fn = functools.partial(task, scale=2.0)
            return engine.map(fn, blocks)
        """,
        CORE, "W604")


# ---------------------------------------------------------------------------
# W605 — dict/set iteration order flowing into committed state
# ---------------------------------------------------------------------------

W605_HELPER_HOP = """
    def collect(parts):
        return [v for v in parts.values()]

    def run(parts, state):
        merged = collect(parts)
        state.centroids = merged
        return state
"""


def test_w605_fires_through_helper_hop():
    assert_fires(W605_HELPER_HOP, CORE, "W605")


def test_w605_hole_is_invisible_to_d103(tmp_path):
    # D103 only looks at iteration sites inside core/ and runtime/.  An
    # iteration in an unscoped module whose result flows into committed
    # core state is its blind spot; W605 follows the flow to the sink.
    root = write_package(tmp_path, {
        "src/repro/reporting/collect.py": """
            def collect(parts):
                return [v for v in parts.values()]
        """,
        "src/repro/core/commit.py": """
            from repro.reporting.collect import collect

            def run(parts, state):
                state.centroids = collect(parts)
                return state
        """,
    })
    findings = [f for f in lint_paths([root / "src"]) if not f.suppressed]
    assert not [f for f in findings if f.rule == "D103"]
    w605 = [f for f in findings if f.rule == "W605"]
    assert len(w605) == 1
    assert w605[0].path.endswith("commit.py")


def test_w605_fires_on_order_tainted_charge():
    assert_fires(
        """
        def weights(parts):
            return [v for v in parts.values()]

        def run(parts, ledger):
            for w in weights(parts):
                ledger.charge("compute", w)
        """,
        CORE, "W605")


def test_w605_sorted_cancels_the_taint():
    assert_clean(
        """
        def collect(parts):
            return [parts[k] for k in sorted(parts)]

        def run(parts, state):
            state.centroids = collect(parts)
            return state
        """,
        CORE, "W605")


def test_w605_clean_on_list_sources():
    assert_clean(
        """
        def collect(parts):
            return [v * 2 for v in parts]

        def run(parts, state):
            state.centroids = collect(parts)
            return state
        """,
        CORE, "W605")


# ---------------------------------------------------------------------------
# registry / scoping integration
# ---------------------------------------------------------------------------

def test_w_rules_are_registered_and_scoped():
    ids = {r.id for r in all_rules()}
    assert {"W601", "W602", "W603", "W604", "W605"} <= ids


def test_w_rules_skip_out_of_scope_paths():
    # Reporting code is outside every W scope except W603/W605 ("repro").
    assert_clean(W601_HELPER_HOP, "src/repro/reporting/snippet.py", "W601")
    assert_clean(W602_DEEP_CHARGE, "src/repro/reporting/snippet.py", "W602")
