"""The linted tree is the shipping tree: src/repro itself must be clean.

This is the meta-test the whole PR hangs on — a rule set that the package
cannot pass is either a broken rule or undisciplined code, and either way
the build should say so.
"""

from pathlib import Path

import pytest

from repro.analysis import rules_config
from repro.analysis.envvars import REGISTRY
from repro.analysis.reprolint import lint_paths
from repro.machine.specs import CGSpec

REPO = Path(__file__).resolve().parents[2]


def test_src_repro_is_lint_clean():
    findings = [f for f in lint_paths([REPO / "src" / "repro"])
                if not f.suppressed]
    assert findings == [], "\n" + "\n".join(f.format() for f in findings)


@pytest.mark.parametrize("tree", ["experiments", "benchmarks", "examples"])
def test_script_trees_are_lint_clean(tree):
    root = REPO / tree
    if not root.exists():
        pytest.skip(f"{tree}/ not present")
    findings = [f for f in lint_paths([root]) if not f.suppressed]
    assert findings == [], "\n" + "\n".join(f.format() for f in findings)


def test_suppressions_in_tree_all_carry_reasons():
    # R001 would have failed the clean check above; this documents the
    # stronger expectation explicitly.
    findings = lint_paths([REPO / "src" / "repro"])
    for f in findings:
        if f.suppressed:
            assert f.reason, f.format()


def test_c_series_budget_matches_machine_specs():
    cg = CGSpec()
    assert rules_config.LDM_BYTES_PER_CPE == cg.cpe.ldm_bytes
    assert rules_config.CPES_PER_CG == cg.n_cpes


def test_every_registered_env_var_is_documented():
    api = (REPO / "docs" / "api.md").read_text(encoding="utf-8")
    for name in REGISTRY:
        assert f"`{name}`" in api, (
            f"{name} is in the envvars registry but undocumented in "
            f"docs/api.md")


def test_invariants_doc_covers_every_rule():
    from repro.analysis.reprolint import all_rules

    doc = (REPO / "docs" / "invariants.md").read_text(encoding="utf-8")
    for rule in all_rules():
        assert rule.id in doc, (
            f"rule {rule.id} is registered but undocumented in "
            f"docs/invariants.md")


# ---------------------------------------------------------------------------
# whole-program graph self-check (the W rules see what the tree does)
# ---------------------------------------------------------------------------

#: Every engine.map / map_reduce / reduce_partials call site in src/repro,
#: pinned.  A new seam call site MUST show up in the constructed call graph
#: (or the W rules silently go blind to it) — update the count when one
#: lands, and investigate if the two scans ever disagree.
ENGINE_SEAM_SITE_COUNT = 3


def _build_src_project():
    from repro.analysis.project import Project, extract_summary
    from repro.analysis.reprolint import LintContext, iter_python_files

    summaries = []
    for path in iter_python_files([REPO / "src" / "repro"]):
        source = path.read_text(encoding="utf-8")
        ctx = LintContext.from_source(source, str(path))
        summaries.append(extract_summary(ctx.tree, ctx.path, ctx.parts))
    return Project(summaries)


def _textual_seam_scan():
    """Engine seam call sites found by an independent AST walk.

    Deliberately re-implements the receiver heuristic with separate,
    simpler code (last receiver segment named "engine", or `self` inside
    a class whose name ends in "Engine") so a project.py regression
    cannot hide from its own test.
    """
    import ast

    from repro.analysis.reprolint import iter_python_files

    sites = set()
    for path in iter_python_files([REPO / "src" / "repro"]):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        engine_classes = {node.name for node in ast.walk(tree)
                          if isinstance(node, ast.ClassDef)
                          and node.name.endswith("Engine")}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("map", "map_reduce",
                                           "reduce_partials")):
                continue
            recv = node.func.value
            if isinstance(recv, ast.Name) and recv.id == "engine":
                sites.add((str(path), node.lineno))
            elif isinstance(recv, ast.Attribute) and recv.attr == "engine":
                sites.add((str(path), node.lineno))
            elif isinstance(recv, ast.Name) and recv.id == "self" \
                    and engine_classes:
                sites.add((str(path), node.lineno))
    return sites


def test_every_engine_seam_call_site_is_in_the_graph():
    project = _build_src_project()
    graph_sites = {(s.path, s.line) for s in project.graph.engine_sites}
    assert _textual_seam_scan() == graph_sites


def test_engine_seam_site_count_is_pinned():
    project = _build_src_project()
    assert len(project.graph.engine_sites) == ENGINE_SEAM_SITE_COUNT


def test_seam_sites_resolve_into_call_edges():
    # Each site must also exist as an edge from its caller, so taint can
    # enter the seam from anywhere in the graph.
    project = _build_src_project()
    for site in project.graph.engine_sites:
        edges = project.graph.by_caller.get(site.caller, [])
        assert any(e.call is site.call for e in edges), site
