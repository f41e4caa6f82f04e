"""`python -m repro.analysis` — exit codes, JSON output, rule selection."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.analysis.__main__ import main

REPO = Path(__file__).resolve().parents[2]

DIRTY = textwrap.dedent("""
    import random

    def merge(partials):
        for k, v in partials.items():
            consume(k, v)
""")

CLEAN = textwrap.dedent("""
    import numpy as np

    def assign(X: np.ndarray, C: np.ndarray) -> np.ndarray:
        return X @ C
""")


def write_tree(tmp_path, source):
    # The fabricated layout puts the file in scope of the core rules.
    target = tmp_path / "src" / "repro" / "core"
    target.mkdir(parents=True)
    (target / "snippet.py").write_text(source, encoding="utf-8")
    return tmp_path / "src"


def test_clean_tree_exits_zero(tmp_path, capsys):
    root = write_tree(tmp_path, CLEAN)
    assert main(["--check", str(root)]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_dirty_tree_exits_one(tmp_path, capsys):
    root = write_tree(tmp_path, DIRTY)
    assert main(["--check", str(root)]) == 1
    out = capsys.readouterr().out
    assert "D101" in out and "D103" in out


def test_json_output_is_parseable(tmp_path, capsys):
    root = write_tree(tmp_path, DIRTY)
    assert main(["--check", "--format", "json", str(root)]) == 1
    payload = json.loads(capsys.readouterr().out)
    rules = {f["rule"] for f in payload["findings"]}
    assert {"D101", "D103"} <= rules
    assert payload["counts"]["active"] >= 2


def test_rule_selection_limits_the_run(tmp_path, capsys):
    root = write_tree(tmp_path, DIRTY)
    assert main(["--check", "--rules", "D101", str(root)]) == 1
    out = capsys.readouterr().out
    assert "D101" in out and "D103" not in out


def test_unknown_rule_id_is_usage_error(tmp_path, capsys):
    root = write_tree(tmp_path, CLEAN)
    assert main(["--check", "--rules", "Z999", str(root)]) == 2
    assert "Z999" in capsys.readouterr().err


def test_list_rules_prints_catalogue(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("D101", "L202", "C301", "E402", "T501", "W602", "W603"):
        assert rule_id in out
    # Folded into W601, W602 and W603; their ids are not reused.
    for rule_id in ("D106", "L201", "E401"):
        assert rule_id not in out


def test_fixture_directories_are_skipped(tmp_path, capsys):
    root = write_tree(tmp_path, CLEAN)
    bad = tmp_path / "src" / "repro" / "core" / "fixtures"
    bad.mkdir()
    (bad / "violation.py").write_text(DIRTY, encoding="utf-8")
    assert main(["--check", str(root)]) == 0


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--list-rules"],
        cwd=REPO, capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert "D101" in proc.stdout


# ---------------------------------------------------------------------------
# output formats
# ---------------------------------------------------------------------------

def test_github_format_emits_workflow_commands(tmp_path, capsys):
    root = write_tree(tmp_path, DIRTY)
    assert main(["--check", "--format", "github", str(root)]) == 1
    out = capsys.readouterr().out
    annotations = [line for line in out.splitlines()
                   if line.startswith("::error ")]
    assert annotations, out
    first = annotations[0]
    assert "file=" in first and "line=" in first and "col=" in first
    assert "title=reprolint D" in first


def test_github_format_escapes_newlines_and_commas(capsys):
    from repro.analysis.reprolint import Finding, render_github

    finding = Finding(rule="D101", path="a,b.py", line=1, col=1,
                      message="multi\nline % message")
    out = render_github([finding])
    assert "%0A" in out and "%25" in out
    assert "file=a%2Cb.py" in out
    assert "multi\nline" not in out


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def test_baseline_grandfathers_existing_findings(tmp_path, capsys):
    root = write_tree(tmp_path, DIRTY)
    baseline = tmp_path / "baseline.json"
    assert main(["--write-baseline", str(baseline), str(root)]) == 0
    capsys.readouterr()
    # Everything is grandfathered: the gate passes.
    assert main(["--check", "--baseline", str(baseline), str(root)]) == 0
    out = capsys.readouterr().out
    assert "baselined finding" in out


def test_new_finding_fails_despite_baseline(tmp_path, capsys):
    root = write_tree(tmp_path, DIRTY)
    baseline = tmp_path / "baseline.json"
    assert main(["--write-baseline", str(baseline), str(root)]) == 0
    capsys.readouterr()
    # A new violation lands next to the grandfathered ones.
    snippet = tmp_path / "src" / "repro" / "core" / "snippet.py"
    snippet.write_text(snippet.read_text(encoding="utf-8")
                       + "\nimport time\nNOW = time.time()\n",
                       encoding="utf-8")
    assert main(["--check", "--baseline", str(baseline), str(root)]) == 1
    out = capsys.readouterr().out
    assert "D102" in out


def test_baseline_survives_line_shifts(tmp_path, capsys):
    root = write_tree(tmp_path, DIRTY)
    baseline = tmp_path / "baseline.json"
    assert main(["--write-baseline", str(baseline), str(root)]) == 0
    capsys.readouterr()
    # Prepend a harmless line: every finding moves down one line.
    snippet = tmp_path / "src" / "repro" / "core" / "snippet.py"
    snippet.write_text('"""docstring."""\n'
                       + snippet.read_text(encoding="utf-8"),
                       encoding="utf-8")
    assert main(["--check", "--baseline", str(baseline), str(root)]) == 0


def test_missing_baseline_is_usage_error(tmp_path, capsys):
    root = write_tree(tmp_path, CLEAN)
    missing = tmp_path / "nope.json"
    assert main(["--check", "--baseline", str(missing), str(root)]) == 2
    assert "baseline" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# cache flags
# ---------------------------------------------------------------------------

def test_cache_flag_creates_and_reuses_entries(tmp_path, capsys):
    root = write_tree(tmp_path, CLEAN)
    cache_dir = tmp_path / "lintcache"
    assert main(["--check", "--cache", str(cache_dir), str(root)]) == 0
    entries = list(cache_dir.iterdir())
    assert entries
    capsys.readouterr()
    assert main(["--check", "--cache", str(cache_dir), str(root)]) == 0


def test_no_cache_flag_ignores_env(tmp_path, monkeypatch, capsys):
    from repro.analysis.envvars import ENV_LINT_CACHE

    root = write_tree(tmp_path, CLEAN)
    cache_dir = tmp_path / "lintcache"
    monkeypatch.setenv(ENV_LINT_CACHE.name, str(cache_dir))
    assert main(["--check", "--no-cache", str(root)]) == 0
    assert not cache_dir.exists()
