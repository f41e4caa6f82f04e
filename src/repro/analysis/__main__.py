"""``python -m repro.analysis`` — run reprolint over the tree.

Exit codes: 0 = clean (or suppressed/baselined-only), 1 = unsuppressed
findings, 2 = bad invocation.  The CI lint job runs::

    python -m repro.analysis --check --format github src/ benchmarks/ examples/
    python -m repro.analysis --check --format github \
        --baseline tests/analysis/reprolint_baseline.json tests/

See ``docs/invariants.md`` for the rule catalogue and the suppression
syntax.  Caching: ``--cache DIR`` (or the registered ``REPRO_LINT_CACHE``
variable) makes warm runs skip unchanged files; ``--no-cache`` forces a
cold run regardless.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .cache import LintCache, default_cache_dir
from .reprolint import (
    Finding,
    all_rules,
    baseline_key,
    lint_paths,
    load_baseline,
    render_github,
    render_human,
    render_json,
    write_baseline,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="reprolint: static analysis of the repo's determinism, "
                    "ledger, LDM, env, typing, and whole-program "
                    "invariants.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)")
    parser.add_argument(
        "--check", action="store_true",
        help="gate mode (the default behaviour; kept explicit for CI "
             "readability): exit 1 on any unsuppressed finding")
    parser.add_argument(
        "--format", choices=("human", "json", "github"), default="human",
        help="output format: human-readable lines (default), JSON, or "
             "GitHub Actions workflow-command annotations")
    parser.add_argument(
        "--show-suppressed", action="store_true",
        help="also print findings silenced by suppression comments")
    parser.add_argument(
        "--rules", metavar="IDS",
        help="comma-separated rule ids to run (default: all)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit")
    parser.add_argument(
        "--baseline", metavar="FILE",
        help="grandfather file: findings whose (rule, path, message) key "
             "appears in it do not fail the gate; new findings still do")
    parser.add_argument(
        "--write-baseline", metavar="FILE",
        help="write the current active findings to FILE as the new "
             "baseline and exit 0")
    parser.add_argument(
        "--cache", metavar="DIR",
        help="incremental cache directory (default: $REPRO_LINT_CACHE "
             "when set)")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore --cache and $REPRO_LINT_CACHE for this run")
    return parser


def _resolve_cache(args: argparse.Namespace) -> Optional[LintCache]:
    if args.no_cache:
        return None
    if args.cache:
        return LintCache(args.cache)
    default = default_cache_dir()
    return LintCache(default) if default is not None else None


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    rules = all_rules()
    if args.list_rules:
        for rule in rules:
            scope = ", ".join(rule.scopes) if rule.scopes else "everywhere"
            print(f"{rule.id}  {rule.name}  [{scope}]")
            print(f"      {rule.summary}")
        return 0
    if args.rules:
        wanted = {rule_id.strip() for rule_id in args.rules.split(",")}
        unknown = wanted - {rule.id for rule in rules}
        if unknown:
            print(f"unknown rule ids: {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2
        rules = [rule for rule in rules if rule.id in wanted]

    findings = lint_paths(args.paths, rules=rules,
                          cache=_resolve_cache(args))

    if args.write_baseline:
        write_baseline(findings, args.write_baseline)
        active = sum(1 for f in findings if not f.suppressed)
        print(f"reprolint: wrote {active} finding"
              f"{'s' if active != 1 else ''} to {args.write_baseline}")
        return 0

    baselined: List[Finding] = []
    if args.baseline:
        try:
            grandfathered = load_baseline(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"cannot read baseline {args.baseline!r}: {exc}",
                  file=sys.stderr)
            return 2
        kept: List[Finding] = []
        for finding in findings:
            if not finding.suppressed \
                    and baseline_key(finding) in grandfathered:
                baselined.append(finding)
            else:
                kept.append(finding)
        findings = kept

    if args.format == "json":
        print(render_json(findings))
    elif args.format == "github":
        print(render_github(findings))
    else:
        print(render_human(findings, show_suppressed=args.show_suppressed))
    if baselined:
        print(f"reprolint: {len(baselined)} baselined finding"
              f"{'s' if len(baselined) != 1 else ''} ignored")
    active_rules: List[str] = [f.rule for f in findings if not f.suppressed]
    return 1 if active_rules else 0


if __name__ == "__main__":
    sys.exit(main())
