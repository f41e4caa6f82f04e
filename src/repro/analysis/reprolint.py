"""reprolint — AST static analysis enforcing the repo's invariants.

The package's load-bearing property is that runs are **bit-identical**
across engines, fault replays, and checkpoint resumes.  That property is a
set of coding disciplines (fixed-order merges, seeded RNGs, charging in the
serial loop, registered env knobs, LDM-feasible configs), and disciplines
erode unless something mechanical holds them.  reprolint is that mechanism:
a small rule framework over :mod:`ast` with

* a registry of :class:`Rule` subclasses, each owning one invariant and one
  stable id (``D101``, ``W602``, ...; see ``docs/invariants.md``),
* per-line and per-file suppression comments that *require a reason*::

      thing = risky()  # reprolint: disable=D103 -- insertion order is sorted here

      # reprolint: disable-file=W603 -- this module IS the env accessor

* human and JSON output plus a CLI (``python -m repro.analysis``); the CI
  lint job fails on any unsuppressed finding.

Rules are scoped by path component (a rule about engine partials applies to
``core/`` and ``runtime/``, not to ``reporting/``), and every rule ships a
positive and a negative fixture in ``tests/analysis/``.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path, PurePosixPath
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from .cache import LintCache
    from .project import FileSummary, Project

__all__ = [
    "Finding",
    "LintContext",
    "ProjectRule",
    "Rule",
    "all_rules",
    "baseline_key",
    "dotted_name",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "register_rule",
    "render_github",
    "render_human",
    "render_json",
    "write_baseline",
]

#: ``# reprolint: disable=D101,D102 -- reason`` (trailing or whole-line) /
#: ``# reprolint: disable-file=W603 -- reason``, matched at the start of a
#: comment token.
_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*(?P<kind>disable|disable-file)\s*=\s*"
    r"(?P<rules>[A-Z][0-9]{3}(?:\s*,\s*[A-Z][0-9]{3})*)"
    r"(?:\s*--\s*(?P<reason>\S.*?))?\s*$"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation (or meta-finding) at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False
    reason: Optional[str] = None

    def format(self) -> str:
        mark = "  [suppressed: " + (self.reason or "") + "]" \
            if self.suppressed else ""
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule} {self.message}{mark}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "suppressed": self.suppressed,
            "reason": self.reason,
        }


@dataclass
class _Suppression:
    """One parsed suppression comment."""

    line: int
    kind: str                 # "disable" | "disable-file"
    rules: Tuple[str, ...]
    reason: Optional[str]
    own_line: bool            # comment stands alone on its line
    used: bool = False


def project_parts(path: str) -> Tuple[str, ...]:
    """The components of ``path`` below its project root, file stem last.

    The root is the nearest ancestor directory holding ``pyproject.toml``;
    without one the path counts as given.  So the directories a checkout
    sits in never decide which rules reach a file.
    """
    posix = PurePosixPath(str(path).replace("\\", "/"))
    absolute = Path(path).absolute()
    for root in absolute.parents:
        if (root / "pyproject.toml").is_file():
            posix = PurePosixPath(absolute.relative_to(root).as_posix())
            break
    return tuple(posix.parts[:-1]) + (posix.stem,)


@dataclass
class LintContext:
    """Everything a rule may inspect about one file."""

    path: str                     # display path (as given to the runner)
    source: str
    tree: ast.Module
    parts: Tuple[str, ...] = ()   # posix path components, file stem last

    @classmethod
    def from_source(cls, source: str, path: str) -> "LintContext":
        tree = ast.parse(source, filename=path)
        return cls(path=path, source=source, tree=tree,
                   parts=project_parts(path))

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        return Finding(rule=rule.id, path=self.path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0) + 1,
                       message=message)


class Rule:
    """One enforced invariant.

    Subclasses set the class attributes and implement :meth:`check`;
    registration is explicit via :func:`register_rule` so the rule set is
    importable (and testable) piecemeal.
    """

    #: Stable identifier, e.g. ``"D101"`` (letter = series, see docs).
    id: str = ""
    #: Short kebab-ish name shown by ``--list-rules``.
    name: str = ""
    #: One-line statement of the invariant.
    summary: str = ""
    #: Path components the rule applies to (empty = every file).  A file
    #: matches when any scope appears among its path components (the module
    #: stem counts as a component, so ``"errors"`` scopes a single module).
    scopes: Tuple[str, ...] = ()
    #: Path components the rule never applies to, checked before scopes.
    exempt: Tuple[str, ...] = ()

    def scope_ok(self, parts: Tuple[str, ...]) -> bool:
        """Does a file with these path parts fall under this rule?"""
        if any(part in self.exempt for part in parts):
            return False
        if not self.scopes:
            return True
        return any(scope in parts for scope in self.scopes)

    def applies(self, ctx: LintContext) -> bool:
        return self.scope_ok(ctx.parts)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError


class ProjectRule(Rule):
    """A whole-program rule: sees the project, not one file.

    The runner builds one :class:`~repro.analysis.project.Project` (module
    table + call graph) per invocation and hands it to every registered
    ``ProjectRule`` via :meth:`check_project`.  Findings land in whatever
    file the sink lives in; per-file ``scopes``/``exempt`` filtering is the
    rule's job (use :meth:`scope_ok` on the sink file's path parts), and
    the runner applies that file's suppression comments afterwards, so
    ``# reprolint: disable=W601 -- reason`` works exactly like the
    per-file series.
    """

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: "Project") -> Iterator[Finding]:
        raise NotImplementedError


_REGISTRY: Dict[str, Rule] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding one rule instance to the global registry."""
    rule = cls()
    if not rule.id or not rule.summary:
        raise ValueError(f"rule {cls.__name__} needs an id and a summary")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    _REGISTRY[rule.id] = rule
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, in id order (imports the rule modules)."""
    _load_builtin_rules()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def _load_builtin_rules() -> None:
    # Import for the registration side effect; late so that the framework
    # itself stays importable from the rule modules.
    from . import (  # noqa: F401
        rules_config,
        rules_determinism,
        rules_env,
        rules_ledger,
        rules_typing,
        rules_wholeprogram,
    )


# -- AST helpers shared by the rule modules ---------------------------------

def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for Name/Attribute chains, else '' (calls are opaque)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


# -- suppression handling ----------------------------------------------------

def _parse_suppressions(source: str) -> List[_Suppression]:
    """The suppression comments of one file, read from its comment tokens.

    Only a comment that itself starts with ``# reprolint:`` counts: text in
    docstrings, string literals and ``#:`` doc-comments that merely quotes
    a suppression suppresses nothing.
    """
    found: List[_Suppression] = []
    if "reprolint:" not in source:
        return found  # most files: skip the tokenizer
    readline = io.StringIO(source).readline
    for tok in tokenize.generate_tokens(readline):
        if tok.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.match(tok.string)
        if match is None:
            continue
        rules = tuple(r.strip() for r in match.group("rules").split(","))
        line, col = tok.start
        found.append(_Suppression(
            line=line,
            kind=match.group("kind"),
            rules=rules,
            reason=match.group("reason"),
            own_line=not tok.line[:col].strip(),
        ))
    return found


def _suppression_meta(suppressions: Sequence[_Suppression], path: str,
                      known_ids: Iterable[str]) -> List[Finding]:
    """R-series meta-findings for one file's suppression comments.

    * ``R001`` — a suppression without a ``-- reason`` string,
    * ``R002`` — a suppression naming an unknown rule id.
    """
    known = set(known_ids)
    meta: List[Finding] = []
    for sup in suppressions:
        if sup.reason is None:
            meta.append(Finding(
                rule="R001", path=path, line=sup.line, col=1,
                message="suppression needs a reason: "
                        "`# reprolint: disable=ID -- why`",
            ))
        for rule_id in sup.rules:
            if rule_id not in known:
                meta.append(Finding(
                    rule="R002", path=path, line=sup.line, col=1,
                    message=f"suppression names unknown rule {rule_id!r}",
                ))
    return meta


def _mark_suppressed(findings: Sequence[Finding],
                     suppressions: Sequence[_Suppression]) -> List[Finding]:
    """Mark findings covered by suppression comments.

    A ``disable`` comment covers its own line, and — when it stands alone —
    the next line (so long statements can carry the comment above them).
    A ``disable-file`` comment covers the whole file for its rules.
    """
    file_wide: Dict[str, _Suppression] = {}
    by_line: Dict[int, List[_Suppression]] = {}
    for sup in suppressions:
        if sup.kind == "disable-file":
            for rule_id in sup.rules:
                file_wide.setdefault(rule_id, sup)
        else:
            by_line.setdefault(sup.line, []).append(sup)
            if sup.own_line:
                by_line.setdefault(sup.line + 1, []).append(sup)

    out: List[Finding] = []
    for finding in findings:
        covering: Optional[_Suppression] = None
        for sup in by_line.get(finding.line, ()):
            if finding.rule in sup.rules:
                covering = sup
                break
        if covering is None:
            covering = file_wide.get(finding.rule)
        if covering is not None and covering.reason is not None:
            covering.used = True
            out.append(Finding(
                rule=finding.rule, path=finding.path, line=finding.line,
                col=finding.col, message=finding.message,
                suppressed=True, reason=covering.reason,
            ))
        else:
            out.append(finding)
    return out


def _apply_suppressions(findings: List[Finding],
                        suppressions: List[_Suppression],
                        ctx: LintContext,
                        known_ids: Iterable[str]) -> List[Finding]:
    return (_mark_suppressed(findings, suppressions)
            + _suppression_meta(suppressions, ctx.path, known_ids))


# -- runners -----------------------------------------------------------------

def _split_rules(
        rules: Sequence[Rule]) -> Tuple[List[Rule], List["ProjectRule"]]:
    file_rules = [r for r in rules if not isinstance(r, ProjectRule)]
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]
    return file_rules, project_rules


def _check_file(ctx: LintContext, file_rules: Sequence[Rule]) -> List[Finding]:
    findings: List[Finding] = []
    for rule in file_rules:
        if rule.applies(ctx):
            findings.extend(rule.check(ctx))
    return findings


def _project_findings(
        summaries: Sequence["FileSummary"],
        project_rules: Sequence["ProjectRule"],
) -> Dict[str, List[Finding]]:
    """Run every whole-program rule over ONE shared project, per path."""
    by_path: Dict[str, List[Finding]] = {}
    if not project_rules or not summaries:
        return by_path
    from .project import Project
    project = Project(summaries)
    for rule in project_rules:
        for finding in rule.check_project(project):
            by_path.setdefault(finding.path, []).append(finding)
    return by_path


def lint_source(source: str, path: str,
                rules: Optional[Sequence[Rule]] = None) -> List[Finding]:
    """Lint one source string presented as ``path`` (fixtures use this).

    Whole-program rules see a single-file project, so interprocedural
    fixtures work as long as the flow stays within the snippet.
    """
    if rules is None:
        rules = all_rules()
    file_rules, project_rules = _split_rules(rules)
    try:
        ctx = LintContext.from_source(source, path)
    except SyntaxError as exc:
        return [Finding(rule="R003", path=path, line=exc.lineno or 1,
                        col=(exc.offset or 0) + 1,
                        message=f"file does not parse: {exc.msg}")]
    findings = _check_file(ctx, file_rules)
    if project_rules:
        from .project import extract_summary
        summary = extract_summary(ctx.tree, ctx.path, ctx.parts)
        for per_path in _project_findings([summary], project_rules).values():
            findings.extend(per_path)
    suppressions = _parse_suppressions(ctx.source)
    findings = _apply_suppressions(findings, suppressions, ctx,
                                   [r.id for r in rules])
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_file(path: "str | Path",
              rules: Optional[Sequence[Rule]] = None) -> List[Finding]:
    source = Path(path).read_text(encoding="utf-8")
    return lint_source(source, str(path), rules=rules)


def iter_python_files(paths: Iterable["str | Path"]) -> Iterator[Path]:
    """Expand files/directories to ``.py`` files, in sorted order.

    Cache and fixture directories are skipped: fixture snippets violate
    rules on purpose.
    """
    skip_dirs = {"__pycache__", ".git", "fixtures", "build", "dist"}
    for entry in paths:
        root = Path(entry)
        if root.is_file():
            if root.suffix == ".py":
                yield root
            continue
        for candidate in sorted(root.rglob("*.py")):
            if not skip_dirs.intersection(candidate.parts):
                yield candidate


def lint_paths(paths: Iterable["str | Path"],
               rules: Optional[Sequence[Rule]] = None,
               cache: Optional["LintCache"] = None) -> List[Finding]:
    """Lint every python file under ``paths``.

    The project (module table + call graph) is built **once** for the
    whole invocation and shared by every whole-program rule.  With a
    ``cache``, unchanged files reuse their stored per-file findings,
    suppressions, and project summary (keyed by content hash), and an
    unchanged *tree* reuses the stored whole-program findings outright.
    """
    if rules is None:
        rules = all_rules()
    file_rules, project_rules = _split_rules(rules)
    known_ids = [r.id for r in rules]
    rules_sig = ",".join(sorted(known_ids))

    per_file: Dict[str, List[Finding]] = {}
    suppressions_by_path: Dict[str, List[_Suppression]] = {}
    summaries: List["FileSummary"] = []
    file_hashes: List[Tuple[str, str]] = []

    for file_path in iter_python_files(paths):
        path = str(file_path)
        source = file_path.read_text(encoding="utf-8")
        if cache is not None:
            digest = cache.content_hash(source, rules_sig)
            file_hashes.append((path, digest))
            entry = cache.get_file(path, digest)
            if entry is not None:
                per_file[path] = list(entry.findings)
                suppressions_by_path[path] = list(entry.suppressions)
                if entry.summary is not None:
                    summaries.append(entry.summary)
                continue
        try:
            ctx = LintContext.from_source(source, path)
        except SyntaxError as exc:
            findings = [Finding(rule="R003", path=path,
                                line=exc.lineno or 1,
                                col=(exc.offset or 0) + 1,
                                message=f"file does not parse: {exc.msg}")]
            per_file[path] = findings
            suppressions_by_path[path] = []
            if cache is not None:
                cache.put_file(path, digest, findings, [], None)
            continue
        raw = _check_file(ctx, file_rules)
        suppressions = _parse_suppressions(ctx.source)
        findings = (_mark_suppressed(raw, suppressions)
                    + _suppression_meta(suppressions, path, known_ids))
        per_file[path] = findings
        suppressions_by_path[path] = suppressions
        summary: Optional["FileSummary"] = None
        if project_rules:
            from .project import extract_summary
            summary = extract_summary(ctx.tree, ctx.path, ctx.parts)
            summaries.append(summary)
        if cache is not None:
            cache.put_file(path, digest, findings, suppressions, summary)

    wp_by_path: Dict[str, List[Finding]] = {}
    if project_rules:
        tree_digest = None
        if cache is not None:
            tree_digest = cache.tree_digest(file_hashes)
            wp_cached = cache.get_project(tree_digest)
            if wp_cached is not None:
                wp_by_path = wp_cached
        if not wp_by_path:
            wp_by_path = _project_findings(summaries, project_rules)
            if cache is not None and tree_digest is not None:
                cache.put_project(tree_digest, wp_by_path)

    for path, wp_findings in wp_by_path.items():
        marked = _mark_suppressed(
            wp_findings, suppressions_by_path.get(path, []))
        per_file.setdefault(path, []).extend(marked)

    findings_all: List[Finding] = []
    for path_findings in per_file.values():
        findings_all.extend(path_findings)
    findings_all.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings_all


# -- output ------------------------------------------------------------------

def render_human(findings: Sequence[Finding],
                 show_suppressed: bool = False) -> str:
    shown = [f for f in findings if show_suppressed or not f.suppressed]
    lines = [f.format() for f in shown]
    active = sum(1 for f in findings if not f.suppressed)
    muted = len(findings) - active
    lines.append(
        f"reprolint: {active} finding{'s' if active != 1 else ''}"
        + (f" ({muted} suppressed)" if muted else "")
    )
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    return json.dumps({
        "findings": [f.to_dict() for f in findings],
        "counts": {
            "active": sum(1 for f in findings if not f.suppressed),
            "suppressed": sum(1 for f in findings if f.suppressed),
        },
    }, indent=2)


def _gh_escape_data(text: str) -> str:
    return text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def _gh_escape_prop(text: str) -> str:
    return (_gh_escape_data(text)
            .replace(":", "%3A").replace(",", "%2C"))


def render_github(findings: Sequence[Finding]) -> str:
    """GitHub Actions workflow-command annotations, one per active finding.

    ``::error file=...,line=...,col=...,title=...::message`` lines attach
    to the PR diff in the checks UI; suppressed findings are omitted.  The
    trailing summary line is plain text (ignored by the runner, useful in
    raw logs).
    """
    lines: List[str] = []
    active = 0
    for finding in findings:
        if finding.suppressed:
            continue
        active += 1
        lines.append(
            f"::error file={_gh_escape_prop(finding.path)}"
            f",line={finding.line},col={finding.col}"
            f",title={_gh_escape_prop('reprolint ' + finding.rule)}"
            f"::{_gh_escape_data(finding.message)}"
        )
    lines.append(
        f"reprolint: {active} finding{'s' if active != 1 else ''}")
    return "\n".join(lines)


# -- baselines ----------------------------------------------------------------

def baseline_key(finding: Finding) -> str:
    """Stable identity for grandfathering: rule + path + message.

    Line/column are deliberately excluded so unrelated edits that shift a
    grandfathered finding up or down the file do not break CI.
    """
    return f"{finding.rule}::{finding.path}::{finding.message}"


def load_baseline(path: "str | Path") -> Set[str]:
    """Read a baseline file written by :func:`write_baseline`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    entries = payload.get("entries", [])
    return {str(entry) for entry in entries}


def write_baseline(findings: Sequence[Finding], path: "str | Path") -> None:
    """Persist every active finding's key as the new grandfather set."""
    keys = sorted({baseline_key(f) for f in findings if not f.suppressed})
    payload = {
        "comment": "reprolint grandfathered findings; regenerate with "
                   "`python -m repro.analysis --write-baseline <this file> "
                   "<paths>`",
        "version": 1,
        "entries": keys,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n",
                          encoding="utf-8")
