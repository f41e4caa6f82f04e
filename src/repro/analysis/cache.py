"""Incremental lint cache: per-file fact summaries keyed by content hash.

Cold reprolint runs spend nearly all their time parsing files and walking
ASTs.  Nothing in that work depends on anything but the file's bytes and
the active rule set, so the cache stores — per file, keyed by a SHA-256
of (schema version, rule ids, source) —

* the per-file findings (post-suppression, including R-meta),
* the parsed suppression comments (needed to suppress whole-program
  findings that land in an unchanged file), and
* the :class:`~repro.analysis.project.FileSummary` (the picklable IR the
  call-graph/taint layer consumes), so warm runs never re-parse.

A second level keys the *whole-program* findings by a digest over every
file's content hash: when no file changed, the warm run skips graph
construction and the taint fixpoints outright.

The cache directory comes from the registered ``REPRO_LINT_CACHE``
environment knob (see :func:`default_cache_dir`) or an explicit
``--cache`` flag.  Entries are plain pickles named by their key; a
corrupt or version-skewed entry is treated as a miss and rewritten, so
the cache never needs manual invalidation.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from . import envvars

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from .project import FileSummary
    from .reprolint import Finding, _Suppression

__all__ = ["CacheEntry", "LintCache", "default_cache_dir"]

#: Bump when the pickled layout (Finding/FileSummary/_Suppression fields or
#: the Op/Value IR) changes shape or meaning; the version feeds the content
#: hash, so a bump silently invalidates every stale entry.  Version 2: path
#: parts are relative to the project root.  Version 3: lambdas carry their
#: own function summaries.  Version 4: suppressions come from comment
#: tokens only.
_SCHEMA = 4


def default_cache_dir() -> Optional[Path]:
    """The ``REPRO_LINT_CACHE`` directory, or None when caching is off."""
    raw = envvars.read_str(envvars.ENV_LINT_CACHE)
    return Path(raw) if raw is not None else None


@dataclass
class CacheEntry:
    """Everything ``lint_paths`` needs to skip re-analysing one file."""

    findings: List["Finding"]
    suppressions: List["_Suppression"]
    summary: Optional["FileSummary"]


class LintCache:
    """Content-addressed store under one directory.

    ``hits``/``misses`` count per-file lookups; ``project_hits`` counts
    whole-tree lookups.  The counters exist for the warm-skip tests and
    ``benchmarks/bench_lint.py`` — correctness never depends on them.
    """

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.project_hits = 0
        self.project_misses = 0

    # -- keys -------------------------------------------------------------

    @staticmethod
    def content_hash(source: str, rules_sig: str) -> str:
        payload = f"{_SCHEMA}\x00{rules_sig}\x00".encode() + source.encode()
        return hashlib.sha256(payload).hexdigest()

    @staticmethod
    def tree_digest(file_hashes: Sequence[Tuple[str, str]]) -> str:
        joined = "\x00".join(
            f"{path}={digest}" for path, digest in sorted(file_hashes))
        return hashlib.sha256(f"{_SCHEMA}\x00{joined}".encode()).hexdigest()

    def _file_key(self, path: str, digest: str) -> Path:
        name = hashlib.sha256(f"{path}\x00{digest}".encode()).hexdigest()
        return self.root / f"f-{name}.pkl"

    def _project_key(self, tree_digest: str) -> Path:
        return self.root / f"p-{tree_digest}.pkl"

    # -- per-file entries ---------------------------------------------------

    def get_file(self, path: str, digest: str) -> Optional[CacheEntry]:
        entry = self._load(self._file_key(path, digest))
        if isinstance(entry, CacheEntry):
            self.hits += 1
            return entry
        self.misses += 1
        return None

    def put_file(self, path: str, digest: str,
                 findings: List["Finding"],
                 suppressions: List["_Suppression"],
                 summary: Optional["FileSummary"]) -> None:
        self._store(self._file_key(path, digest),
                    CacheEntry(findings=list(findings),
                               suppressions=list(suppressions),
                               summary=summary))

    # -- whole-program entries ----------------------------------------------

    def get_project(
            self, tree_digest: str) -> Optional[Dict[str, List["Finding"]]]:
        entry = self._load(self._project_key(tree_digest))
        if isinstance(entry, dict):
            self.project_hits += 1
            return entry
        self.project_misses += 1
        return None

    def put_project(self, tree_digest: str,
                    by_path: Dict[str, List["Finding"]]) -> None:
        self._store(self._project_key(tree_digest), by_path)

    # -- storage --------------------------------------------------------------

    def _load(self, key: Path) -> object:
        try:
            with key.open("rb") as handle:
                return pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            # Missing, truncated, or version-skewed entry: a cache miss.
            return None

    def _store(self, key: Path, value: object) -> None:
        tmp = key.with_suffix(".tmp")
        try:
            with tmp.open("wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            tmp.replace(key)
        except OSError:
            # A read-only or full cache directory degrades to cold runs.
            try:
                tmp.unlink()
            except OSError:
                pass
