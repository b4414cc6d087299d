"""The lint engine: discovery, two analysis phases, suppression and
baseline filtering.

Phase 1 walks every file once: parses it, runs the per-file AST rules
and reduces it to a :class:`~.project.ModuleSummary`.  Files are
independent here, so the phase parallelises across worker processes
(``jobs=``) and caches per file on ``(mtime, size, rule-set
signature)``.

Phase 2 assembles the summaries into a
:class:`~.project.ProjectModel` (import graph, symbol tables,
dataclass inventories, call-edge approximation) and runs the
cross-file rules against it.  Per-module results are cached on the
module's *deep digest* — its summary plus everything it transitively
imports — so editing ``iec104/constants.py`` re-analyses every
importer even though their mtimes never moved.

The engine is deliberately dependency-free (stdlib ``ast`` only) so
``repro lint`` runs in the same minimal environment as the analyses
themselves — CI does not need ruff/mypy installed for the
project-specific invariants to be enforced.
"""

from __future__ import annotations

import ast
import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .baseline import Baseline
from .cache import ResultCache, rules_signature
from .findings import Finding, Severity
from .project import ModuleSummary, ProjectModel, extract_summary
from .registry import (AstRule, CrossFileRule, FileContext,
                       ProjectRule, Rule, build_rules)
from .suppressions import SuppressionIndex

#: Directory names never descended into during file discovery.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache",
              "build", "dist", ".eggs"}

#: Below this many files-to-parse, a worker pool costs more than it
#: saves; phase 1 stays serial.
_PARALLEL_THRESHOLD = 4


@dataclass
class RunResult:
    """Outcome of one lint invocation."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    rule_ids: list[str] = field(default_factory=list)
    #: Findings grandfathered by the baseline this run.
    baselined: int = 0
    #: Modules re-parsed (phase 1) or whose cross-file verdict was
    #: recomputed (phase 2) — everything *not* served from cache.
    reanalyzed: list[str] = field(default_factory=list)

    @property
    def worst_severity(self) -> Severity | None:
        if not self.findings:
            return None
        return max(finding.severity for finding in self.findings)

    @property
    def exit_code(self) -> int:
        """Non-zero when any finding survived suppression/baseline."""
        return 1 if self.findings else 0


def discover_files(paths: Iterable[Path]) -> list[Path]:
    """Expand ``paths`` into a sorted list of ``.py`` files."""
    files: set[Path] = set()
    for path in paths:
        path = Path(path)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    files.add(candidate)
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files)


def module_path_for(path: Path) -> str:
    """Dotted module path for ``path``, anchored at a package root.

    Walks upward while ``__init__.py`` siblings exist, so
    ``src/repro/simnet/clock.py`` maps to ``repro.simnet.clock``
    regardless of the checkout location.
    """
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts))


def _analyze_one(
        file_path: Path, ast_rules: Sequence[AstRule],
        need_summary: bool,
) -> tuple[list[Finding], int, bool, ModuleSummary | None]:
    """Phase 1 for one file: AST-rule findings plus its summary."""
    findings: list[Finding] = []
    suppressed = 0
    try:
        source = file_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        findings.append(Finding(path=str(file_path), line=1, col=1,
                                rule_id="parse-error",
                                message=f"cannot read file: {exc}",
                                severity=Severity.ERROR))
        return findings, 0, False, None
    try:
        tree = ast.parse(source, filename=str(file_path))
    except SyntaxError as exc:
        findings.append(Finding(path=str(file_path),
                                line=exc.lineno or 1,
                                col=(exc.offset or 0) + 1,
                                rule_id="parse-error",
                                message=f"syntax error: {exc.msg}",
                                severity=Severity.ERROR))
        return findings, 0, True, None
    module = module_path_for(file_path)
    ctx = FileContext(path=file_path, source=source, tree=tree,
                      module=module)
    index = SuppressionIndex.scan(source)
    for rule in ast_rules:
        for finding in rule.check_file(ctx):
            if index.suppresses(finding):
                suppressed += 1
            else:
                findings.append(finding)
    summary = None
    if need_summary:
        summary = extract_summary(str(file_path), source, tree,
                                  module)
    return findings, suppressed, True, summary


# -- worker-pool plumbing (phase 1 parallelism) ----------------------
#
# Workers rebuild the rule objects from the registry by id (rule
# instances are not worth shipping); results are plain frozen
# dataclasses, cheap to pickle back.

_POOL_RULES: list[AstRule] = []
_POOL_NEED_SUMMARY = False


def _pool_init(rule_ids: list[str], need_summary: bool) -> None:
    global _POOL_RULES, _POOL_NEED_SUMMARY
    rules = build_rules(rule_ids)
    _POOL_RULES = [rule for rule in rules
                   if isinstance(rule, AstRule)]
    _POOL_NEED_SUMMARY = need_summary


def _pool_analyze(path_str: str) -> tuple[
        str, list[Finding], int, bool, ModuleSummary | None]:
    findings, suppressed, parsed, summary = _analyze_one(
        Path(path_str), _POOL_RULES, _POOL_NEED_SUMMARY)
    return path_str, findings, suppressed, parsed, summary


def _run_phase1_parallel(
        pending: list[Path], ast_rule_ids: list[str],
        need_summary: bool, workers: int,
) -> list[tuple[str, list[Finding], int, bool,
                ModuleSummary | None]] | None:
    """Parse ``pending`` in a process pool; None on pool failure."""
    from concurrent.futures import ProcessPoolExecutor
    chunk = max(1, len(pending) // (workers * 4))
    try:
        with ProcessPoolExecutor(
                max_workers=workers, initializer=_pool_init,
                initargs=(ast_rule_ids, need_summary)) as pool:
            return list(pool.map(_pool_analyze,
                                 [str(p) for p in pending],
                                 chunksize=chunk))
    except (OSError, ValueError):
        # No usable worker pool (restricted sandbox, missing /dev/shm
        # ...) — phase 1 falls back to the serial path.
        return None


def _crossfile_module_key(
        signature: str, model: ProjectModel, module: str,
        crossfile_rules: Sequence[CrossFileRule]) -> str:
    """Cache key of one module's cross-file verdict.

    The key covers the module's source path: cached findings carry
    that path, and their suppressions are re-read from it, so a
    verdict serves only the checkout that produced it.
    """
    digest = hashlib.sha256()
    digest.update(signature.encode() or b"nosig")
    digest.update(b"\0")
    digest.update(model.summaries[module].path.encode())
    digest.update(b"\0")
    digest.update(model.deep_digest(module).encode())
    for rule in crossfile_rules:
        digest.update(b"\0")
        digest.update(f"{rule.rule_id}:{rule.version}".encode())
        extra = rule.module_key_extra(model, module)
        if extra:
            digest.update(b":")
            digest.update(extra.encode())
    return digest.hexdigest()


def _filter_crossfile(findings: Iterable[Finding]
                      ) -> tuple[list[Finding], int]:
    """Apply in-source suppressions to cross-file findings.

    Cross-file findings are produced from summaries, after the
    per-file suppression pass — so their files' directives are
    re-read here (only files that actually have findings, a handful).
    """
    kept: list[Finding] = []
    suppressed = 0
    indexes: dict[str, SuppressionIndex] = {}
    for finding in findings:
        index = indexes.get(finding.path)
        if index is None:
            try:
                source = Path(finding.path).read_text(
                    encoding="utf-8")
            except (OSError, UnicodeDecodeError):
                source = ""
            index = SuppressionIndex.scan(source)
            indexes[finding.path] = index
        if index.suppresses(finding):
            suppressed += 1
        else:
            kept.append(finding)
    return kept, suppressed


def lint_paths(paths: Sequence[Path | str],
               rules: Sequence[Rule] | None = None,
               select: Sequence[str] | None = None,
               root: Path | None = None,
               cache: ResultCache | None = None,
               jobs: int | None = None,
               baseline: Baseline | None = None) -> RunResult:
    """Lint ``paths`` and return the surviving findings, sorted.

    ``rules`` overrides the registry (used by tests); ``select``
    narrows the registry to the named rule ids; ``root`` re-anchors
    finding paths relative to a directory; ``cache`` reuses per-file
    and per-module results (see :mod:`.cache`); ``jobs`` parses
    phase 1 in that many worker processes (0 = one per CPU, None/1 =
    serial); ``baseline`` grandfathers previously recorded findings —
    only findings *new* relative to it survive into the result.
    Cached findings carry engine-native paths — re-anchoring happens
    downstream of the cache, so hits and misses render identically.
    """
    active = list(rules) if rules is not None else build_rules(select)
    files = discover_files(Path(p) for p in paths)
    result = RunResult(rule_ids=[rule.rule_id for rule in active])
    ast_rules = [rule for rule in active if isinstance(rule, AstRule)]
    crossfile_rules = sorted(
        (rule for rule in active if isinstance(rule, CrossFileRule)),
        key=lambda rule: rule.rule_id)
    project_rules = [rule for rule in active
                     if isinstance(rule, ProjectRule)]
    need_summary = bool(crossfile_rules)
    if rules is not None:
        # Ad-hoc rule objects (tests) have no stable signature.
        cache = None
    signature = (rules_signature((rule.rule_id, rule.version)
                                 for rule in active)
                 if cache is not None else "")

    raw: list[Finding] = []
    suppressed = 0
    summaries: dict[str, ModuleSummary] = {}
    reanalyzed: set[str] = set()
    pending: list[Path] = []

    # Phase 1 — per-file: serve from cache, collect the rest.
    for file_path in files:
        cached = (cache.get(file_path, signature,
                            need_summary=need_summary)
                  if cache is not None else None)
        if cached is not None:
            result.files_checked += 1
            raw.extend(cached.findings)
            suppressed += cached.suppressed
            if cached.summary is not None:
                summaries.setdefault(cached.summary.module,
                                     cached.summary)
            continue
        pending.append(file_path)

    workers = (os.cpu_count() or 1) if jobs == 0 else (jobs or 1)
    outcomes = None
    if workers > 1 and rules is None \
            and len(pending) >= _PARALLEL_THRESHOLD:
        outcomes = _run_phase1_parallel(
            pending, [rule.rule_id for rule in ast_rules],
            need_summary, workers)
    if outcomes is None:
        outcomes = []
        for file_path in pending:
            findings, file_suppressed, parsed, summary = \
                _analyze_one(file_path, ast_rules, need_summary)
            outcomes.append((str(file_path), findings,
                             file_suppressed, parsed, summary))

    for path_str, findings, file_suppressed, parsed, summary \
            in outcomes:
        if parsed:
            result.files_checked += 1
            if cache is not None:
                cache.put(Path(path_str), signature, findings,
                          file_suppressed, summary)
        raw.extend(findings)
        suppressed += file_suppressed
        if summary is not None:
            summaries.setdefault(summary.module, summary)
            reanalyzed.add(summary.module)

    # Phase 2 — cross-file rules over the project model.
    if crossfile_rules:
        model = ProjectModel(summaries)
        crossfile_findings: list[Finding] = []
        for module in model.modules():
            key = _crossfile_module_key(signature, model, module,
                                        crossfile_rules)
            cached_findings = (cache.get_crossfile(module, key)
                               if cache is not None else None)
            if cached_findings is None:
                fresh: list[Finding] = []
                for rule in crossfile_rules:
                    fresh.extend(rule.check_module(
                        model, model.summaries[module]))
                if cache is not None:
                    cache.put_crossfile(module, key, fresh)
                reanalyzed.add(module)
                cached_findings = fresh
            crossfile_findings.extend(cached_findings)
        for rule in crossfile_rules:
            crossfile_findings.extend(rule.check_model(model))
        kept, crossfile_suppressed = _filter_crossfile(
            crossfile_findings)
        raw.extend(kept)
        suppressed += crossfile_suppressed

    for rule in project_rules:
        raw.extend(rule.check_project(files))
    if cache is not None:
        cache.save()

    if root is not None:
        raw = [finding.relative_to(root) for finding in raw]
    result.findings = sorted(raw)
    result.suppressed = suppressed
    result.reanalyzed = sorted(reanalyzed)
    if baseline is not None:
        result.findings, result.baselined = \
            baseline.apply(result.findings)
    return result
