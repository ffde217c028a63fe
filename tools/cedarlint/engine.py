"""The cedarlint driver: collect, parse, run rules, suppress, baseline.

The engine is path-zone aware: rules decide applicability from the
*repo-relative* location of a file (``src/repro/obs/`` gets the clock
ban, ``examples/`` only the surface rule, …), so the whole analysis can
be pointed at a fixture tree in tests by passing a different
``repo_root``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Iterable

from .baseline import Baseline
from .diagnostics import CODES, Diagnostic
from .plugins import ModuleRule, ProjectRule, all_rules
from .pragmas import suppresses
from .symbols import SymbolTable

#: Directories never scanned.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


@dataclass
class LintConfig:
    """One run's inputs."""

    repo_root: Path
    roots: list[Path]
    select: frozenset[str] | None = None     # None = every code
    #: Audit examples/ + README/docs snippets (CDL033). Off for
    #: fixture runs that have no showcase tree.
    include_showcase: bool = True
    baseline: Baseline | None = None


class ModuleContext:
    """Everything a :class:`ModuleRule` needs about one parsed file."""

    def __init__(self, path: Path, relative: PurePosixPath,
                 source: str, tree: ast.Module) -> None:
        self.path = path
        self.relative = relative
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.module = self._module_name(relative)
        self.symbols = SymbolTable(tree, module=self.module)

    @staticmethod
    def _module_name(relative: PurePosixPath) -> str | None:
        parts = relative.parts
        if parts[:1] != ("src",) or not parts[-1].endswith(".py"):
            return None
        dotted = list(parts[1:-1])
        leaf = parts[-1][: -len(".py")]
        if leaf != "__init__":
            dotted.append(leaf)
        return ".".join(dotted) if dotted else None

    # -- zones ---------------------------------------------------------------

    def in_dir(self, *prefixes: str) -> bool:
        return any(
            self.relative.is_relative_to(prefix) for prefix in prefixes
        )

    @property
    def in_library(self) -> bool:
        """Inside ``src/`` — the zone where determinism is load-bearing."""
        return self.in_dir("src")

    @property
    def in_obs(self) -> bool:
        return self.in_dir("src/repro/obs")

    # -- emission ------------------------------------------------------------

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def diagnostic(self, code: str, node: ast.AST | int,
                   message: str) -> Diagnostic:
        lineno = node if isinstance(node, int) else node.lineno
        return Diagnostic(
            code=code,
            path=str(self.relative),
            line=lineno,
            message=message,
            context=self.line_text(lineno).strip(),
        )


@dataclass
class Project:
    """Whole-program view handed to :class:`ProjectRule`s."""

    repo_root: Path
    modules: list[ModuleContext]
    include_showcase: bool = True

    def module_by_name(self, dotted: str) -> ModuleContext | None:
        for ctx in self.modules:
            if ctx.module == dotted:
                return ctx
        return None


@dataclass
class LintResult:
    """A finished run: findings split by baseline status."""

    findings: list[Diagnostic] = field(default_factory=list)
    new: list[Diagnostic] = field(default_factory=list)
    baselined: list[Diagnostic] = field(default_factory=list)
    suppressed: int = 0
    files: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.new else 0


def collect_files(roots: Iterable[Path]) -> list[Path]:
    files: list[Path] = []
    for root in roots:
        if root.is_dir():
            files.extend(
                path for path in sorted(root.rglob("*.py"))
                if not any(part in _SKIP_DIRS for part in path.parts)
            )
        elif root.suffix == ".py":
            files.append(root)
    return files


def parse_modules(
    config: LintConfig,
) -> tuple[list[ModuleContext], list[Diagnostic]]:
    contexts: list[ModuleContext] = []
    broken: list[Diagnostic] = []
    for path in collect_files(config.roots):
        relative = PurePosixPath(
            path.resolve().relative_to(config.repo_root.resolve())
        )
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(relative))
        except SyntaxError as error:
            broken.append(Diagnostic(
                code="CDL001",
                path=str(relative),
                line=error.lineno or 1,
                message=f"syntax error: {error.msg}",
            ))
            continue
        contexts.append(ModuleContext(path, relative, source, tree))
    return contexts, broken


def run_lint(config: LintConfig) -> LintResult:
    """The whole pipeline: parse -> rules -> pragmas -> baseline."""
    contexts, findings = parse_modules(config)
    project = Project(
        repo_root=config.repo_root,
        modules=contexts,
        include_showcase=config.include_showcase,
    )
    for rule in all_rules():
        if config.select is not None and rule.code not in config.select:
            continue
        if isinstance(rule, ModuleRule):
            for ctx in contexts:
                findings.extend(rule.check(ctx))
        elif isinstance(rule, ProjectRule):
            findings.extend(rule.check_project(project))

    result = LintResult(files=len(contexts))
    sources = {str(ctx.relative): ctx for ctx in contexts}
    kept: list[Diagnostic] = []
    for diagnostic in sorted(findings, key=lambda d: d.sort_key):
        if CODES[diagnostic.code].suppressible:
            ctx = sources.get(diagnostic.path)
            line = (ctx.line_text(diagnostic.line)
                    if ctx is not None else "")
            if suppresses(line, diagnostic.code):
                result.suppressed += 1
                continue
        kept.append(diagnostic)
    result.findings = kept

    if config.baseline is not None:
        result.new, result.baselined = config.baseline.split(kept)
    else:
        result.new = list(kept)
    return result
