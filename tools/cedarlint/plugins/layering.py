"""Layering rules (CDL03x) — the six legacy invariants' ownership half.

These port ``tools/check_invariants.py``'s layer boundaries:

* CDL030 — no direct ``Engine()`` construction outside sqlengine/
  (legacy invariant 1);
* CDL031 — sqlite imports only inside ``src/repro/cache/`` (invariant 5);
* CDL032 — ``column_array`` / ``_arrays`` access only inside
  ``src/repro/sqlengine/`` and its tests (invariant 6);
* CDL033 — examples and fenced docs snippets import only ``__all__``
  names from ``repro`` packages (invariant 4).

(The behavioural half of the legacy set — seedless ``random.Random()``
and the obs clock ban — lives in the determinism family as CDL011 and
CDL015.)
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from ..diagnostics import Diagnostic
from ..engine import ModuleContext, Project
from . import ModuleRule, ProjectRule

#: Directories whose files may construct Engine() directly: the owning
#: package, plus tests/benchmarks/tools that exercise configurations on
#: purpose.
_ENGINE_EXEMPT = ("src/repro/sqlengine", "tests", "benchmarks", "tools")

#: The one package allowed to open sqlite connections.
_SQLITE_OWNER = "src/repro/cache"

#: Owners of the columnar storage layout.
_COLUMN_ARRAY_OWNERS = ("src/repro/sqlengine", "tests/sqlengine")
_COLUMN_ARRAY_ATTRS = ("column_array", "_arrays")

_FENCED_PYTHON = re.compile(r"```python\n(.*?)```", re.DOTALL)


class EngineConstructionRule(ModuleRule):
    """CDL030: direct ``Engine()`` construction outside sqlengine/."""

    code = "CDL030"
    name = "engine-construction"

    def check(self, ctx: ModuleContext) -> Iterable[Diagnostic]:
        if ctx.in_dir(*_ENGINE_EXEMPT):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            named = (
                isinstance(func, ast.Name) and func.id == "Engine"
            ) or (
                isinstance(func, ast.Attribute) and func.attr == "Engine"
            )
            if named:
                yield ctx.diagnostic(
                    self.code, node,
                    "direct Engine() construction outside sqlengine/ — "
                    "use engine_for(db) so queries share the "
                    "process-wide caches (# cedarlint: disable=CDL030 "
                    "to opt out)",
                )


class SqliteOwnershipRule(ModuleRule):
    """CDL031: sqlite stays behind ``src/repro/cache/``."""

    code = "CDL031"
    name = "sqlite-ownership"

    def check(self, ctx: ModuleContext) -> Iterable[Diagnostic]:
        if ctx.in_dir(_SQLITE_OWNER):
            return
        message = (
            "sqlite used outside src/repro/cache/ — the persistent tier "
            "owns connection, quarantine, and eviction policy "
            "(# cedarlint: disable=CDL031 to opt out)"
        )
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                hit = any(
                    alias.name.split(".")[0] == "sqlite3"
                    for alias in node.names
                )
            elif isinstance(node, ast.ImportFrom):
                hit = bool(node.module) and (
                    node.module.split(".")[0] == "sqlite3"
                )
            else:
                continue
            if hit:
                yield ctx.diagnostic(self.code, node, message)


class ColumnArrayRule(ModuleRule):
    """CDL032: columnar storage stays behind the sqlengine package."""

    code = "CDL032"
    name = "column-array"

    def check(self, ctx: ModuleContext) -> Iterable[Diagnostic]:
        if ctx.in_dir(*_COLUMN_ARRAY_OWNERS):
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in _COLUMN_ARRAY_ATTRS
            ):
                yield ctx.diagnostic(
                    self.code, node,
                    f"{node.attr} accessed outside src/repro/sqlengine/ "
                    "— column arrays are internal storage; consume rows "
                    "or column_values instead "
                    "(# cedarlint: disable=CDL032 to opt out)",
                )


class PublicSurfaceRule(ProjectRule):
    """CDL033: showcased code imports only the public surface.

    A project rule: it audits files *outside* the scanned roots —
    ``examples/*.py`` plus the parseable ```` ```python ```` blocks of
    ``README.md`` and ``docs/*.md`` — against ``__all__`` declarations
    parsed (not imported) from every ``src/repro/**/__init__.py``.
    """

    code = "CDL033"
    name = "public-surface"

    def check_project(self, project: Project) -> Iterable[Diagnostic]:
        if not project.include_showcase:
            return
        root = project.repo_root
        surface = self._public_surface(project)
        examples = root / "examples"
        if examples.is_dir():
            for path in sorted(examples.glob("*.py")):
                relative = str(path.relative_to(root))
                try:
                    tree = ast.parse(path.read_text(encoding="utf-8"))
                except SyntaxError:
                    continue  # CDL001 belongs to the parse pass
                yield from self._surface_diagnostics(
                    relative, tree, 0, surface
                )
        docs = [root / "README.md"]
        docs.extend(sorted((root / "docs").glob("*.md")))
        for path in docs:
            if not path.is_file():
                continue
            relative = str(path.relative_to(root))
            text = path.read_text(encoding="utf-8")
            for match in _FENCED_PYTHON.finditer(text):
                try:
                    tree = ast.parse(match.group(1))
                except SyntaxError:
                    continue  # prose-ish snippet (ellipses etc.)
                line_base = text[: match.start(1)].count("\n")
                yield from self._surface_diagnostics(
                    relative, tree, line_base, surface
                )

    @staticmethod
    def _public_surface(project: Project) -> dict[str, set[str] | None]:
        """``__all__`` per ``repro`` package, parsed without importing."""
        surface: dict[str, set[str] | None] = {}
        package_root = project.repo_root / "src" / "repro"
        for init in package_root.rglob("__init__.py"):
            module = ".".join(
                init.parent.relative_to(project.repo_root / "src").parts
            )
            try:
                tree = ast.parse(init.read_text(encoding="utf-8"))
            except SyntaxError:
                surface[module] = None
                continue
            names: set[str] | None = None
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets
                ):
                    try:
                        names = set(ast.literal_eval(node.value))
                    except ValueError:
                        names = None
            surface[module] = names
        return surface

    def _surface_diagnostics(
        self,
        where: str,
        tree: ast.AST,
        line_base: int,
        surface: dict[str, set[str] | None],
    ) -> Iterator[Diagnostic]:
        def emit(node: ast.AST, message: str) -> Diagnostic:
            return Diagnostic(
                code=self.code,
                path=where,
                line=line_base + node.lineno,
                message=message,
            )

        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level:
                continue
            module = node.module or ""
            if module.split(".")[0] != "repro":
                continue
            if module not in surface:
                yield emit(
                    node,
                    f"import from {module} — examples and docs must "
                    "import from a repro package, not a deep module",
                )
                continue
            exported = surface[module]
            if exported is None:
                yield emit(
                    node,
                    f"{module} has no parseable __all__ — give the "
                    "package an explicit public surface",
                )
                continue
            for alias in node.names:
                if alias.name != "*" and alias.name not in exported:
                    yield emit(
                        node,
                        f"{module}.{alias.name} is not in "
                        f"{module}.__all__ — export it or drop it from "
                        "showcased code",
                    )


RULES = (
    EngineConstructionRule,
    SqliteOwnershipRule,
    ColumnArrayRule,
    PublicSurfaceRule,
)
