"""Concurrency rules (CDL02x).

The repo mixes a thread-pool executor, a threaded service layer, and an
asyncio cluster. The three hazards worth automating:

* **lock-order inversion** (CDL020) — a cycle in the project-wide
  lock-acquisition graph built by :mod:`..lockgraph`, plus the direct
  form: lexically re-acquiring a non-reentrant lock already held;
* **unguarded shared mutation** (CDL021) — an attribute a class itself
  treats as lock-guarded (written under ``with self._lock`` somewhere)
  being written elsewhere without any of the instance's locks held;
* **blocking calls in async bodies** (CDL022) — ``time.sleep``,
  synchronous subprocess/socket/sqlite operations lexically inside an
  ``async def``, which stall the whole event loop. Nested synchronous
  ``def``/``lambda`` bodies are exempt: that is exactly the
  ``run_in_executor`` pattern.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from ..dataflow import ASYNC_LOCK, LOCK, classify
from ..diagnostics import Diagnostic
from ..engine import ModuleContext, Project
from ..lockgraph import LockGraph
from . import ModuleRule, ProjectRule

#: Where the lock graph is built: every zone that shares threading
#: locks across call boundaries.
_LOCK_GRAPH_ZONES = (
    "src/repro/core",
    "src/repro/service",
    "src/repro/cluster",
    "src/repro/cache",
    "src/repro/obs",
    "src/repro/llm",
    "src/repro/sqlengine",
)

#: Calls that block the calling thread — poison inside an event loop.
_BLOCKING_CALLS = frozenset({
    "time.sleep",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.getoutput",
    "os.system", "os.waitpid",
    "socket.create_connection", "socket.getaddrinfo",
    "sqlite3.connect",
    "select.select",
    "urllib.request.urlopen",
    "requests.get", "requests.post", "requests.put", "requests.delete",
    "requests.request",
})


class LockOrderRule(ProjectRule):
    """CDL020: lock-order inversions and direct re-acquisition."""

    code = "CDL020"
    name = "lock-order"

    def check_project(self, project: Project) -> Iterable[Diagnostic]:
        scoped = Project(
            repo_root=project.repo_root,
            modules=[
                ctx for ctx in project.modules
                if ctx.in_dir(*_LOCK_GRAPH_ZONES)
            ],
            include_showcase=False,
        )
        if not scoped.modules:
            return
        graph = LockGraph(scoped)
        for lock, site in graph.self_deadlocks():
            yield Diagnostic(
                code=self.code,
                path=site.path,
                line=site.line,
                message=(
                    f"non-reentrant lock {lock} re-acquired while "
                    "already held — this deadlocks a single thread; "
                    "use threading.RLock or restructure"
                ),
                context=site.context,
            )
        for cycle in graph.cycles():
            order = " -> ".join(
                [edge.held.qualified for edge in cycle]
                + [cycle[0].held.qualified]
            )
            witness = cycle[0].site
            others = "; ".join(
                f"{e.held.qualified} -> {e.acquired.qualified} at "
                f"{e.site.path}:{e.site.line}"
                for e in cycle[1:]
            )
            message = (
                f"lock-order inversion: cycle {order} — two threads "
                "taking these locks in opposite orders can deadlock"
            )
            if others:
                message += f" (opposing acquisitions: {others})"
            yield Diagnostic(
                code=self.code,
                path=witness.path,
                line=witness.line,
                message=message,
                context=witness.context,
            )


class UnguardedMutationRule(ModuleRule):
    """CDL021: lock-guarded attribute written without the lock."""

    code = "CDL021"
    name = "unguarded-mutation"

    def check(self, ctx: ModuleContext) -> Iterable[Diagnostic]:
        if not ctx.in_library:
            return
        for node in ctx.tree.body:
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx, node)

    def _check_class(
        self, ctx: ModuleContext, cls: ast.ClassDef
    ) -> Iterator[Diagnostic]:
        lock_attrs = self._lock_attrs(ctx, cls)
        if not lock_attrs:
            return
        methods = [
            item for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        # Pass 1: which attrs does this class itself guard?
        guarded: set[str] = set()
        writes: list[tuple[str, ast.AST, bool]] = []  # (attr, node, locked)
        for method in methods:
            if method.name == "__init__":
                continue  # publication happens-before any sharing
            for attr, node, locked in self._walk_writes(
                method, lock_attrs
            ):
                writes.append((attr, node, locked))
                if locked:
                    guarded.add(attr)
        guarded -= lock_attrs
        # Pass 2: writes of guarded attrs outside any lock.
        for attr, node, locked in writes:
            if attr in guarded and not locked:
                yield ctx.diagnostic(
                    self.code, node,
                    f"self.{attr} is written under the lock elsewhere in "
                    f"{cls.name} but mutated here without it — either "
                    "take the lock or document why this site is safe",
                )

    @staticmethod
    def _lock_attrs(ctx: ModuleContext, cls: ast.ClassDef) -> set[str]:
        """Attrs holding *threading* locks (asyncio locks serialise via
        the event loop; await-context analysis is out of scope)."""
        attrs: set[str] = set()
        for node in ast.walk(cls):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and classify(node.value, ctx.symbols) is LOCK
            ):
                attrs.add(target.attr)
        return attrs

    def _walk_writes(
        self,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
        lock_attrs: set[str],
    ) -> Iterator[tuple[str, ast.AST, bool]]:
        """Yield (attr, node, lock_held) for every ``self.attr`` write."""

        def self_attr(expr: ast.expr) -> str | None:
            if (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
            ):
                return expr.attr
            # self.attr[key] = ... mutates the container in self.attr
            if isinstance(expr, ast.Subscript):
                return self_attr(expr.value)
            return None

        def holds_lock(item: ast.withitem) -> bool:
            expr = item.context_expr
            attr = self_attr(expr)
            return attr in lock_attrs if attr is not None else False

        def walk(node: ast.AST, locked: bool) -> Iterator[
            tuple[str, ast.AST, bool]
        ]:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
                return
            if isinstance(node, (ast.With, ast.AsyncWith)):
                inner = locked or any(holds_lock(i) for i in node.items)
                for child in node.body:
                    yield from walk(child, inner)
                return
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                attr = self_attr(target)
                if attr is not None:
                    yield attr, node, locked
            for child in ast.iter_child_nodes(node):
                yield from walk(child, locked)

        for statement in method.body:
            yield from walk(statement, False)


class AsyncBlockingRule(ModuleRule):
    """CDL022: blocking calls lexically inside ``async def`` bodies."""

    code = "CDL022"
    name = "async-blocking"

    def check(self, ctx: ModuleContext) -> Iterable[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_async(ctx, node)

    def _check_async(
        self, ctx: ModuleContext, func: ast.AsyncFunctionDef
    ) -> Iterator[Diagnostic]:
        def walk(node: ast.AST) -> Iterator[Diagnostic]:
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                return  # sync callables handed to run_in_executor
            if isinstance(node, ast.AsyncFunctionDef) and node is not func:
                return  # analysed as its own async scope
            if isinstance(node, ast.Call):
                qualified = ctx.symbols.qualify(node.func)
                if qualified in _BLOCKING_CALLS:
                    yield ctx.diagnostic(
                        self.code, node,
                        f"{qualified}() blocks the event loop inside "
                        f"async {func.name}() — await the asyncio "
                        "equivalent or push it through run_in_executor "
                        "(# cedarlint: disable=CDL022 to opt out)",
                    )
            for child in ast.iter_child_nodes(node):
                yield from walk(child)

        for statement in func.body:
            yield from walk(statement)


RULES = (LockOrderRule, UnguardedMutationRule, AsyncBlockingRule)
