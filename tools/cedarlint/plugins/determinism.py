"""Determinism rules (CDL01x).

The repo's headline guarantee is byte-identity: parallel == sequential,
cold == warm, traced == untraced, cluster == single-process. Everything
here flags a way Python code silently breaks that — wall clocks in
deterministic zones, the process-global RNG, ``id()`` keys that vary
per run, and unordered set iteration feeding ordered output.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from ..dataflow import SET, scope_bindings
from ..diagnostics import Diagnostic
from ..engine import ModuleContext
from . import ModuleRule

#: Zones whose outputs are asserted byte-identical across runs; a
#: wall-clock read here either flows into a report (bug) or belongs
#: behind an injected clock (like repro/obs/ and llm/resilience do).
_DETERMINISTIC_ZONES = ("src/repro/core", "src/repro/sqlengine")

_WALL_CLOCKS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Module-level functions on ``random`` that read or mutate the shared
#: global generator (``random.Random`` — constructing an instance — is
#: CDL011's business, and instance methods are fine).
_GLOBAL_RANDOM = frozenset({
    "seed", "random", "randint", "randrange", "randbytes", "choice",
    "choices", "shuffle", "sample", "uniform", "triangular", "gauss",
    "normalvariate", "lognormvariate", "expovariate", "vonmisesvariate",
    "gammavariate", "betavariate", "paretovariate", "weibullvariate",
    "getrandbits", "setstate",
})

#: Mapping/set methods whose first argument is a key.
_KEYED_METHODS = frozenset(
    {"add", "discard", "remove", "get", "setdefault", "pop"}
)

#: Builtins that materialise their argument's iteration order.
_ORDERING_CALLS = frozenset({"list", "tuple", "enumerate"})


def _walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk ``scope`` without descending into nested function/class
    bodies (each is analysed as its own scope)."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            stack.extend(ast.iter_child_nodes(node))


def _scopes(tree: ast.Module) -> Iterator[ast.AST]:
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


class WallClockRule(ModuleRule):
    """CDL010: wall-clock reads in deterministic zones."""

    code = "CDL010"
    name = "wall-clock"

    def check(self, ctx: ModuleContext) -> Iterable[Diagnostic]:
        if not ctx.in_dir(*_DETERMINISTIC_ZONES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = ctx.symbols.qualify(node.func)
            if qualified in _WALL_CLOCKS:
                yield ctx.diagnostic(
                    self.code, node,
                    f"{qualified}() read in deterministic code "
                    f"({ctx.relative.parts[2]}/) — inject a clock "
                    "callable instead so byte-identity tests can pin it",
                )


class UnseededRandomRule(ModuleRule):
    """CDL011: ``random.Random()`` with no seed (legacy invariant 2)."""

    code = "CDL011"
    name = "unseeded-random"

    def check(self, ctx: ModuleContext) -> Iterable[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and not node.args and not node.keywords
                and ctx.symbols.qualify(node.func) == "random.Random"
            ):
                yield ctx.diagnostic(
                    self.code, node,
                    "random.Random() without a seed breaks reproducible "
                    "transcripts — pass an explicit seed "
                    "(# cedarlint: disable=CDL011 to opt out)",
                )


class GlobalRandomRule(ModuleRule):
    """CDL012: library code touching the process-global RNG."""

    code = "CDL012"
    name = "global-random"

    def check(self, ctx: ModuleContext) -> Iterable[Diagnostic]:
        if not ctx.in_library:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = ctx.symbols.qualify(node.func)
            if (
                qualified is not None
                and qualified.startswith("random.")
                and qualified.split(".", 1)[1] in _GLOBAL_RANDOM
            ):
                yield ctx.diagnostic(
                    self.code, node,
                    f"{qualified}() uses the shared global RNG — library "
                    "code must draw from an explicitly seeded "
                    "random.Random instance (parallel workers would "
                    "otherwise interleave draws nondeterministically)",
                )


class IdKeyRule(ModuleRule):
    """CDL013: ``id()`` used as a mapping key or set element.

    ``id()`` values are allocation addresses: stable within a process,
    different across runs. Keying durable or serialised state on them
    silently breaks cold==warm and cluster==single-process identities;
    the pattern is only sound for process-local interning, which a
    pragma should document.
    """

    code = "CDL013"
    name = "id-key"

    def check(self, ctx: ModuleContext) -> Iterable[Diagnostic]:
        if not ctx.in_library:
            return
        for node in ast.walk(ctx.tree):
            for key_expr in self._key_positions(node):
                call = self._id_call(key_expr, ctx)
                if call is not None:
                    yield ctx.diagnostic(
                        self.code, call,
                        "id()-derived value used as a key — ids are "
                        "per-process addresses; key on content "
                        "fingerprints for anything that outlives the "
                        "process (# cedarlint: disable=CDL013 to opt out)",
                    )

    @staticmethod
    def _key_positions(node: ast.AST) -> Iterator[ast.expr]:
        if isinstance(node, ast.Dict):
            yield from (k for k in node.keys if k is not None)
        elif isinstance(node, ast.Set):
            yield from node.elts
        elif isinstance(node, ast.SetComp):
            yield node.elt
        elif isinstance(node, ast.DictComp):
            yield node.key
        elif isinstance(node, ast.Subscript):
            yield node.slice
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _KEYED_METHODS
            and node.args
        ):
            yield node.args[0]

    @staticmethod
    def _id_call(expr: ast.expr, ctx: ModuleContext) -> ast.Call | None:
        for node in ast.walk(expr):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id"
                and ctx.symbols.is_builtin("id")
                and len(node.args) == 1
            ):
                return node
        return None


class SetIterationRule(ModuleRule):
    """CDL014: unordered set iteration materialised into ordered output.

    ``list({...})`` / ``tuple(a_set)`` / ``"".join(a_set)`` and list
    comprehensions over sets produce an ordering that depends on hash
    seeding and insertion history. Anything rendered, serialised, or
    compared byte-wise must go through ``sorted()`` first.
    """

    code = "CDL014"
    name = "set-iteration"

    def check(self, ctx: ModuleContext) -> Iterable[Diagnostic]:
        if not ctx.in_library:
            return
        for scope in _scopes(ctx.tree):
            bindings = scope_bindings(scope, ctx.symbols)

            def is_set(expr: ast.expr) -> bool:
                if isinstance(expr, (ast.Set, ast.SetComp)):
                    return True
                if (
                    isinstance(expr, ast.Call)
                    and isinstance(expr.func, ast.Name)
                    and expr.func.id in ("set", "frozenset")
                    and ctx.symbols.is_builtin(expr.func.id)
                ):
                    return True
                return (
                    isinstance(expr, ast.Name)
                    and bindings.get(expr.id) is SET
                )

            for node in _walk_scope(scope):
                target: ast.expr | None = None
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in _ORDERING_CALLS
                    and ctx.symbols.is_builtin(node.func.id)
                    and len(node.args) == 1
                ):
                    target = node.args[0]
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                    and len(node.args) == 1
                ):
                    target = node.args[0]
                elif isinstance(node, ast.ListComp):
                    target = node.generators[0].iter
                if target is not None and is_set(target):
                    yield ctx.diagnostic(
                        self.code, node,
                        "set iteration feeds ordered output — wrap the "
                        "set in sorted() so the ordering is "
                        "content-defined, not hash-defined",
                    )


class ObsClockRule(ModuleRule):
    """CDL015: clock calls / random imports inside ``repro/obs/``.

    Ports legacy invariant 3 and widens it: *any* resolvable call into
    the ``time`` module is banned (so ``from time import perf_counter``
    no longer slips through), and ``random`` may not be imported at
    all. Span identity must stay structural; wall times flow only
    through the injected ``clock`` callable. Unsuppressible: there is
    no legitimate exception.
    """

    code = "CDL015"
    name = "obs-clock"

    def check(self, ctx: ModuleContext) -> Iterable[Diagnostic]:
        if not ctx.in_obs:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                qualified = ctx.symbols.qualify(node.func)
                if qualified is not None and (
                    qualified == "time" or qualified.startswith("time.")
                ):
                    yield ctx.diagnostic(
                        self.code, node,
                        f"{qualified}() called inside repro/obs/ — wall "
                        "times must come from the injected clock (pass "
                        "time functions by reference only)",
                    )
            elif isinstance(node, ast.Import):
                if any(a.name.split(".")[0] == "random"
                       for a in node.names):
                    yield ctx.diagnostic(
                        self.code, node,
                        "random imported inside repro/obs/ — span "
                        "identity must be structural, never RNG-derived",
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.split(".")[0] == "random":
                    yield ctx.diagnostic(
                        self.code, node,
                        "random imported inside repro/obs/ — span "
                        "identity must be structural, never RNG-derived",
                    )


RULES = (
    WallClockRule,
    UnseededRandomRule,
    GlobalRandomRule,
    IdKeyRule,
    SetIterationRule,
    ObsClockRule,
)
