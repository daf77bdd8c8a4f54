"""The shipped invariant rules.

Each rule machine-checks one correctness contract the stack's proofs and
tests rely on:

========  ==================================================================
TOL001    No bare float tolerance/epsilon literals outside ``repro.robust``
          (the one scale-aware :class:`~repro.robust.Tolerance` policy).
DET001    No unseeded RNG construction or legacy global-RNG draws — the
          bit-identical-results contract of the sampler and the workloads.
ASYNC001  No blocking calls lexically inside ``async def`` in
          ``repro.serve`` — blocking work must route through the worker
          pool or the p99 story dies on the event loop.  An engine call
          passing the literal ``cached_only=True`` is a cache peek and
          may stay on the loop.
OBS001    Every metric-name literal passed to a Counter/Gauge/Histogram
          accessor must appear in the canonical catalogue
          (``repro.obs.names``) — one canonical dotted name per number.
OBS002    ``span.set(...)`` arguments must be deterministic; wall-clock,
          pids, ``id()``/``hash()`` and dict-order expressions belong in
          ``span.note(...)`` (the volatile channel).
EXC001    No silent exception swallowing: ``except: pass`` bodies and
          broad ``except Exception`` handlers must re-raise, log, record,
          or carry an annotated suppression.
========  ==================================================================

Scopes differ per rule (tests are free to write epsilons; the catalogue
only governs library code); each rule's ``applies_to`` encodes its scope
and the guide documents it.
"""

from __future__ import annotations

import ast
import tokenize
from pathlib import Path
from typing import Iterator, Sequence

from .diagnostics import Diagnostic
from .engine import FileContext, Rule

__all__ = [
    "MetricCatalogue",
    "ToleranceLiteralRule",
    "UnseededRandomRule",
    "AsyncBlockingRule",
    "MetricNameRule",
    "VolatileSpanAttrRule",
    "ExceptionSwallowRule",
    "DEFAULT_RULES",
    "default_rules",
]

#: Repository root (``tools/analyze/rules.py`` -> two levels up).
_REPO_ROOT = Path(__file__).resolve().parents[2]

#: Default location of the canonical metric-name catalogue module.
_CATALOGUE_PATH = _REPO_ROOT / "src" / "repro" / "obs" / "names.py"


def dotted_name(node: ast.expr) -> str | None:
    """Render ``a.b.c`` attribute/name chains; ``None`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# --------------------------------------------------------------------------- #
# TOL001 — tolerance literals live in repro.robust only
# --------------------------------------------------------------------------- #
class ToleranceLiteralRule(Rule):
    """Negative-exponent numeric literals are ad-hoc epsilons; ban them.

    Token-based (like the tokenize test it supersedes), so docstrings and
    comments are free to *mention* tolerances: only ``NUMBER`` tokens
    written with a negative exponent (``1e-9``, ``2.5E-12``) fire.
    """

    id = "TOL001"
    title = "no tolerance literals outside repro.robust"
    rationale = (
        "PR 3 unified four ad-hoc epsilons into one scale-aware Tolerance "
        "policy; a stray literal silently forks the numerical contract."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return (
            ctx.in_package("repro")
            and not ctx.in_package("repro", "robust")
            and not ctx.is_test_file()
        )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for token in ctx.tokens:
            if token.type == tokenize.NUMBER and "e-" in token.string.lower():
                yield self.diagnostic(
                    ctx,
                    token.start[0],
                    token.start[1],
                    f"hard-coded tolerance literal {token.string!r}: thread a "
                    "repro.robust.Tolerance policy through instead",
                )


# --------------------------------------------------------------------------- #
# DET001 — determinism: no unseeded RNG
# --------------------------------------------------------------------------- #
#: ``np.random.<fn>`` draws that use the legacy *global* RNG.
_NP_RANDOM_OK = {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64"}

#: Stdlib ``random.<fn>`` calls that are fine (explicit seeding/state).
_STDLIB_RANDOM_OK = {"Random", "seed", "getstate", "setstate", "SystemRandom"}


class UnseededRandomRule(Rule):
    """Unseeded RNG construction and legacy global-RNG draws break replay."""

    id = "DET001"
    title = "no unseeded RNG outside fixtures"
    rationale = (
        "Sampling (PR 5) and workloads (PRs 1/2) promise bit-identical "
        "results for a given seed; one unseeded draw voids the contract."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return not ctx.is_conftest()

    @staticmethod
    def _fixture_spans(tree: ast.AST) -> list[tuple[int, int]]:
        """Line spans of pytest-fixture-decorated functions (exempt)."""
        spans = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    name = dotted_name(target) or ""
                    if name.split(".")[-1] == "fixture":
                        spans.append((node.lineno, node.end_lineno or node.lineno))
                        break
        return spans

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        assert ctx.tree is not None
        exempt = self._fixture_spans(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if any(start <= node.lineno <= end for start, end in exempt):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            message = self._classify(name, node)
            if message is not None:
                yield self.diagnostic(ctx, node.lineno, node.col_offset, message)

    @staticmethod
    def _unseeded(node: ast.Call) -> bool:
        """A constructor call with no arguments (or an explicit ``None``)."""
        args_none = all(
            isinstance(arg, ast.Constant) and arg.value is None for arg in node.args
        )
        kwargs_none = all(
            isinstance(kw.value, ast.Constant) and kw.value.value is None
            for kw in node.keywords
        )
        return (not node.args and not node.keywords) or (args_none and kwargs_none)

    def _classify(self, name: str, node: ast.Call) -> str | None:
        parts = name.split(".")
        # numpy: np.random.rand / numpy.random.shuffle / ... (global RNG).
        if len(parts) == 3 and parts[0] in ("np", "numpy") and parts[1] == "random":
            fn = parts[2]
            if fn in ("default_rng", "SeedSequence"):
                if self._unseeded(node):
                    return (
                        f"unseeded {name}(): pass an explicit seed or spawn from "
                        "a seeded SeedSequence (determinism contract)"
                    )
                return None
            if fn in _NP_RANDOM_OK:
                return None
            return (
                f"{name}() draws from the legacy *global* numpy RNG; use a "
                "seeded np.random.default_rng(seed) generator"
            )
        # bare default_rng imported directly.
        if name in ("default_rng", "SeedSequence") and self._unseeded(node):
            return (
                f"unseeded {name}(): pass an explicit seed or spawn from a "
                "seeded SeedSequence (determinism contract)"
            )
        # stdlib random module.
        if len(parts) == 2 and parts[0] == "random":
            fn = parts[1]
            if fn in _STDLIB_RANDOM_OK:
                if fn in ("Random", "SystemRandom") and self._unseeded(node):
                    return f"unseeded random.{fn}(): pass an explicit seed"
                return None
            return (
                f"{name}() uses the process-global stdlib RNG; use a seeded "
                "random.Random(seed) (or np.random.default_rng(seed))"
            )
        return None


# --------------------------------------------------------------------------- #
# ASYNC001 — no blocking calls inside async def (repro.serve)
# --------------------------------------------------------------------------- #
#: Exact dotted names of known-blocking calls.
_BLOCKING_CALLS = {
    "time.sleep": "time.sleep() stalls the event loop",
    "open": "synchronous file I/O blocks the event loop",
    "io.open": "synchronous file I/O blocks the event loop",
    "os.open": "synchronous file I/O blocks the event loop",
    "socket.socket": "raw sockets are synchronous; use asyncio streams",
    "socket.create_connection": "synchronous connect blocks the event loop",
    "urllib.request.urlopen": "synchronous HTTP blocks the event loop",
    "subprocess.run": "synchronous subprocess wait blocks the event loop",
    "subprocess.call": "synchronous subprocess wait blocks the event loop",
    "subprocess.check_output": "synchronous subprocess wait blocks the event loop",
    "subprocess.check_call": "synchronous subprocess wait blocks the event loop",
}

#: Engine entry points that must never run on the event loop thread.
_ENGINE_BLOCKING_ATTRS = ("query", "query_stream")


class AsyncBlockingRule(Rule):
    """Blocking work inside ``async def`` must route through the pool."""

    id = "ASYNC001"
    title = "no blocking calls inside async def (repro.serve)"
    rationale = (
        "One blocking call on the event loop stalls every concurrent "
        "request; the serving tier's p99 bar assumes the loop never waits."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_package("repro", "serve")

    @staticmethod
    def _async_body(func: ast.AsyncFunctionDef) -> Iterator[ast.AST]:
        """Walk the async function's lexical body, skipping nested ``def``s.

        Nested *sync* functions execute only when called (usually as
        callbacks on pool threads); nested *async* functions are visited on
        their own by the outer walk.
        """
        stack: list[ast.AST] = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _cache_only(call: ast.Call) -> bool:
        """Whether the call passes the literal ``cached_only=True``.

        ``Engine.query(..., cached_only=True)`` returns a cached answer or
        ``None`` and never computes or waits on the engine lock, so it may
        run on the event loop.  Only the literal counts: a variable could be
        false at run time.
        """
        return any(
            keyword.arg == "cached_only"
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value is True
            for keyword in call.keywords
        )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        assert ctx.tree is not None
        for func in ast.walk(ctx.tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            for node in self._async_body(func):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if name in _BLOCKING_CALLS:
                    yield self.diagnostic(
                        ctx,
                        node.lineno,
                        node.col_offset,
                        f"blocking call {name}() inside 'async def {func.name}': "
                        f"{_BLOCKING_CALLS[name]}; run it on the worker pool",
                    )
                    continue
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _ENGINE_BLOCKING_ATTRS
                    and not self._cache_only(node)
                ):
                    yield self.diagnostic(
                        ctx,
                        node.lineno,
                        node.col_offset,
                        f"direct Engine.{node.func.attr}() call inside 'async def "
                        f"{func.name}' runs blocking engine work on the event "
                        "loop; route it through the worker pool "
                        "(e.g. await self._run_blocking(...))",
                    )


# --------------------------------------------------------------------------- #
# OBS001 — metric names come from the canonical catalogue
# --------------------------------------------------------------------------- #
class MetricCatalogue:
    """The set of canonical metric names, parsed from ``repro/obs/names.py``.

    Loaded statically (AST, no import) so the linter never executes library
    code.  ``names`` holds every exact canonical name; ``prefixes`` holds
    the declared dynamic families (``serve.rejected.*`` spelled as the
    prefix ``"serve.rejected."``) that f-string metric names may extend.
    """

    def __init__(self, names: Sequence[str], prefixes: Sequence[str] = ()) -> None:
        self.names = frozenset(names)
        self.prefixes = tuple(prefixes)

    @classmethod
    def load(cls, path: Path) -> "MetricCatalogue | None":
        """Parse the catalogue module; ``None`` when it does not exist."""
        if not path.is_file():
            return None
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names: list[str] = []
        prefixes: list[str] = []
        #: Module-level ``NAME = "literal"`` bindings, so family tuples may
        #: reference the constants (``(SERVE_TTFA_SECONDS, ...)``).
        env: dict[str, str] = {}
        for node in tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None:
                continue
            target_names = {
                target.id for target in targets if isinstance(target, ast.Name)
            }
            strings = cls._literal_strings(value, env)
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                for target in target_names:
                    env[target] = value.value
            if "DYNAMIC_METRIC_PREFIXES" in target_names:
                prefixes.extend(strings)
            else:
                names.extend(strings)
        return cls(names, prefixes)

    @staticmethod
    def _literal_strings(node: ast.expr, env: dict[str, str]) -> list[str]:
        """Strings inside an assignment value (constants, names, containers)."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return [node.value]
        if isinstance(node, ast.Name) and node.id in env:
            return [env[node.id]]
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out: list[str] = []
            for element in node.elts:
                out.extend(MetricCatalogue._literal_strings(element, env))
            return out
        if isinstance(node, ast.Call) and node.args:
            # frozenset({...}) / tuple((...)) wrappers.
            return MetricCatalogue._literal_strings(node.args[0], env)
        return []


#: Registry accessor method names whose first argument is a metric name.
_METRIC_ACCESSORS = {"counter", "gauge", "histogram"}

#: Direct instrument constructors.
_METRIC_CLASSES = {"Counter", "Gauge", "Histogram"}


class MetricNameRule(Rule):
    """Metric-name literals must be declared in ``repro.obs.names``."""

    id = "OBS001"
    title = "metric names come from the canonical catalogue"
    rationale = (
        "PR 6's contract is one canonical dotted name per number; a "
        "literal invented at a call site dodges the catalogue, the "
        "exporters, and the LEGACY_ALIASES migration."
    )

    def __init__(self, catalogue: MetricCatalogue | None = None) -> None:
        self._catalogue = catalogue
        self._loaded = catalogue is not None

    @property
    def catalogue(self) -> MetricCatalogue | None:
        if not self._loaded:
            self._catalogue = MetricCatalogue.load(_CATALOGUE_PATH)
            self._loaded = True
        return self._catalogue

    def applies_to(self, ctx: FileContext) -> bool:
        if not ctx.in_package("repro") or ctx.is_test_file():
            return False
        # The catalogue itself and the metrics module's internal plumbing
        # (canonical_name, _get_or_create) define names, not use them.
        if ctx.path.name == "names.py" and ctx.in_package("repro", "obs"):
            return False
        return self.catalogue is not None

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        assert ctx.tree is not None
        catalogue = self.catalogue
        assert catalogue is not None
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            is_accessor = isinstance(func, ast.Attribute) and func.attr in _METRIC_ACCESSORS
            name = dotted_name(func)
            is_ctor = name is not None and name.split(".")[-1] in _METRIC_CLASSES
            if not (is_accessor or is_ctor):
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                if first.value not in catalogue.names:
                    yield self.diagnostic(
                        ctx,
                        first.lineno,
                        first.col_offset,
                        f"metric name {first.value!r} is not in the canonical "
                        "catalogue (repro/obs/names.py): add it there (one "
                        "canonical dotted name per number) and reference it",
                    )
            elif isinstance(first, ast.JoinedStr):
                prefix = ""
                for piece in first.values:
                    if isinstance(piece, ast.Constant) and isinstance(piece.value, str):
                        prefix += piece.value
                    else:
                        break
                # An f-string may also *reference* a declared family, e.g.
                # f"{SERVE_REJECTED_PREFIX}{reason}.total".
                leads_with_prefix_constant = False
                if not prefix and first.values:
                    head = first.values[0]
                    if isinstance(head, ast.FormattedValue):
                        symbol = dotted_name(head.value) or ""
                        leads_with_prefix_constant = symbol.split(".")[-1].endswith(
                            "_PREFIX"
                        )
                if not leads_with_prefix_constant and not any(
                    prefix.startswith(declared) for declared in catalogue.prefixes
                ):
                    yield self.diagnostic(
                        ctx,
                        first.lineno,
                        first.col_offset,
                        f"dynamic metric name with prefix {prefix!r} is not a "
                        "declared family: add the prefix to "
                        "DYNAMIC_METRIC_PREFIXES in repro/obs/names.py",
                    )


# --------------------------------------------------------------------------- #
# OBS002 — span.set() payloads must be deterministic
# --------------------------------------------------------------------------- #
#: Calls whose value is wall-clock / environment / identity dependent.
_VOLATILE_CALLS = {
    "time.time", "time.perf_counter", "time.monotonic", "time.process_time",
    "time.time_ns", "time.perf_counter_ns", "time.monotonic_ns",
    "perf_counter", "monotonic", "process_time", "time_ns",
    "os.getpid", "os.getppid", "getpid",
    "id", "hash",
    "uuid.uuid1", "uuid.uuid3", "uuid.uuid4", "uuid.uuid5",
    "datetime.now", "datetime.utcnow",
    "datetime.datetime.now", "datetime.datetime.utcnow",
}

#: Attribute calls with environment/order-dependent results.
_VOLATILE_ATTRS = {"items", "keys", "values"}


class VolatileSpanAttrRule(Rule):
    """Volatile expressions belong in ``span.note()``, never ``span.set()``.

    ``set()`` feeds the byte-stable deterministic projection
    (:meth:`~repro.obs.Tracer.structure`); one wall-clock read or pid in an
    attribute breaks the byte-identical-across-runs contract PR 6 tests.
    """

    id = "OBS002"
    title = "span.set() arguments must be deterministic"
    rationale = (
        "The structure() projection is snapshot-tested byte-for-byte "
        "across runs and worker counts; volatile payload belongs in the "
        "note()/event() channels."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_package("repro") and not ctx.is_test_file()

    @staticmethod
    def _is_span_receiver(func: ast.Attribute) -> bool:
        receiver = func.value
        terminal = None
        if isinstance(receiver, ast.Name):
            terminal = receiver.id
        elif isinstance(receiver, ast.Attribute):
            terminal = receiver.attr
        return terminal is not None and "span" in terminal.lower()

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        assert ctx.tree is not None
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr == "set"
                and self._is_span_receiver(func)
            ):
                continue
            payloads = list(node.args) + [kw.value for kw in node.keywords]
            for payload in payloads:
                for sub in ast.walk(payload):
                    if not isinstance(sub, ast.Call):
                        continue
                    name = dotted_name(sub.func)
                    volatile = None
                    if name in _VOLATILE_CALLS or (
                        name is not None and (name == "clock" or name.endswith(".clock"))
                    ):
                        volatile = f"{name}()"
                    elif (
                        isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in _VOLATILE_ATTRS
                    ):
                        volatile = f".{sub.func.attr}() (dict iteration order)"
                    if volatile is not None:
                        yield self.diagnostic(
                            ctx,
                            sub.lineno,
                            sub.col_offset,
                            f"volatile expression {volatile} in span.set(): "
                            "deterministic attributes only — move it to "
                            "span.note() (the volatile channel)",
                        )


# --------------------------------------------------------------------------- #
# EXC001 — no silent exception swallowing
# --------------------------------------------------------------------------- #
_BROAD_TYPES = {"Exception", "BaseException"}


class ExceptionSwallowRule(Rule):
    """``except: pass`` and handle-nothing broad handlers hide failures."""

    id = "EXC001"
    title = "no silent exception swallowing"
    rationale = (
        "A dropped exception on a disconnect/merge path silently corrupts "
        "accounting (leaked checkouts, lost checkpoints); every handler "
        "must re-raise, log, record a metric, or justify itself inline."
    )

    @staticmethod
    def _handler_types(handler: ast.ExceptHandler) -> list[str]:
        node = handler.type
        if node is None:
            return []
        elements = node.elts if isinstance(node, ast.Tuple) else [node]
        names = []
        for element in elements:
            name = dotted_name(element)
            if name is not None:
                names.append(name.split(".")[-1])
        return names

    @staticmethod
    def _body_only_pass(handler: ast.ExceptHandler) -> bool:
        for stmt in handler.body:
            if isinstance(stmt, ast.Pass):
                continue
            if (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis
            ):
                continue
            return False
        return True

    @staticmethod
    def _body_handles(handler: ast.ExceptHandler) -> bool:
        """Re-raises, calls something (log/metric), or uses the bound error."""
        bound = handler.name
        for stmt in handler.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Raise):
                    return True
                if isinstance(node, ast.Call):
                    return True
                if (
                    bound is not None
                    and isinstance(node, ast.Name)
                    and node.id == bound
                    and isinstance(node.ctx, ast.Load)
                ):
                    return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        assert ctx.tree is not None
        for handler in ast.walk(ctx.tree):
            if not isinstance(handler, ast.ExceptHandler):
                continue
            types = self._handler_types(handler)
            caught = ", ".join(types) if types else "everything (bare except)"
            if self._body_only_pass(handler):
                yield self.diagnostic(
                    ctx,
                    handler.lineno,
                    handler.col_offset,
                    f"handler for {caught} silently swallows the exception: "
                    "log it, record a metric, re-raise — or annotate with "
                    "'# analyze: ignore[EXC001] -- <reason>'",
                )
                continue
            broad = handler.type is None or any(name in _BROAD_TYPES for name in types)
            if broad and not self._body_handles(handler):
                yield self.diagnostic(
                    ctx,
                    handler.lineno,
                    handler.col_offset,
                    f"broad handler for {caught} neither re-raises, logs, nor "
                    "uses the caught error: narrow the type or handle it",
                )


def default_rules() -> list[Rule]:
    """Fresh instances of every shipped rule (stable id order)."""
    return [
        ToleranceLiteralRule(),
        UnseededRandomRule(),
        AsyncBlockingRule(),
        MetricNameRule(),
        VolatileSpanAttrRule(),
        ExceptionSwallowRule(),
    ]


#: The default rule set used by the analyzer and the CLI.
DEFAULT_RULES: list[Rule] = default_rules()
