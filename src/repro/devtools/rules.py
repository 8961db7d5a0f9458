"""The concrete reprolint rules, RL001–RL007.

Each rule enforces one invariant the reproduction's correctness argument
rests on (see DESIGN.md §3 and README "Code invariants & reprolint"):

- RL001 — randomness must flow through a passed ``numpy.random.Generator``
  normalized by ``repro.rng.check_random_state``; global-state RNG calls
  make parallel/sharded runs unreproducible.
- RL002 — the package import graph must stay the documented DAG, so the
  interpretation core never grows a dependency on the substrates it
  explains.
- RL003 — every ``repro.ml`` estimator honors the one shared API that
  ``AutoMLClassifier`` and QBC blindly consume.
- RL004 — wall-clock reads live only in the runtime clock module; anywhere
  else they smuggle nondeterminism into supposedly pure computations.
- RL005 — no mutable default arguments, no bare ``except:``.
- RL006 — numpydoc ``Parameters`` sections must not name arguments the
  signature no longer has; stale parameter docs teach callers an API
  that does not exist.
- RL007 — every name a module exports via ``__all__`` must be consumed
  by production code elsewhere in the tree (or allowlisted as intentional
  public API); dead exports are the residue refactors leave behind.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .engine import FileContext, ProjectRule, Rule, register, register_project
from .findings import Finding, Severity

__all__ = [
    "RngDisciplineRule",
    "LayeringRule",
    "EstimatorContractRule",
    "WallClockRule",
    "FootgunRule",
    "DocstringDriftRule",
    "DeadExportRule",
]

# -- RL001 -------------------------------------------------------------------

#: Call targets that read or mutate process-global RNG state.
_GLOBAL_STATE_PREFIXES = ("numpy.random.", "random.")
#: Generator/bit-generator constructors: seeding decisions belong to
#: ``repro.rng``, not to scattered call sites.
_CONSTRUCTOR_TARGETS = {
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.PCG64",
    "numpy.random.MT19937",
    "numpy.random.Philox",
    "numpy.random.SFC64",
    "numpy.random.RandomState",
}


@register
class RngDisciplineRule(Rule):
    """RL001: randomness must come from a passed ``Generator``.

    Flags any call into ``numpy.random`` or the stdlib ``random`` module —
    both the legacy global-state functions (``np.random.rand``,
    ``np.random.seed``, ``random.shuffle``) and direct generator
    construction (``np.random.default_rng(...)``).  ``repro/rng.py`` is
    allowlisted in the default config: it is the single module entitled to
    build generators.
    """

    id = "RL001"
    name = "rng-discipline"
    description = "randomness must thread through repro.rng, not global numpy/stdlib RNG state"

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        if not isinstance(node, ast.Call):
            return
        target = ctx.resolve_call_target(node)
        if target is None:
            return
        if target in _CONSTRUCTOR_TARGETS:
            yield self.finding(
                ctx,
                node,
                f"direct generator construction '{target}' — accept a random_state and "
                "normalize it with repro.rng.check_random_state instead",
            )
        elif target.startswith(_GLOBAL_STATE_PREFIXES):
            yield self.finding(
                ctx,
                node,
                f"global-state RNG call '{target}' — draw from a passed numpy Generator instead",
            )


# -- RL002 -------------------------------------------------------------------


@register
class LayeringRule(Rule):
    """RL002: the package import graph must stay the DESIGN §3 DAG.

    Resolves both ``import x.y`` and ``from ..x import y`` forms (any
    relative level) to dotted modules, maps each endpoint to its
    first-level layer under the root package, and checks the edge against
    the configured layer map.  Intra-layer imports are always allowed;
    imports of modules outside the root package are not this rule's
    business.
    """

    id = "RL002"
    name = "layering"
    description = "cross-package imports must follow the documented layer DAG"

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield from self._check_edge(node, alias.name, ctx)
        elif isinstance(node, ast.ImportFrom):
            target = self._resolve_from(node, ctx)
            if target is not None:
                yield from self._check_edge(node, target, ctx)

    def _resolve_from(self, node: ast.ImportFrom, ctx: FileContext) -> str | None:
        if node.level == 0:
            return node.module
        if ctx.module is None:
            return None  # relative import in an unknown package: cannot resolve
        parts = ctx.module.split(".")
        # The module's own package: itself if it is a package __init__,
        # otherwise its parent; each extra level climbs one package higher.
        package = parts if _is_package(ctx) else parts[:-1]
        climb = node.level - 1
        if climb > len(package):
            return None
        base = package[: len(package) - climb]
        return ".".join(base + (node.module.split(".") if node.module else []))

    def _check_edge(self, node: ast.AST, target_module: str, ctx: FileContext) -> Iterable[Finding]:
        source_layer = ctx.layer_of(ctx.module) if ctx.module else None
        target_layer = ctx.layer_of(target_module)
        if source_layer is None or target_layer is None or source_layer == target_layer:
            return
        allowed = ctx.config.allowed_layers(source_layer)
        if allowed == "*" or target_layer in allowed:
            return
        yield self.finding(
            ctx,
            node,
            f"layer '{source_layer}' must not import '{target_layer}' "
            f"({target_module}); allowed: {sorted(allowed) if allowed else 'nothing'}",
        )


def _is_package(ctx: FileContext) -> bool:
    return ctx.path.stem == "__init__"


# -- RL003 -------------------------------------------------------------------

#: Base classes known to provide ``predict`` to their subclasses.
_PREDICT_PROVIDERS = {"ClassifierMixin"}
#: Calls that mean "this class draws randomness".
_RANDOMNESS_SOURCES = {"check_random_state", "spawn"}


@register
class EstimatorContractRule(Rule):
    """RL003: ``repro.ml`` estimators must honor the shared API.

    For every class in ``repro.ml`` that defines ``fit``:

    - every ``return`` in ``fit`` must be ``return self`` (and at least
      one must exist), so call sites can chain ``Estimator().fit(X, y)``;
    - the class must expose ``predict`` or ``transform`` — directly,
      through ``ClassifierMixin``, or through a same-module base class;
    - if any method draws randomness (calls ``check_random_state`` or
      ``spawn``), the constructor must accept ``random_state``.
    """

    id = "RL003"
    name = "estimator-contract"
    description = "repro.ml estimators: fit returns self, predict/transform exists, random_state accepted"

    def start(self, ctx: FileContext) -> None:
        # Class name -> ClassDef for same-module base resolution.
        self._classes = {
            node.name: node
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.ClassDef)
        }

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        if not isinstance(node, ast.ClassDef):
            return
        ml_package = f"{ctx.config.root_package}.ml"
        if ctx.module is None or not (ctx.module == ml_package or ctx.module.startswith(ml_package + ".")):
            return
        methods = _own_methods(node)
        fit = methods.get("fit")
        if fit is None:
            return
        yield from self._check_fit_returns(fit, ctx)
        if not self._provides_consumer_api(node, seen=set()):
            yield self.finding(
                ctx,
                node,
                f"estimator '{node.name}' defines fit but neither defines nor inherits predict/transform",
            )
        if self._draws_randomness(node) and not self._accepts_random_state(node):
            yield self.finding(
                ctx,
                node,
                f"estimator '{node.name}' draws randomness but its __init__ does not accept random_state",
            )

    def _check_fit_returns(self, fit: ast.FunctionDef, ctx: FileContext) -> Iterable[Finding]:
        returns = [n for n in _walk_function_body(fit) if isinstance(n, ast.Return)]
        if not returns:
            yield self.finding(ctx, fit, f"'{fit.name}' must end with 'return self' (no return found)")
            return
        for ret in returns:
            if not (isinstance(ret.value, ast.Name) and ret.value.id == "self"):
                yield self.finding(ctx, ret, "fit must 'return self', not another value")

    def _provides_consumer_api(self, node: ast.ClassDef, seen: set[str]) -> bool:
        methods = _own_methods(node)
        if "predict" in methods or "transform" in methods:
            return True
        for base in node.bases:
            name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
            if name is None or name in seen:
                continue
            seen.add(name)
            if name in _PREDICT_PROVIDERS:
                return True
            base_def = self._classes.get(name)
            if base_def is not None and self._provides_consumer_api(base_def, seen):
                return True
        return False

    @staticmethod
    def _draws_randomness(node: ast.ClassDef) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                func = sub.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in _RANDOMNESS_SOURCES:
                    return True
        return False

    def _accepts_random_state(self, node: ast.ClassDef, seen: set[str] | None = None) -> bool:
        seen = set() if seen is None else seen
        methods = _own_methods(node)
        for method_name in ("__init__", "fit"):
            method = methods.get(method_name)
            if method is not None and _accepts_param(method, "random_state"):
                return True
        if "__init__" in methods:
            return False  # the class owns its signature and it lacks random_state
        for base in node.bases:  # no __init__ here: the inherited one may accept it
            name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
            if name is None or name in seen:
                continue
            seen.add(name)
            base_def = self._classes.get(name)
            if base_def is not None and self._accepts_random_state(base_def, seen):
                return True
        return False


def _own_methods(node: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {
        item.name: item
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _accepts_param(func: ast.FunctionDef, param: str) -> bool:
    args = func.args
    names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
    return param in names or args.kwarg is not None


def _walk_function_body(func: ast.FunctionDef):
    """Walk ``func``'s statements without descending into nested defs."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


# -- RL004 -------------------------------------------------------------------

_CLOCK_TARGETS = {
    "time.time",
    "time.monotonic",
    "time.perf_counter",
    "time.process_time",
    "time.time_ns",
    "time.monotonic_ns",
    "time.perf_counter_ns",
}


@register
class WallClockRule(Rule):
    """RL004: wall-clock reads only in the module that owns the clock.

    The default config allowlists ``runtime/clock.py`` alone, which owns
    every duration and deadline.  Anywhere else, a clock read makes a
    result depend on machine speed.
    """

    id = "RL004"
    name = "wall-clock-purity"
    description = "time.time/monotonic/perf_counter belong only to repro.runtime.clock"

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        if not isinstance(node, ast.Call):
            return
        target = ctx.resolve_call_target(node)
        if target in _CLOCK_TARGETS:
            yield self.finding(
                ctx,
                node,
                f"wall-clock read '{target}' outside repro.runtime.clock — "
                "use its Stopwatch/Deadline, or pass elapsed time in",
            )


# -- RL005 -------------------------------------------------------------------


@register
class FootgunRule(Rule):
    """RL005: no mutable default arguments, no bare ``except:``."""

    id = "RL005"
    name = "no-mutable-default"
    description = "mutable default arguments and bare except clauses are forbidden"

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            for default in (*args.defaults, *args.kw_defaults):
                if default is not None and _is_mutable_literal(default):
                    name = getattr(node, "name", "<lambda>")
                    yield self.finding(
                        ctx,
                        default,
                        f"mutable default argument in '{name}' — default to None and build inside",
                    )
        elif isinstance(node, ast.ExceptHandler) and node.type is None:
            yield self.finding(
                ctx,
                node,
                "bare 'except:' swallows SystemExit/KeyboardInterrupt — catch a library error type",
            )


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"list", "dict", "set", "bytearray"} and not node.args and not node.keywords
    return False


# -- RL006 -------------------------------------------------------------------


@register
class DocstringDriftRule(Rule):
    """RL006: numpydoc ``Parameters`` sections must match the signature.

    Parses the ``Parameters`` section of every function and class
    docstring (a class documents its own ``__init__``) and flags each
    documented name the signature does not accept — the drift left behind
    when a parameter is renamed or removed but its docs are not.

    Deliberately one-directional: *undocumented* parameters are fine
    (docstrings may describe only the interesting arguments), and any
    callable taking ``**kwargs`` is skipped entirely because it can
    absorb any documented name.
    """

    id = "RL006"
    name = "docstring-drift"
    description = "numpydoc Parameters sections must not name arguments the signature lacks"

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from self._check(node, node, f"function '{node.name}'", ctx)
        elif isinstance(node, ast.ClassDef):
            init = _own_methods(node).get("__init__")
            if init is None:
                return  # inherited/generated __init__: signature unknown statically
            yield from self._check(node, init, f"class '{node.name}'", ctx)

    def _check(
        self, doc_owner: ast.AST, signature: ast.FunctionDef, what: str, ctx: FileContext
    ) -> Iterable[Finding]:
        docstring = ast.get_docstring(doc_owner)
        if not docstring:
            return
        args = signature.args
        if args.kwarg is not None:
            return  # **kwargs absorbs any documented name
        accepted = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
        if args.vararg is not None:
            accepted.add(args.vararg.arg)
        for name in _documented_parameters(docstring):
            if name not in accepted:
                yield self.finding(
                    ctx,
                    doc_owner,
                    f"{what} documents parameter '{name}' but its signature does not accept it",
                )


def _documented_parameters(docstring: str) -> list[str]:
    """Parameter names a numpydoc ``Parameters`` section declares.

    Entry lines sit at the section's base indentation as ``name : type``
    (type optional, names possibly comma-separated); deeper-indented lines
    are descriptions.  The section ends at the next underlined header.
    ``ast.get_docstring`` has already dedented the text uniformly.
    """
    lines = docstring.splitlines()
    start = None
    for index in range(len(lines) - 1):
        if lines[index].strip() == "Parameters" and _is_underline(lines[index + 1]):
            start = index
            break
    if start is None:
        return []
    base_indent = _indent_of(lines[start])
    names: list[str] = []
    for index in range(start + 2, len(lines)):
        line = lines[index]
        if not line.strip():
            continue
        if _indent_of(line) > base_indent:
            continue  # description text under the previous entry
        if index + 1 < len(lines) and _is_underline(lines[index + 1]):
            break  # next section header (Returns, Raises, ...)
        head = line.strip().split(":", 1)[0]
        for token in head.split(","):
            token = token.strip().lstrip("*")
            if token.isidentifier():
                names.append(token)
    return names


def _is_underline(line: str) -> bool:
    stripped = line.strip()
    return bool(stripped) and set(stripped) == {"-"}


def _indent_of(line: str) -> int:
    return len(line) - len(line.lstrip())


# -- RL007 -------------------------------------------------------------------


@register_project
class DeadExportRule(ProjectRule):
    """RL007: every ``__all__`` export must be consumed somewhere else.

    A cross-file analysis in two passes over the whole linted file set:

    1. **exports** — for every module under the root package, collect the
       string entries of its top-level ``__all__`` (each pinned to its own
       source line for precise findings);
    2. **uses** — for every file in the set (the paths the caller passed
       plus the configured ``deadcode_roots``: by default source,
       benchmarks, examples and perfbench, but not tests), collect all
       names that could consume an export: ``from X import name`` targets,
       attribute accesses (``module.name``), and plain name loads.

    An export is dead when its name appears in no file other than the one
    that exports it.  Matching is by name, not by resolved module — which
    cannot produce false positives (any genuine consumer *must* utter the
    name somewhere) at the cost of missing same-named dead code, an
    acceptable trade for a lint gate.  ``from X import *`` defeats
    name-level tracking, so a star-import of a root-package module exempts
    that module's exports.  ``[tool.reprolint.deadcode] allow`` patterns
    mark intentional public API.
    """

    id = "RL007"
    name = "dead-export"
    description = "names exported via __all__ must be imported/used somewhere outside their module"

    def scan(self, contexts: list[FileContext]) -> Iterable[Finding]:
        used_by_file: dict[str, set[str]] = {}
        star_imported: set[str] = set()
        for ctx in contexts:
            used_by_file[ctx.display_path] = self._used_names(ctx, star_imported)
        for ctx in contexts:
            module = ctx.module
            if module is None or ctx.usage_only:
                continue
            root = ctx.config.root_package
            if module != root and not module.startswith(root + "."):
                continue
            if module in star_imported:
                continue
            for name, node in self._exports(ctx):
                if ctx.config.export_allowed(module, name):
                    continue
                if any(name in used for path, used in used_by_file.items() if path != ctx.display_path):
                    continue
                yield self.finding(
                    ctx,
                    node,
                    f"'{module}.{name}' is exported via __all__ but never imported or used "
                    "outside its module — delete it or allowlist it under "
                    "[tool.reprolint.deadcode]",
                )

    @staticmethod
    def _exports(ctx: FileContext) -> list[tuple[str, ast.AST]]:
        """``(name, node)`` pairs from the module's top-level ``__all__``."""
        exports: list[tuple[str, ast.AST]] = []
        for node in ctx.tree.body:
            targets = ()
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AugAssign):
                targets = (node.target,)
            if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                continue
            value = node.value
            if isinstance(value, (ast.List, ast.Tuple)):
                for element in value.elts:
                    if isinstance(element, ast.Constant) and isinstance(element.value, str):
                        exports.append((element.value, element))
        return exports

    @staticmethod
    def _used_names(ctx: FileContext, star_imported: set[str]) -> set[str]:
        """Every name this file could be consuming from another module."""
        used: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name == "*":
                        if node.level == 0 and node.module:
                            star_imported.add(node.module)
                        elif ctx.module is not None:
                            star_imported.add(ctx.module.rsplit(".", 1)[0])
                    else:
                        used.add(alias.name)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Name):
                used.add(node.id)
        return used
