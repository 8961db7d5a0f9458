"""The reprolint rule engine.

One :class:`LintEngine` drives everything: it parses each file once,
resolves import aliases and the file's dotted module name, then performs a
single AST walk feeding every enabled rule.  Rules are small stateful
visitors registered with :func:`register`; they yield
:class:`~repro.devtools.findings.Finding` records which the engine filters
through inline ``# reprolint: disable=RLxxx`` suppressions and the
configured per-rule path allowlists, and finally sorts for deterministic
output.

The engine deliberately imports nothing from the rest of ``repro`` — the
linter must stay runnable on a tree whose runtime code is broken.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable, Iterator

from .config import LintConfig
from .findings import Finding, Severity

__all__ = [
    "Rule",
    "ProjectRule",
    "register",
    "register_project",
    "registered_rules",
    "registered_project_rules",
    "FileContext",
    "LintEngine",
]

_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_*,\s]+)")


class Rule:
    """Base class for lint rules.

    Subclasses set the class attributes and override any of the three
    hooks.  A fresh instance is created per file, so instance attributes
    initialised in :meth:`start` are safe per-file state.
    """

    id: str = "RL000"
    name: str = "abstract-rule"
    severity: Severity = Severity.ERROR
    description: str = ""

    def start(self, ctx: "FileContext") -> None:
        """Called once before the walk; reset per-file state here."""

    def visit(self, node: ast.AST, ctx: "FileContext") -> Iterable[Finding]:
        """Called for every AST node in the file, in document order."""
        return ()

    def finish(self, ctx: "FileContext") -> Iterable[Finding]:
        """Called once after the walk; emit whole-module findings here."""
        return ()

    def finding(
        self, ctx: "FileContext", node: ast.AST | None, message: str
    ) -> Finding:
        """Build a :class:`Finding` for ``node`` (module-level if ``None``)."""
        return Finding(
            path=ctx.display_path,
            line=getattr(node, "lineno", 1) if node is not None else 1,
            col=getattr(node, "col_offset", 0) if node is not None else 0,
            rule_id=self.id,
            message=message,
            severity=self.severity,
        )


class ProjectRule:
    """Base class for whole-project rules (cross-file analyses).

    Unlike :class:`Rule`, which sees one file at a time, a project rule's
    single :meth:`scan` hook receives every successfully parsed
    :class:`FileContext` of the run at once — the shape needed for
    properties no single file can witness, like "this exported name is
    never imported anywhere".  A fresh instance is created per
    ``lint_project`` call.
    """

    id: str = "RL000"
    name: str = "abstract-project-rule"
    severity: Severity = Severity.ERROR
    description: str = ""

    def scan(self, contexts: list["FileContext"]) -> Iterable[Finding]:
        """Analyze the whole file set; yield findings anchored to files."""
        return ()

    def finding(self, ctx: "FileContext", node: ast.AST | None, message: str) -> Finding:
        return Finding(
            path=ctx.display_path,
            line=getattr(node, "lineno", 1) if node is not None else 1,
            col=getattr(node, "col_offset", 0) if node is not None else 0,
            rule_id=self.id,
            message=message,
            severity=self.severity,
        )


_REGISTRY: dict[str, type[Rule]] = {}
_PROJECT_REGISTRY: dict[str, type[ProjectRule]] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry (keyed by id)."""
    if not rule_cls.id or rule_cls.id == Rule.id:
        raise ValueError(f"rule {rule_cls.__name__} must define a unique non-default id")
    if rule_cls.id in _REGISTRY and _REGISTRY[rule_cls.id] is not rule_cls:
        raise ValueError(f"duplicate rule id {rule_cls.id!r}")
    _REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def register_project(rule_cls: type[ProjectRule]) -> type[ProjectRule]:
    """Class decorator adding a project rule to the registry (keyed by id)."""
    if not rule_cls.id or rule_cls.id == ProjectRule.id:
        raise ValueError(f"project rule {rule_cls.__name__} must define a unique non-default id")
    if rule_cls.id in _PROJECT_REGISTRY and _PROJECT_REGISTRY[rule_cls.id] is not rule_cls:
        raise ValueError(f"duplicate project rule id {rule_cls.id!r}")
    if rule_cls.id in _REGISTRY:
        raise ValueError(f"rule id {rule_cls.id!r} is already a per-file rule")
    _PROJECT_REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def registered_rules() -> list[type[Rule]]:
    """All registered rule classes, ordered by rule id."""
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def registered_project_rules() -> list[type[ProjectRule]]:
    """All registered project-rule classes, ordered by rule id."""
    return [_PROJECT_REGISTRY[rule_id] for rule_id in sorted(_PROJECT_REGISTRY)]


class FileContext:
    """Everything rules may want to know about the file being linted."""

    def __init__(self, path: Path, source: str, tree: ast.Module, config: LintConfig, root: Path | None):
        self.path = path
        self.source = source
        self.tree = tree
        self.config = config
        self.display_path = _display_path(path, root)
        self.module = _module_name(path) or _module_from_parts(path, config.root_package)
        #: local name -> fully qualified target, e.g. ``np -> numpy`` or
        #: ``default_rng -> numpy.random.default_rng`` (absolute imports only).
        self.aliases = _collect_aliases(tree)
        #: Project-scan marker: this file joined the run only as a potential
        #: consumer of exports; project rules must not report findings in it.
        self.usage_only = False

    # -- helpers rules share -------------------------------------------------

    def resolve_call_target(self, node: ast.Call) -> str | None:
        """Fully qualified dotted name of ``node``'s callee, if resolvable.

        Walks ``a.b.c(...)`` attribute chains down to a root ``Name`` and
        substitutes the root through this file's import aliases; returns
        ``None`` for calls on computed objects (e.g. ``rng.uniform(...)``
        where ``rng`` is a local variable).
        """
        parts: list[str] = []
        func = node.func
        while isinstance(func, ast.Attribute):
            parts.append(func.attr)
            func = func.value
        if not isinstance(func, ast.Name):
            return None
        root = self.aliases.get(func.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))

    def layer_of(self, module: str) -> str | None:
        """First-level layer of a dotted module under the root package.

        ``repro.netsim.link`` -> ``netsim``; ``repro.rng`` -> ``rng``;
        modules outside the root package -> ``None``.
        """
        root = self.config.root_package
        if module == root:
            return "__init__"
        prefix = root + "."
        if not module.startswith(prefix):
            return None
        return module[len(prefix):].split(".", 1)[0]


class LintEngine:
    """Parses files and feeds every enabled rule in a single AST walk."""

    def __init__(
        self,
        config: LintConfig | None = None,
        rules: Iterable[type[Rule]] | None = None,
        project_rules: Iterable[type[ProjectRule]] | None = None,
    ):
        self.config = config or LintConfig()
        rule_classes = list(rules) if rules is not None else registered_rules()
        self.rule_classes = [cls for cls in rule_classes if self.config.rule_enabled(cls.id)]
        project_classes = list(project_rules) if project_rules is not None else registered_project_rules()
        self.project_rule_classes = [cls for cls in project_classes if self.config.rule_enabled(cls.id)]

    def lint_paths(self, paths: Iterable[Path | str], root: Path | str | None = None) -> list[Finding]:
        """Lint files and directories (recursively); returns sorted findings."""
        root = Path(root) if root is not None else None
        findings: list[Finding] = []
        for path in self._expand(paths):
            findings.extend(self.lint_file(path, root=root))
        return sorted(findings)

    def lint_file(self, path: Path | str, root: Path | None = None) -> list[Finding]:
        """Lint one file; returns its findings sorted by location."""
        path = Path(path)
        source = path.read_text(encoding="utf-8")
        return sorted(self.lint_source(source, path=path, root=root))

    def lint_source(self, source: str, path: Path | str = "<string>", root: Path | None = None) -> list[Finding]:
        """Lint source text directly (the unit-test entry point)."""
        path = Path(path)
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            return [
                Finding(
                    path=_display_path(path, root),
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    rule_id="RL000",
                    message=f"syntax error: {exc.msg}",
                )
            ]
        ctx = FileContext(path, source, tree, self.config, root)
        rules = [cls() for cls in self.rule_classes]
        for rule in rules:
            rule.start(ctx)
        raw: list[Finding] = []
        for node in ast.walk(tree):
            for rule in rules:
                raw.extend(rule.visit(node, ctx))
        for rule in rules:
            raw.extend(rule.finish(ctx))
        suppressed = _suppressed_lines(source)
        return [finding for finding in raw if self._keep(finding, suppressed)]

    def lint_project(self, paths: Iterable[Path | str], root: Path | str | None = None) -> list[Finding]:
        """Run the *project* rules over the whole file set at once.

        Parses every ``.py`` file under ``paths`` (unparseable files are
        skipped here — :meth:`lint_paths` already reports their syntax
        errors), hands the full context list to each enabled project rule,
        and filters findings through the same inline-suppression and
        path-allowlist machinery as per-file findings.  Complementary to
        :meth:`lint_paths`; the CLI runs both and merges.

        Files under the configured ``deadcode_roots`` (resolved against the
        config's ``base_dir``) always join the set as *usage-only*
        contexts (``ctx.usage_only = True``): they count as consumers but
        are never themselves checked for dead exports, so a narrow run
        like ``repro lint src`` still sees the consumers in ``benchmarks/``.
        """
        root = Path(root) if root is not None else None
        explicit = list(self._expand(paths))
        seen = {path.resolve() for path in explicit}
        usage_only: list[Path] = []
        if self.config.base_dir is not None:
            for root_name in self.config.deadcode_roots:
                root_dir = Path(self.config.base_dir) / root_name
                if root_dir.is_dir():
                    usage_only.extend(
                        path for path in self._expand([root_dir]) if path.resolve() not in seen
                    )
        contexts: list[FileContext] = []
        suppressions: dict[str, dict[int, set[str]]] = {}
        for path, is_usage_only in [(p, False) for p in explicit] + [(p, True) for p in usage_only]:
            try:
                source = path.read_text(encoding="utf-8")
                tree = ast.parse(source)
            except (OSError, SyntaxError):
                continue
            ctx = FileContext(path, source, tree, self.config, root)
            ctx.usage_only = is_usage_only
            contexts.append(ctx)
            suppressions[ctx.display_path] = _suppressed_lines(source)
        findings: list[Finding] = []
        for cls in self.project_rule_classes:
            findings.extend(cls().scan(contexts))
        return sorted(f for f in findings if self._keep(f, suppressions.get(f.path, {})))

    def _keep(self, finding: Finding, suppressed: dict[int, set[str]]) -> bool:
        if self.config.path_allowed(finding.rule_id, finding.path):
            return False
        ids = suppressed.get(finding.line)
        return not (ids is not None and ("*" in ids or finding.rule_id in ids))

    @staticmethod
    def _expand(paths: Iterable[Path | str]) -> Iterator[Path]:
        for path in paths:
            path = Path(path)
            if path.is_dir():
                yield from sorted(p for p in path.rglob("*.py"))
            else:
                yield path


def _suppressed_lines(source: str) -> dict[int, set[str]]:
    """Map line number -> rule ids disabled inline on that line.

    ``# reprolint: disable=RL001,RL002`` disables those rules for its own
    line; ``disable=all`` disables every rule there.
    """
    suppressed: dict[int, set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        ids = {token.strip() for token in match.group(1).split(",") if token.strip()}
        if "all" in ids or "*" in ids:
            ids = {"*"}
        suppressed[lineno] = ids
    return suppressed


def _collect_aliases(tree: ast.Module) -> dict[str, str]:
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                aliases[local] = alias.name if alias.asname else alias.name.split(".", 1)[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def _display_path(path: Path, root: Path | None) -> str:
    if root is not None:
        try:
            return path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()


def _module_name(path: Path) -> str | None:
    """Dotted module name inferred from the package layout on disk.

    Walks up while ``__init__.py`` files exist, so ``src/repro/ml/base.py``
    resolves to ``repro.ml.base`` without any configuration.  Returns
    ``None`` for files outside a package (layering then does not apply).
    """
    path = path.resolve() if path.exists() else path
    if path.suffix != ".py":
        return None
    parts = [path.stem] if path.stem != "__init__" else []
    current = path.parent
    package_seen = path.stem == "__init__"
    while (current / "__init__.py").exists():
        parts.insert(0, current.name)
        package_seen = True
        current = current.parent
    if not package_seen or not parts:
        return None
    return ".".join(parts)


def _module_from_parts(path: Path, root_package: str) -> str | None:
    """Fallback module resolution for paths that do not exist on disk.

    Lets unit tests lint synthetic sources under invented paths like
    ``src/repro/core/bad.py``: the dotted name starts at the last path
    component equal to ``root_package``.
    """
    if path.suffix != ".py":
        return None
    parts = list(path.parts[:-1])
    if path.stem != "__init__":
        parts.append(path.stem)
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == root_package:
            return ".".join(parts[index:])
    return None
