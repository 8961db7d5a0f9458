"""reprolint configuration: built-in defaults plus ``[tool.reprolint]``.

The defaults encode the invariants DESIGN.md §3 commits this codebase to —
the layered import DAG and the modules that legitimately own randomness or
wall-clock access.  A ``[tool.reprolint]`` table in ``pyproject.toml`` can
disable rules, extend per-rule path allowlists, or override the layer map;
project config is merged over (never silently replacing) the defaults so a
partial table cannot accidentally turn the whole linter off.

Recognized table shape::

    [tool.reprolint]
    disable = ["RL005"]            # rule ids switched off globally

    [tool.reprolint.allow]         # per-rule path allowlists (glob or suffix)
    RL001 = ["repro/rng.py"]

    [tool.reprolint.layers]        # package -> allowed repro-internal imports
    core = ["featurespace", "ml", "rng", "exceptions"]
    experiments = "*"              # "*" = unrestricted

    [tool.reprolint.deadcode]      # RL007 intentional-public-API allowlist
    allow = ["repro.serve.*", "main"]   # fnmatch on "module.name" or bare name
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path


class LintConfigError(Exception):
    """Raised when a ``[tool.reprolint]`` table is malformed."""


#: The import DAG of DESIGN.md §3.  Keys are first-level packages (or
#: top-level modules) under ``repro``; values are the sibling layers they
#: may import from, or ``"*"`` for unrestricted.  Absent keys default to
#: unrestricted so third-party trees lint without a layer map.
DEFAULT_LAYERS: dict[str, list[str] | str] = {
    "exceptions": [],
    "rng": ["exceptions"],
    "featurespace": ["exceptions"],
    "ml": ["rng", "exceptions"],
    "stats": ["rng", "exceptions"],
    "netsim": ["featurespace", "rng", "exceptions"],
    "core": ["featurespace", "ml", "rng", "exceptions"],
    "automl": ["ml", "rng", "exceptions"],
    "runtime": ["rng", "exceptions"],
    "serve": ["automl", "core", "featurespace", "ml", "rng", "exceptions", "runtime"],
    "store": ["exceptions", "runtime", "serve"],
    "active": ["core", "featurespace", "ml", "rng", "exceptions"],
    "loop": ["active", "automl", "core", "featurespace", "ml", "rng", "exceptions", "runtime", "serve"],
    "loadgen": ["exceptions", "rng", "runtime", "serve"],
    "datasets": ["core", "featurespace", "ml", "netsim", "rng", "exceptions"],
    "domain": ["automl", "core", "featurespace", "ml", "rng", "exceptions"],
    "devtools": [],
    "experiments": "*",
    "cli": "*",
    "__main__": "*",
    "__init__": "*",
}

#: Paths where a rule's constraint legitimately does not apply.  Patterns
#: match the reported (posix) path either as an ``fnmatch`` glob or as a
#: path suffix, so ``repro/rng.py`` matches ``src/repro/rng.py`` too.
DEFAULT_ALLOW: dict[str, list[str]] = {
    # repro.rng is the one module allowed to construct generators.
    "RL001": ["repro/rng.py"],
    # The runtime clock owns every timeout/duration the executors need;
    # everything else takes its time readings from there.
    "RL004": ["repro/runtime/clock.py"],
}


@dataclass
class LintConfig:
    """Effective reprolint configuration after merging all sources."""

    disable: set[str] = field(default_factory=set)
    allow: dict[str, list[str]] = field(default_factory=lambda: {k: list(v) for k, v in DEFAULT_ALLOW.items()})
    layers: dict[str, list[str] | str] = field(default_factory=lambda: dict(DEFAULT_LAYERS))
    root_package: str = "repro"
    #: RL007 allowlist: exported names that are intentional public API even
    #: when nothing in the tree imports them.  Patterns are ``fnmatch``
    #: globs matched against both the bare name and ``module.name``.
    deadcode_allow: list[str] = field(default_factory=list)
    #: RL007 usage universe: directories (relative to :attr:`base_dir`)
    #: whose files always count as potential consumers of an export, even
    #: when the lint run targets a narrower path set.  Only production
    #: code counts: an export whose sole consumers live in ``tests/`` is
    #: dead code with a test attached, and gets flagged.
    deadcode_roots: list[str] = field(default_factory=lambda: ["src", "benchmarks", "examples", "perfbench"])
    #: Directory :attr:`deadcode_roots` resolve against — the directory of
    #: the ``pyproject.toml`` the config came from (``None`` = no extras).
    base_dir: Path | None = None

    def rule_enabled(self, rule_id: str) -> bool:
        return rule_id not in self.disable

    def path_allowed(self, rule_id: str, path: str) -> bool:
        """True when ``path`` is allowlisted for ``rule_id``."""
        posix = path.replace("\\", "/")
        for pattern in self.allow.get(rule_id, ()):
            pattern = pattern.replace("\\", "/")
            if fnmatch(posix, pattern) or posix.endswith(pattern):
                return True
        return False

    def allowed_layers(self, layer: str) -> list[str] | str:
        """Importable sibling layers for ``layer`` (``"*"`` = unrestricted)."""
        return self.layers.get(layer, "*")

    def export_allowed(self, module: str, name: str) -> bool:
        """True when RL007 must not flag ``name`` exported from ``module``."""
        qualified = f"{module}.{name}"
        return any(fnmatch(name, pattern) or fnmatch(qualified, pattern) for pattern in self.deadcode_allow)


def _require(value, kind, what: str):
    if not isinstance(value, kind):
        raise LintConfigError(f"[tool.reprolint] {what} must be {kind.__name__}, got {type(value).__name__}")
    return value


def config_from_table(table: dict) -> LintConfig:
    """Build a :class:`LintConfig` from a parsed ``[tool.reprolint]`` table."""
    config = LintConfig()
    _require(table, dict, "table")
    for rule_id in _require(table.get("disable", []), list, "'disable'"):
        config.disable.add(_require(rule_id, str, "'disable' entries"))
    for rule_id, patterns in _require(table.get("allow", {}), dict, "'allow'").items():
        entries = [_require(p, str, f"'allow.{rule_id}' entries") for p in _require(patterns, list, f"'allow.{rule_id}'")]
        config.allow.setdefault(rule_id, []).extend(entries)
    for layer, allowed in _require(table.get("layers", {}), dict, "'layers'").items():
        if allowed == "*":
            config.layers[layer] = "*"
        else:
            config.layers[layer] = [
                _require(entry, str, f"'layers.{layer}' entries")
                for entry in _require(allowed, list, f"'layers.{layer}'")
            ]
    deadcode = _require(table.get("deadcode", {}), dict, "'deadcode'")
    for pattern in _require(deadcode.get("allow", []), list, "'deadcode.allow'"):
        config.deadcode_allow.append(_require(pattern, str, "'deadcode.allow' entries"))
    if "roots" in deadcode:
        config.deadcode_roots = [
            _require(entry, str, "'deadcode.roots' entries")
            for entry in _require(deadcode["roots"], list, "'deadcode.roots'")
        ]
    if "root_package" in table:
        config.root_package = _require(table["root_package"], str, "'root_package'")
    return config


def load_config(pyproject: Path | str | None = None) -> LintConfig:
    """Load configuration from ``pyproject.toml``.

    With ``pyproject=None`` the file is searched upward from the current
    directory; a missing file or missing table yields the pure defaults.
    """
    path = Path(pyproject) if pyproject is not None else _discover_pyproject()
    if path is None or not path.is_file():
        return LintConfig()
    try:
        import tomllib
    except ImportError:  # Python < 3.11: run on built-in defaults only.
        return LintConfig()
    with open(path, "rb") as handle:
        try:
            data = tomllib.load(handle)
        except tomllib.TOMLDecodeError as exc:
            raise LintConfigError(f"cannot parse {path}: {exc}") from exc
    table = data.get("tool", {}).get("reprolint", None)
    if table is None:
        config = LintConfig()
    else:
        config = config_from_table(table)
    config.base_dir = path.parent
    return config


def _discover_pyproject(start: Path | None = None) -> Path | None:
    current = (start or Path.cwd()).resolve()
    for directory in (current, *current.parents):
        candidate = directory / "pyproject.toml"
        if candidate.is_file():
            return candidate
    return None
