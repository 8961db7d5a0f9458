"""Tier-1 gate on the import-layer DAG (DESIGN.md §3).

Asserts the layering invariant directly through the ``repro.devtools``
machinery — independent of the ``repro lint`` CLI path — so a layering
regression fails the plain test suite even when nobody runs the linter.
"""

import tomllib
from pathlib import Path

from repro.devtools import DEFAULT_LAYERS, LintConfig, LintEngine
from repro.devtools.rules import LayeringRule

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"


def layering_findings(config=None):
    engine = LintEngine(config or LintConfig(), rules=[LayeringRule])
    return engine.lint_paths([PACKAGE], root=REPO_ROOT)


class TestImportDag:
    def test_source_tree_respects_the_dag(self):
        findings = layering_findings()
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_every_package_has_a_layer_entry(self):
        """Each first-level package under repro/ is pinned in the layer map.

        A new package added without a layer decision would otherwise default
        to unrestricted and silently escape RL002.
        """
        packages = {
            child.name
            for child in PACKAGE.iterdir()
            if child.is_dir() and (child / "__init__.py").exists()
        }
        modules = {child.stem for child in PACKAGE.glob("*.py") if child.stem != "__init__"}
        missing = (packages | modules) - set(DEFAULT_LAYERS) - {"__main__"}
        assert missing == set(), f"packages without a layer entry: {sorted(missing)}"

    def test_declared_dag_is_acyclic(self):
        """The layer map itself must stay a DAG, not just the code under it."""
        edges = {
            layer: set(allowed)
            for layer, allowed in DEFAULT_LAYERS.items()
            if allowed != "*"
        }
        visiting, done = set(), set()

        def visit(layer):
            if layer in done or layer not in edges:
                return
            assert layer not in visiting, f"cycle through layer {layer!r}"
            visiting.add(layer)
            for target in edges[layer]:
                visit(target)
            visiting.remove(layer)
            done.add(layer)

        for layer in edges:
            visit(layer)

    def test_interpretation_core_stays_substrate_agnostic(self):
        """The paper-critical edges: core must not know automl or netsim.

        Checked against the machinery (not just the default config), so
        someone relaxing the config to silence RL002 trips this test.
        """
        for layer in ("core", "ml"):
            allowed = DEFAULT_LAYERS[layer]
            assert allowed != "*"
            assert "automl" not in allowed
            assert "experiments" not in allowed
            assert "netsim" not in allowed

    def test_runtime_is_a_bottom_layer(self):
        """The runtime reaches upper layers only through task names and an
        injected cache, so it may import nothing but ``rng`` and ``exceptions``."""
        assert set(DEFAULT_LAYERS["runtime"]) == {"rng", "exceptions"}

    def test_pyproject_layer_map_matches_the_defaults(self):
        """``[tool.reprolint.layers]`` restates DEFAULT_LAYERS; the copies must agree."""
        with open(REPO_ROOT / "pyproject.toml", "rb") as handle:
            layers = tomllib.load(handle)["tool"]["reprolint"]["layers"]

        def normalized(allowed):
            return allowed if allowed == "*" else sorted(allowed)

        for layer, allowed in layers.items():
            assert layer in DEFAULT_LAYERS, f"pyproject layer {layer!r} not in DEFAULT_LAYERS"
            assert normalized(allowed) == normalized(DEFAULT_LAYERS[layer]), layer
