"""Tier-1 gate: the shipped tree is reprolint-clean.

Runs the full rule set programmatically over ``src/repro``,
``benchmarks/``, ``examples/`` *and* ``perfbench/`` with the real ``[tool.reprolint]``
configuration from ``pyproject.toml`` and asserts zero findings — the
repo stays lint-clean without any external CI infrastructure.
Benchmarks and examples adopted the RL001 rng-discipline contract (seeds
or :func:`repro.rng.check_random_state`, never bare ``default_rng``),
since a number produced outside the contract cannot back a claim.

The project-wide pass (RL007 dead-export detection) scans source,
benchmarks, examples and perfbench together: an ``__all__`` export with
no consumer anywhere in that set must be deleted or explicitly
allowlisted under ``[tool.reprolint.deadcode]``.  Tests are not in the
set, so code that only tests reach counts as dead.
"""

from pathlib import Path

from repro.devtools import (
    LintEngine,
    load_config,
    registered_project_rules,
    registered_rules,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = REPO_ROOT / "pyproject.toml"

#: Every tree the per-file rules gate.
LINTED_TREES = ("src/repro", "benchmarks", "examples", "perfbench")
#: The RL007 usage universe: exports must be consumed somewhere in here.
PROJECT_SCAN_TREES = ("src/repro", "benchmarks", "examples", "perfbench")


class TestLintClean:
    def test_src_tree_has_zero_findings(self):
        config = load_config(PYPROJECT)
        engine = LintEngine(config)
        findings = engine.lint_paths([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_benchmarks_tree_has_zero_findings(self):
        config = load_config(PYPROJECT)
        engine = LintEngine(config)
        findings = engine.lint_paths([REPO_ROOT / "benchmarks"], root=REPO_ROOT)
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_examples_tree_has_zero_findings(self):
        config = load_config(PYPROJECT)
        engine = LintEngine(config)
        findings = engine.lint_paths([REPO_ROOT / "examples"], root=REPO_ROOT)
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_perfbench_tree_has_zero_findings(self):
        config = load_config(PYPROJECT)
        engine = LintEngine(config)
        findings = engine.lint_paths([REPO_ROOT / "perfbench"], root=REPO_ROOT)
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_project_scan_has_zero_findings(self):
        """RL007: no dead exports anywhere in the src+benchmarks+examples+perfbench set."""
        config = load_config(PYPROJECT)
        engine = LintEngine(config)
        findings = engine.lint_project(
            [REPO_ROOT / tree for tree in PROJECT_SCAN_TREES], root=REPO_ROOT
        )
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_gate_runs_all_rules(self):
        """The clean-run gate must not pass because rules were disabled."""
        config = load_config(PYPROJECT)
        enabled = [cls.id for cls in registered_rules() if config.rule_enabled(cls.id)]
        assert enabled == ["RL001", "RL002", "RL003", "RL004", "RL005", "RL006"]
        enabled_project = [
            cls.id for cls in registered_project_rules() if config.rule_enabled(cls.id)
        ]
        assert enabled_project == ["RL007"]

    def test_pyproject_table_present(self):
        text = PYPROJECT.read_text(encoding="utf-8")
        assert "[tool.reprolint]" in text
        assert "[tool.reprolint.deadcode]" in text
