"""Tests for repro.devtools — the reprolint invariant checker.

Each rule is exercised against inline fixture sources (violating and
conforming snippets), then the reporters, inline suppressions, config
allowlists, and the ``repro lint`` CLI path are covered end to end.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.devtools import (
    LintConfig,
    LintConfigError,
    LintEngine,
    config_from_table,
    registered_project_rules,
    registered_rules,
    render_json,
    render_text,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def lint(source, path, config=None):
    engine = LintEngine(config or LintConfig())
    return engine.lint_source(textwrap.dedent(source), path=Path(path))


def rule_ids(findings):
    return [finding.rule_id for finding in findings]


class TestRegistry:
    def test_all_six_rules_registered(self):
        ids = [cls.id for cls in registered_rules()]
        assert ids == ["RL001", "RL002", "RL003", "RL004", "RL005", "RL006"]

    def test_project_rules_registered(self):
        ids = [cls.id for cls in registered_project_rules()]
        assert ids == ["RL007"]

    def test_syntax_error_reported_not_raised(self):
        findings = lint("def broken(:\n", "src/repro/core/x.py")
        assert rule_ids(findings) == ["RL000"]


class TestRL001RngDiscipline:
    def test_flags_legacy_global_functions(self):
        findings = lint(
            """
            import numpy as np
            x = np.random.rand(3)
            np.random.seed(0)
            """,
            "src/repro/core/x.py",
        )
        assert rule_ids(findings) == ["RL001", "RL001"]
        # The alias resolves to the canonical module name in the message.
        assert findings[0].line == 3 and "numpy.random.rand" in findings[0].message

    def test_flags_stdlib_random(self):
        findings = lint(
            """
            import random
            random.shuffle([1, 2])
            """,
            "src/repro/core/x.py",
        )
        assert rule_ids(findings) == ["RL001"]
        assert "random.shuffle" in findings[0].message

    def test_flags_default_rng_construction_even_seeded(self):
        findings = lint(
            """
            import numpy as np
            from numpy.random import default_rng
            a = np.random.default_rng()
            b = default_rng(42)
            """,
            "src/repro/core/x.py",
        )
        assert rule_ids(findings) == ["RL001", "RL001"]
        assert "check_random_state" in findings[0].message

    def test_passed_generator_usage_is_clean(self):
        findings = lint(
            """
            import numpy as np

            def draw(rng: np.random.Generator) -> np.ndarray:
                return rng.uniform(0.0, 1.0, size=8)

            def normalize(random_state=None):
                if isinstance(random_state, np.random.Generator):
                    return random_state
                return None
            """,
            "src/repro/core/x.py",
        )
        assert findings == []

    def test_rng_module_is_allowlisted_by_default(self):
        findings = lint(
            """
            import numpy as np
            rng = np.random.default_rng(0)
            """,
            "src/repro/rng.py",
        )
        assert findings == []


class TestRL002Layering:
    def test_core_must_not_import_automl(self):
        findings = lint(
            "from ..automl.automl import AutoMLClassifier\n",
            "src/repro/core/bad.py",
        )
        assert rule_ids(findings) == ["RL002"]
        assert "'core' must not import 'automl'" in findings[0].message

    def test_ml_must_import_nothing_above_it(self):
        findings = lint(
            "import repro.experiments\nfrom ..core.ale import ale_curve\n",
            "src/repro/ml/bad.py",
        )
        assert rule_ids(findings) == ["RL002", "RL002"]

    def test_netsim_must_not_import_core(self):
        findings = lint(
            "from ..core.subspace import FeatureDomain\n",
            "src/repro/netsim/bad.py",
        )
        assert rule_ids(findings) == ["RL002"]
        assert "repro.core.subspace" in findings[0].message

    def test_allowed_edges_are_clean(self):
        findings = lint(
            """
            from ..exceptions import ValidationError
            from ..featurespace import FeatureDomain
            from ..ml.base import check_X_y
            from ..rng import check_random_state
            from .ale import ale_curve
            """,
            "src/repro/core/fine.py",
        )
        assert findings == []

    def test_relative_levels_resolve(self):
        # repro/netsim/cc/base.py: "from ...exceptions import X" climbs two
        # packages to repro; "from ...core import y" would leak a layer.
        clean = lint("from ...exceptions import EmulationError\n", "src/repro/netsim/cc/base.py")
        dirty = lint("from ...core.subspace import Box\n", "src/repro/netsim/cc/base.py")
        assert clean == []
        assert rule_ids(dirty) == ["RL002"]

    def test_experiments_and_cli_are_unrestricted(self):
        findings = lint(
            """
            from ..automl.automl import AutoMLClassifier
            from ..core.feedback import AleFeedback
            from ..netsim.emulator import run_packet_scenario
            """,
            "src/repro/experiments/fine.py",
        )
        assert findings == []

    def test_third_party_imports_ignored(self):
        findings = lint("import numpy\nimport scipy.stats\n", "src/repro/ml/fine.py")
        assert findings == []

    def test_layer_override_from_config(self):
        config = config_from_table({"layers": {"core": ["automl", "ml", "rng", "exceptions"]}})
        findings = lint(
            "from ..automl.automl import AutoMLClassifier\n",
            "src/repro/core/now_fine.py",
            config=config,
        )
        assert findings == []


class TestRL003EstimatorContract:
    def test_fit_must_return_self(self):
        findings = lint(
            """
            class Bad:
                def fit(self, X, y):
                    self.coef_ = X.mean()
                    return self.coef_

                def predict(self, X):
                    return X
            """,
            "src/repro/ml/bad.py",
        )
        assert rule_ids(findings) == ["RL003"]
        assert "return self" in findings[0].message

    def test_fit_without_any_return_flagged(self):
        findings = lint(
            """
            class Bad:
                def fit(self, X, y):
                    self.coef_ = X.mean()

                def predict(self, X):
                    return X
            """,
            "src/repro/ml/bad.py",
        )
        assert rule_ids(findings) == ["RL003"]

    def test_missing_predict_and_transform_flagged(self):
        findings = lint(
            """
            class Bad:
                def fit(self, X, y):
                    return self
            """,
            "src/repro/ml/bad.py",
        )
        assert rule_ids(findings) == ["RL003"]
        assert "predict/transform" in findings[0].message

    def test_mixin_and_same_module_base_provide_predict(self):
        findings = lint(
            """
            class ClassifierMixin:
                def predict(self, X):
                    return X

            class _Base(ClassifierMixin):
                def fit(self, X, y):
                    return self

            class Concrete(_Base):
                def fit(self, X, y):
                    return self
            """,
            "src/repro/ml/fine.py",
        )
        assert findings == []

    def test_randomness_requires_random_state(self):
        findings = lint(
            """
            from ..rng import check_random_state

            class Bad:
                def __init__(self, n_estimators=10):
                    self.n_estimators = n_estimators

                def fit(self, X, y):
                    rng = check_random_state(123)
                    return self

                def predict(self, X):
                    return X
            """,
            "src/repro/ml/bad.py",
        )
        assert rule_ids(findings) == ["RL003"]
        assert "random_state" in findings[0].message

    def test_randomness_with_random_state_is_clean(self):
        findings = lint(
            """
            from ..rng import check_random_state

            class Fine:
                def __init__(self, random_state=None):
                    self.random_state = random_state

                def fit(self, X, y):
                    rng = check_random_state(self.random_state)
                    return self

                def predict(self, X):
                    return X
            """,
            "src/repro/ml/fine.py",
        )
        assert findings == []

    def test_rule_scoped_to_ml_package(self):
        findings = lint(
            """
            class NotAnEstimator:
                def fit(self, curve):
                    return curve
            """,
            "src/repro/core/fine.py",
        )
        assert findings == []

    def test_real_transformer_shape_is_clean(self):
        findings = lint(
            """
            class Scaler:
                def fit(self, X, y=None):
                    self.mean_ = X.mean(axis=0)
                    return self

                def transform(self, X):
                    return X - self.mean_
            """,
            "src/repro/ml/fine.py",
        )
        assert findings == []


class TestRL004WallClock:
    def test_flags_clock_reads_outside_budget_owners(self):
        findings = lint(
            """
            import time
            from time import perf_counter

            start = time.monotonic()
            t = time.time()
            p = perf_counter()
            """,
            "src/repro/core/x.py",
        )
        assert rule_ids(findings) == ["RL004", "RL004", "RL004"]

    def test_budget_owning_modules_allowlisted(self):
        source = "import time\nstart = time.monotonic()\n"
        for allowed in (
            "src/repro/automl/search.py",
            "src/repro/automl/halving.py",
            "src/repro/runtime/clock.py",
        ):
            assert lint(source, allowed) == []

    def test_time_module_non_clock_use_is_clean(self):
        findings = lint("import time\ntime.sleep(0.0)\n", "src/repro/core/x.py")
        assert findings == []


class TestRL005Footguns:
    def test_mutable_defaults_flagged(self):
        findings = lint(
            """
            def f(items=[]):
                return items

            def g(*, table={}, tags=set(), factory=dict()):
                return table, tags, factory
            """,
            "src/repro/core/x.py",
        )
        assert rule_ids(findings) == ["RL005"] * 4

    def test_bare_except_flagged(self):
        findings = lint(
            """
            try:
                risky()
            except:
                pass
            """,
            "src/repro/core/x.py",
        )
        assert rule_ids(findings) == ["RL005"]
        assert "bare" in findings[0].message

    def test_conforming_defaults_and_handlers_clean(self):
        findings = lint(
            """
            def f(items=None, n=3, name="x"):
                items = [] if items is None else items
                return items

            try:
                risky()
            except ValueError:
                pass
            """,
            "src/repro/core/x.py",
        )
        assert findings == []


class TestRL006DocstringDrift:
    def test_removed_parameter_still_documented_flagged(self):
        findings = lint(
            '''
            def f(x):
                """Add.

                Parameters
                ----------
                x : int
                    Kept.
                y : int
                    Removed from the signature.
                """
                return x
            ''',
            "src/repro/core/x.py",
        )
        assert rule_ids(findings) == ["RL006"]
        assert "'y'" in findings[0].message

    def test_comma_separated_names_each_checked(self):
        findings = lint(
            '''
            def f(timeout):
                """Run.

                Parameters
                ----------
                timeout, retries : int
                    Only timeout survives.
                """
            ''',
            "src/repro/core/x.py",
        )
        assert rule_ids(findings) == ["RL006"]
        assert "'retries'" in findings[0].message

    def test_class_docstring_checked_against_own_init(self):
        findings = lint(
            '''
            class C:
                """Widget.

                Parameters
                ----------
                old_name:
                    Renamed to new_name.
                """

                def __init__(self, new_name=None):
                    self.new_name = new_name
            ''',
            "src/repro/core/x.py",
        )
        assert rule_ids(findings) == ["RL006"]
        assert "class 'C'" in findings[0].message

    def test_class_without_own_init_skipped(self):
        findings = lint(
            '''
            class Config:
                """A dataclass-style class.

                Parameters
                ----------
                anything:
                    Signature is generated, not visible statically.
                """

                n: int = 3
            ''',
            "src/repro/core/x.py",
        )
        assert findings == []

    def test_kwargs_absorbs_documented_names(self):
        findings = lint(
            '''
            def f(x, **kwargs):
                """Doc.

                Parameters
                ----------
                anything:
                    Lands in kwargs.
                """
            ''',
            "src/repro/core/x.py",
        )
        assert findings == []

    def test_matching_section_clean_and_later_sections_ignored(self):
        findings = lint(
            '''
            def f(x, *items, retries=0):
                """Doc.

                Parameters
                ----------
                x : int
                    With a deeper-indented description line
                    that must not parse as an entry.
                *items:
                    Star-prefixed entry.
                retries:
                    Keyword-only.

                Returns
                -------
                value : int
                    Return names are not parameters.
                """
            ''',
            "src/repro/core/x.py",
        )
        assert findings == []

    def test_undocumented_parameters_allowed(self):
        findings = lint(
            '''
            def f(x, y, z):
                """Doc.

                Parameters
                ----------
                x : int
                    The only interesting one.
                """
            ''',
            "src/repro/core/x.py",
        )
        assert findings == []


class TestSuppressionsAndAllowlists:
    def test_inline_disable_suppresses_matching_rule(self):
        findings = lint(
            """
            import numpy as np
            a = np.random.rand(3)  # reprolint: disable=RL001
            b = np.random.rand(3)  # reprolint: disable=RL004
            c = np.random.rand(3)
            """,
            "src/repro/core/x.py",
        )
        assert [finding.line for finding in findings] == [4, 5]

    def test_inline_disable_all(self):
        findings = lint(
            "import time\nt = time.time()  # reprolint: disable=all\n",
            "src/repro/core/x.py",
        )
        assert findings == []

    def test_config_allowlist_glob_and_suffix(self):
        config = config_from_table({"allow": {"RL004": ["src/repro/core/clocky.py", "*/generated/*"]}})
        source = "import time\nt = time.time()\n"
        assert lint(source, "src/repro/core/clocky.py", config=config) == []
        assert lint(source, "src/repro/generated/out.py", config=config) == []
        assert rule_ids(lint(source, "src/repro/core/other.py", config=config)) == ["RL004"]

    def test_config_disable_rule_globally(self):
        config = config_from_table({"disable": ["RL005"]})
        findings = lint("def f(x=[]):\n    return x\n", "src/repro/core/x.py", config=config)
        assert findings == []

    def test_config_merges_over_defaults(self):
        # Adding an allowlist entry must not drop the built-in rng.py one.
        config = config_from_table({"allow": {"RL001": ["somewhere/else.py"]}})
        assert lint("import numpy as np\nnp.random.default_rng()\n", "src/repro/rng.py", config=config) == []

    def test_malformed_table_rejected(self):
        with pytest.raises(LintConfigError):
            config_from_table({"disable": "RL001"})
        with pytest.raises(LintConfigError):
            config_from_table({"layers": {"core": 7}})


class TestReporters:
    def _findings(self):
        return lint(
            "import numpy as np\nnp.random.seed(0)\nimport time\nt = time.time()\n",
            "src/repro/core/x.py",
        )

    def test_text_report_names_file_line_rule(self):
        text = render_text(self._findings())
        assert "src/repro/core/x.py:2:0 RL001" in text
        assert "src/repro/core/x.py:4:4 RL004" in text
        assert text.endswith("reprolint: 2 findings")

    def test_json_report_is_valid_and_stable(self):
        first = render_json(self._findings())
        second = render_json(self._findings())
        assert first == second
        document = json.loads(first)
        assert document["count"] == 2
        assert [f["rule"] for f in document["findings"]] == ["RL001", "RL004"]
        assert set(document["findings"][0]) == {"path", "line", "col", "rule", "severity", "message"}

    def test_findings_sorted_deterministically(self):
        findings = self._findings()
        assert findings == sorted(findings)


class TestRL007DeadExport:
    """Cross-file dead-export detection via ``LintEngine.lint_project``."""

    @staticmethod
    def write_tree(tmp_path, files):
        """Write a src-layout package tree and return the file paths."""
        paths = []
        for relative, source in files.items():
            path = tmp_path / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source), encoding="utf-8")
            paths.append(path)
        # Make every directory between src/ and each module a package, so
        # engine module resolution sees the full dotted path (repro.core.x).
        for path in paths:
            if "src" not in path.parts:
                continue
            current = path.parent
            while current.name != "src" and current != tmp_path:
                init = current / "__init__.py"
                if not init.exists():
                    init.write_text("", encoding="utf-8")
                current = current.parent
        return paths

    def scan(self, tmp_path, files, config=None):
        self.write_tree(tmp_path, files)
        engine = LintEngine(config or LintConfig())
        return engine.lint_project([tmp_path], root=tmp_path)

    def test_unused_export_flagged(self, tmp_path):
        findings = self.scan(
            tmp_path,
            {
                "src/repro/core/util.py": """
                __all__ = ["used_helper", "dead_helper"]

                def used_helper():
                    return 1

                def dead_helper():
                    return 2
                """,
                "benchmarks/bench_util.py": """
                from repro.core.util import used_helper

                used_helper()
                """,
            },
        )
        assert [f.rule_id for f in findings] == ["RL007"]
        assert "dead_helper" in findings[0].message
        assert findings[0].path.endswith("util.py")

    def test_export_used_only_in_own_module_is_dead(self, tmp_path):
        findings = self.scan(
            tmp_path,
            {
                "src/repro/core/util.py": """
                __all__ = ["internal_only"]

                def internal_only():
                    return 1

                VALUE = internal_only()
                """,
            },
        )
        assert [f.rule_id for f in findings] == ["RL007"]

    def test_attribute_access_counts_as_use(self, tmp_path):
        findings = self.scan(
            tmp_path,
            {
                "src/repro/core/util.py": """
                __all__ = ["helper"]

                def helper():
                    return 1
                """,
                "benchmarks/bench.py": """
                import repro.core.util as util

                util.helper()
                """,
            },
        )
        assert findings == []

    def test_star_import_exempts_module(self, tmp_path):
        findings = self.scan(
            tmp_path,
            {
                "src/repro/core/util.py": """
                __all__ = ["maybe_used"]

                def maybe_used():
                    return 1
                """,
                "src/repro/cli.py": """
                from repro.core.util import *
                """,
            },
        )
        assert findings == []

    def test_export_consumed_only_by_tests_is_dead(self, tmp_path):
        """The default usage universe counts production consumers, not tests."""
        self.write_tree(
            tmp_path,
            {
                "src/repro/core/util.py": """
                __all__ = ["tested_only", "benchmarked"]

                def tested_only():
                    return 1

                def benchmarked():
                    return 2
                """,
                "tests/test_util.py": """
                from repro.core.util import benchmarked, tested_only

                assert tested_only() == 1 and benchmarked() == 2
                """,
                "perfbench/run.py": """
                from repro.core.util import benchmarked
                """,
            },
        )
        config = LintConfig(base_dir=tmp_path)
        assert config.deadcode_roots == ["src", "benchmarks", "examples", "perfbench"]
        findings = LintEngine(config).lint_project([tmp_path / "src"], root=tmp_path)
        assert [f.rule_id for f in findings] == ["RL007"]
        assert "'repro.core.util.tested_only'" in findings[0].message

    def test_allowlist_by_name_and_qualified_glob(self, tmp_path):
        files = {
            "src/repro/core/util.py": """
            __all__ = ["public_api", "other_dead"]

            def public_api():
                return 1

            def other_dead():
                return 2
            """,
        }
        config = config_from_table({"deadcode": {"allow": ["repro.core.util.public_api"]}})
        findings = self.scan(tmp_path, files, config=config)
        assert len(findings) == 1 and "other_dead" in findings[0].message
        config = config_from_table({"deadcode": {"allow": ["repro.core.*"]}})
        findings = self.scan(tmp_path, files, config=config)
        assert findings == []

    def test_inline_suppression_honored(self, tmp_path):
        findings = self.scan(
            tmp_path,
            {
                "src/repro/core/util.py": """
                __all__ = [
                    "quiet_dead",  # reprolint: disable=RL007
                ]

                def quiet_dead():
                    return 1
                """,
            },
        )
        assert findings == []

    def test_disable_in_config(self, tmp_path):
        config = config_from_table({"disable": ["RL007"]})
        findings = self.scan(
            tmp_path,
            {
                "src/repro/core/util.py": """
                __all__ = ["dead"]

                def dead():
                    return 1
                """,
            },
            config=config,
        )
        assert findings == []

    def test_cli_reports_dead_export(self, tmp_path, capsys, monkeypatch):
        self.write_tree(
            tmp_path,
            {
                "src/repro/core/util.py": """
                __all__ = ["dead_name"]

                def dead_name():
                    return 1
                """,
            },
        )
        monkeypatch.chdir(tmp_path)  # keep the repo pyproject out of discovery
        exit_code = repro_main(["lint", str(tmp_path / "src")])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "RL007" in out and "dead_name" in out


class TestEndToEnd:
    def test_shipped_tree_is_clean_via_cli(self, capsys):
        exit_code = repro_main(["lint", str(SRC / "repro")])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "0 findings" in out

    def test_seeded_violation_fails_with_location(self, tmp_path, capsys):
        # Reproduce the acceptance scenario: a stray np.random.rand() in a
        # copy of core/ale.py must fail the lint run, naming file/line/rule.
        bad_tree = tmp_path / "src" / "repro" / "core"
        bad_tree.mkdir(parents=True)
        original = (SRC / "repro" / "core" / "ale.py").read_text(encoding="utf-8")
        bad_file = bad_tree / "ale.py"
        bad_file.write_text(original + "\n_noise = np.random.rand(3)\n", encoding="utf-8")
        n_lines = original.count("\n") + 2

        exit_code = repro_main(["lint", str(tmp_path / "src")])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert f"ale.py:{n_lines}" in out
        assert "RL001" in out

    def test_json_format_flag(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n", encoding="utf-8")
        exit_code = repro_main(["lint", str(bad), "--format", "json"])
        document = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        assert document["count"] == 1
        assert document["findings"][0]["rule"] == "RL004"

    def test_missing_path_is_usage_error(self, capsys):
        exit_code = repro_main(["lint", "no/such/dir"])
        assert exit_code == 2
        assert "no such path" in capsys.readouterr().err
