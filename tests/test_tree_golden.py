"""Golden master for CART growth: every fitted tree array, bitwise.

Every model family in the AutoML ensemble that is built from trees (the
classifier, both forests and gradient boosting's regression trees) is a
pure function of the split search, so a change to the search that moves a
single threshold, gain tie-break or random draw shows up here before it
moves a grid score.  The classifier cases are the full product of
criterion (gini, entropy), ``max_features`` (None, "sqrt", "log2", 0.5, 3),
``min_samples_leaf`` (1, 5) and splitter (best, random) over 2-, 3- and
4-class data whose columns include heavy ties and a constant.  The other
cases are regression trees, a random forest and extra-trees whose member
bootstraps miss a rare class, and a gradient-boosting classifier with
``subsample`` < 1.

Each array is stored as one string of its elements' ``repr`` (``value``'s
rows joined by ``"; "``) and compared with ``==``.  Regenerate only after an
*intentional* change to tree growth with::

    PYTHONPATH=src python tests/test_tree_golden.py --regenerate
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from repro.ml.boosting import GradientBoostingClassifier
from repro.ml.forest import ExtraTreesClassifier, RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor

FIXTURE = Path(__file__).resolve().parent / "golden" / "tree_golden.json"

TREE_ARRAYS = ("children_left", "children_right", "feature", "threshold", "n_samples", "value")


def _features(rng: np.random.Generator, n: int) -> np.ndarray:
    """Six columns: two continuous, three heavily tied and one constant."""
    return np.column_stack(
        [
            rng.normal(size=n),
            rng.normal(size=n).round(1),
            rng.integers(0, 4, size=n).astype(np.float64),
            np.full(n, 2.5),
            rng.uniform(-1.0, 1.0, size=n),
            rng.integers(0, 2, size=n).astype(np.float64),
        ]
    )


def _classification_data(n_classes: int, seed: int = 0, n: int = 60) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    X = _features(rng, n)
    score = X[:, 0] + 0.5 * X[:, 2] - X[:, 4] + 0.4 * rng.normal(size=n)
    cuts = np.quantile(score, np.linspace(0.0, 1.0, n_classes + 1)[1:-1])
    return X, np.digitize(score, cuts)


def _regression_data(seed: int = 1, n: int = 80) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    X = _features(rng, n)
    return X, np.sin(2.0 * X[:, 0]) + 0.5 * X[:, 2] + 0.1 * rng.normal(size=n)


def _rare_class_data() -> tuple[np.ndarray, np.ndarray]:
    """Three classes, one of them a single row: most bootstraps miss it."""
    X, y = _classification_data(2, seed=2, n=50)
    y = y.copy()
    y[7] = 2
    return X, y


CLASSIFIER_GRID = list(
    itertools.product(
        (2, 3, 4),
        ("gini", "entropy"),
        (None, "sqrt", "log2", 0.5, 3),
        (1, 5),
        ("best", "random"),
    )
)


def _classifier_name(n_classes, criterion, max_features, min_samples_leaf, splitter) -> str:
    return f"clf_{n_classes}class_{criterion}_mf{max_features}_leaf{min_samples_leaf}_{splitter}"


def _encode(tree: dict[str, np.ndarray]) -> dict[str, str]:
    """One string per array: elements joined by spaces, ``value`` rows by ``"; "``."""
    rows = {name: [tree[name].tolist()] for name in TREE_ARRAYS}
    rows["value"] = tree["value"].tolist()
    return {name: "; ".join(" ".join(map(repr, row)) for row in rows[name]) for name in TREE_ARRAYS}


def _fit_classifier(n_classes, criterion, max_features, min_samples_leaf, splitter, seed):
    X, y = _classification_data(n_classes)
    model = DecisionTreeClassifier(
        criterion=criterion,
        max_features=max_features,
        min_samples_leaf=min_samples_leaf,
        splitter=splitter,
        random_state=seed,
    )
    return [model.fit(X, y).tree_]


def _fit_regressor(max_depth, min_samples_leaf, max_features):
    X, y = _regression_data()
    model = DecisionTreeRegressor(
        max_depth=max_depth, min_samples_leaf=min_samples_leaf, max_features=max_features, random_state=3
    )
    return [model.fit(X, y).tree_]


def _fit_forest(cls):
    X, y = _rare_class_data()
    forest = cls(n_estimators=6, max_features="sqrt", random_state=4).fit(X, y)
    return [tree.tree_ for tree in forest.estimators_]


def _fit_boosting():
    X, y = _classification_data(3, seed=5, n=70)
    model = GradientBoostingClassifier(n_estimators=4, max_depth=3, subsample=0.7, random_state=6).fit(X, y)
    return [tree.tree_ for stage in model.stages_ for tree in stage]


def _cases() -> dict:
    cases = {}
    for seed, params in enumerate(CLASSIFIER_GRID):
        cases[_classifier_name(*params)] = lambda params=params, seed=seed: _fit_classifier(*params, seed)
    for max_depth, min_samples_leaf, max_features in ((None, 1, None), (4, 1, None), (None, 5, None), (None, 1, "sqrt")):
        name = f"reg_depth{max_depth}_leaf{min_samples_leaf}_mf{max_features}"
        cases[name] = lambda args=(max_depth, min_samples_leaf, max_features): _fit_regressor(*args)
    cases["random_forest_rare_class"] = lambda: _fit_forest(RandomForestClassifier)
    cases["extra_trees_rare_class"] = lambda: _fit_forest(ExtraTreesClassifier)
    cases["boosting_subsample"] = _fit_boosting
    return cases


CASES = _cases()


def _run(name: str) -> list[dict[str, str]]:
    return [_encode(tree) for tree in CASES[name]()]


def _load() -> dict[str, list[dict[str, str]]]:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))["cases"]


@pytest.fixture(scope="module")
def golden():
    return _load()


@pytest.mark.parametrize("case", sorted(CASES))
def test_trees_match_golden(case, golden):
    assert _run(case) == golden[case]


def test_rare_class_is_missed_by_some_bootstrap():
    """The forest case exercises member trees fit on a class subset."""
    X, y = _rare_class_data()
    forest = RandomForestClassifier(n_estimators=6, max_features="sqrt", random_state=4).fit(X, y)
    assert any(len(tree.classes_) < forest.n_classes_ for tree in forest.estimators_)


def _regenerate() -> None:
    cases = {name: _run(name) for name in sorted(CASES)}
    FIXTURE.write_text(json.dumps({"arrays": list(TREE_ARRAYS), "cases": cases}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE} ({sum(len(v) for v in cases.values())} trees in {len(cases)} cases)")


if __name__ == "__main__":
    import sys

    if "--regenerate" not in sys.argv:
        raise SystemExit("usage: python tests/test_tree_golden.py --regenerate")
    _regenerate()
