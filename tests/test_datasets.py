"""Tests for dataset generation and the split protocol."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import (
    FIREWALL_ACTIONS,
    FIREWALL_FEATURES,
    LabeledDataset,
    ScreamOracle,
    firewall_domains,
    generate_firewall_dataset,
    generate_scream_dataset,
    make_test_sets,
    split_train_test_pool,
)
from repro.datasets import scream
from repro.datasets.scream import RIVAL_ORDER, scream_label
from repro.exceptions import ValidationError
from repro.netsim import PROTOCOLS, run_fluid_scenario, run_packet_scenario
from repro.netsim.scenarios import DEFAULT_SPACE
from repro.rng import check_random_state


class TestLabeledDataset:
    def _dataset(self):
        return LabeledDataset(
            X=np.arange(12.0).reshape(6, 2),
            y=np.array([0, 1, 0, 1, 0, 1]),
            feature_names=["a", "b"],
            domains=[],
        )

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            LabeledDataset(X=np.zeros((3, 2)), y=np.zeros(4), feature_names=["a", "b"], domains=[])
        with pytest.raises(ValidationError):
            LabeledDataset(X=np.zeros((3, 2)), y=np.zeros(3), feature_names=["a"], domains=[])

    def test_subset(self):
        subset = self._dataset().subset([0, 2])
        assert subset.n_samples == 2
        assert subset.X[1, 0] == 4.0

    def test_extended_appends(self):
        dataset = self._dataset()
        extended = dataset.extended(np.array([[100.0, 101.0]]), np.array([1]))
        assert extended.n_samples == 7
        assert extended.y[-1] == 1
        assert dataset.n_samples == 6  # original untouched

    def test_class_balance(self):
        assert self._dataset().class_balance() == {0: 3, 1: 3}


class TestScreamDataset:
    def test_shapes_and_labels(self, scream_data):
        assert scream_data.n_features == 4
        assert scream_data.feature_names == ["bandwidth_mbps", "rtt_ms", "loss_rate", "n_flows"]
        assert set(np.unique(scream_data.y)) <= {0, 1}

    def test_both_classes_present(self, scream_data):
        balance = scream_data.class_balance()
        assert len(balance) == 2

    def test_label_imbalance_matches_paper_story(self, scream_data):
        # The paper's dataset 1 is imbalanced (upsampling helps): scream
        # wins a meaningful minority of the time.
        positive = scream_data.class_balance()[1] / scream_data.n_samples
        assert 0.10 <= positive <= 0.55

    def test_reproducible(self):
        a = generate_scream_dataset(30, random_state=9)
        b = generate_scream_dataset(30, random_state=9)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)

    def test_biased_sampling_shifts_features(self):
        biased = generate_scream_dataset(80, biased=True, random_state=10)
        uniform = generate_scream_dataset(80, biased=False, random_state=10)
        assert biased.X[:, 2].mean() < uniform.X[:, 2].mean()

    def test_invalid_sizes(self):
        with pytest.raises(ValidationError):
            generate_scream_dataset(0)


def _argmin_label(scores: dict) -> int:
    """The label as the argmin over all five scores: first minimum in sorted order."""
    finite = {protocol: scores[protocol] for protocol in sorted(scores) if scores[protocol] < float("inf")}
    return int(bool(finite) and min(finite, key=finite.get) == "scream")


def _all_scores(run, scenario, seed: int, min_share: float = 0.08) -> dict:
    """Every protocol's latency score, each on ``seed + <index in sorted(PROTOCOLS)>``."""
    return {
        protocol: run(scenario, protocol, random_state=seed + index).latency_score(min_share=min_share)
        for index, protocol in enumerate(sorted(PROTOCOLS))
    }


def _crafted_label(scores: dict) -> tuple[int, list]:
    """``scream_label`` on fixed scores, with the protocols it asked for."""
    asked = []

    def score(protocol):
        asked.append(protocol)
        return scores[protocol]

    return scream_label(score), asked


def _draw_seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


class TestScreamOracle:
    def test_label_matches_best_protocol(self):
        oracle = ScreamOracle(random_state=0)
        twin = check_random_state(0)
        points = ([50.0, 50.0, 0.015, 2.0], [20.0, 40.0, 0.0, 2.0], [10.0, 80.0, 0.018, 1.0], [5.0, 80.0, 0.01, 4.0])
        labels, expected = [], []
        for features in points:
            scenario = DEFAULT_SPACE.scenario_from_features(features)
            expected.append(_argmin_label(_all_scores(run_fluid_scenario, scenario, _draw_seed(twin))))
            labels.append(oracle.label_one(features))
        assert labels == expected
        assert set(expected) == {0, 1}

    def test_vectorized_label(self):
        oracle = ScreamOracle(random_state=1)
        X = np.array([[20.0, 40.0, 0.0, 2.0], [10.0, 80.0, 0.018, 1.0]])
        labels = oracle.label(X)
        assert labels.shape == (2,)
        assert oracle.queries == 2

    def test_invalid_engine(self):
        with pytest.raises(ValidationError):
            ScreamOracle(engine="quantum")

    def test_packet_engine_usable(self):
        oracle = ScreamOracle(engine="packet", random_state=2)
        label = oracle.label_one([20.0, 40.0, 0.0, 1.0])
        assert label in (0, 1)


class TestScreamDecision:
    """``scream_label`` on crafted scores: the argmin's tie rule and the early exit."""

    def test_rival_order_covers_every_protocol(self):
        assert sorted(RIVAL_ORDER + ("scream",)) == sorted(PROTOCOLS)

    @pytest.mark.parametrize("rival", ["bbr", "cubic", "reno"])
    def test_tie_with_a_name_sorting_before_scream_is_negative(self, rival):
        scores = dict.fromkeys(PROTOCOLS, 9.0)
        scores["scream"] = scores[rival] = 5.0
        assert _crafted_label(scores)[0] == 0 == _argmin_label(scores)

    def test_tie_with_vegas_only_is_positive(self):
        scores = dict.fromkeys(PROTOCOLS, 9.0)
        scores["scream"] = scores["vegas"] = 5.0
        label, asked = _crafted_label(scores)
        assert label == 1 == _argmin_label(scores)
        assert asked == ["scream", *RIVAL_ORDER]

    @pytest.mark.parametrize("scream", [float("inf"), float("nan")])
    def test_disqualified_scream_is_negative_after_one_run(self, scream):
        scores = dict.fromkeys(PROTOCOLS, 9.0)
        scores["scream"] = scream
        assert _crafted_label(scores) == (0, ["scream"])
        assert _argmin_label(scores) == 0

    def test_all_disqualified_is_negative(self):
        scores = dict.fromkeys(PROTOCOLS, float("inf"))
        assert _crafted_label(scores) == (0, ["scream"])
        assert _argmin_label(scores) == 0

    def test_disqualified_or_nan_rivals_never_beat_scream(self):
        nan, inf = float("nan"), float("inf")
        scores = {"bbr": nan, "cubic": inf, "reno": 9.0, "scream": 5.0, "vegas": nan}
        assert _crafted_label(scores)[0] == 1 == _argmin_label(scores)

    def test_stops_at_the_first_rival_that_beats_scream(self):
        scores = dict.fromkeys(PROTOCOLS, 1.0)
        scores["scream"] = 5.0
        scores[RIVAL_ORDER[0]] = 9.0
        assert _crafted_label(scores) == (0, ["scream", *RIVAL_ORDER[:2]])

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from([1.0, 2.0, 3.0, float("inf"), float("nan")]),
            min_size=len(PROTOCOLS),
            max_size=len(PROTOCOLS),
        )
    )
    def test_matches_the_argmin_rule(self, values):
        scores = dict(zip(sorted(PROTOCOLS), values))
        label, asked = _crafted_label(scores)
        assert label == _argmin_label(scores)
        assert asked[0] == "scream" and len(set(asked)) == len(asked)


class TestScreamOracleEquivalence:
    """The early-exit oracle against the five-score argmin, on emulated scenarios.

    The reference draws each label's seed from a twin of the oracle's
    generator, so equal labels, equal query counts and an equal next draw
    show that the labels and the oracle's stream are bitwise unchanged.
    """

    def _check(self, scenarios, engine, run, seed):
        oracle = ScreamOracle(engine=engine, random_state=seed)
        twin = check_random_state(seed)
        for scenario in scenarios:
            features = scenario.as_features()
            scores = _all_scores(run, DEFAULT_SPACE.scenario_from_features(features), _draw_seed(twin))
            assert oracle.label_one(features) == _argmin_label(scores)
        assert oracle.queries == len(scenarios)
        assert _draw_seed(oracle._rng) == _draw_seed(twin)

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_fluid_uniform(self, seed):
        self._check(DEFAULT_SPACE.sample(100, seed), "fluid", run_fluid_scenario, seed)

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_fluid_biased(self, seed):
        self._check(DEFAULT_SPACE.sample_production_biased(100, seed), "fluid", run_fluid_scenario, seed)

    def test_packet(self, monkeypatch):
        # The packet engine is deterministic in its arguments, and the oracle
        # must call it with arguments the reference already used.  A memo
        # keyed on all of them spares the oracle's runs (a third of the
        # cost) and shows that its seeds match: no call may miss.
        memo, hits = {}, []

        def run(scenario, protocol, *, random_state):
            key = (scenario, protocol, random_state)
            if key in memo:
                hits.append(key)
            else:
                memo[key] = run_packet_scenario(scenario, protocol, random_state=random_state)
            return memo[key]

        monkeypatch.setattr(scream, "run_packet_scenario", run)
        self._check(DEFAULT_SPACE.sample(10, 14), "packet", run, 14)
        assert len(memo) == 10 * len(PROTOCOLS)
        assert len(hits) >= 10


class TestFirewallDataset:
    def test_schema(self, firewall_data):
        assert firewall_data.feature_names == FIREWALL_FEATURES
        assert firewall_data.n_features == 11
        assert set(np.unique(firewall_data.y)) <= set(FIREWALL_ACTIONS)

    def test_four_classes_with_rare_reset(self, firewall_data):
        balance = firewall_data.class_balance()
        assert len(balance) == 4
        assert balance["allow"] == max(balance.values())
        assert balance["reset-both"] == min(balance.values())

    def test_ports_in_domain(self, firewall_data):
        for column in range(4):
            values = firewall_data.X[:, column]
            assert values.min() >= 0 and values.max() <= 65535
            assert np.all(values == np.round(values))

    def test_counters_consistent(self, firewall_data):
        names = firewall_data.feature_names
        bytes_total = firewall_data.X[:, names.index("bytes")]
        bytes_sent = firewall_data.X[:, names.index("bytes_sent")]
        bytes_received = firewall_data.X[:, names.index("bytes_received")]
        assert np.allclose(bytes_total, bytes_sent + bytes_received)

    def test_low_src_ports_concentrated_in_attack_traffic(self, firewall_data):
        names = firewall_data.feature_names
        src = firewall_data.X[:, names.index("src_port")]
        low = src < 1024
        # Benign traffic uses ephemeral ports, so low source ports should
        # be mostly non-allow (scan/flood) records.
        allow_fraction_low = np.mean(firewall_data.y[low] == "allow")
        assert allow_fraction_low < 0.2

    def test_dst_443_445_has_mixed_actions(self, firewall_data):
        names = firewall_data.feature_names
        dst = firewall_data.X[:, names.index("dst_port")]
        flood_zone = (dst >= 443) & (dst <= 445) & (firewall_data.X[:, names.index("nat_dst_port")] == 0)
        actions = set(firewall_data.y[flood_zone])
        assert len(actions) >= 3  # the ambiguity §4.2's story needs

    def test_domains_cover_data(self, firewall_data):
        for domain, column in zip(firewall_domains(), firewall_data.X.T):
            assert column.min() >= domain.low - 1e-9
            assert column.max() <= domain.high + 1e-9

    def test_label_noise_bounds(self):
        with pytest.raises(ValidationError):
            generate_firewall_dataset(100, label_noise=0.7)
        with pytest.raises(ValidationError):
            generate_firewall_dataset(5)

    def test_zero_noise_supported(self):
        dataset = generate_firewall_dataset(200, label_noise=0.0, random_state=0)
        assert dataset.n_samples == 200


class TestSplits:
    def test_fractions(self, firewall_data):
        bundle = split_train_test_pool(firewall_data, random_state=0)
        n = firewall_data.n_samples
        assert bundle.train.n_samples == pytest.approx(0.4 * n, abs=2)
        assert sum(t.n_samples for t in bundle.test_sets) == pytest.approx(0.2 * n, abs=2)
        assert bundle.pool.n_samples == pytest.approx(0.4 * n, abs=2)

    def test_twenty_test_sets_default(self, firewall_data):
        bundle = split_train_test_pool(firewall_data, random_state=0)
        assert bundle.n_test_sets == 20

    def test_no_row_shared_between_parts(self, firewall_data):
        bundle = split_train_test_pool(firewall_data, random_state=1)
        # Use the feature rows as identity (generator rows are unique with
        # overwhelming probability given continuous counters).
        train_rows = {tuple(row) for row in bundle.train.X}
        pool_rows = {tuple(row) for row in bundle.pool.X}
        test_rows = {tuple(row) for t in bundle.test_sets for row in t.X}
        assert not (train_rows & pool_rows)
        assert not (train_rows & test_rows)
        assert not (pool_rows & test_rows)

    def test_make_test_sets_partition(self, scream_data):
        sets = make_test_sets(scream_data, 8, random_state=0)
        assert len(sets) == 8
        assert sum(s.n_samples for s in sets) == scream_data.n_samples

    def test_invalid_fractions(self, firewall_data):
        with pytest.raises(ValidationError):
            split_train_test_pool(firewall_data, train_fraction=0.8, test_fraction=0.3)

    def test_describe(self, firewall_data):
        bundle = split_train_test_pool(firewall_data, random_state=0)
        assert "train=" in bundle.describe()
