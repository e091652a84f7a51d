import numpy as np
import pytest

from conftest import make_planted_splits
from coevonet.baselines import (
    BaselineError, SCALARIZED_SCENARIOS, cfs_select, discretize_equal_frequency, fit_reduction,
    mrmr_select, mutual_information, pca_reduce, reduce_splits, rule_of_thumb,
    scalarized_search, symmetrical_uncertainty,
)
from coevonet.genome import SearchSpaceConfig
from coevonet.moea import Nsga2Config, nsga2_run
from coevonet.neural import ScgConfig
from coevonet.objectives import (CoevolutionProblem, EvalConfig, ScalarizedConfig,
                                 TopologyOnlyProblem)


class TestPca:
    def test_isotropic_variance_split(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4000, 3))
        model = pca_reduce(x, n_components=3)
        assert np.allclose(model.explained_variance_ratio, 1 / 3, atol=0.03)

    def test_perfectly_correlated_line(self):
        rng = np.random.default_rng(2)
        t = rng.normal(size=500)
        x = np.column_stack([t, t]) + rng.normal(scale=1e-6, size=(500, 2))
        model = pca_reduce(x, n_components=1)
        assert model.explained_variance_ratio[0] > 0.999999

    def test_full_reconstruction(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(100, 6))
        model = pca_reduce(x, n_components=6)
        back = model.inverse_transform(model.transform(x))
        assert np.abs(back - x).max() < 1e-8

    def test_variance_target_respects_rank(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=(80, 2))
        x = np.column_stack([base, base @ rng.normal(size=(2, 3))])  # rank 2
        model = pca_reduce(x, variance_target=0.9999)
        assert model.n_components <= 2

    def test_rank_deficient_count_warns(self, caplog):
        rng = np.random.default_rng(5)
        t = rng.normal(size=50)
        x = np.column_stack([t, 2 * t, -t])
        with caplog.at_level("WARNING"):
            model = pca_reduce(x, n_components=3)
        assert model.n_components == 1

    def test_argument_validation(self):
        with pytest.raises(BaselineError):
            pca_reduce(np.zeros((5, 2)))
        with pytest.raises(BaselineError):
            pca_reduce(np.zeros((5, 2)), n_components=1, variance_target=0.9)


def planted_matrix(n=400, n_features=10, seed=0, duplicate_informative=False):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, n_features))
    y = (x[:, 0] > 0).astype(int)
    if duplicate_informative:
        x[:, 1] = x[:, 0]
    return x, y


class TestFilters:
    def test_mrmr_picks_determining_feature_first(self):
        x, y = planted_matrix()
        result = mrmr_select(x, y, k=3)
        assert result.feature_indices[0] == 0

    def test_mrmr_first_pick_maximizes_mi(self):
        x, y = planted_matrix(seed=8)
        result = mrmr_select(x, y, k=1)
        mis = [mutual_information(discretize_equal_frequency(x[:, j]), y)
               for j in range(x.shape[1])]
        assert result.feature_indices[0] == int(np.argmax(mis))

    def test_mrmr_redundancy_skips_duplicate(self):
        x, y = planted_matrix(duplicate_informative=True, seed=3)
        result = mrmr_select(x, y, k=2)
        first, second = result.feature_indices
        assert first in (0, 1)
        assert second not in (0, 1)  # the duplicate is redundant, noise comes next

    def test_mrmr_k_validation(self):
        x, y = planted_matrix()
        with pytest.raises(BaselineError):
            mrmr_select(x, y, k=11)
        with pytest.raises(BaselineError):
            mrmr_select(x, y, k=0)

    def test_cfs_selects_informative_feature(self):
        x, y = planted_matrix(seed=5)
        result = cfs_select(x, y)
        assert 0 in result.feature_indices
        assert len(result.feature_indices) < x.shape[1]

    def test_symmetrical_uncertainty_bounds(self):
        rng = np.random.default_rng(6)
        a = rng.integers(0, 5, 300)
        b = rng.integers(0, 5, 300)
        su_self = symmetrical_uncertainty(a, a)
        su_cross = symmetrical_uncertainty(a, b)
        assert su_self == pytest.approx(1.0)
        assert 0.0 <= su_cross < 0.2

    def test_equal_frequency_bins(self):
        codes = discretize_equal_frequency(np.arange(100.0), bins=10)
        _, counts = np.unique(codes, return_counts=True)
        assert len(counts) == 10
        assert counts.min() >= 9 and counts.max() <= 11


ROT_TABLE = [
    # (rule, n_features, expected s1)
    ("kolmogorov", 17, 35), ("kolmogorov", 29, 59), ("kolmogorov", 44, 89),
    ("hush", 17, 68), ("hush", 29, 116),
    ("wang", 17, 11), ("wang", 29, 19), ("wang", 44, 29),
    ("ripley", 17, 10), ("ripley", 29, 16), ("ripley", 44, 23),
    ("fletcher_goss", 17, 10), ("fletcher_goss", 29, 13), ("fletcher_goss", 44, 15),
]


class TestRulesOfThumb:
    @pytest.mark.parametrize("rule,n_f,expected", ROT_TABLE)
    def test_layer_sizes(self, rule, n_f, expected):
        s1, _ = rule_of_thumb(rule, n_features=n_f, n_classes=2, n_train=361)
        assert s1 == expected

    def test_huang_pair(self):
        assert rule_of_thumb("huang", n_classes=2, n_train=361) == (57, 19)

    def test_single_layer_rules_have_no_second_layer(self):
        for rule in ("kolmogorov", "wang", "ripley", "fletcher_goss"):
            assert rule_of_thumb(rule, n_features=17, n_classes=2)[1] == 0

    def test_hush_second_layer_from_formula(self):
        assert rule_of_thumb("hush", n_features=17, n_classes=2) == (68, 4)

    def test_rounding_is_half_away_from_zero(self):
        # ripley at n_f=17: (17+2)/2 = 9.5 -> 10, not banker's 9
        assert rule_of_thumb("ripley", n_features=17, n_classes=2)[0] == 10

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(BaselineError):
            rule_of_thumb("wang", n_features=0)
        with pytest.raises(BaselineError):
            rule_of_thumb("huang", n_classes=2, n_train=-5)

    def test_unknown_rule(self):
        with pytest.raises(BaselineError):
            rule_of_thumb("lecun", n_features=17)


class TestSearchBaselines:
    @pytest.fixture(scope="class")
    def splits(self):
        return make_planted_splits(n_features=8, seed=14)

    def test_topology_only_archive(self, splits):
        space = SearchSpaceConfig(n_features=8)
        cfg = Nsga2Config(population=10, max_evaluations=40, seed=2)
        eval_cfg = EvalConfig(cycles=1, scg=ScgConfig(max_iter=15), master_seed=2)
        problem = TopologyOnlyProblem(splits, space, eval_cfg)
        archive, _ = nsga2_run(problem, cfg)
        assert problem.n_bits == 16
        assert len(archive) >= 1
        # feature term is frozen: complexity differences come from topology only
        feature_term = (8 / 8) / 3
        for bits, obj in archive.members():
            assert len(bits) == 16
            assert obj.c >= feature_term - 1e-12

    def test_scalarized_deterministic(self, splits):
        space = SearchSpaceConfig(n_features=8)
        cfg = Nsga2Config(population=10, max_evaluations=50, seed=3)
        eval_cfg = EvalConfig(cycles=1, scg=ScgConfig(max_iter=15), master_seed=3)
        a1, t1 = scalarized_search(CoevolutionProblem(splits, space, eval_cfg),
                                   ScalarizedConfig(), cfg)
        a2, t2 = scalarized_search(CoevolutionProblem(splits, space, eval_cfg),
                                   ScalarizedConfig(), cfg)
        assert len(a1) == 1
        assert a1.members() == a2.members()
        assert t1 == t2
        assert t1[-1].best_value <= t1[0].best_value

    def test_scenarios_cover_printed_weights(self):
        weights = sorted((c.theta_e, c.theta_c) for c in SCALARIZED_SCENARIOS.values())
        assert weights == [(0.25, 0.75), (0.50, 0.50), (0.75, 0.25)]

    def test_fit_reduction_dispatch(self, splits):
        train = splits.d_train
        assert fit_reduction("mrmr", train, 3).feature_indices == \
            mrmr_select(train.features, train.labels, 3).feature_indices
        assert fit_reduction("cfs", train, 3).feature_indices == \
            cfs_select(train.features, train.labels).feature_indices
        pca = fit_reduction("pca", train, 3, variance_target=0.5)
        assert pca.method == "PCA"
        assert pca.n_retained == pca_reduce(train.features, variance_target=0.5).n_components
        with pytest.raises(BaselineError):
            fit_reduction("lasso", train, 3)

    def test_reduce_splits_keeps_seal(self, splits):
        from coevonet.baselines import ReductionResult
        reduced = reduce_splits(splits, ReductionResult("mRmR", (0, 3)))
        assert reduced.d_train.n_features == 2
        assert reduced.d_hold.sealed
