import itertools

import numpy as np
import pytest

from tssf import dataio, evalstats
from tssf.errors import DegenerateStatistic, DimMismatch, InvalidInput, TssfError


def pair_counting_auc(scores, labels):
    """Independent O(P*N) enumeration oracle."""
    scores = np.asarray(scores, dtype=float)
    pos = scores[np.asarray(labels) == 1]
    neg = scores[np.asarray(labels) == -1]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def is_plain_float(cell):
    """True when a CSV cell is the plain ``repr`` of a Python float."""
    try:
        return repr(float(cell)) == cell
    except ValueError:
        return False


def enumerate_wilcoxon(diffs):
    """Exact null enumeration over all sign patterns (n <= ~15)."""
    import scipy.stats

    d = np.asarray(diffs, dtype=float)
    d = d[d != 0]
    ranks = scipy.stats.rankdata(np.abs(d))
    w_obs = ranks[d > 0].sum()
    n = len(d)
    count = 0
    for signs in itertools.product((0, 1), repeat=n):
        if np.dot(ranks, signs) >= w_obs - 1e-12:
            count += 1
    return count / 2.0**n


class TestStratifiedFolds:
    def test_partition_and_sizes(self):
        labels = np.array([1, -1] * 5)
        folds = evalstats.stratified_folds(labels, 5, seed=0)
        assert all(len(f) == 2 for f in folds)
        combined = np.sort(np.concatenate(folds))
        np.testing.assert_array_equal(combined, np.arange(10))
        for f in folds:  # stratification: one of each class
            assert set(labels[f]) == {-1, 1}

    def test_seed_determinism(self):
        labels = np.array([1, -1] * 20)
        a = evalstats.stratified_folds(labels, 5, seed=3)
        b = evalstats.stratified_folds(labels, 5, seed=3)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)

    def test_too_few_folds(self):
        with pytest.raises(InvalidInput):
            evalstats.stratified_folds(np.array([1, -1]), 1, seed=0)
        with pytest.raises(InvalidInput, match="more folds than samples"):
            evalstats.stratified_folds(np.array([1, -1, 1]), 4, seed=0)


class TestRocAuc:
    def test_perfect(self):
        assert evalstats.roc_auc([0.9, 0.8, 0.3, 0.1], [1, 1, -1, -1]) == 1.0

    def test_all_tied(self):
        assert evalstats.roc_auc([0.5] * 6, [1, 1, 1, -1, -1, -1]) == 0.5

    def test_example(self):
        assert evalstats.roc_auc([0.9, 0.2, 0.8, 0.1], [1, 1, -1, -1]) == 0.75

    def test_matches_pair_counting_exactly(self, rng):
        for _ in range(200):
            n = rng.integers(4, 30)
            labels = np.concatenate([np.ones(2), -np.ones(2), rng.choice([-1, 1], n - 4)])
            # draw from a small value set to force ties
            scores = rng.integers(0, 6, size=n) / 4.0
            assert evalstats.roc_auc(scores, labels) == pair_counting_auc(scores, labels)

    def test_monotone_transform_invariance(self, rng):
        scores = rng.standard_normal(30)
        labels = np.concatenate([np.ones(15), -np.ones(15)])
        base = evalstats.roc_auc(scores, labels)
        assert evalstats.roc_auc(np.exp(scores), labels) == base
        assert evalstats.roc_auc(3 * scores + 7, labels) == base

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInput, match="matching 1-D arrays"):
            evalstats.roc_auc([0.9, 0.1, 0.3], [1, -1])

    def test_single_class(self):
        with pytest.raises(InvalidInput):
            evalstats.roc_auc([0.1, 0.2], [1, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(DegenerateStatistic):
            evalstats.roc_auc([0.9, bad, 0.3, 0.1], [1, 1, -1, -1])

    def test_ranks_equal_scipy_rankdata(self, rng):
        import scipy.stats

        for n in (1, 2, 7, 50, 301):
            for scores in (rng.standard_normal(n), rng.integers(0, 4, size=n) / 3.0):
                ranks = evalstats._average_ranks(scores)
                assert ranks.tobytes() == scipy.stats.rankdata(scores).tobytes()


class TestSmd:
    def test_example(self):
        a = np.array([0.6, 0.7, 0.8, 0.7])
        b = a - np.array([0.1, 0.2, 0.3, 0.2])
        assert evalstats.smd(a, b) == pytest.approx(2.449489742783178, abs=1e-12)

    def test_identical_pairs_degenerate(self):
        with pytest.raises(DegenerateStatistic):
            evalstats.smd([0.5, 0.6, 0.7], [0.5, 0.6, 0.7])

    def test_antisymmetry(self, rng):
        a = rng.standard_normal(10)
        b = rng.standard_normal(10)
        assert evalstats.smd(a, b) == pytest.approx(-evalstats.smd(b, a), abs=1e-12)

    def test_too_few(self):
        with pytest.raises(InvalidInput):
            evalstats.smd([1.0], [0.5])
        with pytest.raises(InvalidInput, match="matching 1-D arrays"):
            evalstats.smd([1.0, 2.0, 3.0], [0.5, 1.5])


class TestWilcoxon:
    def test_all_positive_n5(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        b = a - np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        assert evalstats.wilcoxon_one_sided(a, b) == pytest.approx(1 / 32, abs=1e-15)

    def test_symmetric_differences(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        d = np.array([0.3, -0.3, 0.2, -0.2, 0.1, -0.1])
        assert evalstats.wilcoxon_one_sided(a, a - d) >= 0.5

    def test_matches_enumeration(self, rng):
        for _ in range(200):
            n = int(rng.integers(5, 11))
            # integer scores keep a - b exact, so ties in |d| survive
            d = rng.integers(-4, 5, size=n).astype(float)
            if np.all(d == 0):
                continue
            a = rng.integers(-10, 10, size=n).astype(float)
            b = a - d
            p = evalstats.wilcoxon_one_sided(a, b)
            assert p == pytest.approx(enumerate_wilcoxon(d), abs=1e-12)

    def test_normal_approximation_branch(self, rng):
        n = 40
        d = rng.standard_normal(n) + 0.8
        a = rng.standard_normal(n)
        p = evalstats.wilcoxon_one_sided(a + d, a)
        assert 0.0 < p < 0.05
        # the normal tail from math.erfc is scipy's to rounding (no ties here)
        import scipy.stats

        w_pos = scipy.stats.rankdata(np.abs(d))[d > 0].sum()
        z = (w_pos - n * (n + 1) / 4.0 - 0.5) / np.sqrt(n * (n + 1) * (2 * n + 1) / 24.0)
        assert p == pytest.approx(scipy.stats.norm.sf(z), rel=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInput, match="matching 1-D arrays"):
            evalstats.wilcoxon_one_sided([1.0, 2.0], [[1.0, 2.0]])

    def test_all_zero_differences(self):
        with pytest.raises(DegenerateStatistic):
            evalstats.wilcoxon_one_sided([1.0, 2.0], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_difference_rejected(self, bad):
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0, bad])
        b = np.array([0.5, 1.5, 2.5, 3.5, 4.5, bad])
        with pytest.raises(DegenerateStatistic, match="NaN"):
            evalstats.wilcoxon_one_sided(a, b)

    def test_small_n_warns(self):
        with pytest.warns(UserWarning):
            p = evalstats.wilcoxon_one_sided([1.0, 2.0, 3.0], [0.5, 1.5, 2.5])
        assert p == pytest.approx(1 / 8, abs=1e-15)

    def test_monotone_strengthening(self):
        # same ranks, same signs -> identical p; pushing a positive
        # difference past a negative one can only shrink p
        a = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        d = np.array([0.5, 0.4, -0.3, 0.2, 0.15, 0.1])
        p0 = evalstats.wilcoxon_one_sided(a, a - d)
        d_eps = d + np.where(d > 0, 0.001, 0.0)  # no rank reordering
        p1 = evalstats.wilcoxon_one_sided(a, a - d_eps)
        assert p1 <= p0
        d_big = d + np.where(d > 0, 0.2, 0.0)  # 0.2 overtakes |-0.3|
        p2 = evalstats.wilcoxon_one_sided(a, a - d_big)
        assert p2 <= p0


class _OraclePipeline:
    """Scores every trial with its true label (mean channel sign)."""

    name = "oracle"
    k = 0
    feature_kind = "none"

    def fit(self, trials, labels):
        return self

    def decision_scores(self, trials):
        return np.sign(trials.mean(axis=(0, 1)))


def label_coded_set(rng, t=10, sessions=1):
    labels = np.where(np.arange(t) % 2 == 0, 1, -1)
    data = np.tile(labels[None, None, :].astype(float), (2, 8, 1))
    data = data + 0.01 * rng.standard_normal((2, 8, t))
    return dataio.TrialSet(
        data=data,
        labels=labels,
        session_ids=(np.arange(t) // 2) % sessions,
        channel_names=["a", "b"],
    )


class TestKfoldCv:
    def test_oracle_pipeline_perfect_auc(self, rng):
        ts = label_coded_set(rng, t=10)
        report = evalstats.kfold_cv(ts, _OraclePipeline, folds=5, seed=0)
        assert report.aucs.shape == (5,)
        np.testing.assert_array_equal(report.aucs, np.ones(5))
        assert report.mean_auc == 1.0

    def test_sessions_pooled(self, rng):
        ts = label_coded_set(rng, t=20, sessions=2)
        report = evalstats.kfold_cv(ts, _OraclePipeline, folds=5, seed=0)
        assert report.aucs.shape == (10,)
        np.testing.assert_array_equal(np.unique(report.sessions), [0, 1])

    def test_deterministic_partition(self, rng):
        ts = label_coded_set(rng, t=20)
        r1 = evalstats.kfold_cv(ts, _OraclePipeline, folds=5, seed=4)
        r2 = evalstats.kfold_cv(ts, _OraclePipeline, folds=5, seed=4)
        np.testing.assert_array_equal(r1.aucs, r2.aucs)

    def test_folds_validation(self, rng):
        ts = label_coded_set(rng)
        with pytest.raises(InvalidInput):
            evalstats.kfold_cv(ts, _OraclePipeline, folds=1)

    def test_empty_trial_set_rejected(self, rng):
        ts = label_coded_set(rng).subset(np.arange(0))
        with pytest.raises(InvalidInput, match="trial set is empty"):
            evalstats.kfold_cv(ts, _OraclePipeline)

    def test_class_absent_in_split(self, rng):
        # 5 folds on a session with 2+2 trials leaves empty test folds
        ts = label_coded_set(rng, t=4)
        with pytest.raises(InvalidInput):
            evalstats.kfold_cv(ts, _OraclePipeline, folds=4, seed=0)


class _CountingPredictor:
    def __init__(self):
        self.calls = 0

    def decision_scores(self, trials):
        self.calls += 1
        return np.full(trials.shape[2], float(self.calls))


class TestBenchPredict:
    def test_rows_and_determinism(self, rng):
        ts = label_coded_set(rng, t=10)
        rows = evalstats.bench_predict({"oracle": _OraclePipeline()}, ts.data, repetitions=10)
        assert len(rows) == 1
        assert rows[0].n_trials == 10
        assert rows[0].median_per_trial_s > 0

    def test_zero_repetitions_rejected(self, rng):
        ts = label_coded_set(rng)
        with pytest.raises(InvalidInput):
            evalstats.bench_predict({"oracle": _OraclePipeline()}, ts.data, repetitions=0)
        with pytest.raises(InvalidInput, match="C x N x T tensor"):
            evalstats.bench_predict({"oracle": _OraclePipeline()}, ts.data[:, :, 0])

    def test_nondeterministic_predictor_detected(self, rng):
        ts = label_coded_set(rng)
        with pytest.warns(UserWarning):
            with pytest.raises(TssfError):
                evalstats.bench_predict({"bad": _CountingPredictor()}, ts.data, repetitions=2)


class TestComparisons:
    def test_compare_paired(self, rng):
        a = rng.uniform(0.6, 0.9, 12)
        b = a - rng.uniform(0.01, 0.1, 12)
        cmp = evalstats.compare_paired("A", a, "B", b)
        assert cmp.smd > 0 and cmp.p_value < 0.05 and cmp.n == 12

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            evalstats.compare_paired("A", [1.0, 2.0], "B", [1.0])


class TestCsvWriters:
    def test_schemas(self, rng):
        ts = label_coded_set(rng, t=10)
        report = evalstats.kfold_cv(ts, _OraclePipeline, folds=5, seed=0)
        csv = evalstats.reports_to_csv([report])
        lines = csv.strip().split("\n")
        assert lines[0] == "pipeline,k,feature_kind,session,fold,auc"
        assert len(lines) == 6
        assert all(is_plain_float(line.split(",")[5]) for line in lines[1:])

        a = rng.uniform(0.6, 0.9, 8)
        cmp = evalstats.compare_paired("A", a, "B", a - 0.05 * rng.uniform(0.5, 1, 8))
        cmp.p_value = np.float64(np.finfo(float).tiny)  # as clamped by wilcoxon_one_sided
        csv2 = evalstats.comparisons_to_csv([cmp])
        assert csv2.startswith("pipeline_a,pipeline_b,n,smd,p_value\n")
        assert all(is_plain_float(cell) for cell in csv2.split("\n")[1].split(",")[3:])

        rows = evalstats.bench_predict({"o": _OraclePipeline()}, ts.data, repetitions=10)
        csv3 = evalstats.bench_to_csv(rows)
        assert csv3.startswith("pipeline,n_trials,repetitions,median_per_trial_s,iqr_per_trial_s\n")
