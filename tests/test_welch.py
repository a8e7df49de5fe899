import numpy as np
import pytest
from scipy import stats as scipy_stats

from quotematch.model import welch_t_test


def test_identical_samples_t_zero_p_one():
    a = [1.0, 2.0, 3.0, 4.0]
    result = welch_t_test(a, a)
    assert result.t_statistic == 0.0
    assert result.p_value == 1.0


def test_shifted_window_case():
    # Hand computation: means 3 and 4, both variances 2.5 (ddof=1), n=5 each.
    # t = (3-4)/sqrt(2.5/5 + 2.5/5) = -1.0; Welch-Satterthwaite df:
    # (0.5+0.5)^2 / (0.25/4 + 0.25/4) = 8; two-sided p = 0.346594 (frozen).
    result = welch_t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    assert result.t_statistic == pytest.approx(-1.0, abs=1e-12)
    assert result.degrees_of_freedom == pytest.approx(8.0, abs=1e-12)
    assert result.p_value == pytest.approx(0.3465935, abs=1e-3)


def test_unequal_sizes_and_variances_case():
    # Hand computation: means 2.5 and 30; variances 5/3 and 250 (ddof=1);
    # t = -27.5/sqrt(5/12 + 50) = -3.8729833; df = 4.0665679; p = 0.0173979.
    result = welch_t_test([1.0, 2.0, 3.0, 4.0], [10.0, 20.0, 30.0, 40.0, 50.0])
    assert result.t_statistic == pytest.approx(-3.8729833, abs=1e-6)
    assert result.degrees_of_freedom == pytest.approx(4.0665679, abs=1e-6)
    assert result.p_value == pytest.approx(0.0173979, abs=1e-3)


def test_antisymmetry_on_random_pairs():
    rng = np.random.default_rng(13)
    for _ in range(100):
        a = rng.normal(loc=rng.uniform(-2, 2), scale=rng.uniform(0.5, 3), size=rng.integers(2, 30))
        b = rng.normal(loc=rng.uniform(-2, 2), scale=rng.uniform(0.5, 3), size=rng.integers(2, 30))
        fwd = welch_t_test(a, b)
        rev = welch_t_test(b, a)
        assert fwd.t_statistic == pytest.approx(-rev.t_statistic, rel=1e-12)
        assert fwd.p_value == pytest.approx(rev.p_value, rel=1e-12)
        assert fwd.degrees_of_freedom == pytest.approx(rev.degrees_of_freedom, rel=1e-12)


def test_agrees_with_scipy_on_random_pairs():
    rng = np.random.default_rng(29)
    for _ in range(50):
        a = rng.normal(size=rng.integers(3, 40))
        b = rng.normal(loc=rng.uniform(0, 1), size=rng.integers(3, 40))
        mine = welch_t_test(a, b)
        ref_t, ref_p = scipy_stats.ttest_ind(a, b, equal_var=False)
        assert mine.t_statistic == pytest.approx(float(ref_t), rel=1e-10)
        assert mine.p_value == pytest.approx(float(ref_p), rel=1e-8)


def test_sample_too_small():
    with pytest.raises(ValueError, match="at least 2"):
        welch_t_test([1.0], [1.0, 2.0])


def test_zero_variance_rejected():
    with pytest.raises(ValueError, match="zero variance"):
        welch_t_test([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
