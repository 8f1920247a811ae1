import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spoofcm.errors import ConfigError
from spoofcm.metrics import EerResult
from spoofcm.stats import (
    holm_bonferroni,
    pairwise_eer_test,
    significance_matrix,
)

from reference import holm_bonferroni_manual, two_proportion_p_value


def res(eer, n_tar=500, n_non=500):
    return EerResult(eer, 0.0, n_tar, n_non)


class TestPairwiseTest:
    def test_equal_eers_give_p_one(self):
        assert pairwise_eer_test(res(0.1), res(0.1)) == pytest.approx(1.0)

    def test_matches_scipy_oracle(self):
        p = pairwise_eer_test(res(0.10), res(0.20))
        ref = two_proportion_p_value(0.10, 1000, 0.20, 1000)
        assert abs(p - ref) < 1e-10

    def test_symmetric_in_argument_order(self):
        a, b = res(0.07, 300, 700), res(0.21, 400, 100)
        assert pairwise_eer_test(a, b) == pairwise_eer_test(b, a)

    def test_degenerate_pooled_proportion(self):
        assert pairwise_eer_test(res(0.0), res(0.0)) == 1.0
        assert pairwise_eer_test(res(0.0), res(0.0004)) == 0.0  # counts round to zero


class TestHolmBonferroni:
    def test_single_small_p_rejected(self):
        assert holm_bonferroni([0.01]) == [True]

    def test_all_ones_nothing_rejected(self):
        assert holm_bonferroni([1.0] * 5) == [False] * 5

    def test_worked_example(self):
        # thresholds 0.0125, 0.0167, 0.025, 0.05: only the first survives
        assert holm_bonferroni([0.01, 0.02, 0.03, 0.04]) == [True, False, False, False]

    def test_matches_manual_oracle_on_random_vectors(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m = int(rng.integers(1, 22))
            p = list(np.round(rng.random(m) ** 2, 4))
            assert holm_bonferroni(p) == holm_bonferroni_manual(p, 0.05)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=21))
    def test_rejects_superset_of_plain_bonferroni(self, p):
        m = len(p)
        holm = holm_bonferroni(p)
        bonf = [pv <= 0.05 / m for pv in p]
        assert all(h or not b for h, b in zip(holm, bonf))

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=2, max_size=12),
        st.integers(min_value=0, max_value=11),
    )
    def test_monotone_in_individual_p(self, p, idx):
        idx = idx % len(p)
        before = holm_bonferroni(p)
        lowered = list(p)
        lowered[idx] = lowered[idx] / 2.0
        after = holm_bonferroni(lowered)
        assert all(a or not b for a, b in zip(after, before))

    def test_invalid_p_rejected(self):
        with pytest.raises(ConfigError):
            holm_bonferroni([0.5, 1.5])


class TestSignificanceMatrix:
    def test_identical_systems_all_white(self):
        m = significance_matrix({"a": res(0.1), "b": res(0.1)})
        assert not m.reject.any()

    def test_extreme_difference_rejected(self):
        m = significance_matrix({"a": res(0.01, 5000, 5000), "b": res(0.49, 5000, 5000)})
        assert m.reject[0, 1] and m.reject[1, 0]

    def test_symmetry_and_diagonal(self):
        systems = {f"s{i}": res(0.05 + 0.05 * i, 800, 800) for i in range(4)}
        m = significance_matrix(systems)
        assert np.array_equal(m.reject, m.reject.T)
        assert np.allclose(m.p_values, m.p_values.T)
        assert not np.any(np.diag(m.reject))

    def test_needs_two_systems(self):
        with pytest.raises(ConfigError):
            significance_matrix({"only": res(0.1)})

    def test_csv_outputs(self, tmp_path):
        significance_matrix({"a": res(0.1), "b": res(0.3)}).save(tmp_path)
        assert (tmp_path / "sig_p.csv").read_text(encoding="utf-8").startswith("system,a,b")
        assert (tmp_path / "sig_reject.csv").read_text(encoding="utf-8").splitlines()[1].startswith("a,0,")
