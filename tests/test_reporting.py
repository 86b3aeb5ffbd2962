import math

import numpy as np
import pytest

from demigronwall.reporting import SLACK_SD, VerificationReport, blocked_mean_se, mean_se, one_sided_verdict


def _report(seed, **checks):
    return VerificationReport(command="bem", columns=["verdict"], seeds=[seed], checks=checks)


class TestExtend:
    def test_checks_sharing_a_name_are_and_merged(self):
        merged = _report(1)
        merged.extend(_report(1, z=False, s=True))
        merged.extend(_report(2, z=True, s=True, only_late=True))
        assert merged.checks == {"z": False, "s": True, "only_late": True}
        assert merged.seeds == [1, 2]
        assert not merged.overall_pass


class TestEstimatorCore:
    def test_mean_se_matches_the_sample_formula(self):
        x = np.array([1.0, 2.0, 4.0, 7.0])
        mean, se = mean_se(x)
        assert mean == 3.5
        assert se == float(x.std(ddof=1) / math.sqrt(4))

    def test_mean_se_is_column_wise_and_zero_for_one_sample(self):
        x = np.array([[1.0, 5.0], [3.0, 5.0], [8.0, 2.0]])
        mean, se = mean_se(x)
        for k in range(2):
            assert (mean[k], se[k]) == mean_se(x[:, k])
        assert mean_se(np.array([2.5])) == (2.5, 0.0)
        assert np.array_equal(mean_se(x[:1])[1], [0.0, 0.0])

    def test_one_sided_verdict(self):
        # hypot(0.3, 0.4) == 0.5, so lhs = 0.5 + SLACK_SD * 0.5 sits exactly on the bound
        assert one_sided_verdict(0.5 + SLACK_SD * 0.5, 0.3, 0.5, 0.4) == {"margin": 0.0, "verdict": "pass"}
        cells = one_sided_verdict(0.5 + SLACK_SD * 0.5, 0.3, 0.5, 0.0)
        assert cells["verdict"] == "fail" and cells["margin"] < 0.0

    @pytest.mark.parametrize(
        "sizes",
        [[1000], [400, 400, 200], [333, 333, 333, 1], [1, 999], [1, 1, 1]],
        ids=["one-block", "uneven-last", "one-row-last", "one-row-first", "one-row-blocks"],
    )
    def test_blocked_mean_se_matches_mean_se(self, sizes):
        rng = np.random.default_rng(5)
        x = rng.normal(3.0, 2.0, size=(sum(sizes), 4))
        bounds = np.cumsum([0] + sizes)
        mean, se = blocked_mean_se(x[a:b] for a, b in zip(bounds[:-1], bounds[1:]))
        ref_mean, ref_se = mean_se(x)
        np.testing.assert_allclose(mean, ref_mean, rtol=1e-12, atol=0)
        np.testing.assert_allclose(se, ref_se, rtol=1e-12, atol=0)

    def test_blocked_mean_se_of_one_row_has_zero_error(self):
        mean, se = blocked_mean_se([np.array([[2.0, -1.0]])])
        assert np.array_equal(mean, [2.0, -1.0])
        assert np.array_equal(se, [0.0, 0.0])
