import math

import numpy as np

from demigronwall.reporting import SLACK_SD, VerificationReport, mean_se, one_sided_verdict


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
