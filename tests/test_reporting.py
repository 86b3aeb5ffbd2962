import itertools
import math

import numpy as np
import pytest
from scipy.special import ndtri

from demigronwall.errors import DegenerateBatch
from demigronwall.reporting import (
    SLACK_SD,
    VerificationReport,
    difference_mean_se,
    mean_se,
    mu_norm,
    one_sided_verdict,
)


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


def _numpy_mean_se(x):
    """numpy's own mean and ``std(ddof=1) / sqrt(m)`` along axis 0, the bits that ``mean_se`` keeps."""
    m = x.shape[0]
    se = x.std(ddof=1, axis=0) / math.sqrt(m) if m > 1 else np.zeros_like(x.mean(axis=0))
    return x.mean(axis=0), se


def _bits(pair):
    return tuple(np.asarray(v, dtype=np.float64).tobytes() for v in pair)


class TestMeanSeBits:
    """``mean_se`` takes the mean once, with the bits of numpy's ``mean`` and ``std``."""

    _rng = np.random.default_rng(11)
    SAMPLES = {
        "1-d": _rng.normal(3.0, 2.0, size=10_001),
        "2-d-c": np.ascontiguousarray(_rng.normal(size=(3001, 7))),
        "2-d-f": np.asfortranarray(_rng.normal(size=(3001, 7))),
        "integer": _rng.integers(-1000, 1000, size=(2049, 3)),
        "integer-1-d": np.array([2**53] + [1] * 7),  # numpy sums integers as floats, which round 2**53 + 1
        "one-sample": np.array([[2.5, -1.0]]),
        "one-sample-1-d": np.array([7.25]),
        "mixed-magnitudes": _rng.normal(size=20_000) * 10.0 ** _rng.integers(-150, 150, size=20_000),
    }

    @pytest.mark.parametrize("name", SAMPLES)
    def test_equals_numpy_mean_and_std(self, name):
        x = self.SAMPLES[name]
        assert _bits(mean_se(x)) == _bits(_numpy_mean_se(x))

    @pytest.mark.parametrize("m", [1, 2, 3, 1000, 100_003])
    def test_difference_form_equals_mean_se_of_the_difference(self, m):
        values = np.asfortranarray(np.random.default_rng(m).normal(size=(m, 2)))
        for a, b in ((values[:, 1], values[:, 0]), (np.ascontiguousarray(values)[:, 1], values[:, 0])):
            scratch = np.empty(m)
            assert difference_mean_se(a, b, scratch) == mean_se(a - b)

    def test_empty_samples_raise(self):
        for empty in (np.empty(0), np.empty((0, 3)), []):
            with pytest.raises(DegenerateBatch):
                mean_se(empty)
        with pytest.raises(DegenerateBatch):
            difference_mean_se(np.empty(0), np.empty(0), np.empty(0))
        for mu in (math.inf, 2.0):
            with pytest.raises(DegenerateBatch):
                mu_norm(np.empty(0), 0.5, mu)


class TestOneRule:
    """``one_sided_verdict`` is the only pass/fail rule; the z-tests reach it with ``lhs = lhs_se = 0``."""

    def test_a_zero_margin_passes_and_the_next_float_below_fails(self):
        assert one_sided_verdict(0.0, 0.0, 0.0, 0.0) == {"margin": 0.0, "verdict": "pass"}
        below = one_sided_verdict(math.nextafter(0.0, 1.0), 0.0, 0.0, 0.0)
        assert below == {"margin": math.nextafter(0.0, -1.0), "verdict": "fail"}

    def test_z_test_cells_agree_with_the_estimate_against_minus_z_se(self):
        # fl(a + b) has the sign of a + b, so the margin's sign is exactly the comparison's
        for z in (float(ndtri(0.999)), SLACK_SD, 1.0):
            for se in (0.0, 5e-324, 1e-300, 0.1, 1.0, 3.7, 1e150):
                edge = -z * se
                grid = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 0.5 * edge, 2.0 * edge, edge]
                grid += [math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
                for est, sign in itertools.product(grid, (1.0, -1.0)):
                    est *= sign
                    want = "pass" if not est < -z * se else "fail"
                    assert one_sided_verdict(0.0, 0.0, est, se, z)["verdict"] == want, (z, se, est)
