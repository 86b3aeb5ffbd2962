"""Power: instances on which a wrong constant in a bound makes the check fail.

On the CLI's instances the bounds are loose, so no mutant of a constant
fails there.  Here each mutant is checked on a model that meets the
bound's hypothesis with equality, at a fixed seed, and must fail; the
correct bound must pass on the same paths.  Only the bound's rows are
asserted: the side checks (``z_mean_zero``, ``s_demimartingale``) run at
a per-cell level and can fail on a correct model.
"""

import math

import numpy as np
import pytest

from demigronwall import bem
from demigronwall.bem import BemConfig, coercive_equality_model, verify_apriori_bound
from demigronwall.errors import InvalidSpec

_BOUND = bem.apriori_moment_bound


def _l_zero(p, L, T, h0, x0_norm, g_x0_norm):
    """The a-priori bound with L := 0."""
    return _BOUND(p, 0.0, T, h0, x0_norm, g_x0_norm)


def _drop_2lt(p, L, T, h0, x0_norm, g_x0_norm):
    """The a-priori bound without ``2 L T`` in its tail."""
    damp = 1.0 - 2.0 * h0 * L
    kept = x0_norm ** 2 + h0 * g_x0_norm ** 2 / damp
    return _BOUND(p, L, T, h0, x0_norm, g_x0_norm) * math.sqrt(kept / (kept + 2.0 * L * T / damp))


def _prefactor_one(p, L, T, h0, x0_norm, g_x0_norm):
    """The a-priori bound with its prefactor ``((2-p)/(1-p))^{1/(2p)}`` := 1."""
    return _BOUND(p, L, T, h0, x0_norm, g_x0_norm) / ((2.0 - p) / (1.0 - p)) ** (1.0 / (2.0 * p))


def _verdicts(monkeypatch, bound, x0):
    """Row verdicts of the bound check on the b = 1, L = 1/2 equality model, 20 000 paths at seed 3."""
    monkeypatch.setattr(bem, "apriori_moment_bound", bound)
    cfgs = [BemConfig(h=h, t_horizon=1.0, h0=0.0501, x0=[x0]) for h in (0.01, 0.05)]
    model = coercive_equality_model(0.5, 1.0)
    report = verify_apriori_bound(model, cfgs, [0.1, 0.25, 0.5, 0.75, 0.9], 20_000, seed=3)
    return [row["verdict"] for row in report.rows]


class TestAprioriBoundMutants:
    # measured worst (estimate - bound) / SE over the rows: correct -302 (x0 = 0) and -147 (x0 = 1);
    # L := 0 +105 and drop-2LT +43 at x0 = 0; prefactor := 1 +10.7 at x0 = 1 (p = 0.9)

    @pytest.mark.parametrize("x0", [0.0, 1.0])
    def test_the_correct_bound_passes(self, monkeypatch, x0):
        assert set(_verdicts(monkeypatch, _BOUND, x0)) == {"pass"}

    @pytest.mark.parametrize(
        "mutant, x0", [(_l_zero, 0.0), (_drop_2lt, 0.0), (_prefactor_one, 1.0)], ids=["L-zero", "drop-2LT", "prefactor-one"],
    )
    def test_the_mutant_fails(self, monkeypatch, mutant, x0):
        assert "fail" in _verdicts(monkeypatch, mutant, x0)


class TestCoerciveEqualityModel:
    @pytest.mark.parametrize("L, b", [(0.5, 1.0), (0.5, 0.0), (2.0, 3.0), (0.0, 1.5)])
    def test_coercivity_holds_with_equality(self, L, b):
        model = coercive_equality_model(L, b)
        x = np.linspace(-5.0, 5.0, 101)[:, None]
        lhs = (model.drift(x) * x).sum(axis=1) + 0.5 * (model.diffusion(x) ** 2).sum(axis=(1, 2))
        np.testing.assert_allclose(lhs, L * (1.0 + x[:, 0] ** 2), rtol=1e-14, atol=1e-14)
        assert (model.d, model.m, model.L, model.osl) == (1, 2, L, max(L - 0.5 * b * b, 0.0))
        np.testing.assert_array_equal(model.drift_jacobian(x)[:, 0, 0], L - 0.5 * b * b)

    @pytest.mark.parametrize("L, b", [(-0.1, 1.0), (math.inf, 1.0), (math.nan, 1.0), (0.5, math.nan), (0.5, math.inf)])
    def test_bad_constants_raise(self, L, b):
        with pytest.raises(InvalidSpec):
            coercive_equality_model(L, b)
