"""Statistical checks of association and the demimartingale inequality.

The defining inequality ``E[(S_{j+1} - S_j) f(S_1, ..., S_j)] >= 0``
quantifies over *all* componentwise nondecreasing ``f`` (nonnegative ``f``
for the demisubmartingale variant), which no finite procedure can certify.
The checks here evaluate a fixed, explicitly parameterized family of
nondecreasing probe functions and run one-sided z-tests per cell:

* a significantly negative estimate is a conclusive failure,
* an all-pass report is evidence, not proof.

No completeness claim is made for the probe family.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import DegenerateBatch, EmptyFamily, InvalidSpec, NotNondecreasing
from .generators import TrajectoryBatch
from .reporting import VerificationReport, mean_se

DEMI_COLUMNS = ["j", "function", "estimate", "stderr", "z", "verdict"]

#: one-sided confidence level of each association cell's z-test
ASSOCIATION_LEVEL = 0.999

#: contiguous path blocks whose covariances give an association cell's SE
ASSOCIATION_BLOCKS = 30

#: fewest paths :func:`check_demimartingale` accepts
DEMI_MIN_PATHS = 30

#: fewest paths :func:`check_association` accepts: two per block
ASSOCIATION_MIN_PATHS = 2 * ASSOCIATION_BLOCKS


# --------------------------------------------------------------------------
# probe functions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Constant1:
    """f(s) = 1; the weakest probe, it tests plain mean growth."""

    nonnegative = True
    min_coords = 1

    @property
    def name(self) -> str:
        return "const1"

    def evaluate(self, prefix: np.ndarray) -> np.ndarray:
        return np.ones(prefix.shape[0])


@dataclass(frozen=True)
class CoordinateRamp:
    """f(s) = clamp((s_coord - center) / width, 0, 1); coord is 1-based."""

    coord: int
    center: float
    width: float
    nonnegative = True

    def __post_init__(self):
        if self.coord < 1:
            raise InvalidSpec(f"ramp coordinate must be >= 1, got {self.coord}")
        if not self.width > 0:
            raise InvalidSpec(f"ramp width must be > 0, got {self.width}")

    @property
    def min_coords(self) -> int:
        return self.coord

    @property
    def name(self) -> str:
        return f"ramp[{self.coord};c={self.center:g};w={self.width:g}]"

    def evaluate(self, prefix: np.ndarray) -> np.ndarray:
        return np.clip((prefix[:, self.coord - 1] - self.center) / self.width, 0.0, 1.0)


@dataclass(frozen=True)
class ProductRamp:
    """f(s) = prod_j clamp((s_j - c_j) / width, 0, 1) over the leading coords."""

    centers: tuple
    width: float
    nonnegative = True

    def __post_init__(self):
        if len(self.centers) < 1:
            raise InvalidSpec("product ramp needs at least one center")
        if not self.width > 0:
            raise InvalidSpec(f"ramp width must be > 0, got {self.width}")

    @property
    def min_coords(self) -> int:
        return len(self.centers)

    @property
    def name(self) -> str:
        cs = ";".join(f"{c:g}" for c in self.centers)
        return f"prodramp[c={cs};w={self.width:g}]"

    def evaluate(self, prefix: np.ndarray) -> np.ndarray:
        out = np.ones(prefix.shape[0])
        for j, c in enumerate(self.centers):
            out *= np.clip((prefix[:, j] - c) / self.width, 0.0, 1.0)
        return out


@dataclass(frozen=True)
class ShiftedIdentityLast:
    """f(s) = s_last - center; nondecreasing but sign-varying."""

    center: float
    nonnegative = False
    min_coords = 1

    @property
    def name(self) -> str:
        return f"last-{self.center:g}"

    def evaluate(self, prefix: np.ndarray) -> np.ndarray:
        return prefix[:, -1] - self.center


@dataclass(frozen=True)
class TestFunctionFamily:
    """Finite family of componentwise nondecreasing probe functions."""

    __test__ = False  # not a pytest collection target

    members: tuple

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))

    def nonnegative_members(self) -> tuple:
        return tuple(f for f in self.members if f.nonnegative)

    @classmethod
    def default(cls, batch: TrajectoryBatch = None) -> "TestFunctionFamily":
        """Data-driven default: ramps at batch quantiles plus the two extremes.

        Centers sit at the pooled 25/50/75% quantiles and the ramp width is
        a quarter of the interquartile range (floored away from zero), so
        the probes stay responsive on whatever scale the batch lives on.
        """
        if batch is None:
            q1, q2, q3 = -1.0, 0.0, 1.0
        else:
            q1, q2, q3 = np.quantile(batch.values, [0.25, 0.5, 0.75])
        width = max((q3 - q1) / 4.0, 1e-6, 1e-9 * max(abs(q1), abs(q3)))
        members = [
            Constant1(),
            CoordinateRamp(1, q1, width),
            CoordinateRamp(1, q2, width),
            CoordinateRamp(1, q3, width),
            ProductRamp((q2, q2), width),
            ShiftedIdentityLast(q2),
        ]
        return cls(tuple(members))


# --------------------------------------------------------------------------
# per-cell z-tests
# --------------------------------------------------------------------------

def _zscore(estimate, stderr) -> float:
    if stderr > 0.0:
        return estimate / stderr
    if estimate == 0.0:
        return 0.0
    return math.copysign(math.inf, estimate)


def _cell_row(j, name, estimate, stderr, z_crit) -> dict:
    z = _zscore(estimate, stderr)
    verdict = "fail" if estimate < -z_crit * stderr else "pass"
    if stderr == 0.0 and estimate < 0.0:
        verdict = "fail"
    return {"j": j, "function": name, "estimate": float(estimate), "stderr": float(stderr), "z": z, "verdict": verdict}


# --------------------------------------------------------------------------
# checks
# --------------------------------------------------------------------------

def check_demimartingale(batch: TrajectoryBatch, family: TestFunctionFamily, level=0.999, mode="demi") -> VerificationReport:
    """Test ``E[(S_{j+1} - S_j) f(S_1..S_j)] >= 0`` over steps and probes.

    Args:
        batch: sample paths with columns ``S_0 .. S_N``; needs ``N >= 1``.
        family: probe functions; ``mode="demisub"`` restricts evaluation to
            the nonnegative members.
        level: one-sided confidence level of the per-cell z-test, in (0, 1).
        mode: ``"demi"`` or ``"demisub"``.

    A cell fails when its estimate is below ``-z(level) * SE``.  Cells whose
    probe needs more coordinates than the step provides are skipped.  The
    report's command is ``mode`` and its columns are :data:`DEMI_COLUMNS`.

    Raises:
        InvalidSpec: unknown ``mode`` or ``level`` outside (0, 1).
        EmptyFamily: no admissible probe for the requested mode.
        DegenerateBatch: fewer than :data:`DEMI_MIN_PATHS` paths.
    """
    if mode not in ("demi", "demisub"):
        raise InvalidSpec(f"mode must be 'demi' or 'demisub', got {mode!r}")
    if not 0.0 < level < 1.0:
        raise InvalidSpec(f"level must lie in (0, 1), got {level}")
    members = family.members if mode == "demi" else family.nonnegative_members()
    if not members:
        raise EmptyFamily(f"no admissible probe functions for mode={mode!r}")
    if batch.n_paths < DEMI_MIN_PATHS:
        raise DegenerateBatch(
            f"need at least {DEMI_MIN_PATHS} paths for usable standard errors, got {batch.n_paths}"
        )
    values = batch.values
    z_crit = float(ndtri(level))
    report = VerificationReport(command=mode, columns=DEMI_COLUMNS)
    for j in range(1, batch.n_steps):
        prefix = values[:, 1 : j + 1]
        diff = values[:, j + 1] - values[:, j]
        for f in members:
            if f.min_coords > j:
                continue
            est, se = mean_se(diff * f.evaluate(prefix))
            report.rows.append(_cell_row(j, f.name, est, se, z_crit))
    return report


def check_association(batch: TrajectoryBatch, family: TestFunctionFamily) -> VerificationReport:
    """Test ``Cov(f(X), g(X)) >= 0`` for every ordered pair of probes.

    Columns of ``batch`` are interpreted as the collection ``X_1 .. X_n``.
    Standard errors come from batch means over :data:`ASSOCIATION_BLOCKS`
    contiguous blocks of paths, which stays honest under heavy tails, and
    each cell is a one-sided z-test at :data:`ASSOCIATION_LEVEL`.  The
    report's command is ``"association"`` and its columns are
    :data:`DEMI_COLUMNS`.

    Raises:
        EmptyFamily: fewer than two applicable probes.
        DegenerateBatch: fewer than two paths per block.
    """
    n_cols = batch.values.shape[1]
    members = [f for f in family.members if f.min_coords <= n_cols]
    if len(members) < 2:
        raise EmptyFamily("association check needs at least two applicable probes")
    m = batch.n_paths
    if m < ASSOCIATION_MIN_PATHS:
        raise DegenerateBatch(
            f"need at least {ASSOCIATION_MIN_PATHS} paths for {ASSOCIATION_BLOCKS}-block standard errors, got {m}"
        )
    values = batch.values
    z_crit = float(ndtri(ASSOCIATION_LEVEL))
    evals = [np.asarray(f.evaluate(values), dtype=np.float64) for f in members]
    bounds = np.linspace(0, m, ASSOCIATION_BLOCKS + 1).astype(int)
    report = VerificationReport(command="association", columns=DEMI_COLUMNS)
    for a, fa in enumerate(members):
        for b, fb in enumerate(members):
            fv, gv = evals[a], evals[b]
            est = float(np.cov(fv, gv, ddof=1)[0, 1])
            block_covs = np.array(
                [np.cov(fv[lo:hi], gv[lo:hi], ddof=1)[0, 1] for lo, hi in zip(bounds[:-1], bounds[1:])]
            )
            _, se = mean_se(block_covs)
            report.rows.append(_cell_row(None, f"{fa.name}|{fb.name}", est, se, z_crit))
    return report


def two_point_stats(prob, f_at_minus1, f_at_plus1) -> dict:
    """Exact statistics of the two-atom demisubmartingale.

    Returns the probe expectation ``-p f(-1) + (1-p) f(1)`` together with
    the conditional mean of the second value given a first value of -1,
    which is -2 regardless of ``p`` (the conditional law is degenerate) and
    therefore always below -1: the submartingale property fails even when
    the demisubmartingale inequality holds.

    Raises:
        InvalidSpec: ``prob`` outside [0, 1].
        NotNondecreasing: ``f_at_minus1 > f_at_plus1``.
    """
    p = float(prob)
    if not 0.0 <= p <= 1.0:
        raise InvalidSpec(f"probability must lie in [0, 1], got {prob}")
    lo, hi = float(f_at_minus1), float(f_at_plus1)
    if lo > hi:
        raise NotNondecreasing(f"need f(-1) <= f(1), got {lo} > {hi}")
    return {
        "demi_expectation": -p * lo + (1.0 - p) * hi,
        "cond_mean_given_minus1": -2.0,
    }
