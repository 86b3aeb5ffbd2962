"""Estimator primitives and deterministic serialization of verification results.

Every harness compares a Monte Carlo moment with its standard error
one-sidedly against a closed form; the mean, its standard error, the
delta-method propagation and the verdict are computed here once.

Reports are fully determined by (configuration, seeds): floats are written
with ``repr`` (shortest round-trip form) and the JSON body excludes wall
clock, so reruns with identical inputs produce byte-identical ``cases.csv``
files and an identical body hash.
"""

import hashlib
import json
import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .errors import DegenerateBatch, InvalidSpec, POutOfRange

#: every one-sided check passes when ``lhs <= rhs + SLACK_SD * combined SE``
SLACK_SD = 3.0

#: one-sided confidence level of every demimartingale and association z-test cell
Z_LEVEL = 0.999

#: the z-test cells' slack ``z(Z_LEVEL)``: a cell fails when its estimate is below ``-Z_SLACK * SE``
Z_SLACK = float(ndtri(Z_LEVEL))


def _mean_se(x, out=None) -> tuple:
    """``(mean, se)`` of ``x`` along axis 0, with its deviations written to ``out`` (a new array if ``None``).

    The ufunc reductions of numpy's ``x.mean(axis=0)`` and
    ``x.std(ddof=1, axis=0)``, in their order, but with the mean taken
    once: the bits equal ``(mean, std / sqrt(m))`` on any layout.
    """
    m = x.shape[0]
    if m == 0:
        raise DegenerateBatch("need at least one sample for a mean")
    dtype = np.float64 if x.dtype.kind in "biu" else None  # numpy's mean and std sum integers as floats
    mean = np.add.reduce(x, axis=0, dtype=dtype) / m
    if m == 1:
        return mean, np.zeros_like(mean)
    dev = np.subtract(x, mean, out=out)
    np.square(dev, out=dev)
    return mean, np.sqrt(np.add.reduce(dev, axis=0) / (m - 1)) / math.sqrt(m)


def mean_se(samples) -> tuple:
    """Sample mean along axis 0 and its standard error (0 for one sample).

    A 1-D input gives two floats, a wider input arrays over its other axes.
    Bit for bit ``x.mean(axis=0)`` and ``x.std(ddof=1, axis=0) / sqrt(m)``.
    An empty sample raises :class:`DegenerateBatch`.
    """
    x = np.asarray(samples)
    mean, se = _mean_se(x)
    if x.ndim == 1:
        return float(mean), float(se)
    return mean, se


def difference_mean_se(a, b, scratch) -> tuple:
    """``mean_se(a - b)`` of two 1-D samples, bit for bit, worked in ``scratch``, which it overwrites.

    ``scratch`` is a float array of the samples' length; nothing of that
    length is allocated.
    """
    mean, se = _mean_se(np.subtract(a, b, out=scratch), out=scratch)
    return float(mean), float(se)


def exponent_list(p_grid) -> list:
    """``p_grid`` as a list; a scalar (a string included) or an empty grid raises :class:`InvalidSpec`."""
    if isinstance(p_grid, str) or not isinstance(p_grid, Iterable):
        raise InvalidSpec(f"p_grid must be a list of exponents, got {p_grid!r}")
    p_grid = list(p_grid)
    if not p_grid:
        raise InvalidSpec("empty p_grid: need at least one exponent")
    return p_grid


def unit_exponent(p) -> float:
    """``p`` as a float, raising :class:`POutOfRange` unless it lies in (0, 1): the range of every moment exponent."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise POutOfRange(f"p must lie in (0, 1), got {p}")
    return p


def root_of_mean(powered, r) -> tuple:
    """``mean(powered) ** (1/r)`` with its delta-method standard error.

    With ``powered = |X| ** r`` this is the plug-in estimate of ``||X||_r``.
    """
    mean, se_mean = mean_se(powered)
    se = se_mean * mean ** (1.0 / r - 1.0) / r if mean > 0.0 else 0.0
    return mean ** (1.0 / r), se


def power_se(mean, se, power) -> float:
    """Delta-method standard error of ``mean ** power``."""
    if mean <= 0.0 or se == 0.0:
        return 0.0
    return abs(power) * mean ** (power - 1.0) * se


def mu_norm(values, p, mu) -> tuple:
    """``||values ** p||_mu`` with its standard error.

    A scalar is exact.  For a sample, mu = inf uses the sample maximum,
    which can only understate the essential supremum; finite mu is a
    plug-in estimate with a delta-method standard error.  An empty sample
    raises :class:`DegenerateBatch`.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim == 0:
        return float(x) ** p, 0.0
    if x.size == 0:
        raise DegenerateBatch("need at least one sample for a norm")
    if math.isinf(mu):
        return float(x.max()) ** p, 0.0
    return root_of_mean(x ** (p * mu), mu)


def one_sided_verdict(lhs, lhs_se, rhs, rhs_se, slack=SLACK_SD) -> dict:
    """``margin`` and ``verdict`` cells of the check ``lhs <= rhs + slack * combined SE``.

    Every verdict is decided here; the demimartingale and association
    z-tests pass ``slack = Z_SLACK``.
    """
    margin = rhs + slack * math.hypot(lhs_se, rhs_se) - lhs
    return {"margin": margin, "verdict": "pass" if margin >= 0.0 else "fail"}


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "pass" if value else "fail"
    if isinstance(value, numbers.Real) and not isinstance(value, numbers.Integral):
        return repr(float(value))
    return str(value)


@dataclass
class VerificationReport:
    """Tabular verdict of one harness run.

    ``rows`` is a list of dicts keyed by ``columns``; every row must carry a
    ``verdict`` entry equal to ``"pass"`` or ``"fail"``.  ``checks`` holds
    named boolean side conditions that participate in the overall verdict
    but do not fit the tabular schema (hypothesis violation counts,
    auxiliary statistical checks, ...); merging reports ANDs checks that
    share a name, so a failure is never overwritten by a later pass.
    """

    command: str
    columns: list
    rows: list = field(default_factory=list)
    seeds: list = field(default_factory=list)
    checks: dict = field(default_factory=dict)
    wall_clock: float = None

    @property
    def overall_pass(self) -> bool:
        rows_ok = all(row.get("verdict") == "pass" for row in self.rows)
        checks_ok = all(bool(v) for v in self.checks.values())
        return rows_ok and checks_ok

    def add_row(self, **cells) -> dict:
        row = {col: cells.get(col) for col in self.columns}
        self.rows.append(row)
        return row

    def extend(self, other: "VerificationReport") -> None:
        if other.columns != self.columns:
            raise ValueError("cannot merge reports with different schemas")
        self.rows.extend(other.rows)
        for name, ok in other.checks.items():
            self.checks[name] = self.checks.get(name, True) and bool(ok)
        for seed in other.seeds:
            if seed not in self.seeds:
                self.seeds.append(seed)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(self.columns) + "\n")
            for row in self.rows:
                fh.write(",".join(format_cell(row.get(col)) for col in self.columns) + "\n")

    def json_body(self) -> dict:
        return {
            "command": self.command,
            "columns": self.columns,
            "rows": [{k: row.get(k) for k in self.columns} for row in self.rows],
            "checks": {k: bool(v) for k, v in sorted(self.checks.items())},
            "seeds": list(self.seeds),
            "overall": "pass" if self.overall_pass else "fail",
        }

    def write_json(self, path) -> None:
        body = self.json_body()
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
        doc = dict(body)
        doc["body_sha256"] = hashlib.sha256(canonical).hexdigest()
        if self.wall_clock is not None:
            doc["wall_clock_s"] = round(self.wall_clock, 3)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
