"""Seeded workloads of the benchmark.

Each workload builds its inputs once from the workload seed (``setup``) and
then defines the operations of one timed pass (``ops``).  An operation is
one call into a harness of the package; its ``run`` part is timed and its
``render`` part turns the result into the bytes the output gate compares.

Package functions are always looked up as module attributes at call time
(``gronwall.verify_maximal_inequality``, not a name imported once), so the
tracer's wrappers see every call.
"""

import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

#: seed of the committed reference outputs; the package's own default seed
DEFAULT_SEED = 20260808


@dataclass(frozen=True)
class Op:
    name: str
    run: object  # () -> result; timed
    render: object  # result -> bytes; untimed, feeds the output gate


def _draws(workload, seed):
    """Master seeds handed to the package, derived from the workload seed."""
    return random.Random(f"{workload}:{int(seed)}")


def render_reports(reports):
    """Rows and checks of verification reports, in the package's CSV cell format."""
    from demigronwall.reporting import format_cell

    lines = []
    for report in reports:
        lines.append(",".join(report.columns))
        for row in report.rows:
            lines.append(",".join(format_cell(row.get(col)) for col in report.columns))
        for name, ok in sorted(report.checks.items()):
            lines.append(f"check {name} {format_cell(bool(ok))}")
    return ("\n".join(lines) + "\n").encode()


# --------------------------------------------------------------------------
# maximal-lemma: generators x seeds, maximal inequality on each batch
# --------------------------------------------------------------------------

class MaximalLemma:
    """The C2 traffic: rng, generators and gronwall.maximal do all the work."""

    name = "maximal-lemma"
    n_steps = 50
    n_paths = 100_000
    n_list = (2, 10, 25, 50)
    p_grid = (0.25, 0.5, 0.75)
    generators = (
        ("random_walk-pm1", "random_walk", ("pm1",)),
        ("random_walk-gauss", "random_walk", ("gauss",)),
        ("associated-0.5", "associated", (0.5,)),
        ("bounded_associated-1-1", "bounded_associated", (1.0, 1.0)),
        ("two_point-0.5", "two_point", (0.5,)),
    )
    path_steps = len(generators) * n_paths * n_steps

    def setup(self, seed, workdir):
        from demigronwall.generators import GeneratorSpec

        draw = _draws(self.name, seed)
        return [
            (name, getattr(GeneratorSpec, factory)(*args), draw.getrandbits(32))
            for name, factory, args in self.generators
        ]

    def ops(self, state, instrument):
        from demigronwall import generators, gronwall

        def batch(spec, seed):
            paths = generators.generate_paths(spec, self.n_steps, self.n_paths, seed)
            return [gronwall.verify_maximal_inequality(paths, self.p_grid, n) for n in self.n_list]

        return [
            Op(name, lambda spec=spec, seed=seed: batch(spec, seed), render_reports)
            for name, spec, seed in state
        ]


# --------------------------------------------------------------------------
# bem-newton: a-priori bound on a 2-D cubic-drift model owned by the benchmark
# --------------------------------------------------------------------------

def cubic_drift(y):
    """f(x) = -x - |x|^2 x."""
    return -y - (y * y).sum(axis=1, keepdims=True) * y


def cubic_jacobian(y):
    """Df(x) = -(1 + |x|^2) I - 2 x x^T."""
    import numpy as np

    jac = -2.0 * y[:, :, None] * y[:, None, :]
    diag = np.arange(y.shape[1])
    jac[:, diag, diag] -= 1.0 + (y * y).sum(axis=1)[:, None]
    return jac


def unit_diffusion(y):
    """g(x) = I (m = d = 2)."""
    import numpy as np

    return np.broadcast_to(np.eye(2), (y.shape[0], 2, 2))


class BemNewton:
    """Damped Newton with line search and batched 2x2 solves dominates the pass."""

    name = "bem-newton"
    x0 = (2.0, -1.0)
    t_horizon = 1.0
    h0 = 0.25
    h_grid = (0.02, 0.05, 0.1, 0.2)
    p_grid = (0.25, 0.5)
    n_paths = 20_000
    path_steps = n_paths * (50 + 20 + 10 + 5)  # T / h steps for each h of the grid

    def setup(self, seed, workdir):
        import numpy as np

        from demigronwall import bem

        # <f(x), x> + |g|^2/2 = 1 - |x|^2 - |x|^4 <= 1 + |x|^2, so L = 1;
        # -|x|^2 x is monotone decreasing, so the one-sided constant is -1.
        model = bem.SdeModel(
            d=2, m=2, drift=cubic_drift, diffusion=unit_diffusion, drift_jacobian=cubic_jacobian,
            L=1.0, osl=-1.0, label="cubic2d",
        )
        probe = bem.coercivity_probe(model, [-10.0, -10.0], [10.0, 10.0], 4096, seed=1)
        if not probe["passed"]:
            raise RuntimeError(f"coercivity probe failed for the benchmark model: {probe}")
        cfgs = [
            bem.BemConfig(h=h, t_horizon=self.t_horizon, h0=self.h0, x0=np.array(self.x0))
            for h in self.h_grid
        ]
        return model, cfgs, _draws(self.name, seed).getrandbits(32)

    def ops(self, state, instrument):
        from demigronwall import bem

        model, cfgs, seed = state
        model = instrument(model)

        def one_h(cfg):
            return [bem.verify_apriori_bound(model, [cfg], self.p_grid, self.n_paths, seed)]

        return [
            Op(f"h-{cfg.h:g}", lambda cfg=cfg: one_h(cfg), render_reports) for cfg in cfgs
        ]


# --------------------------------------------------------------------------
# cli-all: `demigronwall all` in-process with the bundled defaults
# --------------------------------------------------------------------------

class CliAll:
    """The only workload that reaches cli, reporting, fractional and demi.check_association."""

    name = "cli-all"
    n_seeds = 3
    n_paths = 50_000
    # paths x steps of every generated batch under the bundled defaults:
    # demi-check 2 steps, gronwall-lemma 2 generators x 16, gronwall-theorem 16,
    # fractional 17 + 16 associated increments, bem (ou) 10 + 5 steps
    path_steps = n_seeds * n_paths * (2 + 2 * 16 + 16 + (17 + 16) + (10 + 5))

    def setup(self, seed, workdir):
        import demigronwall  # noqa: F401  (the CLI imports it; set-up pays for it)

        draw = _draws(self.name, seed)
        seeds = ", ".join(str(draw.getrandbits(32)) for _ in range(self.n_seeds))
        out = workdir / "cli-all"
        shutil.rmtree(out, ignore_errors=True)
        ini = workdir / "cli-all.ini"
        ini.write_text(f"[run]\nseeds = {seeds}\npaths = {self.n_paths}\nout = {out}\n")
        return ini, out

    def ops(self, state, instrument):
        from demigronwall import cli

        ini, out = state

        def run_all():
            code = cli.main(["all", "--config", str(ini), "--quiet"])
            # 2 means a statistical verdict failed, which is an output; 1 is an error
            if code not in (0, 2):
                raise RuntimeError(f"demigronwall all exited with code {code}")
            return code

        def render(code):
            parts = [f"exit_code {code}\n".encode()]
            for path in sorted(p for p in out.rglob("*") if p.is_file()):
                data = path.read_bytes()
                if path.name == "report.json":
                    doc = json.loads(data)
                    doc.pop("wall_clock_s", None)  # timing, outside the hashed body
                    data = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
                parts.append(f"== {path.relative_to(out).as_posix()}\n".encode() + data)
            return b"".join(parts)

        return [Op("all", run_all, render)]


WORKLOADS = {w.name: w for w in (MaximalLemma(), BemNewton(), CliAll())}


def workdir_for(root: Path) -> Path:
    """Scratch directory of the benchmark inside the checkout."""
    path = root / ".bench_build" / "perfbench"
    path.mkdir(parents=True, exist_ok=True)
    return path
