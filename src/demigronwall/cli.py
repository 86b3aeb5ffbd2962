"""Command-line entry point for the verification harnesses.

Each subcommand runs one harness with deterministic seeds, writes
``cases.csv`` (per-module schema) and ``report.json`` into the output
directory, and exits with

* 0 when every checked inequality holds,
* 2 when at least one inequality check failed,
* 1 on configuration or runtime errors.

Configuration is a flat sectioned key-value file (INI syntax): a ``[run]``
section carries seeds, path count and output directory; one section per
command carries its parameters.  Unknown sections and keys are rejected,
list values must be nonempty and real numbers finite.  Every section the
command needs (all five for ``all``) is validated, and its harness objects
built, before any simulation starts; so is the path count, against the
largest minimum that the requested checks need.  Flags override the file.
"""

import argparse
import configparser
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import bem as bem_mod
from . import demi as demi_mod
from . import fractional as frac_mod
from . import gronwall as gron_mod
from .errors import ConfigError, DemigronError
from .generators import GeneratorSpec, TrajectoryBatch, associated_increment_matrix, check_batch, generate_paths
from .reporting import VerificationReport
# uniform_matrix stays importable here: perfbench/tracer.py wraps it by this name
from .rng import draw_columns, uniform_matrix  # noqa: F401

# offsets deriving auxiliary master seeds from the user seed
_X_SEED_OFFSET = 0x100000001
_G_SEED_OFFSET = 0x200000003
_Y_SEED_OFFSET = 0x300000007


def _aux_seed(seed, offset):
    """Auxiliary master seed ``seed + offset``, wrapped modulo 2**64."""
    return (seed + offset) % 2 ** 64


def _uniform_batch(seed, offset, scale, n_paths, n_steps, label):
    """``scale`` times the uniforms of ``_aux_seed(seed, offset)``, ``n_steps + 1`` columns: a generated batch."""
    n_paths, n_steps = check_batch(n_paths, n_steps, n_steps + 1)
    master = _aux_seed(seed, offset)

    def tiles(r0, r1, width):
        return (np.multiply(t, scale, out=t) for t in draw_columns(master, r1 - r0, n_steps + 1, "uniform", r0, width))

    return TrajectoryBatch._generated(n_paths, n_steps, tiles, label)


# --------------------------------------------------------------------------
# value parsers: each takes the raw string (configparser has stripped it)
# and raises ValueError or a package error on a bad value
# --------------------------------------------------------------------------

def _bounded(kind, admissible, what):
    def parse(raw):
        value = kind(raw)
        if not admissible(value):
            raise ValueError(f"must be {what}, got {value}")
        return value

    return parse


_positive_int = _bounded(int, lambda v: v >= 1, ">= 1")
_finite = _bounded(float, math.isfinite, "finite")
_nonnegative = _bounded(float, lambda v: 0.0 <= v < math.inf, "finite and >= 0")
_fraction = _bounded(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")
_seed = _bounded(int, lambda v: 0 <= v < 2 ** 64, "a 64-bit unsigned integer")


def _list(item):
    def parse(raw):
        tokens = [tok.strip() for tok in str(raw).split(",") if tok.strip()]
        if not tokens:
            raise ValueError("list must be nonempty")
        return [item(tok) for tok in tokens]

    return parse


def _choice(*options):
    def parse(raw):
        if raw not in options:
            raise ValueError(f"expected one of {', '.join(options)}, got {raw!r}")
        return raw

    return parse


def _generator(token):
    if token == "random_walk_pm1":
        return GeneratorSpec.random_walk("pm1")
    if token == "random_walk_gauss":
        return GeneratorSpec.random_walk("gauss")
    if token.startswith("bounded_associated_"):
        theta, c = token[len("bounded_associated_"):].split("_")
        return GeneratorSpec.bounded_associated(_finite(theta), _finite(c))
    for prefix, make in (("associated_", GeneratorSpec.associated), ("two_point_", GeneratorSpec.two_point)):
        if token.startswith(prefix):
            return make(_finite(token[len(prefix):]))
    raise ValueError(f"unknown generator {token!r}")


def _exponents(token):
    """'mu:nu' as a float pair; 'inf' or 'oo' is an infinite exponent."""
    mu, nu = (math.inf if s.strip() in ("inf", "oo") else float(s) for s in token.split(":"))
    return mu, nu


#: every accepted key of every section: its parser and its default value
CONFIG = {
    "run": {
        "seeds": (_list(_seed), "20260808"),
        "paths": (_positive_int, "20000"),
        "out": (Path, "out"),
    },
    "demi-check": {
        "generator": (_generator, "two_point_0.3"),
        "mode": (_choice("demi", "demisub"), "demisub"),
        "n_steps": (_positive_int, "2"),
    },
    "gronwall-lemma": {
        "generators": (_list(_generator), "random_walk_pm1,associated_0.5"),
        "n_steps": (int, "16"),
        "p_grid": (_list(_fraction), "0.25,0.5,0.75"),
        "n_list": (_list(int), "1,8,16"),
    },
    "gronwall-theorem": {
        "n_steps": (int, "16"),
        "theta": (_nonnegative, "1.0"),
        "bound": (_finite, "1.0"),
        "x_scale": (_nonnegative, "2.0"),
        "g_value": (_nonnegative, "0.3"),
        "g_kinds": (_list(_choice("det", "random")), "det,random"),
        "p_grid": (_list(_fraction), "0.25,0.45"),
        "pairs": (_list(_exponents), "inf:1,2:2"),
        "n_list": (_list(int), "1,8,16"),
    },
    "fractional": {
        "betas": (_list(_finite), "0.5"),
        "q": (_list(_finite), "1.0"),
        "tau": (_finite, "0.1"),
        "n_steps": (int, "16"),
        "lambda1": (_finite, "0.5"),
        "lambda2": (_finite, "0.5"),
        "theta": (_nonnegative, "1.0"),
        "p_grid": (_list(_fraction), "0.5"),
        "pairs": (_list(_exponents), "inf:1"),
        "n_list": (_list(int), "8,16"),
    },
    "bem": {
        "model": (_choice("ou", "bounded_diffusion", "frozen"), "ou"),
        "kappa": (_finite, "1.0"),
        "sigma": (_finite, "1.0"),
        "t_horizon": (_finite, "1.0"),
        "h0": (_finite, "0.25"),
        "h_grid": (_list(_finite), "0.1,0.2"),
        "p_grid": (_list(_fraction), "0.25,0.5"),
        "x0": (_list(_finite), "1.0"),
        "newton_tol": (_finite, "1e-10"),
    },
}


def _load_sections(config_path):
    parser = configparser.ConfigParser()
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {config_path}")
        parser.read(path)
    for section in parser.sections():
        if section not in CONFIG:
            raise ConfigError(f"unknown section [{section}]")
    return parser


def _section_params(parser, section, overrides=None):
    """Parse one section: file values over the defaults, non-None overrides over both."""
    table = CONFIG[section]
    raw = {key: default for key, (_, default) in table.items()}
    if parser.has_section(section):
        for key, value in parser.items(section):
            if key not in table:
                raise ConfigError(f"[{section}] unknown key {key!r}")
            raw[key] = value
    raw.update((key, value) for key, value in (overrides or {}).items() if value is not None)
    params = {}
    for key, (parse, _) in table.items():
        try:
            params[key] = parse(raw[key])
        except (ValueError, DemigronError) as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from None
    return params


# --------------------------------------------------------------------------
# harness drivers: each takes its section's parsed values, checks the
# values against each other, builds the harness objects and returns
# run(seeds, n_paths) -> VerificationReport
# --------------------------------------------------------------------------

def _time_indices(n_list, first, n_steps):
    if any(not first <= n <= n_steps for n in n_list):
        raise ValueError(f"n_list entries must lie in [{first}, {n_steps}]")
    return sorted(set(n_list))


def _holder_pairs(p_grid, pairs):
    return [gron_mod.HolderPair(mu, nu, p) for p in p_grid for mu, nu in pairs]


def _drive_demi_check(generator, mode, n_steps):
    if n_steps < demi_mod.DEMI_MIN_STEPS:
        raise ValueError(f"n_steps must be >= {demi_mod.DEMI_MIN_STEPS}, got {n_steps}")

    def run(seeds, n_paths):
        report = VerificationReport(command="demi-check", columns=demi_mod.DEMI_COLUMNS, seeds=list(seeds))
        for seed in seeds:
            batch = generate_paths(generator, n_steps, n_paths, seed)
            family = demi_mod.TestFunctionFamily.default(batch)
            report.extend(demi_mod.check_demimartingale(batch, family, mode=mode))
        return report

    return run


def _drive_gronwall_lemma(generators, n_steps, p_grid, n_list):
    n_list = _time_indices(n_list, 0, n_steps)

    def run(seeds, n_paths):
        report = VerificationReport(command="gronwall-lemma", columns=gron_mod.GRONWALL_COLUMNS, seeds=list(seeds))
        for spec in generators:
            for seed in seeds:
                batch = generate_paths(spec, n_steps, n_paths, seed)
                for n in n_list:
                    report.extend(gron_mod.verify_maximal_inequality(batch, p_grid, n))
                del batch  # before the next batch is drawn
        return report

    return run


def _drive_gronwall_theorem(n_steps, theta, bound, x_scale, g_value, g_kinds, p_grid, pairs, n_list):
    n_list = _time_indices(n_list, 1, n_steps)
    holder_pairs = _holder_pairs(p_grid, pairs)
    spec = GeneratorSpec.bounded_associated(theta, bound)

    def run(seeds, n_paths):
        report = VerificationReport(command="gronwall-theorem", columns=gron_mod.GRONWALL_COLUMNS, seeds=list(seeds))
        for seed in seeds:
            s_batch = generate_paths(spec, n_steps, n_paths, seed)
            x_batch = _uniform_batch(seed, _X_SEED_OFFSET, x_scale, n_paths, n_steps, "uniform-X")
            for kind in g_kinds:
                if kind == "det":
                    growth = np.full(n_steps, g_value)
                else:
                    growth = _uniform_batch(seed, _G_SEED_OFFSET, g_value, n_paths, n_steps, "uniform-G")
                instance = gron_mod.build_instance(x_batch, s_batch, growth)
                report.extend(gron_mod.verify_gronwall(instance, holder_pairs, n_list))
                del growth, instance  # before the next ones are built
            del s_batch, x_batch  # before the next seed's are drawn
        return report

    return run


def _drive_fractional(betas, q, tau, n_steps, lambda1, lambda2, theta, p_grid, pairs, n_list):
    model = frac_mod.FractionalModel(
        betas=tuple(betas), q=tuple(q), tau=tau, n_steps=n_steps, lambda1=lambda1, lambda2=lambda2,
    )
    holder_pairs = _holder_pairs(p_grid, pairs)
    n_list = _time_indices(n_list, 1, n_steps)
    for n in n_list:  # a rate too large for the Mittag-Leffler series fails here, before any run
        frac_mod.ml_growth_factor(model, n)

    def run(seeds, n_paths):
        report = VerificationReport(command="fractional", columns=gron_mod.GRONWALL_COLUMNS, seeds=list(seeds))
        for seed in seeds:
            x_inc = associated_increment_matrix(theta, n_steps + 1, n_paths, _aux_seed(seed, _X_SEED_OFFSET))
            x_batch = TrajectoryBatch(np.square(x_inc, out=x_inc), label="squared-associated-X")
            y_vals = associated_increment_matrix(theta, n_steps, n_paths, _aux_seed(seed, _Y_SEED_OFFSET))
            y_batch = TrajectoryBatch(y_vals, label="associated-Y")
            assoc = demi_mod.check_association(y_batch, demi_mod.TestFunctionFamily.default(y_batch))
            report.checks[f"y_association[seed={seed}]"] = assoc.overall_pass
            report.extend(frac_mod.verify_fractional_gronwall(model, x_batch, y_vals, holder_pairs, n_list))
            del x_inc, x_batch, y_vals, y_batch  # before the next seed's are drawn
        return report

    return run


def _drive_bem(model, kappa, sigma, t_horizon, h0, h_grid, p_grid, x0, newton_tol):
    if model == "ou":
        sde = bem_mod.ou_model(kappa, sigma)
    elif model == "bounded_diffusion":
        sde = bem_mod.bounded_diffusion_model(kappa, sigma)
    else:
        sde = bem_mod.frozen_model()
    cfgs = [
        bem_mod.BemConfig(h=h, t_horizon=t_horizon, h0=h0, x0=np.array(x0), newton_tol=newton_tol)
        for h in h_grid
    ]
    bem_mod._check_grid(sde, cfgs)

    def run(seeds, n_paths):
        report = VerificationReport(command="bem", columns=bem_mod.BEM_COLUMNS, seeds=list(seeds))
        for seed in seeds:
            report.extend(bem_mod.verify_apriori_bound(sde, cfgs, p_grid, n_paths, seed))
        return report

    return run


_DRIVERS = {
    "demi-check": _drive_demi_check,
    "gronwall-lemma": _drive_gronwall_lemma,
    "gronwall-theorem": _drive_gronwall_theorem,
    "fractional": _drive_fractional,
    "bem": _drive_bem,
}

COMMANDS = (*_DRIVERS, "all")


# --------------------------------------------------------------------------
# orchestration
# --------------------------------------------------------------------------

def _min_paths(command):
    """Fewest paths the checks of ``command`` accept."""
    if command in ("demi-check", "bem"):
        return demi_mod.DEMI_MIN_PATHS
    if command == "fractional":
        return demi_mod.ASSOCIATION_MIN_PATHS
    return 1


def _prepare(parser, command):
    """Validate one command's section and build its harness.

    Returns its run() and the fewest paths it accepts.
    """
    params = _section_params(parser, command)
    try:
        return _DRIVERS[command](**params), _min_paths(command)
    except (ValueError, DemigronError) as exc:
        raise ConfigError(f"[{command}] {exc}") from None


def _write_outputs(report, out_dir, quiet):
    out_dir.mkdir(parents=True, exist_ok=True)
    report.to_csv(out_dir / "cases.csv")
    report.write_json(out_dir / "report.json")
    if not quiet:
        status = "pass" if report.overall_pass else "FAIL"
        print(f"{report.command}: {len(report.rows)} cases, {status}")


def run(command, config_path=None, args=None) -> int:
    """Execute one command; returns the process exit code."""
    args = args or argparse.Namespace(seed=None, paths=None, out=None, quiet=False)
    parser = _load_sections(config_path)
    settings = _section_params(parser, "run", {"seeds": args.seed, "paths": args.paths, "out": args.out})
    seeds, n_paths, out_root = settings["seeds"], settings["paths"], settings["out"]
    commands = list(_DRIVERS) if command == "all" else [command]
    prepared = {cmd: _prepare(parser, cmd) for cmd in commands}
    neediest = max(prepared, key=lambda cmd: prepared[cmd][1])
    if n_paths < prepared[neediest][1]:
        raise ConfigError(f"[run] paths: {neediest} needs at least {prepared[neediest][1]} paths, got {n_paths}")
    verdicts = {}
    for cmd, (run_harness, _) in prepared.items():
        started = time.perf_counter()
        report = run_harness(seeds, n_paths)
        report.wall_clock = time.perf_counter() - started
        _write_outputs(report, out_root / cmd, args.quiet)
        verdicts[cmd] = "pass" if report.overall_pass else "fail"
    all_pass = all(verdict == "pass" for verdict in verdicts.values())
    if command == "all":
        aggregate = VerificationReport(command="all", columns=["command", "overall"], seeds=list(seeds))
        for cmd, verdict in verdicts.items():
            aggregate.add_row(command=cmd, overall=verdict)["verdict"] = verdict
        aggregate.write_json(out_root / "report.json")
        if not args.quiet:
            print(f"all: {'pass' if all_pass else 'FAIL'}")
    return 0 if all_pass else 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="demigronwall", description=__doc__, add_help=True)
    parser.add_argument("command", choices=COMMANDS, help="verification harness to run")
    parser.add_argument("--config", default=None, help="sectioned key-value configuration file")
    parser.add_argument("--seed", type=int, default=None, help="override the seed list with one seed")
    parser.add_argument("--paths", type=int, default=None, help="number of Monte Carlo paths")
    parser.add_argument("--out", default=None, help="output directory (default: out)")
    parser.add_argument("--quiet", action="store_true", help="suppress progress lines")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return run(args.command, config_path=args.config, args=args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except DemigronError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
