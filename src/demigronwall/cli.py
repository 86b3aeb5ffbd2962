"""Command-line entry point for the verification harnesses.

Each subcommand runs one harness with deterministic seeds, writes
``cases.csv`` (per-module schema) and ``report.json`` into the output
directory, and exits with

* 0 when every checked inequality holds,
* 2 when at least one inequality check failed,
* 1 on configuration or runtime errors.

Configuration is a flat sectioned key-value file (INI syntax): a ``[run]``
section carries seeds, path count and output directory; one section per
command carries its parameters.  Unknown keys are rejected and every value
is validated before any simulation starts.  Flags override the file.
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
from .generators import GeneratorSpec, TrajectoryBatch, associated_increment_matrix, generate_paths
from .reporting import VerificationReport
from .rng import uniform_matrix

COMMANDS = ("demi-check", "gronwall-lemma", "gronwall-theorem", "fractional", "bem", "all")

RUN_DEFAULTS = {"seeds": "20260808", "paths": "20000", "out": "out"}

DEFAULTS = {
    "demi-check": {
        "generator": "two_point_0.3",
        "mode": "demisub",
        "n_steps": "2",
        "level": "0.999",
    },
    "gronwall-lemma": {
        "generators": "random_walk_pm1,associated_0.5",
        "n_steps": "16",
        "p_grid": "0.25,0.5,0.75",
        "n_list": "1,8,16",
    },
    "gronwall-theorem": {
        "n_steps": "16",
        "theta": "1.0",
        "bound": "1.0",
        "x_scale": "2.0",
        "g_value": "0.3",
        "g_kinds": "det,random",
        "p_grid": "0.25,0.45",
        "pairs": "inf:1,2:2",
        "n_list": "1,8,16",
    },
    "fractional": {
        "betas": "0.5",
        "q": "1.0",
        "tau": "0.1",
        "n_steps": "16",
        "lambda1": "0.5",
        "lambda2": "0.5",
        "theta": "1.0",
        "p_grid": "0.5",
        "pairs": "inf:1",
        "n_list": "8,16",
        "check_association": "true",
    },
    "bem": {
        "model": "ou",
        "kappa": "1.0",
        "sigma": "1.0",
        "t_horizon": "1.0",
        "h0": "0.25",
        "h_grid": "0.1,0.2",
        "p_grid": "0.25,0.5",
        "x0": "1.0",
        "newton_tol": "1e-10",
        "level": "0.999",
    },
}

# offsets deriving auxiliary master seeds from the user seed
_X_SEED_OFFSET = 0x100000001
_G_SEED_OFFSET = 0x200000003
_Y_SEED_OFFSET = 0x300000007


# --------------------------------------------------------------------------
# configuration parsing
# --------------------------------------------------------------------------

def _parse_float(section, key, raw):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected a number, got {raw!r}") from None


def _parse_int(section, key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected an integer, got {raw!r}") from None


def _parse_float_list(section, key, raw):
    items = [s.strip() for s in str(raw).split(",") if s.strip()]
    if not items:
        raise ConfigError(f"[{section}] {key}: list must be nonempty")
    return [_parse_float(section, key, s) for s in items]


def _parse_int_list(section, key, raw):
    return [_parse_int(section, key, s) for s in str(raw).split(",") if s.strip()]


def _parse_bool(section, key, raw):
    val = str(raw).strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"[{section}] {key}: expected a boolean, got {raw!r}")


def _parse_generator(token, section="config"):
    token = token.strip()
    if token == "random_walk_pm1":
        return GeneratorSpec.random_walk("pm1")
    if token == "random_walk_gauss":
        return GeneratorSpec.random_walk("gauss")
    for prefix, maker in (
        ("bounded_associated_", None),
        ("associated_", GeneratorSpec.associated),
        ("two_point_", GeneratorSpec.two_point),
    ):
        if token.startswith(prefix):
            rest = token[len(prefix):]
            try:
                if prefix == "bounded_associated_":
                    theta, c = rest.split("_")
                    return GeneratorSpec.bounded_associated(float(theta), float(c))
                return maker(float(rest))
            except (ValueError, DemigronError) as exc:
                raise ConfigError(f"[{section}] generator token {token!r}: {exc}") from None
    raise ConfigError(f"[{section}] unknown generator {token!r}")


def _parse_pairs(section, raw, p):
    """Parse 'mu:nu' tokens into HolderPair objects for exponent p."""
    pairs = []
    for token in str(raw).split(","):
        token = token.strip()
        if not token:
            continue
        try:
            mu_s, nu_s = token.split(":")
            mu = math.inf if mu_s.strip() in ("inf", "oo") else float(mu_s)
            nu = math.inf if nu_s.strip() in ("inf", "oo") else float(nu_s)
            pairs.append(gron_mod.HolderPair(mu, nu, p))
        except DemigronError as exc:
            raise ConfigError(f"[{section}] pairs token {token!r} with p={p}: {exc}") from None
        except ValueError:
            raise ConfigError(f"[{section}] pairs token {token!r}: expected 'mu:nu'") from None
    if not pairs:
        raise ConfigError(f"[{section}] pairs: list must be nonempty")
    return pairs


def _load_sections(config_path):
    parser = configparser.ConfigParser()
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {config_path}")
        parser.read(path)
    return parser


def _section_params(parser, command):
    """Merge defaults with the config-file section, rejecting unknown keys."""
    params = dict(DEFAULTS[command])
    if parser.has_section(command):
        for key, value in parser.items(command):
            if key not in params:
                raise ConfigError(f"[{command}] unknown key {key!r}")
            params[key] = value
    return params


def _run_params(parser, args):
    params = dict(RUN_DEFAULTS)
    if parser.has_section("run"):
        for key, value in parser.items("run"):
            if key not in params:
                raise ConfigError(f"[run] unknown key {key!r}")
            params[key] = value
    seeds = _parse_int_list("run", "seeds", params["seeds"])
    if args.seed is not None:
        seeds = [args.seed]
    if not seeds:
        raise ConfigError("[run] seeds: need at least one seed")
    for s in seeds:
        if not 0 <= s < 2 ** 64:
            raise ConfigError(f"[run] seeds: {s} is not a 64-bit unsigned integer")
    paths = args.paths if args.paths is not None else _parse_int("run", "paths", params["paths"])
    if paths < 1:
        raise ConfigError(f"[run] paths: must be >= 1, got {paths}")
    out = Path(args.out if args.out is not None else params["out"])
    return seeds, paths, out


# --------------------------------------------------------------------------
# harness drivers
# --------------------------------------------------------------------------

def _drive_demi_check(params, seeds, n_paths):
    section = "demi-check"
    spec = _parse_generator(params["generator"], section)
    n_steps = _parse_int(section, "n_steps", params["n_steps"])
    level = _parse_float(section, "level", params["level"])
    mode = params["mode"].strip()
    if mode not in ("demi", "demisub"):
        raise ConfigError(f"[{section}] mode must be 'demi' or 'demisub', got {mode!r}")
    if not 0.0 < level < 1.0:
        raise ConfigError(f"[{section}] level must lie in (0, 1), got {level}")
    if n_steps < 1:
        raise ConfigError(f"[{section}] n_steps must be >= 1, got {n_steps}")
    report = VerificationReport(command=section, columns=demi_mod.DEMI_COLUMNS, seeds=list(seeds))
    for seed in seeds:
        batch = generate_paths(spec, n_steps, n_paths, seed)
        family = demi_mod.TestFunctionFamily.default(batch)
        report.extend(demi_mod.check_demimartingale(batch, family, level=level, mode=mode))
    return report


def _uniform_batch(seed, n_paths, n_cols, scale, starts_at_zero=False, label="uniform"):
    vals = scale * uniform_matrix(seed, n_paths, n_cols)
    if starts_at_zero:
        vals[:, 0] = 0.0
    return TrajectoryBatch(vals, label=label, starts_at_zero=starts_at_zero)


def _drive_gronwall_lemma(params, seeds, n_paths):
    section = "gronwall-lemma"
    gens = [_parse_generator(tok, section) for tok in params["generators"].split(",") if tok.strip()]
    if not gens:
        raise ConfigError(f"[{section}] generators: list must be nonempty")
    n_steps = _parse_int(section, "n_steps", params["n_steps"])
    p_grid = _parse_float_list(section, "p_grid", params["p_grid"])
    for p in p_grid:
        if not 0.0 < p < 1.0:
            raise ConfigError(f"[{section}] p_grid: p must lie in (0, 1), got {p}")
    n_list = sorted(set(_parse_int_list(section, "n_list", params["n_list"])))
    if any(not 0 <= n <= n_steps for n in n_list):
        raise ConfigError(f"[{section}] n_list entries must lie in [0, {n_steps}]")
    report = VerificationReport(command=section, columns=gron_mod.GRONWALL_COLUMNS, seeds=list(seeds))
    for spec in gens:
        for seed in seeds:
            batch = generate_paths(spec, n_steps, n_paths, seed)
            for n in n_list:
                report.extend(gron_mod.verify_maximal_inequality(batch, p_grid, n))
    return report


def _drive_gronwall_theorem(params, seeds, n_paths):
    section = "gronwall-theorem"
    n_steps = _parse_int(section, "n_steps", params["n_steps"])
    theta = _parse_float(section, "theta", params["theta"])
    c = _parse_float(section, "bound", params["bound"])
    x_scale = _parse_float(section, "x_scale", params["x_scale"])
    g_value = _parse_float(section, "g_value", params["g_value"])
    if g_value < 0 or x_scale < 0:
        raise ConfigError(f"[{section}] g_value and x_scale must be >= 0")
    g_kinds = [tok.strip() for tok in params["g_kinds"].split(",") if tok.strip()]
    if any(kind not in ("det", "random") for kind in g_kinds):
        raise ConfigError(f"[{section}] g_kinds entries must be 'det' or 'random'")
    p_grid = _parse_float_list(section, "p_grid", params["p_grid"])
    pair_grid = {p: _parse_pairs(section, params["pairs"], p) for p in p_grid}
    n_list = sorted(set(_parse_int_list(section, "n_list", params["n_list"])))
    if any(not 1 <= n <= n_steps for n in n_list):
        raise ConfigError(f"[{section}] n_list entries must lie in [1, {n_steps}]")
    spec = GeneratorSpec.bounded_associated(theta, c)
    report = VerificationReport(command=section, columns=gron_mod.GRONWALL_COLUMNS, seeds=list(seeds))
    for seed in seeds:
        s_batch = generate_paths(spec, n_steps, n_paths, seed)
        x_batch = _uniform_batch(seed + _X_SEED_OFFSET, n_paths, n_steps + 1, x_scale, label="uniform-X")
        for kind in g_kinds:
            if kind == "det":
                growth = np.full(n_steps, g_value)
            else:
                growth = TrajectoryBatch(
                    g_value * uniform_matrix(seed + _G_SEED_OFFSET, n_paths, n_steps + 1),
                    label="uniform-G",
                )
            instance = gron_mod.build_instance(x_batch, s_batch, growth)
            for p in p_grid:
                for pair in pair_grid[p]:
                    for n in n_list:
                        report.extend(gron_mod.verify_gronwall(instance, pair, n))
    return report


def _drive_fractional(params, seeds, n_paths):
    section = "fractional"
    betas = _parse_float_list(section, "betas", params["betas"])
    q = _parse_float_list(section, "q", params["q"])
    tau = _parse_float(section, "tau", params["tau"])
    n_steps = _parse_int(section, "n_steps", params["n_steps"])
    lambda1 = _parse_float(section, "lambda1", params["lambda1"])
    lambda2 = _parse_float(section, "lambda2", params["lambda2"])
    theta = _parse_float(section, "theta", params["theta"])
    check_assoc = _parse_bool(section, "check_association", params["check_association"])
    try:
        model = frac_mod.FractionalModel(
            betas=tuple(betas), q=tuple(q), tau=tau, n_steps=n_steps,
            lambda1=lambda1, lambda2=lambda2,
        )
    except DemigronError as exc:
        raise ConfigError(f"[{section}] invalid model: {exc}") from None
    p_grid = _parse_float_list(section, "p_grid", params["p_grid"])
    pair_grid = {p: _parse_pairs(section, params["pairs"], p) for p in p_grid}
    n_list = sorted(set(_parse_int_list(section, "n_list", params["n_list"])))
    if any(not 1 <= n <= n_steps for n in n_list):
        raise ConfigError(f"[{section}] n_list entries must lie in [1, {n_steps}]")
    report = VerificationReport(command=section, columns=gron_mod.GRONWALL_COLUMNS, seeds=list(seeds))
    for seed in seeds:
        x_inc = associated_increment_matrix(theta, n_steps + 1, n_paths, seed + _X_SEED_OFFSET)
        x_batch = TrajectoryBatch(x_inc ** 2, label="squared-associated-X")
        y_vals = associated_increment_matrix(theta, n_steps, n_paths, seed + _Y_SEED_OFFSET)
        if check_assoc:
            y_batch = TrajectoryBatch(y_vals, label="associated-Y")
            assoc = demi_mod.check_association(y_batch, demi_mod.TestFunctionFamily.default(y_batch))
            report.checks[f"y_association[seed={seed}]"] = assoc.overall_pass
        for p in p_grid:
            for pair in pair_grid[p]:
                for n in n_list:
                    report.extend(frac_mod.verify_fractional_gronwall(model, x_batch, y_vals, pair, n))
    return report


def _drive_bem(params, seeds, n_paths):
    section = "bem"
    name = params["model"].strip()
    kappa = _parse_float(section, "kappa", params["kappa"])
    sigma = _parse_float(section, "sigma", params["sigma"])
    try:
        if name == "ou":
            model = bem_mod.ou_model(kappa, sigma)
        elif name == "bounded_diffusion":
            model = bem_mod.bounded_diffusion_model(kappa, sigma)
        elif name == "frozen":
            model = bem_mod.frozen_model()
        else:
            raise ConfigError(f"[{section}] unknown model {name!r}")
    except DemigronError as exc:
        raise ConfigError(f"[{section}] invalid model: {exc}") from None
    t_horizon = _parse_float(section, "t_horizon", params["t_horizon"])
    h0 = _parse_float(section, "h0", params["h0"])
    h_grid = _parse_float_list(section, "h_grid", params["h_grid"])
    p_grid = _parse_float_list(section, "p_grid", params["p_grid"])
    for p in p_grid:
        if not 0.0 < p < 1.0:
            raise ConfigError(f"[{section}] p_grid: p must lie in (0, 1), got {p}")
    x0 = np.array(_parse_float_list(section, "x0", params["x0"]))
    newton_tol = _parse_float(section, "newton_tol", params["newton_tol"])
    level = _parse_float(section, "level", params["level"])
    try:
        cfgs = [
            bem_mod.BemConfig(h=h, t_horizon=t_horizon, h0=h0, x0=x0, newton_tol=newton_tol)
            for h in h_grid
        ]
        for cfg in cfgs:
            cfg.validate_against(model)
    except DemigronError as exc:
        raise ConfigError(f"[{section}] invalid configuration: {exc}") from None
    report = VerificationReport(command=section, columns=bem_mod.BEM_COLUMNS, seeds=list(seeds))
    for seed in seeds:
        report.extend(
            bem_mod.verify_apriori_bound(model, cfgs, p_grid, n_paths, seed, level=level)
        )
    return report


_DRIVERS = {
    "demi-check": _drive_demi_check,
    "gronwall-lemma": _drive_gronwall_lemma,
    "gronwall-theorem": _drive_gronwall_theorem,
    "fractional": _drive_fractional,
    "bem": _drive_bem,
}


# --------------------------------------------------------------------------
# orchestration
# --------------------------------------------------------------------------

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
    seeds, n_paths, out_root = _run_params(parser, args)
    commands = [c for c in COMMANDS if c != "all"] if command == "all" else [command]
    all_pass = True
    summaries = []
    for cmd in commands:
        params = _section_params(parser, cmd)
        started = time.perf_counter()
        report = _DRIVERS[cmd](params, seeds, n_paths)
        report.wall_clock = time.perf_counter() - started
        _write_outputs(report, out_root / cmd, args.quiet)
        all_pass &= report.overall_pass
        summaries.append({"command": cmd, "overall": "pass" if report.overall_pass else "fail"})
    if command == "all":
        aggregate = VerificationReport(command="all", columns=["command", "overall"], seeds=list(seeds))
        for item in summaries:
            row = aggregate.add_row(command=item["command"], overall=item["overall"])
            row["verdict"] = item["overall"]
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
