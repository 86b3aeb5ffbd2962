import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

import demigronwall
from demigronwall import cli, generators
from demigronwall.cli import main


def _run(tmp_path, *argv):
    return main(list(argv) + ["--out", str(tmp_path / "out")])


class TestExitCodes:
    def test_passing_check_exits_zero(self, tmp_path):
        code = _run(tmp_path, "demi-check", "--paths", "5000", "--seed", "1", "--quiet")
        assert code == 0

    def test_violated_inequality_exits_two(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[demi-check]\ngenerator = two_point_0.6\n")
        code = _run(tmp_path, "demi-check", "--config", str(cfg), "--paths", "20000", "--quiet")
        assert code == 2

    def test_invalid_exponent_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[gronwall-lemma]\np_grid = 1.5\n")
        code = _run(tmp_path, "gronwall-lemma", "--config", str(cfg), "--quiet")
        assert code == 1
        assert "p" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[bem]\nwarp_speed = 9\n")
        assert _run(tmp_path, "bem", "--config", str(cfg)) == 1
        assert "warp_speed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, ini, named, paths",
        [
            ("all", "[bem]\nkappa = abc\n", "kappa", "2000"),
            ("all", "[fractional]\nwarp_speed = 9\n", "warp_speed", "2000"),
            ("all", "[gronwall-theorem]\nn_list = 1,99\n", "n_list", "2000"),
            ("gronwall-lemma", "[gronwall_lemma]\np_grid = 1.5\n", "gronwall_lemma", "2000"),
            ("gronwall-theorem", "[gronwall-theorem]\nn_list =\n", "n_list", "2000"),
            ("gronwall-theorem", "[gronwall-theorem]\ng_kinds =\n", "g_kinds", "2000"),
            # keys that once set the z-test level or switched the association check off
            ("bem", "[bem]\nlevel = 0.999\n", "unknown key 'level'", "2000"),
            ("demi-check", "[demi-check]\nlevel = 0.999\n", "unknown key 'level'", "2000"),
            ("fractional", "[fractional]\ncheck_association = false\n", "unknown key 'check_association'", "2000"),
            # fractional's association check needs 60 paths; the first three commands would run
            ("all", "", "fractional needs at least 60 paths", "40"),
            ("all", "[bem]\nsigma = nan\n", "sigma", "2000"),
            ("all", "[bem]\nkappa = nan\n", "kappa", "2000"),
            # the Mittag-Leffler growth factor of this rate is beyond the series guard
            ("all", "[fractional]\nlambda1 = 1000\n", "overflow guard", "2000"),
            ("all", "[fractional]\nlambda1 = nan\n", "lambda1", "2000"),
            ("all", "[fractional]\ntau = inf\n", "tau", "2000"),
            # gronwall-lemma would run after demi-check wrote its output
            ("all", "[gronwall-lemma]\ngenerators = random_walk_pm1,associated_inf\n", "generators", "2000"),
            # one step gives the demimartingale check no cell, whatever the generator
            ("demi-check", "[demi-check]\nn_steps = 1\ngenerator = two_point_0.9\n", "n_steps", "2000"),
            ("all", "[bem]\nt_horizon = 0.3\nh_grid = 0.1, 0.2\n", "h=0.2", "2000"),
        ],
        ids=["all-bad-last-value", "all-unknown-key", "all-n_list-range", "misspelled-section",
             "empty-n_list", "empty-g_kinds", "bem-stale-level-key", "demi-check-stale-level-key",
             "fractional-stale-check_association-key", "all-too-few-paths",
             "all-bem-sigma-nan", "all-bem-kappa-nan", "all-fractional-rate-too-large",
             "all-fractional-lambda1-nan", "all-fractional-tau-inf", "all-generator-theta-inf",
             "demi-check-one-step", "all-bem-one-step"],
    )
    def test_bad_config_exits_one_before_any_output(self, tmp_path, capsys, command, ini, named, paths):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(ini)
        assert _run(tmp_path, command, "--config", str(cfg), "--paths", paths, "--seed", "1", "--quiet") == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_path_floor_follows_the_requested_checks(self, tmp_path):
        # fractional always checks the association of Y: two paths per block
        assert _run(tmp_path, "fractional", "--paths", "59", "--seed", "1", "--quiet") == 1
        assert _run(tmp_path, "fractional", "--paths", "60", "--seed", "1", "--quiet") in (0, 2)
        assert _run(tmp_path, "demi-check", "--paths", "29", "--seed", "1", "--quiet") == 1

    @pytest.mark.parametrize("command", ["gronwall-theorem", "fractional"])
    def test_seed_near_two_to_the_64_derives_wrapped_auxiliary_seeds(self, tmp_path, command):
        seed = str(2 ** 64 - 1)
        assert _run(tmp_path, command, "--seed", seed, "--paths", "100", "--quiet") in (0, 2)

    @pytest.mark.parametrize("command, width", [("gronwall-lemma", 17), ("gronwall-theorem", 17), ("fractional", 17), ("bem", 11)])
    def test_every_batch_above_the_budget_exits_one(self, tmp_path, capsys, monkeypatch, command, width):
        # one size check covers generated paths, the associated increments and BEM's paths
        monkeypatch.setattr(generators, "MAX_BATCH_ENTRIES", 1000)
        assert _run(tmp_path, command, "--paths", "100", "--seed", "1", "--quiet") == 1
        assert f"100 x {width} entries exceed the budget of 1000" in capsys.readouterr().err
        assert not (tmp_path / "out" / command / "cases.csv").exists()

    def test_unknown_generator_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[demi-check]\ngenerator = levy_flight\n")
        assert _run(tmp_path, "demi-check", "--config", str(cfg)) == 1

    def test_missing_config_file(self, tmp_path):
        assert _run(tmp_path, "demi-check", "--config", str(tmp_path / "nope.ini")) == 1

    def test_failing_check_of_an_early_seed_survives_later_seeds(self, tmp_path):
        # seed 1613402571 alone fails z_mean_zero[h=0.1]; seed 2416477026 passes it
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[run]\nseeds = 1613402571, 2416477026\npaths = 50000\n")
        assert _run(tmp_path, "bem", "--config", str(cfg), "--quiet") == 2
        doc = json.loads((tmp_path / "out" / "bem" / "report.json").read_text())
        assert doc["checks"]["z_mean_zero[h=0.1]"] is False
        assert doc["overall"] == "fail"

    def test_usage_error_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "invalid choice" in capsys.readouterr().err


class TestOutputs:
    def test_report_files_written(self, tmp_path):
        code = _run(tmp_path, "demi-check", "--paths", "4000", "--seed", "3", "--quiet")
        assert code == 0
        base = tmp_path / "out" / "demi-check"
        cases = (base / "cases.csv").read_text().splitlines()
        assert cases[0] == "j,function,estimate,stderr,z,verdict"
        doc = json.loads((base / "report.json").read_text())
        assert doc["overall"] == "pass"
        assert doc["seeds"] == [3]
        assert "body_sha256" in doc and "wall_clock_s" in doc

    def test_gronwall_schema(self, tmp_path):
        code = _run(tmp_path, "gronwall-lemma", "--paths", "3000", "--seed", "5", "--quiet")
        assert code == 0
        cases = (tmp_path / "out" / "gronwall-lemma" / "cases.csv").read_text().splitlines()
        assert cases[0] == "n,p,mu,nu,lhs,lhs_se,rhs,margin,verdict"

    def test_bem_schema(self, tmp_path):
        code = _run(tmp_path, "bem", "--paths", "2000", "--seed", "5", "--quiet")
        assert code == 0
        cases = (tmp_path / "out" / "bem" / "cases.csv").read_text().splitlines()
        assert cases[0] == "h,p,estimate,stderr,bound,margin,verdict"

    def test_reruns_are_byte_identical(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        for out in (a_dir, b_dir):
            code = main(["fractional", "--paths", "2000", "--seed", "11", "--quiet",
                         "--out", str(out)])
            assert code == 0
        a = (a_dir / "fractional" / "cases.csv").read_bytes()
        b = (b_dir / "fractional" / "cases.csv").read_bytes()
        assert a == b
        body_a = json.loads((a_dir / "fractional" / "report.json").read_text())["body_sha256"]
        body_b = json.loads((b_dir / "fractional" / "report.json").read_text())["body_sha256"]
        assert body_a == body_b


class TestAllCommand:
    def test_aggregate_report(self, tmp_path):
        code = main(["all", "--paths", "4000", "--seed", "7", "--quiet", "--out", str(tmp_path / "o")])
        assert code == 0
        doc = json.loads((tmp_path / "o" / "report.json").read_text())
        assert doc["overall"] == "pass"
        names = {row["command"] for row in doc["rows"]}
        assert names == {"demi-check", "gronwall-lemma", "gronwall-theorem", "fractional", "bem"}
        for name in names:
            assert (tmp_path / "o" / name / "cases.csv").is_file()


def _traced_peak(fn):
    """Peak bytes that ``fn()`` allocates, by ``tracemalloc``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDriverMemory:
    """Each driver holds only the matrices of its current seed; units are one 20 000-path batch."""

    M = 20_000

    @pytest.mark.parametrize("seeds", [[7], [7, 8]])
    def test_gronwall_theorem_holds_s_x_g_and_f(self, seeds):
        run, _ = cli._prepare(cli._load_sections(None), "gronwall-theorem")
        batch = self.M * (16 + 1) * 8
        # S, X, random G and F, plus per-path vectors: the sweeps, the products and the masks
        assert _traced_peak(lambda: run(seeds, self.M)) <= 4.6 * batch

    def test_gronwall_lemma_holds_one_batch(self):
        specs = [generators.GeneratorSpec.random_walk(kind) for kind in ("pm1", "gauss")]
        specs.append(generators.GeneratorSpec.associated(0.5))
        run = cli._drive_gronwall_lemma(specs, 50, [0.25, 0.5], [1, 25, 50])
        batch = self.M * (50 + 1) * 8
        # the batch, its generation tiles and the sweep's vectors
        assert _traced_peak(lambda: run([7, 8], self.M)) <= 1.35 * batch


class TestColdStart:
    def test_no_verdict_loads_scipy_stats_or_linalg(self, tmp_path):
        # sys.modules of the test process already holds whatever other tests imported, so a fresh
        # interpreter records which of the slow scipy subpackages each stage has loaded
        script = textwrap.dedent(
            """
            import json, sys
            def loaded():
                return [name for name in ("scipy.stats", "scipy.linalg") if name in sys.modules]
            seen = {}
            import demigronwall
            seen["import demigronwall"] = loaded()
            import demigronwall.cli
            seen["import demigronwall.cli"] = loaded()
            code = demigronwall.cli.main(["all", "--paths", "2000", "--seed", "1", "--out", sys.argv[1], "--quiet"])
            seen["all"] = loaded()
            probe = demigronwall.bem.coercivity_probe(demigronwall.bem.ou_model(), [-10.0], [10.0], 256, 0)
            seen["coercivity_probe"] = loaded()
            print(json.dumps({"code": code, "passed": probe["passed"], "seen": seen}))
            """
        )
        src = str(Path(demigronwall.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "o")], env=env, capture_output=True, text=True, check=True
        )
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["code"] == 0 and result["passed"]
        stages = result["seen"]
        assert stages.pop("coercivity_probe")[0] == "scipy.stats"  # scipy.stats brings scipy.linalg along
        assert stages == {"import demigronwall": [], "import demigronwall.cli": [], "all": []}
