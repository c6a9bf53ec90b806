"""Command line front end: config validation, exit codes, report shape and
byte determinism.  Commands run in-process through ``main(argv)``; one test
exercises the installed console script end to end."""

import csv
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import levybond
from levybond.cli import load_config, main
from levybond.errors import ConfigError


def write_config(tmp_path, name="run.ini", *, model, game, grid=None, sim=None):
    lines = [f"[model]"]
    lines += [f"{k} = {v}" for k, v in model.items()]
    lines += ["", "[game]"]
    lines += [f"{k} = {v}" for k, v in game.items()]
    if grid is not None:
        lines += ["", "[grid]"]
        lines += [f"{k} = {v}" for k, v in grid.items()]
    if sim is not None:
        lines += ["", "[sim]"]
        lines += [f"{k} = {v}" for k, v in sim.items()]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


BROWNIAN = {"family": "brownian", "mu": 0.0, "b2": 2.0}
SMALL_VOL = {"family": "brownian", "mu": 0.0, "b2": 0.5}
BV_EXP = {"family": "exp_jumps", "mu": 1.7, "b2": 0.0,
          "lambda": 1.0, "rho": 2.0}   # bounded variation, drift 2
GAME = {"alpha": 1.0, "beta": 1.0, "q": 3.0, "K": 2.0}
GRID = {"x_min": -2.0, "x_max": 1.0, "n_points": 12}
SIM = {"n_paths": 4000, "horizon": 6.0, "dt": 0.005, "seed": 7, "delta": 0.1}


class TestConfigValidation:
    def test_missing_key_is_field_addressed(self, tmp_path, capsys):
        path = write_config(tmp_path, model=BROWNIAN,
                            game={"alpha": 1.0, "beta": 1.0, "K": 2.0})
        assert main(["fit", str(path)]) == 1
        err = capsys.readouterr().err
        assert "game.q" in err and "missing" in err

    def test_non_numeric_value(self, tmp_path, capsys):
        path = write_config(tmp_path, model=BROWNIAN,
                            game={**GAME, "q": "fast"})
        assert main(["fit", str(path)]) == 1
        assert "game.q" in capsys.readouterr().err

    def test_unknown_family(self, tmp_path, capsys):
        path = write_config(tmp_path, model={"family": "cauchy", "mu": 0, "b2": 1},
                            game=GAME)
        assert main(["fit", str(path)]) == 1
        assert "model.family" in capsys.readouterr().err

    def test_domain_violation_is_a_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, model=BROWNIAN, game={**GAME, "alpha": -1.0})
        assert main(["fit", str(path)]) == 1
        assert "game" in capsys.readouterr().err

    def test_zero_coupon_is_a_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, model=BROWNIAN, game={**GAME, "alpha": 0},
                            grid=GRID)
        assert main(["solve", str(path)]) == 1
        assert "alpha must be > 0" in capsys.readouterr().err

    def test_missing_section(self, tmp_path, capsys):
        path = tmp_path / "empty.ini"
        path.write_text("[model]\nfamily = brownian\nmu = 0\nb2 = 2\n")
        assert main(["fit", str(path)]) == 1
        assert "game" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["fit", str(tmp_path / "absent.ini")]) == 1

    def test_grid_ordering(self, tmp_path):
        path = write_config(tmp_path, model=BROWNIAN, game=GAME,
                            grid={"x_min": 1.0, "x_max": -1.0, "n_points": 5})
        with pytest.raises(ConfigError, match="grid.x_min"):
            load_config(str(path))

    def test_solve_requires_grid_section(self, tmp_path, capsys):
        path = write_config(tmp_path, model=BROWNIAN, game=GAME)
        assert main(["solve", str(path)]) == 1
        assert "grid" in capsys.readouterr().err

    def test_density_file_resolved_relative_to_config(self, tmp_path):
        zs = np.linspace(0.01, 4.0, 80)
        rows = "\n".join(f"{z:.8f},{1.5 * math.exp(-1.5 * z):.8f}" for z in zs)
        (tmp_path / "jumps.csv").write_text(rows + "\n")
        path = write_config(
            tmp_path,
            model={"family": "tabulated", "mu": 0.1, "b2": 0.3,
                   "density_file": "jumps.csv", "tail_rate": 1.5},
            game=GAME)
        cfg = load_config(str(path))
        assert cfg.model.b2 == 0.3

    def test_density_file_missing(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            model={"family": "tabulated", "mu": 0.1, "b2": 0.3,
                   "density_file": "nowhere.csv", "tail_rate": 1.5},
            game=GAME)
        assert main(["fit", str(path)]) == 1
        assert "model.density_file" in capsys.readouterr().err


class TestAssumptionGate:
    def test_divergent_share_growth_exits_2(self, tmp_path, capsys):
        # rho = 1 makes the share's expected growth infinite: no discount
        # rate can satisfy the moment condition
        path = write_config(
            tmp_path,
            model={"family": "exp_jumps", "mu": 0.0, "b2": 2.0,
                   "lambda": 1.0, "rho": 1.0},
            game=GAME, grid=GRID)
        assert main(["solve", str(path)]) == 2
        assert "psi(-1)" in capsys.readouterr().err

    def test_low_discount_rate_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, model=BROWNIAN,
                            game={**GAME, "q": 0.9}, grid=GRID)
        assert main(["solve", str(path)]) == 2
        assert "psi(-1)" in capsys.readouterr().err


class TestNumericalErrorGate:
    @pytest.mark.parametrize("command", ["solve", "selfcheck"])
    def test_uncertified_inversion_exits_4(self, tmp_path, capsys, command):
        # a flat density of 3e6 on [0.001, 1] under drift 3e6: the numeric
        # route's transform identity misses its 1e-6 certificate, and the
        # AccuracyError ends the run as one line and exit code 4
        zs = np.linspace(0.001, 1.0, 50)
        (tmp_path / "flat.csv").write_text("".join(f"{z!r},3e6\n" for z in zs.tolist()))
        path = write_config(
            tmp_path,
            model={"family": "tabulated", "mu": 3e6, "b2": 0.5,
                   "density_file": "flat.csv", "tail_rate": 5},
            game={**GAME, "q": 3}, grid=GRID, sim=SIM)
        flags = ["--csv", str(tmp_path / "out.csv")] if command == "solve" else []
        assert main([command, str(path), *flags]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical error: transform identity residual")
        assert err.count("\n") == 1


class TestSolve:
    def test_immediate_call_regime_report_and_csv(self, tmp_path, capsys):
        path = write_config(tmp_path, model=SMALL_VOL,
                            game={**GAME, "q": 0.3}, grid=GRID)
        out_csv = tmp_path / "v.csv"
        assert main(["solve", str(path), "--csv", str(out_csv)]) == 0
        assert "regime=R1" in capsys.readouterr().out
        with open(out_csv, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == GRID["n_points"]
        for row in rows:
            x, v = float(row["x"]), float(row["V"])
            lower, upper = float(row["lower"]), float(row["upper"])
            assert lower == pytest.approx(math.exp(x), rel=1e-15)
            assert upper == pytest.approx(max(math.exp(x), 2.0), rel=1e-15)
            assert v == pytest.approx(max(math.exp(x), 2.0), rel=1e-12)
            assert lower - 1e-9 <= v <= upper + 1e-9
        assert rows[0]["regime"] == "R1"

    def test_value_between_bounds_every_regime(self, tmp_path, capsys):
        for q in (0.3, 0.75, 1.5, 2.5):
            path = write_config(tmp_path, f"q{q}.ini", model=SMALL_VOL,
                                game={**GAME, "q": q}, grid=GRID)
            out_csv = tmp_path / f"v{q}.csv"
            assert main(["solve", str(path), "--csv", str(out_csv), "--quiet"]) == 0
            with open(out_csv, newline="") as handle:
                for row in csv.DictReader(handle):
                    v = float(row["V"])
                    assert float(row["lower"]) - 1e-9 <= v
                    assert v <= float(row["upper"]) + 1e-9

    def test_report_names_thresholds(self, tmp_path, capsys):
        path = write_config(tmp_path, model=BROWNIAN, game=GAME, grid=GRID)
        assert main(["solve", str(path)]) == 0
        out = capsys.readouterr().out
        for token in ("regime=R2", "psi(-1)=", "Phi(q)=", "q0=", "q1=",
                      "a*=", "fit=Smooth"):
            assert token in out, token

    def test_csv_byte_identical_across_runs(self, tmp_path):
        path = write_config(tmp_path, model=BROWNIAN, game=GAME, grid=GRID)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["solve", str(path), "--csv", str(first), "--quiet"]) == 0
        assert main(["solve", str(path), "--csv", str(second), "--quiet"]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_quiet_suppresses_report(self, tmp_path, capsys):
        path = write_config(tmp_path, model=BROWNIAN, game=GAME, grid=GRID)
        assert main(["solve", str(path), "--quiet"]) == 0
        assert capsys.readouterr().out == ""


class TestSimulate:
    def test_gaussian_equilibrium_report(self, tmp_path, capsys):
        path = write_config(tmp_path, model=BROWNIAN, game=GAME,
                            grid=GRID, sim=SIM)
        assert main(["simulate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "regime=R2" in out
        assert out.count("value x=") == 3
        assert "saddle (delta=0.1" in out
        assert "verdict=Pass" in out

    def test_report_byte_identical_across_runs(self, tmp_path, capsys):
        path = write_config(tmp_path, model=BROWNIAN, game=GAME,
                            grid=GRID, sim=SIM)
        assert main(["simulate", str(path)]) == 0
        first = capsys.readouterr().out
        assert main(["simulate", str(path)]) == 0
        assert capsys.readouterr().out == first

    def test_ineligible_model_flagged_not_failed(self, tmp_path, capsys):
        # bounded-variation jump part with enormous activity: event-driven
        # simulation is impossible in reasonable time, so the command flags
        # the model and leaves the analytic outputs to `solve`
        zs = np.linspace(0.001, 1.0, 50)
        rows = "\n".join(f"{z:.6f},3e6" for z in zs)
        (tmp_path / "dense.csv").write_text(rows + "\n")
        path = write_config(
            tmp_path,
            model={"family": "tabulated", "mu": 0.0, "b2": 0.0,
                   "density_file": "dense.csv", "tail_rate": 5.0},
            game=GAME, grid=GRID, sim=SIM)
        assert main(["simulate", str(path)]) == 0
        captured = capsys.readouterr()
        assert "MC-ineligible" in captured.out
        assert "warning" in captured.err

    def test_too_many_jumps_per_path_flagged_with_a_gaussian_part(self, tmp_path, capsys):
        # a Gaussian part does not lift the event engine's jumps-per-path
        # limit: 3.6e6 expected jumps over horizon 1 are flagged, not raised
        zs = np.linspace(0.001, 1.0, 50)
        (tmp_path / "dense.csv").write_text("\n".join(f"{z:.6f},3e6" for z in zs) + "\n")
        path = write_config(
            tmp_path,
            model={"family": "tabulated", "mu": 3e6, "b2": 0.5,
                   "density_file": "dense.csv", "tail_rate": 5.0},
            game=GAME, grid=GRID, sim={**SIM, "horizon": 1.0})
        assert main(["simulate", str(path)]) == 0
        captured = capsys.readouterr()
        assert "MC-ineligible: jump rate 3.6e+06" in captured.out
        assert "warning" in captured.err


class TestFit:
    def test_smooth_fit_observed(self, tmp_path, capsys):
        path = write_config(tmp_path, model=BROWNIAN, game=GAME)
        assert main(["fit", str(path)]) == 0
        assert "smooth fit: expected, observed" in capsys.readouterr().out

    def test_continuous_fit_observed_bounded_variation(self, tmp_path, capsys):
        path = write_config(tmp_path, model=BV_EXP, game={**GAME, "q": 2.5})
        assert main(["fit", str(path)]) == 0
        out = capsys.readouterr().out
        assert "continuous fit: expected, observed" in out
        a_star = float(re.search(r"a\*=([0-9.eE+-]+) ", out).group(1))
        left = float(re.search(r"left value=([0-9.eE+-]+)", out).group(1))
        right = float(re.search(r"right value=([0-9.eE+-]+)", out).group(1))
        assert abs(left - a_star) <= 1e-6 * a_star
        assert abs(right - a_star) <= 1e-6 * a_star

    def test_boundary_derivative_vanishes_at_lower_critical_rate(
            self, tmp_path, capsys):
        # q sits exactly on the lower critical rate of the small-volatility
        # family, where the one-sided derivative at the cap flattens to zero.
        # (The b2=2 family is unusable here: its lower critical rate equals
        # the share growth rate, so the discount condition fails at it.)
        path = write_config(
            tmp_path, model=SMALL_VOL,
            game={**GAME, "q": 1.1852782296184787})
        assert main(["fit", str(path)]) == 0
        out = capsys.readouterr().out
        assert "regime=R3" in out
        left = float(re.search(r"left derivative=([0-9.eE+-]+)", out).group(1))
        assert abs(left) <= 1e-3
        assert "smooth fit: expected, observed" in out

    def test_interior_simultaneous_regime_keeps_its_kink(self, tmp_path, capsys):
        path = write_config(tmp_path, model=BROWNIAN, game={**GAME, "q": 2.0})
        assert main(["fit", str(path)]) == 0
        out = capsys.readouterr().out
        assert "regime=R3" in out
        assert "derivative gap: expected, observed" in out


class TestSelfcheck:
    def test_gaussian_family(self, tmp_path, capsys):
        path = write_config(tmp_path, model=BROWNIAN,
                            game={**GAME, "q": 4.0}, sim=SIM)
        assert main(["selfcheck", str(path)]) == 0
        out = capsys.readouterr().out
        assert "W'(0+) vs 2/b2" in out
        assert "supremum factor" in out
        assert "verdict=pass" in out

    def test_bounded_variation_family(self, tmp_path, capsys):
        path = write_config(tmp_path, model=BV_EXP, game={**GAME, "q": 0.8},
                            sim={**SIM, "horizon": 25.0})
        assert main(["selfcheck", str(path)]) == 0
        out = capsys.readouterr().out
        assert "W(0+) vs 1/drift" in out
        assert "verdict=pass" in out

    @pytest.mark.parametrize("lam, mu", [(50.0, 36.0), (1000.0, 706.0)])
    def test_boundary_slope_at_high_jump_rates(self, tmp_path, capsys, lam, mu):
        # W'(0+) = 2/b2 exactly; a difference quotient of W at h = 1e-3 reads
        # 3.2e-3 and 0.38 off it here.  Horizon 500 skips the Monte Carlo part
        model = {"family": "exp_jumps", "mu": mu, "b2": 0.5, "lambda": lam, "rho": 2.0}
        path = write_config(tmp_path, model=model, game=GAME, sim={**SIM, "horizon": 500.0})
        assert main(["selfcheck", str(path)]) == 0
        out = capsys.readouterr().out
        slope = re.search(r"W'\(0\+\) vs 2/b2 residual: (\S+) ", out)
        assert float(slope.group(1)) <= 1e-5
        assert "verdict=pass" in out

    def test_boundary_value_at_a_small_gaussian_part(self, tmp_path, capsys):
        # W(1e-9) is ~2e-9/b2 = 2e-6 here, past an absolute 1e-6, on an
        # exact closed form: the check reads it against 1e-9 W'(5e-10)
        model = {"family": "brownian", "mu": 0.0, "b2": 0.001}
        path = write_config(tmp_path, model=model, game={**GAME, "q": 1.0}, sim=SIM)
        assert main(["selfcheck", str(path)]) == 0
        out = capsys.readouterr().out
        value = re.search(r"W\(1e-9\) vs 1e-9 W'\(5e-10\) residual: (\S+) ", out)
        assert float(value.group(1)) <= 1e-8
        assert "verdict=pass" in out

    def test_supremum_factor_on_a_heavy_jump_tail(self, tmp_path, capsys):
        # tail rate 2 makes E[e^(2 sup)] infinite at every q: the estimate of
        # E[e^sup] read z 3.28 on these paths.  e^(-sup) is bounded.  The
        # tilt identity on this density is a separate line
        zs = np.linspace(0.004, 8.0, 101)
        (tmp_path / "tab.csv").write_text(
            "".join(f"{z:.17g},{2.0 * math.exp(-2.0 * z):.17g}\n" for z in zs))
        model = {"family": "tabulated", "mu": 0.1, "b2": 0.3,
                 "density_file": "tab.csv", "tail_rate": 2.0}
        path = write_config(tmp_path, model=model, game={**GAME, "q": 2.6},
                            sim={**SIM, "n_paths": 20_000, "horizon": 10.0})
        assert main(["selfcheck", str(path)]) in (0, 3)
        line = next(ln for ln in capsys.readouterr().out.splitlines()
                    if ln.startswith("supremum factor"))
        assert line.endswith(": pass"), line

    def test_selfcheck_requires_sim_section(self, tmp_path, capsys):
        path = write_config(tmp_path, model=BROWNIAN, game=GAME)
        assert main(["selfcheck", str(path)]) == 1
        assert "sim" in capsys.readouterr().err

    def test_skips_the_supremum_past_the_jump_limit(self, tmp_path, capsys):
        # rate 10 over horizon 500 expects 5000 jumps per path, past 4096
        path = write_config(
            tmp_path,
            model={"family": "exp_jumps", "mu": 8.0, "b2": 0.5, "lambda": 10.0, "rho": 2.0},
            game=GAME, grid=GRID, sim={**SIM, "horizon": 500.0})
        assert main(["selfcheck", str(path)]) == 0
        out = capsys.readouterr().out
        assert "supremum factor: skipped (MC-ineligible model)" in out
        assert "verdict=pass" in out


def child_env():
    """Environment for a fresh interpreter that imports the package the
    tests import, installed or not."""
    paths = [str(Path(levybond.__file__).resolve().parents[1]),
             os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        path = write_config(tmp_path, model=BROWNIAN, game=GAME, grid=GRID)
        proc = subprocess.run(
            [sys.executable, "-m", "levybond.cli", "solve", str(path)],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0
        assert "regime=R2" in proc.stdout

    def test_runs_on_numpy_alone(self):
        # the library's one root finder is its own, so importing it loads no scipy
        code = ("import sys, levybond, levybond.cli; "
                "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
