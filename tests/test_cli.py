"""Config parsing, experiment dispatch, exit codes, and the verify suites."""

import math
import tempfile
import traceback
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zenoscope import (AtomState, child_seed, cli, gamma_lorentzian, make_drive_config,
                       null_conditioned_power, simulate_trajectory, trajectories)
from zenoscope.cli import EXPERIMENTS, ConfigError, dump_config, main, parse_config
from zenoscope.spectral import MAX_RATE_DT


@pytest.fixture
def runner():
    return CliRunner()


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_parses_types_and_comments(self):
        cfg = parse_config(
            "# a comment\n"
            "experiment = decay\n"
            "shape = lorentzian   # trailing comment\n"
            "lambda = 5\n"
            "\n"
            "seed = 3\n")
        assert cfg.experiment == "decay"
        assert cfg.shape == "lorentzian"
        assert cfg.lam == 5.0
        assert cfg.seed == 3

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("experiment = decay\nshape = lorentzian\nwidth = 5\n")

    def test_dt_step_is_not_a_key(self):
        # the step follows from the rates, omega and tau; a dt_step key was never read
        with pytest.raises(ConfigError, match="line 3: unknown key 'dt_step'"):
            parse_config("experiment = trajectory\nshape = rectangular\ndt_step = 0.1\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("experiment = decay\nlambda = wide\n")

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_float_reports_line(self, value):
        with pytest.raises(ConfigError, match="line 2.*must be finite"):
            parse_config(f"experiment = decay\ngamma = {value}\n")

    def test_missing_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config("shape = lorentzian\n")

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            parse_config("experiment = blowup\n")

    def test_dump_round_trip(self):
        cfg = parse_config(
            "experiment = scaling_check\nshape = gaussian\nlambda = 5\n"
            "lambda_alt = 100\nx = 0.2\nseed = 9\n")
        assert parse_config(dump_config(cfg)) == cfg

    def test_dump_round_trip_defaults_only(self):
        cfg = parse_config("experiment = decay\nshape = lorentzian\nlambda = 2\n")
        assert parse_config(dump_config(cfg)) == cfg


class TestRunCommand:
    def test_omega0_is_not_a_key(self, runner, tmp_path):
        # the library has no spectral centre: every frequency is measured from it
        cfg = write_config(tmp_path, "experiment = decay\nshape = lorentzian\n"
                                     "lambda = 5\nomega0 = 0.5\n")
        result = runner.invoke(main, ["run", cfg, "--out", str(tmp_path / "decay.csv")])
        assert result.exit_code == 1
        assert result.stderr == "error: line 4: unknown key 'omega0'\n"

    def test_decay_check_passes(self, runner, tmp_path):
        cfg = write_config(tmp_path, "experiment = decay\nshape = lorentzian\n"
                                     "lambda = 5\nt_max = 2\n")
        out = tmp_path / "decay.csv"
        result = runner.invoke(main, ["run", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "max_dev" in result.output
        lines = out.read_text().splitlines()
        assert lines[0] == "t,re_a,im_a,abs2_a"

    def test_decay_tolerance_breach_exits_2(self, runner, tmp_path):
        # an accepted but very coarse step drives the deviation above 1e-3
        cfg = write_config(tmp_path, "experiment = decay\nshape = lorentzian\n"
                                     "lambda = 5\nt_max = 3.96\ndt = 0.09\n")
        result = runner.invoke(main, ["run", cfg, "--out", str(tmp_path / "d.csv")])
        assert result.exit_code == 2, result.output

    def test_decay_step_missing_t_max_exits_1(self, runner, tmp_path):
        # unchecked, the grid silently stops at t = 0.9
        cfg = write_config(tmp_path, "experiment = decay\nshape = lorentzian\n"
                                     "lambda = 1\nt_max = 1\ndt = 0.3\n")
        out = tmp_path / "d.csv"
        result = runner.invoke(main, ["run", cfg, "--out", str(out)])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "error:" in result.stderr
        assert "Traceback" not in result.output + result.stderr
        assert "t=0.9" in result.stderr
        assert not out.exists()

    def test_unknown_key_exits_1(self, runner, tmp_path):
        cfg = write_config(tmp_path, "experiment = decay\nshape = lorentzian\nwat = 1\n")
        result = runner.invoke(main, ["run", cfg])
        assert result.exit_code == 1
        assert "line 3" in result.stderr

    @pytest.mark.parametrize("body, line", [
        # unchecked, these end in a traceback, a misleading dt error and NaN output
        ("experiment = decay\nshape = lorentzian\nlambda = 5\nt_max = inf\n", 4),
        ("experiment = decay\nshape = lorentzian\nlambda = inf\n", 3),
        ("experiment = trajectory\nshape = rectangular\nlambda = 1\nx = 2\n"
         "omega = nan\nt_max = 5\n", 5),
    ])
    def test_non_finite_value_exits_1(self, runner, tmp_path, body, line):
        cfg = write_config(tmp_path, body)
        out = tmp_path / "out.csv"
        result = runner.invoke(main, ["run", cfg, "--out", str(out)])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"line {line}" in result.stderr
        assert "must be finite" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("body, message", [
        # unchecked, x = 0 ends in a ZeroDivisionError traceback and
        # x_points = 0 in "zero-size array to reduction operation maximum"
        ("experiment = null_decay\nshape = lorentzian\nlambda = 5\nx = 0\n",
         "'x' must be positive"),
        ("experiment = null_decay\nshape = lorentzian\nlambda = 5\ntau = -0.1\n",
         "'tau' must be positive"),
        ("experiment = gamma_curve\nshape = rectangular\nlambda = 1\nx_points = 0\n",
         "'x_points' must be >= 1"),
    ])
    def test_degenerate_value_exits_1(self, runner, tmp_path, body, message):
        cfg = write_config(tmp_path, body)
        out = tmp_path / "out.csv"
        result = runner.invoke(main, ["run", cfg, "--out", str(out)])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert message in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("body, message", [
        # unchecked, these end in a traceback or an opaque numpy message while
        # asking for hundreds of GiB or more
        ("experiment = null_decay\nshape = lorentzian\nlambda = 5\nx = 1e-9\n",
         "t_max/tau = 5e+10"),
        ("experiment = decay\nshape = lorentzian\nlambda = 5\nt_max = 1e9\n",
         "t_max/dt = 5e+11"),
        ("experiment = gamma_curve\nshape = rectangular\nlambda = 1\n"
         "x_points = 1000000000000\n", "x_points = 1000000000000"),
        ("experiment = trajectory\nshape = rectangular\nlambda = 1\nx = 2\n"
         "omega = 1e300\n", "t_max/dt_step = 2e+302"),
        ("experiment = scaling_check\nshape = gaussian\nlambda = 5\nlambda_alt = 1e300\n"
         "x = 0.2\n", "t_max/tau at lambda_alt = 5e+301"),
    ])
    def test_size_budget_exits_1(self, runner, tmp_path, body, message):
        cfg = write_config(tmp_path, body)
        out = tmp_path / "out.csv"
        result = runner.invoke(main, ["run", cfg, "--out", str(out)])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.stderr == f"error: {message} does not fit the size budget of 1e+07 points\n"
        assert not out.exists()

    @pytest.mark.parametrize("body", [
        # unchecked, each of these ends in an OverflowError or ZeroDivisionError traceback
        "experiment = gamma_curve\nshape = lorentzian\nlambda = 1\nc = -1e300\nx_points = 5\n",
        "experiment = gamma_curve\nshape = gaussian\nlambda = 1\nx_min = 1e308\nx_points = 5\n",
        "experiment = null_decay\nshape = lorentzian\nlambda = 5\nx = 5e-324\n",
        "experiment = trajectory\nshape = gaussian\nlambda = 1.25\nx = 5e-324\nt_max = 1\n"
        "a_bar_mode = memory\n",
        "experiment = trajectory\nshape = rectangular\nlambda = 5\ntau = 1e-300\n"
        "gamma = 1e308\nt_max = 1e10\n",
        "experiment = scaling_check\nshape = lorentzian\nlambda = 2\nt_max = -0.5\n"
        "tau = 5e-324\n",
        f"experiment = scaling_check\nshape = gaussian\nlambda = 5\nx = 0.2\nn = {10 ** 400}\n",
    ])
    def test_extreme_values_exit_1(self, runner, tmp_path, body):
        cfg = write_config(tmp_path, body)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = runner.invoke(main, ["run", cfg, "--out", str(tmp_path / "out.csv")])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1

    def test_missing_file_exits_1(self, runner, tmp_path):
        result = runner.invoke(main, ["run", str(tmp_path / "nope.cfg")])
        assert result.exit_code == 1

    def test_missing_shape_exits_1(self, runner, tmp_path):
        cfg = write_config(tmp_path, "experiment = decay\n")
        result = runner.invoke(main, ["run", cfg])
        assert result.exit_code == 1
        assert "shape" in result.stderr

    def test_gamma_curve(self, runner, tmp_path):
        cfg = write_config(tmp_path, "experiment = gamma_curve\nshape = rectangular\n"
                                     "lambda = 1\nx_min = 0.05\nx_max = 4\nx_points = 30\n")
        out = tmp_path / "curve.csv"
        result = runner.invoke(main, ["run", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        header = out.read_text().splitlines()[0]
        assert header == "x,re_closed,im_closed,re_numeric,im_numeric,re_kk,im_kk"
        assert "closed_vs_numeric" in result.output

    def test_gamma_curve_split_detuned_double_peak(self, runner, tmp_path):
        # its closed-form columns were dropped: the closed form took only b = 1, c = 0
        cfg = write_config(tmp_path, "experiment = gamma_curve\nshape = double_lorentzian\n"
                                     "lambda = 1\nb = 1.7\nc = 0.2\n"
                                     "x_min = 0.05\nx_max = 3\nx_points = 16\n")
        out = tmp_path / "curve.csv"
        result = runner.invoke(main, ["run", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        header = out.read_text().splitlines()[0]
        assert header == "x,re_closed,im_closed,re_numeric,im_numeric,re_kk,im_kk"
        assert "closed_vs_numeric" in result.output

    def test_kk_check(self, runner, tmp_path):
        cfg = write_config(tmp_path, "experiment = kk_check\nshape = double_lorentzian\n"
                                     "lambda = 1\nb = 1.7\nc = 0.2\n"
                                     "x_min = 0.05\nx_max = 3\nx_points = 16\n")
        out = tmp_path / "kk.csv"
        result = runner.invoke(main, ["run", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert out.read_text().splitlines()[0] == "x,re_numeric,im_numeric,re_kk,im_kk"

    def test_scaling_check(self, runner, tmp_path):
        cfg = write_config(tmp_path, "experiment = scaling_check\nshape = gaussian\n"
                                     "lambda = 5\nlambda_alt = 100\nx = 0.2\nt_max = 5\n")
        out = tmp_path / "scaling.csv"
        result = runner.invoke(main, ["run", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "max_dev" in result.output
        assert out.read_text().splitlines()[0] == "t,p_e_lambda,p_e_lambda_alt"

    def test_null_decay(self, runner, tmp_path):
        cfg = write_config(tmp_path, "experiment = null_decay\nshape = double_lorentzian\n"
                                     "lambda = 5\nx = 0.2\nt_max = 5\n")
        out = tmp_path / "null.csv"
        result = runner.invoke(main, ["run", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert out.read_text().splitlines()[0] == "t,p_e,p_e_scaling"

    def test_trajectory_deterministic(self, runner, tmp_path):
        cfg = write_config(tmp_path, "experiment = trajectory\nshape = rectangular\n"
                                     "lambda = 1\nx = 2\nomega = 1\nt_max = 5\nseed = 8\n")
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        assert runner.invoke(main, ["run", cfg, "--out", str(out1)]).exit_code == 0
        assert runner.invoke(main, ["run", cfg, "--out", str(out2)]).exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text().splitlines()[0] == "t,p_e,jump"

    def test_trajectory_seed_flag_overrides(self, runner, tmp_path):
        cfg = write_config(tmp_path, "experiment = trajectory\nshape = rectangular\n"
                                     "lambda = 1\nx = 2\nomega = 1\nt_max = 5\nseed = 8\n")
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        runner.invoke(main, ["run", cfg, "--out", str(out1)])
        runner.invoke(main, ["run", cfg, "--out", str(out2), "--seed", "9"])
        assert out1.read_bytes() != out2.read_bytes()

    def test_trajectory_memory_mode(self, runner, tmp_path):
        cfg = write_config(tmp_path, "experiment = trajectory\nshape = rectangular\n"
                                     "lambda = 5\nx = 0.2\nomega = 0\nt_max = 5\n"
                                     "a_bar_mode = memory\n")
        result = runner.invoke(main, ["run", cfg, "--out", str(tmp_path / "m.csv")])
        assert result.exit_code == 0, result.output

    def test_memory_mode_solves_the_interval_once(self, monkeypatch):
        # a stronger contraction per interval makes the step-shrinking loop take many passes
        calls = []
        monkeypatch.setattr(trajectories, "interval_amplitude",
                            lambda kernel, tau: calls.append(tau) or 0.99 + 0j)
        lam, x = 0.3, 0.01
        tau = x / lam
        cfg = parse_config(f"experiment = trajectory\nshape = lorentzian\nlambda = {lam}\n"
                           f"x = {x}\nomega = 0\nt_max = 20\na_bar_mode = memory\n")
        drive, a_bar, _ = cli._detection_setup(cfg)
        assert len(calls) == 1
        n = round(drive.dt_step / tau)
        unshrunk = math.floor(make_drive_config(gamma_lorentzian(x), 0.0, 20.0)[0].dt_step / tau)
        assert n < unshrunk - 1
        assert 1.0 - abs(a_bar) ** 2 <= MAX_RATE_DT
        assert 1.0 - abs(null_conditioned_power(0.99, n + 1)) ** 2 > MAX_RATE_DT
        assert a_bar == null_conditioned_power(0.99, n)
        assert drive.dt_step == n * tau
        assert drive.gamma_eff == (1.0 - abs(a_bar) ** 2) / (n * tau)

    def test_ensemble_rows_follow_child_seeds(self, runner, tmp_path):
        body = ("experiment = ensemble\nshape = rectangular\nlambda = 1\n"
                "x = 0.2\nomega = 1\nt_max = 2\nn_traj = 30\nseed = 4\n")
        cfg = write_config(tmp_path, body)
        out1, out2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
        r1 = runner.invoke(main, ["run", cfg, "--out", str(out1)])
        r2 = runner.invoke(main, ["run", cfg, "--out", str(out2)])
        assert r1.exit_code == 0, r1.output
        assert r2.exit_code == 0, r2.output
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text().splitlines()[0] == "t,p_e_mean,p_e_stderr"
        assert (tmp_path / "e1_lindblad.csv").read_text().splitlines()[0] == "t,p_e"
        # the mean column reduces, in index order, the trajectories that
        # simulate_trajectory runs from child_seed(seed, i), here recomputed shuffled
        drive, a_bar, _ = cli._detection_setup(parse_config(body))
        rows = {i: simulate_trajectory(AtomState.excited(), drive, a_bar, child_seed(4, i)).p_e
                for i in np.random.default_rng(4).permutation(30)}
        mean = np.array([rows[i] for i in range(30)]).mean(axis=0)
        column = [line.split(",")[1] for line in out1.read_text().splitlines()[1:]]
        assert column == [f"{m:.12g}" for m in mean]

    @pytest.mark.parametrize("experiment", ["gamma_curve", "kk_check"])
    @pytest.mark.parametrize("x_max, x_points", [(2, 5), (0, 1)])
    def test_rate_curve_from_x_zero(self, runner, tmp_path, experiment, x_max, x_points):
        # every route gives exactly 0 at x = 0; relative deviations skip that point
        body = (f"experiment = {experiment}\nshape = rectangular\nlambda = 1\n"
                f"x_min = 0\nx_max = {x_max}\nx_points = {x_points}\n")
        cfg = write_config(tmp_path, body)
        out = tmp_path / "curve.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, ["run", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert [str(w.message) for w in caught] == []
        assert "nan" not in result.output
        first = out.read_text().splitlines()[1].split(",")
        assert first[0] == "0" and all(float(v) == 0.0 for v in first[1:])

    @pytest.mark.parametrize("x_min, x_max, message", [
        (1e308, None, "error: key 'x_min' = 1e+308 exceeds key 'x_max' = 20\n"),
        (5.0, 1.0, "error: key 'x_min' = 5 exceeds key 'x_max' = 1\n"),
        (2.0, 2.0, "error: key 'x_min' = 2 equals key 'x_max', but key 'x_points' = 5 asks for "
                   "distinct points\n"),
    ], ids=["x_min-1e308", "x_min-above-x_max", "x_min-equals-x_max"])
    @pytest.mark.parametrize("experiment", ["gamma_curve", "kk_check"])
    def test_reversed_x_range_exits_1_before_sampling(self, runner, tmp_path, experiment,
                                                      x_min, x_max, message):
        # unchecked, both curves were sampled (with three RuntimeWarnings at x_min = 1e308)
        # before "x_grid must be strictly increasing", which names neither key; equal ends
        # with more than one point gave that message too
        body = f"experiment = {experiment}\nshape = gaussian\nlambda = 1\nx_min = {x_min}\n"
        if x_max is not None:
            body += f"x_max = {x_max}\n"
        cfg = write_config(tmp_path, body + "x_points = 5\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, ["run", cfg, "--out", str(tmp_path / "o.csv")])
        assert result.exit_code == 1
        assert result.stderr == message
        assert [str(w.message) for w in caught] == []

    def test_trajectory_at_tiny_x_exits_0(self, runner, tmp_path):
        # the Gaussian closed form cancelled to -8.8e-10 at x = 1e-8, and the run
        # failed with "|a_bar|^2 = 1.000000008794525 exceeds 1"
        cfg = write_config(tmp_path, "experiment = trajectory\nshape = gaussian\nlambda = 1\n"
                                     "x = 1e-8\nomega = 0\n")
        result = runner.invoke(main, ["run", cfg, "--out", str(tmp_path / "o.csv")])
        assert result.exit_code == 0, result.output + result.stderr
        assert result.stderr == ""

    def test_dump_config_round_trip(self, runner, tmp_path):
        body = ("experiment = ensemble\nshape = rectangular\nlambda = 2.5\n"
                "x = 0.2\nomega = 1\nn_traj = 17\nseed = 4\n")
        cfg = write_config(tmp_path, body)
        result = runner.invoke(main, ["run", cfg, "--dump-config"])
        assert result.exit_code == 0
        assert parse_config(result.output) == parse_config(body)


class TestVerifyCommand:
    def test_unknown_suite_exits_1(self, runner):
        result = runner.invoke(main, ["verify", "fig9"])
        assert result.exit_code == 1
        assert "unknown suite" in result.stderr

    @pytest.mark.parametrize("suite", ["fig1", "rates", "appendix-a"])
    def test_fast_suites_pass(self, runner, suite):
        result = runner.invoke(main, ["verify", suite])
        assert result.exit_code == 0, result.output
        assert "PASS" in result.output
        assert "FAIL" not in result.output


#: small finite values of every config key, which keep any one run short
VALID_VALUES = {
    "experiment": st.sampled_from(list(EXPERIMENTS)),
    "shape": st.sampled_from(["lorentzian", "gaussian", "rectangular", "double_lorentzian"]),
    "gamma": st.floats(0.5, 2.0),
    "lambda": st.floats(0.5, 5.0),
    "lambda_alt": st.floats(5.0, 20.0),
    "c": st.floats(-1.0, 1.0),
    "b": st.floats(0.0, 2.0),
    "dt": st.floats(0.001, 0.1),
    "t_max": st.floats(0.1, 2.0),
    "x": st.floats(0.05, 2.0),
    "tau": st.floats(0.01, 0.5),
    "n": st.integers(0, 50),
    "omega": st.floats(-2.0, 2.0),
    "n_traj": st.integers(1, 20),
    "seed": st.integers(0, 1000),
    "a_bar_mode": st.sampled_from(["scaling", "memory"]),
    "x_min": st.floats(0.0, 1.0),
    "x_max": st.floats(1.0, 4.0),
    "x_points": st.integers(1, 20),
}
ADVERSARIAL_VALUES = st.sampled_from([
    "inf", "-inf", "nan", "-1", "0", "-0.5", "1e300", "-1e300", "1e308", "1e-300", "5e-324",
    str(2 ** 64), str(10 ** 30), str(10 ** 400), "", "wide"])
KEYS = st.sampled_from(sorted(VALID_VALUES) + ["table", "width"])


@st.composite
def config_texts(draw):
    """A runnable base config followed by lines that may break it."""
    lines = [f"experiment = {draw(VALID_VALUES['experiment'])}",
             f"shape = {draw(VALID_VALUES['shape'])}"]
    for key in ("lambda", "t_max", "x", "n_traj"):
        lines.append(f"{key} = {draw(VALID_VALUES[key])}")
    for _ in range(draw(st.integers(0, 4))):
        key = draw(KEYS)
        kind = draw(st.sampled_from(["valid", "adversarial", "no_equals"]))
        if kind == "no_equals":
            lines.append(key)
        elif kind == "valid" and key in VALID_VALUES:
            lines.append(f"{key} = {draw(VALID_VALUES[key])}")
        else:
            lines.append(f"{key} = {draw(ADVERSARIAL_VALUES)}")
    return "\n".join(lines) + "\n"


@given(config_texts())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fuzzed_configs_exit_cleanly(text):
    # every accepted or rejected config ends in exit 0, 1 or 2 without a traceback
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = CliRunner().invoke(main, ["run", str(cfg), "--out", str(Path(tmp) / "o.csv")])
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        "".join(traceback.format_exception(*result.exc_info)))
    assert result.exit_code in (0, 1, 2), result.output
    assert "Traceback" not in result.output + result.stderr
