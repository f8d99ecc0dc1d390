import argparse
import dataclasses
import hashlib
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from risgeo import validation
from risgeo.cli import main
from risgeo.config import ConfigError, parse_sweep, read_config_file, resolve
from risgeo.errors import DomainError
from risgeo.params import SystemParams
from risgeo.phase_error import attenuation_factor
from risgeo.rate_loss import rate_loss
from risgeo.spatial_rate import spatial_rate_closed_form, spatial_rate_integral


def run_cli(args):
    return main(args)


def read_rows(path):
    lines = path.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    header = body[0].split(",")
    rows = [l.split(",") for l in body[1:]]
    return comments, header, rows


class TestConfigParsing:
    def test_sweep_syntax(self):
        s = parse_sweep("n_elements:10:400:5")
        assert (s.axis, s.start, s.stop, s.points, s.scale) == ("n_elements", 10.0, 400.0, 5, "linear")
        assert parse_sweep("density:0.001:0.1:7:log").scale == "log"
        with pytest.raises(ConfigError):
            parse_sweep("density:1:2")
        with pytest.raises(ConfigError):
            parse_sweep("density:1:2:3:cubic")

    def test_unknown_key_distinct_diagnostic(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("transmit_power = 10\n")
        with pytest.raises(ConfigError, match="unknown key 'transmit_power'"):
            read_config_file(str(cfg))

    def test_out_of_domain_distinct_diagnostic(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha_ris_ue = 5.0\n")
        with pytest.raises(ConfigError, match="out of domain"):
            read_config_file(str(cfg))

    def test_comments_and_overrides(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("tx_power_dbm = 17  # downlink power\nrho = 0.5\n")
        resolved = resolve(str(cfg), {"seed": 9})
        assert resolved["tx_power_dbm"] == 17.0
        assert resolved["rho"] == 0.5
        assert resolved["seed"] == 9

    def test_quantizer_bits_pin_rho(self, tmp_path):
        cfg = tmp_path / "q.cfg"
        cfg.write_text("quant_bits = 2\n")
        assert resolve(str(cfg), {})["rho"] == 0.25

    @pytest.mark.parametrize(
        "bits, rho, attenuation", [(1, 0.5, 0.5), (3, 0.125, 0.7653668647), (8, 2.0**-8, 0.7853784503)]
    )
    def test_quantizer_bits_set_rho_exactly(self, tmp_path, bits, rho, attenuation):
        # a b-bit quantizer leaves errors uniform on [-pi 2^-b, pi 2^-b]
        cfg = tmp_path / "q.cfg"
        cfg.write_text(f"quant_bits = {bits}\n")
        resolved = resolve(str(cfg), {})["rho"]
        assert resolved == rho
        assert attenuation_factor(resolved) == pytest.approx(attenuation, rel=1e-6)

    def test_explicit_rho_within_rounding_is_pinned(self, tmp_path):
        # an explicit rho that agrees with quant_bits up to rounding is replaced by 2^-b
        cfg = tmp_path / "q.cfg"
        cfg.write_text("rho = 0.25000000000001\nquant_bits = 2\n")
        assert resolve(str(cfg), {})["rho"] == 0.25

    @pytest.mark.parametrize("rho", ["0", "0.5"])
    def test_explicit_rho_conflicting_with_quant_bits(self, tmp_path, rho):
        # rho = 0 is also the default value; setting it must still count
        cfg = tmp_path / "q.cfg"
        cfg.write_text(f"rho = {rho}\nquant_bits = 2\n")
        with pytest.raises(ConfigError, match="conflicts with quant_bits"):
            resolve(str(cfg), {})
        bits_only = tmp_path / "bits.cfg"
        bits_only.write_text("quant_bits = 2\n")
        with pytest.raises(ConfigError, match="conflicts with quant_bits"):
            resolve(str(bits_only), {"rho": float(rho)})

    def test_explicit_rho_agreeing_with_quant_bits(self, tmp_path):
        cfg = tmp_path / "q.cfg"
        cfg.write_text("rho = 0.25\nquant_bits = 2\n")
        assert resolve(str(cfg), {})["rho"] == 0.25

    @pytest.mark.parametrize(
        "key, value, kind",
        [
            ("quant_bits", True, "int"),
            ("trials", True, "int"),
            ("tx_power_dbm", True, "float"),
            ("rho", np.bool_(False), "float"),
            ("regime", True, "str"),
            ("n_max", 2.5, "int"),
            ("trials", 4096.0, "int"),
            ("seed", np.float64(3.0), "int"),
        ],
    )
    def test_value_given_in_code_is_type_checked(self, key, value, kind):
        # text is parsed by the key's type; a value passed in code must
        # already have it: no bool anywhere, only integers for int keys
        with pytest.raises(ConfigError, match=f"for key '{key}' is not {kind}"):
            resolve(None, {key: value})

    @pytest.mark.parametrize(
        "key, value",
        [("tx_power_dbm", 12), ("alpha_ris_ue", 3), ("quant_bits", 2), ("seed", np.int64(7))],
    )
    def test_integer_values_given_in_code_are_kept(self, key, value):
        # an int stays valid for a float key, and a numpy integer for an int key
        assert resolve(None, {key: value})[key] == value

    @pytest.mark.parametrize("key", ["abs_tol", "rel_tol"])
    def test_retired_tolerance_keys_are_unknown(self, tmp_path, capsys, key):
        cfg = tmp_path / "tol.cfg"
        cfg.write_text(f"{key} = 1e-12\n")
        assert run_cli(["validate", "--config", str(cfg), "--trials", "10"]) == 2
        assert f"unknown key '{key}'" in capsys.readouterr().err

    def test_unit_round_trip(self):
        cfg = resolve(None, {})
        echo = cfg.linear_echo()
        tx = float(dict(kv.split("=") for kv in echo.split()) ["tx_power_w"])
        assert tx == pytest.approx(10 ** ((cfg["tx_power_dbm"] - 30.0) / 10.0), rel=1e-12)


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        assert run_cli(["rate-fixed", "--config", str(cfg), "--sweep", "rho:0:1:3"]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_missing_sweep_is_2(self, capsys):
        assert run_cli(["rate-fixed", "--trials", "10"]) == 2
        assert "sweep" in capsys.readouterr().err

    def test_bad_axis_is_2(self, capsys):
        assert run_cli(["rate-fixed", "--trials", "10", "--sweep", "noise_dbm:1:2:2"]) == 2

    def test_dump_linear_is_0(self, capsys):
        assert run_cli(["optimize", "--dump-linear"]) == 0
        out = capsys.readouterr().out
        assert "tx_power_w=" in out and "beta=0.001" in out


#: the flags each subcommand reads besides --config, --out and --dump-linear
COMMAND_FLAGS = {
    "rate-fixed": ("--seed", "--trials", "--sweep"),
    "rate-spatial": ("--seed", "--trials", "--sweep"),
    "optimize": ("--regime",),
    "rate-loss": ("--sweep",),
    "validate": ("--seed", "--trials"),
}
SHARED_FLAGS = ("--config", "--out", "--dump-linear")
#: a valid value of each flag; an empty config file is os.devnull
FLAG_VALUES = {
    "--config": [os.devnull], "--out": [os.devnull], "--dump-linear": [], "--seed": ["1"],
    "--trials": ["10"], "--sweep": ["n_elements:1:2:2"], "--regime": ["high"],
}


def help_flags(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--help"])
    assert exc.value.code == 0
    return set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) - {"--help"}


class TestCommandTable:
    """Each subcommand takes only the flags it reads; any other flag exits 2."""

    @pytest.mark.parametrize("command", COMMAND_FLAGS)
    def test_help_lists_exactly_its_flags(self, command, capsys):
        assert help_flags(command, capsys) == {*COMMAND_FLAGS[command], *SHARED_FLAGS}

    @pytest.mark.parametrize("command, flag", [(c, f) for c in COMMAND_FLAGS for f in FLAG_VALUES])
    def test_flag_slot(self, command, flag, capsys):
        # --dump-linear and a sweep where one is required make every other flag
        # vector a valid run that writes nothing
        args = [command, flag, *FLAG_VALUES[flag], "--dump-linear"]
        if "--sweep" in COMMAND_FLAGS[command]:
            args += ["--sweep", *FLAG_VALUES["--sweep"]]
        if flag in COMMAND_FLAGS[command] or flag in SHARED_FLAGS:
            assert run_cli(args) == 0
            assert "seed=" in capsys.readouterr().out
            return
        with pytest.raises(SystemExit) as exc:
            run_cli(args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # the usage line is the subcommand's own, so it lists the flags it takes
        assert err.startswith(f"usage: risgeo {command} ")
        assert f"unrecognized arguments: {flag}" in err

    @pytest.mark.parametrize(
        "args, named",
        [
            (["rate-spatial", "--seed", "x"], "value 'x' for key 'seed' is not int"),
            (["rate-fixed", "--sweep", "rho:0:1:2", "--trials", "1.5"],
             "value '1.5' for key 'trials' is not int"),
            (["validate", "--trials", "0"], "value 0 out of domain for key 'validate_trials'"),
        ],
        ids=["seed_text", "trials_text", "validate_trials_domain"],
    )
    def test_flag_value_checked_by_its_key(self, capsys, args, named):
        assert run_cli(args) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: command line: {named}"]

    def test_validate_trials_flag(self, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr(validation, "run_all", lambda trials, seed: seen.append(trials) or [])
        assert run_cli(["validate", "--trials", "123"]) == 0
        assert seen == [123]


def cli_outcome(args, capsys):
    """(exit code, stdout, stderr) of one in-process call."""
    try:
        code = run_cli(args)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSharedParser:
    """Every `main` call in a process parses against one parser, and no call
    changes what a later call sees."""

    def test_built_once(self, monkeypatch, capsys):
        assert run_cli(["optimize", "--dump-linear"]) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for args in (["rate-fixed", "--sweep", "n_elements:1:2:2", "--dump-linear"],
                     ["rate-spatial", "--sweep", "density:0.01:0.02:2", "--dump-linear"],
                     ["optimize", "--dump-linear"],
                     ["rate-loss", "--sweep", "n_elements:1:2:2", "--dump-linear"],
                     ["validate", "--dump-linear"],
                     ["optimize", "--sweep", "x"]):
            cli_outcome(args, capsys)
        assert built == []

    @pytest.mark.parametrize(
        "first, first_code, second, second_shows",
        [
            (["rate-fixed", "--trials", "64", "--seed", "5", "--sweep", "n_elements:1:2:2",
              "--dump-linear"], 0, ["rate-fixed", "--sweep", "n_elements:1:2:2", "--dump-linear"],
             " seed=0 trials=100000\n"),
            (["validate", "--sweep", "x"], 2, ["optimize", "--dump-linear"], "tx_power_w="),
            (["validate", "--sweep", "x"], 2, ["optimize", "--sweep", "x"],
             "usage: risgeo optimize "),
            (["rate-loss", "--help"], 0, ["rate-loss", "--sweep", "n_elements:1:10:2"],
             "\nn_elements,loss_rho0.25,"),
        ],
        ids=["flag_values", "usage_error_then_run", "usage_error_then_usage_error",
             "help_then_run"],
    )
    def test_later_call_answers_as_in_a_fresh_process(
        self, monkeypatch, capsys, first, first_code, second, second_shows
    ):
        # usage and help text wrap at the terminal width; pin it for both processes
        monkeypatch.setenv("COLUMNS", "80")
        assert cli_outcome(first, capsys)[0] == first_code
        fresh = subprocess.run(
            [sys.executable, "-m", "risgeo", *second],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
            capture_output=True, text=True, timeout=120,
        )
        code, out, err = cli_outcome(second, capsys)
        assert second_shows in out + err
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)


class TestNonFiniteInputs:
    """inf and nan are config errors (exit 2) that name the key or the sweep."""

    @pytest.mark.parametrize(
        "command, config, named",
        [
            (["rate-fixed", "--trials", "10", "--sweep", "n_elements:1:inf:2"], "",
             "'n_elements:1:inf:2'"),
            (["rate-spatial", "--trials", "10", "--sweep", "density:0.001:inf:2"], "",
             "'density:0.001:inf:2'"),
            (["optimize"], "tx_power_dbm = inf\n", "'tx_power_dbm'"),
            (["optimize"], "element_budget = inf\n", "'element_budget'"),
            # finite bounds whose span overflows make non-finite sweep points
            (["rate-fixed", "--trials", "10", "--sweep", "tx_power_dbm:-1e308:1e308:3"], "",
             "'tx_power_dbm:-1e308:1e308:3'"),
            (["rate-fixed", "--trials", "10", "--sweep", "d:1e308:-1e308:1"], "",
             "'d:1e308:-1e308:1'"),
        ],
        ids=["sweep_n_elements", "sweep_density", "tx_power_dbm", "element_budget",
             "sweep_point_overflow", "sweep_point_overflow_one_point"],
    )
    def test_cli_exits_2(self, tmp_path, capsys, command, config, named):
        cfg = tmp_path / "inf.cfg"
        cfg.write_text(config)
        assert run_cli(command + ["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "finite" in err and named in err

    @pytest.mark.parametrize("text", ["rho:nan:0.5:2", "density:-inf:0.01:3:log"])
    def test_sweep_bounds(self, text):
        with pytest.raises(ConfigError, match="must be finite"):
            parse_sweep(text)

    def test_override_value(self):
        with pytest.raises(ConfigError, match="'tx_power_dbm' is not finite"):
            resolve(None, {"tx_power_dbm": float("nan")})

    @pytest.mark.parametrize(
        "command, config, named",
        [
            (["optimize"], "tx_power_dbm = 4000\n", "'tx_power_dbm'"),
            (["optimize"], "noise_dbm = 5000\n", "'noise_dbm'"),
            (["optimize"], "beta_db = 4000\n", "'beta_db'"),
            (["rate-loss", "--sweep", "n_elements:1:2:2"], "rho_list = a,b\n", "rho_list"),
            (["optimize"], "rho_list = 0.5,2\n", "rho_list"),
            (["optimize"], "quant_bits = 0\n", "'quant_bits'"),
            (["optimize"], "quant_bits = 2.5\n", "'quant_bits'"),
            (["optimize"], "quant_bits = nan\n", "'quant_bits'"),
            (["rate-spatial", "--trials", "10", "--sweep", "density:0.005:0.005:1"],
             "elements_per_ris = 1" + "0" * 400 + "\n", "'elements_per_ris'"),
        ],
        ids=["tx_power_dbm", "noise_dbm", "beta_db", "rho_list_text", "rho_list_domain",
             "quant_bits_zero", "quant_bits_fraction", "quant_bits_nan", "elements_per_ris_huge"],
    )
    def test_unconvertible_value_exits_2(self, tmp_path, capsys, command, config, named):
        # a finite dB value whose linear value overflows, a rho_list entry that
        # is no rho, a quantizer bit count that is no positive integer, or an
        # element count too large for a float
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config)
        assert run_cli(command + ["--config", str(cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:") and named in err[0]

    def test_from_engineering_overflow(self):
        with pytest.raises(DomainError, match="overflows"):
            SystemParams.from_engineering(
                tx_power_dbm=4000.0, noise_dbm=-80.0, beta_db=-30.0, alpha_direct=3.0,
                alpha_bs_ris=2.0, alpha_ris_ue=2.5, d_min=180.0, d_max=220.0, serve_radius=10.0,
            )


class TestRateFixedCommand:
    def test_sweep_rows_and_echo(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            [
                "rate-fixed",
                "--sweep",
                "n_elements:50:200:4",
                "--trials",
                "2000",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        comments, header, rows = read_rows(out)
        assert comments and comments[0].startswith("# params:")
        assert header == ["n_elements", "bound_bpshz", "mc_mean_bpshz", "mc_stderr_bpshz"]
        assert len(rows) == 4
        for row in rows:
            bound, mc = float(row[1]), float(row[2])
            assert mc <= bound + 3 * float(row[3]) + 1e-12

    def test_phase_error_ordering_across_rho(self, tmp_path):
        # larger error ranges can only lower the bound, at every sweep point
        bounds = {}
        for rho in (0.0, 0.25, 0.5):
            out = tmp_path / f"r{rho}.csv"
            cfg = tmp_path / f"r{rho}.cfg"
            cfg.write_text(f"rho = {rho}\ntrials = 500\n")
            assert (
                run_cli(
                    [
                        "rate-fixed",
                        "--config",
                        str(cfg),
                        "--sweep",
                        "n_elements:10:400:5",
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            _, _, rows = read_rows(out)
            bounds[rho] = [float(r[1]) for r in rows]
        for a, b, c in zip(bounds[0.0], bounds[0.25], bounds[0.5]):
            assert a >= b >= c

    def test_single_point_sweep(self, tmp_path):
        out = tmp_path / "one.csv"
        assert (
            run_cli(
                ["rate-fixed", "--sweep", "rho:0.5:0.5:1", "--trials", "500", "--out", str(out)]
            )
            == 0
        )
        _, _, rows = read_rows(out)
        assert len(rows) == 1

    def test_single_point_log_sweep_needs_positive_endpoints(self, capsys):
        args = ["rate-spatial", "--sweep", "density:0.01:0:1:log", "--trials", "10"]
        assert run_cli(args) == 2
        assert "log sweep endpoints must be positive" in capsys.readouterr().err

    def test_rho_sweep_overrides_quant_bits(self, tmp_path):
        # quant_bits pins the configured rho, but each rho sweep point replaces it
        cfg = tmp_path / "q.cfg"
        cfg.write_text("quant_bits = 2\n")
        args = ["rate-fixed", "--sweep", "rho:0:1:3", "--trials", "200", "--seed", "4"]
        plain, pinned = tmp_path / "plain.csv", tmp_path / "pinned.csv"
        assert run_cli(args + ["--out", str(plain)]) == 0
        assert run_cli(args + ["--config", str(cfg), "--out", str(pinned)]) == 0
        comments, header, rows = read_rows(pinned)
        assert "rho=0.25" in comments[0]
        assert (header, rows) == read_rows(plain)[1:]
        assert [row[0] for row in rows] == ["0", "0.5", "1"]

    def test_byte_stable_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["rate-fixed", "--sweep", "n_elements:10:100:3", "--trials", "3000", "--seed", "11"]
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


#: Same-seed CSVs are byte-identical across releases whose draws do not
#: change (a speedup must keep the draws); these bytes pin the Monte-Carlo
#: estimators, the closed form and the integral together.
GOLDEN_RATE_FIXED = (
    '# params: tx_power_w=0.01 noise_w=1e-11 beta=0.001 alpha=(3,2,2.5) annulus=(180,220) serve_radius=10 density=0.005 elements_per_ris=200 element_budget=10 rho=0 seed=11 trials=3000\n'
    'n_elements,bound_bpshz,mc_mean_bpshz,mc_stderr_bpshz\n'
    '10,0.231359653901,0.218229082684,0.00307704383027\n'
    '55,0.5991949138,0.574316621951,0.00409511208163\n'
    '100,1.03794768722,1.01279545852,0.00433807107095\n'
)
GOLDEN_RATE_SPATIAL = (
    '# params: tx_power_w=0.01 noise_w=1e-11 beta=0.001 alpha=(3,2,2.5) annulus=(180,220) serve_radius=10 density=0.005 elements_per_ris=200 element_budget=10 rho=0 seed=3 trials=20000\n'
    'density,closed_form_bpshz,quadrature_bpshz,mc_bound_bpshz,mc_bound_stderr,mc_exact_bpshz,mc_exact_stderr\n'
    '0.005,3.2080846498,3.1875879347,3.20144621774,0.0162386040053,3.18977462652,0.0162882871887\n'
    '0.0141421356237,5.00429588597,4.98802209306,5.00696575049,0.0154971758659,4.99655729818,0.0155487311569\n'
    '0.04,6.71971762364,6.71563012416,6.73465857324,0.0159844115899,6.72559250043,0.0160228483393\n'
)
GOLDEN_RATE_LOSS = (
    '# params: tx_power_w=0.01 noise_w=1e-11 beta=0.001 alpha=(3,2,2.5) annulus=(180,220) serve_radius=10 density=0.005 elements_per_ris=200 element_budget=10 rho=0 seed=0 trials=100000\n'
    'n_elements,loss_rho0.25,loss_rho0.5,loss_rho0.6,loss_rho1,asymptote_rho0.25,asymptote_rho0.5,asymptote_rho0.6,asymptote_rho1\n'
    '10,0.199952751994,0.801165737761,1.14133054247,2.14811876769,0.240006356518,1.03212678017,1.56353094559,\n'
    '46,0.230757156567,0.975254514216,1.45272245087,3.83854000731,0.240006356518,1.03212678017,1.56353094559,\n'
    '215,0.238000161614,1.0195879005,1.53864508003,5.58868451153,0.240006356518,1.03212678017,1.56353094559,\n'
    '1000,0.239573749217,1.02941315772,1.5581223617,7.34269681233,0.240006356518,1.03212678017,1.56353094559,\n'
)

#: The `optimize` CSVs at the default config (its auto regime is low) and at
#: --regime high: the optimum line, the first and last of the 512 curve rows,
#: and the SHA-256 of the whole file.  --regime low must give the default's bytes.
# case: (flags, config text, optimum line, first row, last row, line count,
# SHA-256 of the CSV)
GOLDEN_OPTIMIZE = {
    "default": (
        [],
        "",
        "# optimum: lambda_star=0.00881197223418 n_star=1135 branch=bisection "
        "objective=12.8054147872 d_constant=-5.5089003659 regime=low",
        "1,7.10465084868",
        "512,12.2775818868",
        515,
        "6158b74de1897c28951961e57034c79b7b8510f6d8638524c5a0f81dd8383b27",
    ),
    "high": (
        ["--regime", "high"],
        "",
        "# optimum: lambda_star=0.0104661682859 n_star=956 branch=bisection "
        "objective=12.645591887 d_constant=7.6462630929 regime=high",
        "1,6.21678028045",
        "512,12.2576228504",
        515,
        "01147bb92a50d0a2d7d890e360bdb3777838b805d7d0e255d02f292bc10f3652",
    ),
    # an exact-slope optimum on the element-budget boundary (high SNR, random
    # phases): the objective rises into lambda = eta past a lower local maximum
    "boundary": (
        ["--regime", "high"],
        "rho = 1\nelement_budget = 5\nalpha_ris_ue = 3.5\nserve_radius = 10\n",
        "# optimum: lambda_star=5 n_star=1 branch=boundary_eta "
        "objective=6.95349239263 d_constant=7.6462630929 regime=high",
        "1,6.95349239263",
        "64,2.45349239281",
        67,
        "f35cb6a6b8c2c8be2408198b50a6c1148fd9f697f04ce1a852c9c84e69adc6f5",
    ),
}


class TestGoldenCsv:
    def test_rate_fixed(self, tmp_path):
        out = tmp_path / "fixed.csv"
        args = ["rate-fixed", "--sweep", "n_elements:10:100:3", "--trials", "3000", "--seed", "11"]
        assert run_cli(args + ["--out", str(out)]) == 0
        assert out.read_bytes() == GOLDEN_RATE_FIXED.encode()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rate_spatial(self, tmp_path, workers):
        out, cfg = tmp_path / "spatial.csv", tmp_path / "w.cfg"
        cfg.write_text(f"workers = {workers}\n")
        args = ["rate-spatial", "--config", str(cfg), "--sweep", "density:0.005:0.04:3:log"]
        args += ["--trials", "20000", "--seed", "3", "--out", str(out)]
        assert run_cli(args) == 0
        assert out.read_bytes() == GOLDEN_RATE_SPATIAL.encode()

    @pytest.mark.parametrize("case", sorted(GOLDEN_OPTIMIZE))
    def test_optimize(self, tmp_path, case):
        flags, config, optimum, first, last, count, digest = GOLDEN_OPTIMIZE[case]
        out, cfg = tmp_path / "optimize.csv", tmp_path / "optimize.cfg"
        cfg.write_text(config)
        assert run_cli(["optimize", "--config", str(cfg), *flags, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert (lines[1], lines[3], lines[-1], len(lines)) == (optimum, first, last, count)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_optimize_low_regime_is_the_default(self, tmp_path):
        default, low = tmp_path / "default.csv", tmp_path / "low.csv"
        assert run_cli(["optimize", "--out", str(default)]) == 0
        assert run_cli(["optimize", "--regime", "low", "--out", str(low)]) == 0
        assert low.read_bytes() == default.read_bytes()

    def test_rate_loss(self, tmp_path):
        # default rho_list: rho = 1 leaves its asymptote cells empty
        out = tmp_path / "loss.csv"
        assert run_cli(["rate-loss", "--sweep", "n_elements:10:1000:4:log", "--out", str(out)]) == 0
        assert out.read_bytes() == GOLDEN_RATE_LOSS.encode()


class TestRateSpatialCommand:
    def test_density_sweep_monotone(self, tmp_path):
        out = tmp_path / "lam.csv"
        code = run_cli(
            [
                "rate-spatial",
                "--sweep",
                "density:0.005:0.04:3:log",
                "--trials",
                "20000",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        _, header, rows = read_rows(out)
        quad = [float(r[header.index("quadrature_bpshz")]) for r in rows]
        assert quad == sorted(quad)
        for row in rows:
            q = float(row[header.index("quadrature_bpshz")])
            mcb = float(row[header.index("mc_bound_bpshz")])
            se = float(row[header.index("mc_bound_stderr")])
            assert abs(q - mcb) <= 4 * se

    def test_regime_column_dispatch(self, tmp_path):
        out = tmp_path / "c.csv"
        cfg = tmp_path / "c.cfg"
        cfg.write_text("tx_power_dbm = 45\nelements_per_ris = 400\n")
        assert (
            run_cli(
                [
                    "rate-spatial",
                    "--config",
                    str(cfg),
                    "--sweep",
                    "serve_radius:8:16:2",
                    "--trials",
                    "20000",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        _, header, rows = read_rows(out)
        for row in rows:
            closed = float(row[header.index("closed_form_bpshz")])
            quad = float(row[header.index("quadrature_bpshz")])
            assert abs(closed - quad) <= 0.1

    def test_wide_annulus_density_sweep(self, tmp_path):
        # d_max/d_min = 3: with its annulus axis over d^2 instead of ln d^2, the
        # residual rule's orders differ by 1.9e-7 here and the command exits 3
        out, cfg = tmp_path / "wide.csv", tmp_path / "wide.cfg"
        cfg.write_text("d_min = 40\nd_max = 120\ntx_power_dbm = 36\n")
        args = ["rate-spatial", "--config", str(cfg), "--sweep", "density:0.005:0.05:3"]
        assert run_cli(args + ["--trials", "4096", "--out", str(out)]) == 0
        _, header, rows = read_rows(out)
        assert len(rows) == 3
        assert all(np.isfinite(float(cell)) for row in rows for cell in row)


class TestRegimeDispatch:
    """`--regime` at the default geometry, where the far-edge direct SNR is
    0.0187, 2.97 and 297 at 3, 25 and 45 dBm.  It steers `optimize` only."""

    @staticmethod
    def _spatial_row(tmp_path, tx_power_dbm, regime):
        # a config file shared with `optimize` may set the regime; rate-spatial ignores it
        out, cfg = tmp_path / f"s{tx_power_dbm}{regime}.csv", tmp_path / f"s{regime}.cfg"
        cfg.write_text(f"regime = {regime}\n")
        args = ["rate-spatial", "--config", str(cfg)]
        args += ["--sweep", f"tx_power_dbm:{tx_power_dbm}:{tx_power_dbm}:1"]
        args += ["--trials", "200", "--out", str(out)]
        assert run_cli(args) == 0
        _, header, rows = read_rows(out)
        (row,) = rows
        return row[header.index("closed_form_bpshz")], row[header.index("quadrature_bpshz")]

    @staticmethod
    def _optimize_header(tmp_path, tx_power_dbm, regime, capsys):
        cfg = tmp_path / f"o{tx_power_dbm}.cfg"
        cfg.write_text(f"tx_power_dbm = {tx_power_dbm}\n")
        code = run_cli(["optimize", "--config", str(cfg), "--regime", regime])
        captured = capsys.readouterr()
        return code, captured

    @pytest.mark.parametrize(
        "tx_power_dbm, edge_snr", [(3, 0.0187), (25, 2.97), (45, 297.0)]
    )
    def test_edge_snr_at_default_geometry(self, tx_power_dbm, edge_snr):
        params = resolve(None, {"tx_power_dbm": tx_power_dbm}).system_params()
        got = params.snr_gain * params.beta_direct(params.d_max)
        assert got == pytest.approx(edge_snr, rel=0.005)

    @pytest.mark.parametrize("regime", ["high", "low", "auto"])
    @pytest.mark.parametrize("tx_power_dbm", [3, 25, 45])
    def test_rate_spatial_closed_column(self, tmp_path, tx_power_dbm, regime):
        cfg = resolve(None, {"tx_power_dbm": tx_power_dbm})
        params, dep = cfg.system_params(), cfg.deployment_params()
        closed, quad = self._spatial_row(tmp_path, tx_power_dbm, regime)
        assert closed == format(spatial_rate_closed_form(params, dep, cfg["rho"]).total, ".12g")
        assert quad == format(spatial_rate_integral(params, dep, cfg["rho"]).total, ".12g")
        assert closed != quad

    @pytest.mark.parametrize(
        "tx_power_dbm, regime", [(3, "low"), (25, "high"), (45, "high")]
    )
    def test_optimize_auto(self, tmp_path, capsys, tx_power_dbm, regime):
        code, captured = self._optimize_header(tmp_path, tx_power_dbm, "auto", capsys)
        assert code == 0
        report = next(l for l in captured.out.splitlines() if l.startswith("# optimum:"))
        assert report.endswith(f" regime={regime}")

    def test_integral_regime_in_file_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "i.cfg"
        cfg.write_text("regime = integral\n")
        for command in (["optimize"], ["rate-spatial", "--sweep", "tx_power_dbm:3:3:1"]):
            assert run_cli(command + ["--config", str(cfg)]) == 2
            assert "out of domain" in capsys.readouterr().err

    def test_integral_regime_flag_is_rejected(self, capsys):
        assert run_cli(["optimize", "--regime", "integral"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "out of domain" in err


class TestOptimizeCommand:
    def test_budget_anchor_report(self, tmp_path, capsys):
        cfg = tmp_path / "opt.cfg"
        cfg.write_text(
            "tx_power_dbm = 15\nalpha_ris_ue = 2\nserve_radius = 3\n"
            "element_budget = 10\nrho = 1\nregime = high\n"
        )
        out = tmp_path / "curve.csv"
        assert run_cli(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
        comments, header, rows = read_rows(out)
        report = next(c for c in comments if c.startswith("# optimum:"))
        assert "n_star=45" in report and "branch=random_closed_form" in report
        objective = [float(r[1]) for r in rows]
        assert int(rows[int(np.argmax(objective))][0]) == 45

    def test_spreading_anchor(self, tmp_path):
        cfg = tmp_path / "opt.cfg"
        cfg.write_text(
            "tx_power_dbm = 15\nalpha_ris_ue = 2.5\nserve_radius = 3\n"
            "element_budget = 10\nrho = 1\nregime = high\n"
        )
        out = tmp_path / "curve.csv"
        assert run_cli(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
        comments, _, rows = read_rows(out)
        report = next(c for c in comments if c.startswith("# optimum:"))
        assert "n_star=1" in report
        objective = [float(r[1]) for r in rows]
        assert int(np.argmax(objective)) == 0


class TestRateLossCommand:
    def test_columns_match_formulas(self, tmp_path):
        out = tmp_path / "loss.csv"
        cfg = tmp_path / "loss.cfg"
        cfg.write_text("density = 0.05\nserve_radius = 10\nrho_list = 0.25,0.5,1\n")
        assert (
            run_cli(
                [
                    "rate-loss",
                    "--config",
                    str(cfg),
                    "--sweep",
                    "n_elements:40:160:4",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        _, header, rows = read_rows(out)
        i_loss1 = header.index("loss_rho1")
        i_asym1 = header.index("asymptote_rho1")
        for row in rows:
            n = int(row[0])
            assert float(row[i_loss1]) == pytest.approx(
                rate_loss(n, 1.0, 0.05, 10.0), abs=0.02
            )
            assert row[i_asym1] == ""  # random phases never saturate
        i_loss05 = header.index("loss_rho0.5")
        n_vals = [int(r[0]) for r in rows]
        at_120 = float(rows[n_vals.index(120)][i_loss05])
        assert at_120 == pytest.approx(1.2748, abs=0.01)

    def test_element_count_rounds_and_clamps_at_one(self, tmp_path):
        out = tmp_path / "clamp.csv"
        assert run_cli(["rate-loss", "--sweep", "n_elements:0:4:3", "--out", str(out)]) == 0
        _, _, rows = read_rows(out)
        assert [row[0] for row in rows] == ["1", "2", "4"]


class TestValidateCommand:
    def test_default_run_passes(self, capsys):
        assert run_cli(["validate", "--trials", "30000", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "summary" in out and "FAIL" not in out.replace("FAIL(statistical)", "")

    def test_corrupted_special_function_fails_named_check(self, monkeypatch, capsys):
        exact = validation.exp_integral_ei
        monkeypatch.setattr(validation, "exp_integral_ei", lambda x: exact(x) + 1e-6)
        assert run_cli(["validate", "--trials", "30000"]) == 1
        failed = [
            line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL ")
        ]
        assert any("ei_quadrature_agreement" in line for line in failed)

    def test_crashed_check_reports_its_row_id(self, monkeypatch, capsys):
        def broken(x):
            raise RuntimeError("corrupted special function")

        monkeypatch.setattr(validation, "exp_integral_ei", broken)
        rows = [c for c in validation.CHECKS if c.check_id == "ei_quadrature_agreement"]
        monkeypatch.setattr(validation, "CHECKS", rows)
        assert run_cli(["validate", "--trials", "1000", "--seed", "0"]) == 1
        failed = [
            line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL ")
        ]
        assert any(
            "ei_quadrature_agreement" in line and "raised RuntimeError" in line
            for line in failed
        )

    def test_out_writes_the_report(self, tmp_path, monkeypatch, capsys):
        stubbed = [
            dataclasses.replace(check, run=lambda trials, seed: [(True, "stub")])
            for check in validation.CHECKS[:2]
        ]
        monkeypatch.setattr(validation, "CHECKS", stubbed)
        out = tmp_path / "report.txt"
        assert run_cli(["validate", "--trials", "10", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        lines = out.read_text().splitlines()
        assert [line.split()[1] for line in lines[:2]] == [c.check_id for c in stubbed]
        assert lines[2] == "# summary: 2 checks, 0 hard failures, 0 statistical failures"

    def test_summary_counts_every_row(self, monkeypatch, capsys):
        stubbed = [
            dataclasses.replace(check, run=lambda trials, seed: [(True, "stub")])
            for check in validation.CHECKS
        ]
        monkeypatch.setattr(validation, "CHECKS", stubbed)
        assert run_cli(["validate", "--trials", "10"]) == 0
        out = capsys.readouterr().out
        assert f"# summary: {len(stubbed)} checks," in out
        for check in stubbed:
            assert f" {check.check_id} " in out
