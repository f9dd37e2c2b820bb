import argparse
import csv
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from bubblefem import LoopConfig
from bubblefem.cli import RunConfig, build_parser, main, parse_run_config, read_csv, slope


def rows_from(xs, ys):
    return [{"x": str(x), "y": str(y)} for x, y in zip(xs, ys)]


class TestSlope:
    def test_exact_inverse_law(self):
        xs = np.array([10.0, 20.0, 40.0, 80.0, 160.0])
        assert slope(rows_from(xs, 1.0 / xs), "x", "y") == pytest.approx(-1.0, abs=1e-12)

    def test_power_law(self):
        xs = np.array([10.0, 20.0, 40.0, 80.0, 160.0])
        assert slope(rows_from(xs, 3.0 * xs**-1.5), "x", "y") == pytest.approx(-1.5, abs=1e-12)

    def test_window_larger_than_rows_uses_all(self):
        xs = np.array([1.0, 2.0, 4.0])
        assert slope(rows_from(xs, xs**2.0), "x", "y", window=10) == pytest.approx(2.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            slope(rows_from([1.0, 2.0], [1.0, -1.0]), "x", "y")
        with pytest.raises(ValueError):
            slope(rows_from([1.0, 2.0], [float("nan"), 1.0]), "x", "y")

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            slope(rows_from([1.0], [1.0]), "x", "y")


class TestRunConfig:
    def test_run_flags_are_the_config_fields(self):
        # parse_run_config reads each field's flag by dest and ignores any other
        # dest, so a flag without a field, or a field without a flag, would pass
        # silently; only saturation and saturation_max_dofs are file-only
        parser = build_parser()
        [subcommands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        dests = {a.dest for a in subcommands.choices["run"]._actions} - {"help", "config"}
        assert dests == set(RunConfig.__dataclass_fields__) - {"saturation", "saturation_max_dofs"}

    def test_theta_defaults_by_mode(self):
        assert RunConfig(mode="energy").resolved_theta() == 0.5
        assert RunConfig(mode="goa", benchmark="exp2").resolved_theta() == 0.2
        assert RunConfig(theta=0.7).resolved_theta() == 0.7
        # the library and the CLI share the default
        assert LoopConfig(mode="goa").resolved_theta() == 0.2

    def test_delta_default_is_exp1s(self, tmp_path):
        import inspect

        from bubblefem import experiment1

        # the CLI and the library read exp1's default delta from one constant
        default = inspect.signature(experiment1).parameters["delta"].default
        assert RunConfig().delta == default
        out = tmp_path / "default-delta"
        assert main(["run", "--benchmark", "exp1", "--max-iters", "0", "--outdir", str(out)]) == 0
        assert json.loads((out / "config.json").read_text())["delta"] == default

    def test_validation_errors(self):
        import bubblefem.adapt
        from bubblefem.cli import ConfigError

        assert ConfigError is bubblefem.adapt.ConfigError
        with pytest.raises(ConfigError):
            RunConfig(benchmark="nope", max_iters=1).validate()
        with pytest.raises(ConfigError):
            RunConfig(p=5, max_iters=1).validate()
        with pytest.raises(ConfigError):
            RunConfig(mode="goa", benchmark="exp1", max_iters=1).validate()
        with pytest.raises(ConfigError):
            RunConfig().validate()  # no stop rule

    def test_config_file_roundtrip(self, tmp_path):
        cfgfile = tmp_path / "config.json"
        cfgfile.write_text(json.dumps({"benchmark": "exp1", "p": 2, "k": 4, "max_iters": 3,
                                       "saturation": False, "saturation_max_dofs": 5000}))
        parser_args = type("A", (), {"config": str(cfgfile), "p": None, "k": None})()
        for field in RunConfig.__dataclass_fields__:
            if not hasattr(parser_args, field):
                setattr(parser_args, field, None)
        config = parse_run_config(parser_args)
        assert (config.benchmark, config.p, config.k, config.max_iters) == ("exp1", 2, 4, 3)
        assert (config.saturation, config.saturation_max_dofs) == (False, 5000)

    def test_flags_override_file(self, tmp_path):
        cfgfile = tmp_path / "config.json"
        cfgfile.write_text(json.dumps({"p": 2, "max_iters": 3}))
        parser_args = type("A", (), {"config": str(cfgfile)})()
        for field in RunConfig.__dataclass_fields__:
            if not hasattr(parser_args, field):
                setattr(parser_args, field, None)
        parser_args.p = 1
        config = parse_run_config(parser_args)
        assert config.p == 1 and config.max_iters == 3

    def test_unknown_file_key_rejected(self, tmp_path):
        from bubblefem.cli import ConfigError

        cfgfile = tmp_path / "config.json"
        cfgfile.write_text(json.dumps({"nonsense": 1}))
        parser_args = type("A", (), {"config": str(cfgfile)})()
        for field in RunConfig.__dataclass_fields__:
            setattr(parser_args, field, None)
        with pytest.raises(ConfigError):
            parse_run_config(parser_args)


class TestMain:
    def test_energy_run_writes_artifacts(self, tmp_path):
        out = tmp_path / "run1"
        code = main([
            "run", "--benchmark", "exp1", "--mode", "energy", "--p", "1", "--k", "3",
            "--theta", "0.5", "--delta", "0.5", "--max-iters", "2", "--outdir", str(out),
        ])
        assert code == 0
        rows = read_csv(out / "records.csv")
        assert len(rows) == 3
        dofs = [int(r["dofs_total"]) for r in rows]
        assert all(b > a for a, b in zip(dofs, dofs[1:]))
        assert (out / "summary.txt").exists()
        saved = json.loads((out / "config.json").read_text())
        # effective configuration round-trips through RunConfig
        assert RunConfig(**saved) == RunConfig(**json.loads(json.dumps(saved)))
        assert saved["benchmark"] == "exp1"

    def test_goa_run_has_qoi_column(self, tmp_path):
        out = tmp_path / "run2"
        code = main([
            "run", "--benchmark", "exp2", "--mode", "goa", "--p", "1", "--k", "3",
            "--theta", "0.2", "--max-iters", "1", "--outdir", str(out),
        ])
        assert code == 0
        rows = read_csv(out / "records.csv")
        assert all(float(r["err_qoi_rel"]) > 0 for r in rows)
        assert json.loads((out / "config.json").read_text())["theta"] == 0.2

    def test_uniform_run_quadruples(self, tmp_path):
        out = tmp_path / "run3"
        code = main([
            "run", "--benchmark", "exp1", "--mode", "uniform", "--p", "1", "--k", "3",
            "--delta", "0.5", "--max-iters", "2", "--outdir", str(out),
        ])
        assert code == 0
        rows = read_csv(out / "records.csv")
        assert len(rows) == 3
        trial = [int(r["dofs_trial"]) for r in rows]
        assert trial[1] / trial[0] == pytest.approx(4.0, rel=0.15)

    @pytest.mark.parametrize("k, stop", [("4", ["--max-dofs", "8000"]),
                                         ("7", ["--max-iters", "1"])])
    def test_cubic_trial_runs_with_saturation(self, tmp_path, k, stop):
        # for p = 3 the enriched test space must stay a basis, or G is singular
        # and the robustness ratio takes the root of a negative number
        out = tmp_path / f"p3k{k}"
        code = main(["run", "--benchmark", "exp1", "--p", "3", "--k", k, *stop,
                     "--outdir", str(out)])
        assert code == 0
        rows = read_csv(out / "records.csv")
        assert all(np.isfinite(float(r["saturation"])) for r in rows)

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = main(["run", "--benchmark", "exp1", "--mode", "goa", "--max-iters", "1",
                     "--outdir", str(tmp_path / "x")])
        assert code == 1

    @pytest.mark.parametrize("flag, value", [("--k", "8"), ("--k", "9"), ("--sigma0", "0"),
                                             ("--sigma0", "-1"), ("--alpha", "0"),
                                             ("--sigma0", "inf"), ("--alpha", "inf"),
                                             ("--delta", "nan"), ("--delta", "inf"),
                                             ("--max-iters", "-1"), ("--max-dofs", "0"),
                                             ("--max-dofs", "-5"), ("--alpha", "1000")])
    def test_out_of_range_loop_setting_exits_1(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        # the flag comes last, so a --max-iters under test replaces the 1
        code = main(["run", "--benchmark", "exp1", "--max-iters", "1", flag, value,
                     "--outdir", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and err.count("\n") == 1
        assert not (out / "config.json").exists()

    # json reads the NaN literal as a float; each file value must fit its
    # RunConfig field's type
    @pytest.mark.parametrize("key, value", [pytest.param("sigma0", "0.0", id="sigma0"),
                                            pytest.param("sigma0", "null", id="sigma0-null"),
                                            pytest.param("alpha", "0.0", id="alpha"),
                                            pytest.param("delta", "NaN", id="delta-nan"),
                                            pytest.param("p", "1.0", id="p-float"),
                                            pytest.param("k", "3.0", id="k-float"),
                                            pytest.param("theta", '"0.5"', id="theta-string"),
                                            pytest.param("vtk", '"no"', id="vtk-string"),
                                            pytest.param("saturation", "1", id="saturation-int"),
                                            pytest.param("saturation_max_dofs", "2.5",
                                                         id="saturation_max_dofs-float"),
                                            pytest.param("saturation_max_dofs", "0",
                                                         id="saturation_max_dofs-0"),
                                            pytest.param("window", "2.5", id="window-float")])
    def test_out_of_range_config_file_key_exits_1(self, tmp_path, capsys, key, value):
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_text(f'{{"{key}": {value}, "max_iters": 1}}')
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfgfile), "--outdir", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and key in err and err.count("\n") == 1
        assert not (out / "config.json").exists()

    def test_delta_with_exp2_exits_1(self, tmp_path, capsys):
        # get_benchmark hands delta to exp1 only; exp2 would run without it
        out = tmp_path / "out"
        code = main(["run", "--benchmark", "exp2", "--mode", "goa", "--delta", "0.5",
                     "--max-iters", "0", "--outdir", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and "delta" in err and err.count("\n") == 1
        assert not (out / "config.json").exists()

    @pytest.mark.parametrize("degree, code", [("-3", 1), ("0", 1), ("5", 1), ("6", 0)])
    def test_quad_degree_floor(self, tmp_path, capsys, degree, code):
        # p1k3: the Gram mass of the test space needs degree 2 max(p, k) = 6
        out = tmp_path / "q"
        assert main(["run", "--benchmark", "exp1", "--delta", "0.5", "--quad-degree", degree,
                     "--max-iters", "0", "--outdir", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("configuration error") and "quad_degree" in err
            assert err.count("\n") == 1
            assert not (out / "config.json").exists()
        else:
            assert (out / "records.csv").exists()

    @pytest.mark.parametrize("window", ["0", "1"])
    def test_window_below_two_exits_1(self, tmp_path, capsys, window):
        # a slope needs two rows, so such a window would leave summary.txt without slopes
        out = tmp_path / "w"
        code = main(["run", "--benchmark", "exp1", "--window", window, "--max-iters", "1",
                     "--outdir", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "window" in err
        assert not (out / "config.json").exists()

    @pytest.mark.parametrize("below_file", [False, True], ids=["file", "below-file"])
    def test_unusable_outdir_exits_1(self, tmp_path, capsys, monkeypatch, below_file):
        # an existing file, or a path below one, cannot become the output directory
        import bubblefem.cli

        blocker = tmp_path / "file"
        blocker.write_text("kept")
        out = blocker / "out" if below_file else blocker
        monkeypatch.setattr(bubblefem.cli, "adaptive_loop", lambda *a: pytest.fail("ran"))
        code = main(["run", "--benchmark", "exp1", "--max-iters", "0", "--outdir", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and err.count("\n") == 1
        assert blocker.read_text() == "kept"

    def test_nan_source_exits_2(self, tmp_path, capsys, monkeypatch):
        from dataclasses import replace

        import bubblefem.cli
        from bubblefem import get_benchmark

        def nan_source(name, **kw):
            bench = get_benchmark(name, **kw)
            source = lambda x: np.full(len(np.atleast_2d(x)), np.nan)  # noqa: E731
            return replace(bench, data=replace(bench.data, source=source))

        monkeypatch.setattr(bubblefem.cli, "get_benchmark", nan_source)
        code = main(["run", "--benchmark", "exp1", "--delta", "0.5", "--max-iters", "2",
                     "--outdir", str(tmp_path / "nan")])
        assert code == 2
        err = capsys.readouterr().err
        assert "solver failure" in err and "Traceback" not in err

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            main(["run", "--benchmark", "not-a-benchmark", "--max-iters", "1"])
        assert err.value.code == 1

    def test_module_entry_point_runs_main(self, tmp_path):
        # python -m bubblefem.cli must reach main, not import the module and exit 0
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-m", "bubblefem.cli", "run", "--bogus"],
                              cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 1
        assert "unrecognized arguments: --bogus" in proc.stderr

    def test_slope_subcommand(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["dofs", "err"])
            for n in (100, 200, 400, 800, 1600):
                writer.writerow([n, 5.0 / n])
        assert main(["slope", str(path), "dofs", "err"]) == 0
        assert capsys.readouterr().out.strip() == "-1.000000"

    def test_slope_subcommand_missing_file_exits_1(self, tmp_path, capsys):
        code = main(["slope", str(tmp_path / "missing.csv"), "x", "y"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_slope_subcommand_rejects_bad_column(self, tmp_path):
        path = tmp_path / "data.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["dofs", "err"])
            writer.writerow([100, -1.0])
            writer.writerow([200, 1.0])
        assert main(["slope", str(path), "dofs", "err"]) == 1
