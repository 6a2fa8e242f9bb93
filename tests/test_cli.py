"""Config validation, exit codes, and output determinism of the cohk CLI."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cohk
from cohk.cli import ConfigError, main, run_config


def _write_config(tmp_path, body, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def _base(experiment="gram-psd", params=None, space=None):
    return {
        "space": space or {"kind": "klauder", "dim": 1},
        "experiment": experiment,
        "params": params or {},
    }


# ---- config validation ----


def test_unknown_top_level_key_names_it(tmp_path):
    cfg = _base()
    cfg["experimnt"] = "gram-psd"
    with pytest.raises(ConfigError, match="experimnt"):
        run_config(_write_config(tmp_path, cfg))


def test_missing_space_rejected(tmp_path):
    cfg = {"experiment": "gram-psd"}
    with pytest.raises(ConfigError, match="space"):
        run_config(_write_config(tmp_path, cfg))


def test_unknown_space_kind_names_path(tmp_path):
    cfg = _base(space={"kind": "euclidian"})
    with pytest.raises(ConfigError, match=r"space\.kind"):
        run_config(_write_config(tmp_path, cfg))


def test_unknown_space_key_names_path(tmp_path):
    cfg = _base(space={"kind": "klauder", "dmi": 1})
    with pytest.raises(ConfigError, match=r"space\.dmi"):
        run_config(_write_config(tmp_path, cfg))


def test_unknown_experiment_rejected(tmp_path):
    cfg = _base(experiment="gram-sdp")
    with pytest.raises(ConfigError, match="gram-sdp"):
        run_config(_write_config(tmp_path, cfg))


def test_unknown_param_names_path(tmp_path):
    cfg = _base(params={"samplez": 3})
    with pytest.raises(ConfigError, match=r"params\.samplez"):
        run_config(_write_config(tmp_path, cfg))


def test_bad_complex_pair_names_path(tmp_path):
    cfg = _base("resolvent", params={"E": [0.5, 0.1, 0.0]})
    with pytest.raises(ConfigError, match=r"params\.E"):
        run_config(_write_config(tmp_path, cfg), out_flag=str(tmp_path / "out"))


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="broken.json"):
        run_config(str(path))


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="nope.json"):
        run_config(str(tmp_path / "nope.json"))


def test_unsupported_output_format(tmp_path):
    cfg = _base()
    cfg["output"] = {"format": "parquet"}
    with pytest.raises(ConfigError, match=r"output\.format"):
        run_config(_write_config(tmp_path, cfg))


def test_point_outside_domain_names_path(tmp_path):
    cfg = _base(
        params={"points": [0.5, -1.0, 2.5]},
        space={"kind": "reciprocal"},
    )
    with pytest.raises(ConfigError, match=r"params\.points\[1\]"):
        run_config(_write_config(tmp_path, cfg), out_flag=str(tmp_path / "out"))


def test_fock_experiment_needs_klauder_space(tmp_path):
    cfg = _base("weyl-check", space={"kind": "szego"})
    with pytest.raises(ConfigError, match=r"space\.kind"):
        run_config(_write_config(tmp_path, cfg), out_flag=str(tmp_path / "out"))


# ---- exit codes through main() ----


def test_exit_zero_on_pass(tmp_path, capsys):
    cfg = _base(params={"samples": 2, "n_points": 6})
    path = _write_config(tmp_path, cfg)
    code = main(["run", path, "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "seed: 0xc0ffee" in out


def test_exit_two_on_config_error(tmp_path, capsys):
    cfg = _base(experiment="mystery")
    path = _write_config(tmp_path, cfg)
    code = main(["run", path, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_exit_one_on_check_failure(tmp_path, capsys):
    # an impossibly tight tolerance turns a healthy run into a failed check
    cfg = _base(
        "dynamics",
        params={"t_end": 1.0, "dt": 0.05, "err_tol": 1e-18},
    )
    path = _write_config(tmp_path, cfg)
    code = main(["run", path, "--out", str(tmp_path / "out")])
    assert code == 1
    assert "[FAIL]" in capsys.readouterr().out


@pytest.mark.parametrize("experiment,params,path", [
    ("dynamics", {"dt": math.nan}, r"params\.dt"),
    ("dynamics", {"t_end": math.inf}, r"params\.t_end"),
    ("dynamics", {"t_end": 10 ** 400}, r"params\.t_end"),
    ("spectrum", {"E_step": math.nan}, r"params\.E_step"),
    ("resolvent", {"E": [0.5, math.nan]}, r"params\.E"),
    ("resolvent", {"t_max": math.inf}, r"params\.t_max"),
])
def test_non_finite_values_exit_two(tmp_path, capsys, experiment, params, path):
    # Python's json reads NaN, Infinity and integers no float can hold; they
    # are config errors, not tracebacks (exit 1 would claim a failed check)
    cfg = _base(experiment, params=params)
    code = main(["run", _write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and re.search(path, err)


@pytest.mark.parametrize("experiment,params,message", [
    # one sample spans no time, so the scan has no window to divide by
    ("spectrum", {"t_max": 0.01, "dt": 0.05}, r"t_max=0\.01 is shorter than one step"),
    # eps0 / 2^(levels-1) squared underflows (600), and 2^j overflows a float (2000)
    ("ccr-check", {"levels": 600}, r"params\.levels"),
    ("ccr-check", {"levels": 2000}, r"params\.levels"),
    # RK4 leaves the domain at the first step; checking the one point left passed
    ("dynamics", {"gen": {"rho": 1e300, "p": [1e300], "q": [1e300], "X": [[1e300]]},
                  "t_end": 0.2, "dt": 0.01}, r"trajectory left the domain at t=0"),
    # zero steps left the start point alone to check, which passed
    ("dynamics", {"t_end": 0.2, "dt": 1e300}, r"params\.t_end: 0\.2 is shorter than one step"),
    # a damping this strong puts the derived horizon within one step, and one
    # this weak puts it beyond MAX_SIZE steps; the message names the input
    # that set it, not the horizon
    ("spectrum", {"eta": 1e300}, r"eta=1e\+300 damps the series .* within one step"),
    ("resolvent", {"E": [0.5, 1e300]}, r"Im E=1e\+300 damps the series .* within one step"),
    ("spectrum", {"eta": 1e-9}, r"eta=1e-09 needs 5\.53e\+11 steps of dt=0\.05"),
    ("resolvent", {"E": [0.5, 1e-300]}, r"Im E=1e-300 needs 2\.76e\+303 steps of dt=0\.01"),
    # growth e^{50 t} overflows the doubled series flows and the sd-residual
    # flows (they wrote NaN into density.csv and report.json), and e^{1e9 t}
    # overflows every half of a split flow (halving it ran for minutes)
    ("spectrum", {"gen": {"X": [[[0, 50]]]}}, r"flow of this generator overflows at t="),
    ("resolvent", {"gen": {"X": [[[0, 50]]]}}, r"flow of this generator overflows at t="),
    ("sd-residual", {"gen": {"X": [[[0, 50]]]}}, r"flow of this generator overflows at t="),
    ("sd-residual", {"gen": {"X": [[[0, 1e9]]]}}, r"flow of this generator overflows at t="),
    # a check value that is not finite would be written as NaN, not JSON
    ("ccr-check", {"p": [1e300]}, r"ccr_product_residual_over_scale check is not finite"),
    ("dynamics", {"z0": [1e300, 1e300], "t_end": 0.2, "dt": 0.01},
     r"norm_drift_rel check is not finite"),
    # nor may a data file hold one: without the norm check of a self-adjoint
    # generator this run reported a failed check and wrote inf/nan rows
    ("dynamics", {"z0": [1e300, 1e300], "gen": {"X": [[[1, -0.5]]]}, "t_end": 0.2,
                  "dt": 0.01}, r"autocorr\.csv holds a value that is not finite"),
])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_unrunnable_configs_exit_two(tmp_path, capsys, experiment, params, message):
    cfg = _base(experiment, params=params)
    code = main(["run", _write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and re.search(message, err)
    assert not (tmp_path / "out").exists()  # a rejected run writes nothing


@pytest.mark.parametrize("experiment", ["weyl-check", "gram-psd"])
@pytest.mark.parametrize("space, message", [
    ({"kind": ["klauder"]}, "kind: unknown space kind"),
    ({"kind": {"kind": "klauder"}}, "kind: unknown space kind"),
    ({"kind": 1}, "kind: unknown space kind"),
    ({"kind": "klauder", "dim": 0}, "dim: expected a count"),
    ({"kind": "klauder", "dim": -1}, "dim: expected a count"),
    ({"kind": "klauder", "dim": 1.5}, "dim: expected a count"),
    ({"kind": "klauder", "dim": True}, "dim: expected a count"),
    ({"kind": "klauder", "dim": "2"}, "dim: expected a count"),
    ({"kind": "klauder", "dim": 10 ** 400}, "dim: expected a count"),
    ({"kind": "klauder", "dim": 10 ** 12}, "dim: expected a count"),
    ({"kind": "euclidean", "dim": 10 ** 400}, "dim: expected a count"),
    ({"kind": "klauder", "modes": 1}, "modes: unknown key"),
    ({"kind": "schur", "preset": 1}, "preset: unknown schur preset"),
    ({"kind": "schur", "s": 1}, "s: expected a callable"),
])
def test_malformed_space_exits_two_naming_the_key(tmp_path, capsys, experiment, space, message):
    cfg = _base(experiment, params={"samples": 1}, space=space)
    code = main(["run", _write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: space.{message}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out", ["file", "file/out"])
def test_unwritable_output_path_exits_two(tmp_path, capsys, out):
    (tmp_path / "file").write_text("")
    cfg = _base(params={"samples": 1, "n_points": 4})
    assert main(["run", _write_config(tmp_path, cfg), "--out", str(tmp_path / out)]) == 2
    assert "config error: output.path" in capsys.readouterr().err
    assert (tmp_path / "file").read_text() == ""


def test_python_dash_m_exit_codes(tmp_path):
    src = str(Path(cohk.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cases = [
        (0, _base(params={"samples": 1, "n_points": 4})),
        (1, _base("dynamics", params={"t_end": 0.2, "dt": 0.05, "err_tol": 1e-18})),
        (2, _base(experiment="mystery")),
    ]
    for want, cfg in cases:
        path = _write_config(tmp_path, cfg, name=f"exit{want}.json")
        proc = subprocess.run(
            [sys.executable, "-m", "cohk", "run", path, "--out", str(tmp_path / f"out{want}")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == want, proc.stderr
        assert "Traceback" not in proc.stderr


def test_kernel_overflow_exits_two_naming_space_and_pair(tmp_path):
    # exp(800) overflows the klauder kernel: a rejected config, not a
    # traceback (exit 1 would claim a failed check)
    src = str(Path(cohk.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    path = _write_config(tmp_path, _base(params={"points": [[0, 0], [800, 0]]}))
    proc = subprocess.run(
        [sys.executable, "-m", "cohk", "run", path, "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "config error" in proc.stderr
    assert "klauder(1)" in proc.stderr and "point pair (0, 1)" in proc.stderr


def test_overflowing_label_exits_two_without_warnings(tmp_path):
    # exp of a 1e300 label overflows everywhere; the config error is the only
    # thing printed
    src = str(Path(cohk.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    path = _write_config(tmp_path, _base("df-propagate", params={"z0": [1e300, 1e300]}))
    proc = subprocess.run(
        [sys.executable, "-m", "cohk", "run", path, "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "config error" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr


def test_csv_float_rows_match_the_per_value_format(tmp_path):
    from cohk.cli import _fmt, _write_csv

    big = 123456789012345678901234567890
    rows = [[0.0, -0.0, 1.0 / 3.0], [1e300, 5e-324, -2.5], [math.inf, -math.inf, math.nan],
            ["case", 3, np.float64(0.1)], [1, 2.0, np.int64(7)],
            [True, False, np.bool_(True)], [True, 1, 1.0],
            [10**17, -(10**17), big], [-big, np.int64(-(2**63)), np.int64(2**63 - 1)],
            [-1, -0, np.int64(-5)], [np.int64(3), 3, np.float64(-0.0)],
            [np.float64(math.nan), 1e17, np.float64(-1e-300)],
            [np.int32(4), np.float32(0.1), 2], [0, 1.0, np.int64(2)], [0, 1.0, np.int64(2)]]
    _write_csv(str(tmp_path), "x.csv", ["a", "b", "c"], rows)
    want = "a,b,c\n" + "".join(",".join(_fmt(v) for v in r) + "\n" for r in rows)
    assert (tmp_path / "x.csv").read_text() == want
    # an array is converted in blocks of rows; 1300 rows span three of them
    table = np.random.default_rng(0).standard_normal((1300, 3)) * 10.0 ** np.arange(-2, 1)
    _write_csv(str(tmp_path), "y.csv", ["a", "b", "c"], table)
    want = "a,b,c\n" + "".join(",".join(_fmt(v) for v in r) + "\n" for r in table)
    assert (tmp_path / "y.csv").read_text() == want


def test_list_exits_zero_and_names_all_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in [
        "gram-psd", "geometry-check", "weyl-check", "ccr-check",
        "dynamics", "spectrum", "resolvent", "df-propagate", "sd-residual",
    ]:
        assert name in out


# ---- report contents ----


def test_report_numbers_carry_tolerances(tmp_path):
    cfg = _base(params={"samples": 2, "n_points": 5})
    run_config(_write_config(tmp_path, cfg), out_flag=str(tmp_path / "out"))
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["seed"] == 0xC0FFEE
    assert report["library_version"]
    assert report["checks"]
    for check in report["checks"]:
        assert set(check) == {"name", "value", "tolerance", "comparison", "passed"}
    assert "wall_time" not in json.dumps(report)


def test_seed_flag_overrides_config(tmp_path):
    cfg = _base(params={"samples": 2, "n_points": 5, "seed": 7})
    path = _write_config(tmp_path, cfg)
    run_config(path, out_flag=str(tmp_path / "a"))
    rep_a = json.loads((tmp_path / "a" / "report.json").read_text())
    assert rep_a["seed"] == 7
    run_config(path, out_flag=str(tmp_path / "b"), seed_flag=99)
    rep_b = json.loads((tmp_path / "b" / "report.json").read_text())
    assert rep_b["seed"] == 99


def test_gram_psd_explicit_points_value(tmp_path):
    # the 3x3 Hilbert-type gram on 0.5, 1.5, 2.5 has a known smallest eigenvalue
    cfg = _base(
        params={"points": [0.5, 1.5, 2.5]},
        space={"kind": "reciprocal"},
    )
    report = run_config(_write_config(tmp_path, cfg), out_flag=str(tmp_path / "out"))
    assert report.passed
    eig = next(c for c in report.checks if c.name == "min_eigenvalue")
    assert eig.value == pytest.approx(2.687340355773545e-3, rel=1e-9)


def test_spectrum_writes_line_and_density_csv(tmp_path):
    cfg = _base(
        "spectrum",
        params={
            "t_max": 62.83185307179586,
            "dt": 0.05,
            "E_min": -0.5,
            "E_max": 2.5,
            "E_step": 0.04,
            "completeness_tol": 0.1,
        },
    )
    report = run_config(_write_config(tmp_path, cfg), out_flag=str(tmp_path / "out"))
    assert report.passed
    lines = (tmp_path / "out" / "lines.csv").read_text().splitlines()
    assert lines[0] == "E,weight"
    energies = [float(r.split(",")[0]) for r in lines[1:]]
    assert energies == pytest.approx([0.0, 1.0, 2.0], abs=0.04)
    dens = (tmp_path / "out" / "density.csv").read_text().splitlines()
    assert dens[0] == "E,density"
    assert len(dens) == 77  # header + the 76-point grid


def test_trajectory_csv_shape(tmp_path):
    cfg = _base("dynamics", params={"t_end": 0.5, "dt": 0.05})
    run_config(_write_config(tmp_path, cfg), out_flag=str(tmp_path / "out"))
    rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert rows[0] == "t,re0,im0,re1,im1"
    assert len(rows) == 12  # header + 11 points
    last = [float(x) for x in rows[-1].split(",")]
    assert last[0] == pytest.approx(0.5)
    # harmonic flow keeps z0 fixed and rotates the mode coordinate
    assert complex(last[1], last[2]) == pytest.approx(-0.5 + 0.0j, abs=1e-10)
    assert complex(last[3], last[4]) == pytest.approx(np.exp(-0.5j), abs=1e-6)


# ---- determinism ----


@pytest.mark.parametrize("experiment,params", [
    ("gram-psd", {"samples": 3, "n_points": 8}),
    ("weyl-check", {"samples": 10}),
    ("sd-residual", {"samples": 4, "t_max": 1.0}),
])
def test_reruns_are_byte_identical(tmp_path, experiment, params):
    cfg = _base(experiment, params=params)
    path = _write_config(tmp_path, cfg)
    run_config(path, out_flag=str(tmp_path / "a"))
    run_config(path, out_flag=str(tmp_path / "b"))
    names_a = sorted(os.listdir(tmp_path / "a"))
    assert names_a == sorted(os.listdir(tmp_path / "b"))
    for name in names_a:
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes(), name
