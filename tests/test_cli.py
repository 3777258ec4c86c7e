"""Driver tests: flag parsing, config-file merging, the thread cap, exit
codes on bad usage, and in-process happy paths on coarse grids. The verify
command's full-size panel and the subprocess-level byte-reproducibility
runs live in the acceptance suite.
"""

import argparse
import os
import subprocess
import sys

import numpy as np
import pytest

from sidecast.cli import (UsageError, _apply_thread_cap, _load_config,
                          _merge_config, _params_from, _parse_grid,
                          _parse_points, main)
from sidecast.fields import GridSpec, sample, write_field
from sidecast.harness import _grid_str
from sidecast.kernels import test_problem
from sidecast.regularizer import RegMode, cutoff_hm

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# coarse synthetic geometry shared by the happy-path runs
_DATA_GRID = "257,500,-10,0.078125,0.05,0.08"
_OUT_GRID = "33,33,0,0.03125,0.1,0.121875"


def _namespace(**kw):
    base = dict(config=None, problem=None, mode=None, epsilon=None,
                gamma=None, m=None, seed=None, data_grid=None, grid=None)
    base.update(kw)
    return argparse.Namespace(**base)


class TestParseGrid:
    def test_round_trip(self):
        g = _parse_grid(" 33 , 40 , -5.0 , 0.25 , 0.1 , 0.05 ")
        assert g == GridSpec(x0=-5.0, dx=0.25, nx=33, t0=0.1, dt=0.05, nt=40)

    def test_wrong_arity(self):
        with pytest.raises(UsageError, match="nx,nt,x0,dx,t0,dt"):
            _parse_grid("33,40,-5,0.25,0.1")

    def test_non_numeric(self):
        with pytest.raises(UsageError, match="bad grid"):
            _parse_grid("33,40,-5,zero,0.1,0.05")


class TestParsePoints:
    def test_list_with_trailing_separator(self):
        assert _parse_points("0,0; 1.5,-2 ;") == [(0.0, 0.0), (1.5, -2.0)]

    def test_wrong_arity(self):
        with pytest.raises(UsageError, match="points must be"):
            _parse_points("1;2,3")

    def test_non_numeric(self):
        with pytest.raises(UsageError, match="bad point"):
            _parse_points("1,oops")

    def test_empty(self):
        with pytest.raises(UsageError, match="empty point list"):
            _parse_points(" ; ")

    @pytest.mark.parametrize("text,bad", [("1,0;nan,0", "nan,0"),
                                          ("nan,0;1,0", "nan,0"),
                                          ("1,0;1,nan", "1,nan"),
                                          ("1,0;1,inf", "1,inf"),
                                          ("-inf,2", "-inf,2")])
    def test_non_finite(self, text, bad):
        with pytest.raises(UsageError, match="bad point '%s'" % bad):
            _parse_points(text)


class TestConfigFile:
    def test_load_and_merge(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# reproduces a run\n"
            "problem=p2\n"
            "epsilon=0.02\n"
            "noise_seed=7\n"
            "out_grid=%s\n"
            "kappa=6.28  # derived, ignored\n"
            "measured_error=0.1\n" % _OUT_GRID)
        ns = _namespace(config=str(cfg), epsilon=0.04)
        _merge_config(ns)
        assert ns.problem == "p2"
        assert ns.epsilon == 0.04          # flag beats config
        assert ns.seed == 7                # noise_seed aliases seed
        assert ns.grid == _OUT_GRID        # out_grid aliases grid
        assert not hasattr(ns, "kappa")    # unknown keys ignored

    def test_later_keys_win_within_the_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epsilon=0.01\nepsilon=0.005\n")
        assert _load_config(str(cfg))["epsilon"] == "0.005"

    def test_malformed_line_carries_position(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem=p1\nnot a pair\n")
        with pytest.raises(UsageError, match=r"run\.cfg:2: expected"):
            _load_config(str(cfg))

    def test_missing_file(self, tmp_path):
        with pytest.raises(UsageError, match="cannot read config"):
            _load_config(str(tmp_path / "nope.cfg"))

    def test_bad_cast_is_reported(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epsilon=tiny\n")
        ns = _namespace(config=str(cfg))
        with pytest.raises(UsageError, match="bad value for epsilon"):
            _merge_config(ns)

    def test_keys_without_a_namespace_slot_are_skipped(self, tmp_path):
        # verify-style namespaces have no eps_list attribute; a config
        # written for another subcommand must not break them
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps_list=0.04,0.02\nproblem=p1\n")
        ns = _namespace(config=str(cfg))
        del ns.grid  # simulate a sparser namespace
        _merge_config(ns)
        assert ns.problem == "p1"
        assert not hasattr(ns, "eps_list")


class TestParamsFrom:
    def test_l2_defaults_gamma_to_one(self):
        p = _params_from(_namespace(epsilon=0.01))
        assert p.mode is RegMode.L2
        assert p.gamma == 1.0 and p.epsilon == 0.01

    def test_epsilon_required(self):
        with pytest.raises(UsageError, match="--epsilon is required"):
            _params_from(_namespace())

    def test_hm_requires_m(self):
        with pytest.raises(UsageError, match="--m is required"):
            _params_from(_namespace(mode="hm", epsilon=1e-3))

    def test_unknown_mode(self):
        with pytest.raises(UsageError, match="mode must be"):
            _params_from(_namespace(mode="x3", epsilon=0.01))

    def test_out_of_range_epsilon_becomes_usage_error(self):
        # the admissibility check lives in the parameter class; the driver
        # turns it into exit-code-2 material
        with pytest.raises(UsageError):
            _params_from(_namespace(epsilon=0.3, gamma=1.0))


class TestThreadCap:
    def _clear(self, monkeypatch):
        for var in _THREAD_VARS:
            monkeypatch.delenv(var, raising=False)

    def test_positive_cap_sets_all_pools(self, monkeypatch):
        self._clear(monkeypatch)
        monkeypatch.setenv("SIDECAST_THREADS", "2")
        _apply_thread_cap()
        for var in _THREAD_VARS:
            assert os.environ[var] == "2"

    def test_non_integer_warns_and_is_ignored(self, monkeypatch, capsys):
        self._clear(monkeypatch)
        monkeypatch.setenv("SIDECAST_THREADS", "abc")
        _apply_thread_cap()
        assert "ignoring non-integer" in capsys.readouterr().err
        assert "OMP_NUM_THREADS" not in os.environ

    @pytest.mark.parametrize("raw", ["0", "-4", "", "  "])
    def test_nonpositive_or_blank_is_a_no_op(self, monkeypatch, raw):
        self._clear(monkeypatch)
        monkeypatch.setenv("SIDECAST_THREADS", raw)
        _apply_thread_cap()
        for var in _THREAD_VARS:
            assert var not in os.environ

    def test_cap_applies_through_main(self, monkeypatch, capsys):
        self._clear(monkeypatch)
        monkeypatch.setenv("SIDECAST_THREADS", "3")
        assert main(["reconstruct", "--problem", "p1"]) == 2
        assert os.environ["OMP_NUM_THREADS"] == "3"
        capsys.readouterr()


class TestUsageExits:
    def test_no_subcommand_is_an_argparse_exit(self):
        with pytest.raises(SystemExit):
            main([])

    def test_non_finite_probe_point(self, capsys):
        assert main(["verify", "--quick", "--points", "1,0;nan,0"]) == 2
        assert "bad point 'nan,0'" in capsys.readouterr().err

    def test_missing_epsilon(self, capsys):
        assert main(["reconstruct", "--problem", "p1"]) == 2
        assert "--epsilon is required" in capsys.readouterr().err

    def test_problem_and_files_conflict(self, capsys):
        rc = main(["reconstruct", "--problem", "p1", "--epsilon", "0.01",
                   "--f", "f.grd", "--g", "g.grd"])
        assert rc == 2
        assert "not both" in capsys.readouterr().err

    def test_file_mode_needs_both_files(self, capsys):
        rc = main(["reconstruct", "--epsilon", "0.01", "--f", "f.grd"])
        assert rc == 2
        assert "both --f and --g" in capsys.readouterr().err

    def test_no_data_source(self, capsys):
        assert main(["reconstruct", "--epsilon", "0.01"]) == 2
        assert "need a data source" in capsys.readouterr().err

    def test_epsilon_out_of_range(self, capsys):
        rc = main(["reconstruct", "--problem", "p1", "--epsilon", "0.3"])
        assert rc == 2
        capsys.readouterr()

    def test_sinc_requires_index_radius(self, capsys):
        rc = main(["sinc", "--problem", "p1", "--epsilon", "0.02"])
        assert rc == 2
        assert "--N" in capsys.readouterr().err

    def test_convergence_requires_eps_list(self, capsys):
        assert main(["convergence", "--problem", "p1"]) == 2
        assert "--eps-list" in capsys.readouterr().err

    def test_convergence_rejects_blank_eps_list(self, capsys):
        rc = main(["convergence", "--problem", "p1", "--eps-list", " , "])
        assert rc == 2
        assert "empty" in capsys.readouterr().err

    def test_convergence_refuses_hm_mode(self, tmp_path, capsys):
        rc = main(["convergence", "--problem", "p1", "--mode", "hm",
                   "--m", "1", "--eps-list", "0.0001",
                   "--out", str(tmp_path / "flags")])
        assert rc == 2
        assert "L2-mode bound only" in capsys.readouterr().err
        cfg = tmp_path / "hm.cfg"
        cfg.write_text("mode=hm\nm=1\neps_list=0.0001\n")
        rc = main(["convergence", "--problem", "p1", "--config", str(cfg),
                   "--out", str(tmp_path / "config")])
        assert rc == 2
        assert "L2-mode bound only" in capsys.readouterr().err
        assert not (tmp_path / "flags").exists()
        assert not (tmp_path / "config").exists()

    def test_window_past_the_data_nyquist_limit(self, tmp_path, capsys):
        # at eps=1e-10, gamma=1.9 the window reaches |r| <= 421.9, past
        # pi/dt = 157.1 of the default data grid
        out = tmp_path / "aliased"
        rc = main(["reconstruct", "--problem", "p1", "--epsilon", "1e-10",
                   "--gamma", "1.9", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "Nyquist" in err and "pi/dt = 157.08" in err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["5,65,0,0.25,0.5,2.5",
                                      "5,5,0,0.25,-79.5,10"])
    def test_output_window_an_alias_period_wide(self, tmp_path, capsys,
                                                grid):
        # the default data grid's lattice repeats every 80 in t: both
        # windows would read the values of t nodes 80 away
        out = tmp_path / "periodic"
        rc = main(["reconstruct", "--problem", "p2", "--epsilon", "0.02",
                   "--grid", grid, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "output window t in" in err and "P = 80 " in err
        assert "use a shorter output window or a longer data grid" in err
        assert not out.exists()

    def test_window_narrower_than_one_lattice_step(self, tmp_path, capsys):
        # 9 x nodes at dx = 0.125 pad to 18: the lattice step 2.79 in z
        # exceeds b_eps = 2.41 at eps = 0.02, so only z = 0 would be kept
        out = tmp_path / "short"
        rc = main(["reconstruct", "--problem", "p1", "--epsilon", "0.02",
                   "--data-grid", "9,500,-0.5,0.125,0.0060544365719673,0.02",
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "narrower than one lattice step dz = 2.79253" in err
        assert "|z| <= 2.41121" in err and "longer data grid" in err
        assert not out.exists()


@pytest.fixture(scope="module")
def small_grd(tmp_path_factory):
    """Exact P1 histories as GRD files for the file path."""
    d = tmp_path_factory.mktemp("grd")
    g = GridSpec(x0=-5.0, dx=10.0 / 32, nx=33, t0=0.05, dt=0.1, nt=40)
    prob = test_problem("P1")
    paths = {}
    for name, fn in (("f", prob.f0), ("g", prob.g0)):
        path = str(d / (name + ".grd"))
        write_field(sample(fn, g), path)
        paths[name] = path
    return g, paths


class TestFileModeReconstruct:
    def test_missing_output_grid(self, small_grd, capsys):
        _, paths = small_grd
        rc = main(["reconstruct", "--epsilon", "0.01",
                   "--f", paths["f"], "--g", paths["g"]])
        assert rc == 2
        assert "--grid" in capsys.readouterr().err

    def test_missing_output_grid_is_reported_before_any_read(self, capsys):
        rc = main(["reconstruct", "--f", "/nonexistent/f.grd",
                   "--g", "/nonexistent/g.grd", "--epsilon", "0.02"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--grid" in err and "No such file" not in err

    def test_mismatched_grids(self, small_grd, tmp_path, capsys):
        g, paths = small_grd
        other = GridSpec(x0=g.x0, dx=g.dx, nx=g.nx, t0=g.t0, dt=g.dt,
                         nt=g.nt - 1)
        bad = str(tmp_path / "bad.grd")
        write_field(sample(test_problem("P1").g0, other), bad)
        rc = main(["reconstruct", "--epsilon", "0.01",
                   "--f", paths["f"], "--g", bad,
                   "--grid", "9,9,0.2,0.1,0.5,0.3"])
        assert rc == 2
        assert "grids differ" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--data-grid", "9,9,0,1,0,1"),
                                            ("--seed", "5")])
    def test_flags_the_files_decide_are_refused(self, small_grd, tmp_path,
                                                capsys, flag, value):
        # the files carry their own grid and noise; a --data-grid equal
        # to the files' grid is accepted, as a manifest replay gives it
        g, paths = small_grd
        out = tmp_path / "refused"
        rc = main(["reconstruct", "--epsilon", "0.01",
                   "--f", paths["f"], "--g", paths["g"],
                   "--grid", "9,9,0.2,0.1,0.5,0.3", flag, value,
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert flag in err
        if flag == "--data-grid":
            assert value in err and _grid_str(g) in err
        assert not out.exists()

    def test_happy_path_writes_artifacts(self, small_grd, tmp_path, capsys):
        _, paths = small_grd
        out = str(tmp_path / "filemode")
        rc = main(["reconstruct", "--epsilon", "0.01",
                   "--f", paths["f"], "--g", paths["g"],
                   "--grid", "9,9,0.2,0.1,0.5,0.3", "--out", out])
        assert rc == 0
        assert "wrote v_eps.grd" in capsys.readouterr().out
        for name in ("v_eps.grd", "v_eps.csv", "manifest.txt"):
            assert os.path.isfile(os.path.join(out, name))
        with open(os.path.join(out, "manifest.txt")) as fh:
            manifest = fh.read()
        assert manifest.startswith("f_file=")
        assert "kappa=" not in manifest


_FILE_MODE_KEYS = ["f_file", "g_file", "mode", "epsilon", "gamma",
                   "data_grid", "out_grid", "b_eps", "C", "bound_l2"]


class TestFileModeManifest:
    def test_key_order_and_config_round_trip(self, tmp_path, capsys):
        grid = GridSpec(x0=-5.0, dx=10.0 / 32, nx=33, t0=0.05, dt=0.1, nt=40)
        prob = test_problem("P2")
        fp, gp = str(tmp_path / "f.grd"), str(tmp_path / "g.grd")
        write_field(sample(prob.f0, grid), fp)
        write_field(sample(prob.g0, grid), gp)
        first, second = str(tmp_path / "first"), str(tmp_path / "second")
        assert main(["reconstruct", "--f", fp, "--g", gp,
                     "--grid", "9,9,0.2,0.1,0.5,0.3", "--epsilon", "0.02",
                     "--out", first]) == 0
        manifest = os.path.join(first, "manifest.txt")
        with open(manifest) as fh:
            lines = fh.read().splitlines()
        assert [ln.partition("=")[0] for ln in lines] == _FILE_MODE_KEYS
        assert main(["reconstruct", "--config", manifest,
                     "--out", second]) == 0
        capsys.readouterr()
        for name in ("v_eps.grd", "v_eps.csv", "manifest.txt"):
            with open(os.path.join(first, name), "rb") as a, \
                    open(os.path.join(second, name), "rb") as b:
                assert a.read() == b.read(), name

    def test_hm_run_records_the_square_half_width(self, tmp_path, capsys):
        grid = GridSpec(x0=-5.0, dx=10.0 / 32, nx=33, t0=0.05, dt=0.1, nt=40)
        prob = test_problem("P2")
        fp, gp = str(tmp_path / "f.grd"), str(tmp_path / "g.grd")
        write_field(sample(prob.f0, grid), fp)
        write_field(sample(prob.g0, grid), gp)
        out = str(tmp_path / "hm")
        assert main(["reconstruct", "--f", fp, "--g", gp,
                     "--grid", "9,9,0.2,0.1,0.5,0.3", "--mode", "hm",
                     "--m", "0.5", "--epsilon", "1e-4", "--out", out]) == 0
        assert "no HM bound written" in capsys.readouterr().out
        with open(os.path.join(out, "manifest.txt")) as fh:
            lines = fh.read().splitlines()
        # HM mode's window is the square |z|, |r| <= a_eps
        assert "a_eps=%.17g" % cutoff_hm(1e-4, 0.5) in lines
        assert not any(ln.startswith("b_eps=") for ln in lines)


class TestSincCommand:
    @pytest.mark.parametrize("grid,rc", [("5,65,0,0.25,0.5,2.5", 2),
                                         ("5,65,0,0.25,0.5,0.625", 0)])
    def test_evaluation_box_an_alias_period_wide(self, tmp_path, capsys,
                                                 grid, rc):
        # t in [0.5, 160.5] spans two alias periods of the default data
        # grid's lattice, t in [0.5, 40.5] stays inside one
        out = tmp_path / "sinc"
        assert main(["sinc", "--problem", "p2", "--epsilon", "0.02",
                     "--N", "50", "--grid", grid, "--out", str(out)]) == rc
        captured = capsys.readouterr()
        if rc:
            assert "output window t in" in captured.err
            assert "P = 80 " in captured.err
            assert not out.exists()
        else:
            assert "deviation from the windowed inverse" in captured.out
            assert (out / "sinc.txt").is_file()

    def test_zero_radius_rejected(self, tmp_path, capsys):
        # the radius is refused before any output directory is made
        out = tmp_path / "zr"
        rc = main(["sinc", "--problem", "p2", "--epsilon", "0.02",
                   "--N", "0", "--data-grid", _DATA_GRID, "--grid", _OUT_GRID,
                   "--out", str(out)])
        assert rc == 2
        assert "positive index radius" in capsys.readouterr().err
        assert not out.exists()

    def test_needs_some_source(self, capsys):
        rc = main(["sinc", "--epsilon", "0.02", "--N", "2"])
        assert rc == 2
        assert "need a source: --problem p1|p2" in capsys.readouterr().err

    def test_stored_reconstruction_is_not_a_source(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sinc", "--v-eps", str(tmp_path / "x.grd"),
                  "--epsilon", "0.02", "--N", "2"])
        assert exc.value.code == 2
        assert "--v-eps" in capsys.readouterr().err

    @pytest.mark.parametrize("index_set,lines", [
        ("square", ["25 coefficients (square, N=2)"]),
        ("triangular", ["17 coefficients (triangular, N=2)",
                        "dropped-index energy"]),
    ], ids=["square", "triangular"])
    def test_problem_path_reruns_are_byte_identical(self, index_set, lines,
                                                    tmp_path, capsys):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            rc = main(["sinc", "--problem", "p2", "--epsilon", "0.02",
                       "--N", "2", "--index-set", index_set, "--seed", "4",
                       "--data-grid", _DATA_GRID, "--grid", _OUT_GRID,
                       "--out", str(out)])
            assert rc == 0
        text = capsys.readouterr().out
        assert "deviation from the windowed inverse" in text
        for line in lines:
            assert line in text
        for name in ("sinc.txt", "sinc_eval.csv"):
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes(), name


@pytest.fixture(scope="module")
def synthetic_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    rc = main(["reconstruct", "--problem", "p2", "--epsilon", "0.02",
               "--seed", "4", "--data-grid", _DATA_GRID,
               "--grid", _OUT_GRID, "--out", str(out)])
    assert rc == 0
    return out


class TestSyntheticReconstruct:
    def test_artifacts_and_stdout(self, synthetic_run, capsys):
        for name in ("v_eps.grd", "v_eps.csv", "manifest.txt"):
            assert (synthetic_run / name).is_file()

    def test_manifest_key_order(self, synthetic_run):
        # file mode's keys (see _FILE_MODE_KEYS), with the problem in place
        # of the files, the noise seed, and the exact solution's figures
        lines = (synthetic_run / "manifest.txt").read_text().splitlines()
        assert [ln.partition("=")[0] for ln in lines] == [
            "problem", "mode", "epsilon", "gamma", "noise_seed",
            "data_grid", "out_grid", "b_eps", "C", "eta_hat", "bound_l2",
            "measured_error"]

    def test_hm_run_says_why_it_writes_no_bound(self, tmp_path, capsys):
        out = tmp_path / "hm"
        assert main(["reconstruct", "--problem", "p1", "--mode", "hm",
                     "--m", "0.5", "--epsilon", "1e-4",
                     "--data-grid", _DATA_GRID, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "measured_error=" in text
        assert ("no HM bound written: it needs C1, the Sobolev seminorm of "
                "the exact solution, which is not supplied") in text
        with open(out / "manifest.txt") as fh:
            assert not any(ln.startswith("bound_") for ln in fh)

    def test_manifest_reproduces_the_run(self, synthetic_run, tmp_path,
                                         capsys):
        # the manifest doubles as a config file: derived keys are ignored,
        # the rest pin the run, so a rerun is byte-identical
        out2 = tmp_path / "again"
        rc = main(["reconstruct",
                   "--config", str(synthetic_run / "manifest.txt"),
                   "--out", str(out2)])
        assert rc == 0
        capsys.readouterr()
        for name in ("v_eps.grd", "v_eps.csv", "manifest.txt"):
            assert (synthetic_run / name).read_bytes() == \
                (out2 / name).read_bytes()


def test_fast_path_never_imports_scipy(small_grd, tmp_path):
    # importing scipy costs about 0.3 s of a CLI start; only checks need it
    _, paths = small_grd
    script = (
        "import sys\n"
        "from sidecast.cli import main\n"
        "common = ['--problem', 'p2', '--epsilon', '0.02', '--data-grid', "
        "%r, '--grid', %r]\n"
        "assert main(['reconstruct', '--out', 'rec'] + common) == 0\n"
        "assert main(['reconstruct', '--epsilon', '0.02', '--f', %r, "
        "'--g', %r, '--grid', '9,9,0.2,0.1,0.5,0.3', '--out', 'file']) == 0\n"
        "assert main(['sinc', '--N', '3', '--out', 'sinc'] + common) == 0\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "assert not loaded, loaded\n"
        % (_DATA_GRID, _OUT_GRID, paths["f"], paths["g"]))
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir,
                                       "src"))
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + inherited if inherited else "")
    proc = subprocess.run([sys.executable, "-c", script], cwd=str(tmp_path),
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class TestConvergenceCommand:
    def test_coarse_table(self, tmp_path, capsys):
        out = str(tmp_path / "conv")
        rc = main(["convergence", "--problem", "p1",
                   "--eps-list", "0.04,0.02", "--seed", "1",
                   "--data-grid", _DATA_GRID,
                   "--grid", "17,17,0.25,0.065625,0.1,0.24375",
                   "--out", out])
        assert rc == 0
        text = capsys.readouterr().out
        assert "epsilon" in text and "measured" in text
        path = os.path.join(out, "convergence.csv")
        with open(path) as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0] == "epsilon,measured_error,bound,eta_hat"
        assert len(lines) == 3
        eps_col = [float(ln.split(",")[0]) for ln in lines[1:]]
        assert eps_col == [0.04, 0.02]

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["convergence", "--problem", "p2",
                         "--eps-list", "0.04,0.02", "--seed", "1",
                         "--data-grid", _DATA_GRID, "--grid", _OUT_GRID,
                         "--out", str(out)]) == 0
        capsys.readouterr()
        assert (outs[0] / "convergence.csv").read_bytes() == \
            (outs[1] / "convergence.csv").read_bytes()


class TestVerifyCommand:
    def test_quick_panel_passes(self, capsys):
        rc = main(["verify", "--quick"])
        text = capsys.readouterr().out
        assert rc == 0
        assert "overall: PASS" in text
        assert "identity residual P1" in text
        assert "identity residual P2" in text

    def test_corrupted_symbol_goes_red(self, capsys):
        rc = main(["verify", "--quick", "--break-shat", "--points", "0,0"])
        text = capsys.readouterr().out
        assert rc == 1
        assert "overall: FAIL" in text
        # only the symbol check fails; the rest of the panel stays green
        assert "symbol closed form vs quadrature  FAIL" in text

    def test_corrupted_symbol_goes_red_on_the_box_quadrature(self, capsys):
        # off the origin the numeric side is the (x, t) box sum, not the
        # substituted mass, so this shows the box quadrature can go red
        rc = main(["verify", "--quick", "--break-shat",
                   "--points", "1,0;0,1"])
        text = capsys.readouterr().out
        assert rc == 1
        assert "symbol closed form vs quadrature  FAIL" in text
