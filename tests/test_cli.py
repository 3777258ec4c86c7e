"""Driver tests: flag parsing, config-file merging, the thread cap, exit
codes on bad usage, in-process happy paths on coarse grids, the verify
panel at both sizes, and every command README shows. Each runs through
cli.main, so the suite checks an installed package as it checks the
checkout. The subprocess-level byte-reproducibility runs live in the
acceptance suite.
"""

import argparse
import importlib
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import sidecast
from sidecast import harness
from sidecast.cli import (UsageError, _apply_thread_cap, _build_parser,
                          _load_config, _merge_config, _params_from,
                          _parse_grid, _parse_points, main)
from sidecast.fields import GridSpec, sample, write_field
from sidecast.harness import (_grid_str, default_data_grid, default_out_grid,
                              noisy_histories)
from sidecast.kernels import test_problem
from sidecast.regularizer import RegParams, cutoff_hm
from sidecast.sinc import read_expansion

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# coarse synthetic geometry shared by the happy-path runs
_DATA_GRID = "257,500,-10,0.078125,0.05,0.08"
_OUT_GRID = "33,33,0,0.03125,0.1,0.121875"
# a 129 x 500 data grid on the default grid's t offset
_CI_DATA_GRID = "129,500,-10,0.15625,0.0060544365719673,0.02"


def _namespace(**kw):
    base = dict(config=None, problem=None, epsilon=None,
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

    def test_a_byte_that_is_not_text_is_reported(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"problem=p2\nepsilon=0.02\xff\n")
        rc = main(["reconstruct", "--config", str(cfg),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "sidecast: cannot read config %s: " % cfg)
        assert not (tmp_path / "out").exists()

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
        assert p.mode == "l2"
        assert p.gamma == 1.0 and p.epsilon == 0.01

    def test_epsilon_required(self):
        with pytest.raises(UsageError, match="--epsilon is required"):
            _params_from(_namespace())

    def test_m_selects_hm_mode(self):
        p = _params_from(_namespace(epsilon=1e-4, m=0.5))
        assert p.mode == "hm"
        assert p.gamma is None and p.m == 0.5

    def test_hm_requires_m(self, tmp_path):
        # a config's mode= records the mode m selects: mode=hm without m
        # disagrees with the L2 mode the run would take
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode=hm\n")
        with pytest.raises(UsageError, match="mode=hm, but no m selects "
                                             "l2 mode"):
            _merge_config(_namespace(config=str(cfg), epsilon=1e-3))

    @pytest.mark.parametrize("mode", ["l2"])
    def test_m_is_refused_outside_hm_mode(self, mode, tmp_path):
        # m selects hm mode, so a config that records another mode beside
        # m contradicts it
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode=%s\nm=0.5\n" % mode)
        with pytest.raises(UsageError, match="mode=%s, but m=0.5 selects "
                                             "hm mode" % mode):
            _merge_config(_namespace(config=str(cfg), epsilon=0.01))

    def test_gamma_is_refused_in_hm_mode(self):
        with pytest.raises(ValueError, match=r"give gamma \(L2 rectangle\) "
                                             r"or m \(HM square\), not both"):
            _params_from(_namespace(epsilon=1e-4, m=0.5, gamma=1.0))

    def test_unknown_mode(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode=x3\n")
        with pytest.raises(UsageError, match="mode=x3, but no m selects"):
            _merge_config(_namespace(config=str(cfg), epsilon=0.01))

    def test_the_mode_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args(["reconstruct", "--mode", "hm"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mode" in capsys.readouterr().err

    def test_out_of_range_epsilon_exits_2_through_main(self, tmp_path,
                                                       capsys):
        # the admissibility check lives in the parameter class, and main
        # reports its ValueError with exit code 2 before anything is written
        out = tmp_path / "out"
        assert main(["reconstruct", "--problem", "p2", "--epsilon", "0.5",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "sidecast: epsilon must lie in (0, exp(-3/gamma) = 0.0497871) "
            "for the rectangle cutoff, got 0.5\n")
        assert not out.exists()


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

    @pytest.mark.parametrize("argv", [
        ["reconstruct", "--problem", "p3", "--epsilon", "0.02"],
        ["convergence", "--problem", "p3", "--eps-list", "0.02"],
        ["sinc", "--problem", "p3", "--epsilon", "0.02", "--N", "2"],
    ])
    def test_unknown_problem_without_a_grid(self, argv, tmp_path, capsys):
        # the problem is looked up before its default output grid, so the
        # message names the problem, as it does when --grid is given
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "unknown test problem 'p3' (have P1, P2)" in err
        assert "no default output grid" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv,config", [
        (["reconstruct", "--problem", "p1", "--epsilon", "0.02",
          "--seed", "-1"], None),
        (["sinc", "--problem", "p1", "--epsilon", "0.02", "--N", "2",
          "--seed", "-1"], None),
        (["convergence", "--problem", "p1", "--eps-list", "0.02",
          "--seed", "-1"], None),
        (["reconstruct", "--problem", "p1", "--epsilon", "0.02"],
         "seed=-1\n"),
        (["reconstruct", "--problem", "p1", "--epsilon", "0.02"],
         "noise_seed=-1\n"),
    ], ids=["reconstruct", "sinc", "convergence", "config-seed",
            "config-noise_seed"])
    def test_negative_seed(self, argv, config, tmp_path, capsys):
        out = tmp_path / "out"
        if config is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config)
            argv = argv + ["--config", str(cfg)]
        assert main(argv + ["--out", str(out)]) == 2
        assert ("--seed must be a non-negative integer, got -1"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("argv,config,words", [
        (["--m", "0.5"], "mode=l2\n", ("mode=l2", "m=0.5")),
        (["--m", "0.5", "--gamma", "1"], None, ("gamma=1.0", "m=0.5")),
        ([], "mode=l2\nm=0.5\n", ("mode=l2", "m=0.5")),
        (["--gamma", "1"], "mode=hm\nm=0.5\n", ("gamma=1.0", "m=0.5")),
    ], ids=["m-in-l2", "gamma-in-hm", "config-m-in-l2",
            "config-gamma-in-hm"])
    def test_inapplicable_mode_flag(self, argv, config, words, tmp_path,
                                    capsys):
        # gamma beside m, or a recorded mode= that m contradicts, is
        # refused, not silently dropped
        out = tmp_path / "out"
        if config is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config)
            argv = argv + ["--config", str(cfg)]
        assert main(["reconstruct", "--problem", "p2", "--epsilon", "1e-4",
                     "--out", str(out)] + argv) == 2
        err = capsys.readouterr().err
        assert all(word in err for word in words), err
        assert not out.exists()

    def test_out_of_memory(self, monkeypatch, tmp_path, capsys):
        # an allocation the host cannot serve is a usage exit, not a
        # traceback; the run writes only after computing, so nothing is
        # written
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setattr(harness, "run_experiment", exhausted)
        out = tmp_path / "out"
        assert main(["reconstruct", "--problem", "p2", "--epsilon", "0.02",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "sidecast: out of memory: Unable to allocate 74.5 GiB for an "
            "array\n")
        assert not out.exists()

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

    def test_convergence_takes_no_epsilon(self, tmp_path, capsys):
        # its noise levels come from --eps-list; a manifest's epsilon= key
        # has no slot under convergence --config and is ignored
        with pytest.raises(SystemExit) as exc:
            main(["convergence", "--problem", "p1", "--eps-list", "0.04",
                  "--epsilon", "0.5", "--out", str(tmp_path / "run")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --epsilon" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epsilon=0.5\neps_list=0.04\n")
        args = _build_parser().parse_args(["convergence", "--config",
                                           str(cfg)])
        _merge_config(args)
        assert args.eps_list == "0.04" and not hasattr(args, "epsilon")

    def test_convergence_refuses_hm_mode(self, tmp_path, capsys):
        # --m or a config's m= would select HM; a recorded mode=hm without
        # m disagrees with the L2 mode the run would take
        for flags, config, message in [
                (["--m", "1"], None, "L2-mode bound only"),
                ([], "mode=hm\nm=1\n", "L2-mode bound only"),
                ([], "mode=hm\n", "mode=hm, but no m selects l2 mode")]:
            out = tmp_path / "run"
            argv = ["convergence", "--problem", "p1", "--eps-list", "0.0001",
                    "--out", str(out)] + flags
            if config is not None:
                cfg = tmp_path / "hm.cfg"
                cfg.write_text(config)
                argv += ["--config", str(cfg)]
            assert main(argv) == 2
            assert message in capsys.readouterr().err
            assert not out.exists()

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

    @pytest.mark.parametrize("grid, axis", [
        ("129,129,0,0.0078125,45,0.1171875", "t"),   # t in [45, 60]
        ("33,33,12,0.125,0.5,0.1", "x"),             # x in [12, 16]
    ])
    def test_output_window_outside_the_data(self, tmp_path, capsys, grid,
                                            axis):
        # the default data grid spans |x| <= 10 and t up to 39.986
        out = tmp_path / "outside"
        rc = main(["reconstruct", "--problem", "p2", "--epsilon", "0.02",
                   "--grid", grid, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "output window %s in" % axis in err
        assert "leaves the data interval" in err
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

    def test_a_header_the_file_cannot_hold_is_refused(self, small_grd,
                                                      tmp_path, capsys):
        # 1e10 values promised by a 24-byte file: refused, not allocated
        _, paths = small_grd
        huge = tmp_path / "huge.grd"
        huge.write_text("100000 100000 0 1 0.1 1\n")
        out = tmp_path / "huge_out"
        rc = main(["reconstruct", "--epsilon", "0.01",
                   "--f", str(huge), "--g", paths["g"],
                   "--grid", "9,9,0.2,0.1,0.5,0.3", "--out", str(out)])
        assert rc == 2
        assert "%s:1: expected 100000 data rows, got 0" % huge in \
            capsys.readouterr().err
        assert not out.exists()

    def test_a_byte_that_is_not_text_is_refused_at_its_line(
            self, small_grd, tmp_path, capsys):
        # the first value of line 3 becomes byte 0xff
        _, paths = small_grd
        lines = Path(paths["f"]).read_bytes().split(b"\n")
        lines[2] = b"\xff" + lines[2][lines[2].index(b" "):]
        bad = tmp_path / "bad.grd"
        bad.write_bytes(b"\n".join(lines))
        out = tmp_path / "out"
        rc = main(["reconstruct", "--epsilon", "0.01",
                   "--f", str(bad), "--g", paths["g"],
                   "--grid", "9,9,0.2,0.1,0.5,0.3", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "sidecast: %s:3: unparseable value in row\n" % bad)
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
                     "--grid", "9,9,0.2,0.1,0.5,0.3", "--m", "0.5",
                     "--epsilon", "1e-4", "--out", out]) == 0
        assert "no HM bound written" in capsys.readouterr().out
        with open(os.path.join(out, "manifest.txt")) as fh:
            lines = fh.read().splitlines()
        # HM mode's window is the square |z|, |r| <= a_eps
        assert "a_eps=%.17g" % cutoff_hm(1e-4, 0.5) in lines
        assert not any(ln.startswith("b_eps=") for ln in lines)


class TestSincCommand:
    def test_an_hm_run_warns_of_its_regime_once(self, tmp_path, capsys):
        # eps = 1e-3 lies above e^(-e^2); band_halfwidth and plan read the
        # window RegParams computed, so neither repeats the warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["sinc", "--problem", "p2", "--m", "0.5",
                       "--epsilon", "1e-3", "--N", "3",
                       "--data-grid", _CI_DATA_GRID,
                       "--out", str(tmp_path / "sinc")])
        assert rc == 0
        assert sum("above e^(-e^2)" in str(w.message) for w in caught) == 1

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
        # perfbench's sinc-n50 check reads the deviation with this regex:
        # its group is the line's last field, a finite number
        m = re.search(r"relative l2 deviation .*: (\S+)", text)
        assert m and m.group(0).split()[-1] == m.group(1)
        assert math.isfinite(float(m.group(1)))
        for name in ("sinc.txt", "sinc_eval.csv"):
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes(), name
        # sinc.txt reads back with the coefficient count the run printed
        exp = read_expansion(outs[0] / "sinc.txt")
        count = re.search(r"(\d+) coefficients \((\w+),", text)
        assert (exp.values.size, exp.kind.value) == \
            (int(count.group(1)), count.group(2))

    def test_config_keys_run_as_the_flags_do(self, tmp_path, capsys):
        # sinc_n and sinc_kind stand for --N and --index-set
        grid = "129,500,-10,0.15625,0.0060544365719673,0.02"
        cfg = tmp_path / "sinc.cfg"
        cfg.write_text("problem=p2\nepsilon=0.02\nsinc_n=3\n"
                       "sinc_kind=triangular\ndata_grid=%s\n" % grid)
        outs = [tmp_path / "config", tmp_path / "flags"]
        assert main(["sinc", "--config", str(cfg), "--out", str(outs[0])]) == 0
        assert main(["sinc", "--problem", "p2", "--epsilon", "0.02",
                     "--N", "3", "--index-set", "triangular",
                     "--data-grid", grid, "--out", str(outs[1])]) == 0
        assert capsys.readouterr().out.count(
            "31 coefficients (triangular, N=3)") == 2
        for name in ("sinc.txt", "sinc_eval.csv"):
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes(), name

    def test_config_index_set_is_checked(self, tmp_path, capsys):
        # argparse's choices guard --index-set; sinc_kind= reaches the
        # command's own refusal
        cfg = tmp_path / "sinc.cfg"
        cfg.write_text("problem=p2\nepsilon=0.02\nsinc_n=3\n"
                       "sinc_kind=hexagonal\n")
        out = tmp_path / "out"
        assert main(["sinc", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "sidecast: index set must be 'square' or 'triangular'\n")
        assert not out.exists()

    def test_default_grids_given_or_not_write_the_same_bytes(self, tmp_path,
                                                            capsys):
        explicit = ["--data-grid", _grid_str(default_data_grid()),
                    "--grid", _grid_str(default_out_grid("P1"))]
        outs = [tmp_path / "implicit", tmp_path / "explicit"]
        for out, extra in zip(outs, ([], explicit)):
            assert main(["sinc", "--problem", "p1", "--epsilon", "0.02",
                         "--N", "20", "--out", str(out)] + extra) == 0
        for name in ("sinc.txt", "sinc_eval.csv"):
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes(), name
        capsys.readouterr()


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
        assert main(["reconstruct", "--problem", "p1", "--m", "0.5",
                     "--epsilon", "1e-4",
                     "--data-grid", _DATA_GRID, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "measured_error=" in text
        assert ("no HM bound written: it needs C1, the Sobolev seminorm of "
                "the exact solution, which is not supplied") in text
        with open(out / "manifest.txt") as fh:
            assert not any(ln.startswith("bound_") for ln in fh)
        # the HM manifest replays its own run byte for byte
        again = tmp_path / "again"
        assert main(["reconstruct", "--config", str(out / "manifest.txt"),
                     "--out", str(again)]) == 0
        capsys.readouterr()
        for name in ("v_eps.grd", "v_eps.csv", "manifest.txt"):
            assert (out / name).read_bytes() == (again / name).read_bytes()

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


@pytest.mark.parametrize("params", [
    RegParams(0.02), RegParams(0.02, gamma=1.5), RegParams(1e-4, m=0.5)],
    ids=["l2-default", "l2-gamma", "hm"])
def test_a_library_run_manifest_replays(params, tmp_path, capsys):
    # the manifest write_run records for any RegParams is a config that
    # reconstruct --config runs to the same bytes
    rec = harness.run_experiment("P2", params, _parse_grid(_CI_DATA_GRID),
                                 noise_seed=3)
    first, again = tmp_path / "first", tmp_path / "again"
    harness.write_run(str(first), rec, ["problem=P2"], 3)
    assert main(["reconstruct", "--config", str(first / "manifest.txt"),
                 "--out", str(again)]) == 0
    capsys.readouterr()
    for name in ("v_eps.grd", "v_eps.csv", "manifest.txt"):
        assert (first / name).read_bytes() == (again / name).read_bytes()


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
    # the child imports the package this suite imported, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(sidecast.__file__)))
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


# verify --quick at seeded points, and the full default panel
_VERIFY_RUNS = pytest.mark.parametrize("argv", [
    ["verify", "--quick", "--points", "0,0;1.3,0;-0.6,0;0,1.1;0,-1.7"],
    ["verify"],
], ids=["quick-points", "full"])


class TestVerifyCommand:
    def test_quick_panel_passes(self, capsys):
        rc = main(["verify", "--quick"])
        text = capsys.readouterr().out
        assert rc == 0
        assert "overall: PASS" in text
        assert "identity residual P1" in text
        assert "identity residual P2" in text

    @_VERIFY_RUNS
    def test_reruns_print_the_same_bytes(self, argv, capsys):
        texts = []
        for _ in range(2):
            assert main(argv) == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        # P2's identity defect (f = 0, v = -g) is answered as exactly 0
        assert "identity residual P2: 0.000e+00" in texts[0].splitlines()

    @_VERIFY_RUNS
    def test_corrupted_symbol_goes_red(self, argv, capsys):
        rc = main(argv + ["--break-shat"])
        text = capsys.readouterr().out
        assert rc == 1
        assert "overall: FAIL" in text
        # only the symbol check fails; the rest of the panel stays green
        fails = [ln for ln in text.splitlines() if "  FAIL  " in ln]
        assert len(fails) == 1, fails
        assert fails[0].startswith("symbol closed form vs quadrature  FAIL  ")

    def test_corrupted_symbol_goes_red_on_the_box_quadrature(self, capsys):
        # off the origin the numeric side is the (x, t) box sum, not the
        # substituted mass, so this shows the box quadrature can go red
        rc = main(["verify", "--quick", "--break-shat",
                   "--points", "1,0;0,1"])
        text = capsys.readouterr().out
        assert rc == 1
        assert "symbol closed form vs quadrature  FAIL" in text


def test_readme_parameters_name_every_flag():
    # README's "Parameters" section is the flag reference: every option
    # of every subcommand appears there as the start of a code span
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Parameters\n", 1)[1].split("\n## ", 1)[0]
    subparsers = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    missing = sorted(
        "%s %s" % (name, opt)
        for name, parser in subparsers.choices.items()
        for action in parser._actions for opt in action.option_strings
        if opt.startswith("--") and opt != "--help"
        and not re.search(r"`%s(?![\w-])" % re.escape(opt), section))
    assert not missing, missing


# a module attribute in a code span, with or without the package prefix;
# an output file name such as sinc.txt is no attribute
_README_ATTR = re.compile(
    r"(?<![\w.])(?:sidecast\.)?(fields|kernels|transform|regularizer|sinc|"
    r"harness|cli)\.([A-Za-z_]\w*)")
_FILE_SUFFIXES = {"txt", "csv", "grd"}


def _readme_name_faults(text):
    """The names text's code spans must not hold: a module attribute that
    does not exist, and any name with a leading underscore."""
    faults = []
    for span in re.findall(r"`([^`]+)`", text):
        faults += ["%s.%s" % (mod, name)
                   for mod, name in _README_ATTR.findall(span)
                   if name not in _FILE_SUFFIXES and not hasattr(
                       importlib.import_module("sidecast." + mod), name)]
        faults += re.findall(r"\b_+[A-Za-z]\w*", span)
    return faults


def test_readme_names_resolve():
    # README names no symbol the code has lost, such as the deleted
    # regularizer.region_for, and no private helper, such as
    # harness._symbol_rows
    assert _readme_name_faults(
        "`regularizer.region_for`, `harness._symbol_rows`, `sinc.txt`, "
        "`sidecast.sinc.read_expansion(path)`") == [
            "regularizer.region_for", "_symbol_rows"]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert _readme_name_faults(readme) == []


def _readme_commands():
    """Each `sidecast ...` line of README's indented code blocks, its `\\`
    continuations joined, split as a shell would, without the program
    name and without trailing comments."""
    lines = iter((Path(__file__).resolve().parents[1] / "README.md")
                 .read_text().splitlines())
    commands = []
    for line in lines:
        if line.startswith("    sidecast "):
            while line.endswith("\\"):
                line = line[:-1] + next(lines)
            commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # every example runs as written from tmp_path, so each --out, and each
    # default one, lands there; the file-mode example's f.grd and g.grd
    # are written first, on a 129 x 500 data grid that holds its window
    monkeypatch.chdir(tmp_path)
    f, g = noisy_histories(test_problem("P2"),
                           default_data_grid(nx=129, nt=500), 0.01, 0)
    write_field(f, "f.grd")
    write_field(g, "g.grd")
    commands = _readme_commands()
    subparsers = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in commands} == set(subparsers.choices)
    for argv in commands:
        assert main(argv) == 0, argv
    capsys.readouterr()
