"""Acceptance gate: one test per published property of the toolkit, each
at its stated tolerance and runtime budget, each printing a one-line
verdict straight to the terminal (the lines bypass capture so the table
reads off a plain pytest run).

These run the full-size geometries and take a couple of minutes in total;
the unit suites cover the same machinery on coarse grids.
"""

import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import sidecast
from sidecast.cli import main
from sidecast.fields import GridSpec, l2_norm, sample
from sidecast.harness import (SINC_PROBE_GRID, _G_SEED_OFFSET,
                              convergence_table, default_data_grid,
                              identity_residual, kappa_calibration,
                              kernel_l1_norm, perturb, refined_window_grid,
                              run_experiment, sinc_deviation)
from sidecast.kernels import KernelSpec, R_SPEC, S_SPEC, test_problem
from sidecast.regularizer import (RegParams, _c_constant, plan,
                                  reconstruct_spectrum)
from sidecast.sinc import (IndexSetKind, band_halfwidth, build_expansion,
                           eval_expansion, sinc_lattice)
from sidecast.transform import idft2_windowed_at

_COARSE_DATA = "257,500,-10,0.078125,0.05,0.08"


@pytest.fixture
def verdict(capsys):
    def _verdict(n, ok, detail):
        with capsys.disabled():
            print("criterion %d: %s  %s" % (n, "PASS" if ok else "FAIL",
                                            detail))
        assert ok, "criterion %d failed: %s" % (n, detail)
    return _verdict


def test_criterion_1_symbol_oracle(verdict, capsys):
    t0 = time.perf_counter()
    rc = main(["verify"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    m = re.search(r"symbol closed form vs quadrature\s+(PASS|FAIL)\s+"
                  r"max rel err ([0-9.eE+-]+)", out)
    assert m is not None, "verify output lost its symbol check line"
    max_rel = float(m.group(2))
    noted = "(z,r)=(2,0)" in out
    ok = (rc == 0 and m.group(1) == "PASS" and max_rel <= 1e-3
          and noted and elapsed <= 120.0)
    verdict(1, ok, "25-point panel max rel err %.3e (tol 1e-3), simplified-"
            "form note at (2,0) %s, %.1fs (budget 120s)"
            % (max_rel, "shown" if noted else "MISSING", elapsed))


def test_criterion_2_kernel_norms(verdict):
    rel_s = abs(kernel_l1_norm(S_SPEC) - 4 * math.pi) / (4 * math.pi)
    rel_r = abs(kernel_l1_norm(R_SPEC) - 2 * math.pi) / (2 * math.pi)
    rel_16 = abs(kernel_l1_norm(KernelSpec(16.0)) - math.pi) / math.pi
    c_const = _c_constant()
    c_exact = (4.0 + 8.0 * math.pi) ** 2
    ok = (max(rel_s, rel_r, rel_16) <= 1e-3
          and abs(c_const - c_exact) / c_exact <= 1e-4
          and abs(c_const - 848.71) <= 1e-2)
    verdict(2, ok, "L1 rel errs %.2e / %.2e / %.2e (tol 1e-3), "
            "C = %.5f vs (4+8*pi)^2 = %.5f" % (rel_s, rel_r, rel_16,
                                               c_const, c_exact))


def test_criterion_3_convolution_identity(verdict):
    t0 = time.perf_counter()
    window = GridSpec(x0=0.25, dx=(1.3 - 0.25) / 128, nx=129,
                      t0=0.1, dt=(4.0 - 0.1) / 128, nt=129)
    in_grid, out_grid = refined_window_grid(window)
    resid = {}
    for pid in ("P1", "P2"):
        prob = test_problem(pid)
        v = sample(prob.v_exact, in_grid)
        f = sample(prob.f0, in_grid)
        g = sample(prob.g0, in_grid)
        resid[pid] = identity_residual(v, f, g, out_grid)
        del v, f, g
    elapsed = time.perf_counter() - t0
    ok = max(resid.values()) <= 1e-2 and elapsed <= 300.0
    verdict(3, ok, "residuals P1 %.3e, P2 %.3e on the 129x129 window of "
            "[0.25,1.3]x[0.1,4] (tol 1e-2), %.1fs (budget 300s)"
            % (resid["P1"], resid["P2"], elapsed))


def test_criterion_4_transform_factor(verdict):
    res_2pi, res_one = kappa_calibration(default_data_grid())
    ratio = res_one / max(res_2pi, np.finfo(float).tiny)
    ok = ratio >= 10.0
    verdict(4, ok, "spectral residuals: kappa=2*pi %.3e, kappa=1 %.3e, "
            "ratio %.1f (need >= 10)" % (res_2pi, res_one, ratio))


def test_criterion_5_l2_mode_bound(verdict):
    t0 = time.perf_counter()
    rows = convergence_table("P1", 1.0, [0.04, 0.02, 0.01, 0.005], seed=0)
    elapsed = time.perf_counter() - t0
    bounded = all(r.measured_error <= r.bound_l2 for r in rows)
    monotone = all(rows[i + 1].measured_error
                   <= 1.1 * rows[i].measured_error
                   for i in range(len(rows) - 1))
    ok = bounded and monotone and elapsed <= 600.0
    pairs = ", ".join("%g: %.3f<=%.3f" % (r.params.epsilon, r.measured_error,
                                          r.bound_l2) for r in rows)
    verdict(5, ok, "%s; nonincreasing within 10%%: %s; %.1fs (budget 600s)"
            % (pairs, monotone, elapsed))


def test_criterion_6_p2_sign_identity(verdict):
    params = RegParams(epsilon=1.0 / 50.0, gamma=1.0)
    res = run_experiment("P2", params, noise_seed=0)
    exact = sample(test_problem("P2").v_exact, res.v_eps.grid)
    rel = res.measured_error / l2_norm(exact)
    ok = rel <= 0.2
    verdict(6, ok, "relative L2 distance to -g0 on [0,1]x[0.1,4]: %.4f "
            "(tol 0.2)" % rel)


def test_criterion_7_sinc_expansion(verdict):
    params = RegParams(epsilon=1.0 / 50.0, gamma=1.0)
    dg = default_data_grid()
    prob = test_problem("P1")
    f = perturb(sample(prob.f0, dg), params.epsilon, 0)
    g = perturb(sample(prob.g0, dg), params.epsilon, _G_SEED_OFFSET)
    v_hat = reconstruct_spectrum((f, g), plan(params, dg, dg), dg)
    a_eps = band_halfwidth(params)

    def ev(x, t):
        return idft2_windowed_at(v_hat, x, t)

    sq = build_expansion(ev, a_eps, 50, IndexSetKind.SQUARE)
    assert sq.d == pytest.approx(math.pi / a_eps, rel=1e-15)

    nodes = sinc_lattice(a_eps, 50)
    node_gap = float(np.max(np.abs(eval_expansion(
        sq, nodes.x_nodes()[:, None], nodes.t_nodes()[None, :]) - sq.coeffs)))

    # off-node probes stay above the data edge, where the window's own
    # truncation ringing would swamp the series-vs-inverse comparison
    box = GridSpec(x0=0.25, dx=(1.3 - 0.25) / 128, nx=129,
                   t0=0.5, dt=(4.0 - 0.5) / 128, nt=129)
    dev_sq = sinc_deviation(sq, v_hat, box)

    tri = build_expansion(ev, a_eps, 50, IndexSetKind.TRIANGULAR)
    # sinc_deviation's open grid of probes
    nx, nt = SINC_PROBE_GRID
    rng = np.random.Generator(np.random.Philox(74257))
    xs = rng.uniform(0.25, 1.3, size=(nx, 1))
    ts = rng.uniform(0.5, 4.0, size=(1, nt))
    e_sq = eval_expansion(sq, xs, ts)
    e_tri = eval_expansion(tri, xs, ts)
    tri_vs_sq = (float(np.linalg.norm(e_tri - e_sq))
                 / max(float(np.linalg.norm(e_sq)), np.finfo(float).tiny))

    ok = dev_sq <= 5e-2 and node_gap <= 1e-12
    verdict(7, ok, "square N=50: rel dev %.4f over %d off-node points "
            "(tol 5e-2), node-vs-coefficient max %.2e (tol 1e-12); "
            "triangular-vs-square %.4f (informational)"
            % (dev_sq, nx * nt, node_gap, tri_vs_sq))


def _child_env():
    # the child runs elsewhere, where a relative PYTHONPATH (such as "src")
    # no longer resolves; put the directory of the package this suite
    # imported first, installed or not, by absolute path
    pkg_dir = os.path.dirname(os.path.dirname(os.path.abspath(
        sidecast.__file__)))
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = pkg_dir + (os.pathsep + inherited if inherited
                                   else "")
    return env


def _cli(args, cwd):
    env = _child_env()
    proc = subprocess.run([sys.executable, "-m", "sidecast.cli"] + args,
                          cwd=str(cwd), env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, "PYTHONPATH=%s\n%s" % (env["PYTHONPATH"],
                                                         proc.stderr)
    return proc


def test_criterion_8_bit_identical_reruns(verdict, tmp_path):
    # the reruns below run the package under test, not some other copy
    child = subprocess.run(
        [sys.executable, "-c", "import sidecast; print(sidecast.__file__)"],
        cwd=str(tmp_path), env=_child_env(), capture_output=True, text=True,
        check=True)
    assert (os.path.realpath(child.stdout.strip())
            == os.path.realpath(sidecast.__file__))

    rec = ["reconstruct", "--problem", "p2", "--epsilon", "0.02",
           "--seed", "3", "--data-grid", _COARSE_DATA,
           "--grid", "33,33,0,0.03125,0.1,0.121875"]
    for d in ("a", "b"):
        _cli(rec + ["--out", d], tmp_path)
    same = {name: (tmp_path / "a" / name).read_bytes()
            == (tmp_path / "b" / name).read_bytes()
            for name in ("v_eps.grd", "v_eps.csv", "manifest.txt")}

    conv = ["convergence", "--problem", "p1", "--eps-list", "0.04,0.02",
            "--seed", "1", "--data-grid", _COARSE_DATA,
            "--grid", "17,17,0.25,0.065625,0.1,0.24375"]
    for d in ("ca", "cb"):
        _cli(conv + ["--out", d], tmp_path)
    conv_same = ((tmp_path / "ca" / "convergence.csv").read_bytes()
                 == (tmp_path / "cb" / "convergence.csv").read_bytes())
    ok = all(same.values()) and conv_same
    verdict(8, ok, "reconstruct reruns byte-identical: %s; convergence "
            "reruns byte-identical: %s" % (all(same.values()), conv_same))
