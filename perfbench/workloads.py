"""The benchmark's workloads: what one op runs, and the check its output
must pass before the op counts as completed.

Every op calls ``sidecast.cli.main(argv)`` in-process and gets only
generated inputs: noise seeds, symbol probe points for verify-quick and, for
grd-files, GRD files. Op i of a run draws them from seed
``seed * 100000 + i``, so consecutive ops never repeat an input. Op 0 is
the untimed warm-up and the op the determinism check reruns.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from sidecast import cli, fields, harness, kernels, sinc


@dataclass
class Outcome:
    """Verdict of one op's output check, with the quality figure it read."""

    ok: bool
    detail: str = ""
    error_l2: Optional[float] = None
    sinc_dev: Optional[float] = None


def run_cli(argv):
    """(exit code, captured stdout) of one in-process CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main([str(a) for a in argv])
    return rc, buf.getvalue()


def grid_arg(g) -> str:
    return "%d,%d,%.17g,%.17g,%.17g,%.17g" % (g.nx, g.nt, g.x0, g.dx,
                                              g.t0, g.dt)


def read_manifest(path) -> dict:
    with open(path) as fh:
        return dict(line.rstrip("\n").partition("=")[::2] for line in fh
                    if "=" in line)


def read_grd(path):
    """(x nodes, t nodes, values[x, t]) of a GRD file, parsed with numpy
    alone so the check shares no code with the reader under test."""
    with open(path) as fh:
        head = fh.readline().split()
        rows = np.loadtxt(fh, ndmin=2)
    nx, nt = int(head[0]), int(head[1])
    x0, dx, t0, dt = (float(v) for v in head[2:])
    if rows.shape != (nt, nx):
        raise ValueError("%s: %r values, header says %d x %d"
                         % (path, rows.shape, nt, nx))
    return x0 + dx * np.arange(nx), t0 + dt * np.arange(nt), rows.T


class Workload:
    """One named op sequence. The timed phase runs whole cycles of
    ``cycle`` ops, so every op kind of a cycle is timed equally often."""

    name = ""
    cycle = 1
    # files of an op's output directory the determinism check compares,
    # together with the op's stdout
    outputs = ()

    def __init__(self, seed: int):
        self.seed = seed

    def noise_seed(self, i: int) -> int:
        return self.seed * 100000 + i

    def run(self, i: int, out: str):
        """Run op i, writing into directory out; returns (rc, stdout)."""
        raise NotImplementedError

    def check(self, i: int, out: str, rc: int, stdout: str) -> Outcome:
        raise NotImplementedError


class P1Reconstruct(Workload):
    name = "p1-reconstruct"
    epsilons = ("0.04", "0.02", "0.01", "0.005")
    cycle = len(epsilons)
    outputs = ("v_eps.grd", "v_eps.csv", "manifest.txt")
    geometry = ()   # extra grid flags; the benchmark uses the CLI defaults

    def run(self, i, out):
        return run_cli(["reconstruct", "--problem", "p1",
                        "--epsilon", self.epsilons[i % self.cycle],
                        "--gamma", "1", "--seed", self.noise_seed(i),
                        "--out", out, *self.geometry])

    def check(self, i, out, rc, stdout):
        if rc != 0:
            return Outcome(False, "exit code %r" % rc)
        man = read_manifest(os.path.join(out, "manifest.txt"))
        err, bound = float(man["measured_error"]), float(man["bound_l2"])
        ok = math.isfinite(err) and err <= bound
        return Outcome(ok, "measured_error %.6g, bound_l2 %.6g"
                       % (err, bound), error_l2=err)


class SincN50(Workload):
    name = "sinc-n50"
    # op 0, the warm-up, and every even op use the smaller triangular set
    kinds = ("triangular", "square")
    cycle = len(kinds)
    outputs = ("sinc.txt", "sinc_eval.csv")
    n = 50
    geometry = ()
    eval_nodes = 129 * 129   # the P1 default output grid
    max_dev = 5e-2   # criterion-7 tolerance on the square set
    _DEV = re.compile(r"relative l2 deviation .*: (\S+)")

    def run(self, i, out):
        return run_cli(["sinc", "--problem", "p1", "--epsilon", "0.02",
                        "--N", self.n, "--index-set", self.kinds[i % 2],
                        "--seed", self.noise_seed(i), "--out", out,
                        *self.geometry])

    def check(self, i, out, rc, stdout):
        if rc != 0:
            return Outcome(False, "exit code %r" % rc)
        kind = self.kinds[i % 2]
        exp = sinc.read_expansion(os.path.join(out, "sinc.txt"))
        n = self.n
        rows = (2 * n + 1) ** 2 if kind == "square" else 2 * n * n + 4 * n + 1
        if exp.values.size != rows or exp.kind.value != kind:
            return Outcome(False, "sinc.txt has %d %s rows, want %d %s"
                           % (exp.values.size, exp.kind.value, rows, kind))
        with open(os.path.join(out, "sinc_eval.csv")) as fh:
            evals = sum(1 for _ in fh) - 1
        if evals != self.eval_nodes:
            return Outcome(False, "sinc_eval.csv has %d rows, want %d"
                           % (evals, self.eval_nodes))
        m = self._DEV.search(stdout)
        dev = float(m.group(1)) if m else math.nan
        if kind != "square":
            return Outcome(math.isfinite(dev), "triangular deviation %.6g"
                           % dev)
        ok = math.isfinite(dev) and dev <= self.max_dev
        return Outcome(ok, "square deviation %.6g (tol %g)"
                       % (dev, self.max_dev), sinc_dev=dev)


class GrdFiles(Workload):
    name = "grd-files"
    outputs = ("f.grd", "g.grd", "v_eps.grd", "v_eps.csv", "manifest.txt")
    epsilon = 0.02
    max_rel = 0.2    # criterion-6 tolerance on |v_eps + g0| / |g0|
    data_grid = None  # None: the CLI's default data grid
    _G_SEED = 50021   # g's noise stream is offset from f's

    def run(self, i, out):
        dg = self.data_grid or harness.default_data_grid()
        prob = kernels.test_problem("P2")
        seed = self.noise_seed(i)
        fp, gp = os.path.join(out, "f.grd"), os.path.join(out, "g.grd")
        fields.write_field(harness.perturb(fields.sample(prob.f0, dg),
                                           self.epsilon, seed), fp)
        fields.write_field(harness.perturb(fields.sample(prob.g0, dg),
                                           self.epsilon,
                                           seed + self._G_SEED), gp)
        return run_cli(["reconstruct", "--f", fp, "--g", gp,
                        "--grid", grid_arg(harness.default_out_grid("P2")),
                        "--epsilon", self.epsilon,
                        "--out", out])

    def check(self, i, out, rc, stdout):
        if rc != 0:
            return Outcome(False, "exit code %r" % rc)
        xs, ts, v = read_grd(os.path.join(out, "v_eps.grd"))
        # P2's exact answer is -g0, g0 = exp(-(x^2 + 4)/(4t)) / t
        X, T = np.meshgrid(xs, ts, indexing="ij")
        g0 = np.exp(-(X * X + 4.0) / (4.0 * T)) / T
        cell = (xs[1] - xs[0]) * (ts[1] - ts[0])
        dist = math.sqrt(cell * float(np.sum((v + g0) ** 2)))
        rel = dist / math.sqrt(cell * float(np.sum(g0 ** 2)))
        ok = math.isfinite(rel) and rel <= self.max_rel
        return Outcome(ok, "relative distance to -g0 %.6g (tol %g)"
                       % (rel, self.max_rel), error_l2=dist)


class VerifyQuick(Workload):
    name = "verify-quick"
    argv = ("verify", "--quick")

    def points(self, i) -> str:
        """Symbol probe points of op i: the origin and one point on each
        half-axis, as in ``--quick``, at distances 0.5-2 drawn from the
        op's seed. The quick quadrature box meets the 1e-3 tolerance there
        by a factor of three or more; nearer the origin on the r axis its
        error grows. The other checks of ``verify --quick`` (kernel norms,
        kappa calibration, identity residual) take no input and repeat the
        same work on every op."""
        a, b, c, d = np.random.default_rng(self.noise_seed(i)).uniform(
            0.5, 2.0, 4)
        return "0,0;%.4f,0;%.4f,0;0,%.4f;0,%.4f" % (a, -b, c, -d)

    def run(self, i, out):
        return run_cli([*self.argv, "--points", self.points(i)])

    def check(self, i, out, rc, stdout):
        verdict = next((line for line in stdout.splitlines()
                        if line.startswith("overall:")), "no overall line")
        return Outcome(rc == 0 and verdict == "overall: PASS",
                       "exit code %r, %s" % (rc, verdict))


WORKLOADS = {w.name: w for w in (P1Reconstruct, SincN50, GrdFiles,
                                 VerifyQuick)}
