"""Experiment orchestration: exact test problems with synthetic noise,
end-to-end reconstruction runs, convergence tables, and the independent
numerical checks (symbol quadrature, identity residual, transform-factor
calibration) that pin the analytic ingredients; only the checks use the
convolution identity, so they share no code with the reconstruction.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fields import (GridSpec, RealField, _value_text, l2_distance, sample,
                     write_csv, write_field)
from .kernels import (R_SPEC, S_SPEC, SINGULAR_OFFSET, kernel_eval,
                      kernel_l1_norm, s_hat, test_problem)
from .regularizer import RegMode, RegParams, reconstruct, region_for
from .sinc import eval_expansion
from .transform import (_lattice_offsets, convolve2_causal, dft2_forward,
                        idft2_windowed_at)

__all__ = [
    "CONVOLUTION_FACTOR",
    "ExperimentConfig",
    "ExperimentResult",
    "ConvergenceRow",
    "default_data_grid",
    "default_out_grid",
    "perturb",
    "noisy_histories",
    "assemble_rhs",
    "identity_residual",
    "refined_window_grid",
    "kappa_calibration",
    "sinc_deviation",
    "run_experiment",
    "convergence_table",
    "write_convergence_csv",
]

_FMT = "%.17g"

# dft2(K*w) = CONVOLUTION_FACTOR * K_hat * w_hat under the symmetric 1/(2 pi)
# transform pair. kappa_calibration pins this against the alternative
# reading (factor 1) by residual comparison.
CONVOLUTION_FACTOR = 2.0 * math.pi

# sub-seed separation so f and g never share a noise stream
_G_SEED_OFFSET = 1000003


def default_data_grid(nx: int = 513, nt: int = 2000,
                      dt: float = 0.02) -> GridSpec:
    """Measurement grid for the synthetic problems, |x| <= 10.

    t nodes sit at (j + theta)*dt with theta the zeta-zero offset, which
    makes the rectangle rule in t behave like an endpoint-corrected rule
    for integrands with a sqrt singularity at 0.
    """
    return GridSpec(x0=-10.0, dx=20.0 / (nx - 1), nx=nx,
                    t0=SINGULAR_OFFSET * dt, dt=dt, nt=nt)


def default_out_grid(problem: str) -> GridSpec:
    """Reconstruction window per problem: away from the t=0 data edge, and
    inside the region where the band-limited surrogate is accurate."""
    key = str(problem).upper()
    if key == "P1":
        return GridSpec(x0=0.25, dx=(1.3 - 0.25) / 128, nx=129,
                        t0=0.1, dt=(4.0 - 0.1) / 128, nt=129)
    if key == "P2":
        return GridSpec(x0=0.0, dx=1.0 / 128, nx=129,
                        t0=0.1, dt=(4.0 - 0.1) / 128, nt=129)
    raise ValueError("no default output grid for problem %r" % (problem,))


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str
    params: RegParams
    data_grid: GridSpec
    out_grid: GridSpec
    noise_seed: int = 0

    @classmethod
    def default(cls, problem: str, params: RegParams,
                noise_seed: int = 0) -> "ExperimentConfig":
        return cls(problem=problem, params=params,
                   data_grid=default_data_grid(),
                   out_grid=default_out_grid(problem), noise_seed=noise_seed)


def perturb(field: RealField, epsilon: float, seed: int) -> RealField:
    """Add white noise scaled to L2 size exactly epsilon.

    Philox keyed by the seed, so runs are reproducible across platforms.
    epsilon = 0 returns the field unchanged. A zero draw (possible only in
    principle) retries with seed+1, up to 8 times.
    """
    if epsilon < 0:
        raise ValueError("noise level must be nonnegative, got %r" % (epsilon,))
    if epsilon == 0.0:
        return field
    for attempt in range(8):
        rng = np.random.Generator(np.random.Philox(seed + attempt))
        draw = rng.standard_normal(field.values.shape)
        nrm = math.sqrt(field.grid.cell_area * float(np.sum(draw * draw)))
        if nrm > 0.0:
            # in place, one array for the result; field.values + draw * s
            # to the bit, since IEEE addition commutes
            draw *= epsilon / nrm
            draw += field.values
            return RealField(field.grid, draw)
    raise RuntimeError("could not draw a nonzero noise field in 8 attempts")


def noisy_histories(prob, data_grid: GridSpec, epsilon: float, seed: int):
    """(f, g): the problem's two histories sampled on data_grid, each with
    noise of L2 size epsilon; g's stream is seeded apart from f's."""
    f = perturb(sample(prob.f0, data_grid), epsilon, seed)
    g = perturb(sample(prob.g0, data_grid), epsilon, seed + _G_SEED_OFFSET)
    return f, g


def assemble_rhs(f: RealField, g: RealField,
                 out_grid: Optional[GridSpec] = None) -> RealField:
    """Right-hand side F = 2(R*f) - (S*g) + 4*pi*f of the convolution
    identity S*v = F, on out_grid.

    f and g share a grid; out_grid defaults to it and must be a sub-lattice
    of it (the pointwise f term is read off by slicing, not interpolation).
    """
    if f.grid != g.grid:
        raise ValueError("f and g must share a grid")
    og = out_grid if out_grid is not None else f.grid
    ox, ot = _lattice_offsets(og, f.grid)
    if ox < 0 or ot < 0 or ox + og.nx > f.grid.nx or ot + og.nt > f.grid.nt:
        raise ValueError("output grid must lie inside the data grid")
    rf = convolve2_causal(R_SPEC, f, og).values
    sg = convolve2_causal(S_SPEC, g, og).values
    fw = f.values[ox:ox + og.nx, ot:ot + og.nt]
    return RealField(og, 2.0 * rf - sg + (4.0 * math.pi) * fw)


def identity_residual(v: RealField, f: RealField, g: RealField,
                      out_grid: Optional[GridSpec] = None) -> float:
    """Relative L2 defect of S*v = 2(R*f) - (S*g) + 4*pi*f on out_grid.

    v, f, g share a grid; out_grid defaults to it and must be a sub-lattice
    of it (see assemble_rhs). Only a problem with f != 0 tests the kernels:
    P2 has f = 0 and v = -g, so both sides are the same S*g up to sign and
    its residual is 0 by linearity for any kernel; P1's row is the one
    that can fail.
    """
    if not (v.grid == f.grid == g.grid):
        raise ValueError("v, f, g must share a grid")
    rhs = assemble_rhs(f, g, out_grid)
    og = rhs.grid
    lhs = convolve2_causal(S_SPEC, v, og).values
    num = math.sqrt(og.cell_area * float(np.sum((lhs - rhs.values) ** 2)))
    den = math.sqrt(og.cell_area * float(np.sum(rhs.values ** 2)))
    return num / max(den, np.finfo(float).tiny)


def refined_window_grid(window_grid: GridSpec):
    """Quadrature lattice for identity checks over a target window.

    Returns (in_grid, out_grid): in_grid refines the window's t step by the
    factor K in [4, 48] whose lattice phase frac(t0/dt) lands nearest the
    zeta-zero offset (the same endpoint trick as the mass quadrature),
    starts at the first positive lattice node, and pads x by 10 on each
    side so the convolutions see the data's spatial tails. out_grid is the
    window on that refined lattice.
    """
    g = window_grid
    if g.t0 <= 0:
        raise ValueError("window must start at positive t")
    best = None
    for k in range(4, 49):
        dtf = g.dt / k
        theta = (g.t0 / dtf) % 1.0
        score = abs(theta - SINGULAR_OFFSET)
        if best is None or score < best[0]:
            best = (score, k, dtf, theta)
    _, k, dtf, theta = best
    t_first = theta * dtf
    t_end = g.t0 + (g.nt - 1) * g.dt
    nt_in = int(round((t_end - t_first) / dtf)) + 1
    npad = int(math.ceil(10.0 / g.dx))
    in_grid = GridSpec(x0=g.x0 - npad * g.dx, dx=g.dx, nx=g.nx + 2 * npad,
                       t0=t_first, dt=dtf, nt=nt_in)
    out_grid = GridSpec(x0=g.x0, dx=g.dx, nx=g.nx,
                        t0=g.t0, dt=dtf, nt=(g.nt - 1) * k + 1)
    return in_grid, out_grid


# (z, r) probe set for the symbol check: axes and mixed points within the
# band the reconstruction actually uses
DEFAULT_SYMBOL_POINTS = tuple((float(z), float(r))
                              for z in (-2, -1, 0, 1, 2)
                              for r in (-2, -1, 0, 1, 2))


@dataclass(frozen=True)
class SymbolRow:
    z: float
    r: float
    closed: complex
    numeric: complex
    rel_err: float
    shorthand: float       # simplified modulus 2 e^{-sqrt(z^4+r^2)}
    shorthand_dev: float   # its relative deviation from |closed|


def _symbol_rows(points=None, x_half: float = 40.0, dx: float = 0.05,
                 t_max: float = 400.0, dt: float = 0.005, closed_form=None):
    """Brute-force transform of the c=1 kernel at the probe points.

    One pass over the (x, t) box |x| <= x_half, 0 < t < t_max. The kernel
    is even in x and the box is symmetric, so the x sum folds onto the
    nodes x = k dx, 0 <= k <= x_half/dx:
    sum_x e^{-izx} T(x) = T(0) + 2 sum_{x>0} cos(zx) T(x). That needs
    x_half to be a whole number of steps dx, so that x = 0 is a node and
    every other node has its mirror; any other box is a ValueError.

    Per block of t nodes, one real matrix product kv @ [cos(r t) | sin(r t)]
    takes the t sums for every unique probe r at once; the box sum over t
    is then acc_cos - i acc_sin, and the folded x sum weighs it with
    w_x cos(z x). The origin is the exception: the t tail of the box
    integral decays only like 1/sqrt(T) there, so no reachable T suffices;
    it is instead kernel_l1_norm/(2 pi), the substituted-variables mass
    quadrature, which converges fast.

    closed_form replaces the symbol being checked; the verify command uses
    it to prove the check can fail.
    """
    if points is None:
        points = DEFAULT_SYMBOL_POINTS
    closed_fn = closed_form if closed_form is not None else s_hat
    pts = [(float(z), float(r)) for z, r in points]
    n_half = int(round(x_half / dx))
    if n_half < 0 or abs(x_half - n_half * dx) > 1e-9 * dx:
        raise ValueError(
            "symbol box half-width x_half = %g is not a whole number of "
            "steps dx = %g, so the box is not symmetric about x = 0"
            % (x_half, dx))
    xs = dx * np.arange(n_half + 1)
    # x = 0 once, every x > 0 for itself and its mirror -x
    wx = np.full(xs.size, 2.0)
    wx[0] = 1.0
    nt = int(round(t_max / dt))
    rs = np.array(sorted({r for z, r in pts if not (z == 0.0 and r == 0.0)}))
    acc = np.zeros((xs.size, 2 * rs.size))
    # 256 t nodes keep an 801-row kernel block (1.6 MB) in cache
    chunk = 256
    # a panel of the origin alone needs no box sum
    for j0 in range(0, nt if rs.size else 0, chunk):
        tc = (np.arange(j0, min(j0 + chunk, nt)) + SINGULAR_OFFSET) * dt
        kv = kernel_eval(S_SPEC, xs[:, None], tc[None, :])
        rt = tc[:, None] * rs[None, :]
        acc += kv @ np.hstack([np.cos(rt), np.sin(rt)])
    t_sums = dict(zip(rs.tolist(), (acc[:, :rs.size]
                                    - 1j * acc[:, rs.size:]).T))
    scale = dx * dt / (2.0 * math.pi)

    rows = []
    for z, r in pts:
        closed = complex(closed_fn(z, r))
        if z == 0.0 and r == 0.0:
            numeric = complex(kernel_l1_norm(S_SPEC) / (2.0 * math.pi))
        else:
            numeric = complex(wx * np.cos(z * xs) @ t_sums[r] * scale)
        mag = abs(closed)
        if mag == 0.0:
            warnings.warn("closed form vanished at (z=%g, r=%g); point "
                          "skipped in the relative-error max" % (z, r))
            rel = 0.0
        else:
            rel = abs(numeric - closed) / mag
        short = 2.0 * math.exp(-math.hypot(z * z, r))
        sdev = abs(short - mag) / mag if mag else 0.0
        rows.append(SymbolRow(z=z, r=r, closed=closed, numeric=numeric,
                              rel_err=rel, shorthand=short,
                              shorthand_dev=sdev))
    return rows


def kappa_calibration(data_grid: Optional[GridSpec] = None):
    """Residuals of kappa * S_hat * v0_hat = F_hat over the L2 cutoff
    region at epsilon = 0.01, gamma = 1, for kappa = 2*pi (the
    symmetric-transform convolution factor) and kappa = 1 (the competing
    reading). Returns (res_2pi, res_1); the first should sit at quadrature
    level, the second should be order one. The spectra are taken by the
    matrix DFT on a fixed 205-node grid over the window, independently of
    the reconstruction's FFT lattice.
    """
    prob = test_problem("P1")
    dg = data_grid if data_grid is not None else default_data_grid()
    window = region_for(RegParams(epsilon=0.01, gamma=1.0))
    sg = GridSpec.centered(window.zmax, 205, window.rmax, 205)
    f = sample(prob.f0, dg)
    g = sample(prob.g0, dg)
    f_hat = dft2_forward(assemble_rhs(f, g), sg).values
    v0_hat = dft2_forward(sample(prob.v_exact, dg), sg).values
    sh = s_hat(sg.x_nodes()[:, None], sg.t_nodes()[None, :])
    den = math.sqrt(float(np.sum(np.abs(f_hat) ** 2)))
    out = []
    for kappa in (CONVOLUTION_FACTOR, 1.0):
        diff = kappa * sh * v0_hat - f_hat
        out.append(math.sqrt(float(np.sum(np.abs(diff) ** 2))) / den)
    return out[0], out[1]


def sinc_deviation(exp, v_hat, box: GridSpec) -> float:
    """Relative l2 deviation of the series from the direct inverse of v_hat
    over 200 points drawn uniformly from box's extent, seeded 74257 (box
    is a bounding box, not a lattice; the draw avoids lattice nodes almost
    surely)."""
    rng = np.random.Generator(np.random.Philox(74257))
    xr = box.x0 + (box.nx - 1) * box.dx
    tr = box.t0 + (box.nt - 1) * box.dt
    xs = rng.uniform(box.x0, xr, size=200)
    ts = rng.uniform(box.t0, tr, size=200)
    direct = idft2_windowed_at(v_hat, xs, ts)
    series = eval_expansion(exp, xs, ts)
    den = max(float(np.linalg.norm(direct)), np.finfo(float).tiny)
    return float(np.linalg.norm(series - direct)) / den


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    v_eps: RealField
    report: object
    measured_error: float


def _grid_str(g: GridSpec) -> str:
    return "%d,%d,%s,%s,%s,%s" % (g.nx, g.nt, _FMT % g.x0, _FMT % g.dx,
                                  _FMT % g.t0, _FMT % g.dt)


def _manifest_lines(source, params: RegParams, noise_seed, data_grid,
                    out_grid, rec, measured=None) -> list:
    """Manifest of one run. source holds the lines naming the data (the
    problem, or the two GRD files); noise_seed is None for file data."""
    lines = list(source) + [
        "mode=%s" % params.mode.value,
        "epsilon=%s" % (_FMT % params.epsilon),
    ]
    if params.gamma is not None:
        lines.append("gamma=%s" % (_FMT % params.gamma))
    if params.m is not None:
        lines.append("m=%s" % (_FMT % params.m))
    if noise_seed is not None:
        lines.append("noise_seed=%d" % noise_seed)
    lines.append("data_grid=%s" % _grid_str(data_grid))
    lines.append("out_grid=%s" % _grid_str(out_grid))
    report = rec.report
    lines.append("%s=%s" % ("b_eps" if params.mode is RegMode.L2 else "a_eps",
                            _FMT % rec.window.zmax))
    lines.append("C=%s" % (_FMT % report.C))
    if report.eta_hat is not None:
        lines.append("eta_hat=%s" % (_FMT % report.eta_hat))
    if report.bound_l2 is not None:
        lines.append("bound_l2=%s" % (_FMT % report.bound_l2))
    if report.bound_hm is not None:
        lines.append("bound_hm=%s" % (_FMT % report.bound_hm))
    if measured is not None:
        lines.append("measured_error=%s" % (_FMT % measured))
    return lines


def _write_run(out_dir, v_eps: RealField, manifest_lines) -> None:
    """v_eps.grd, v_eps.csv and manifest.txt into out_dir. v_eps's values
    are formatted once, for both files."""
    os.makedirs(out_dir, exist_ok=True)
    text = _value_text(v_eps.values)
    write_field(v_eps, os.path.join(out_dir, "v_eps.grd"), text=text)
    write_csv(v_eps, os.path.join(out_dir, "v_eps.csv"), text=text)
    with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
        fh.write("\n".join(manifest_lines) + "\n")


def run_experiment(config: ExperimentConfig,
                   out_dir=None) -> ExperimentResult:
    """One full run: sample exact data, add noise, reconstruct, measure
    against the exact solution, and optionally write v_eps.grd / v_eps.csv
    / manifest.txt into out_dir. No wall-clock data goes into the files, so
    outputs are byte-reproducible for a fixed config.
    """
    prob = test_problem(config.problem)
    params = config.params
    f, g = noisy_histories(prob, config.data_grid, params.epsilon,
                           config.noise_seed)
    rec = reconstruct(f, g, params, config.out_grid, v_exact=prob.v_exact)
    measured = l2_distance(rec.v_eps, sample(prob.v_exact, config.out_grid))
    if out_dir is not None:
        _write_run(out_dir, rec.v_eps, _manifest_lines(
            ["problem=%s" % config.problem.upper()], params,
            config.noise_seed, config.data_grid, config.out_grid, rec,
            measured))
    return ExperimentResult(config=config, v_eps=rec.v_eps,
                            report=rec.report, measured_error=measured)


@dataclass(frozen=True)
class ConvergenceRow:
    epsilon: float
    measured_error: float
    bound: float
    eta_hat: float


def convergence_table(problem: str, gamma: float,
                      eps_list: Sequence[float], seed: int = 0,
                      data_grid: Optional[GridSpec] = None,
                      out_grid: Optional[GridSpec] = None):
    """Reconstruction error vs noise level, one row per epsilon.

    Rows are ordered by decreasing epsilon; the i-th row perturbs with
    seed+i so no two levels share a noise draw.
    """
    rows = []
    eps_sorted = sorted((float(e) for e in eps_list), reverse=True)
    dg = data_grid if data_grid is not None else default_data_grid()
    og = out_grid if out_grid is not None else default_out_grid(problem)
    for i, eps in enumerate(eps_sorted):
        params = RegParams(epsilon=eps, gamma=gamma, mode=RegMode.L2)
        cfg = ExperimentConfig(problem=problem, params=params, data_grid=dg,
                               out_grid=og, noise_seed=seed + i)
        res = run_experiment(cfg)
        rows.append(ConvergenceRow(epsilon=eps,
                                   measured_error=res.measured_error,
                                   bound=res.report.bound_l2,
                                   eta_hat=res.report.eta_hat))
    return rows


def write_convergence_csv(rows, path) -> None:
    with open(path, "w") as fh:
        fh.write("epsilon,measured_error,bound,eta_hat\n")
        for row in rows:
            fh.write("%s,%s,%s,%s\n" % (
                _FMT % row.epsilon, _FMT % row.measured_error,
                _FMT % row.bound, _FMT % row.eta_hat))
