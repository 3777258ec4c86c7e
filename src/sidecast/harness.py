"""Experiment orchestration: exact test problems with synthetic noise,
end-to-end reconstruction runs and the one writer of a run's files,
convergence tables, and the check path:
the independent numerical checks (symbol quadrature, kernel mass, identity
residual via causal convolution, transform-factor calibration) with the
matrix DFT and convolution they sum by. The checks pin the analytic
ingredients and share no code with the reconstruction, so that they can
still catch it; a test in tests/test_harness.py states that rule.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fields import (ComplexField, GridSpec, RealField, _FMT, _finite_field,
                     _node_values, _value_text, sample, write_csv,
                     write_field)
from .kernels import (R_SPEC, S_SPEC, SINGULAR_OFFSET, KernelSpec,
                      kernel_eval, s_hat, test_problem)
from .regularizer import (Reconstruction, RegMode, RegParams, reconstruct,
                          region_for)
from .sinc import eval_expansion
from .transform import TWO_PI, idft2_windowed_at

__all__ = [
    "CONVOLUTION_FACTOR",
    "ConvergenceRow",
    "default_data_grid",
    "default_out_grid",
    "perturb",
    "noisy_histories",
    "kernel_l1_norm",
    "dft2_forward",
    "convolve2_causal",
    "assemble_rhs",
    "identity_residual",
    "refined_window_grid",
    "kappa_calibration",
    "sinc_deviation",
    "run_experiment",
    "write_run",
    "convergence_table",
    "write_convergence_csv",
]

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


def _noisy(clean, grid: GridSpec, epsilon: float, seed: int) -> RealField:
    """clean() plus white noise of L2 size exactly epsilon on grid, noise
    first: the Philox draw is scaled in place to its norm, so the norm's
    draw * draw temporary lives beside the draw alone, and only then is
    clean() called for the bare values of the trace and added into the
    draw. The sum is clean() + draw * (epsilon/norm) to the bit, since
    IEEE addition commutes, and it is the one array scanned for
    non-finite values.

    Philox keyed by the seed, so runs are reproducible across platforms.
    The callers return the clean trace for epsilon = 0. A zero draw
    (possible only in principle) retries with seed+1, up to 8 times.
    """
    if epsilon < 0:
        raise ValueError("noise level must be nonnegative, got %r" % (epsilon,))
    for attempt in range(8):
        rng = np.random.Generator(np.random.Philox(seed + attempt))
        draw = rng.standard_normal(grid.shape)
        nrm = math.sqrt(grid.cell_area * float(np.sum(draw * draw)))
        if nrm > 0.0:
            draw *= epsilon / nrm
            draw += clean()
            return _finite_field(grid, draw)
    raise RuntimeError("could not draw a nonzero noise field in 8 attempts")


def perturb(field: RealField, epsilon: float, seed: int) -> RealField:
    """Add white noise scaled to L2 size exactly epsilon; epsilon = 0
    returns the field itself. The noise is _noisy's, so
    noisy_histories draws the same bits. The caller holds the field, so
    the norm's temporary sets this call's peak."""
    if epsilon == 0.0:
        return field
    return _noisy(lambda: field.values, field.grid, epsilon, seed)


def noisy_histories(prob, data_grid: GridSpec, epsilon: float, seed: int):
    """Yield f, then g: the problem's two histories sampled on data_grid,
    each with noise of L2 size epsilon; g's stream is seeded apart from
    f's. Each is perturb(sample(...)) to the bit, drawn noise first, with
    the trace's bare values added into the draw (see _noisy), and the
    generator keeps no reference to what it yields, so a consumer that
    drops f before asking for g, as reconstruct_spectrum does, holds one
    history at a time."""
    for fn, s in ((prob.f0, seed), (prob.g0, seed + _G_SEED_OFFSET)):
        yield (sample(fn, data_grid) if epsilon == 0.0 else
               _noisy(lambda: _node_values(fn, data_grid), data_grid,
                      epsilon, s))


def kernel_l1_norm(spec: KernelSpec) -> float:
    """Quadrature L1 norm of k_c over the plane; the analytic value
    4*pi/sqrt(c) is what the checks compare it with, not a constant baked
    in here.

    The rectangle rule runs in substituted variables (x, t) -> (y, u) =
    (x/sqrt(t), 1/t), where the integrand becomes
    u^(-1/2) e^{-y^2/4} e^{-cu/4} on a finite-mass rectangle: 6000 u nodes
    and y-step 0.05 over |y| <= 12.

    A plain (x, t) box cannot do this: the t-tail of the integral decays
    like T^(-1/2), so even t <= 400 leaves a ~3% deficit. The u-nodes sit
    at (j + SINGULAR_OFFSET)*du, cancelling the u^(-1/2) endpoint error of
    the rectangle rule.
    """
    c = spec.c
    n_u, dy, y_half = 6000, 0.05, 12.0
    u_max = 75.0 / c  # e^{-c u/4} tail below 1e-8 of the mass
    du = u_max / n_u
    us = (np.arange(n_u) + SINGULAR_OFFSET) * du
    ys = np.arange(-y_half, y_half + dy / 2, dy)
    y_sum = float(np.sum(np.exp(-ys * ys / 4.0))) * dy
    u_sum = float(np.sum(np.exp(-c * us / 4.0) / np.sqrt(us))) * du
    return y_sum * u_sum


def dft2_forward(field: RealField, spectral_grid: GridSpec) -> ComplexField:
    """Rectangle-rule transform onto the spectral grid.

    out[k, l] = (1/2pi) * sum_{i,j} field[i,j] e^{-i(x_i z_k + t_j r_l)} dx dt,
    evaluated as matrix products (identical sum, reassociated). The t sum
    comes first, in real arithmetic for real data:
    V @ cos(t r) - i V @ sin(t r), two real products over t; the complex
    x factor then meets only the nx x nr result. The same formula holds
    for complex values.
    """
    g = field.grid
    v = field.values
    tr = np.outer(g.t_nodes(), spectral_grid.t_nodes())          # (nt, nr)
    right = v @ np.cos(tr) - 1j * (v @ np.sin(tr))               # (nx, nr)
    ez = np.exp(-1j * np.outer(spectral_grid.x_nodes(), g.x_nodes()))
    vals = (ez @ right) * (g.cell_area / TWO_PI)
    return ComplexField(spectral_grid, vals)


def _lattice_offsets(out_grid: GridSpec, in_grid: GridSpec):
    """Integer node offsets of out_grid on in_grid's lattice, or an error:
    convolution output nodes must live on the input sampling lattice."""
    if not math.isclose(out_grid.dx, in_grid.dx, rel_tol=1e-12) \
            or not math.isclose(out_grid.dt, in_grid.dt, rel_tol=1e-12):
        raise ValueError("output grid steps must match the input lattice")
    ox = (out_grid.x0 - in_grid.x0) / in_grid.dx
    ot = (out_grid.t0 - in_grid.t0) / in_grid.dt
    if abs(ox - round(ox)) > 1e-6 or abs(ot - round(ot)) > 1e-6:
        raise ValueError("output grid nodes do not lie on the input lattice")
    return int(round(ox)), int(round(ot))


def convolve2_causal(spec: KernelSpec, w: RealField,
                     out_grid: GridSpec) -> RealField:
    """(k_c * w)(x, t) = integral k_c(x-xi, t-tau) w(xi, tau) dxi dtau by the
    rectangle rule on w's lattice: _convolve2_causal_each's one-field case.

    The kernel vanishes for time lags <= 0, so only forward lags are
    formed; space lags are truncated where the Gaussian factor drops below
    1e-12 of its peak. Everything left of w's grid is treated as zero (w is
    assumed to vanish for t <= 0), so w's grid should start near t = 0.
    out_grid must be lattice-aligned with w's grid and start no earlier.
    """
    [vals] = _convolve2_causal_each(spec, [w], out_grid)
    return RealField(out_grid, vals)


def _convolve2_causal_each(spec: KernelSpec, ws, out_grid: GridSpec):
    """Values of k_c * w on out_grid for each w of ws, which share one
    grid: convolve2_causal for several fields, forming k_c's lag box and
    its spectrum once, and only if some w is nonzero.

    Each sum is one real FFT product on a circular lattice just long
    enough, per axis, that no wrapped term reaches a kept output; the kept
    outputs then equal those of the linear convolution. Only the kept
    output rows take the inverse transform along t. The kernel's spectrum
    is dropped after the last product, and each product after its
    inverse, so no more than two spectra are alive at once.
    """
    # scipy's rfft2 runs this product about 1.4x faster than numpy's
    import scipy.fft

    gin = ws[0].grid
    if out_grid.t0 < gin.t0 - 1e-12 * gin.dt:
        raise ValueError("output grid extends before the data grid's t0")
    ox, ot = _lattice_offsets(out_grid, gin)
    out = [np.zeros(out_grid.shape) for _ in ws]
    # a zero field (P2's f) convolves to exact zeros without the FFTs
    live = [n for n, w in enumerate(ws) if w.values.any()]
    if not live:
        return out
    dx, dt = gin.dx, gin.dt

    # forward time lags; lag 0 evaluates to 0 but keeps index bookkeeping flat
    n_lag_t = ot + out_grid.nt
    lag_t = dt * np.arange(n_lag_t)
    t_lag_max = lag_t[-1] if n_lag_t > 1 else dt

    # space lag range: enough to map any input column onto any output column,
    # clipped by the Gaussian cutoff  exp(-lag^2/(4 t)) >= 1e-12
    lag_cut = math.sqrt(4.0 * t_lag_max * math.log(1e12))
    lo = max(ox - (gin.nx - 1), -int(math.ceil(lag_cut / dx)))
    hi = min(ox + out_grid.nx - 1, int(math.ceil(lag_cut / dx)))
    if lo > hi:
        # every needed lag is beyond the cutoff; the convolution vanishes
        return out
    lag_x = dx * np.arange(lo, hi + 1)

    kv = kernel_eval(spec, lag_x[:, None], lag_t[None, :])
    # linear output p of the lag box and the data sits at
    # lag_x[0]+x_in[0] + p*dx on the x axis, t_in[0] + q*dt on the t axis;
    # outputs past the linear range (lags clipped above) stay 0
    ps = (ox - lo) + np.arange(out_grid.nx)
    ok = (ps >= 0) & (ps <= kv.shape[0] + gin.nx - 2)
    qs = ot + np.arange(out_grid.nt)
    # data columns past the last kept output reach only later outputs
    n_data_t = min(gin.nt, int(qs[-1]) + 1)
    # rounded up to fast lengths: rfft2 transforms t as real data and x as
    # complex data, which also has fast radix-7 and radix-11 lengths
    shape = (scipy.fft.next_fast_len(
                 _wrap_free_length(kv.shape[0], gin.nx, ps[ok])),
             scipy.fft.next_fast_len(
                 _wrap_free_length(kv.shape[1], n_data_t, qs), real=True))
    k_hat = scipy.fft.rfft2(kv, shape)
    del kv
    for n in live:
        prod = scipy.fft.rfft2(ws[n].values[:, :n_data_t], shape)
        np.multiply(k_hat, prod, out=prod)
        if n == live[-1]:
            del k_hat
        # the inverse along x in place, then along t for the kept rows only
        rows = scipy.fft.ifft(prod, axis=0, overwrite_x=True)[ps[ok]]
        del prod
        out[n][ok, :] = scipy.fft.irfft(rows, shape[1], axis=1)[:, qs] \
            * (dx * dt)
    return out


def _wrap_free_length(n_lag: int, n_data: int, kept: np.ndarray) -> int:
    """Shortest circular length on one axis at which the kept linear
    outputs (sorted, all inside the linear range) take no wrapped term:
    output p sees the aliases p -+ L, so L must pass the last kept output
    and the linear length must end before the first one plus L."""
    return max(int(kept[-1]) + 1, n_lag + n_data - 1 - int(kept[0]))


def assemble_rhs(f: RealField, g: RealField,
                 out_grid: Optional[GridSpec] = None) -> RealField:
    """Right-hand side F = 2(R*f) - (S*g) + 4*pi*f of the convolution
    identity S*v = F, on out_grid.

    f and g share a grid; out_grid defaults to it and must be a sub-lattice
    of it (the pointwise f term is read off by slicing, not interpolation).
    """
    og = _rhs_grid(f, g, out_grid)
    return _rhs_from(f, convolve2_causal(S_SPEC, g, og).values, og)


def _rhs_grid(f: RealField, g: RealField,
              out_grid: Optional[GridSpec]) -> GridSpec:
    """The grid assemble_rhs writes F on, or the error it refuses with."""
    if f.grid != g.grid:
        raise ValueError("f and g must share a grid")
    og = out_grid if out_grid is not None else f.grid
    ox, ot = _lattice_offsets(og, f.grid)
    if ox < 0 or ot < 0 or ox + og.nx > f.grid.nx or ot + og.nt > f.grid.nt:
        raise ValueError("output grid must lie inside the data grid")
    return og


def _rhs_from(f: RealField, sg: np.ndarray, og: GridSpec) -> RealField:
    """F = 2(R*f) - (S*g) + 4*pi*f on og, given S*g's values there."""
    ox, ot = _lattice_offsets(og, f.grid)
    rf = convolve2_causal(R_SPEC, f, og).values
    fw = f.values[ox:ox + og.nx, ot:ot + og.nt]
    return RealField(og, 2.0 * rf - sg + (4.0 * math.pi) * fw)


def identity_residual(v: RealField, f: RealField, g: RealField,
                      out_grid: Optional[GridSpec] = None) -> float:
    """Relative L2 defect of S*v = 2(R*f) - (S*g) + 4*pi*f on out_grid.

    v, f, g share a grid; out_grid defaults to it and must be a sub-lattice
    of it (see assemble_rhs). S*v and S*g come from one call that forms
    S's lag box and spectrum once; R*f from another, which forms none for
    a zero f. Only a problem with f != 0 tests the kernels:
    P2 has f = 0 and v = -g, so both sides are the same S*g up to sign and
    its residual is 0 by linearity for any kernel; P1's row is the one
    that can fail.
    """
    if not (v.grid == f.grid == g.grid):
        raise ValueError("v, f, g must share a grid")
    og = _rhs_grid(f, g, out_grid)
    lhs, sg = _convolve2_causal_each(S_SPEC, [v, g], og)
    rhs = _rhs_from(f, sg, og).values
    num = math.sqrt(og.cell_area * float(np.sum((lhs - rhs) ** 2)))
    den = math.sqrt(og.cell_area * float(np.sum(rhs ** 2)))
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


def _grid_str(g: GridSpec) -> str:
    return "%d,%d,%s,%s,%s,%s" % (g.nx, g.nt, _FMT % g.x0, _FMT % g.dx,
                                  _FMT % g.t0, _FMT % g.dt)


def run_experiment(problem: str, params: RegParams,
                   data_grid: Optional[GridSpec] = None,
                   out_grid: Optional[GridSpec] = None,
                   noise_seed: int = 0) -> Reconstruction:
    """One run on a built-in problem: stream its noisy histories on
    data_grid (default_data_grid() if None) into reconstruct, one at a
    time, with the exact solution for validation, onto out_grid
    (default_out_grid(problem) if None). Returns the Reconstruction, which
    carries the data grid and the measured error; writes nothing (see
    write_run).
    """
    dg = data_grid if data_grid is not None else default_data_grid()
    og = out_grid if out_grid is not None else default_out_grid(problem)
    prob = test_problem(problem)
    return reconstruct(noisy_histories(prob, dg, params.epsilon, noise_seed),
                       params, og, v_exact=prob.v_exact)


def write_run(out_dir, rec: Reconstruction, params: RegParams, source,
              noise_seed: Optional[int] = None) -> None:
    """v_eps.grd, v_eps.csv and manifest.txt of one run into out_dir.

    The manifest holds source, the lines naming the data (the problem, or
    the two GRD files), then one key=value line per value below that is
    not None, floats at 17 digits: params, noise_seed (None for file
    data), and the data grid, output grid, cutoff half-width, bound
    report and measured error of rec. v_eps's values are formatted once,
    for both files. No wall-clock data goes into the files, so a rerun
    writes the same bytes.
    """
    report = rec.report
    values = [("mode", params.mode.value), ("epsilon", params.epsilon),
              ("gamma", params.gamma), ("m", params.m),
              ("noise_seed", noise_seed),
              ("data_grid", _grid_str(rec.data_grid)),
              ("out_grid", _grid_str(rec.v_eps.grid)),
              ("b_eps" if params.mode is RegMode.L2 else "a_eps",
               rec.window.zmax),
              ("C", report.C), ("eta_hat", report.eta_hat),
              ("bound_l2", report.bound_l2), ("bound_hm", report.bound_hm),
              ("measured_error", rec.measured_error)]
    lines = list(source) + [
        "%s=%s" % (key, _FMT % value if isinstance(value, float) else value)
        for key, value in values if value is not None]
    os.makedirs(out_dir, exist_ok=True)
    text = _value_text(rec.v_eps.values)
    write_field(rec.v_eps, os.path.join(out_dir, "v_eps.grd"), text=text)
    write_csv(rec.v_eps, os.path.join(out_dir, "v_eps.csv"), text=text)
    with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


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
    for i, eps in enumerate(sorted((float(e) for e in eps_list),
                                   reverse=True)):
        params = RegParams(epsilon=eps, gamma=gamma, mode=RegMode.L2)
        rec = run_experiment(problem, params, data_grid, out_grid, seed + i)
        rows.append(ConvergenceRow(epsilon=eps,
                                   measured_error=rec.measured_error,
                                   bound=rec.report.bound_l2,
                                   eta_hat=rec.report.eta_hat))
    return rows


def write_convergence_csv(rows, path) -> None:
    with open(path, "w") as fh:
        fh.write("epsilon,measured_error,bound,eta_hat\n")
        for row in rows:
            fh.write("%s,%s,%s,%s\n" % (
                _FMT % row.epsilon, _FMT % row.measured_error,
                _FMT % row.bound, _FMT % row.eta_hat))
