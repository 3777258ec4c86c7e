"""Experiment orchestration: exact test problems with synthetic noise,
end-to-end reconstruction runs and the one writer of a run's files,
convergence tables, and the check path:
the independent numerical checks (symbol quadrature, kernel mass, identity
residual via causal convolution, transform-factor calibration) with the
matrix DFT and convolution they sum by, and verify_checks, which runs them
at verify's geometry, holds them to its tolerances and returns the
verdicts as records. The checks pin the analytic
ingredients and share no code with the reconstruction, so that they can
still catch it; a test in tests/test_harness.py states that rule. Only
the checks' convolution imports scipy, when it runs, so reconstruct and
sinc never load it.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fields import (ComplexField, GridSpec, RealField, _FMT, _node_values,
                     _value_text, sample, write_csv, write_field)
from .kernels import (R_SPEC, S_SPEC, SINGULAR_OFFSET, KernelSpec,
                      gaussian_factor, kernel_eval, s_hat, test_problem)
from .regularizer import (Reconstruction, RegParams, _c_constant, plan,
                          reconstruct)
from .sinc import eval_expansion
from .transform import TWO_PI, idft2_windowed_at

__all__ = [
    "CONVOLUTION_FACTOR",
    "default_data_grid",
    "default_out_grid",
    "perturb",
    "noisy_histories",
    "kernel_l1_norm",
    "dft2_forward",
    "convolve2_causal",
    "identity_residual",
    "refined_window_grid",
    "kappa_calibration",
    "CheckRecord",
    "VerifyReport",
    "verify_checks",
    "SINC_PROBE_GRID",
    "sinc_deviation",
    "problem_inputs",
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


# the built-in problems' output windows in x; every one spans t in [0.1, 4]
_X_WINDOWS = {"P1": (0.25, 1.3), "P2": (0.0, 1.0)}


def _window_grid(problem: str, n: int) -> GridSpec:
    """The n x n grid over a built-in problem's output window; an unknown
    id is named by test_problem."""
    lo, hi = _X_WINDOWS[test_problem(problem).id]
    return GridSpec(x0=lo, dx=(hi - lo) / (n - 1), nx=n,
                    t0=0.1, dt=(4.0 - 0.1) / (n - 1), nt=n)


def default_out_grid(problem: str) -> GridSpec:
    """Reconstruction window per problem, 129^2 nodes: away from the t=0
    data edge, and inside the region where the band-limited surrogate is
    accurate."""
    return _window_grid(problem, 129)


def _noisy(clean, grid: GridSpec, epsilon: float, seed: int) -> RealField:
    """clean() plus white noise of L2 size exactly epsilon on grid, noise
    first: the Philox draw is scaled in place to its norm, so the norm's
    draw * draw temporary lives beside the draw alone, and only then is
    clean() called for the bare values of the trace and added into the
    draw. The sum is clean() + draw * (epsilon/norm) to the bit, since
    IEEE addition commutes, and it is the one array scanned for
    non-finite values, by the RealField it becomes, which names the first
    such node.

    Philox keyed by the seed, so runs are reproducible across platforms;
    one draw is taken, since a standard normal draw of the whole grid is
    zero only in principle. At epsilon = 0 the draw is scaled to zeros, so
    the sum is clean() to the bit for any trace that holds no -0.0.
    """
    if epsilon < 0:
        raise ValueError("noise level must be nonnegative, got %r" % (epsilon,))
    draw = np.random.Generator(np.random.Philox(seed)).standard_normal(
        grid.shape)
    draw *= epsilon / math.sqrt(grid.cell_area * float(np.sum(draw * draw)))
    draw += clean()
    return RealField(grid, draw)


def perturb(field: RealField, epsilon: float, seed: int) -> RealField:
    """Add white noise scaled to L2 size exactly epsilon, as a new field.
    The noise is _noisy's, so noisy_histories draws the same bits. The
    caller holds the field, so the norm's temporary sets this call's
    peak."""
    return _noisy(lambda: field.values, field.grid, epsilon, seed)


def noisy_histories(prob, data_grid: GridSpec, epsilon: float, seed: int):
    """Yield f, then g: the problem's two histories sampled on data_grid,
    each with noise of L2 size epsilon; g's stream is seeded apart from
    f's. Each is perturb(sample(...)) to the bit, drawn noise first, with
    the trace's bare values (fields._node_values, which refuses a flat
    result as sample does) added into the draw (see _noisy), and the
    generator keeps no reference to what it yields, so a consumer that
    drops f before asking for g, as reconstruct_spectrum does, holds one
    history at a time."""
    for fn, s in ((prob.f0, seed), (prob.g0, seed + _G_SEED_OFFSET)):
        yield _noisy(lambda: _node_values(fn, data_grid), data_grid,
                     epsilon, s)


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

    One case takes half the t products and half the x sum. A real field's
    transform satisfies F(-z, -r) = conj F(z, r), and a field that is even
    in x to the bit, on a data grid whose x axis is symmetric about 0 with
    an odd node count, has its x sum fold: sum_x e^{-izx} T(x) =
    T(0) + 2 sum_{x>0} cos(zx) T(x). On a spectral grid whose nodes are
    symmetric about the origin on both axes (an odd node count and the
    middle node at 0, as GridSpec.centered and the lattice grids of
    dft2_lattice have), such a field has only its r >= 0 columns summed,
    over the rows x >= 0 with the real weights w_x cos(z x), and the
    r < 0 columns are read off the conjugate symmetry. P1's traces on
    default_data_grid are such fields: kappa_calibration on verify
    --quick's grid took 9.3 ms with this case and 17.2 ms with the full
    sum (medians of 15 calls, one BLAS thread of a 2-core Xeon). Any other
    field, a field one ulp off even included, any other grid and any
    complex field take the full sum.
    """
    g, sg = field.grid, spectral_grid
    v, xs, rs = field.values, g.x_nodes(), sg.t_nodes()
    if (np.isrealobj(v) and _symmetric_axis(sg.x0, sg.dx, sg.nx)
            and _symmetric_axis(sg.t0, sg.dt, sg.nt)
            and _symmetric_axis(g.x0, g.dx, g.nx)
            and np.array_equal(v, v[::-1])):
        v, xs = v[g.nx // 2:], xs[g.nx // 2:]                    # x >= 0
        tr = np.outer(g.t_nodes(), rs[sg.nt // 2:])              # r >= 0
        # x = 0 once, every x > 0 for itself and its mirror -x
        cz = np.cos(np.outer(sg.x_nodes(), xs))
        cz[:, 1:] *= 2.0
        vals = cz @ (v @ np.cos(tr)) - 1j * (cz @ (v @ np.sin(tr)))
        vals *= g.cell_area / TWO_PI
        # column -l is the conjugate of column l read from -z up
        vals = np.concatenate([np.conj(vals[::-1, :0:-1]), vals], axis=1)
    else:
        tr = np.outer(g.t_nodes(), rs)                           # (nt, nr)
        right = v @ np.cos(tr) - 1j * (v @ np.sin(tr))           # (nx, nr)
        vals = np.exp(-1j * np.outer(sg.x_nodes(), xs)) @ right
        vals *= g.cell_area / TWO_PI
    return ComplexField(spectral_grid, vals)


def _symmetric_axis(start: float, step: float, n: int) -> bool:
    """Whether an axis of n nodes start + k*step has an odd node count and
    its middle node at the origin, up to rounding, so that every node's
    mirror is a node."""
    return n % 2 == 1 and math.isclose(-start, (n // 2) * step,
                                       rel_tol=1e-12)


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
    its spectrum once. A zero field's FFTs give exact zeros.

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
    for n, w in enumerate(ws):
        prod = scipy.fft.rfft2(w.values[:, :n_data_t], shape)
        np.multiply(k_hat, prod, out=prod)
        if n == len(ws) - 1:
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


def identity_residual(v: RealField, f: RealField, g: RealField,
                      out_grid: GridSpec) -> float:
    """Relative L2 defect of S*v = 2(R*f) - (S*g) + 4*pi*f on out_grid.

    v, f, g share a grid, and out_grid must be a sub-lattice of it (the
    shared grid itself included), since the pointwise f term is read off by
    slicing, not interpolation. S*v and S*g come from one call that forms
    S's lag box and spectrum once; R*f from another.

    When f is zero and v + g is zero at every node (v = -g to the bit),
    the defect is S*(v + g), the convolution of an exactly zero field, so
    0.0 is returned without forming any lag box; the FFT path gives 0.0
    there too, since negation commutes with every rounded sum and product.
    That is P2 (f = 0, v = -g), whose row is therefore 0 for any kernel
    and checks nothing; P1's row is the one that can fail. A v one ulp off
    -g, a nonzero f, or a non-finite node takes the FFT path.
    """
    if not (v.grid == f.grid == g.grid):
        raise ValueError("v, f, g must share a grid")
    ox, ot = _lattice_offsets(out_grid, f.grid)
    if (ox < 0 or ot < 0 or ox + out_grid.nx > f.grid.nx
            or ot + out_grid.nt > f.grid.nt):
        raise ValueError("output grid must lie inside the data grid")
    if not f.values.any() and not (v.values + g.values).any():
        return 0.0
    lhs, sg = _convolve2_causal_each(S_SPEC, [v, g], out_grid)
    rf = convolve2_causal(R_SPEC, f, out_grid).values
    fw = f.values[ox:ox + out_grid.nx, ot:ot + out_grid.nt]
    rhs = 2.0 * rf - sg + (4.0 * math.pi) * fw
    num = math.sqrt(out_grid.cell_area * float(np.sum((lhs - rhs) ** 2)))
    den = math.sqrt(out_grid.cell_area * float(np.sum(rhs ** 2)))
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


# t nodes per block of the symbol quadrature. 128 make an 801-row block of
# Gaussian factors 0.8 MB, which stays in L2 cache. On verify --quick's
# panel (801 x 20000 nodes), one thread of a 2-core Xeon with 2 MB L2 per
# core, the whole quadrature took 22.3 / 19.6 / 20.2 / 23.9 ms with blocks
# of 64 / 128 / 256 / 512 nodes (medians of 12 interleaved calls), and on
# the full panel (801 x 80000 nodes) 97.2 / 86.0 / 90.3 / 113.9 ms
_SYMBOL_T_BLOCK = 128


def _symbol_rows(points, *, x_half: float, dx: float, t_max: float,
                 dt: float, closed_form=None):
    """Brute-force transform of the c=1 kernel at the probe points (z, r),
    on the box that verify_checks states, which also picks the panel.

    One pass over the (x, t) box |x| <= x_half, 0 < t < t_max. The kernel
    is even in x and the box is symmetric, so the x sum folds onto the
    nodes x = k dx, 0 <= k <= x_half/dx:
    sum_x e^{-izx} T(x) = T(0) + 2 sum_{x>0} cos(zx) T(x), so on the axis
    r = 0 the quadrature is exactly real, as the symbol is. That needs
    x_half to be a whole number of steps dx, so that x = 0 is a node and
    every other node has its mirror; any other box is a ValueError.

    The sum runs over x first. The kernel factors as
    k(x, t) = k(0, t) * gaussian_factor(x, t), so per block of
    _SYMBOL_T_BLOCK t nodes one matrix product cos_rows @ gaussian_factor
    takes the folded x sums for every distinct |z| at once (cos_rows has
    one row w_x cos(|z| x) each; cos is even, so z and -z share it). The
    amplitude k(0, t) then multiplies the (|z|, t) sums once over the
    whole t axis, and each point's box sum is two dot products of its |z|
    row with cos(r t) and sin(r t). The origin is the exception: the t
    tail of the box integral decays only like 1/sqrt(T) there, so no
    reachable T suffices; it is instead kernel_l1_norm/(2 pi), the
    substituted-variables mass quadrature, which converges fast.

    closed_form replaces the symbol being checked; the verify command uses
    it to prove the check can fail.
    """
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
    box_pts = [(z, r) for z, r in pts if not (z == 0.0 and r == 0.0)]
    # a panel of the origin alone needs no box sum
    nt = int(round(t_max / dt)) if box_pts else 0
    ts = (np.arange(nt) + SINGULAR_OFFSET) * dt
    zs = sorted({abs(z) for z, r in box_pts})
    z_row = {z: i for i, z in enumerate(zs)}
    cos_rows = wx * np.cos(np.array(zs)[:, None] * xs[None, :])
    x_sums = np.empty((len(zs), nt))
    for j0 in range(0, nt, _SYMBOL_T_BLOCK):
        tc = ts[j0:j0 + _SYMBOL_T_BLOCK]
        x_sums[:, j0:j0 + tc.size] = cos_rows @ gaussian_factor(
            xs[:, None], tc[None, :])
    x_sums *= kernel_eval(S_SPEC, 0.0, ts)
    box_sums = {}
    for r in sorted({r for z, r in box_pts}):
        rt = r * ts
        box_sums[r] = x_sums @ np.cos(rt) - 1j * (x_sums @ np.sin(rt))
    scale = dx * dt / (2.0 * math.pi)

    rows = []
    for z, r in pts:
        closed = complex(closed_fn(z, r))
        if z == 0.0 and r == 0.0:
            numeric = complex(kernel_l1_norm(S_SPEC) / (2.0 * math.pi))
        else:
            numeric = complex(box_sums[r][z_row[abs(z)]] * scale)
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


def kappa_calibration(data_grid: GridSpec):
    """Residuals of kappa * S_hat * v0_hat = F_hat over the L2 cutoff
    window of RegParams(epsilon=0.01, gamma=1.0), for kappa = 2*pi (the
    symmetric-transform convolution factor) and kappa = 1 (the competing
    reading), with P1 sampled on data_grid, which verify_checks states.
    Returns (res_2pi, res_1); the first should sit at quadrature level,
    the second should be order one.

    On P1 the right-hand side is taken in closed form: the layer traces
    satisfy S*L_0 = 4*pi*L_1, so F = S*v0 = 4*pi*f0 and F_hat is 4*pi
    times f0's transform; no convolution is formed. The spectra are taken
    by the matrix DFT on a fixed 205-node grid over the window,
    independently of the reconstruction's FFT lattice. That grid is
    centered with odd counts, both fields are real, and P1's traces are
    even in x to the bit on default_data_grid's x axis, which is symmetric
    about 0 with an odd node count; so dft2_forward sums each field over
    r >= 0 and x >= 0 only and mirrors the rest. A grid that lost any of
    these would take the full sum, nearly twice the time.
    """
    prob = test_problem("P1")
    window = RegParams(epsilon=0.01, gamma=1.0).window
    sg = GridSpec.centered(window.zmax, 205, window.rmax, 205)
    f_hat = (4.0 * math.pi) * dft2_forward(sample(prob.f0, data_grid),
                                           sg).values
    v0_hat = dft2_forward(sample(prob.v_exact, data_grid), sg).values
    sh = s_hat(sg.x_nodes()[:, None], sg.t_nodes()[None, :])
    den = math.sqrt(float(np.sum(np.abs(f_hat) ** 2)))
    out = []
    for kappa in (CONVOLUTION_FACTOR, 1.0):
        diff = kappa * sh * v0_hat - f_hat
        out.append(math.sqrt(float(np.sum(np.abs(diff) ** 2))) / den)
    return out[0], out[1]


# the --quick symbol panel: the origin and one point on each half-axis
QUICK_SYMBOL_POINTS = ((0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 1.0),
                       (0.0, -1.0))


@dataclass(frozen=True)
class CheckRecord:
    """One row of verify's verdict table: the checked value, the limit it
    is held to, whether it held, and the row's detail text."""

    name: str
    value: float
    limit: float
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerifyReport:
    """Everything verify computes: the symbol quadrature box (x_half, dx,
    t_max, dt) and its rows; noted, the rows whose simplified modulus is
    more than 1% off the true one, at most two: (z, r) = (2, 0) and the
    worst; the identity residual per problem; and one record per verdict
    row, in table order."""

    box: dict
    symbol_rows: list
    noted: list
    identity: tuple
    records: tuple

    @property
    def passed(self) -> bool:
        return all(rec.passed for rec in self.records)


def _worst(values) -> float:
    """The largest of values, or nan if any is not finite: max() drops a
    nan that is not first, and a check row must fail on it."""
    values = list(values)
    if not all(math.isfinite(v) for v in values):
        return math.nan
    return max(values)


def verify_checks(quick: bool = False, points=None,
                  closed_form=None) -> VerifyReport:
    """verify's checks and their verdicts, and the one statement of their
    inputs; quick takes the coarse panel and grids, same tolerances.

    1. The closed-form symbol against the box quadrature at points
       (DEFAULT_SYMBOL_POINTS if None, or QUICK_SYMBOL_POINTS when quick),
       max relative error 1e-3; closed_form replaces the symbol checked.
    2. The masses of k_c for c = 1, 4, 16 against 4 pi/sqrt(c), max
       relative error 1e-3.
    3. kappa_calibration: the factor 2 pi must beat 1 by a residual ratio
       of at least 10.
    4. The identity residual of P1 and P2 on a 65^2 window (33^2 when
       quick) over each default output box, max 1e-2.

    A row whose values are not all finite fails, and its record holds nan.
    """
    box = dict(x_half=40.0, dx=0.05, t_max=200.0 if quick else 400.0,
               dt=0.01 if quick else 0.005)
    if points is None:
        points = QUICK_SYMBOL_POINTS if quick else DEFAULT_SYMBOL_POINTS
    rows = _symbol_rows(points, closed_form=closed_form, **box)
    anchor = next((r for r in rows if (r.z, r.r) == (2.0, 0.0)), None)
    worst_short = max(rows, key=lambda r: r.shorthand_dev)
    noted = []
    if anchor is not None and anchor.shorthand_dev > 1e-2:
        noted.append(anchor)
    if worst_short.shorthand_dev > 1e-2 and worst_short not in noted:
        noted.append(worst_short)
    max_rel = _worst(r.rel_err for r in rows)
    records = [CheckRecord("symbol closed form vs quadrature", max_rel,
                           1e-3, max_rel <= 1e-3,
                           "max rel err %.3e (tol 1e-3)" % max_rel)]

    worst_l1 = _worst(abs(kernel_l1_norm(spec) - target) / target
                      for spec, target in ((S_SPEC, 4 * math.pi),
                                           (R_SPEC, 2 * math.pi),
                                           (KernelSpec(16.0), math.pi)))
    records.append(CheckRecord("kernel L1 norms vs 4*pi/sqrt(c)", worst_l1,
                               1e-3, worst_l1 <= 1e-3,
                               "max rel err %.3e (tol 1e-3)" % worst_l1))

    dg = (default_data_grid(nx=257, nt=800, dt=0.05) if quick
          else default_data_grid())
    res_2pi, res_one = kappa_calibration(data_grid=dg)
    ratio = res_one / max(res_2pi, np.finfo(float).tiny)
    records.append(CheckRecord(
        "transform factor 2*pi vs 1", ratio, 10.0, ratio >= 10.0,
        "residuals %.3e / %.3e, ratio %.1f (need >= 10)"
        % (res_2pi, res_one, ratio)))

    n_id = 33 if quick else 65
    identity = []
    for pid in _X_WINDOWS:
        prob = test_problem(pid)
        in_grid, out_grid = refined_window_grid(_window_grid(pid, n_id))
        v = sample(prob.v_exact, in_grid)
        f = sample(prob.f0, in_grid)
        g = sample(prob.g0, in_grid)
        resid = identity_residual(v, f, g, out_grid)
        identity.append((pid, resid))
    worst_id = _worst(resid for _, resid in identity)
    records.append(CheckRecord("convolution identity residual", worst_id,
                               1e-2, worst_id <= 1e-2,
                               "max over %s: %.3e (tol 1e-2)"
                               % (", ".join(_X_WINDOWS), worst_id)))
    return VerifyReport(box=box, symbol_rows=rows, noted=noted,
                        identity=tuple(identity), records=tuple(records))


# sinc_deviation's probe grid: 15 x nodes by 14 t nodes, 210 points in all
SINC_PROBE_GRID = (15, 14)


def sinc_deviation(exp, v_hat, box: GridSpec) -> float:
    """Relative l2 deviation of the series from the direct inverse of v_hat
    on an open grid of SINC_PROBE_GRID coordinates drawn uniformly from
    box's extent, seeded 74257: the x values, then the t values (box is a
    bounding box, not a lattice; the draw avoids lattice nodes almost
    surely)."""
    rng = np.random.Generator(np.random.Philox(74257))
    nx, nt = SINC_PROBE_GRID
    xs = rng.uniform(box.x0, box.x0 + (box.nx - 1) * box.dx, size=(nx, 1))
    ts = rng.uniform(box.t0, box.t0 + (box.nt - 1) * box.dt, size=(1, nt))
    direct = idft2_windowed_at(v_hat, xs, ts)
    series = eval_expansion(exp, xs, ts)
    den = max(float(np.linalg.norm(direct)), np.finfo(float).tiny)
    return float(np.linalg.norm(series - direct)) / den


def _grid_str(g: GridSpec) -> str:
    return "%d,%d,%s,%s,%s,%s" % (g.nx, g.nt, _FMT % g.x0, _FMT % g.dx,
                                  _FMT % g.t0, _FMT % g.dt)


def problem_inputs(problem: str, epsilon: float,
                   data_grid: Optional[GridSpec] = None,
                   out_grid: Optional[GridSpec] = None,
                   noise_seed: int = 0):
    """A built-in problem's inputs with the defaults applied: its
    TestProblem, data_grid (default_data_grid() if None), out_grid
    (default_out_grid(problem) if None) and the noisy_histories stream of
    noise level epsilon on data_grid, which draws nothing until it is read.
    The problem is looked up first, so an unknown id is named before any
    grid default."""
    prob = test_problem(problem)
    dg = data_grid if data_grid is not None else default_data_grid()
    og = out_grid if out_grid is not None else default_out_grid(problem)
    return prob, dg, og, noisy_histories(prob, dg, epsilon, noise_seed)


def run_experiment(problem: str, params: RegParams,
                   data_grid: Optional[GridSpec] = None,
                   out_grid: Optional[GridSpec] = None,
                   noise_seed: int = 0) -> Reconstruction:
    """One run on a built-in problem: stream its noisy histories from
    problem_inputs, which applies the default grids, into reconstruct, one
    at a time, with the exact solution for validation, onto the output
    grid. Returns the Reconstruction, which carries the data grid and the
    measured error; writes nothing (see write_run).
    """
    prob, dg, og, histories = problem_inputs(problem, params.epsilon,
                                             data_grid, out_grid, noise_seed)
    return reconstruct(histories, params, dg, og, v_exact=prob.v_exact)


def write_run(out_dir, rec: Reconstruction, source,
              noise_seed: Optional[int] = None) -> None:
    """v_eps.grd, v_eps.csv and manifest.txt of one run into out_dir.

    The manifest holds source, the lines naming the data (the problem, or
    the two GRD files), then one key=value line per value below that is
    not None, floats at 17 digits: rec's params, noise_seed (None for file
    data), and the data grid, output grid, cutoff half-width, the bound
    constant C, eta_hat, bound_l2 and measured error of rec. v_eps's
    values are formatted once, for both files. No wall-clock data goes
    into the files, so a rerun writes the same bytes.
    """
    params = rec.params
    values = [("mode", params.mode), ("epsilon", params.epsilon),
              ("gamma", params.gamma), ("m", params.m),
              ("noise_seed", noise_seed),
              ("data_grid", _grid_str(rec.data_grid)),
              ("out_grid", _grid_str(rec.v_eps.grid)),
              ("b_eps" if params.m is None else "a_eps",
               params.window.zmax),
              ("C", _c_constant()), ("eta_hat", rec.eta_hat),
              ("bound_l2", rec.bound_l2),
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


def convergence_table(problem: str, gamma: Optional[float],
                      eps_list: Sequence[float], seed: int = 0,
                      data_grid: Optional[GridSpec] = None,
                      out_grid: Optional[GridSpec] = None):
    """Reconstruction error vs noise level: the L2-mode run_experiment
    Reconstruction of each epsilon, in decreasing epsilon; the i-th run
    perturbs with seed+i so no two levels share a noise draw. Every level
    is planned before the first run, so a refused one draws no noise."""
    levels = [RegParams(epsilon=eps, gamma=gamma)
              for eps in sorted((float(e) for e in eps_list), reverse=True)]
    _, dg, og, _ = problem_inputs(problem, 0.0, data_grid, out_grid)
    for params in levels:
        plan(params, dg, og)
    return [run_experiment(problem, params, dg, og, seed + i)
            for i, params in enumerate(levels)]


def write_convergence_csv(recs, path) -> None:
    """One line per convergence_table record: its epsilon, measured
    error, bound_l2 and eta_hat, at 17 digits."""
    with open(path, "w") as fh:
        fh.write("epsilon,measured_error,bound,eta_hat\n")
        for rec in recs:
            fh.write("%s,%s,%s,%s\n" % (
                _FMT % rec.params.epsilon, _FMT % rec.measured_error,
                _FMT % rec.bound_l2, _FMT % rec.eta_hat))
