"""Metamorphic invariants of the reconstruction: regularizer.reconstruct
on random data over small random grids, in L2 and HM mode, against itself
under a translation of both grids, a reflection in x, a linear
combination of the data, and the conjugate symmetry of the spectrum of
real data. The pinned figures fix the outputs at one geometry; these
properties hold at every geometry the discretisation can represent.

Each case is drawn inside the limits the pipeline refuses: the steps keep
the cutoff window below the data Nyquist limits and at least one lattice
step wide, and the output grid lies inside the data interval, so no alias
period is spanned. The refusals themselves are drawn by a separate test,
which checks that translating a refused case leaves it refused.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidecast.fields import GridSpec, RealField
from sidecast.regularizer import RegMode, RegParams, reconstruct, region_for

# every property holds to this fraction of the output's largest value
TOL = 1e-12


@st.composite
def _params(draw):
    """L2 or HM parameters; HM's epsilon below e^(-e^2), so that no
    regime warning fires."""
    if draw(st.booleans()):
        gamma = draw(st.floats(0.5, 1.5))
        log_eps = draw(st.floats(math.log(1e-8), -3.0 / gamma - 0.05))
        return RegParams(epsilon=math.exp(log_eps), gamma=gamma)
    m = draw(st.floats(0.25, 1.0))
    log_eps = draw(st.floats(math.log(1e-12),
                             min(-4.0 * m * m, -math.exp(2.0)) - 0.05))
    return RegParams(epsilon=math.exp(log_eps), m=m, mode=RegMode.HM)


def _step(draw, n, half):
    """A data step at which a cutoff of half-width half keeps at least one
    lattice node off 0 and stays below the Nyquist limit pi/step: the
    padded FFT length L >= 2n gives a lattice step 2 pi/(L step) <=
    pi/(n step), so steps from 1.02 pi/(n half) to 0.98 pi/half."""
    u = draw(st.floats(math.log(1.02 / n), math.log(0.98)))
    return math.pi * math.exp(u) / half


def _inside(draw, start, extent):
    """(origin, step, count) of an output axis inside [start, start +
    extent]."""
    n = draw(st.integers(4, 12))
    p = draw(st.floats(0.0, 0.5))
    q = draw(st.floats(0.1, 0.99))
    return start + p * extent, q * (1.0 - p) * extent / (n - 1), n


@st.composite
def _cases(draw, symmetric_x=False, positive_t=False):
    """(params, data grid, output grid inside it, data seed)."""
    params = draw(_params())
    window = region_for(params)
    nx, nt = draw(st.integers(9, 64)), draw(st.integers(9, 64))
    dx, dt = _step(draw, nx, window.zmax), _step(draw, nt, window.rmax)
    ex, et = (nx - 1) * dx, (nt - 1) * dt
    x0 = -0.5 * ex if symmetric_x else draw(st.floats(-2.0, 1.0)) * ex
    t0 = draw(st.floats(0.05, 1.0) if positive_t
              else st.floats(-2.0, 1.0)) * et
    data = GridSpec(x0, dx, nx, t0, dt, nt)
    ox0, odx, onx = _inside(draw, x0, ex)
    ot0, odt, ont = _inside(draw, t0, et)
    return (params, data, GridSpec(ox0, odx, onx, ot0, odt, ont),
            draw(st.integers(0, 2 ** 32 - 1)))


def _histories(grid, seed):
    rng = np.random.default_rng(seed)
    return tuple(RealField(grid, rng.standard_normal(grid.shape))
                 for _ in range(2))


def _v(histories, params, out_grid):
    return reconstruct(histories, params, histories[0].grid,
                       out_grid).v_eps.values


def _moved(grid, x, t):
    return GridSpec(grid.x0 + x, grid.dx, grid.nx, grid.t0 + t, grid.dt,
                    grid.nt)


def _rel(got, want):
    return float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))


# a shift of both grids by whole steps, up to two data lengths per axis
_SHIFT = st.floats(-2.0, 2.0)


def _steps(grid, a, b):
    return round(a * (grid.nx - 1)), round(b * (grid.nt - 1))


def _translation_error(case, k, j):
    """_rel of v_eps after moving both grids by (k dx, j dt), the data
    values unchanged, against v_eps before."""
    params, data, out, seed = case
    f, g = _histories(data, seed)
    moved = _moved(data, k * data.dx, j * data.dt)
    v = _v((f, g), params, out)
    v_moved = _v((RealField(moved, f.values), RealField(moved, g.values)),
                 params, _moved(out, k * data.dx, j * data.dt))
    return _rel(v_moved, v)


@settings(max_examples=40, deadline=None)
@given(_cases(), _SHIFT, _SHIFT)
def test_translating_both_grids_translates_the_output(case, a, b):
    assert _translation_error(case, *_steps(case[1], a, b)) <= TOL


@settings(max_examples=25, deadline=None)
@given(_cases(positive_t=True), st.integers(1, 63), _SHIFT)
def test_a_t_shift_across_zero_translates_the_output(case, past, a):
    # the data start at t > 0 and are moved to start at t < 0
    data = case[1]
    k, _ = _steps(data, a, 0.0)
    j = -(math.ceil(data.t0 / data.dt) + min(past, data.nt - 1))
    assert data.t0 + j * data.dt < 0.0 < data.t0
    assert _translation_error(case, k, j) <= TOL


@settings(max_examples=30, deadline=None)
@given(_cases(symmetric_x=True))
def test_reflecting_the_data_in_x_reflects_the_output(case):
    params, data, out, seed = case
    f, g = _histories(data, seed)
    mirror = GridSpec(-(out.x0 + (out.nx - 1) * out.dx), out.dx, out.nx,
                      out.t0, out.dt, out.nt)
    v = _v((f, g), params, out)
    v_mirror = _v((RealField(data, f.values[::-1]),
                   RealField(data, g.values[::-1])), params, mirror)
    assert _rel(v_mirror[::-1], v) <= TOL


@settings(max_examples=30, deadline=None)
@given(_cases(), st.integers(0, 2 ** 32 - 1))
def test_the_output_is_linear_in_the_data(case, seed2):
    params, data, out, seed = case
    a, b = 0.7, -1.9
    f1, g1 = _histories(data, seed)
    f2, g2 = _histories(data, seed2)
    combined = _v((RealField(data, a * f1.values + b * f2.values),
                   RealField(data, a * g1.values + b * g2.values)),
                  params, out)
    want = a * _v((f1, g1), params, out) + b * _v((f2, g2), params, out)
    assert _rel(combined, want) <= TOL


@settings(max_examples=30, deadline=None)
@given(_cases())
def test_the_spectrum_of_real_data_is_conjugate_symmetric(case):
    # v_hat(-z, -r) = conj v_hat(z, r); the z < 0 rows are built as
    # conjugates, but the z = 0 row comes from an FFT and cosh
    params, data, out, seed = case
    v_hat = reconstruct(_histories(data, seed), params, data, out).v_hat
    grid, vals = v_hat.grid, v_hat.values
    assert grid.x0 == -(grid.nx // 2) * grid.dx
    assert grid.t0 == -(grid.nt // 2) * grid.dt
    assert _rel(np.conj(vals[::-1, ::-1]), vals) <= TOL


@settings(max_examples=30, deadline=None)
@given(_cases(), st.sampled_from(["nyquist", "lattice step", "alias"]),
       st.booleans(), _SHIFT, _SHIFT)
def test_a_refused_case_stays_refused_after_translation(case, refusal,
                                                        on_x, a, b):
    # a step past the Nyquist limit, a step too short for one lattice node
    # off 0, or an output grid moved 4n steps along, past the alias period
    params, data, out, seed = case
    k, j = _steps(data, a, b)
    window = region_for(params)
    if refusal == "alias":
        # the alias period is L steps, and the padded length L is below 4n
        length = 4 * (data.nx if on_x else data.nt)
        out = (_moved(out, length * data.dx, 0.0) if on_x
               else _moved(out, 0.0, length * data.dt))
        match = "alias period"
    else:
        n, half = (data.nx, window.zmax) if on_x else (data.nt, window.rmax)
        # L < 4n, so below pi/(4 n half) the lattice step exceeds half
        step = (1.1 * math.pi / half if refusal == "nyquist"
                else math.pi / (4 * n * half))
        data = (GridSpec(data.x0, step, data.nx, data.t0, data.dt, data.nt)
                if on_x else
                GridSpec(data.x0, data.dx, data.nx, data.t0, step, data.nt))
        match = "Nyquist" if refusal == "nyquist" else "lattice step"
    f, g = _histories(data, seed)
    with pytest.raises(ValueError, match=match):
        reconstruct((f, g), params, data, out)
    moved = _moved(data, k * data.dx, j * data.dt)
    with pytest.raises(ValueError, match=match):
        reconstruct((RealField(moved, f.values), RealField(moved, g.values)),
                    params, moved, _moved(out, k * data.dx, j * data.dt))
