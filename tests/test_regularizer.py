"""Cutoff formulas, bound constants, right-hand-side assembly, and the
closed-form sideways continuation, with frozen high-precision anchors."""

import math
import re

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from sidecast.fields import (ComplexField, GridSpec, RealField, l2_distance,
                             l2_norm, sample)
from sidecast.harness import (CONVOLUTION_FACTOR, convolve2_causal,
                              default_data_grid, dft2_forward,
                              identity_residual, noisy_histories)
from sidecast.kernels import layer_trace_hat, s_hat, s_hat_abs, test_problem
from sidecast.regularizer import (RegMode, RegParams, _c_constant,
                                  continue_sideways, cutoff_hm, cutoff_l2,
                                  error_bound_hm, error_bound_l2, plan,
                                  reconstruct, reconstruct_spectrum,
                                  region_for, tail_energy)
from sidecast.transform import SpectralWindow, dft2_lattice, idft2_windowed_at

from direct_reference import identity_rhs, window_contains

# frozen from 50-digit evaluation of ln(4/eps^gamma)/(sqrt2 sqrt(sqrt2+1))
B_001_10 = 2.72665476530690
B_002_10 = 2.41121051155677
B_EXP3_10 = 1.99615808919050
# and of (sqrt2/sqrt(sqrt2+1)) (L - m ln L), L = ln(1/eps)
A_0001_10 = 4.52824472847157
A_001_05 = 3.49652855265019


def test_convolution_factor_is_two_pi():
    assert CONVOLUTION_FACTOR == 2.0 * math.pi


def test_cutoff_l2_anchors():
    assert cutoff_l2(0.01, 1.0) == pytest.approx(B_001_10, rel=1e-12)
    assert cutoff_l2(0.02, 1.0) == pytest.approx(B_002_10, rel=1e-12)
    # published 6-digit rounding of the first anchor
    assert abs(cutoff_l2(0.01, 1.0) - 2.72665) < 1e-5


def test_cutoff_l2_domain_is_strictly_open():
    # eps = exp(-3/gamma) sits exactly on the boundary and is rejected;
    # infinitesimally inside the formula applies
    with pytest.raises(ValueError):
        cutoff_l2(math.exp(-3.0), 1.0)
    inside = math.exp(-3.0) * (1.0 - 1e-12)
    assert cutoff_l2(inside, 1.0) == pytest.approx(B_EXP3_10, rel=1e-9)
    with pytest.raises(ValueError):
        cutoff_l2(0.1, 1.0)
    with pytest.raises(ValueError):
        cutoff_l2(-0.01, 1.0)
    for bad_gamma in (0.0, 2.0, 2.5, None):
        with pytest.raises(ValueError):
            cutoff_l2(0.001, bad_gamma)


def test_cutoff_corner_pins_the_symbol_floor():
    # the rectangle is sized so that |s_hat| at the corner (b, b^2) is
    # exactly eps^{gamma/2}; this is the divisor floor of the inversion
    for eps, gamma in ((0.01, 1.0), (0.005, 1.5), (0.002, 0.7)):
        b = cutoff_l2(eps, gamma)
        assert s_hat_abs(b, b * b) == pytest.approx(eps ** (gamma / 2.0),
                                                    rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.floats(1e-6, 0.02, allow_nan=False), st.floats(0.8, 1.5),
       st.integers(0, 10 ** 6))
def test_symbol_exceeds_the_floor_inside_the_window(eps, gamma, seed):
    # eps <= 0.02 < exp(-3/gamma) for every gamma <= 1.5, so params are valid
    b = cutoff_l2(eps, gamma)
    rng = np.random.Generator(np.random.Philox(seed))
    zs = rng.uniform(-b, b, 16)
    rs = rng.uniform(-b * b, b * b, 16)
    floor = eps ** (gamma / 2.0)
    assert np.all(s_hat_abs(zs, rs) >= floor * (1.0 - 1e-12))


def test_cutoff_hm_anchors():
    with pytest.warns(UserWarning):
        a = cutoff_hm(0.001, 1.0)
    assert a == pytest.approx(A_0001_10, rel=1e-12)
    with pytest.warns(UserWarning):
        a2 = cutoff_hm(0.01, 0.5)
    assert a2 == pytest.approx(A_001_05, rel=1e-12)
    # below e^{-e^2} the warning goes away
    import warnings as _w
    with _w.catch_warnings():
        _w.simplefilter("error")
        cutoff_hm(1e-5, 1.0)


def test_cutoff_hm_rejections():
    with pytest.raises(ValueError):
        cutoff_hm(0.05, 1.0)   # above exp(-4 m^2)
    with pytest.raises(ValueError):
        cutoff_hm(0.001, -1.0)
    with pytest.raises(ValueError, match="<= 1"):
        with pytest.warns(UserWarning):
            cutoff_hm(0.5, 0.1)  # admissible eps but degenerate cutoff


def test_reg_params_validation():
    p = RegParams(epsilon=0.01, gamma=1.0)
    assert p.mode is RegMode.L2
    with pytest.raises(ValueError):
        RegParams(epsilon=0.01)             # L2 needs gamma
    with pytest.raises(ValueError):
        RegParams(epsilon=0.001, mode=RegMode.HM)  # HM needs m
    with pytest.raises(ValueError):
        RegParams(epsilon=0.3, gamma=1.0)


def test_region_shapes():
    reg = region_for(RegParams(epsilon=0.01, gamma=1.0))
    assert reg.zmax == pytest.approx(B_001_10, rel=1e-12)
    assert reg.zmax == cutoff_l2(0.01, 1.0)
    assert reg.rmax == pytest.approx(reg.zmax ** 2, rel=1e-15)
    with pytest.warns(UserWarning):
        reg2 = region_for(RegParams(epsilon=0.001, m=1.0, mode=RegMode.HM))
    assert reg2.zmax == reg2.rmax == pytest.approx(A_0001_10, rel=1e-12)


def test_c_constant_value():
    c = _c_constant()
    # (4 + 2||R||_1 + ||S||_1)^2 with the exact norms 2 pi and 4 pi; the
    # published rounding is 848.71
    assert c == pytest.approx(848.71661149946567, rel=1e-12)
    assert abs(c - 848.71) < 1e-2
    assert c == pytest.approx((4.0 + 8.0 * math.pi) ** 2, rel=5e-5)


def test_error_bound_l2_values_and_checks():
    # sqrt(C eps) = (4 + 8 pi)/10 at eps = 0.01, gamma = 1
    assert error_bound_l2(0.01, 1.0, 0.0) == pytest.approx(2.913274122871835,
                                                           rel=1e-12)
    # adding tail energy grows the bound monotonically
    assert error_bound_l2(0.01, 1.0, 1.0) > error_bound_l2(0.01, 1.0, 0.0)
    with pytest.raises(ValueError):
        error_bound_l2(0.01, 1.0, -0.5)
    with pytest.raises(ValueError):
        error_bound_l2(0.5, 1.0, 0.0)


def test_error_bound_hm_closed_case():
    # m = 1, C1 = 1, eps = e^{-10}: D = sqrt(3), bound = sqrt(3)/10
    got = error_bound_hm(math.exp(-10.0), 1.0, 1.0)
    assert got == pytest.approx(math.sqrt(3.0) / 10.0, rel=1e-14)
    # C1 = 2, eps = 1e-5: D = sqrt(6), bound = sqrt(6)/ln(1e5)
    assert error_bound_hm(1e-5, 1.0, 2.0) == pytest.approx(
        math.sqrt(6.0) / math.log(1e5), rel=1e-12)
    with pytest.raises(ValueError):
        error_bound_hm(math.exp(-10.0), 1.0, 0.0)


def test_record_carries_params_tail_and_bound():
    prob = test_problem("P2")
    dg = GridSpec(-5.0, 10.0 / 64, 65, 0.302721828598366 * 0.1, 0.1, 80)
    og = GridSpec(0.0, 1.0 / 8, 9, 0.5, 0.3, 9)
    f, g = sample(prob.f0, dg), sample(prob.g0, dg)
    l2 = RegParams(epsilon=0.01, gamma=1.0)
    rec = reconstruct((f, g), l2, dg, og, v_exact=prob.v_exact)
    assert rec.params is l2
    assert rec.eta_hat > 0.0
    assert rec.bound_l2 == pytest.approx(
        math.sqrt(_c_constant() * 0.01 + rec.eta_hat), rel=1e-14)
    # without the exact solution there is no tail, and the bound is its
    # tail-free part
    bare = reconstruct((f, g), l2, dg, og)
    assert bare.eta_hat is None and bare.measured_error is None
    assert bare.bound_l2 == pytest.approx(math.sqrt(_c_constant() * 0.01),
                                          rel=1e-14)
    # HM mode has no L2 bound
    hm = RegParams(epsilon=1e-4, m=0.5, mode=RegMode.HM)
    rec_hm = reconstruct((f, g), hm, dg, og, v_exact=prob.v_exact)
    assert rec_hm.params is hm
    assert rec_hm.eta_hat is not None and rec_hm.bound_l2 is None


def test_identity_residual_zero_data_and_grid_mismatch():
    g = GridSpec(-2.0, 0.5, 9, 0.05, 0.1, 8)
    zero = RealField(g, np.zeros(g.shape))
    assert identity_residual(zero, zero, zero, g) == 0.0
    g2 = GridSpec(-2.0, 0.5, 9, 0.05, 0.2, 8)
    with pytest.raises(ValueError, match="share a grid"):
        identity_residual(zero, zero, RealField(g2, np.zeros(g2.shape)), g)


def test_identity_residual_takes_f_zero_to_the_signed_convolution():
    # with f = 0 the right-hand side is F = -(S*g), so the defect is
    # |S*v + S*g| / |S*g| to the bit
    g = GridSpec(-3.0, 0.25, 25, 0.05, 0.1, 30)
    rng = np.random.Generator(np.random.Philox(17))
    gdat = RealField(g, rng.standard_normal(g.shape))
    vdat = RealField(g, rng.standard_normal(g.shape))
    zero = RealField(g, np.zeros(g.shape))
    from sidecast.kernels import S_SPEC
    sv = convolve2_causal(S_SPEC, vdat, g).values
    sg = convolve2_causal(S_SPEC, gdat, g).values
    want = (math.sqrt(g.cell_area * float(np.sum((sv + sg) ** 2)))
            / math.sqrt(g.cell_area * float(np.sum(sg ** 2))))
    assert identity_residual(vdat, zero, gdat, g) == want


def test_rhs_transform_matches_symbol_product_two_sided():
    # F_hat must equal kappa * s_hat * v0_hat with kappa = 2 pi, and must
    # NOT with kappa = 1; this pins the 4 pi data term and the convolution
    # factor at once, in terms of the exact problem
    prob = test_problem("P1")
    from sidecast.harness import default_data_grid, kappa_calibration
    dg = default_data_grid(nx=257, nt=800, dt=0.05)
    res_2pi, res_one = kappa_calibration(data_grid=dg)
    assert res_2pi < 0.1
    assert res_one > 0.5
    # and against the fully analytic transform of the exact solution
    params = RegParams(epsilon=0.01, gamma=1.0)
    w = region_for(params)
    sg = GridSpec.centered(1.25 * w.zmax, 65, 1.25 * w.rmax, 65)
    f = sample(prob.f0, dg)
    g = sample(prob.g0, dg)
    f_hat = dft2_forward(identity_rhs(f, g), sg)
    Z, R = np.meshgrid(sg.x_nodes(), sg.t_nodes(), indexing="ij")
    W = np.sqrt(Z.astype(complex) ** 2 + 1j * R)
    keep = np.abs(W) > 0.3  # the exact transform has a 1/w pole at 0
    with np.errstate(divide="ignore", invalid="ignore"):
        analytic = CONVOLUTION_FACTOR * s_hat(Z, R) / W
    rel = np.abs(f_hat.values - analytic)[keep] / np.abs(analytic)[keep]
    # honest tolerances: the data grid truncates the slowly decaying time
    # tail at T = 40, which costs percent-level errors that blow up
    # pointwise only at box-edge nodes where the symbol is tiny (a wrong
    # kappa or data weight would instead sit at order one everywhere)
    assert float(np.median(rel)) < 0.05
    assert float(np.quantile(rel, 0.9)) < 0.2


def test_continue_sideways_maps_layer_traces_to_the_surface():
    # the depth-1 and depth-2 layer traces are the histories of the surface
    # trace layer_trace(0), whose transform is 1/w; even node counts keep
    # the grid of the window |z| <= 2, |r| <= 4 off that pole at the origin
    sg = GridSpec.centered(2.0, 10, 4.0, 10)
    Z, R = np.meshgrid(sg.x_nodes(), sg.t_nodes(), indexing="ij")
    f_hat = ComplexField(sg, layer_trace_hat(1.0)(Z, R))
    g_hat = ComplexField(sg, layer_trace_hat(4.0)(Z, R))
    got = continue_sideways(f_hat, g_hat)
    want = layer_trace_hat(0.0)(Z, R)
    assert got.grid == sg
    rel = np.abs(got.values - want) / np.abs(want)
    assert float(np.max(rel)) < 1e-12


# the coarse data grid of the CLI tests and the coarse output windows of
# the harness tests
_COARSE_DATA = GridSpec(x0=-10.0, dx=0.078125, nx=257, t0=0.05, dt=0.08,
                        nt=500)


@pytest.mark.parametrize("pid,out_grid", [
    ("P1", GridSpec(0.25, 1.05 / 16, 17, 0.1, 3.9 / 16, 17)),
    ("P2", GridSpec(0.0, 1.0 / 32, 33, 0.1, 3.9 / 32, 33)),
])
def test_closed_form_agrees_with_the_convolution_route(pid, out_grid):
    # the convolution identity divided by its symbol, composed here from
    # the check path, must give the same reconstruction up to quadrature
    params = RegParams(epsilon=0.02, gamma=1.0)
    f, g = noisy_histories(test_problem(pid), _COARSE_DATA, params.epsilon,
                           seed=11)
    v_hat = reconstruct_spectrum(
        (f, g), plan(params, _COARSE_DATA, out_grid), _COARSE_DATA)
    rhs_hat = dft2_forward(identity_rhs(f, g), v_hat.grid)
    Z, R = np.meshgrid(v_hat.grid.x_nodes(), v_hat.grid.t_nodes(),
                       indexing="ij")
    divided = rhs_hat.values / (CONVOLUTION_FACTOR * s_hat(Z, R))
    xs, ts = out_grid.x_nodes()[:, None], out_grid.t_nodes()[None, :]
    old = idft2_windowed_at(ComplexField(v_hat.grid, divided), xs, ts)
    new = RealField(out_grid, idft2_windowed_at(v_hat, xs, ts))
    gap = l2_norm(RealField(out_grid, old - new.values)) / l2_norm(new)
    assert gap < 2e-2


@pytest.mark.parametrize("axis", ["z", "r"])
@pytest.mark.parametrize("scale,past", [(1.0 - 1e-9, False),
                                        (1.0 + 1e-9, True)])
def test_window_past_the_data_nyquist_limit_is_rejected(axis, scale, past):
    # pi/step sits a relative 1e-9 above (inside) or below (past) the
    # window's half-width on one axis; the other axis keeps a wide margin
    params = RegParams(epsilon=0.02, gamma=1.0)
    window = region_for(params)
    dx = math.pi / window.zmax * scale if axis == "z" else 0.5
    dt = math.pi / window.rmax * scale if axis == "r" else 0.1
    dg = GridSpec(x0=-2.0, dx=dx, nx=9, t0=0.3 * dt, dt=dt, nt=8)
    prob = test_problem("P1")
    f, g = sample(prob.f0, dg), sample(prob.g0, dg)
    if past:
        limits = "Nyquist limits pi/dx = %.6g, pi/dt = %.6g" % (
            math.pi / dx, math.pi / dt)
        with pytest.raises(ValueError, match=re.escape(limits)):
            reconstruct_spectrum((f, g), plan(params, dg, dg), dg)
    else:
        v_hat = reconstruct_spectrum((f, g), plan(params, dg, dg), dg)
        assert np.all(np.isfinite(v_hat.values))


def _lattice_bins(field, window):
    # the padded lengths (L_x, L_t) behind dft2_lattice: its step is
    # 2 pi/(L step) per axis
    g, lat = field.grid, dft2_lattice(field, window).grid
    return (round(2.0 * math.pi / (lat.dx * g.dx)),
            round(2.0 * math.pi / (lat.dt * g.dt)), lat)


def test_tail_energy_counts_outside_nodes():
    # a unit spike has |v0_hat| = dx dt/(2 pi) on every bin of the padded
    # lattice, so the tail is ||v0||^2 = dx dt times the share of the
    # L_x L_t bins that lie outside the window
    g = GridSpec(-1.3, 0.5, 8, 0.2, 0.25, 10)
    spike = np.zeros(g.shape)
    spike[3, 4] = 1.0
    v0 = RealField(g, spike)
    for scale in (0.3, 1.0 - 1e-9):
        window = SpectralWindow(scale * math.pi / g.dx,
                                scale * math.pi / g.dt)
        lx, lt, lat = _lattice_bins(v0, window)
        Z, R = np.meshgrid(lat.x_nodes(), lat.t_nodes(), indexing="ij")
        kept = np.count_nonzero(window_contains(window, Z, R))
        got = tail_energy(v0, window)
        assert got == pytest.approx(g.cell_area * (1.0 - kept / (lx * lt)),
                                    rel=1e-12)
    # just inside the Nyquist limits only the Nyquist row and column of
    # bins lie outside
    assert kept == (lx - 1) * (lt - 1)


def _padded_tail(field, window):
    # the direct out-of-window sum over every bin of the padded FFT, with
    # bin k at frequency k * 2 pi/(L step) for k in [-L/2, L/2)
    g = field.grid
    lx, lt, lat = _lattice_bins(field, window)
    bins = np.fft.fft2(field.values, s=(lx, lt)) \
        * (g.cell_area / (2.0 * math.pi))
    zs = np.fft.fftfreq(lx) * lx * lat.dx
    rs = np.fft.fftfreq(lt) * lt * lat.dt
    outside = ~window_contains(window, zs[:, None], rs[None, :])
    return float(np.sum(np.abs(bins[outside]) ** 2)) * lat.cell_area


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 24), st.integers(3, 24), st.floats(0.05, 1.0),
       st.floats(0.05, 1.0), st.sampled_from([0.2, 0.7, 1.0 - 1e-9]),
       st.sampled_from([0.2, 0.7, 1.0 - 1e-9]), st.integers(0, 10 ** 6))
def test_tail_energy_is_the_padded_out_of_window_sum(nx, nt, dx, dt, fz, fr,
                                                     seed):
    # windows at fz = fr = 1 - 1e-9 sit at the Nyquist edge, where a crop
    # wrapped past bin L/2 would count that bin twice; windows are at least
    # one lattice step 2 pi/(L step) wide, since a narrower one is refused
    g = GridSpec(-0.37 * nx * dx, dx, nx, 0.3 * dt, dt, nt)
    rng = np.random.Generator(np.random.Philox(seed))
    v0 = RealField(g, rng.standard_normal(g.shape))
    lx = 2 * scipy.fft.next_fast_len(nx, real=True)
    lt = 2 * scipy.fft.next_fast_len(nt, real=True)
    window = SpectralWindow(max(fz * math.pi / dx, 2.0 * math.pi / (lx * dx)),
                            max(fr * math.pi / dt, 2.0 * math.pi / (lt * dt)))
    got = tail_energy(v0, window)
    want = _padded_tail(v0, window)
    assert got >= 0.0
    assert got == pytest.approx(want, rel=1e-10, abs=1e-12 * l2_norm(v0) ** 2)


def test_reconstruct_reports_the_full_band_tail():
    # eta_hat against the check path's matrix DFT on a grid of every bin
    # of the padded lattice, out to the data Nyquist limits
    prob = test_problem("P2")
    dg = GridSpec(-5.0, 10.0 / 64, 65, 0.302721828598366 * 0.1, 0.1, 80)
    params = RegParams(epsilon=0.02, gamma=1.0)
    f, g = sample(prob.f0, dg), sample(prob.g0, dg)
    rec = reconstruct((f, g), params, dg,
                      GridSpec(0.0, 0.125, 9, 0.5, 0.3, 9),
                      v_exact=prob.v_exact)
    v0 = sample(prob.v_exact, dg)
    lx, lt, lat = _lattice_bins(v0, rec.window)
    band = GridSpec(-(lx // 2) * lat.dx, lat.dx, lx,
                    -(lt // 2) * lat.dt, lat.dt, lt)
    spec = dft2_forward(v0, band).values
    Z, R = np.meshgrid(band.x_nodes(), band.t_nodes(), indexing="ij")
    outside = ~window_contains(rec.window, Z, R)
    want = float(np.sum(np.abs(spec[outside]) ** 2)) * band.cell_area
    assert rec.eta_hat == pytest.approx(want, rel=1e-9)


def test_spectrum_lattice_is_set_by_the_data_grid():
    # the step is 2 pi/(L step) with L >= 2n, so the alias period is at
    # least twice the data extent; the crop keeps exactly the window's
    # nodes, so one more step on either side lies outside it
    params = RegParams(epsilon=0.01, gamma=1.0)
    f, g = noisy_histories(test_problem("P1"), _COARSE_DATA, 0.01, seed=0)
    w = plan(params, _COARSE_DATA, _COARSE_DATA)
    v_hat = reconstruct_spectrum((f, g), w, _COARSE_DATA)
    lat = v_hat.grid
    assert 2.0 * math.pi / lat.dx >= 2 * _COARSE_DATA.nx * _COARSE_DATA.dx
    assert 2.0 * math.pi / lat.dt >= 2 * _COARSE_DATA.nt * _COARSE_DATA.dt
    zs, rs = lat.x_nodes(), lat.t_nodes()
    assert zs[-1] <= w.zmax < zs[-1] + lat.dx
    assert rs[-1] <= w.rmax < rs[-1] + lat.dt
    assert zs[0] == pytest.approx(-zs[-1]) and rs[0] == pytest.approx(-rs[-1])


def test_reconstruct_small_p2_end_to_end():
    prob = test_problem("P2")
    dg = GridSpec(-10.0, 20.0 / 256, 257, 0.302721828598366 * 0.08, 0.08, 500)
    og = GridSpec(0.0, 1.0 / 32, 33, 0.1, 3.9 / 32, 33)
    params = RegParams(epsilon=0.02, gamma=1.0)
    f = sample(prob.f0, dg)
    g = sample(prob.g0, dg)
    rec = reconstruct((f, g), params, dg, og, v_exact=prob.v_exact)
    v_eps = rec.v_eps
    exact = sample(prob.v_exact, og)
    rel = l2_norm(RealField(og, v_eps.values - exact.values)) / l2_norm(exact)
    assert rel < 0.3
    assert rec.eta_hat is not None and rec.eta_hat >= 0.0
    assert rec.bound_l2 >= math.sqrt(_c_constant() * 0.02)
    # without the exact solution no tail estimate is possible
    rec2 = reconstruct((f, g), params, dg, og)
    assert rec2.eta_hat is None and rec2.bound_l2 is not None


def test_reconstruct_carries_the_divided_spectrum():
    prob = test_problem("P2")
    dg = GridSpec(-5.0, 10.0 / 64, 65, 0.302721828598366 * 0.1, 0.1, 80)
    og = GridSpec(0.0, 1.0 / 8, 9, 0.5, 0.3, 9)
    params = RegParams(epsilon=0.02, gamma=1.0)
    f, g = sample(prob.f0, dg), sample(prob.g0, dg)
    rec = reconstruct((f, g), params, dg, og)
    window = plan(params, dg, og)
    v_hat = reconstruct_spectrum((f, g), window, dg)
    assert rec.window == window
    np.testing.assert_array_equal(rec.v_hat.values, v_hat.values)


def test_streamed_and_tuple_histories_agree_to_the_bit():
    prob = test_problem("P1")
    og = GridSpec(0.25, 1.05 / 16, 17, 0.1, 3.9 / 16, 17)
    params = RegParams(epsilon=0.02, gamma=1.0)
    pair = tuple(noisy_histories(prob, _COARSE_DATA, 0.02, seed=4))
    a = reconstruct(pair, params, _COARSE_DATA, og, v_exact=prob.v_exact)
    b = reconstruct(noisy_histories(prob, _COARSE_DATA, 0.02, seed=4),
                    params, _COARSE_DATA, og, v_exact=prob.v_exact)
    assert a.v_eps.values.tobytes() == b.v_eps.values.tobytes()
    assert a.v_hat.values.tobytes() == b.v_hat.values.tobytes()
    assert (a.eta_hat, a.bound_l2, a.measured_error) == \
        (b.eta_hat, b.bound_l2, b.measured_error)
    assert a.params == b.params and a.window == b.window


@pytest.mark.parametrize("streamed", [False, True])
def test_the_record_carries_its_data_grid_and_measured_error(streamed):
    # the data grid is the histories', from a tuple or from a generator;
    # measured_error is the L2 distance to the sampled exact solution to
    # the bit, and None without one
    prob = test_problem("P1")
    og = GridSpec(0.25, 1.05 / 16, 17, 0.1, 3.9 / 16, 17)
    params = RegParams(epsilon=0.02, gamma=1.0)

    def histories():
        stream = noisy_histories(prob, _COARSE_DATA, 0.02, seed=4)
        return stream if streamed else tuple(stream)

    rec = reconstruct(histories(), params, _COARSE_DATA, og,
                      v_exact=prob.v_exact)
    assert rec.data_grid == _COARSE_DATA
    assert rec.measured_error == l2_distance(rec.v_eps,
                                             sample(prob.v_exact, og))
    bare = reconstruct(histories(), params, _COARSE_DATA, og)
    assert bare.data_grid == _COARSE_DATA and bare.measured_error is None


@pytest.mark.parametrize("n,missing", [(0, "f"), (1, "g")])
def test_histories_that_end_early_are_refused(n, missing):
    f = sample(test_problem("P2").f0, _COARSE_DATA)
    with pytest.raises(ValueError,
                       match="the histories end before %s" % missing):
        reconstruct((f,) * n, RegParams(epsilon=0.02, gamma=1.0),
                    _COARSE_DATA, GridSpec(0.0, 0.125, 9, 0.5, 0.3, 9))


def test_a_streamed_g_on_another_grid_is_refused():
    prob = test_problem("P2")
    dg = GridSpec(-5.0, 10.0 / 64, 65, 0.302721828598366 * 0.1, 0.1, 80)
    other = GridSpec(-5.0, 10.0 / 64, 65, 0.302721828598366 * 0.1, 0.1, 81)

    def histories():
        yield sample(prob.f0, dg)
        yield sample(prob.g0, other)

    with pytest.raises(ValueError, match="f and g grids differ"):
        reconstruct(histories(), RegParams(epsilon=0.02, gamma=1.0), dg,
                    GridSpec(0.0, 0.125, 9, 0.5, 0.3, 9))


def test_an_f_off_the_data_grid_is_refused():
    # the data grid is the caller's, not read off f
    prob = test_problem("P2")
    dg = GridSpec(-5.0, 10.0 / 64, 65, 0.302721828598366 * 0.1, 0.1, 80)
    other = GridSpec(-5.0, 10.0 / 64, 65, 0.302721828598366 * 0.1, 0.1, 81)
    f, g = sample(prob.f0, other), sample(prob.g0, other)
    with pytest.raises(ValueError, match="f is not on the data grid"):
        reconstruct((f, g), RegParams(epsilon=0.02, gamma=1.0), dg,
                    GridSpec(0.0, 0.125, 9, 0.5, 0.3, 9))


@pytest.mark.parametrize("out_grid,axis,span", [
    # t in [0.5, 160.5]: two periods past the data
    (GridSpec(0.0, 0.25, 5, 0.5, 2.5, 65), "t", "160.494"),
    # t in [-79.5, -39.5]: shorter than a period, but a period from the data
    (GridSpec(0.0, 0.25, 5, -79.5, 10.0, 5), "t", "119.486"),
    # x in [-30, 30] around the data's [-10, 10]
    (GridSpec(-30.0, 15.0, 5, 0.5, 0.5, 5), "x", "60"),
])
def test_output_window_an_alias_period_wide_is_refused(out_grid, axis, span):
    # the default data grid's lattice repeats every L dx = 1080 * 20/512 =
    # 42.1875 in x and L dt = 4000 * 0.02 = 80 in t
    prob = test_problem("P2")
    dg = GridSpec(-10.0, 20.0 / 512, 513, 0.302721828598366 * 0.02, 0.02,
                  2000)
    f, g = sample(prob.f0, dg), sample(prob.g0, dg)
    params = RegParams(epsilon=0.02, gamma=1.0)
    period = "42.1875" if axis == "x" else "80"
    with pytest.raises(ValueError, match=re.escape(
            "output window %s in" % axis)) as exc:
        reconstruct((f, g), params, dg, out_grid)
    msg = str(exc.value)
    assert "together span %s" % span in msg
    assert "P = %s" % period in msg and "longer data grid" in msg
    # the same window shifted to the data is reconstructed
    near = GridSpec(0.0, 0.25, 5, 0.5, 1.0, 5)
    assert np.all(np.isfinite(
        reconstruct((f, g), params, dg, near).v_eps.values))


def _p2_default_histories():
    dg = default_data_grid()
    prob = test_problem("P2")
    return dg, (sample(prob.f0, dg), sample(prob.g0, dg))


@pytest.mark.parametrize("out_grid, axis, interval", [
    # t in [45, 60], past the last data node at t = 39.986
    (GridSpec(0.0, 0.0078125, 129, 45.0, 0.1171875, 129), "t",
     "[0.00605444, 39.9861]"),
    # x in [12, 16], past |x| <= 10
    (GridSpec(12.0, 0.125, 33, 0.5, 0.1, 33), "x", "[-10, 10]"),
    # t in [0, 3.2], before the first data node
    (GridSpec(0.0, 0.125, 9, 0.0, 0.1, 33), "t", "[0.00605444, 39.9861]"),
])
def test_output_window_outside_the_data_is_refused(out_grid, axis,
                                                     interval):
    dg, histories = _p2_default_histories()
    with pytest.raises(ValueError, match=re.escape(
            "output window %s in" % axis)) as exc:
        reconstruct(histories, RegParams(epsilon=0.02, gamma=1.0), dg,
                    out_grid)
    assert "leaves the data interval %s" % interval in str(exc.value)


def test_output_window_ending_on_the_data_edges_is_reconstructed():
    # the window's ends are computed as x0 + (n-1) dx, so they meet the
    # data's first and last nodes only up to rounding: this one ends an
    # ulp past the last t node
    dg, histories = _p2_default_histories()
    t_last = dg.t0 + (dg.nt - 1) * dg.dt
    out = GridSpec(-10.0, 2.5, 9, t_last - 6 * 0.7, 0.7, 7)
    assert 0.0 < out.t0 + (out.nt - 1) * out.dt - t_last < 1e-12
    assert out.x0 + (out.nx - 1) * out.dx == 10.0
    rec = reconstruct(histories, RegParams(epsilon=0.02, gamma=1.0), dg,
                      out)
    assert np.all(np.isfinite(rec.v_eps.values))
