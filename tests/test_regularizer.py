"""Cutoff formulas, bound constants, right-hand-side assembly, and the
spectral division, with frozen high-precision anchors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidecast.fields import ComplexField, GridSpec, RealField, l2_norm, sample
from sidecast.kernels import s_hat, s_hat_abs, test_problem
from sidecast.regularizer import (CONVOLUTION_FACTOR, BoundReport,
                                  CutoffRegion, RegMode, RegParams,
                                  assemble_rhs, build_report, cutoff_hm,
                                  cutoff_l2, default_coverage_grid,
                                  default_spectral_grid, error_bound_hm,
                                  error_bound_l2, reconstruct,
                                  reconstruct_spectrum, region_for,
                                  spectral_division, tail_energy)
from sidecast.transform import SpectralWindow, convolve2_causal, dft2_forward

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
    assert reg.b_eps == pytest.approx(B_001_10, rel=1e-12)
    assert reg.window.zmax == reg.b_eps
    assert reg.window.rmax == pytest.approx(reg.b_eps ** 2, rel=1e-15)
    with pytest.warns(UserWarning):
        reg2 = region_for(RegParams(epsilon=0.001, m=1.0, mode=RegMode.HM))
    assert reg2.window.zmax == reg2.window.rmax == reg2.a_eps


def test_c_constant_value():
    rep = build_report(RegParams(epsilon=0.01, gamma=1.0))
    # (4 + 2||R||_1 + ||S||_1)^2 by quadrature; the published rounding
    # is 848.71 and the closed form with exact norms is (4 + 8 pi)^2
    assert rep.C == pytest.approx(848.70313304926333, rel=1e-12)
    assert abs(rep.C - 848.71) < 1e-2
    assert rep.C == pytest.approx((4.0 + 8.0 * math.pi) ** 2, rel=5e-5)


def test_error_bound_l2_values_and_checks():
    assert error_bound_l2(0.01, 1.0, 0.0) == pytest.approx(2.9132509899582346,
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
    with pytest.raises(ValueError):
        error_bound_hm(math.exp(-10.0), 1.0, 0.0)


def test_build_report_mode_fields():
    rep = build_report(RegParams(epsilon=0.01, gamma=1.0), eta_hat=0.25)
    assert rep.eta_hat == 0.25
    assert rep.bound_l2 == pytest.approx(
        math.sqrt(rep.C * 0.01 + 0.25), rel=1e-14)
    assert rep.bound_hm is None
    hm = RegParams(epsilon=1e-5, m=1.0, mode=RegMode.HM)
    rep2 = build_report(hm, c1=2.0)
    assert rep2.D == pytest.approx(math.sqrt(2.0 * 3.0), rel=1e-14)
    assert rep2.bound_hm == pytest.approx(rep2.D / math.log(1e5), rel=1e-12)
    assert rep2.bound_l2 is None


def test_assemble_rhs_zero_data_and_grid_mismatch():
    g = GridSpec(-2.0, 0.5, 9, 0.05, 0.1, 8)
    zero = RealField(g, np.zeros(g.shape))
    assert np.all(assemble_rhs(zero, zero).values == 0.0)
    g2 = GridSpec(-2.0, 0.5, 9, 0.05, 0.2, 8)
    with pytest.raises(ValueError):
        assemble_rhs(zero, RealField(g2, np.zeros(g2.shape)))


def test_assemble_rhs_reduces_to_signed_convolution_when_f_is_zero():
    g = GridSpec(-3.0, 0.25, 25, 0.05, 0.1, 30)
    rng = np.random.Generator(np.random.Philox(17))
    gdat = RealField(g, rng.standard_normal(g.shape))
    zero = RealField(g, np.zeros(g.shape))
    from sidecast.kernels import S_SPEC
    want = -convolve2_causal(S_SPEC, gdat, g).values
    assert np.array_equal(assemble_rhs(zero, gdat).values, want)


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
    region = region_for(params)
    sg = default_spectral_grid(region, nodes=65)
    f = sample(prob.f0, dg)
    g = sample(prob.g0, dg)
    f_hat = dft2_forward(assemble_rhs(f, g), sg)
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


def test_spectral_division_inverts_symbol_products():
    sg = GridSpec.centered(4.0, 21, 8.0, 21)
    Z, R = np.meshgrid(sg.x_nodes(), sg.t_nodes(), indexing="ij")
    spec = ComplexField(sg, CONVOLUTION_FACTOR * s_hat(Z, R))
    region = CutoffRegion(SpectralWindow.rect(2.0, 4.0), b_eps=2.0)
    got = spectral_division(spec, region)
    inside = region.window.contains(Z, R)
    assert np.max(np.abs(got.values[inside] - 1.0)) < 1e-12
    assert np.all(got.values[~inside] == 0.0)


def test_tail_energy_counts_outside_nodes():
    sg = GridSpec.centered(3.0, 7, 3.0, 7)
    ones = ComplexField(sg, np.ones((7, 7), dtype=complex))
    region = CutoffRegion(SpectralWindow.rect(1.0, 1.0))
    # nodes at -3..3 step 1; |z|<=1 and |r|<=1 keeps 3x3 of 49
    want = (49 - 9) * sg.cell_area
    assert tail_energy(ones, region) == pytest.approx(want, rel=1e-14)
    # a window covering the whole grid leaves nothing outside
    full = CutoffRegion(SpectralWindow.rect(3.0, 3.0))
    assert tail_energy(ones, full) == 0.0


def test_default_grids_cover_the_window():
    region = region_for(RegParams(epsilon=0.01, gamma=1.0))
    sg = default_spectral_grid(region)
    assert sg.nx == sg.nt == 257
    assert sg.x_nodes()[-1] == pytest.approx(1.25 * region.window.zmax)
    cov = default_coverage_grid(region)
    assert cov.x_nodes()[-1] == pytest.approx(3.0 * region.window.zmax)


def test_reconstruct_small_p2_end_to_end():
    prob = test_problem("P2")
    dg = GridSpec(-10.0, 20.0 / 256, 257, 0.302721828598366 * 0.08, 0.08, 500)
    og = GridSpec(0.0, 1.0 / 32, 33, 0.1, 3.9 / 32, 33)
    params = RegParams(epsilon=0.02, gamma=1.0)
    f = sample(prob.f0, dg)
    g = sample(prob.g0, dg)
    rec = reconstruct(f, g, params, og, v_exact=prob.v_exact)
    v_eps, report = rec.v_eps, rec.report
    exact = sample(prob.v_exact, og)
    rel = l2_norm(RealField(og, v_eps.values - exact.values)) / l2_norm(exact)
    assert rel < 0.3
    assert report.eta_hat is not None and report.eta_hat >= 0.0
    assert report.bound_l2 >= math.sqrt(report.C * 0.02)
    # without the exact solution no tail estimate is possible
    rep2 = reconstruct(f, g, params, og).report
    assert rep2.eta_hat is None and rep2.bound_l2 is not None


def test_reconstruct_carries_the_divided_spectrum():
    prob = test_problem("P2")
    dg = GridSpec(-5.0, 10.0 / 64, 65, 0.302721828598366 * 0.1, 0.1, 80)
    og = GridSpec(0.0, 1.0 / 8, 9, 0.5, 0.3, 9)
    params = RegParams(epsilon=0.02, gamma=1.0)
    f, g = sample(prob.f0, dg), sample(prob.g0, dg)
    rec = reconstruct(f, g, params, og)
    v_hat, region = reconstruct_spectrum(f, g, params)
    assert rec.region == region
    np.testing.assert_array_equal(rec.v_hat.values, v_hat.values)
