"""Transform pair normalization, windowed inversion, and causal convolution
against literal direct-sum references."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sidecast.fields import GridSpec, ComplexField, RealField, sample
from sidecast.harness import (_lattice_offsets, convolve2_causal,
                              default_data_grid, dft2_forward)
from sidecast.kernels import R_SPEC, S_SPEC, KernelSpec
from sidecast.regularizer import RegParams
from sidecast.transform import (SpectralWindow, _fast_len, _tol, dft2_lattice,
                                idft2_windowed_at)

from direct_reference import (convolve2_direct, dft2_direct, idft2_direct,
                              window_contains)


def _gaussian_field(extent=8.0, n=161):
    g = GridSpec.centered(extent, n, extent, n)
    return sample(lambda x, t: np.exp(-x * x - t * t), g)


def test_window_validation():
    with pytest.raises(ValueError):
        SpectralWindow(-1.0, 2.0)


def test_window_contains_is_inclusive_at_the_boundary():
    w = SpectralWindow(2.0, 5.0)
    assert window_contains(w, 2.0, 0.0)
    assert window_contains(w, -2.0, 5.0)
    assert not window_contains(w, 2.0 * (1 + 1e-9), 0.0)
    assert not window_contains(w, 0.0, 5.1)


def test_forward_transform_gaussian_anchor():
    # (1/2pi) FT of e^{-x^2-t^2} is (1/2) e^{-(z^2+r^2)/4}; the rectangle rule
    # on a rapidly decaying smooth function is spectrally accurate
    f = _gaussian_field()
    sg = GridSpec.centered(3.0, 7, 3.0, 7)
    got = dft2_forward(f, sg)
    Z, R = np.meshgrid(sg.x_nodes(), sg.t_nodes(), indexing="ij")
    want = 0.5 * np.exp(-(Z ** 2 + R ** 2) / 4.0)
    assert np.max(np.abs(got.values - want)) < 1e-12
    assert complex(got.values[3, 3]) == pytest.approx(0.5, rel=1e-13)


def test_forward_transform_matches_direct_sum():
    g = GridSpec(-0.7, 0.31, 5, 0.1, 0.27, 4)
    rng = np.random.Generator(np.random.Philox(3))
    f = RealField(g, rng.standard_normal(g.shape))
    sg = GridSpec(-1.5, 0.8, 4, -1.1, 0.7, 5)
    a = dft2_forward(f, sg).values
    b = dft2_direct(f, sg).values
    assert np.max(np.abs(a - b)) < 1e-12 * max(1.0, np.max(np.abs(b)))


@pytest.mark.parametrize("dtype", [float, complex])
def test_forward_transform_matches_direct_sum_on_a_long_t_axis(dtype):
    # the check shapes of kappa_calibration: many more t nodes than r
    # nodes, and more x nodes than z nodes
    g = GridSpec(-1.3, 0.29, 9, 0.02, 0.05, 90)
    rng = np.random.Generator(np.random.Philox(5))
    vals = rng.standard_normal(g.shape)
    if dtype is complex:
        f = ComplexField(g, vals + 1j * rng.standard_normal(g.shape))
    else:
        f = RealField(g, vals)
    sg = GridSpec(-1.2, 0.9, 4, -2.0, 1.7, 3)
    a = dft2_forward(f, sg).values
    b = dft2_direct(f, sg).values
    assert np.max(np.abs(a - b)) < 1e-12 * max(1.0, np.max(np.abs(b)))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 20), st.integers(2, 20), st.floats(0.05, 1.0),
       st.floats(0.05, 1.0), st.floats(-3.0, 3.0), st.floats(0.01, 2.0),
       st.sampled_from([0.1, 0.6, 1.0 - 1e-9]),
       st.sampled_from([0.1, 0.6, 1.0 - 1e-9]), st.integers(0, 10 ** 6))
def test_lattice_is_the_matrix_dft_on_its_own_nodes(nx, nt, dx, dt, x0, t0,
                                                    fz, fr, seed):
    g = GridSpec(x0, dx, nx, t0, dt, nt)
    rng = np.random.Generator(np.random.Philox(seed))
    f = RealField(g, rng.standard_normal(g.shape))
    # at least one lattice step wide: a narrower window is refused
    w = SpectralWindow(max(fz * math.pi / dx, _lattice_step(nx, dx)),
                       max(fr * math.pi / dt, _lattice_step(nt, dt)))
    lat = dft2_lattice(f, w)
    ref = dft2_forward(f, lat.grid).values
    assert np.max(np.abs(lat.values - ref)) <= 1e-12 * np.max(np.abs(ref))
    # alias period 2 pi/step of at least twice the data extent per axis
    assert 2.0 * math.pi / lat.grid.dx >= 2.0 * nx * dx * (1.0 - 1e-12)
    assert 2.0 * math.pi / lat.grid.dt >= 2.0 * nt * dt * (1.0 - 1e-12)
    # exactly the window's nodes: the last node on each side lies inside
    # it, one more step lies outside, and the Nyquist bin is never reached
    zs, rs = lat.grid.x_nodes(), lat.grid.t_nodes()
    assert zs[0] == pytest.approx(-zs[-1])
    assert rs[0] == pytest.approx(-rs[-1])
    assert window_contains(w, zs[-1], rs[-1])
    assert not window_contains(w, zs[-1] + lat.grid.dx, 0.0)
    assert not window_contains(w, 0.0, rs[-1] + lat.grid.dt)
    assert zs[-1] < math.pi / dx and rs[-1] < math.pi / dt


def test_fast_len_is_scipys_real_next_fast_len():
    # the padded lattice, and so every output byte, depends on this length
    for n in range(1, 20001):
        assert _fast_len(n) == scipy.fft.next_fast_len(n, real=True), n


def _lattice_step(n, step):
    # the step of dft2_lattice on an axis of n nodes: 2 pi/(L step) with
    # L = 2 next_fast_len(n)
    return 2.0 * math.pi / (2 * scipy.fft.next_fast_len(n, real=True) * step)


@pytest.mark.parametrize("zmax,rmax", [(0.9, 4.0), (4.0, 0.9), (0.9, 0.9)])
def test_lattice_refuses_a_window_narrower_than_one_step(zmax, rmax):
    # 6 x 8 nodes pad to 12 x 16: lattice steps pi/3 and pi/2, so a
    # half-width of 0.9 keeps only the zero frequency on its axis
    g = GridSpec(0.0, 0.5, 6, 0.1, 0.25, 8)
    f = RealField(g, np.ones(g.shape))
    with pytest.raises(ValueError, match="narrower than one lattice step"
                                         ".*longer data grid"):
        dft2_lattice(f, SpectralWindow(zmax, rmax))
    assert dft2_lattice(f, SpectralWindow(1.1, 1.6)).grid.shape == (3, 3)


def test_lattice_matches_direct_sum():
    g = GridSpec(-0.7, 0.31, 5, 0.1, 0.27, 4)
    rng = np.random.Generator(np.random.Philox(3))
    f = RealField(g, rng.standard_normal(g.shape))
    lat = dft2_lattice(f, SpectralWindow(4.0, 6.0))
    b = dft2_direct(f, lat.grid).values
    assert np.max(np.abs(lat.values - b)) < 1e-12 * max(1.0, np.max(np.abs(b)))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.integers(2, 40), st.floats(0.05, 1.0),
       st.floats(0.05, 1.0), st.floats(-3.0, 3.0).filter(lambda v: v != 0),
       st.floats(0.01, 2.0), st.booleans(),
       st.sampled_from([0.1, 0.6, 1.0 - 1e-9]),
       st.sampled_from([0.1, 0.6, 1.0 - 1e-9]), st.integers(0, 10 ** 6))
# the square is raised to the t lattice step 2 pi/(40 * 0.05), which is one
# ulp under pi/dx: within rounding of the x Nyquist limit
@example(nx=2, nt=19, dx=0.9999999999999999, dt=0.05, x0=1.0, t0=1.0,
         square=True, fz=0.1, fr=0.1, seed=0)
def test_lattice_is_the_cropped_padded_fft(nx, nt, dx, dt, x0, t0, square,
                                           fz, fr, seed):
    # the pruned transform against the bins of the full padded fft2: an
    # L2 rectangle or an HM square, out to 1 - 1e-9 of the Nyquist limits
    g = GridSpec(x0, dx, nx, t0, dt, nt)
    rng = np.random.Generator(np.random.Philox(seed))
    f = RealField(g, rng.standard_normal(g.shape))
    zmax = max(fz * math.pi / dx, _lattice_step(nx, dx))
    rmax = max(fr * math.pi / dt, _lattice_step(nt, dt))
    if square:
        zmax = rmax = max(fz * min(math.pi / dx, math.pi / dt),
                          _lattice_step(nx, dx), _lattice_step(nt, dt))
        assume(zmax < math.pi / dx and zmax < math.pi / dt)
    if (zmax + _tol(zmax) >= math.pi / dx
            or rmax + _tol(rmax) >= math.pi / dt):
        # a window within rounding of pi/step keeps the Nyquist bin, which
        # +-pi/step share, so it is refused
        with pytest.raises(ValueError, match="reaches the data Nyquist"):
            dft2_lattice(f, SpectralWindow(zmax, rmax))
        return
    lat = dft2_lattice(f, SpectralWindow(zmax, rmax))
    lx = 2 * scipy.fft.next_fast_len(nx, real=True)
    lt = 2 * scipy.fft.next_fast_len(nt, real=True)
    kz, kr = lat.grid.nx // 2, lat.grid.nt // 2
    ks, ls = np.arange(-kz, kz + 1), np.arange(-kr, kr + 1)
    zs, rs = ks * (2.0 * math.pi / (lx * dx)), ls * (2.0 * math.pi / (lt * dt))
    bins = np.fft.fft2(f.values, s=(lx, lt))[np.ix_(ks % lx, ls % lt)]
    want = (bins * np.outer(np.exp(-1j * x0 * zs), np.exp(-1j * t0 * rs))
            * (g.cell_area / (2.0 * math.pi)))
    np.testing.assert_allclose(lat.grid.x_nodes(), zs, rtol=1e-12)
    np.testing.assert_allclose(lat.grid.t_nodes(), rs, rtol=1e-12)
    assert np.max(np.abs(lat.values - want)) <= 1e-12 * np.max(np.abs(want))


def test_lattice_forms_only_the_window_bins():
    # the padded 1080 x 4000 spectrum of the default data grid takes 69 MB,
    # and an rfft along t of all 513 data rows 16 MB; the window at
    # eps = 0.02 keeps 33 x 149 of those bins
    g = default_data_grid()
    f = RealField(g, np.random.Generator(np.random.Philox(5))
                  .standard_normal(g.shape))
    window = RegParams(epsilon=0.02, gamma=1.0).window
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        lat = dft2_lattice(f, window)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert lat.grid.shape == (33, 149)
    assert peak < 4e6


@pytest.mark.parametrize("zmax,rmax", [(math.pi / 0.5, 1.0),
                                       (1.0, math.pi / 0.25)])
def test_lattice_refuses_a_window_at_the_nyquist_limit(zmax, rmax):
    # +-pi/step share one bin of the padded FFT, so a window reaching it
    # would hold that bin twice
    g = GridSpec(0.0, 0.5, 6, 0.1, 0.25, 8)
    f = RealField(g, np.ones(g.shape))
    with pytest.raises(ValueError, match="Nyquist"):
        dft2_lattice(f, SpectralWindow(zmax, rmax))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(-3, 3, allow_nan=False),
       st.floats(-3, 3, allow_nan=False))
def test_forward_transform_is_linear(seed, ca, cb):
    g = GridSpec(0.0, 0.4, 4, 0.0, 0.5, 3)
    sg = GridSpec(-1.0, 0.9, 3, -1.0, 1.1, 3)
    rng = np.random.Generator(np.random.Philox(seed))
    va, vb = rng.standard_normal((2,) + g.shape)
    lhs = dft2_forward(RealField(g, ca * va + cb * vb), sg).values
    rhs = ca * dft2_forward(RealField(g, va), sg).values \
        + cb * dft2_forward(RealField(g, vb), sg).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-11 * max(1.0, np.max(np.abs(rhs)))


def test_transform_of_real_field_is_conjugate_symmetric():
    f = _gaussian_field(4.0, 41)
    sg = GridSpec.centered(2.0, 9, 2.0, 9)
    v = dft2_forward(f, sg).values
    assert np.max(np.abs(v - np.conj(v[::-1, ::-1]))) < 1e-14


def _full_double_sum(field, sg):
    """sum_{i,j} v[i,j] e^{-i(x_i z_k + t_j r_l)} dx dt/(2 pi) at every
    node (z_k, r_l) of sg, the t sum first as cos and sin products and
    then the x sum: dft2_forward's arithmetic when it sums every node."""
    g = field.grid
    tr = np.outer(g.t_nodes(), sg.t_nodes())
    right = field.values @ np.cos(tr) - 1j * (field.values @ np.sin(tr))
    ez = np.exp(-1j * np.outer(sg.x_nodes(), g.x_nodes()))
    return (ez @ right) * (g.cell_area / (2.0 * math.pi))


def test_half_spectrum_matches_the_literal_double_sum():
    # a random field on a centered spectral grid cannot fold, so it takes
    # the full sum
    g = GridSpec(-0.7, 0.31, 5, 0.1, 0.27, 4)
    rng = np.random.Generator(np.random.Philox(4))
    f = RealField(g, rng.standard_normal(g.shape))
    sg = GridSpec.centered(1.5, 5, 2.1, 7)
    got = dft2_forward(f, sg).values
    want = dft2_direct(f, sg).values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _even_in_x(rng, g):
    """Random values on g, whose node count in x is odd, mirrored about
    the middle row to the bit."""
    upper = rng.standard_normal((g.nx // 2 + 1, g.nt))
    return np.concatenate([upper[:0:-1], upper])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.integers(2, 20), st.floats(0.05, 0.5),
       st.floats(0.05, 0.5), st.floats(-3.0, 3.0), st.floats(0.1, 4.0),
       st.integers(1, 10), st.floats(0.1, 4.0), st.integers(1, 10),
       st.integers(0, 10 ** 6))
def test_even_field_folds_onto_x_ge_0(kx, nt, dx, dt, t0, zmax, kz, rmax,
                                      kr, seed):
    # a field even in x on an x axis symmetric about 0 with an odd node
    # count: the x sum is taken over x >= 0 with real cosine weights, and
    # still agrees with the literal double sum to rounding
    g = GridSpec(-kx * dx, dx, 2 * kx + 1, t0, dt, nt)
    rng = np.random.Generator(np.random.Philox(seed))
    f = RealField(g, _even_in_x(rng, g))
    sg = GridSpec.centered(zmax, 2 * kz + 1, rmax, 2 * kr + 1)
    got = dft2_forward(f, sg).values
    want = _full_double_sum(f, sg)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_folded_sum_matches_the_literal_double_sum(monkeypatch):
    g = GridSpec(-0.62, 0.31, 5, 0.1, 0.27, 4)
    rng = np.random.Generator(np.random.Philox(9))
    f = RealField(g, _even_in_x(rng, g))
    sg = GridSpec.centered(1.5, 5, 2.1, 7)
    want = dft2_direct(f, sg).values
    # the folded sum forms no complex exponential e^{-izx}
    monkeypatch.setattr(np, "exp", None)
    got = dft2_forward(f, sg).values
    monkeypatch.undo()
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _one_ulp_off_even(rng, g):
    vals = _even_in_x(rng, g)
    vals[0, 1] = np.nextafter(vals[0, 1], np.inf)
    return vals


def _odd_in_x(rng, g):
    vals = _even_in_x(rng, g)
    vals[:g.nx // 2] *= -1.0
    vals[g.nx // 2] = 0.0
    return vals


def _real_normal(rng, g):
    return rng.standard_normal(g.shape)


def _complex_normal(rng, g):
    return rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)


# data grids whose x axis is off-center, and symmetric about 0
_OFF_CENTER = GridSpec(-1.3, 0.29, 9, 0.02, 0.05, 30)
_SYMMETRIC = GridSpec(-1.2, 0.3, 9, 0.02, 0.05, 30)
_CENTERED_SG = GridSpec.centered(2.0, 11, 2.0, 11)


@pytest.mark.parametrize("sg,g,values", [
    # the middle z node at 0.2, off the origin
    pytest.param(GridSpec(-0.8, 0.2, 11, -1.0, 0.2, 11), _OFF_CENTER,
                 _real_normal, id="sg0-float"),
    # the middle r node at 0.2, off the origin
    pytest.param(GridSpec(-1.0, 0.2, 11, -0.8, 0.2, 11), _OFF_CENTER,
                 _real_normal, id="sg1-float"),
    # even node counts: no node at the origin
    pytest.param(GridSpec.centered(2.0, 10, 2.0, 11), _OFF_CENTER,
                 _real_normal, id="sg2-float"),
    pytest.param(GridSpec.centered(2.0, 11, 2.0, 10), _OFF_CENTER,
                 _real_normal, id="sg3-float"),
    # a complex field has no conjugate symmetry
    pytest.param(_CENTERED_SG, _OFF_CENTER, _complex_normal,
                 id="sg4-complex"),
    # real fields on a centered spectral grid that are not even in x to
    # the bit: one ulp off even, and odd
    pytest.param(_CENTERED_SG, _SYMMETRIC, _one_ulp_off_even,
                 id="one-ulp-off-even"),
    pytest.param(_CENTERED_SG, _SYMMETRIC, _odd_in_x, id="odd-in-x"),
    # an even array on an x axis whose middle node sits at 0.3
    pytest.param(_CENTERED_SG, GridSpec(-0.9, 0.3, 9, 0.02, 0.05, 30),
                 _even_in_x, id="even-off-center"),
    # an even field whose spectral grid has its middle r node at 0.2
    pytest.param(GridSpec(-1.0, 0.2, 11, -0.8, 0.2, 11), _SYMMETRIC,
                 _even_in_x, id="even-r-off-origin"),
])
def test_other_grids_and_complex_fields_take_the_full_sum(sg, g, values):
    rng = np.random.Generator(np.random.Philox(6))
    vals = values(rng, g)
    f = (ComplexField if np.iscomplexobj(vals) else RealField)(g, vals)
    got = dft2_forward(f, sg).values
    assert got.tobytes() == _full_double_sum(f, sg).tobytes()


def test_windowed_inverse_round_trips_a_smooth_field():
    # e^{-x^2-t^2} is numerically band-limited well inside |z|,|r| <= 10
    f = _gaussian_field()
    sg = GridSpec.centered(10.0, 201, 10.0, 201)
    spec = dft2_forward(f, sg)
    back = idft2_windowed_at(spec, f.grid.x_nodes()[:, None],
                             f.grid.t_nodes()[None, :])
    assert back.shape == f.grid.shape
    assert np.max(np.abs(back - f.values)) < 1e-6


def test_windowed_inverse_at_matches_grid_inverse():
    # the open grid (two matrix products) against the literal inverse sum
    # at each of its nodes
    f = _gaussian_field(6.0, 81)
    sg = GridSpec.centered(6.0, 73, 6.0, 73)
    spec = dft2_forward(f, sg)
    out = GridSpec(-1.0, 0.5, 5, -1.0, 0.5, 7)
    grid_vals = idft2_windowed_at(spec, out.x_nodes()[:, None],
                                  out.t_nodes()[None, :])
    assert grid_vals.shape == out.shape
    want = idft2_direct(spec, out.x_nodes(), out.t_nodes()).real
    assert np.max(np.abs(grid_vals - want)) < 1e-9 * np.max(np.abs(want))


def test_asymmetric_spectrum_trips_the_imag_residue_check():
    sg = GridSpec.centered(2.0, 5, 2.0, 5)
    vals = np.zeros((5, 5), dtype=complex)
    vals[1, 2] = 1.0  # single off-center node: not conjugate-symmetric
    spec = ComplexField(sg, vals)
    out = GridSpec(-1.0, 0.5, 5, -1.0, 0.5, 5)
    with pytest.raises(ValueError, match="imaginary residue"):
        idft2_windowed_at(spec, out.x_nodes()[:, None],
                          out.t_nodes()[None, :])


def test_lattice_offsets_accept_aligned_and_reject_misaligned():
    gin = GridSpec(0.0, 0.5, 8, 0.0, 0.25, 9)
    assert _lattice_offsets(GridSpec(1.0, 0.5, 3, 0.5, 0.25, 4), gin) == (2, 2)
    with pytest.raises(ValueError, match="steps"):
        _lattice_offsets(GridSpec(0.0, 0.4, 3, 0.0, 0.25, 4), gin)
    with pytest.raises(ValueError, match="lattice"):
        _lattice_offsets(GridSpec(0.2, 0.5, 3, 0.0, 0.25, 4), gin)


def test_causal_convolution_matches_direct_sum():
    gin = GridSpec(-2.0, 0.25, 17, 0.05, 0.1, 15)
    rng = np.random.Generator(np.random.Philox(11))
    w = RealField(gin, rng.standard_normal(gin.shape))
    out = GridSpec(-1.0, 0.25, 9, 0.45, 0.1, 9)
    fast = convolve2_causal(S_SPEC, w, out).values
    direct = convolve2_direct(S_SPEC, w, out).values
    assert np.max(np.abs(fast - direct)) < 1e-12 * max(1.0, np.max(np.abs(direct)))


# where the output grid sits on the data lattice, in node offsets (ox, ot)
_PLACEMENTS = ("inside", "left", "past_cutoff", "past_end", "first_t")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_PLACEMENTS), st.sampled_from([1.0, 4.0]),
       st.integers(2, 9), st.integers(2, 9), st.integers(2, 8),
       st.integers(2, 8), st.floats(0.2, 1.0), st.floats(0.03, 0.3),
       st.integers(0, 10), st.integers(0, 10 ** 6))
def test_convolution_matches_direct_sum_wherever_the_output_sits(
        where, c, nx, nt, onx, ont, dx, dt, shift, seed):
    gin = GridSpec(-0.4, dx, nx, 0.3 * dt, dt, nt)
    # unless the placement says otherwise: x about the data's left edge, t
    # anywhere in the data
    ox, ot = shift - onx // 2, shift % nt
    if where == "inside":
        ox = shift % nx
    elif where == "left":
        ox = -onx - shift
    elif where == "past_end":
        ot = max(0, nt - ont + 1) + shift
    elif where == "first_t":
        ot = 0
    if where == "past_cutoff":
        # straddle the space-lag cutoff, or pass it by a few nodes
        t_lag = dt * max(ot + ont - 1, 1)
        n_cut = math.ceil(math.sqrt(4.0 * t_lag * math.log(1e12)) / dx)
        ox = nx - 1 + n_cut - onx + shift
    out = GridSpec(gin.x0 + ox * dx, dx, onx, gin.t0 + ot * dt, dt, ont)
    rng = np.random.Generator(np.random.Philox(seed))
    w = RealField(gin, rng.standard_normal(gin.shape))
    fast = convolve2_causal(KernelSpec(c), w, out).values
    direct = convolve2_direct(KernelSpec(c), w, out).values
    assert np.max(np.abs(fast - direct)) <= \
        1e-12 * max(1.0, np.max(np.abs(direct)))


def _fft_shapes(monkeypatch):
    shapes = []
    rfft2 = scipy.fft.rfft2

    def recording(x, s=None, *args, **kw):
        shapes.append(tuple(s))
        return rfft2(x, s, *args, **kw)

    monkeypatch.setattr(scipy.fft, "rfft2", recording)
    return shapes


def test_circular_length_is_the_shortest_wrap_free_one(monkeypatch):
    from sidecast.harness import default_data_grid, refined_window_grid
    cases = [
        # 3 kept t outputs from the data's first t need lags 0..2 and data
        # columns 0..2 only: 3 + 3 - 1 = 5 nodes, not 3 + 40 - 1. In x, the
        # 8 lags -5..2 and 6 data rows keep outputs 5..7 of 13:
        # max(8, 13 - 5) = 8
        (GridSpec(0.0, 0.5, 6, 0.1, 0.1, 40),
         GridSpec(0.0, 0.5, 3, 0.1, 0.1, 3), (8, 5)),
        # the quick verify panel's P1 identity window: 675 x-lags on 643
        # data rows keep outputs 642..674, so x takes 675, not the linear
        # 1317; in t, 493 lags on 493 columns keep outputs 12..492: 973,
        # rounded up to 1000
        refined_window_grid(GridSpec(0.25, 1.05 / 32, 33, 0.1, 3.9 / 32, 33))
        + ((675, 1000),),
        # the quick kappa grid onto itself: 513 x-lags on 257 rows keep
        # outputs 256..512: 513, rounded up to 525 = 3*5^2*7 (x is a complex
        # axis); in t, 800 + 800 - 1 = 1599, rounded up to 1600
        (default_data_grid(nx=257, nt=800, dt=0.05),
         default_data_grid(nx=257, nt=800, dt=0.05), (525, 1600)),
    ]
    shapes = _fft_shapes(monkeypatch)
    for gin, gout, want in cases:
        shapes.clear()
        convolve2_causal(S_SPEC, RealField(gin, np.ones(gin.shape)), gout)
        assert shapes == [want, want]


def test_causal_convolution_space_cutoff_is_harmless():
    # wide slab: the Gaussian lag cutoff clips columns the direct sum keeps;
    # with t small the clipped tail is ~e^{-27} relative
    gin = GridSpec(-30.0, 1.0, 61, 0.05, 0.05, 4)
    rng = np.random.Generator(np.random.Philox(5))
    w = RealField(gin, rng.standard_normal(gin.shape))
    out = GridSpec(-3.0, 1.0, 7, 0.1, 0.05, 3)
    fast = convolve2_causal(R_SPEC, w, out).values
    direct = convolve2_direct(R_SPEC, w, out).values
    assert np.max(np.abs(fast - direct)) < 1e-9 * max(1.0, np.max(np.abs(direct)))


def test_convolution_output_before_data_start_is_rejected():
    gin = GridSpec(0.0, 0.5, 6, 0.2, 0.1, 6)
    w = RealField(gin, np.ones(gin.shape))
    early = GridSpec(0.0, 0.5, 6, 0.1, 0.1, 6)
    with pytest.raises(ValueError, match="before"):
        convolve2_causal(S_SPEC, w, early)


def test_convolution_first_slice_at_data_start_is_zero():
    # only the zero time lag reaches the first output column, and the kernel
    # vanishes at lag 0; the FFT path leaves rounding dust, nothing more
    gin = GridSpec(-1.0, 0.5, 5, 0.3, 0.2, 6)
    rng = np.random.Generator(np.random.Philox(2))
    w = RealField(gin, rng.standard_normal(gin.shape))
    got = convolve2_causal(S_SPEC, w, gin)
    scale = max(1.0, float(np.max(np.abs(got.values))))
    assert np.max(np.abs(got.values[:, 0])) < 1e-13 * scale


def test_convolution_far_output_beyond_cutoff_is_zero():
    gin = GridSpec(0.0, 1.0, 3, 0.1, 0.1, 3)
    w = RealField(gin, np.ones(gin.shape))
    far = GridSpec(1e6, 1.0, 3, 0.1, 0.1, 3)
    got = convolve2_causal(S_SPEC, w, far)
    assert np.all(got.values == 0.0)


def test_convolution_of_a_zero_field_is_exact_zeros():
    gin = GridSpec(-1.0, 0.5, 5, 0.3, 0.2, 6)
    w = RealField(gin, np.zeros(gin.shape))
    out = GridSpec(-0.5, 0.5, 3, 0.5, 0.2, 4)
    got = convolve2_causal(S_SPEC, w, out)
    assert got.grid == out
    assert np.array_equal(got.values, np.zeros(out.shape))
    # the lattice check still runs before the zero shortcut
    off = GridSpec(-0.25, 0.5, 3, 0.5, 0.2, 4)
    with pytest.raises(ValueError, match="lattice"):
        convolve2_causal(S_SPEC, w, off)


def test_outputs_past_the_lag_cutoff_are_exactly_zero():
    # t lags reach 0.2, so x lags stop at ceil(sqrt(0.8 ln 1e12)) = 5 nodes:
    # data at x = 0..2 reaches x = -5..7 and no further
    gin = GridSpec(0.0, 1.0, 3, 0.1, 0.1, 3)
    rng = np.random.Generator(np.random.Philox(9))
    w = RealField(gin, 1.0 + rng.random(gin.shape))
    out = GridSpec(-9.0, 1.0, 19, 0.2, 0.1, 2)
    got = convolve2_causal(S_SPEC, w, out).values
    reached = (out.x_nodes() >= -5.0) & (out.x_nodes() <= 7.0)
    assert np.all(got[~reached] == 0.0)
    assert np.max(got[reached]) > 1e-6


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(-2, 2, allow_nan=False))
def test_convolution_is_linear_in_the_data(seed, c):
    gin = GridSpec(-1.0, 0.5, 6, 0.05, 0.15, 7)
    rng = np.random.Generator(np.random.Philox(seed))
    va, vb = rng.standard_normal((2,) + gin.shape)
    out = GridSpec(-0.5, 0.5, 4, 0.35, 0.15, 5)
    lhs = convolve2_causal(S_SPEC, RealField(gin, va + c * vb), out).values
    rhs = convolve2_causal(S_SPEC, RealField(gin, va), out).values \
        + c * convolve2_causal(S_SPEC, RealField(gin, vb), out).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))
