"""Closed-form kernels, symbols, and the exact test problems.

Anchors marked with a value were computed independently (arbitrary
precision where it matters) and frozen; the code under test must land on
them, not the other way round.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sidecast.kernels as kernels
from sidecast.harness import kernel_l1_norm
from sidecast.kernels import (KernelSpec, R_SPEC, S_SPEC, SINGULAR_OFFSET,
                              _heat_family, gaussian_factor, kernel_eval,
                              layer_trace, layer_trace_hat, s_hat, s_hat_abs,
                              spectral_w, test_problem)


def test_kernel_spec_rejects_nonpositive_c():
    with pytest.raises(ValueError):
        KernelSpec(0.0)
    with pytest.raises(ValueError):
        KernelSpec(-1.0)


def test_kernel_point_values():
    # k_1(0, 1) = e^{-1/4}
    assert kernel_eval(S_SPEC, 0.0, 1.0) == pytest.approx(math.exp(-0.25),
                                                          rel=1e-15)
    # k_4(2, 2) = (1/4) e^{-1}
    assert kernel_eval(R_SPEC, 2.0, 2.0) == pytest.approx(0.25 * math.exp(-1.0),
                                                          rel=1e-15)


def test_kernel_is_causal_and_underflow_safe():
    assert kernel_eval(S_SPEC, 0.0, 0.0) == 0.0
    assert kernel_eval(S_SPEC, 1.0, -0.5) == 0.0
    # tiny t: 1/t^2 overflows alone, e^{-1/4t} underflows alone; the joint
    # exponent is finite and ~0
    v = kernel_eval(S_SPEC, 0.0, 1e-6)
    assert v == 0.0
    arr = kernel_eval(S_SPEC, np.array([0.0, 1.0]), np.array([-1.0, 1.0]))
    assert arr[0] == 0.0 and arr[1] > 0.0


@pytest.mark.parametrize("c", [1.0, 4.0])
def test_kernel_on_an_open_grid_matches_a_per_node_formula(c):
    rng = np.random.Generator(np.random.Philox(8))
    xs = np.concatenate([rng.uniform(-4.0, 4.0, 9), [0.0]])
    ts = np.concatenate([rng.uniform(0.02, 6.0, 11), [0.0, -0.3, 1e-6]])
    got = kernel_eval(KernelSpec(c), xs[:, None], ts[None, :])
    assert got.shape == (xs.size, ts.size)
    for i, x in enumerate(xs):
        for j, t in enumerate(ts):
            if t <= 0.0:
                assert got[i, j] == 0.0
                continue
            # the same single exponent, one node at a time
            want = math.exp((x * x + c) * (-0.25 / t) - 2.0 * math.log(t))
            assert abs(got[i, j] - want) <= 1e-15 * want
    # scalar input gives a 0-d result with the bits of the array call
    scalar = kernel_eval(KernelSpec(c), 0.5, 1.5)
    assert np.ndim(scalar) == 0
    assert np.asarray(scalar).tobytes() == kernel_eval(
        KernelSpec(c), np.array([0.5]), np.array([1.5])).tobytes()


def _sqrt_quadrature_error(theta: float, h: float) -> float:
    # left-rectangle sum of integral_0^1 s^{-1/2} ds = 2 on nodes (j+theta)h;
    # leading error is zeta(1/2, theta) * sqrt(h)
    n = int(round(1.0 / h))
    js = np.arange(n)
    return float(np.sum(((js + theta) * h) ** -0.5) * h - 2.0)


def test_singular_offset_kills_the_sqrt_error_term():
    # cross-check of the error law itself: at theta = 1/2 the coefficient is
    # the closed form (2^{1/2}-1) zeta(1/2) = -0.604903...
    h = 1e-6
    coeff_half = _sqrt_quadrature_error(0.5, h) / math.sqrt(h)
    assert coeff_half == pytest.approx((math.sqrt(2) - 1) * -1.4603545088095868,
                                       rel=1e-3)
    # at the tuned offset the sqrt(h) term vanishes: the residual error is
    # O(h), so E/sqrt(h) drops by ~sqrt(h) and E scales linearly in h
    e6 = _sqrt_quadrature_error(SINGULAR_OFFSET, 1e-6)
    e4 = _sqrt_quadrature_error(SINGULAR_OFFSET, 1e-4)
    assert abs(e6) / math.sqrt(1e-6) < 1e-3
    assert e4 / e6 == pytest.approx(100.0, rel=0.05)


def test_symbol_axis_values():
    assert s_hat(0.0, 0.0) == pytest.approx(2.0, rel=1e-15)
    assert s_hat(1.0, 0.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-14)
    assert s_hat(-2.0, 0.0) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-14)
    # pure-time frequency: A = B = sqrt(|r|/2)
    v = s_hat(0.0, 2.0)
    assert abs(v) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-14)
    assert v.real == pytest.approx(2.0 * math.exp(-1.0) * math.cos(1.0), rel=1e-14)
    assert v.imag == pytest.approx(-2.0 * math.exp(-1.0) * math.sin(1.0), rel=1e-14)


def test_symbol_frozen_point():
    # s_hat(0, 4): A = B = sqrt(2); value frozen from 50-digit evaluation
    v = s_hat(0.0, 4.0)
    assert v.real == pytest.approx(0.07582504365392735, rel=1e-14)
    assert v.imag == pytest.approx(-0.4802848623501525, rel=1e-14)


def test_symbol_keeps_its_imaginary_part_where_r_is_small():
    # Im w ~ r/(2z) where |r| << z^2; a real split of w into
    # sqrt((sqrt(z^4 + r^2) +- z^2)/2) would cancel there and lose it
    v = s_hat(6.0, 1e-8)
    assert v.imag == pytest.approx(
        -2.0 * math.exp(-6.0) * math.sin(1e-8 / 12.0), rel=1e-12)
    # values frozen from 50-digit evaluation
    for (z, r), want in (((6.0, 1e-4), (0.004957504353131892,
                                        -4.1312536277015565e-8)),
                         ((1.0, 1e-6), (0.7357588823427007,
                                        -3.6787944117133501e-7))):
        v = s_hat(z, r)
        assert v.real == pytest.approx(want[0], rel=1e-14)
        assert v.imag == pytest.approx(want[1], rel=1e-14)


@settings(max_examples=50, deadline=None)
@given(st.floats(-20, 20, allow_nan=False), st.floats(-50, 50, allow_nan=False))
def test_spectral_w_is_the_principal_root(z, r):
    w = spectral_w(z, r)
    assert w.real >= 0.0
    assert w * w == pytest.approx(complex(z * z, r), rel=1e-14, abs=1e-300)


def test_symbol_modulus_matches_and_peaks_at_origin():
    pts = [(0.3, -1.2), (2.0, 5.0), (-1.0, 0.7)]
    for z, r in pts:
        assert abs(s_hat(z, r)) == pytest.approx(s_hat_abs(z, r), rel=1e-14)
        assert s_hat_abs(z, r) < 2.0
    assert s_hat_abs(0.0, 0.0) == 2.0


@settings(max_examples=50, deadline=None)
@given(st.floats(-20, 20, allow_nan=False), st.floats(-50, 50, allow_nan=False))
def test_symbol_conjugate_symmetry(z, r):
    a = s_hat(z, -r)
    b = np.conj(s_hat(z, r))
    assert a == pytest.approx(b, rel=1e-13, abs=1e-300)


def test_symbol_agrees_with_layer_transform():
    # e^{-w}/w * w relation: s_hat = 2 e^{-w}, w = principal sqrt(z^2 + i r)
    hh = layer_trace_hat(1.0)
    for z, r in [(0.5, 1.5), (2.0, -3.0), (0.0, 1.0), (1.0, 0.0)]:
        w = np.sqrt(complex(z * z, r))
        assert hh(z, r) * w == pytest.approx(s_hat(z, r) / 2.0, rel=1e-13)


def test_simplified_modulus_is_wrong_off_the_unit_axis():
    # 2 e^{-sqrt(z^4+r^2)} agrees with |s_hat| at |z| in {0,1}, r=0, and
    # deviates by 86% already at (2, 0); it must never be used as divisor
    short = 2.0 * math.exp(-math.hypot(4.0, 0.0))
    true = s_hat_abs(2.0, 0.0)
    assert abs(short - true) / true > 0.8
    assert 2.0 * math.exp(-1.0) == pytest.approx(s_hat_abs(1.0, 0.0), rel=1e-14)


def test_kernel_masses_match_4pi_over_sqrt_c():
    # quadrature vs analytic; the ~9e-6 gap shows it is a real quadrature,
    # not the constant echoed back
    for spec, want in ((S_SPEC, 4.0 * math.pi), (R_SPEC, 2.0 * math.pi),
                       (KernelSpec(16.0), math.pi)):
        got = kernel_l1_norm(spec)
        rel = abs(got - want) / want
        assert rel < 1e-4
        assert rel > 1e-9


def test_layer_traces():
    h0 = layer_trace(0.0)
    h1 = layer_trace(1.0)
    assert h0(0.5, 1.0) == pytest.approx(math.exp(-1.0 / 16.0), rel=1e-15)
    assert h1(0.0, 2.0) == pytest.approx(0.5 * math.exp(-1.0 / 8.0), rel=1e-15)
    assert h1(3.0, 0.0) == 0.0
    assert h1(3.0, -1.0) == 0.0
    with pytest.raises(ValueError):
        layer_trace(-0.5)


def test_surface_trace_vanishes_at_the_origin_for_t_at_most_zero():
    # c = 0 at x = 0 leaves q = x^2 + c = 0, which must not meet an
    # infinite exponent factor and turn into NaN
    h0 = layer_trace(0.0)
    for t in (-1.0, 0.0):
        assert h0(0.0, t) == 0.0
    xs = np.array([[-0.5], [0.0], [0.5]])
    got = h0(xs, np.array([[-1.0, 0.0, 1.0]]))
    assert np.array_equal(got[:, :2], np.zeros((3, 2)))
    assert got[1, 2] == 1.0


@settings(max_examples=200, deadline=None)
@given(st.floats(-20.0, 20.0), st.floats(1e-3, 50.0), st.floats(1e-3, 1e3))
def test_layer_trace_is_t_times_the_kernel(x, c, t):
    # both come from one heat-family evaluator, at powers 1 and 2; they
    # differ only in the rounding of the exponent, which exp turns into a
    # relative error of a few ulps per unit of exponent
    got = layer_trace(c)(x, t)
    want = t * kernel_eval(KernelSpec(c), x, t)
    exponent = (x * x + c) / (4.0 * t) + 2.0 * abs(math.log(t))
    tol = 4.0 * np.finfo(float).eps * (1.0 + exponent)
    assert got == pytest.approx(want, rel=tol, abs=1e-300)


def test_problem_p1_fields():
    p = test_problem("p1")
    assert p.id == "P1"
    assert p.v_exact(0.5, 1.0) == pytest.approx(math.exp(-1.0 / 16.0), rel=1e-15)
    assert p.f0(0.0, 1.0) == pytest.approx(math.exp(-0.25), rel=1e-15)
    assert p.g0(0.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_problem_p2_is_signed_layer():
    p = test_problem("P2")
    assert p.f0(1.0, 1.0) == 0.0
    assert p.v_exact(0.0, 1.0) == pytest.approx(-math.exp(-1.0), rel=1e-15)
    xs = np.linspace(-2, 2, 9)
    ts = np.linspace(0.1, 4, 9)
    assert np.allclose(np.asarray(p.v_exact(xs, ts)),
                       -np.asarray(p.g0(xs, ts)), rtol=0, atol=0)


def test_problem_unknown_id():
    with pytest.raises(ValueError, match=r"'P3' \(have P1, P2\)$"):
        test_problem("P3")


def test_problem_refusal_lists_the_table(monkeypatch):
    # the ids in the refusal are the table's keys, so a new problem needs
    # only its entry
    monkeypatch.setitem(kernels._PROBLEMS, "P3", test_problem("P1"))
    with pytest.raises(ValueError, match=r"'P4' \(have P1, P2, P3\)$"):
        test_problem("P4")


def _multiply_formula(power, c, x, t):
    # the heat family with its product taken by np.multiply, step for step
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    pos = t > 0.0
    neg_inv4t = np.divide(-0.25, t, out=np.zeros(t.shape), where=pos)
    log_tp = np.log(t, out=np.full(t.shape, np.inf), where=pos)
    log_tp *= power
    out = np.multiply(x * x + c, neg_inv4t,
                      out=np.empty(np.broadcast_shapes(x.shape, t.shape)))
    out -= log_tp
    np.exp(out, out=out)
    return out


_X_NODE = st.floats(-30.0, 30.0)
# t <= 0 nodes included, with exact zeros and tiny positive t. Below about
# 1e-306, -1/(4t) or its product with x^2 + c overflows in the reference
# formula, a RuntimeWarning that this suite makes an error; the evaluator's
# limit there is tested on its own below
_T_NODE = st.one_of(
    st.floats(-5.0, 60.0).filter(lambda t: not 0.0 < t < 1e-300),
    st.sampled_from([0.0, -0.0, 1e-300, 1e-6]))


@st.composite
def _heat_family_nodes(draw):
    """(x, t) as an open grid, as two 1-D point lists, or as scalars."""
    kind = draw(st.sampled_from(["open", "points", "scalars"]))
    if kind == "scalars":
        return draw(_X_NODE), draw(_T_NODE)
    if kind == "points":
        n = draw(st.integers(1, 20))
        return (np.array(draw(st.lists(_X_NODE, min_size=n, max_size=n))),
                np.array(draw(st.lists(_T_NODE, min_size=n, max_size=n))))
    xs = draw(st.lists(_X_NODE, min_size=1, max_size=12))
    ts = draw(st.lists(_T_NODE, min_size=1, max_size=12))
    return np.array(xs)[:, None], np.array(ts)[None, :]


@settings(max_examples=300, deadline=None)
@given(_heat_family_nodes(), st.floats(0.0, 20.0), st.booleans())
def test_heat_family_is_the_multiply_formula_to_the_bit(nodes, c, kernel):
    # kernel_eval (p = 2, c > 0) and layer_trace (p = 1, c >= 0) form the
    # product (x^2 + c) * (-1/(4t)) by einsum; each element is the same
    # single IEEE product, so every value keeps its bits
    x, t = nodes
    if kernel:
        c = max(c, 1e-3)
        got, power = kernel_eval(KernelSpec(c), x, t), 2.0
    else:
        got, power = layer_trace(c)(x, t), 1.0
    want = _multiply_formula(power, c, x, t)
    # scalars give a 0-d result, like the reference
    assert np.shape(got) == want.shape
    assert np.asarray(got).tobytes() == want.tobytes()
    # a node with t <= 0 is an exact 0
    causal_zero = np.broadcast_to(np.asarray(t) <= 0.0, want.shape)
    assert np.all(np.asarray(got)[causal_zero] == 0.0)


@settings(max_examples=300, deadline=None)
@given(_heat_family_nodes())
def test_gaussian_factor_is_the_power_0_member_to_the_bit(nodes):
    # power 0 skips the p log t pass; where t > 0 the value is the single
    # exponential of the same product, and where t <= 0 it is an exact 0
    x, t = nodes
    got = np.asarray(gaussian_factor(x, t))
    tt = np.broadcast_to(np.asarray(t, dtype=float), got.shape)
    xx = np.broadcast_to(np.asarray(x, dtype=float), got.shape)
    pos = tt > 0.0
    want = np.exp(np.multiply(xx[pos] * xx[pos], -0.25 / tt[pos]))
    assert got[pos].tobytes() == want.tobytes()
    assert np.all(got[~pos] == 0.0)
    assert np.all(gaussian_factor(np.zeros_like(tt[pos]), tt[pos]) == 1.0)


@settings(max_examples=300, deadline=None)
@given(st.floats(-30.0, 30.0), st.floats(1e-3, 60.0), st.floats(1e-3, 20.0))
def test_kernel_is_its_amplitude_times_the_gaussian_factor(x, t, c):
    # k_c(x, t) = k_c(0, t) e^{-x^2/(4t)}; the two sides round their
    # exponents differently, by a few ulp of the exponent's size
    spec = KernelSpec(c)
    k = kernel_eval(spec, x, t)
    split = kernel_eval(spec, 0.0, t) * gaussian_factor(x, t)
    size = abs((x * x + c) / (4.0 * t)) + 2.0 * abs(math.log(t))
    eps = np.finfo(float).eps
    assert abs(k - split) <= 8.0 * eps * (1.0 + size) * k + 1e-300


# positive t below the smallest normal float; c is 0 or clear of it, and x
# is 0 or large enough that x^2/(4t) overflows
_SUBNORMAL_T = st.floats(5e-324, 2.2e-308, exclude_max=True)
_X_OR_ZERO = st.one_of(st.just(0.0), st.floats(-30.0, 30.0).filter(
    lambda x: abs(x) >= 1e-100))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0.0, 1.0, 2.0]),
       st.one_of(st.just(0.0), st.floats(1e-3, 20.0)),
       st.lists(_X_OR_ZERO, min_size=1, max_size=6),
       st.lists(st.one_of(_SUBNORMAL_T, st.floats(-1.0, 10.0)),
                min_size=1, max_size=6))
def test_heat_family_takes_its_limit_at_subnormal_t(power, c, xs, ts):
    # -1/(4t) overflows to -inf at t below about 1.4e-309; the value is
    # the t -> 0+ limit, 0 where x^2 + c > 0 and t^(-p) where x^2 + c = 0,
    # with no nan and no RuntimeWarning (an error under this suite)
    x, t = np.array(xs)[:, None], np.array(ts)[None, :]
    got = _heat_family(power, c, x, t)
    assert not np.any(np.isnan(got))
    q = np.broadcast_to(x * x + c, got.shape)
    tt = np.broadcast_to(t, got.shape)
    tiny = (tt > 0.0) & (tt < 2.2e-308)
    assert np.all(got[tiny & (q > 0.0)] == 0.0)
    with np.errstate(over="ignore"):
        want = tt[tiny & (q == 0.0)] ** -power
    np.testing.assert_allclose(got[tiny & (q == 0.0)], want, rtol=1e-12)
    assert np.all(got[tt <= 0.0] == 0.0)
