"""Core inverse solver: select the spectral cutoff region from the noise
level, continue the two interior histories sideways to the surface on that
region only, and evaluate the theoretical error bounds.

Across the layer the transformed temperature satisfies u_yy = w^2 u with
w = sqrt(z^2 + i r), so the surface spectrum follows from the depth-1 and
depth-2 spectra f_hat and g_hat in closed form:  v_hat = 2 cosh(w) f_hat -
g_hat. cosh(w) grows like e^{|w|}, which amplifies noise without bound, so
the formula is applied only on a low-frequency window sized by the noise
level epsilon. The same v_hat solves the convolution identity
S*v = 2(R*f) - (S*g) + 4*pi*f (S, R the c=1 and c=4 kernels); the harness
checks that identity independently, by causal convolution.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fields import ComplexField, GridSpec, RealField, l2_distance, sample
from .kernels import spectral_w
from .transform import (TWO_PI, SpectralWindow, _lattice, dft2_lattice,
                        idft2_windowed_at)

__all__ = [
    "RegMode",
    "RegParams",
    "cutoff_l2",
    "cutoff_hm",
    "region_for",
    "continue_sideways",
    "tail_energy",
    "error_bound_l2",
    "error_bound_hm",
    "Reconstruction",
    "plan",
    "reconstruct_spectrum",
    "reconstruct",
]

# ln(4/eps^gamma) divided by this gives the cutoff half-width b_eps
_B_DENOM = math.sqrt(2.0) * math.sqrt(math.sqrt(2.0) + 1.0)
_A_FACTOR = math.sqrt(2.0) / math.sqrt(math.sqrt(2.0) + 1.0)


class RegMode(enum.Enum):
    L2 = "l2"    # rectangle cutoff, algebraic bound sqrt(C eps^(2-gamma) + eta)
    HM = "hm"    # square cutoff, logarithmic bound D (ln 1/eps)^(-m)


def _check_l2(epsilon: float, gamma) -> None:
    if gamma is None or not (0.0 < gamma < 2.0):
        raise ValueError("gamma must lie in (0, 2), got %r" % (gamma,))
    limit = math.exp(-3.0 / gamma)
    if not (0.0 < epsilon < limit):
        raise ValueError(
            "epsilon must lie in (0, exp(-3/gamma) = %.6g) for the rectangle "
            "cutoff, got %r" % (limit, epsilon))


def _check_hm(epsilon: float, m) -> None:
    if m is None or not m > 0.0:
        raise ValueError("Sobolev order m must be positive, got %r" % (m,))
    limit = math.exp(-4.0 * m * m)
    if not (0.0 < epsilon < limit):
        raise ValueError(
            "epsilon must lie in (0, exp(-4 m^2) = %.6g) for the square "
            "cutoff, got %r" % (limit, epsilon))
    if epsilon >= math.exp(-math.exp(2.0)):
        # the published admissibility condition carries a second, garbled
        # term; its most plausible reading is eps < e^(-e^2), so flag it
        warnings.warn(
            "epsilon %.3g is above e^(-e^2) ~ 6.2e-4; the square-cutoff "
            "bound may be outside its stated regime" % epsilon)


@dataclass(frozen=True)
class RegParams:
    """Noise level and cutoff-mode selection.

    epsilon is the L2 size of the data noise. In L2 mode the cutoff grows
    like ln(1/eps^gamma) with gamma in (0, 2); in HM mode the solution is
    assumed to have m Sobolev derivatives and the cutoff is a square.
    """

    epsilon: float
    gamma: Optional[float] = None
    mode: RegMode = RegMode.L2
    m: Optional[float] = None

    def __post_init__(self):
        if self.mode is RegMode.L2:
            _check_l2(self.epsilon, self.gamma)
        elif self.mode is RegMode.HM:
            _check_hm(self.epsilon, self.m)
        else:
            raise ValueError("unknown mode %r" % (self.mode,))


def cutoff_l2(epsilon: float, gamma: float) -> float:
    """Half-width b of the rectangle cutoff |z| <= b, |r| <= b^2.

    b = ln(4/eps^gamma) / (sqrt(2) sqrt(sqrt(2)+1)); the symbol modulus at
    the rectangle corner is then exactly eps^(gamma/2), which is the floor
    the spectral division sees.
    """
    _check_l2(epsilon, gamma)
    return (math.log(4.0) - gamma * math.log(epsilon)) / _B_DENOM


def cutoff_hm(epsilon: float, m: float) -> float:
    """Half-width a of the square cutoff for solutions with m Sobolev
    derivatives: a = (sqrt(2)/sqrt(sqrt(2)+1)) ln((1/eps)/ln^m(1/eps))."""
    _check_hm(epsilon, m)
    big_l = -math.log(epsilon)
    a = _A_FACTOR * (big_l - m * math.log(big_l))
    if a <= 1.0:
        raise ValueError("square cutoff came out at %.4g <= 1; epsilon %r is "
                         "too large for order m=%r" % (a, epsilon, m))
    return a


def region_for(params: RegParams) -> SpectralWindow:
    """The cutoff window: the rectangle |z| <= b_eps, |r| <= b_eps^2 in L2
    mode, the square |z|, |r| <= a_eps in HM mode; zmax is the half-width."""
    if params.mode is RegMode.L2:
        b = cutoff_l2(params.epsilon, params.gamma)
        return SpectralWindow(b, b * b)
    a = cutoff_hm(params.epsilon, params.m)
    return SpectralWindow(a, a)


def continue_sideways(f_hat: ComplexField,
                      g_hat: ComplexField) -> ComplexField:
    """v_hat_eps = 2 cosh(w) f_hat - g_hat, w = spectral_w(z, r), on every
    node of the shared spectral grid, which dft2_lattice has cropped to
    the cutoff window.

    cosh is even in w, so the branch of the square root does not matter.
    With S_hat = 2 e^{-w} the c=1 symbol, |2 cosh w| <= 2/|S_hat| +
    |S_hat|/2, so the symbol floor on the window (eps^(gamma/2) for the
    rectangle) bounds the noise gain.
    """
    sg = f_hat.grid
    w = spectral_w(sg.x_nodes()[:, None], sg.t_nodes()[None, :])
    return ComplexField(sg, 2.0 * np.cosh(w) * f_hat.values - g_hat.values)


def tail_energy(v0: RealField, window: SpectralWindow) -> float:
    """Integral of |v0_hat|^2 outside the window over the full band up to
    the data Nyquist limits: the irreducible truncation part of the error
    bound. By Parseval on the padded FFT lattice this is ||v0||^2 on the
    data grid minus the window's energy, so only the window is
    transformed; the difference is clipped at 0 against rounding."""
    spec = dft2_lattice(v0, window)
    inside = float(np.sum(np.abs(spec.values) ** 2)) * spec.grid.cell_area
    total = float(np.sum(v0.values ** 2)) * v0.grid.cell_area
    return max(total - inside, 0.0)


def _c_constant() -> float:
    # (4 + 2||R||_1 + ||S||_1)^2 with the exact norms ||k_c||_1 =
    # 4 pi/sqrt(c), 2 pi and 4 pi; verify checks them by quadrature
    return (4.0 + 8.0 * math.pi) ** 2


def error_bound_l2(epsilon: float, gamma: float, eta_hat: float) -> float:
    """sqrt(C eps^(2-gamma) + eta_hat), C = (4 + 2||R||_1 + ||S||_1)^2
    = (4 + 8 pi)^2."""
    _check_l2(epsilon, gamma)
    if eta_hat < 0:
        raise ValueError("tail energy must be nonnegative")
    return math.sqrt(_c_constant() * epsilon ** (2.0 - gamma) + eta_hat)


def error_bound_hm(epsilon: float, m: float, c1: float) -> float:
    """D (ln(1/eps))^(-m) with D = sqrt(C1 (1 + 2^m)); C1 carries the
    caller-supplied Sobolev seminorm of the exact solution."""
    _check_hm(epsilon, m)
    if not c1 > 0:
        raise ValueError("C1 must be positive, got %r" % (c1,))
    return math.sqrt(c1 * (1.0 + 2.0 ** m)) * (-math.log(epsilon)) ** (-m)


def _extents(g: GridSpec):
    return (("x", g.x0, g.x0 + (g.nx - 1) * g.dx),
            ("t", g.t0, g.t0 + (g.nt - 1) * g.dt))


def plan(params: RegParams, data_grid: GridSpec,
         eval_grid: GridSpec) -> SpectralWindow:
    """The cutoff window of params, after every refusal that needs only the
    params and the grids, in order: region_for's, the Nyquist and one-step
    refusals of transform._lattice, then the alias refusal. v_eps is a
    trigonometric sum on the lattice, so on each axis it repeats with the
    alias period P = 2 pi/step = L*d; an eval_grid that spans P together
    with the data interval would read periodic copies: a ValueError."""
    window = region_for(params)
    (_, dz, _), (_, dr, _) = _lattice(data_grid, window)
    periods = (TWO_PI / dz, TWO_PI / dr)
    for (axis, d0, d1), (_, o0, o1), period in zip(
            _extents(data_grid), _extents(eval_grid), periods):
        span = max(o1, d1) - min(o0, d0)
        if span >= period:
            raise ValueError(
                "output window %s in [%.6g, %.6g] and data interval "
                "[%.6g, %.6g] together span %.6g, at least the alias period "
                "P = %.6g of the reconstruction on that axis; use a shorter "
                "output window or a longer data grid"
                % (axis, o0, o1, d0, d1, span, period))
    return window


def _next_history(histories, name: str, data_grid: GridSpec) -> RealField:
    history = next(histories, None)
    if history is None:
        raise ValueError("the histories end before %s" % name)
    if history.grid != data_grid:  # f is on it, so g is off f's grid
        raise ValueError("f and g grids differ" if name == "g" else
                         "f is not on the data grid")
    return history


def reconstruct_spectrum(histories, window: SpectralWindow,
                         data_grid: GridSpec) -> ComplexField:
    """The data stage: v_hat_eps on the nodes of plan's window on the FFT
    lattice of data_grid, from the two histories, f then g, an iterable
    such as harness.noisy_histories. f is transformed and dropped before g
    is asked for, so a generator that keeps no reference to what it yields
    has one history alive at a time. Histories that end early, or one off
    data_grid, are a ValueError."""
    histories = iter(histories)
    f = _next_history(histories, "f", data_grid)
    f_hat = dft2_lattice(f, window)
    del f
    g = _next_history(histories, "g", data_grid)
    return continue_sideways(f_hat, dft2_lattice(g, window))


@dataclass(frozen=True)
class Reconstruction:
    """The record of one run of the pipeline: the params it ran with,
    v_eps on the output grid, the cutoff window, the spectrum v_hat on
    the window's lattice nodes (the Sinc series samples the same
    spectrum) and the grid the histories were sampled on.

    eta_hat, the spectral tail of the exact solution outside the window,
    and measured_error, the L2 distance of v_eps from the exact solution
    on the output grid, are None when no exact solution was supplied.
    bound_l2 is the paper's L2 bound with eta_hat, or its tail-free part
    without it; it is None in HM mode. harness.write_run writes a run
    from this record."""

    params: RegParams
    v_eps: RealField
    v_hat: ComplexField
    window: SpectralWindow
    data_grid: GridSpec
    eta_hat: Optional[float] = None
    bound_l2: Optional[float] = None
    measured_error: Optional[float] = None


def reconstruct(histories, params: RegParams, data_grid: GridSpec,
                out_grid: GridSpec, v_exact=None) -> Reconstruction:
    """Full pipeline onto out_grid from the two histories, f then g, on
    data_grid; returns the run's record. plan runs first, then the
    containment refusal: an out_grid that leaves the data interval on
    either axis by more than rounding is a ValueError naming the axis and
    both intervals, since the identity is causal in t and the kernels are
    Gaussian in x, so there v_eps would invert the zero padding. Only then
    does reconstruct_spectrum read the histories. v_eps samples the
    windowed inverse of v_hat on out_grid, as the Sinc series does.

    v_exact, when given, is an evaluator used for validation only, and
    this is the one place that samples it. On the data grid, once both
    histories are transformed, its spectral tail outside the cutoff
    becomes the record's eta_hat; on out_grid it gives the record's
    measured_error, l2_distance(v_eps, sample(v_exact, out_grid)).
    """
    window = plan(params, data_grid, out_grid)
    for (axis, d0, d1), (_, o0, o1) in zip(_extents(data_grid),
                                           _extents(out_grid)):
        if min(o0 - d0, d1 - o1) < -1e-9 * (d1 - d0):
            raise ValueError("output window %s in [%.6g, %.6g] leaves the "
                             "data interval [%.6g, %.6g]"
                             % (axis, o0, o1, d0, d1))
    v_hat = reconstruct_spectrum(histories, window, data_grid)
    v_eps = sample(lambda x, t: idft2_windowed_at(v_hat, x, t), out_grid)
    eta = measured = None
    if v_exact is not None:
        eta = tail_energy(sample(v_exact, data_grid), window)
        measured = l2_distance(v_eps, sample(v_exact, out_grid))
    bound = None
    if params.mode is RegMode.L2:
        bound = error_bound_l2(params.epsilon, params.gamma, eta or 0.0)
    return Reconstruction(params=params, v_eps=v_eps, v_hat=v_hat,
                          window=window, data_grid=data_grid, eta_hat=eta,
                          bound_l2=bound, measured_error=measured)
