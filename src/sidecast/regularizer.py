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
from functools import lru_cache
from typing import Optional

import numpy as np

from .fields import ComplexField, GridSpec, RealField, sample
from .kernels import R_SPEC, S_SPEC, kernel_l1_norm
from .transform import (SpectralWindow, _windowed_nodes, dft2_forward,
                        idft2_windowed)

__all__ = [
    "RegMode",
    "RegParams",
    "CutoffRegion",
    "BoundReport",
    "cutoff_l2",
    "cutoff_hm",
    "region_for",
    "continue_sideways",
    "tail_energy",
    "error_bound_l2",
    "error_bound_hm",
    "build_report",
    "Reconstruction",
    "default_spectral_grid",
    "default_coverage_grid",
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


@dataclass(frozen=True)
class CutoffRegion:
    window: SpectralWindow
    b_eps: Optional[float] = None
    a_eps: Optional[float] = None


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


def region_for(params: RegParams) -> CutoffRegion:
    if params.mode is RegMode.L2:
        b = cutoff_l2(params.epsilon, params.gamma)
        return CutoffRegion(SpectralWindow.rect(b, b * b), b_eps=b)
    a = cutoff_hm(params.epsilon, params.m)
    return CutoffRegion(SpectralWindow.square(a), a_eps=a)


def continue_sideways(f_hat: ComplexField, g_hat: ComplexField,
                      region: CutoffRegion) -> ComplexField:
    """v_hat_eps = 2 cosh(w) f_hat - g_hat, w = sqrt(z^2 + i r), inside the
    window and exactly 0 outside; f_hat and g_hat share one spectral grid.

    cosh is even in w, so the branch of the square root does not matter.
    With S_hat = 2 e^{-w} the c=1 symbol, |2 cosh w| <= 2/|S_hat| +
    |S_hat|/2, so the symbol floor on the window (eps^(gamma/2) for the
    rectangle) bounds the noise gain.
    """
    zs, rs, mask = _windowed_nodes(f_hat, region.window)
    Z, R = np.meshgrid(zs, rs, indexing="ij")
    w = np.sqrt(Z[mask] ** 2 + 1j * R[mask])
    vals = np.zeros(f_hat.values.shape, dtype=complex)
    # evaluate only on the kept nodes: cosh overflows far outside the window
    vals[mask] = 2.0 * np.cosh(w) * f_hat.values[mask] - g_hat.values[mask]
    return ComplexField(f_hat.grid, vals)


def tail_energy(v0_hat: ComplexField, region: CutoffRegion) -> float:
    """Rectangle-rule integral of |v0_hat|^2 over covered spectral nodes
    outside the window: the irreducible truncation part of the error bound.
    Only the covered rectangle is summed, so the value depends on the
    coverage grid; callers record that grid alongside the number."""
    _, _, mask = _windowed_nodes(v0_hat, region.window)
    outside = ~mask
    return float(np.sum(np.abs(v0_hat.values[outside]) ** 2)
                 * v0_hat.grid.cell_area)


@lru_cache(maxsize=1)
def _c_constant() -> float:
    # (4 + 2||R||_1 + ||S||_1)^2 with the norms by quadrature; the analytic
    # values 2 pi and 4 pi are asserted against these in the tests
    return (4.0 + 2.0 * kernel_l1_norm(R_SPEC) + kernel_l1_norm(S_SPEC)) ** 2


def error_bound_l2(epsilon: float, gamma: float, eta_hat: float) -> float:
    """sqrt(C eps^(2-gamma) + eta_hat), C = (4 + 2||R||_1 + ||S||_1)^2."""
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
    return _d_constant(m, c1) * (-math.log(epsilon)) ** (-m)


def _d_constant(m: float, c1: float) -> float:
    return math.sqrt(c1 * (1.0 + 2.0 ** m))


@dataclass(frozen=True)
class BoundReport:
    """Evaluated bound ingredients for one reconstruction.

    eta_hat is present only when the exact solution was supplied for
    validation; bound_l2 then includes it, otherwise bound_l2 reports the
    tail-free part only. HM-mode fields appear when c1 was supplied.
    """

    C: float
    eta_hat: Optional[float]
    bound_l2: Optional[float]
    C1: Optional[float] = None
    D: Optional[float] = None
    bound_hm: Optional[float] = None


def default_spectral_grid(region: CutoffRegion, factor: float = 1.25,
                          nodes: int = 257) -> GridSpec:
    """Inversion grid: odd-count centered grid covering factor x window."""
    w = region.window
    return GridSpec.centered(factor * w.zmax, nodes, factor * w.rmax, nodes)


def default_coverage_grid(region: CutoffRegion, factor: float = 3.0,
                          nodes: int = 385) -> GridSpec:
    """Tail-energy grid: must extend well beyond the window."""
    w = region.window
    return GridSpec.centered(factor * w.zmax, nodes, factor * w.rmax, nodes)


def reconstruct_spectrum(f: RealField, g: RealField, params: RegParams,
                         spectral_grid: Optional[GridSpec] = None):
    """Transform both histories and continue them to the surface; returns
    (v_hat_eps, region).

    The windowed spectrum is what both the physical reconstruction and the
    Sinc expansion evaluate; exposing it keeps the two on the same object.
    A window past the data grid's Nyquist limit is a ValueError.
    """
    if f.grid != g.grid:
        raise ValueError("f and g must share a grid")
    region = region_for(params)
    win = region.window
    # past pi/step the data spectrum aliases, and the window would amplify
    # the aliased copies instead of the signal
    z_lim, r_lim = math.pi / f.grid.dx, math.pi / f.grid.dt
    if win.zmax > z_lim or win.rmax > r_lim:
        raise ValueError(
            "cutoff window |z| <= %.6g, |r| <= %.6g passes the data Nyquist "
            "limits pi/dx = %.6g, pi/dt = %.6g; use a finer data grid or a "
            "larger epsilon" % (win.zmax, win.rmax, z_lim, r_lim))
    sgrid = spectral_grid if spectral_grid is not None \
        else default_spectral_grid(region)
    return continue_sideways(dft2_forward(f, sgrid), dft2_forward(g, sgrid),
                             region), region


def build_report(params: RegParams, eta_hat: Optional[float] = None,
                 c1: Optional[float] = None) -> BoundReport:
    """Evaluate whichever bounds the supplied ingredients allow."""
    bound_l2 = None
    if params.mode is RegMode.L2:
        bound_l2 = error_bound_l2(params.epsilon, params.gamma,
                                  eta_hat or 0.0)
    d = bound_hm = None
    if params.mode is RegMode.HM and c1 is not None:
        d = _d_constant(params.m, c1)
        bound_hm = error_bound_hm(params.epsilon, params.m, c1)
    return BoundReport(C=_c_constant(), eta_hat=eta_hat, bound_l2=bound_l2,
                       C1=c1, D=d, bound_hm=bound_hm)


@dataclass(frozen=True)
class Reconstruction:
    """One run of the pipeline: v_eps on the output grid, its bound
    report, and the windowed spectrum v_hat with the cutoff region it was
    computed on (the Sinc series samples the same spectrum)."""

    v_eps: RealField
    report: BoundReport
    v_hat: ComplexField
    region: CutoffRegion


def reconstruct(f: RealField, g: RealField, params: RegParams,
                out_grid: GridSpec,
                spectral_grid: Optional[GridSpec] = None,
                coverage_grid: Optional[GridSpec] = None,
                v_exact=None, c1: Optional[float] = None) -> Reconstruction:
    """Full pipeline onto out_grid.

    v_exact, when given, is an evaluator used for validation only: it is
    sampled on the data grid, transformed on the coverage grid, and its
    spectral tail outside the cutoff becomes eta_hat in the report. c1
    likewise only feeds the HM-mode bound.
    """
    v_hat, region = reconstruct_spectrum(f, g, params, spectral_grid)
    v_eps = idft2_windowed(v_hat, region.window, out_grid)

    eta = None
    if v_exact is not None:
        cov = coverage_grid if coverage_grid is not None \
            else default_coverage_grid(region)
        v0_hat = dft2_forward(sample(v_exact, f.grid), cov)
        eta = tail_energy(v0_hat, region)
    return Reconstruction(v_eps=v_eps,
                          report=build_report(params, eta_hat=eta, c1=c1),
                          v_hat=v_hat, region=region)
