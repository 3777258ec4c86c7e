"""Continuous 2D Fourier transform pair by rectangle-rule quadrature under
the symmetric 1/(2 pi) convention: the reconstruction's forward transform
and its one inverse.

The convention is fixed here: forward kernel (1/2pi) e^{-i(xz+tr)}, inverse
kernel (1/2pi) e^{+i(xz+tr)}. No other module may rescale. Under this
convention the transform of a convolution is 2*pi times the product of
transforms; harness.CONVOLUTION_FACTOR holds that constant.

The reconstruction takes its spectra from dft2_lattice: the bins of the
zero-padded data's FFT that fall in the cutoff window, computed by a pruned
transform (one real matrix product over x for the z >= 0 bins, then one FFT
along t of those rows only). The checks' independent transform,
harness.dft2_forward, evaluates the same sum on any grid; this module
imports nothing from the checks, kernels or scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import ComplexField, GridSpec, RealField, _open_grid

__all__ = [
    "SpectralWindow",
    "dft2_lattice",
    "idft2_windowed_at",
]

TWO_PI = 2.0 * math.pi


def _tol(half: float) -> float:
    # boundary nodes count as inside the window, up to rounding
    return 1e-12 * max(1.0, half)


@dataclass(frozen=True)
class SpectralWindow:
    """Axis-aligned cutoff rectangle |z| <= zmax, |r| <= rmax."""

    zmax: float
    rmax: float

    def __post_init__(self):
        if not (self.zmax > 0 and self.rmax > 0):
            raise ValueError("window extents must be positive")


def _fast_len(n: int) -> int:
    """The least 5-smooth integer >= n, a length whose real FFT splits into
    radix-2, -3 and -5 passes: for each 3^b 5^c below the best so far, the
    least power of two that lifts it to n."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _lattice_axis(n: int, step: float, half: float):
    """(padded length L, lattice step, crop half-width K) on one axis: L is
    an even fast FFT length of at least 2n, so bin L/2 sits at the Nyquist
    frequency pi/step, and the window's nodes are |k| <= K."""
    length = 2 * _fast_len(n)
    dw = TWO_PI / (length * step)
    return length, dw, int(math.floor((half + _tol(half)) / dw))


def dft2_lattice(field: RealField, window: SpectralWindow) -> ComplexField:
    """The rectangle-rule transform of harness.dft2_forward on the lattice
    of the zero-padded FFT of the data, cropped to the window's nodes.

    Each axis is padded to L >= 2n nodes, so the lattice step is
    2 pi/(L step) and the alias period L step is at least twice the data
    extent. The crop keeps exactly the nodes inside the window, |k| <= K,
    so the spectrum is its own window. Those 2K + 1 nodes must be distinct
    bins, so a window reaching the data Nyquist limits, where +-pi/step
    share a bin, is a ValueError; so is a window narrower than one lattice
    step on either axis, which keeps only the zero frequency there.

    The values are the padded FFT's bins, but only the kept ones are
    formed: the x-stage is one real matrix product with [cos; -sin] of
    2 pi ((k i) mod L_x)/L_x for the z-bins 0 <= k <= K_z, the same roots of
    unity the FFT uses; one FFT of length L_t along t then transforms those
    rows only, and is cropped to |l| <= K_r. z < 0 follows by conjugate
    symmetry of the real data.
    """
    g = field.grid
    lz, dz, kz = _lattice_axis(g.nx, g.dx, window.zmax)
    lr, dr, kr = _lattice_axis(g.nt, g.dt, window.rmax)
    if 2 * kz + 1 > lz or 2 * kr + 1 > lr:
        raise ValueError(
            "cutoff window |z| <= %.6g, |r| <= %.6g reaches the data Nyquist "
            "limits pi/dx = %.6g, pi/dt = %.6g; use a finer data grid or a "
            "smaller window" % (window.zmax, window.rmax, math.pi / g.dx,
                                math.pi / g.dt))
    if kz == 0 or kr == 0:
        raise ValueError(
            "cutoff window |z| <= %.6g, |r| <= %.6g is narrower than one "
            "lattice step dz = %.6g, dr = %.6g of the padded data FFT; use a "
            "longer data grid" % (window.zmax, window.rmax, dz, dr))
    # reducing k i mod L_x keeps every angle in [0, 2 pi)
    ang = np.outer(np.arange(kz + 1), np.arange(g.nx)) % lz * (TWO_PI / lz)
    rows = np.concatenate([np.cos(ang), -np.sin(ang)]) @ field.values
    hat = np.fft.fft(rows[:kz + 1] + 1j * rows[kz + 1:], n=lr, axis=1)
    hat = hat[:, np.arange(-kr, kr + 1) % lr]
    grid = GridSpec(-kz * dz, dz, 2 * kz + 1, -kr * dr, dr, 2 * kr + 1)
    phase = np.outer(np.exp(-1j * g.x0 * grid.x_nodes()),
                     np.exp(-1j * g.t0 * grid.t_nodes()))
    vals = np.concatenate([np.conj(hat[:0:-1, ::-1]), hat], axis=0)
    return ComplexField(grid, vals * phase * (g.cell_area / TWO_PI))


def _check_imag_residue(vals: np.ndarray):
    mr = float(np.max(np.abs(vals.real))) if vals.size else 0.0
    mi = float(np.max(np.abs(vals.imag))) if vals.size else 0.0
    if mi > 1e-6 * mr:
        raise ValueError(
            "imaginary residue %.3e exceeds 1e-6 of max real %.3e; "
            "input spectrum is not conjugate-symmetric" % (mi, mr))


def idft2_windowed_at(spec: ComplexField, x, t):
    """Inverse transform of the whole spectrum, all of it inside its
    cutoff window, on the open grid of x a column (n, 1) and t a row
    (1, m); any other shapes are a ValueError.

    The values are the (n, m) matrix (Ex @ V @ Et) * cell_area/(2 pi),
    Ex = e^{i x z} and Et = e^{i r t}: two matrix products. This is the one
    inverse: the reconstruction samples it on its output grid, and the
    Sinc series on its nodes.

    For conjugate-symmetric input the result is real up to rounding; an
    imaginary residue above 1e-6 of the real part is an error (it means a
    symmetry bug upstream), below that it is discarded.
    """
    g = spec.grid
    xs, ts = _open_grid(x, t)
    ex = np.exp(1j * np.outer(xs, g.x_nodes()))     # (n, nz)
    et = np.exp(1j * np.outer(g.t_nodes(), ts))     # (nr, m)
    vals = (ex @ spec.values @ et) * (g.cell_area / TWO_PI)
    _check_imag_residue(vals)
    return vals.real
