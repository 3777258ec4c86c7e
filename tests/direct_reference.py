"""Literal references the tests compare the library against: the forward
and inverse transforms and the causal convolution as plain loops over
their defining sums, the right-hand side of the convolution identity
term by term, and the inclusive node mask of a cutoff window."""

import math

import numpy as np

from sidecast.fields import ComplexField, GridSpec, RealField
from sidecast.kernels import R_SPEC, S_SPEC, KernelSpec, kernel_eval
from sidecast.harness import _lattice_offsets, convolve2_causal
from sidecast.transform import TWO_PI, SpectralWindow, _tol


def window_contains(window: SpectralWindow, z, r):
    """Inclusive node mask of |z| <= zmax, |r| <= rmax; boundary nodes
    carry full quadrature weight."""
    return ((np.abs(z) <= window.zmax + _tol(window.zmax))
            & (np.abs(r) <= window.rmax + _tol(window.rmax)))


def dft2_direct(field: RealField, spectral_grid: GridSpec) -> ComplexField:
    """Literal quadruple-loop definition of the forward transform."""
    g = field.grid
    xs, ts = g.x_nodes(), g.t_nodes()
    zs, rs = spectral_grid.x_nodes(), spectral_grid.t_nodes()
    out = np.zeros((spectral_grid.nx, spectral_grid.nt), dtype=complex)
    for k, z in enumerate(zs):
        for l, r in enumerate(rs):
            acc = 0.0 + 0.0j
            for i, x in enumerate(xs):
                for j, t in enumerate(ts):
                    acc += field.values[i, j] * np.exp(-1j * (x * z + t * r))
            out[k, l] = acc * g.cell_area / TWO_PI
    return ComplexField(spectral_grid, out)


def convolve2_direct(spec: KernelSpec, w: RealField,
                     out_grid: GridSpec) -> RealField:
    """Direct sum of the causal convolution (no FFT, no lag truncation)."""
    gin = w.grid
    if out_grid.t0 < gin.t0 - 1e-12 * gin.dt:
        raise ValueError("output grid extends before the data grid's t0")
    _lattice_offsets(out_grid, gin)
    xs_i, ts_i = gin.x_nodes(), gin.t_nodes()
    out = np.zeros(out_grid.shape)
    for a, x in enumerate(out_grid.x_nodes()):
        for b, t in enumerate(out_grid.t_nodes()):
            kv = kernel_eval(spec, x - xs_i[:, None], t - ts_i[None, :])
            out[a, b] = np.sum(kv * w.values) * gin.cell_area
    return RealField(out_grid, out)


def identity_rhs(f: RealField, g: RealField,
                 out_grid: GridSpec = None) -> RealField:
    """F = 2(R*f) - (S*g) + 4*pi*f of the identity S*v = F on out_grid (f's
    grid by default, else a sub-lattice of it), one convolve2_causal call
    per term and the f term sliced off its grid."""
    og = out_grid if out_grid is not None else f.grid
    ox, ot = _lattice_offsets(og, f.grid)
    rf = convolve2_causal(R_SPEC, f, og).values
    sg = convolve2_causal(S_SPEC, g, og).values
    fw = f.values[ox:ox + og.nx, ot:ot + og.nt]
    return RealField(og, 2.0 * rf - sg + (4.0 * math.pi) * fw)


def idft2_direct(spec: ComplexField, xs, ts) -> np.ndarray:
    """Literal definition of the inverse transform of the whole spectrum at
    each node (x, t) of the xs by ts grid, one node at a time; complex."""
    g = spec.grid
    zs, rs = g.x_nodes()[:, None], g.t_nodes()[None, :]
    out = np.zeros((len(xs), len(ts)), dtype=complex)
    for i, x in enumerate(xs):
        for j, t in enumerate(ts):
            out[i, j] = np.sum(spec.values * np.exp(1j * (x * zs + t * rs)))
    return out * g.cell_area / TWO_PI
