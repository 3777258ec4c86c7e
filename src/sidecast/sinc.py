"""Sinc-series representation of the band-limited reconstruction.

The regularized spectrum vanishes outside the cutoff region, so the
reconstruction is band-limited and equals its own cardinal series on the
mesh d = pi / a, a the band half-width. Truncating the series to a finite
index set gives a compact, serializable surrogate that is exact at the
lattice nodes by construction. The series is held as one (2N+1) x (2N+1)
coefficient matrix, the tensor-product form in which it is evaluated.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .fields import GridSpec, _open_grid, _value_text, sample
from .regularizer import RegParams, region_for

__all__ = [
    "IndexSetKind",
    "SincExpansion",
    "band_halfwidth",
    "index_lattice",
    "sinc_lattice",
    "build_expansion",
    "eval_expansion",
    "write_expansion",
    "read_expansion",
]


class IndexSetKind(enum.Enum):
    SQUARE = "square"          # |m| <= N, |n| <= N
    TRIANGULAR = "triangular"  # |m| <= |n| <= N


def band_halfwidth(params: RegParams) -> float:
    """Square band half-width a covering the cutoff region.

    HM mode's window is already a square; L2 mode must cover the
    rectangle (half-widths b and b^2), so the larger of the two sets the
    band.
    """
    w = region_for(params)
    return max(w.zmax, w.rmax)


def index_lattice(kind: IndexSetKind, n: int):
    """Index pairs (m, n) of the truncated series, as two int arrays.

    SQUARE has (2N+1)^2 pairs. TRIANGULAR keeps |m| <= |n| <= N, which is
    2N^2 + 4N + 1 pairs: the time index dominates because the band-limited
    spectrum decays faster along the space frequency.
    """
    if n < 0:
        raise ValueError("index radius N must be >= 0, got %r" % (n,))
    rng = np.arange(-n, n + 1)
    ms, ns = np.meshgrid(rng, rng, indexing="ij")
    if kind is IndexSetKind.SQUARE:
        return ms.ravel(), ns.ravel()
    if kind is IndexSetKind.TRIANGULAR:
        keep = np.abs(ms) <= np.abs(ns)
        return ms[keep], ns[keep]
    raise ValueError("unknown index set kind %r" % (kind,))


def _index_count(kind: IndexSetKind, n: int) -> int:
    """The number of pairs index_lattice(kind, n) holds, in closed form, so
    that a file's rows can be counted before the lattice is formed."""
    if n < 0:
        raise ValueError("index radius N must be >= 0, got %r" % (n,))
    if kind is IndexSetKind.SQUARE:
        return (2 * n + 1) ** 2
    return 2 * n * n + 4 * n + 1


@dataclass(frozen=True, eq=False)
class SincExpansion:
    """Truncated cardinal series: the sum of c_mn S_m(x) S_n(t) over kind's
    index set, held as the (2N+1) x (2N+1) matrix coeffs[m + N, n + N] =
    c_mn, with S_p(z) = sinc(z/d - p).

    Entries outside the index set are zeroed, so the stored matrix is the
    series; a non-finite entry inside it is a ValueError. The radius n and
    the set's indices ms, ns with their coefficients values, in
    index_lattice order, are read-only attributes derived from coeffs.
    """

    d: float
    kind: IndexSetKind
    coeffs: np.ndarray

    def __post_init__(self):
        if not 0 < self.d < math.inf:
            raise ValueError("mesh spacing d must be finite and positive")
        full = np.asarray(self.coeffs, dtype=float)
        side = full.shape[0] if full.ndim == 2 else 0
        if full.shape != (side, side) or side % 2 == 0:
            raise ValueError("coefficients must be a (2N+1) x (2N+1) matrix, "
                             "got shape %r" % (full.shape,))
        n = side // 2
        ms, ns = index_lattice(self.kind, n)
        vals = full[ms + n, ns + n]
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise ValueError("non-finite coefficient at index (m=%d, n=%d)"
                             % (ms[bad[0]], ns[bad[0]]))
        coeffs = np.zeros((side, side))
        coeffs[ms + n, ns + n] = vals
        object.__setattr__(self, "n", n)
        for name, arr in (("ms", ms), ("ns", ns), ("values", vals),
                          ("coeffs", coeffs)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def sinc_lattice(a_eps: float, n: int) -> GridSpec:
    """The square node lattice (m d, n d), |m|, |n| <= N, d = pi/a_eps, as
    a grid: node (i, j) is the lattice index (i - N, j - N)."""
    if not a_eps > 0:
        raise ValueError("band half-width a_eps must be positive, got %r"
                         % (a_eps,))
    if n < 1:
        raise ValueError("index radius N must be >= 1, got %r" % (n,))
    d = math.pi / a_eps
    return GridSpec(x0=-n * d, dx=d, nx=2 * n + 1, t0=-n * d, dt=d,
                    nt=2 * n + 1)


def build_expansion(v_eval, a_eps: float, n: int,
                    kind: IndexSetKind = IndexSetKind.SQUARE) -> SincExpansion:
    """Sample the evaluator on the square lattice (m d, n d), d = pi/a_eps,
    and keep the samples in kind's index set as coefficients. a_eps is the
    band half-width the evaluator was truncated to, so the mesh is exactly
    the Nyquist spacing for it.

    The samples are fields.sample(v_eval, sinc_lattice(a_eps, n)): one
    call on the open grid of lattice nodes, a result broadcast to the
    lattice, and a non-finite value at any node, inside kind's index set
    or not, an error naming that node. The windowed inverse of a spectrum,
    lambda x, t: idft2_windowed_at(spec, x, t), samples it by two matrix
    products. Time nodes with n < 0 are legitimate: the band-limited
    extension exists on the whole plane even though the data live on
    t > 0.
    """
    grid = sinc_lattice(a_eps, n)
    return SincExpansion(grid.dx, kind, sample(v_eval, grid).values)


def eval_expansion(exp: SincExpansion, x, t):
    """Evaluate the truncated series on the open grid of x a column (n, 1)
    and t a row (1, m); any other shapes are a ValueError.

    The series is a tensor product: with Cx[p, i] = sinc(x_p/d - (i - N)),
    Ct[q, j] = sinc(t_q/d - (j - N)) and C the coefficient matrix, the
    values are the (n, m) matrix Cx @ C @ Ct.T: 2(2N+1) cardinal values per
    axis node and two matrix products.
    """
    idx = np.arange(-exp.n, exp.n + 1)
    xs, ts = _open_grid(x, t)
    return (np.sinc(xs / exp.d - idx) @ exp.coeffs
            @ np.sinc(ts.T / exp.d - idx).T)


def write_expansion(path, exp: SincExpansion) -> None:
    """Header "d N kind", then one "m n value" row per coefficient in
    index_lattice order, d and the values at 17 significant digits."""
    d_txt, *vals = _value_text(np.append(exp.d, exp.values))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%s %d %s\n" % (d_txt, exp.n, exp.kind.value))
        fh.write("".join([f"{m} {p} {v}\n" for m, p, v in zip(
            exp.ms.tolist(), exp.ns.tolist(), vals)]))


def read_expansion(path) -> SincExpansion:
    """Inverse of write_expansion; round-trips losslessly at 17 digits.

    The rows are counted against the header's N before index_lattice is
    formed, so a header N far beyond the file's rows is a ValueError, not a
    lattice of (2N+1)^2 indices."""
    path = str(path)
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()
    header = None
    ms, ns, vals = [], [], []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or (header is None and line.startswith("#")):
            continue
        toks = line.split()
        if header is None:
            if len(toks) != 3:
                raise ValueError("%s:%d: expected header 'd N kind', got %r"
                                 % (path, lineno, line))
            try:
                d = float(toks[0])
                n = int(toks[1])
                kind = IndexSetKind(toks[2])
                want = _index_count(kind, n)
            except (ValueError, KeyError) as exc:
                raise ValueError("%s:%d: bad header: %s"
                                 % (path, lineno, exc)) from exc
            header = (d, n, kind)
            continue
        if len(toks) != 3:
            raise ValueError("%s:%d: expected 'm n value', got %r"
                             % (path, lineno, line))
        try:
            ms.append(int(toks[0]))
            ns.append(int(toks[1]))
            vals.append(float(toks[2]))
        except ValueError as exc:
            raise ValueError("%s:%d: bad row: %s" % (path, lineno, exc)) from exc
    if header is None:
        raise ValueError("%s: no header line found" % path)
    d, n, kind = header
    if len(vals) != want:
        raise ValueError("%s: expected %d coefficient rows for %s N=%d, "
                         "found %d" % (path, want, kind.value, n, len(vals)))
    want_m, want_n = index_lattice(kind, n)
    if not (np.array_equal(ms, want_m) and np.array_equal(ns, want_n)):
        raise ValueError("%s: rows must list the indices (m, n) of "
                         "index_lattice(%s, %d) in order"
                         % (path, kind.value, n))
    coeffs = np.zeros((2 * n + 1, 2 * n + 1))
    coeffs[want_m + n, want_n + n] = vals
    try:
        return SincExpansion(d=d, kind=kind, coeffs=coeffs)
    except ValueError as exc:
        raise ValueError("%s: %s" % (path, exc)) from exc
