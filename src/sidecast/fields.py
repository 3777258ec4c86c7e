"""Uniform-grid field containers over (x, t) or (z, r) rectangles, discrete
L2 norms matching the rectangle-rule quadrature used everywhere else, and
plain-text grid file I/O (GRD and CSV)."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "RealField",
    "ComplexField",
    "sample",
    "l2_norm",
    "l2_distance",
    "write_field",
    "read_field",
    "write_csv",
]

# Round-trips float64 exactly in decimal text.
_FMT = "%.17g"


def _value_text(values) -> list[str]:
    """_FMT text of each value of a block, in row-major order.

    One % call formats the whole block from its .tolist() values, which
    is faster than one % per value."""
    flat = np.ravel(values).tolist()
    return ("\n".join([_FMT] * len(flat)) % tuple(flat)).split("\n")


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular grid; node (i, j) sits at (x0 + i*dx, t0 + j*dt).

    The first axis is called x and the second t by convention, but spectral
    grids use the same container with (z, r) in those slots.
    """

    x0: float
    dx: float
    nx: int
    t0: float
    dt: float
    nt: int

    def __post_init__(self):
        if not np.all(np.isfinite([self.x0, self.dx, self.t0, self.dt])):
            raise ValueError("grid origin and steps must be finite, got "
                             "x0=%r dx=%r t0=%r dt=%r"
                             % (self.x0, self.dx, self.t0, self.dt))
        if not (self.dx > 0.0 and self.dt > 0.0):
            raise ValueError("grid steps must be positive, got dx=%r dt=%r"
                             % (self.dx, self.dt))
        if self.nx < 2 or self.nt < 2:
            raise ValueError("grid needs at least 2 nodes per axis, got nx=%r nt=%r"
                             % (self.nx, self.nt))

    def x_nodes(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.nx)

    def t_nodes(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.nt)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.nt)

    @property
    def cell_area(self) -> float:
        return self.dx * self.dt

    @classmethod
    def centered(cls, xmax: float, nx: int, tmax: float, nt: int) -> "GridSpec":
        """Symmetric grid over [-xmax, xmax] x [-tmax, tmax].

        Odd node counts place a node exactly at the origin, which keeps
        conjugate symmetry of transforms of real fields at rounding level.
        """
        if xmax <= 0 or tmax <= 0:
            raise ValueError("centered grid needs positive half-extents")
        dx = 2.0 * xmax / (nx - 1)
        dt = 2.0 * tmax / (nt - 1)
        return cls(-xmax, dx, nx, -tmax, dt, nt)


def _frozen_array(values, dtype) -> np.ndarray:
    a = np.ascontiguousarray(values, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class RealField:
    """Immutable float64 samples on a GridSpec; values[i, j] = value at
    (x_i, t_j)."""

    grid: GridSpec
    values: np.ndarray

    _dtype = np.float64

    def __post_init__(self):
        v = np.asarray(self.values, dtype=self._dtype)
        if v.ndim == 1 and v.size == self.grid.nx * self.grid.nt:
            v = v.reshape(self.grid.shape)
        if v.shape != self.grid.shape:
            raise ValueError("values shape %r does not match grid %r"
                             % (v.shape, self.grid.shape))
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", _frozen_array(v, self._dtype))


@dataclass(frozen=True, eq=False)
class ComplexField(RealField):
    _dtype = np.complex128


def sample(fn, grid: GridSpec) -> RealField:
    """Evaluate fn(x, t) at every node.

    Tries one vectorized call on the open grid first: x as a column (nx, 1)
    and t as a row (1, nt), so an elementwise evaluator does its x-only and
    t-only work once per axis. The result is broadcast to the grid's shape.
    A call that raises TypeError/ValueError, or whose result does not
    broadcast, falls back to a per node loop for scalar-only evaluators. A
    non-finite value anywhere is an error naming the offending node.
    """
    xs, ts = grid.x_nodes(), grid.t_nodes()
    try:
        vals = np.broadcast_to(
            np.asarray(fn(xs[:, None], ts[None, :]), dtype=np.float64),
            grid.shape)
    except (TypeError, ValueError):
        vals = np.array([[float(fn(x, t)) for t in ts] for x in xs])
    try:
        return RealField(grid, vals)
    except ValueError:
        # vals has the grid's shape, so RealField's one finiteness scan
        # refused it; only this error path looks for the node
        i, j = map(int, np.argwhere(~np.isfinite(vals))[0])
        raise ValueError(
            "evaluator returned non-finite value at node (i=%d, j=%d), "
            "x=%.17g, t=%.17g" % (i, j, xs[i], ts[j])) from None


def l2_norm(field) -> float:
    """Rectangle-rule L2 norm: sqrt(dx*dt*sum |values|^2)."""
    v = field.values
    return float(np.sqrt(field.grid.cell_area * np.sum(np.abs(v) ** 2)))


def l2_distance(a, b) -> float:
    if a.grid != b.grid:
        raise ValueError("grid mismatch: %r vs %r" % (a.grid, b.grid))
    diff = a.values - b.values
    return float(np.sqrt(a.grid.cell_area * np.sum(np.abs(diff) ** 2)))


class GrdParseError(ValueError):
    """Malformed GRD file; message carries the 1-based line number."""


def write_field(field: RealField, path, *, text=None) -> None:
    """GRD text format: header "nx nt x0 dx t0 dt", then nt lines of nx
    values (line j holds the fixed-t_j row). 17 significant digits, so the
    round-trip is exact for float64.

    Each line is formatted as it is written, so memory holds one line of
    text at a time. A caller that also writes the field's CSV passes the
    value text it formatted once, ``text=_value_text(field.values)``."""
    if np.iscomplexobj(field.values):
        raise TypeError("GRD files hold real fields only")
    g = field.grid
    with open(path, "w") as fh:
        fh.write("%d %d %s\n" % (g.nx, g.nt, " ".join(
            _value_text([g.x0, g.dx, g.t0, g.dt]))))
        for j, col in enumerate(field.values.T):
            fh.write(" ".join(_value_text(col) if text is None
                              else text[j::g.nt]) + "\n")


def read_field(path) -> RealField:
    """Parse a GRD file line by line, so memory holds one text row at a
    time besides the values."""

    def err(lineno, msg):
        raise GrdParseError("%s:%d: %s" % (os.fspath(path), lineno, msg))

    with open(path) as fh:
        # '#' comment lines are allowed before the header only
        lineno, head = 0, None
        for line in fh:
            lineno += 1
            if line.strip() and not line.lstrip().startswith("#"):
                head = line.rstrip("\n")
                break
        if head is None:
            err(lineno or 1, "missing header")
        header = head.split()
        if len(header) != 6:
            err(lineno, "malformed header: expected 6 tokens 'nx nt x0 dx t0 dt', "
                "got %d" % len(header))
        try:
            nx, nt = int(header[0]), int(header[1])
            x0, dx, t0, dt = (float(tok) for tok in header[2:])
        except ValueError:
            err(lineno, "malformed header: %r" % head)
        try:
            grid = GridSpec(x0, dx, nx, t0, dt, nt)
        except ValueError as exc:
            err(lineno, "invalid grid: %s" % exc)

        values = np.empty((nx, nt))
        j = 0
        for line in fh:
            lineno += 1
            toks = line.split()
            if not toks:
                continue
            if j >= nt:
                err(lineno, "unexpected extra data row (grid has nt=%d)" % nt)
            if len(toks) != nx:
                err(lineno, "expected %d values, got %d" % (nx, len(toks)))
            try:
                row = np.array([float(tok) for tok in toks])
            except ValueError:
                err(lineno, "unparseable value in row")
            if not np.all(np.isfinite(row)):
                err(lineno, "non-finite value in row")
            values[:, j] = row
            j += 1
    if j != nt:
        err(lineno, "expected %d data rows, got %d" % (nt, j))
    return RealField(grid, values)


def write_csv(field: RealField, path, *, text=None) -> None:
    """CSV surface dump: header "x,t,value", one row per node in row-major
    node order (x outer, t inner). Meant for external plotting tools.

    Values are formatted one x row at a time unless ``text`` holds them
    all, as write_field takes it."""
    if np.iscomplexobj(field.values):
        raise TypeError("CSV dumps hold real fields only")
    g = field.grid
    # node coordinates are formatted once per axis
    t_cols = [",%s," % t for t in _value_text(g.t_nodes())]
    with open(path, "w") as fh:
        fh.write("x,t,value\n")
        for i, (x_txt, row) in enumerate(zip(_value_text(g.x_nodes()),
                                             field.values)):
            row_txt = (_value_text(row) if text is None
                       else text[i * g.nt:(i + 1) * g.nt])
            fh.write("".join([f"{x_txt}{tc}{v}\n"
                              for tc, v in zip(t_cols, row_txt)]))
