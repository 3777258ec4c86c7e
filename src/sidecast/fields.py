"""Uniform-grid field containers over (x, t) or (z, r) rectangles, discrete
L2 norms matching the rectangle-rule quadrature used everywhere else, and
plain-text grid file I/O (GRD and CSV)."""

from __future__ import annotations

import os
import stat
from dataclasses import dataclass
from itertools import islice

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


@dataclass(frozen=True, eq=False)
class RealField:
    """Immutable float64 samples on a GridSpec; values[i, j] = value at
    (x_i, t_j).

    The values are scanned once for non-finite ones; a refusal names the
    first such node in row-major order, its (i, j) with x and t."""

    grid: GridSpec
    values: np.ndarray

    _dtype = np.float64

    def __post_init__(self):
        v = np.asarray(self.values, dtype=self._dtype)
        if v.shape != self.grid.shape:
            raise ValueError("values shape %r does not match grid %r"
                             % (v.shape, self.grid.shape))
        if not np.all(np.isfinite(v)):
            i, j = map(int, np.argwhere(~np.isfinite(v))[0])
            raise ValueError(
                "non-finite field value at node (i=%d, j=%d), x=%.17g, "
                "t=%.17g" % (i, j, self.grid.x_nodes()[i],
                             self.grid.t_nodes()[j]))
        v = np.ascontiguousarray(v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True, eq=False)
class ComplexField(RealField):
    _dtype = np.complex128


def sample(fn, grid: GridSpec) -> RealField:
    """Evaluate fn(x, t) at every node by one vectorized call on the open
    grid: x as a column (nx, 1) and t as a row (1, nt), so an elementwise
    evaluator does its x-only and t-only work once per axis. A 0-d or 2-D
    result is broadcast to the grid's shape; a 1-D result is refused (see
    _node_values). An evaluator that cannot take arrays, or whose result
    does not broadcast, raises its own error, and RealField names the
    first non-finite node.
    """
    return RealField(grid, _node_values(fn, grid))


def _node_values(fn, grid: GridSpec) -> np.ndarray:
    """fn(x, t) at every node as sample evaluates it, unchecked for
    finiteness: an array of the grid's shape, possibly a read-only
    broadcast view. A caller that adds it into an array of its own wraps
    the sum in a RealField, so the values are scanned once.

    A flat result is a ValueError: broadcasting would read it as a row,
    as a function of t alone, even where it holds x values."""
    vals = np.asarray(fn(grid.x_nodes()[:, None], grid.t_nodes()[None, :]),
                      dtype=np.float64)
    if vals.ndim == 1:
        raise ValueError("evaluator returned a flat result of shape %r, "
                         "which is not broadcast to the grid's shape %r"
                         % (vals.shape, grid.shape))
    return np.broadcast_to(vals, grid.shape)


def _open_grid(x, t):
    """x and t as float arrays, when they form an open grid as sample
    passes it: x a column (n, 1) and t a row (1, m). Any other shapes are a
    ValueError that names them."""
    xs = np.asarray(x, dtype=float)
    ts = np.asarray(t, dtype=float)
    if not (xs.ndim == ts.ndim == 2 and xs.shape[1] == 1
            and ts.shape[0] == 1):
        raise ValueError("expected an open grid, x a column (n, 1) and t a "
                         "row (1, m); got x of shape %r and t of shape %r"
                         % (xs.shape, ts.shape))
    return xs, ts


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

    Each line is formatted by one % of a line format built once per file
    and written at once, so memory holds one line of text at a time. A
    caller that also writes the field's CSV passes the value text it
    formatted once, ``text=_value_text(field.values)``."""
    if np.iscomplexobj(field.values):
        raise TypeError("GRD files hold real fields only")
    g = field.grid
    line = " ".join([_FMT] * g.nx) + "\n"
    with open(path, "w") as fh:
        fh.write("%d %d %s\n" % (g.nx, g.nt, " ".join(
            _value_text([g.x0, g.dx, g.t0, g.dt]))))
        for j, col in enumerate(field.values.T):
            fh.write(line % tuple(col.tolist()) if text is None
                     else " ".join(text[j::g.nt]) + "\n")


# Data lines per np.loadtxt call in read_field. Longer blocks parse no
# faster and hold more text: reading a 200x500 file (1968 KB) peaked at
# 913 KB with 16-line blocks and at 2300 KB with 256-line ones.
_BLOCK_LINES = 16


def _parse_rows(lines) -> np.ndarray:
    """Values of GRD data lines, one array row per line, by numpy's C text
    reader: whitespace-separated tokens, each read by the same strtod as
    float() on ASCII text. Raises ValueError on a token it cannot read or
    on lines of different widths."""
    return np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)


def read_field(path) -> RealField:
    """Parse a GRD file a block of _BLOCK_LINES non-blank data lines at a
    time into the values, so memory holds one block of text besides them.
    This pass only asks whether the rows make a finite nx x nt field;
    RealField's finiteness scan is the one scan of a good file's values.

    A file it refuses is read again from the first data line, one line at
    a time, to name its first offending line in file order. A file of
    fewer than 2*nx*nt - 1 bytes cannot hold the header's values and
    goes to that line pass at once, so a header that promises more than
    the file holds allocates nothing. A stream that cannot seek, such as
    a pipe, is read into memory first, so both passes and that guard see
    its text as they see a regular file's. A byte outside ASCII reads as
    U+FFFD, which no value parses, so it is refused at its line like any
    other bad token."""

    def err(lineno, msg):
        raise GrdParseError("%s:%d: %s" % (os.fspath(path), lineno, msg))

    with open(path, encoding="ascii", errors="replace") as fh:
        if fh.seekable():
            st = os.fstat(fh.fileno())
            size = st.st_size if stat.S_ISREG(st.st_mode) else None
            lines = fh
        else:
            lines = fh.readlines()
            size = sum(map(len, lines))
        rest = iter(lines)
        # '#' comment lines are allowed before the header only
        lineno, head = 0, None
        for line in rest:
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
        header_line = lineno

        data = (line for line in rest if not line.isspace())
        blocks = iter(lambda: list(islice(data, _BLOCK_LINES)), [])
        j = 0
        try:
            # each value takes at least a digit and a separator, so a file
            # too short for nx*nt of them gets no values array
            if size is not None and size < 2 * nx * nt - 1:
                raise ValueError("the file cannot hold the grid's values")
            values = np.empty((nx, nt))
            # map drops each block's text once it is parsed, and its rows
            # go before the next block is read
            for rows in map(_parse_rows, blocks):
                if rows.shape[1] != nx or j + len(rows) > nt:
                    raise ValueError("the rows do not fit the grid")
                values[:, j:j + len(rows)] = rows.T
                j += len(rows)
                del rows
            if j == nt:
                return RealField(grid, values)
        except ValueError:
            pass

        if lines is fh:
            fh.seek(0)
        j = 0
        for lineno, line in enumerate(lines, 1):
            if lineno <= header_line or line.isspace():
                continue
            if j == nt:
                err(lineno, "unexpected extra data row (grid has nt=%d)" % nt)
            width = len(line.split())
            if width != nx:
                err(lineno, "expected %d values, got %d" % (nx, width))
            try:
                row = _parse_rows([line])
            except ValueError:
                err(lineno, "unparseable value in row")
            if not np.isfinite(row).all():
                err(lineno, "non-finite value in row")
            j += 1
    err(lineno, "expected %d data rows, got %d" % (nt, j))


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
