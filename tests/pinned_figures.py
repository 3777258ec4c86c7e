"""Pinned figures of the reference commands, and the script that writes
them to tests/data/pinned_figures.json.

Each command of COMMANDS runs in-process through ``sidecast.cli.main``,
writing into a directory of its own under one base directory. Its figures
are:
- the exit code, and the argv and stdout with the numbers they print
  split out of the text
- the manifest's keys in order, each value split the same way (the
  manifest writes its numbers at %.17g)
- for each other output file, the numbers of its header line, and for its
  body, each column's (a GRD body's whole field's) Euclidean norm, largest
  |value| and values at five fixed nodes; a column of at most 16 values is
  kept whole

The files are parsed with numpy alone, so the figures share no reader
code with the program. The base directory reads ``{dir}`` everywhere.

tests/test_pinned_figures.py reruns the commands and compares with
``compare``. A change that moves a figure on purpose rewrites the file
from the repository root with

    PYTHONPATH=src python tests/pinned_figures.py

and says which figure moved and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import sys
import tempfile

import numpy as np

PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                      "pinned_figures.json")

# Figures match when they agree to REL_TOL relative to the pinned value
# (a field's nodes, relative to the field's largest |value|). A figure
# pinned at exactly 0 (P2's identity residual is 0 by linearity) has no
# scale of its own; it may read up to ABS_FLOOR.
REL_TOL = 1e-12
ABS_FLOOR = 1e-15

# a number not glued to a name on its left, so that "P1" or "L2" stay text
_NUMBER = re.compile(
    r"(?<![A-Za-z_])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_SLOT = "<n>"
_WHOLE = 16


def _noisy_p2_files(base):
    """Noisy P2 histories at epsilon 0.02, seed 3, on a 129x500 data grid,
    as base/f.grd and base/g.grd."""
    from sidecast import fields, harness, kernels
    grid = harness.default_data_grid(nx=129, nt=500)
    paths = [os.path.join(base, name) for name in ("f.grd", "g.grd")]
    for path, history in zip(paths, harness.noisy_histories(
            kernels.test_problem("P2"), grid, 0.02, 3)):
        fields.write_field(history, path)
    return paths


def _p2_out_grid() -> str:
    from sidecast import harness
    g = harness.default_out_grid("P2")
    return "%d,%d,%.17g,%.17g,%.17g,%.17g" % (g.nx, g.nt, g.x0, g.dx,
                                              g.t0, g.dt)


def _file_mode(base):
    f, g = _noisy_p2_files(base)
    return ["reconstruct", "--f", f, "--g", g, "--grid", _p2_out_grid(),
            "--epsilon", "0.02"]


# name -> argv builder, given the base directory; each run's --out is
# base/name, and the commands run in this order
COMMANDS = {
    "reconstruct-p1": lambda base: [
        "reconstruct", "--problem", "p1", "--epsilon", "0.02", "--seed", "3"],
    "reconstruct-p2": lambda base: [
        "reconstruct", "--problem", "p2", "--epsilon", "0.02", "--seed", "3"],
    "reconstruct-p1-hm": lambda base: [
        "reconstruct", "--problem", "p1", "--m", "0.5", "--epsilon", "1e-4",
        "--seed", "3"],
    "reconstruct-files-p2": _file_mode,
    "reconstruct-files-p2-replay": lambda base: [
        "reconstruct", "--config",
        os.path.join(base, "reconstruct-files-p2", "manifest.txt")],
    "convergence-p1": lambda base: [
        "convergence", "--problem", "p1", "--eps-list",
        "0.04,0.02,0.01,0.005"],
    "sinc-p1-square": lambda base: [
        "sinc", "--problem", "p1", "--epsilon", "0.02", "--N", "50",
        "--seed", "3"],
    "sinc-p1-triangular": lambda base: [
        "sinc", "--problem", "p1", "--epsilon", "0.02", "--N", "50",
        "--seed", "3", "--index-set", "triangular"],
    "verify-quick": lambda base: ["verify", "--quick"],
}


def _split(text: str):
    """{"text": text with each number replaced by <n> and each run of
    blanks by one space, so that column padding does not count,
    "figures": the numbers in order}."""
    return {"text": " ".join(_NUMBER.sub(_SLOT, text).split()),
            "figures": [float(m) for m in _NUMBER.findall(text)]}


def _reduce(values) -> dict:
    a = np.asarray(values, dtype=np.float64).ravel()
    if a.size <= _WHOLE:
        return {"values": a.tolist()}
    nodes = (0, a.size // 4, a.size // 2, 3 * a.size // 4, a.size - 1)
    return {"size": a.size,
            "l2": math.sqrt(float(np.sum(a * a))),
            "max_abs": float(np.max(np.abs(a))),
            "nodes": [float(a[i]) for i in nodes]}


def _file_figures(path) -> dict:
    with open(path) as fh:
        head = fh.readline().rstrip("\n")
        body = np.loadtxt(fh, delimiter="," if path.endswith(".csv")
                          else None, ndmin=2)
    if path.endswith(".grd"):
        return {"header": _split(head), "field": _reduce(body)}
    return {"header": _split(head),
            "columns": [_reduce(col) for col in body.T]}


def run_command(name: str, base: str) -> dict:
    from sidecast.cli import main
    out = os.path.join(base, name)
    argv = COMMANDS[name](base) + (["--out", out] if name != "verify-quick"
                                   else [])
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)

    def mask(text):
        return _split(text.replace(base, "{dir}"))

    figures = {"exit": rc,
               "argv": [mask(a) for a in argv],
               "stdout": [mask(line) for line in buf.getvalue().splitlines()]}
    if os.path.isdir(out):
        files = {}
        for fname in sorted(os.listdir(out)):
            path = os.path.join(out, fname)
            if fname == "manifest.txt":
                with open(path) as fh:
                    figures["manifest"] = [
                        [key, mask(value)] for key, _, value in
                        (ln.partition("=") for ln in fh.read().splitlines())]
            else:
                files[fname] = _file_figures(path)
        figures["files"] = files
    return figures


def collect(base: str) -> dict:
    """Every command's figures, run in COMMANDS order inside base."""
    return {name: run_command(name, str(base)) for name in COMMANDS}


def compare(got, want, where: str = "", scale=None) -> list:
    """Where got departs from want: floats agree to REL_TOL of scale, or
    of their own size when scale is None, with ABS_FLOOR for a pinned 0;
    everything else (text, counts, the exit code) exactly. A field's
    nodes take its largest |value| as their scale, so that a node where
    the field nearly cancels is held to the field's rounding, not its
    own."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or list(got) != list(want):
            return ["%s: keys %r, pinned %r" % (
                where, list(got) if isinstance(got, dict) else got,
                list(want))]
        return [m for key in want for m in compare(
            got[key], want[key], "%s/%s" % (where, key),
            want["max_abs"] if key == "nodes" else None)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return ["%s: %r, pinned %r" % (where, got, want)]
        return [m for i, (a, b) in enumerate(zip(got, want))
                for m in compare(a, b, "%s[%d]" % (where, i), scale)]
    if isinstance(want, float) and isinstance(got, float):
        size = abs(want) if scale is None else scale
        if abs(got - want) <= (REL_TOL * size if size else ABS_FLOOR):
            return []
    elif got == want:
        return []
    return ["%s: %r, pinned %r" % (where, got, want)]


def main() -> int:
    with tempfile.TemporaryDirectory() as base:
        figures = collect(base)
    with open(PINNED, "w") as fh:
        json.dump(figures, fh, indent=1)
        fh.write("\n")
    print("wrote %s" % PINNED)
    return 0


if __name__ == "__main__":
    sys.exit(main())
