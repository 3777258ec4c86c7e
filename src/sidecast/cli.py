"""Command-line driver.

Subcommands: verify (numerical self-checks, PASS/FAIL table), reconstruct
(surface trace from synthetic problems or GRD files), sinc (cardinal-series
surrogate), convergence (error-vs-noise table). Exit codes: 0 success, 1 a
numeric check failed, 2 bad usage or invalid parameter values.

No command holds a default grid or a noise stream of its own: reconstruct
--problem and convergence reach the built-in problems through
harness.run_experiment, and sinc takes its histories and evaluation grid
from harness.problem_inputs. File mode parses both GRD files before
regularizer.plan runs, since a pipe (--f /dev/stdin) cannot be read twice.

Numerical imports happen inside the commands so that the SIDECAST_THREADS
cap is in place before any BLAS-backed library loads.
"""

from __future__ import annotations

import argparse
import math
import os
import sys


class UsageError(Exception):
    """Bad flag combinations or malformed values; exits with code 2."""


def _apply_thread_cap() -> None:
    """SIDECAST_THREADS=n pins the BLAS/OpenMP pools; 0 or unset leaves the
    libraries' own defaults in place."""
    raw = os.environ.get("SIDECAST_THREADS", "").strip()
    if not raw:
        return
    try:
        n = int(raw)
    except ValueError:
        print("sidecast: ignoring non-integer SIDECAST_THREADS=%r" % raw,
              file=sys.stderr)
        return
    if n <= 0:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(n)


def _parse_grid(text: str):
    """Grid spec "nx,nt,x0,dx,t0,dt" -> GridSpec."""
    from .fields import GridSpec
    toks = [t.strip() for t in str(text).split(",")]
    if len(toks) != 6:
        raise UsageError("grid must be 'nx,nt,x0,dx,t0,dt', got %r" % (text,))
    try:
        nx, nt = int(toks[0]), int(toks[1])
        x0, dx, t0, dt = (float(t) for t in toks[2:])
    except ValueError as exc:
        raise UsageError("bad grid %r: %s" % (text, exc)) from exc
    return GridSpec(x0=x0, dx=dx, nx=nx, t0=t0, dt=dt, nt=nt)


def _parse_points(text: str):
    """Point list "z,r;z,r" -> list of (z, r) floats."""
    pts = []
    for part in str(text).split(";"):
        part = part.strip()
        if not part:
            continue
        toks = part.split(",")
        if len(toks) != 2:
            raise UsageError("points must be 'z,r;z,r;...', got %r" % (text,))
        try:
            pt = (float(toks[0]), float(toks[1]))
        except ValueError as exc:
            raise UsageError("bad point %r: %s" % (part, exc)) from exc
        if not all(math.isfinite(v) for v in pt):
            raise UsageError("bad point %r: coordinates must be finite"
                             % (part,))
        pts.append(pt)
    if not pts:
        raise UsageError("empty point list %r" % (text,))
    return pts


def _load_config(path: str) -> dict:
    """key=value lines; '#' starts a comment line; later keys win."""
    opts = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError("%s:%d: expected key=value, got %r"
                                     % (path, lineno, line))
                key, _, val = line.partition("=")
                opts[key.strip()] = val.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError("cannot read config %s: %s" % (path, exc)) from exc
    return opts


# config key -> (args attribute, caster). Anything else in the file (derived
# quantities a manifest records, for instance) is deliberately ignored, so a
# manifest.txt can reproduce its own run.
_CONFIG_KEYS = {
    "problem": ("problem", str),
    "epsilon": ("epsilon", float),
    "gamma": ("gamma", float),
    "m": ("m", float),
    "seed": ("seed", int),
    "noise_seed": ("seed", int),
    "data_grid": ("data_grid", str),
    "out_grid": ("grid", str),
    "sinc_n": ("n", int),
    "sinc_kind": ("index_set", str),
    "eps_list": ("eps_list", str),
    "f_file": ("f", str),
    "g_file": ("g", str),
}


def _merge_config(args) -> None:
    if not getattr(args, "config", None):
        return
    opts = _load_config(args.config)
    for key, val in opts.items():
        if key not in _CONFIG_KEYS:
            continue
        attr, cast = _CONFIG_KEYS[key]
        if not hasattr(args, attr) or getattr(args, attr) is not None:
            continue  # flags beat config
        try:
            setattr(args, attr, cast(val))
        except ValueError as exc:
            raise UsageError("config %s: bad value for %s: %s"
                             % (args.config, key, exc)) from exc
    # mode= records the mode that m selects (a manifest writes it); it
    # sets nothing, and one that disagrees with the run is refused
    derived = "l2" if args.m is None else "hm"
    if opts.get("mode", derived).lower() != derived:
        raise UsageError("config %s: mode=%s, but %s selects %s mode" % (
            args.config, opts["mode"], "no m" if args.m is None
            else "m=%g" % args.m, derived))


def _params_from(args):
    """RegParams from --epsilon, --gamma and --m: giving --m selects the HM
    square cutoff, otherwise the L2 rectangle is used. Values RegParams
    refuses, --gamma together with --m among them, stay its ValueError,
    which main reports with exit code 2."""
    from .regularizer import RegParams
    if args.epsilon is None:
        raise UsageError("--epsilon is required")
    return RegParams(epsilon=args.epsilon, gamma=args.gamma, m=args.m)


# ---------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    from . import harness
    from .kernels import s_hat

    pts = _parse_points(args.points) if args.points is not None else None
    closed_form = None
    if args.break_shat:
        # deliberate 5% corruption; the symbol check must go red
        closed_form = lambda z, r: 1.05 * s_hat(z, r)
    rep = harness.verify_checks(args.quick, pts, closed_form)

    print("symbol check (quadrature box |x|<=%(x_half)g, t<=%(t_max)g, "
          "dx=%(dx)g, dt=%(dt)g):" % rep.box)
    print("  %6s %6s  %22s %22s  %10s  %12s" %
          ("z", "r", "closed", "quadrature", "rel_err", "short_form"))
    for row in rep.symbol_rows:
        print("  %6g %6g  %22s %22s  %10.3e  %12.5g" %
              (row.z, row.r, "%.6g%+.6gj" % (row.closed.real, row.closed.imag),
               "%.6g%+.6gj" % (row.numeric.real, row.numeric.imag),
               row.rel_err, row.shorthand))
    for row in rep.noted:
        print("  note: the simplified modulus 2*exp(-sqrt(z^4+r^2)) gives "
              "%.4g at (z,r)=(%g,%g) where the true |symbol| is %.4g "
              "(%.0f%% off); it is shown for reference only and never used "
              "by the solver."
              % (row.shorthand, row.z, row.r, abs(row.closed),
                 100 * row.shorthand_dev))
    for pid, resid in rep.identity:
        print("identity residual %s: %.3e" % (pid, resid))

    print()
    width = max(len(rec.name) for rec in rep.records)
    for rec in rep.records:
        print("%-*s  %s  %s" % (width, rec.name,
                                "PASS" if rec.passed else "FAIL", rec.detail))
    print("overall: %s" % ("PASS" if rep.passed else "FAIL"))
    return 0 if rep.passed else 1


# ----------------------------------------------------------- reconstruct

def cmd_reconstruct(args) -> int:
    from . import harness
    from .fields import _FMT, read_field
    from .regularizer import reconstruct

    params = _params_from(args)
    file_mode = args.f is not None or args.g is not None
    if file_mode and args.problem:
        raise UsageError("give either --problem or --f/--g, not both")
    data_grid = _parse_grid(args.data_grid) if args.data_grid else None
    out_grid = _parse_grid(args.grid) if args.grid else None

    if file_mode:
        if not (args.f and args.g):
            raise UsageError("file input needs both --f and --g")
        if out_grid is None:
            raise UsageError("--grid (output grid) is required with file "
                             "input")
        if args.seed is not None:
            raise UsageError("--seed does not apply to file input, whose "
                             "noise is in the files")
        f = read_field(args.f)
        if data_grid is not None and data_grid != f.grid:
            raise UsageError("--data-grid %s differs from the files' grid "
                             "%s" % (harness._grid_str(data_grid),
                                     harness._grid_str(f.grid)))
        rec = reconstruct((f, read_field(args.g)), params, f.grid, out_grid)
        source, noise_seed = ["f_file=%s" % args.f, "g_file=%s" % args.g], None
    else:
        if args.problem is None:
            raise UsageError("need a data source: --problem p1|p2 or --f/--g")
        noise_seed = args.seed or 0
        rec = harness.run_experiment(args.problem, params, data_grid,
                                     out_grid, noise_seed)
        source = ["problem=%s" % args.problem.upper()]
    harness.write_run(args.out, rec, source, noise_seed)

    if rec.measured_error is not None:
        print("measured_error=%s" % (_FMT % rec.measured_error))
    if rec.bound_l2 is not None:
        # without the exact solution there is no tail term eta_hat
        print(("bound_l2=%s" if rec.eta_hat is not None else
               "bound_l2 (tail-free part): %s") % (_FMT % rec.bound_l2))
    if rec.eta_hat is not None:
        print("eta_hat=%s" % (_FMT % rec.eta_hat))
    if params.m is not None:
        print("no HM bound written: it needs C1, the Sobolev seminorm of "
              "the exact solution, which is not supplied")
    print("wrote v_eps.grd, v_eps.csv, manifest.txt to %s" % args.out)
    return 0


# ------------------------------------------------------------------ sinc

def cmd_sinc(args) -> int:
    import numpy as np

    from . import harness
    from .fields import _FMT, sample, write_csv
    from .regularizer import plan, reconstruct_spectrum
    from .sinc import (IndexSetKind, SincExpansion, band_halfwidth,
                       build_expansion, eval_expansion, write_expansion)
    from .transform import idft2_windowed_at

    params = _params_from(args)
    if args.n is None:
        raise UsageError("--N (index radius) is required")
    if args.n < 1:
        raise UsageError("--N must be a positive index radius, got %d"
                         % args.n)
    try:
        kind = IndexSetKind((args.index_set or "square").lower())
    except ValueError:
        raise UsageError("index set must be 'square' or 'triangular'")
    if args.problem is None:
        raise UsageError("need a source: --problem p1|p2")
    a_eps = band_halfwidth(params)
    out_dir = args.out

    data_grid = _parse_grid(args.data_grid) if args.data_grid else None
    eval_grid = _parse_grid(args.grid) if args.grid else None
    _, data_grid, eval_grid, histories = harness.problem_inputs(
        args.problem, params.epsilon, data_grid, eval_grid, args.seed or 0)
    # the reference inverse repeats with the alias period, as v_eps does,
    # so plan refuses an evaluation box that spans one
    window = plan(params, data_grid, eval_grid)
    v_hat = reconstruct_spectrum(histories, window, data_grid)
    square = build_expansion(lambda x, t: idft2_windowed_at(v_hat, x, t),
                             a_eps, args.n)
    # the square samples also give the triangular set and its dropped energy
    exp = SincExpansion(square.d, kind, square.coeffs)
    dev = harness.sinc_deviation(exp, v_hat, eval_grid)

    os.makedirs(out_dir, exist_ok=True)
    write_expansion(os.path.join(out_dir, "sinc.txt"), exp)
    write_csv(sample(lambda x, t: eval_expansion(exp, x, t), eval_grid),
              os.path.join(out_dir, "sinc_eval.csv"))

    print("mesh d=%s, %d coefficients (%s, N=%d)"
          % (_FMT % exp.d, exp.values.size, kind.value, args.n))
    print("relative l2 deviation from the windowed inverse over %d "
          "points: %s" % (math.prod(harness.SINC_PROBE_GRID), _FMT % dev))
    if kind is IndexSetKind.TRIANGULAR:
        # how much series mass the triangular truncation discards
        dropped = np.abs(square.ms) > np.abs(square.ns)
        energy = exp.d * exp.d * float(np.sum(square.values[dropped] ** 2))
        print("dropped-index energy (square minus triangular): %s"
              % (_FMT % energy))
    print("wrote sinc.txt, sinc_eval.csv to %s" % out_dir)
    return 0


# ----------------------------------------------------------- convergence

def cmd_convergence(args) -> int:
    from . import harness

    if args.m is not None:
        raise UsageError("convergence reports the L2-mode bound only; "
                         "--m does not apply")
    if args.eps_list is None:
        raise UsageError("--eps-list is required (comma-separated)")
    try:
        eps = [float(t) for t in str(args.eps_list).split(",") if t.strip()]
    except ValueError as exc:
        raise UsageError("bad --eps-list: %s" % exc) from exc
    if not eps:
        raise UsageError("--eps-list is empty")
    problem = args.problem or "p1"
    data_grid = _parse_grid(args.data_grid) if args.data_grid else None
    out_grid = _parse_grid(args.grid) if args.grid else None
    recs = harness.convergence_table(problem, args.gamma, eps,
                                     seed=args.seed or 0,
                                     data_grid=data_grid,
                                     out_grid=out_grid)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "convergence.csv")
    harness.write_convergence_csv(recs, path)
    print("%12s %14s %14s %12s" % ("epsilon", "measured", "bound", "eta_hat"))
    for rec in recs:
        print("%12.4e %14.6e %14.6e %12.4e" % (rec.params.epsilon,
                                               rec.measured_error,
                                               rec.bound_l2, rec.eta_hat))
    print("wrote %s" % path)
    return 0


# ------------------------------------------------------------------ main

def _add_common_model_flags(p, epsilon=True):
    p.add_argument("--config", help="key=value file; flags take precedence")
    p.add_argument("--problem", help="built-in problem id (p1 or p2)")
    if epsilon:  # convergence takes its noise levels from --eps-list
        p.add_argument("--epsilon", type=float, help="noise level")
    p.add_argument("--gamma", type=float,
                   help="L2 rectangle cutoff exponent in (0,2), default 1")
    p.add_argument("--m", type=float,
                   help="Sobolev order; giving it selects the HM square")
    p.add_argument("--seed", type=int, help="noise seed (default 0)")
    p.add_argument("--data-grid", dest="data_grid",
                   help="measurement grid 'nx,nt,x0,dx,t0,dt'")
    p.add_argument("--grid", help="output grid 'nx,nt,x0,dx,t0,dt'")
    p.add_argument("--out", default="sidecast_out", help="output directory")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sidecast",
        description="Surface temperature reconstruction from interior "
                    "histories of a conducting strip.")
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run the numerical self-checks")
    pv.add_argument("--points", help="symbol probe points 'z,r;z,r;...'")
    pv.add_argument("--break-shat", dest="break_shat", action="store_true",
                    help="corrupt the closed-form symbol to prove the check "
                         "can fail")
    pv.add_argument("--quick", action="store_true",
                    help="coarser geometry, same tolerances")
    pv.set_defaults(func=cmd_verify)

    pr = sub.add_parser("reconstruct", help="recover the surface trace")
    _add_common_model_flags(pr)
    pr.add_argument("--f", help="GRD file with the depth-1 history")
    pr.add_argument("--g", help="GRD file with the depth-2 history")
    pr.set_defaults(func=cmd_reconstruct)

    ps = sub.add_parser("sinc", help="cardinal-series surrogate")
    _add_common_model_flags(ps)
    ps.add_argument("--N", dest="n", type=int, help="index radius")
    ps.add_argument("--index-set", dest="index_set",
                    choices=["square", "triangular"])
    ps.set_defaults(func=cmd_sinc)

    pc = sub.add_parser("convergence", help="error-vs-noise table")
    _add_common_model_flags(pc, epsilon=False)
    pc.add_argument("--eps-list", dest="eps_list",
                    help="comma-separated noise levels")
    pc.set_defaults(func=cmd_convergence)
    return p


def main(argv=None) -> int:
    _apply_thread_cap()
    args = _build_parser().parse_args(argv)
    try:
        _merge_config(args)
        # one refusal for the flag and the config's seed= and noise_seed=
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise UsageError("--seed must be a non-negative integer, got %d"
                             % args.seed)
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        print("sidecast: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("sidecast: out of memory: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
