"""Closed-form kernels, their Fourier symbols, and exact test problems.

Everything in this module is analytic. The rest of the package treats
the closed forms as ground truth: quadrature, transforms and the inversion
pipeline are all validated against them. Each closed form is written here
once.

Every kernel and every exact trace belongs to the heat family
t^(-p) exp(-(x^2+c)/(4t)) for t > 0 and 0 otherwise, and one private
evaluator computes it. The kernels k_c take p = 2: c=1 (call it S) and c=4
(call it R); the checks convolve with them and compare their L1 norms
with 4*pi/sqrt(c). The layer traces take p = 1. The Gaussian factor
e^{-x^2/(4t)} takes p = 0 and c = 0; every member is t^(-p) e^{-c/(4t)}
times it, so k_c(x, t) = k_c(0, t) * gaussian_factor(x, t), which the
symbol quadrature uses to sum over x before t.

Under the transform the strip equation becomes u_yy = w^2 u with
w = spectral_w(z, r) = sqrt(z^2 + i r), and every symbol is a function of
that one w: s_hat = 2 e^{-w}, and the layer traces transform to
e^{-sqrt(c) w}/w.

Every evaluator returns numpy's own result for the shapes it is given,
so scalar input gives a 0-d result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "KernelSpec",
    "S_SPEC",
    "R_SPEC",
    "SINGULAR_OFFSET",
    "kernel_eval",
    "gaussian_factor",
    "spectral_w",
    "s_hat",
    "s_hat_abs",
    "layer_trace",
    "layer_trace_hat",
    "TestProblem",
    "test_problem",
]

# Fractional node offset theta at which the Hurwitz zeta value zeta(1/2,
# theta) vanishes. Left-endpoint rectangle sums of integrands that behave
# like s^(-1/2) near s=0, taken on nodes s=(j+theta)*ds, have leading error
# proportional to zeta(1/2, theta)*sqrt(ds); placing nodes at this offset
# cancels that term. Computed by arbitrary-precision root finding.
SINGULAR_OFFSET = 0.302721828598366


@dataclass(frozen=True)
class KernelSpec:
    """Member of the (1/t^2)exp(-(x^2+c)/4t) family, identified by c."""

    c: float

    def __post_init__(self):
        # c = 0 is rejected: on the line x = 0 the t-integral diverges at 0.
        if not self.c > 0.0:
            raise ValueError("kernel offset c must be positive, got %r" % (self.c,))


S_SPEC = KernelSpec(1.0)
R_SPEC = KernelSpec(4.0)


def _heat_family(power: float, c: float, x, t):
    """t^(-power) exp(-(x^2+c)/(4t)) for t > 0 and 0 for t <= 0 (causal
    extension, continuous at 0+), the one evaluator of every kernel and
    every exact trace.

    The t-only factors are formed once per t node, so x as a column and t
    as a row (an open grid) cost one pass per axis plus three over the
    result: the product (x^2 + c) * (-1/(4t)), the subtraction of
    p log t, and the exponential. Power 0 has no p log t to subtract and
    skips that pass. The product is taken by np.einsum, which forms each
    element as the same single IEEE product as np.multiply but runs the
    broadcast column-times-row about twice as fast: on a 513 x 2000 open
    grid the product took 1.0 ms instead of 2.1 ms and the whole evaluator
    3.0 ms instead of 4.0 ms (numpy 2.4.6, one thread of a 2-core Xeon).
    One path covers every shape, and out= keeps 0-d inputs 0-d.

    At subnormal t (0 < t below about 1.4e-309) -1/(4t) overflows to
    -inf, and the value is the t -> 0+ limit: 0 where x^2 + c > 0 and
    t^(-p) where x^2 + c = 0, +inf once that leaves the float range.
    Every overflow here lands on that limit, so none warns.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    pos = t > 0.0
    shape = np.broadcast_shapes(x.shape, t.shape)
    q = x * x + c
    with np.errstate(over="ignore"):
        # exp(-q/4t)/t^p via a single exponent: t^p underflows before exp
        # does, which would turn the tiny-t limit into 0/0. A node with
        # t <= 0 gets the exponent q*0 - inf = -inf, so it exponentiates
        # to exactly 0 for every finite x, q = x^2 + c = 0 included.
        neg_inv4t = np.divide(-0.25, t, out=np.zeros(t.shape), where=pos)
        out = np.einsum("...,...->...", q, neg_inv4t, out=np.empty(shape))
        if power != 0.0:
            log_tp = np.log(t, out=np.full(t.shape, np.inf), where=pos)
            log_tp *= power
            out -= log_tp
        np.exp(out, out=out)
        if power == 0.0 and not pos.all():
            # no -inf from p log t here: the causal zero is set directly
            np.copyto(out, 0.0, where=~pos)
        subnormal = np.isneginf(neg_inv4t)
        if subnormal.any():
            # q * -inf is nan where q = 0; the limit there is t^(-p)
            lim = np.exp(-log_tp) if power != 0.0 else 1.0
            np.copyto(out, lim, where=(q == 0.0) & subnormal)
    return out


def gaussian_factor(x, t):
    """e^{-x^2/(4t)} for t > 0 and 0 for t <= 0: the heat family with
    power 0 and c = 0, so that k_c(x, t) = k_c(0, t) * gaussian_factor(x, t).
    1 at x = 0 for every t > 0."""
    return _heat_family(0.0, 0.0, x, t)


def kernel_eval(spec: KernelSpec, x, t):
    """k_c at (x, t): the heat family with power 2; 0 for t <= 0."""
    return _heat_family(2.0, spec.c, x, t)


def spectral_w(z, r):
    """w = principal sqrt(z^2 + i r), the variable of the transformed strip
    equation u_yy = w^2 u. Re w > 0 everywhere but the origin, so e^{-w}
    is the decaying solution."""
    return np.sqrt(np.asarray(z, dtype=float) ** 2
                   + 1j * np.asarray(r, dtype=float))


def s_hat(z, r):
    """Closed-form symbol of the c=1 kernel under the symmetric 1/(2 pi)
    transform: 2 e^{-w}, w = spectral_w(z, r).

    Real and positive on the axis r = 0 (where it equals 2 e^{-|z|}).
    """
    return 2.0 * np.exp(-spectral_w(z, r))


def s_hat_abs(z, r):
    """Modulus of s_hat: 2 e^{-Re w}. Maximal (=2) at the origin only."""
    return 2.0 * np.exp(-np.real(spectral_w(z, r)))


def layer_trace(c: float) -> Callable:
    """Evaluator (x, t) -> (1/t) exp(-(x^2+c)/(4t)), 0 for t <= 0: the
    heat family with power 1.

    These are the traces of the half-plane heat layer at depth sqrt(c);
    the exact test-problem data and solutions all belong to this family
    (c may be 0 here, unlike KernelSpec).
    """
    if c < 0:
        raise ValueError("layer depth parameter must be nonnegative")

    def h(x, t):
        return _heat_family(1.0, c, x, t)

    return h


def layer_trace_hat(c: float) -> Callable:
    """Closed transform of layer_trace(c) under the 1/(2 pi) convention:
    (z, r) -> e^{-sqrt(c) w}/w with w = spectral_w(z, r).

    Singular (1/w) at the exact origin; callers avoid that node.
    """
    rc = float(np.sqrt(c))

    def hh(z, r):
        w = spectral_w(z, r)
        return np.exp(-rc * w) / w

    return hh


def _zero_evaluator(x, t):
    return np.zeros(np.broadcast(np.asarray(x), np.asarray(t)).shape)


@dataclass(frozen=True)
class TestProblem:
    """Exact data/solution triple for the strip problem.

    f0 is the history at depth 1, g0 at depth 2, v_exact the surface
    history being reconstructed.
    """

    id: str
    f0: Callable
    g0: Callable
    v_exact: Callable

    __test__ = False  # not a pytest collection target


def _p2_v_exact(x, t):
    return -_heat_family(1.0, 4.0, x, t)


_PROBLEMS = {
    "P1": TestProblem(
        id="P1",
        f0=layer_trace(1.0),
        g0=layer_trace(4.0),
        v_exact=layer_trace(0.0),
    ),
    "P2": TestProblem(
        id="P2",
        f0=_zero_evaluator,
        g0=layer_trace(4.0),
        v_exact=_p2_v_exact,
    ),
}


def test_problem(pid: str) -> TestProblem:
    key = str(pid).upper()
    if key not in _PROBLEMS:
        raise ValueError("unknown test problem %r (have %s)"
                         % (pid, ", ".join(_PROBLEMS)))
    return _PROBLEMS[key]


test_problem.__test__ = False  # not a pytest collection target either
