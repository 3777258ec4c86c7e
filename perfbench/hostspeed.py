"""How fast the host runs right now, against the machine the baseline was
measured on.

On a shared host the processor time a run gets drifts by tens of percent
over seconds to minutes, and every op slows or speeds up with it. The
benchmark times a fixed reference computation before every timed op and
after the last one. Divided by the median of those samples, op and set-up
times read as seconds on a host of the reference speed. The reference
computation is the benchmark's own code, so a change to the program moves
the op times but not the divisor.

The computation mixes the three kinds of work the program does: an
overlap-add FFT convolution (scipy), a dense matrix product (BLAS), and
float-to-text formatting (the GRD and CSV writers). Each part is timed on
its own and compared with its time on the reference machine. The slowdown
is the geometric mean of the three ratios, so each part weighs the same.
"""

import statistics
import time

import numpy as np
from scipy.signal import oaconvolve

# median seconds of one repeat of each part on the reference machine:
# Intel Xeon, 2 processors, one BLAS thread (see baseline.json)
REFERENCE_S = {"fft": 0.028, "matmul": 0.0031, "format": 0.023}

_rng = np.random.default_rng(20070519)
_A, _B = _rng.standard_normal((2, 200, 700))
_M = _rng.standard_normal((300, 300))
_V = _rng.standard_normal(20000)

# part -> (function, repeats); one sample takes about 0.12 s, long enough
# to average over the host's sub-second jitter
_PARTS = {
    "fft": (lambda: oaconvolve(_A, _B), 2),
    "matmul": (lambda: _M @ _M @ _M, 5),
    "format": (lambda: " ".join("%.17g" % x for x in _V), 2),
}


def slowdown() -> float:
    """This moment's time for the reference computation ÷ the reference
    machine's: above 1 when the host runs slower."""
    logs = 0.0
    for name, (part, repeats) in _PARTS.items():
        t0 = time.perf_counter()
        for _ in range(repeats):
            part()
        seconds = (time.perf_counter() - t0) / repeats
        logs += np.log(seconds / REFERENCE_S[name])
    return float(np.exp(logs / len(_PARTS)))


class Meter:
    """Slowdown samples of one run, and the time spent taking them."""

    def __init__(self):
        self.samples = []
        self.seconds = 0.0

    def sample(self):
        t0 = time.perf_counter()
        self.samples.append(slowdown())
        self.seconds += time.perf_counter() - t0

    def median(self) -> float:
        return statistics.median(self.samples)
