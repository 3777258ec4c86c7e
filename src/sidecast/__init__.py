"""Surface temperature reconstruction for a conducting strip.

Given interior temperature histories at depths 1 and 2 below the surface,
recover the surface history by closed-form sideways continuation of their
spectra on a cutoff window sized by the noise level, represent the result
as a cardinal (Sinc) series, and measure errors against closed-form test
problems.

Submodules are imported lazily by the CLI so that thread caps can be
applied before numpy loads; library users just import what they need:

    from sidecast import kernels, regularizer
"""

__version__ = "0.1.0"

__all__ = [
    "fields",
    "kernels",
    "transform",
    "regularizer",
    "sinc",
    "harness",
    "cli",
]
