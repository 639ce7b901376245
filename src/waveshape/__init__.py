"""Wavelet-domain implicit shape pipeline.

TSDF construction, compact biorthogonal wavelet coding, diffusion-based
generation / inversion / manipulation with pluggable denoisers, isosurface
extraction, and shape-set evaluation metrics.

Importing the package loads every submodule; names are used through them,
e.g. ``waveshape.tsdf.sample_tsdf``.
"""

__version__ = "0.1.0"

from . import (conditioning, diffusion, errors, formats, grid,  # noqa: F401
               manipulation, metrics, rng, surface, tsdf, wavelet)
