"""Probabilistic PCA under group-wise heteroscedastic noise.

Library layout:

- ``model``: data/model containers and log-likelihood evaluation
- ``fupdate``: factor-matrix update and Gram compression
- ``vupdate``: the five noise-variance update rules and their surrogates
- ``fitter``: alternating maximization driver
- ``baselines``: homoscedastic and weighted spectral baselines
- ``simgen``: synthetic data with planted factors
- ``metrics``: estimation-quality metrics
- ``dataio``: CSV/JSON readers and writers for datasets and fitted models
- ``benchmark``: Monte Carlo sweeps, landscape studies, surrogate curves
- ``cli``: command-line entry points
  (simulate/fit/benchmark/landscape/train-test/minorizers)

Every name a module lists in its ``__all__`` is exported here, and
``__all__`` is built from those lists, so each public name is declared
once, in the module that defines it.
"""

from . import baselines, benchmark, dataio, errors, fitter, fupdate, metrics, model, simgen, vupdate
from .baselines import *  # noqa: F403
from .benchmark import *  # noqa: F403
from .dataio import *  # noqa: F403
from .errors import *  # noqa: F403
from .fitter import *  # noqa: F403
from .fupdate import *  # noqa: F403
from .metrics import *  # noqa: F403
from .model import *  # noqa: F403
from .simgen import *  # noqa: F403
from .vupdate import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (errors, model, vupdate, fupdate, fitter, baselines, simgen, metrics, dataio, benchmark)
    for name in module.__all__
] + ["__version__"]
