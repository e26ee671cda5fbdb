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
"""

from .baselines import ppca_closed_form, weighted_pca
from .benchmark import (
    PRESETS,
    minorizer_curves,
    preset_truth,
    run_benchmark,
    run_landscape,
    train_test_nrmse,
    train_test_split,
    worker_count,
)
from .dataio import (
    SCHEMA_VERSION,
    model_record,
    read_dataset,
    read_json,
    record_to_model,
    write_dataset,
    write_json,
    write_rows,
)
from .errors import DegenerateDataError, NumericalError
from .fitter import FitConfig, FitResult, FitTrace, fit, init_random
from .fupdate import compress_gram, em_update_F
from .metrics import component_recovery, factor_error, nrmse, relative_bias, subspace_error
from .model import (
    FactorModel,
    GroupedData,
    VCoefficients,
    log_likelihood_direct,
    log_likelihood_parts,
    normalize_column_signs,
    univariate_derivative,
    univariate_objective,
    v_coefficients,
)
from .simgen import TruthModel, generate, haar_orthonormal, rng_stream
from .vupdate import (
    MINORIZER_KINDS,
    V_METHODS,
    MinorizerCoefficients,
    eval_minorizer,
    noise_floor,
    update_v,
    update_v_cubic,
    update_v_doc,
    update_v_em,
    update_v_quadratic,
    update_v_rootfind,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateDataError",
    "NumericalError",
    "GroupedData",
    "FactorModel",
    "VCoefficients",
    "MinorizerCoefficients",
    "normalize_column_signs",
    "log_likelihood_direct",
    "log_likelihood_parts",
    "v_coefficients",
    "univariate_objective",
    "univariate_derivative",
    "update_v_rootfind",
    "update_v_em",
    "update_v_doc",
    "update_v_quadratic",
    "update_v_cubic",
    "update_v",
    "eval_minorizer",
    "noise_floor",
    "V_METHODS",
    "MINORIZER_KINDS",
    "em_update_F",
    "compress_gram",
    "FitConfig",
    "FitTrace",
    "FitResult",
    "fit",
    "init_random",
    "ppca_closed_form",
    "weighted_pca",
    "TruthModel",
    "haar_orthonormal",
    "generate",
    "rng_stream",
    "factor_error",
    "subspace_error",
    "component_recovery",
    "nrmse",
    "relative_bias",
    "SCHEMA_VERSION",
    "write_dataset",
    "write_rows",
    "read_dataset",
    "write_json",
    "read_json",
    "model_record",
    "record_to_model",
    "PRESETS",
    "preset_truth",
    "run_benchmark",
    "run_landscape",
    "minorizer_curves",
    "train_test_split",
    "train_test_nrmse",
    "worker_count",
    "__version__",
]
