"""Learned likelihood-ratio hypothesis tests with simulation-calibrated cutoffs.

A first network is trained to tell null from alternative simulations and
its linear predictor becomes the test statistic; a second network (or a
constant, when the null is fully known) learns the critical-value surface
over the nuisance parameters.  The package ships the scenario generators,
an adaptive two-stage binomial trial simulator with sample-size
reassessment, classical comparator tests, and a config-driven harness
that reproduces the benchmark tables.
"""

__version__ = "0.1.0"

import os
import warnings

# One BLAS thread unless the environment says otherwise.  Set before the
# first numpy import below, because OpenBLAS reads it once at load: the
# bits of a matmul depend on the thread count, and spawned workers
# inherit the variables, so pooled and inline fits stay identical.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
for _var in _BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")
_threaded = [
    v for v in _BLAS_THREAD_VARS if os.environ[v].strip().isdigit() and int(os.environ[v]) > 1
]
if _threaded:
    warnings.warn(
        f"{', '.join(_threaded)} above 1: BLAS runs multi-threaded, so results are "
        "not assured byte-equal across --workers",
        RuntimeWarning,
    )
del _var, _threaded

from .streams import RandomStream, derive_seed
from .stats import (
    SampleSummary,
    beta_from_moments,
    empirical_upper_quantile,
    normal_cdf,
    normal_quantile,
    student_t_quantile,
    summarize,
)
from .nnet import (
    HEAD_CLASSIFIER,
    HEAD_REGRESSOR,
    Network,
    NetworkSpec,
    TrainConfig,
    TrainingDivergedError,
)
from .scenarios import (
    Dataset,
    DatasetCounts,
    ScenarioSpec,
    adaptive_scenario,
    behrens_fisher_scenario,
    generate_training_data,
    known_sigma_scenario,
    unknown_sigma_scenario,
)
from .ssr import DesignParams, TrialBatch, TrialPath, n2_lookup_table
from .pipeline import (
    CandidatePool,
    ConstantCutoff,
    FittedTest,
    decide,
    decide_batch,
    fit_statistic_net,
    fit_critical_surface,
    load_bundle,
    observed_features,
    save_bundle,
)
from .harness import (
    CacheStore,
    ExperimentConfig,
    ResultsTable,
    Row,
    Sizes,
    StageError,
    asn_for_power,
    fit_test,
    heatmap_export,
    load_config,
    packaged_config,
    reproduce,
    run_experiment,
)

__all__ = [
    "__version__",
    "RandomStream",
    "derive_seed",
    "SampleSummary",
    "beta_from_moments",
    "empirical_upper_quantile",
    "normal_cdf",
    "normal_quantile",
    "student_t_quantile",
    "summarize",
    "HEAD_CLASSIFIER",
    "HEAD_REGRESSOR",
    "Network",
    "NetworkSpec",
    "TrainConfig",
    "TrainingDivergedError",
    "Dataset",
    "DatasetCounts",
    "ScenarioSpec",
    "adaptive_scenario",
    "behrens_fisher_scenario",
    "generate_training_data",
    "known_sigma_scenario",
    "unknown_sigma_scenario",
    "DesignParams",
    "TrialBatch",
    "TrialPath",
    "n2_lookup_table",
    "CandidatePool",
    "ConstantCutoff",
    "FittedTest",
    "decide",
    "decide_batch",
    "fit_statistic_net",
    "fit_critical_surface",
    "load_bundle",
    "observed_features",
    "save_bundle",
    "CacheStore",
    "ExperimentConfig",
    "ResultsTable",
    "Row",
    "Sizes",
    "StageError",
    "asn_for_power",
    "fit_test",
    "heatmap_export",
    "load_config",
    "packaged_config",
    "reproduce",
    "run_experiment",
]
