"""Tangent-space classification of SPD covariance matrices.

A numpy/scipy library for decoding multichannel band-power signals:
affine-invariant geometry on the SPD manifold, tangent-space linear
models, spatial filter extraction from those models via generalized
eigendecomposition, a CSP baseline, spatial-pattern recovery, and a
cross-validation/statistics harness.

Setting the ``TSSF_THREADS`` environment variable caps BLAS and OpenMP
thread pools: importing this package copies it into the thread variables
of OpenBLAS, OpenMP, MKL, numexpr and Accelerate that are not already
set. Those are read when numpy loads, so the cap applies only if numpy
was not imported before this package; otherwise a warning says so.
"""

import os as _os
import sys as _sys

if _os.environ.get("TSSF_THREADS"):  # before anything below imports numpy
    if "numpy" in _sys.modules:
        import warnings as _warnings

        _warnings.warn(
            "TSSF_THREADS has no effect: numpy was imported before tssf", stacklevel=2
        )
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        _os.environ.setdefault(_var, _os.environ["TSSF_THREADS"])
    del _var

from .errors import (
    ConvergenceFailure,
    DegenerateModel,
    DegenerateStatistic,
    DimMismatch,
    FormatError,
    InvalidInput,
    NotPositiveDefinite,
    TssfError,
    UnsupportedFeatureKind,
)
from .manifold import (
    GedResult,
    airm_distance,
    ensure_spd,
    exp_map_at,
    expm,
    frechet_mean,
    ged,
    inner_product_at,
    log_map_at,
    logm,
    powm,
    subspace_angle_by_cluster,
    sym_eig,
    unvec,
    vec,
    vec_dim,
)
from .linmodel import (
    ClassifierConfig,
    LinearModel,
    fit_linear_svm,
    grid_search_cv,
    svm_objective,
)
from .tssf import (
    DIAGLOGCOV,
    FEATURE_KINDS,
    LOGVAR,
    TssfModel,
    apply_filters,
    compute_features,
    exact_decision_value,
    extract_tssf,
    fit_tangent_model,
    predict_one_step,
    tangent_filters,
    tangent_vectors,
)
from .csp import fit_csp
from .patterns import compute_patterns, patterns_to_csv
from .dataio import (
    SynthConfig,
    TrialSet,
    covariances,
    empirical_covariance,
    fir_bandpass,
    load_manifest,
    read_manifest,
    read_trials,
    synth_generate,
    write_trials,
)
from .evalstats import (
    BenchRow,
    EvalReport,
    PairedComparison,
    bench_predict,
    compare_paired,
    cross_validate,
    kfold_cv,
    roc_auc,
    smd,
    stratified_folds,
    wilcoxon_one_sided,
)
from .pipelines import (
    LOGCOV,
    PIPELINE_NAMES,
    PipelineSpec,
    load_pipeline,
    make_pipeline,
    save_pipeline,
)

__version__ = "0.1.0"
