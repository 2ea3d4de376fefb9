"""Ensemble quantile classifiers and their benchmark harness."""

from .asymlaplace import (
    ALParams,
    ALPopulation,
    al_bayes_discriminant,
    al_oracle_coefficients,
)
from .binary import (
    FittedEqc,
    VariableScaling,
    class_transforms,
    eqc_discriminant,
    eqc_scores,
    fit_binary_eqc,
    oracle_classifier,
    predict_binary,
    qc_discriminant,
)
from .bench import ExperimentConfig, config_from_file, run_experiment
from .data import Dataset
from .errors import DomainError, EqcError, FitError, ParseError, TuningError
from .features import fisher_exact_pvalue, fisher_exact_select, remove_low_frequency
from .ingest import SparseDtm, load_dense_csv, load_sparse_dtm, save_dense_csv
from .metalearners import Coefficients, SolverReport, fit_linear_svm, hinge_loss
from .modelio import load_model, save_model
from .multiclass import (
    build_design,
    class_probabilities,
    fit_multiclass_eqc,
    predict_multiclass,
)
from .quantiles import (
    QuantileParams,
    QuantileTable,
    estimate_quantile_table,
    quantile_difference_transform,
    quantile_distance,
)
from .scenarios import (
    GeneratedData,
    ScenarioSpec,
    generate,
    random_correlation_matrix,
)
from .selection import (
    CvResult,
    TuningGrid,
    make_folds,
    misclassification_rate,
    tune_and_train,
)

__version__ = "0.1.0"
