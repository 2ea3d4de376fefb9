"""Ensemble quantile classifiers and their benchmark harness."""

from .asymlaplace import (
    ALParams,
    ALPopulation,
    al_bayes_discriminant,
    al_oracle_coefficients,
    al_pdf,
    al_sample,
)
from .binary import (
    FittedEqc,
    PopulationLossEstimate,
    VariableScaling,
    class_transforms,
    empirical_loss,
    eqc_discriminant,
    eqc_scores,
    estimate_population_loss,
    fit_binary_eqc,
    oracle_classifier,
    predict_binary,
    qc_discriminant,
)
from .bench import ExperimentConfig, config_from_file, run_experiment
from .data import Dataset
from .errors import DomainError, EqcError, FitError, ParseError, TuningError
from .features import fisher_exact_pvalue, fisher_exact_select, remove_low_frequency
from .ingest import SparseDtm, load_dense_csv, load_sparse_dtm, save_dense_csv, save_sparse_dtm
from .metalearners import (
    Coefficients,
    PenaltySpec,
    SolverConfig,
    SolverReport,
    binomial_loss,
    fit_linear_svm,
    hinge_loss,
)
from .modelio import load_model, save_model
from .multiclass import (
    MulticlassDesign,
    build_design,
    class_probabilities,
    fit_multiclass_eqc,
    predict_multiclass,
)
from .quantiles import (
    QuantileParams,
    QuantileTable,
    empirical_quantile,
    estimate_quantile_table,
    quantile_difference_transform,
    quantile_distance,
)
from .scenarios import (
    GeneratedData,
    ScenarioSpec,
    apply_gaussian_copula,
    generate,
    random_correlation_matrix,
    sample_base_variable,
)
from .selection import (
    CvResult,
    TuningGrid,
    make_folds,
    misclassification_rate,
    tune_and_train,
)

__version__ = "0.1.0"
