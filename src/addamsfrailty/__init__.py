"""Shared discrete-frailty models for clustered current-status data."""

from .analysis import (
    Estimate,
    RCPair,
    RCRow,
    RCTable,
    TrajectoryCurve,
    hr_across,
    hr_across_quantile_matched,
    hr_within,
    hr_within_table,
    rc_table,
    rfv_parameter_table,
    trajectories,
)
from .config import RunConfig, load_config
from .data import Cluster, CurrentStatusDataset, UnitRecord, read_csv, write_csv
from .estimation import (
    FitResult,
    ParameterLayout,
    delta_method_se,
    fit,
    hessian,
    lrt,
    pinned_result,
    transformed_ci,
)
from .family import (
    AddamsParameters,
    FrailtyBranch,
    SupportPoint,
    classify_branch,
    conditional_moments,
    laplace,
    laplace_derivative,
    log_laplace,
    rfv,
    support_and_pmf,
    support_value,
)
from .hazard import (
    PIENTER2_CUTPOINTS,
    BranchRegime,
    ExponentialBaseline,
    FrailtyLink,
    GeneralizedGammaBaseline,
    LinearPredictor,
    ModelSpec,
    PiecewiseConstantBaseline,
    WeibullBaseline,
)
from .likelihood import LikelihoodWorkspace, cluster_loglik
from .simulate import MonitoringLaw, SimConfig, generate, sample_event_time, sample_frailty

__version__ = "0.1.0"
