"""The paper's contribution: offline optimisation, DBN, online scheduler."""

from .period_profile import PeriodProfile, PeriodProfiler, closed_subsets
from .longterm import (
    DPConfig,
    LongTermOptimizer,
    LongTermPlan,
    StorageGrid,
    TrainingSample,
    trace_period_matrix,
)
from .features import ALPHA_SCALE, FeatureCodec
from .ann import DBN, RBM, HeadSpec, MultiHeadMLP
from .online import (
    ALPHA_MAX,
    CoarseDecisionError,
    CoarsePolicy,
    DBNPolicy,
    HeuristicPolicy,
    InjectedInferenceFault,
    NearestSamplePolicy,
    ProposedScheduler,
    close_subset,
    validate_coarse_decision,
)
from .optimal import PlanPolicy
from .horizon import HorizonPolicy
from .offline import OfflinePipeline, TrainedPolicy, asap_load_profile
from .overhead import OverheadModel, OverheadReport

__all__ = [
    "PeriodProfile",
    "PeriodProfiler",
    "closed_subsets",
    "DPConfig",
    "StorageGrid",
    "TrainingSample",
    "LongTermPlan",
    "LongTermOptimizer",
    "trace_period_matrix",
    "FeatureCodec",
    "ALPHA_SCALE",
    "RBM",
    "HeadSpec",
    "MultiHeadMLP",
    "DBN",
    "ALPHA_MAX",
    "CoarseDecisionError",
    "CoarsePolicy",
    "InjectedInferenceFault",
    "validate_coarse_decision",
    "DBNPolicy",
    "NearestSamplePolicy",
    "HeuristicPolicy",
    "ProposedScheduler",
    "close_subset",
    "PlanPolicy",
    "HorizonPolicy",
    "OfflinePipeline",
    "TrainedPolicy",
    "asap_load_profile",
    "OverheadModel",
    "OverheadReport",
]
