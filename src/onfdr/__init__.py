"""Streaming multiple-hypothesis testing: online FDR-controlling procedures,
offline baselines, and a seeded Monte Carlo harness."""

from .baselines import BatchResult, bh, bh_adjusted, offline_rows, score, \
    uncorrected
from .procedures import (
    ConfigError,
    DecisionRecord,
    Decisions,
    HorizonExhaustedError,
    ProcedureConfig,
    ProcedureKind,
    StreamState,
    check_rows,
    decide,
    decide_rows,
    decide_stack,
    default_config,
    default_sequence,
    limit_level,
    make_stream,
    next_level,
    observe,
    rebound_stream,
    run_stream,
)
from .scenarios import (
    EstimateResult,
    KIDNEY_REALISATIONS,
    KidneyCell,
    KidneyTrialScenario,
    MixtureAlternative,
    MixtureScenario,
    PlatformTrialScenario,
    estimate,
    estimate_many,
    eval_kidney,
    gen_mixture,
    gen_platform,
)
from .sequences import (
    Normalization,
    SequenceError,
    SequenceKind,
    SequenceSpec,
    SequenceTable,
    build_table,
    gamma_jm,
    rebound,
    validate_xi,
    xi_constant_bounded,
)
from .stattests import TwoByTwoTable, fisher_exact_greater, pvalue_one_sided, \
    pvalue_two_sided

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
