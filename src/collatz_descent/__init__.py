"""First-descent structure of Collatz trajectories.

Exact step dynamics, the algebra of minimal descent patterns and their
2^j*k+x residue classes, depth classification of the naturals, and
sieve-accelerated range verification.
"""

from .core import (
    DEFAULT_STEP_CAP,
    DescentTrace,
    chain_descents,
    col_step,
    descent_trace,
    total_stopping_time,
)
from .errors import (
    CollatzDescentError,
    CycleDetected,
    DepthTooLarge,
    NotADescent,
    StepCapExceeded,
    UnrealizablePattern,
)
from .patterns import (
    DescentPattern,
    FeasibilityRow,
    ResidueClass,
    UnresolvedLeaves,
    alternating_family,
    enumerate_minimal_patterns,
    feasibility_margin,
    feasibility_table,
    first_lower_value,
    iter_minimal_pattern_texts,
    pattern_constants,
    residue_for_pattern,
    subsequent_lower_value,
    unresolved_leaves,
)
from .scanner import (
    MAX_DEPTH,
    ScanReport,
    TwinRecord,
    classify_depth,
    record_search,
    sieve_scan,
    twin_check,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_STEP_CAP",
    "MAX_DEPTH",
    "CollatzDescentError",
    "CycleDetected",
    "DepthTooLarge",
    "DescentPattern",
    "DescentTrace",
    "FeasibilityRow",
    "NotADescent",
    "ResidueClass",
    "ScanReport",
    "StepCapExceeded",
    "TwinRecord",
    "UnrealizablePattern",
    "UnresolvedLeaves",
    "alternating_family",
    "chain_descents",
    "classify_depth",
    "col_step",
    "descent_trace",
    "enumerate_minimal_patterns",
    "feasibility_margin",
    "feasibility_table",
    "first_lower_value",
    "iter_minimal_pattern_texts",
    "pattern_constants",
    "record_search",
    "residue_for_pattern",
    "sieve_scan",
    "subsequent_lower_value",
    "total_stopping_time",
    "twin_check",
    "unresolved_leaves",
]
