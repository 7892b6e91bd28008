"""Numerical testbed for one-sided purity testing of many-copy bipartite states."""

from .errors import InvariantError, MemoryCapError, ValidationError
from .partitions import (
    BoundCheck,
    DimensionRecord,
    Partition,
    TypeRegionCheck,
    check_dim_entropy_bound,
    complete_homogeneous,
    dimension_record,
    enumerate_partitions,
    hook_dim,
    kl_divergence,
    mn_character,
    schur_polynomial,
    shannon_entropy,
    type_region_bound,
    weyl_dim,
)
from .protocol import (
    BlockStats,
    SweepResult,
    TestReport,
    block_statistics,
    exponent_series,
    p_opt,
    p_star,
    run_test,
    slack_bound,
    tsuda_acceptance,
)
from .states import (
    StateAnalysis,
    StateSpec,
    analyze,
    build_state,
    spec_from_json,
)
from .tensorops import DEFAULT_MEMORY_CAP

__version__ = "0.1.0"
