"""Solvability tests, rigid catalogs, and generic-eigenvalue tools for tuples of
conjugacy-class shapes (the Deligne-Simpson problem for generic eigenvalues)."""

from .catalog import (
    ChainStep,
    EnumConstraints,
    SeriesId,
    all_series_ids,
    antipassage_targets,
    canonical_form,
    case_omega,
    catalog_lines,
    defect,
    enumerate_rigid,
    expected_chain,
    identify,
    is_rigid,
    min_d_mv,
    parse_series_id,
    passage,
    series,
    verify_chain,
)
from .errors import (
    ChainMismatchError,
    DspkitError,
    ObstructionError,
    PreconditionError,
    ResourceLimitError,
    SeriesParameterError,
    UndefinedMoveError,
)
from .genericity import (
    EigenvalueAssignment,
    ExactValue,
    NongenericityWitness,
    assignment_from_dict,
    assignment_to_dict,
    candidate_assignment,
    gcd_obstruction,
    generate_generic,
    is_generic,
    nongenericity_witness,
    trace_condition,
)
from .jnf import (
    Jnf,
    JnfTuple,
    centralizer_dim_oracle,
    corresponding_diagonal,
    diagonalized,
    jnf_from_dict,
    jnf_to_dict,
    jnf_tuple_from_dict,
    jnf_tuple_to_dict,
    parse_pmv,
)
from .partitions import (
    Partition,
    disjoint_sum,
    dual,
    normalize,
    parse_partition,
    partitions_of,
)
from .reduction import (
    ConditionReport,
    Reason,
    ReductionTrace,
    TraceStep,
    Verdict,
    check_conditions,
    decide,
    psi_step,
    solvable_pmv,
    trace_to_dict,
)

__version__ = "0.1.0"
