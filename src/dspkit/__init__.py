"""Solvability tests, rigid catalogs, and generic-eigenvalue tools for tuples of
conjugacy-class shapes (the Deligne-Simpson problem for generic eigenvalues).

Importing the package loads none of its submodules: each exported name is
imported from its submodule on first use, so a CLI command loads only the
modules it runs.
"""

__version__ = "0.1.0"

#: Each submodule and the names the package exports from it.
_EXPORTS = {
    "catalog": (
        "ChainStep", "SeriesId", "all_series_ids", "catalog_lines", "defect", "enumerate_rigid",
        "identify", "is_rigid", "min_d_mv", "parse_series_id", "series", "verify_chain",
        "verify_step",
    ),
    "errors": (
        "ChainMismatchError", "DspkitError", "ObstructionError", "PreconditionError",
        "ResourceLimitError", "SeriesParameterError",
    ),
    "genericity": (
        "EigenvalueAssignment", "ExactValue", "NongenericityWitness", "assignment_from_dict",
        "assignment_to_dict", "candidate_assignment", "gcd_obstruction", "generate_generic",
        "nongenericity_witness", "trace_condition",
    ),
    "jnf": (
        "Jnf", "JnfTuple", "corresponding_diagonal", "jnf_from_dict", "jnf_tuple_from_dict",
        "parse_pmv",
    ),
    "partitions": (
        "Partition", "disjoint_sum", "dual", "normalize", "parse_partition",
    ),
    "reduction": (
        "ConditionReport", "Reason", "ReductionTrace", "TraceStep", "Verdict",
        "check_conditions", "decide", "psi_step", "solvable_pmv",
    ),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name):
    # PEP 562: called only for names not yet in the package namespace
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
