"""The package's exports and what each entry point loads at start-up."""

import argparse
import importlib
import json
from pathlib import Path

import pytest

import dspkit
from helpers import fresh_python

EXPORTS = sorted([
    "ChainMismatchError", "ChainStep", "ConditionReport", "DspkitError", "EigenvalueAssignment",
    "ExactValue", "Jnf", "JnfTuple", "NongenericityWitness",
    "ObstructionError", "Partition", "PreconditionError", "Reason", "ReductionTrace",
    "ResourceLimitError", "SeriesId", "SeriesParameterError", "TraceStep",
    "Verdict", "all_series_ids",
    "assignment_from_dict", "assignment_to_dict", "candidate_assignment",
    "catalog_lines", "check_conditions", "corresponding_diagonal", "decide",
    "defect", "disjoint_sum", "dual", "enumerate_rigid",
    "gcd_obstruction", "generate_generic", "identify", "is_rigid", "jnf_from_dict",
    "jnf_tuple_from_dict", "min_d_mv",
    "nongenericity_witness", "normalize", "parse_partition", "parse_pmv", "parse_series_id",
    "psi_step", "series", "solvable_pmv", "trace_condition",
    "verify_chain", "verify_step",
])


def test_exports_are_the_frozen_list():
    assert sorted(dspkit.__all__) == EXPORTS
    assert len(set(dspkit.__all__)) == len(dspkit.__all__)


def test_every_export_is_its_owning_modules_object():
    for name in dspkit.__all__:
        obj = getattr(dspkit, name)
        owner = obj.__module__
        assert owner.startswith("dspkit."), name
        assert getattr(importlib.import_module(owner), name) is obj, name


def test_star_import_and_submodule_import():
    namespace = {}
    exec("from dspkit import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTS
    from dspkit import catalog

    assert catalog is importlib.import_module("dspkit.catalog")
    assert "catalog" in dir(dspkit) and "decide" in dir(dspkit)


def test_unknown_name_is_an_attribute_error():
    for name in ("centralizer_dim_oracle", "no_such_name"):
        assert not hasattr(dspkit, name)
    with pytest.raises(ImportError):
        exec("from dspkit import centralizer_dim_oracle", {})


_PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
{body}
print(json.dumps(sorted(set(sys.modules) - before)))
"""

_MAIN = """
from dspkit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main({argv!r}) == 0
"""


def _newly_loaded(body: str) -> list[str]:
    proc = fresh_python("-c", _PROBE.format(body=body))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_DECIDING = ["catalog", "cli", "errors", "jnf", "partitions", "reduction"]
# the walk and min-d build no shape, so they load no jnf
_WALKING = ["catalog", "cli", "errors", "partitions", "reduction"]
_TUPLE = "(1,1);(1,1);(1,1)"
#: Each entry point, by id, and the dspkit submodules it loads.
START_UP = {
    "import": (None, []),
    "help": (["--help"], ["cli", "errors"]),
    "dual": (["dual", "--partition", "(2,1)"], ["cli", "errors", "jnf", "partitions"]),
    "generic-gen": (["generic-gen", _TUPLE], ["cli", "errors", "genericity", "jnf", "partitions"]),
    "generic-check": (["generic-check", '{"mode":"additive","entries":[[{"coeffs":{"t1":"1"},'
                       '"mult":1},{"coeffs":{"t1":"-1"},"mult":1}],[{"coeffs":{},"mult":2}]]}'],
                      ["cli", "errors", "genericity"]),
    "decide": (["decide", _TUPLE], _DECIDING),
    "trace": (["trace", _TUPLE], _DECIDING),
    "defect": (["defect", _TUPLE], _DECIDING),
    "enum-rigid": (["enum-rigid", "--n", "4", "--entries", "3"], _WALKING),
    "min-d": (["min-d", "--n", "5", "--r", "2"], _WALKING),
    "series": (["series", "W_2"], _DECIDING),
    "chain": (["chain", "W_2"], _DECIDING),
    "catalog-verify": (["catalog-verify", "--max-n", "6"], _DECIDING),
}


def test_every_command_has_a_start_up_pin():
    from dspkit.cli import build_parser

    (commands,) = [action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    assert sorted(commands) == sorted(argv[0] for argv, _ in START_UP.values()
                                      if argv and argv[0] != "--help")


@pytest.mark.parametrize("argv, submodules", START_UP.values(), ids=START_UP.keys())
def test_start_up_loads_only_what_the_command_runs(argv, submodules):
    body = "import dspkit" if argv is None else _MAIN.format(argv=argv)
    loaded = _newly_loaded(body)
    assert [m for m in loaded if m.startswith("dspkit.")] == [f"dspkit.{m}" for m in submodules]
    if argv is not None and argv[0] == "decide":
        # the decision path uses no rational arithmetic
        assert "fractions" not in loaded and "decimal" not in loaded
    # the value types and records are written out or named tuples, not dataclasses
    assert "dataclasses" not in loaded and "inspect" not in loaded


def test_console_script_is_cli_run():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["dspkit"]
    module, _, name = target.partition(":")
    from dspkit import cli

    assert module == "dspkit.cli" and getattr(cli, name, None) is cli.run, target
