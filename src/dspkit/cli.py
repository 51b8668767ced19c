"""Command-line surface: decision, tracing, enumeration, catalog tools, duality,
and genericity checks, with stable text and JSON output.

Verdicts are data, not exit codes: a NotSolvable decision still exits 0.  A
failed check or construction exits 1 (a catalog-verify failure, a chain
mismatch, an obstructed generic-gen), malformed input exits 2, and an exceeded
resource guard exits 3: enum-rigid's one work budget (it has no size or entry
limit), or generic-check's, which decides by elimination and exits
3 only when an input with n > 14 needs the relation search or its relation
system is too large (past about HG_350).  generic-gen certifies its assignment
in closed form and has no size guard.  generic-gen's --seed, enum-rigid's --jobs
and catalog-verify's --chains are accepted and have no effect (perfbench's
workloads pass them).

catalog-verify checks one reduction step per instance: each successor is a
smaller instance of the same run, so that proves rigidity, every chain and the
ReducedToSize1 verdict, and no decision runs.  chain ID checks the steps of one
chain the same way.  A step that is not defined, or a successor that is not a
catalog instance, is a chain mismatch (exit 1), not malformed input.

Start-up loads only what the command runs: at module level this file imports
just the standard library and ``errors``, and each command handler imports its
own modules on its first lines, before it reads any input.

A process enters through ``run()`` (``python -m dspkit.cli`` and the ``dspkit``
script).  After ``main()`` it runs the exit handlers, flushes stdout and stderr
and ends with ``os._exit``: it skips only the interpreter's teardown, which frees
every module and object and costs 5-9 ms per process.  A live thread, or a flush that
fails otherwise than on a closed pipe, takes the normal exit.  A closed stdout pipe ends
one way whatever the output size, whether a write in ``main`` or the last flush meets
it: exit 2 and the one stderr line ``error: [Errno 32] Broken pipe``.  ``main(argv)``
returns the code and exits nothing, so tests and benchmarks call it in their own process.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import sys

from .errors import (
    ChainMismatchError,
    DspkitError,
    ObstructionError,
    ResourceLimitError,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


# compact JSON text with sorted keys; json.dumps would build an encoder per call
_compact_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _emit_json(obj) -> None:
    print(_compact_json(obj))


def _tuple_from_args(args):
    from .jnf import jnf_tuple_from_dict, parse_pmv

    if bool(args.pmv) == bool(args.jnf):
        raise ValueError("provide exactly one of: a multiplicity-vector tuple, --jnf")
    if args.jnf:
        return jnf_tuple_from_dict(json.loads(args.jnf))
    t = parse_pmv(args.pmv)
    if str(t) != "".join(args.pmv.split()):
        print(f"warning: normalized {args.pmv!r} to {t}", file=sys.stderr)
    return t


def _decide(t, catalog, reduction):
    trace = reduction.decide(t)
    return trace, [catalog.identify(s.state) for s in trace.steps]


def _defect(trace) -> int:
    # the input's: its first state keeps its size, and a dropped scalar entry has d = 0
    return 2 - trace.steps[0].report.alpha_slack


def _decide_json(trace, chain, reduction) -> str:
    """The decide/trace JSON line: ``chain`` and ``defect``, then the trace's own
    keys, written after them in sorted order by ``reduction.trace_json``."""
    return ('{"chain":' + _compact_json(chain)
            + f',"defect":{_defect(trace)},' + reduction.trace_json(trace)[1:])


def _print_verdict(v) -> None:
    word = "Solvable" if v.solvable else "NotSolvable"
    print(f"verdict: {word} ({v.reason.value}) at step {v.at_step}")


def _cmd_decide(args) -> int:
    # imported before any input is read: loaded in the middle of a batch, they raise peak RSS
    from . import catalog, reduction
    from .jnf import jnf_tuple_from_dict, parse_pmv

    if args.file:
        if args.pmv or args.jnf:
            raise ValueError("--file takes no tuple: give a tuple or --file, not both")
        bad = False
        with open(args.file, "r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    item = json.loads(line)
                    t = parse_pmv(item) if isinstance(item, str) else jnf_tuple_from_dict(item)
                except (ValueError, KeyError, TypeError, DspkitError) as exc:
                    # a malformed line is reported in place; the rest of the batch still runs
                    _emit_json({"line": number, "error": str(exc)})
                    bad = True
                    continue
                trace, chain = _decide(t, catalog, reduction)
                print(_decide_json(trace, chain, reduction))
        return EXIT_USAGE if bad else EXIT_OK
    t = _tuple_from_args(args)
    trace, chain = _decide(t, catalog, reduction)
    if args.json:
        print(_decide_json(trace, chain, reduction))
        return EXIT_OK
    _print_verdict(trace.verdict)
    print(f"defect: {_defect(trace)}")
    labels = []
    for names, step in zip(chain, trace.steps):
        labels.append("=".join(names) if names else str(step.state))
    print("chain: " + " -> ".join(labels))
    return EXIT_OK


def _cmd_trace(args) -> int:
    from . import catalog, reduction

    t = _tuple_from_args(args)
    trace, chain = _decide(t, catalog, reduction)
    if args.json:
        print(_decide_json(trace, chain, reduction))
        return EXIT_OK
    _print_verdict(trace.verdict)
    for i, (step, names) in enumerate(zip(trace.steps, chain)):
        s = step.state
        # a Jordan state prints as its JSON form, spaced as json.dumps spaces it
        state = str(s) if s.is_diagonal else json.dumps(json.loads(reduction.jnf_tuple_json(s)),
                                                        sort_keys=True)
        tag = f"  [{'='.join(names)}]" if names else ""
        print(f"step {i}: n={step.n} {state}{tag}")
        if step.dropped_scalar_indices:
            print(f"  dropped scalar entries: {list(step.dropped_scalar_indices)}")
        rep = step.report
        print(f"  alpha slack {rep.alpha_slack}, beta margins {list(rep.beta_margins)}, "
              f"omega slack {rep.omega_slack}, n1={step.n1}")
    return EXIT_OK


def _cmd_defect(args) -> int:
    from . import catalog

    t = _tuple_from_args(args)
    value = catalog.defect(t)
    if args.json:
        _emit_json({"n": t.n, "defect": value, "rigid": value == 2})
    else:
        print(f"defect: {value} ({'rigid' if value == 2 else 'not rigid'})")
    return EXIT_OK


def _cmd_enum_rigid(args) -> int:
    from . import catalog, partitions

    if args.defect != 2:
        raise ValueError(f"only defect 2 (rigid) can be enumerated, not {args.defect}")
    results = catalog.enumerate_rigid(args.n, args.entries, u=args.u, no_all_ones=args.no_all_ones,
                                      no_scalar=args.no_scalar)
    records = catalog.catalog_lines(results)
    if args.json:
        for record in records:
            _emit_json(record)
    else:
        for record in records:
            text = partitions.format_vectors(record["entries"])
            names = ",".join(record["series_names"]) or "-"
            print(f"{text}  defect={record['defect']}  [{names}]")
        print(f"total: {len(records)}")
    return EXIT_OK


def _cmd_series(args) -> int:
    from . import catalog

    sid = catalog.parse_series_id(args.id)
    t = catalog.series(sid)
    if args.json:
        _emit_json({
            "id": str(sid),
            "n": t.n,
            "entries": [list(vec) for vec in t._vecs],  # a diagonal tuple's vectors
            "defect": catalog.defect(t),
        })
    else:
        print(t)
    return EXIT_OK


def _cmd_chain(args) -> int:
    from . import catalog

    sid = catalog.parse_series_id(args.id)
    steps = catalog.verify_chain(sid)
    labels = [step.label for step in steps]
    if args.json:
        _emit_json({"id": str(sid),
                    "chain": labels,
                    "states": [str(step) for step in steps]})
    else:
        print(" -> ".join(labels))
    return EXIT_OK


def _cmd_dual(args) -> int:
    from .jnf import corresponding_diagonal, jnf_from_dict
    from .partitions import dual, parse_partition

    if bool(args.partition) == bool(args.jnf):
        raise ValueError("provide exactly one of --partition, --jnf")
    if args.partition:
        result = dual(parse_partition(args.partition))
    else:
        result = corresponding_diagonal(jnf_from_dict(json.loads(args.jnf)))
    if args.json:
        _emit_json({"parts": list(result.parts)})
    else:
        print(result)
    return EXIT_OK


def _cmd_min_d(args) -> int:
    from . import catalog

    mv = catalog.min_d_mv(args.n, args.r)
    if args.json:
        _emit_json({"parts": list(mv.parts)})
    else:
        print(mv)
    return EXIT_OK


def _cmd_generic_check(args) -> int:
    from .genericity import (
        assignment_from_dict,
        nongenericity_witness,
        trace_condition,
        witness_to_dict,
    )

    if bool(args.assignment) == bool(args.file):
        raise ValueError("provide exactly one of: assignment JSON, --file")
    if args.assignment:
        a = assignment_from_dict(json.loads(args.assignment))
    else:
        with open(args.file, "r", encoding="utf-8") as handle:
            a = assignment_from_dict(json.load(handle))
    witness = nongenericity_witness(a)
    traced = trace_condition(a)
    payload = {
        "trace_condition": traced,
        "generic": traced and witness is None,
        "witness": None if witness is None else witness_to_dict(witness),
    }
    if args.json:
        _emit_json(payload)
    else:
        print(f"trace condition: {traced}")
        if not traced:
            print("generic: false (trace condition fails)")
        elif witness is None:
            print("generic: true")
        else:
            print(f"generic: false (kappa={witness.kappa}, "
                  f"choice={list(map(list, witness.sub_multiplicities))})")
    return EXIT_OK


def _cmd_generic_gen(args) -> int:
    from .genericity import assignment_to_dict, generate_generic

    t = _tuple_from_args(args)
    a = generate_generic(t, args.mode, product_exponent=args.product_exponent)
    _emit_json(assignment_to_dict(a))
    return EXIT_OK


def _cmd_catalog_verify(args) -> int:
    from . import catalog

    if args.max_n < 1:
        raise ValueError(f"--max-n must be at least 1, not {args.max_n}")
    per_family: dict[str, dict] = {}
    failures = []
    for sid in catalog.all_series_ids(args.max_n):
        stats = per_family.setdefault(sid.name, {"instances": 0, "ok": 0})
        stats["instances"] += 1
        try:
            # one edge: each successor is a smaller instance checked in this run too
            catalog.verify_step(sid)
            stats["ok"] += 1
        except ChainMismatchError as exc:
            failures.append(str(exc))
    payload = {"families": per_family, "failures": failures,
               "all_ok": not failures}
    if args.json:
        _emit_json(payload)
    else:
        for name in sorted(per_family):
            stats = per_family[name]
            print(f"{name}: {stats['ok']}/{stats['instances']} instances OK")
        print("all OK" if not failures else f"failures: {failures}")
    return EXIT_FAILED if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dspkit",
        description="Solvability tests, rigid-tuple catalogs, and generic-eigenvalue "
                    "tools for tuples of conjugacy-class shapes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tuple_args(p, with_file=False):
        p.add_argument("pmv", nargs="?", default=None,
                       help="multiplicity-vector tuple, e.g. \"(2,2,1);(3,2);(4,1)\"")
        p.add_argument("--jnf", default=None,
                       help="JSON tuple {\"n\":..,\"entries\":[{\"eigenvalues\":[[..]]},..]}")
        if with_file:
            p.add_argument("--file", default=None,
                           help="batch mode: JSON lines, each a tuple")
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("decide", help="solvability verdict with chain names")
    add_tuple_args(p, with_file=True)
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("trace", help="full reduction trace")
    add_tuple_args(p)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("defect", help="2n^2 minus the dimension sum")
    add_tuple_args(p)
    p.set_defaults(func=_cmd_defect)

    p = sub.add_parser("enum-rigid", help="exhaustive rigid-tuple enumeration")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--entries", type=int, required=True)
    p.add_argument("--u", type=int, default=None,
                   help="keep tuples with an entry whose parts are all <= U")
    p.add_argument("--no-all-ones", action="store_true")
    p.add_argument("--no-scalar", action="store_true")
    p.add_argument("--defect", type=int, default=2, help="only 2 (rigid) is accepted")
    p.add_argument("--jobs", type=int, default=1, help="accepted; has no effect")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_enum_rigid)

    p = sub.add_parser("series", help="instantiate a named family, e.g. W_2")
    p.add_argument("id")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("chain", help="verify a family's reduction chain")
    p.add_argument("id")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("dual", help="conjugate partition / corresponding diagonal shape")
    p.add_argument("--partition", default=None)
    p.add_argument("--jnf", default=None,
                   help="JSON shape {\"eigenvalues\":[[4,2,2],[5,1]]}")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("min-d", help="dimension-minimizing vector at fixed rank")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_min_d)

    p = sub.add_parser("generic-check", help="trace condition and genericity of an assignment")
    p.add_argument("assignment", nargs="?", default=None)
    p.add_argument("--file", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_generic_check)

    p = sub.add_parser("generic-gen", help="generate a certified-generic assignment")
    add_tuple_args(p)
    p.add_argument("--mode", choices=["additive", "multiplicative"], default="additive")
    p.add_argument("--seed", type=int, default=0, help="accepted; has no effect")
    p.add_argument("--product-exponent", type=int, default=1)
    p.set_defaults(func=_cmd_generic_gen)

    p = sub.add_parser("catalog-verify", help="rigidity and chain of every catalog instance")
    p.add_argument("--max-n", type=int, default=60)
    p.add_argument("--chains", action="store_true",
                   help="accepted; has no effect (chains are always checked)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_catalog_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ObstructionError, ChainMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except BrokenPipeError:
        raise  # stdout is a closed pipe, which run() reports
    except (ValueError, KeyError, TypeError, OSError, DspkitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _closed_stdout(exc: BrokenPipeError) -> int:
    print(f"error: {exc}", file=sys.stderr)
    # what stdout still holds cannot be written: the exit's flush sends it nowhere
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_USAGE


def run() -> None:
    """The process entry point: ``main()``, then an exit with no teardown."""
    try:
        code = main()
    except BrokenPipeError as exc:
        code = _closed_stdout(exc)
    threading = sys.modules.get("threading")
    if threading is None or threading.active_count() == 1:
        atexit._run_exitfuncs()
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except BrokenPipeError as exc:
            code = _closed_stdout(exc)
        except (AttributeError, OSError, ValueError):
            pass  # left to the normal exit
        else:
            os._exit(code)
    raise SystemExit(code)


if __name__ == "__main__":
    run()
