"""In-process span tracing of dspkit's public functions.

``Tracer.installed()`` replaces every public function of the traced modules,
under every name a module looks it up by, with a wrapper that records one
span per call: name, start, end, parent span and job id.  Spans live in flat
arrays while the pass runs and are written out when it ends.  A function that
returns a generator (``partitions_of``, ``all_series_ids``) gets one span whose
busy time is the time spent producing its items.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import statistics
import time
from array import array
from collections import Counter, defaultdict

TRACED_MODULES = ("partitions", "jnf", "reduction", "catalog", "genericity", "cli")

#: Per-call result tallies: span name -> function of the return value.
OBSERVE = {
    "reduction.solvable_pmv": bool,
    "catalog.identify": bool,
    "reduction.decide": lambda trace: len(trace.steps),
    "genericity.nongenericity_witness": lambda w: w is not None,
    "catalog.enumerate_rigid": len,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.job = 0
        self.name = array("i")
        self.parent = array("i")
        self.job_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.gen_busy: dict[int, float] = {}
        self.tally: dict[str, int] = defaultdict(int)
        self.items: dict[str, int] = defaultdict(int)
        self.stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, label: str, fn):
        nid = self._id(label)
        observe = OBSERVE.get(label)
        perf = time.perf_counter
        stack = self.stack
        names, parents, jobs, starts, ends = (self.name, self.parent, self.job_of,
                                              self.start, self.end)

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(self.job)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                stack.pop()
            if observe is not None:
                self.tally[label] += observe(result)
            if inspect.isgenerator(result):
                return self._iterate(idx, label, result)
            return result

        return traced

    def _iterate(self, idx: int, label: str, gen):
        perf = time.perf_counter
        self.gen_busy[idx] = self.end[idx] - self.start[idx]
        while True:
            self.stack.append(idx)
            t0 = perf()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                t1 = perf()
                self.stack.pop()
                self.gen_busy[idx] += t1 - t0
                self.end[idx] = t1
            self.items[label] += 1
            yield item

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced function where callers look it up; restore on exit."""
        mods = [importlib.import_module(f"dspkit.{m}") for m in TRACED_MODULES]
        wrappers = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
        undo = []
        for mod in [importlib.import_module("dspkit"), *mods]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        jnf_tuple = importlib.import_module("dspkit.jnf").JnfTuple
        from_pmv = jnf_tuple.__dict__["from_pmv"]
        undo.append((jnf_tuple, "from_pmv", from_pmv))
        jnf_tuple.from_pmv = classmethod(self.wrap("jnf.JnfTuple.from_pmv", from_pmv.__func__))
        try:
            yield self
        finally:
            for owner, attr, obj in reversed(undo):
                setattr(owner, attr, obj)

    # -- analysis ---------------------------------------------------------

    def busy(self) -> list[float]:
        out = [e - s for s, e in zip(self.start, self.end)]
        for idx, b in self.gen_busy.items():
            out[idx] = b
        return out

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total busy seconds, self seconds and the
        per-call durations.  Self time is busy time minus the busy time of
        direct child spans."""
        busy = self.busy()
        child = [0.0] * len(busy)
        for idx, par in enumerate(self.parent):
            if par >= 0:
                child[par] += busy[idx]
        out: dict[str, dict] = {}
        for idx, nid in enumerate(self.name):
            rec = out.setdefault(self.names[nid], {"calls": 0, "s": 0.0, "self_s": 0.0,
                                                   "durations": []})
            rec["calls"] += 1
            rec["s"] += busy[idx]
            rec["self_s"] += busy[idx] - child[idx]
            rec["durations"].append(busy[idx])
        return out

    def counts(self) -> dict[str, int]:
        """Everything that must repeat exactly between two traced passes."""
        out = {f"{self.names[k]}.calls": v for k, v in Counter(self.name).items()}
        out.update({f"{k}.tally": v for k, v in self.tally.items()})
        out.update({f"{k}.items": v for k, v in self.items.items()})
        return dict(sorted(out.items()))

    def write(self, stem: str) -> None:
        """Spans as fixed-width arrays (``<stem>.bin``) with a JSON index."""
        fields = [("name", self.name), ("parent", self.parent), ("job", self.job_of),
                  ("start", self.start), ("end", self.end),
                  ("busy", array("d", self.busy()))]
        with open(stem + ".bin", "wb") as handle:
            for _, arr in fields:
                arr.tofile(handle)
        with open(stem + ".json", "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "spans": len(self.start),
                       "fields": [(f, arr.typecode, arr.itemsize) for f, arr in fields]},
                      handle)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from one traced pass."""
    summ = tracer.summary()

    def get(name: str, key: str) -> float:
        rec = summ.get(name)
        return rec[key] if rec else 0

    def p50(name: str) -> float:
        rec = summ.get(name)
        return statistics.median(rec["durations"]) if rec else 0.0

    m: dict[str, float] = {}
    for name, keys in (
        ("partitions.partitions_of", ("calls", "s")),
        ("catalog.enumerate_rigid", ("s", "self_s")),
        ("reduction.solvable_pmv", ("calls", "s")),
        ("catalog.catalog_lines", ("s",)),
        ("catalog.identify", ("calls", "s")),
        ("reduction.decide", ("calls", "s")),
        ("reduction.psi_step", ("calls", "s")),
        ("reduction.check_conditions", ("calls", "s")),
        ("partitions.normalize", ("calls", "s")),
        ("jnf.JnfTuple.from_pmv", ("calls", "s")),
        ("catalog.series", ("calls", "s")),
        ("catalog.expected_chain", ("s",)),
        ("catalog.verify_chain", ("self_s",)),
        ("jnf.jnf_tuple_from_dict", ("s",)),
        ("reduction.trace_to_dict", ("s",)),
        ("genericity.generate_generic", ("calls", "s")),
        ("genericity.nongenericity_witness", ("calls", "s")),
        ("cli.main", ("s",)),
    ):
        for key in keys:
            m[f"{name}.{key}"] = get(name, key)
    tally, items = tracer.tally, tracer.items
    m["partitions.partitions_of.items"] = items["partitions.partitions_of"]
    m["catalog.enumerate_rigid.dup_ratio"] = _ratio(tally["reduction.solvable_pmv"],
                                                    tally["catalog.enumerate_rigid"])
    m["reduction.solvable_pmv.solvable_ratio"] = _ratio(tally["reduction.solvable_pmv"],
                                                        get("reduction.solvable_pmv", "calls"))
    m["catalog.identify.p50_s"] = p50("catalog.identify")
    m["catalog.identify.hit_ratio"] = _ratio(tally["catalog.identify"],
                                             get("catalog.identify", "calls"))
    m["reduction.decide.p50_s"] = p50("reduction.decide")
    m["reduction.decide.steps"] = tally["reduction.decide"]
    m["genericity.generate_generic.attempts_per_call"] = _ratio(
        get("genericity.candidate_assignment", "calls"),
        get("genericity.generate_generic", "calls"))
    m["genericity.nongenericity_witness.witness_ratio"] = _ratio(
        tally["genericity.nongenericity_witness"],
        get("genericity.nongenericity_witness", "calls"))
    m["cli.self_s"] = sum(rec["self_s"] for name, rec in summ.items() if name.startswith("cli."))
    return m
