"""Seeded job lists for the four benchmark workloads.

A job is one CLI invocation (argv after ``python -m dspkit.cli``) plus the
benchmark's own check of its stdout.  Inputs are derived from the seed only;
the CLI sees nothing but the generated files and the argv.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import bench_checks as checks

#: The first vector's parts are capped at 2 for the classification sweeps,
#: exactly as the classification tables are stated.
CLASSIFY = ["--u", "2", "--no-all-ones", "--no-scalar", "--defect", "2"]

#: The largest triple sweep: the bulk of the enumerator and kernel work.
LARGE_TRIPLES_N = 34

#: Catalog size cap of the chains workload.
CHAINS_MAX_N = 30

#: Lines of the batch workload's ``decide --file`` input.
BATCH_LINES = 500

#: Catalog instances used as genericity anchors, always present.
GENERIC_ANCHORS = ("HG_10",)


@dataclass
class Job:
    """One CLI call.  ``check`` maps the stdout to (problems, inputs done);
    ``save_as`` keeps the stdout as a file that later jobs of the pass read."""

    id: str
    argv: list[str]
    check: Callable[[str], tuple[list[str], int]]
    save_as: str | None = None


@dataclass
class Workload:
    jobs: list[Job]
    notes: dict


# ---------------------------------------------------------------------------
# sweep


def sweep(seed: int, jobs: int, smoke: bool = False) -> Workload:
    """Classification sweeps through ``enum-rigid``; the seed orders the jobs."""
    if smoke:
        cases = [("triples-22", 22, 3, CLASSIFY), ("triples-23", 23, 3, CLASSIFY),
                 ("quadruples-8", 8, 4, CLASSIFY), ("unconstrained-6", 6, 3, ["--no-scalar"])]
    else:
        cases = [("triples-22", 22, 3, CLASSIFY), ("triples-23", 23, 3, CLASSIFY),
                 (f"triples-{LARGE_TRIPLES_N}", LARGE_TRIPLES_N, 3, CLASSIFY),
                 ("quadruples-12", 12, 4, CLASSIFY),
                 ("unconstrained-14", 14, 3, ["--no-scalar"])]
    out = []
    for job_id, n, entries, flags in cases:
        argv = ["enum-rigid", "--n", str(n), "--entries", str(entries), *flags,
                "--jobs", str(jobs), "--json"]
        if flags is CLASSIFY:
            check = checks.classification_check(n, entries)
        else:
            check = checks.unconstrained_check(n, entries)
        out.append(Job(job_id, argv, check))
    random.Random(seed).shuffle(out)
    return Workload(out, {"seed_use": "orders the jobs"})


# ---------------------------------------------------------------------------
# batch


def random_partition(rng: random.Random, n: int) -> list[int]:
    parts = []
    rem = n
    while rem:
        p = rng.randint(1, rem)
        parts.append(p)
        rem -= p
    return sorted(parts, reverse=True)


def _pmv_text(mvs) -> str:
    return ";".join("(" + ",".join(map(str, mv)) + ")" for mv in mvs)


def batch_lines(seed: int, count: int) -> tuple[list[str], list[dict]]:
    """JSON lines for ``decide --file`` and, per line, what the checks know
    about it independently (the catalog name a shuffled instance must carry)."""
    from dspkit import catalog  # the instance builder of the code under test

    rng = random.Random(seed)
    pool = list(catalog.all_series_ids(40))
    kinds = ["diagonal"] * (count // 2) + ["jordan"] * (count // 4)
    picks = count - len(kinds)
    kinds += ["catalog"] * picks
    rng.shuffle(kinds)
    # one instance from each of `picks` equal slices of the catalog (family by
    # family, n ascending), so every seed draws the same mix of families and
    # sizes and the batch's cost does not swing with the seed
    bounds = [len(pool) * i // picks for i in range(picks + 1)]
    chosen = [pool[rng.randrange(lo, hi)] for lo, hi in zip(bounds, bounds[1:])]
    rng.shuffle(chosen)
    lines, meta = [], []
    for kind in kinds:
        if kind == "diagonal":
            n = rng.randint(2, 30)
            mvs = [random_partition(rng, n) for _ in range(rng.randint(3, 5))]
            lines.append(json.dumps(_pmv_text(mvs)))
            meta.append({"kind": kind, "n": n})
        elif kind == "jordan":
            n = rng.randint(2, 16)
            entries = [{"eigenvalues": [random_partition(rng, s)
                                        for s in random_partition(rng, n)]}
                       for _ in range(rng.randint(3, 4))]
            lines.append(json.dumps({"n": n, "entries": entries}))
            meta.append({"kind": kind, "n": n})
        else:
            sid = chosen.pop()
            mvs = [list(mv.parts) for mv in catalog.series_mvs(sid)]
            rng.shuffle(mvs)
            lines.append(json.dumps(_pmv_text(mvs)))
            meta.append({"kind": kind, "n": sum(mvs[0]), "name": str(sid)})
    return lines, meta


def batch(seed: int, workdir: str, smoke: bool = False) -> Workload:
    count = 24 if smoke else BATCH_LINES
    lines, meta = batch_lines(seed, count)
    path = os.path.join(workdir, f"batch-{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    job = Job("decide-file", ["decide", "--file", path], checks.batch_check(meta))
    kinds = {k: sum(m["kind"] == k for m in meta) for k in ("diagonal", "jordan", "catalog")}
    return Workload([job], {"lines": count, "kinds": kinds})


# ---------------------------------------------------------------------------
# chains


def chains(smoke: bool = False) -> Workload:
    """Every catalog instance up to the size cap with its chain.  The seed is
    unused: the input is the catalog itself."""
    max_n = 10 if smoke else CHAINS_MAX_N
    job = Job("catalog-verify", ["catalog-verify", "--max-n", str(max_n), "--chains", "--json"],
              checks.chains_check(all_families=True))
    return Workload([job], {"seed_use": "unused", "max_n": max_n})


# ---------------------------------------------------------------------------
# generic


def count_subvectors(mults, kappa: int) -> int:
    """Vectors 0 <= c_i <= m_i with sum kappa."""
    ways = [1] + [0] * kappa
    for m in mults:
        nxt = [0] * (kappa + 1)
        for s, w in enumerate(ways):
            if w:
                for c in range(min(m, kappa - s) + 1):
                    nxt[s + c] += w
        ways = nxt
    return ways[kappa]


def search_size(mults) -> int:
    """Table rows the meet-in-the-middle relation search builds and probes
    over all kappa, computed from the multiplicities alone.  Used to keep the
    seeded shapes within a fixed cost band, so the workload's cost does not
    swing with the seed."""
    n = sum(mults[0])
    half = (len(mults) + 1) // 2
    total = 0
    for kappa in range(1, n):
        per = [count_subvectors(m, kappa) for m in mults]
        total += math.prod(per[:half]) + math.prod(per[half:])
    return total


def _random_shape(rng: random.Random) -> dict:
    """A random three-entry Jordan tuple with non-scalar entries, n in 8..12,
    and multiplicity gcd 1, so additive generic eigenvalues exist."""
    while True:
        n = rng.randint(8, 12)
        entries = []
        for _ in range(3):
            slots = random_partition(rng, n)
            while len(slots) < 2:
                slots = random_partition(rng, n)
            entries.append([random_partition(rng, s) for s in slots])
        mults = [[sum(b) for b in e] for e in entries]
        if math.gcd(*[m for e in mults for m in e]) == 1:
            return {"n": n, "entries": [{"eigenvalues": e} for e in entries]}


def _mults(shape: dict) -> list[list[int]]:
    return [[sum(b) for b in e["eigenvalues"]] for e in shape["entries"]]


def generic_tuples(seed: int, smoke: bool = False) -> list[tuple[str, dict]]:
    """(label, JSON tuple) pairs: fixed catalog anchors plus seeded random
    shapes, each with a search size in a fixed band and together within 5% of
    the band's midpoint times their number."""
    from dspkit import catalog

    rng = random.Random(seed)
    anchors = ("HG_6", "Theta_6") if smoke else GENERIC_ANCHORS
    band, count = ((60, 200), 1) if smoke else ((500, 1500), 2)
    target = count * (band[0] + band[1]) / 2
    out = []
    for name in anchors:
        t = catalog.series(name)
        out.append((name, {"n": t.n, "entries": [{"eigenvalues": [list(s.parts) for s in e.slots]}
                                                  for e in t.entries]}))
    while True:
        shapes, total = [], 0
        while len(shapes) < count:
            shape = _random_shape(rng)
            size = search_size(_mults(shape))
            if band[0] <= size <= band[1]:
                shapes.append(shape)
                total += size
        if abs(total - target) <= 0.05 * target:
            break
    out += [(f"shape{i}", shape) for i, shape in enumerate(shapes)]
    rng.shuffle(out)
    return out


def generic(seed: int, workdir: str, smoke: bool = False) -> Workload:
    """Per tuple: ``generic-gen`` in both modes, ``generic-check`` on each
    generated assignment (a full search) and on one planted non-generic
    assignment (an early witness)."""
    jobs = []
    shapes = {}
    for label, shape in generic_tuples(seed, smoke):
        shapes[label] = shape
        mults = _mults(shape)
        tup = json.dumps(shape, separators=(",", ":"))
        for mode in ("additive", "multiplicative"):
            path = os.path.join(workdir, f"generic-{seed}-{label}-{mode}.json")
            jobs.append(Job(f"{label}-gen-{mode}",
                            ["generic-gen", "--jnf", tup, "--mode", mode, "--seed", str(seed)],
                            checks.generated_check(mults, mode), save_as=path))
            jobs.append(Job(f"{label}-check-{mode}", ["generic-check", "--file", path, "--json"],
                            checks.generic_check_check(expect_generic=True)))
        planted = checks.planted_nongeneric(mults, kappa=2)
        path = os.path.join(workdir, f"generic-{seed}-{label}-planted.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(planted, handle)
        jobs.append(Job(f"{label}-check-planted", ["generic-check", "--file", path, "--json"],
                        checks.generic_check_check(expect_generic=False, assignment=planted)))
    return Workload(jobs, {"tuples": shapes})


def probe(workdir: str) -> list[Job]:
    """Four tiny jobs, one per CLI path, added to every traced pass of every
    workload, so that each layer has measured spans on each workload.  A
    layer the workload itself does not reach shows only this small, fixed
    work."""
    path = os.path.join(workdir, "probe.jsonl")
    jordan = {"n": 3, "entries": [{"eigenvalues": [[2], [1]]}, {"eigenvalues": [[1], [1], [1]]},
                                  {"eigenvalues": [[1, 1], [1]]}]}
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps("(1,1,1);(2,1);(1,1,1)") + "\n" + json.dumps(jordan) + "\n")
    meta = [{"kind": "catalog", "n": 3, "name": "HG_3"}, {"kind": "jordan", "n": 3}]
    return [
        Job("probe-enum", ["enum-rigid", "--n", "6", "--entries", "3", *CLASSIFY,
                           "--jobs", "1", "--json"], checks.unconstrained_check(6, 3)),
        Job("probe-decide", ["decide", "--file", path], checks.batch_check(meta)),
        Job("probe-chains", ["catalog-verify", "--max-n", "3", "--chains", "--json"],
            checks.chains_check(all_families=False)),
        Job("probe-generic", ["generic-gen", "(2,1);(1,1,1);(1,1,1)"],
            checks.generated_check([[2, 1], [1, 1, 1], [1, 1, 1]], "additive")),
    ]


def build(name: str, seed: int, workdir: str, *, jobs: int = 2, smoke: bool = False) -> Workload:
    if name == "sweep":
        return sweep(seed, jobs, smoke)
    if name == "batch":
        return batch(seed, workdir, smoke)
    if name == "chains":
        return chains(smoke)
    if name == "generic":
        return generic(seed, workdir, smoke)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("sweep", "batch", "chains", "generic")
