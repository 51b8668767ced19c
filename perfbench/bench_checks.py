"""The benchmark's own correctness checks.

Nothing here calls dspkit: every reference is either written out by hand from
the classification tables or recomputed from the job's output with plain
integer and rational arithmetic.  A check returns ``(problems, items)``: the
list of problems found (empty when the output is right) and the number of
inputs the job completed.  A check may raise on output it cannot read; the
runner counts that as a failed job.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Callable

Check = Callable[[str], "tuple[list[str], int]"]


def _tw(twos: int, ones: int) -> list[int]:
    return [2] * twos + [1] * ones


# Rigid tuples with a vector of parts <= 2, no scalar and no all-ones vector,
# transcribed from the classification tables (h = n // 2).  ``None`` marks the
# even-n quadruple family that the published table misses: its name is left
# unconstrained.
EVEN_TRIPLES = {
    "Gamma1": lambda n, h: [[2] * h, _tw(h - 3, 6), [n - 2, 2]],
    "Gamma2": lambda n, h: [_tw(h - 1, 2), _tw(h - 2, 4), [n - 2, 2]],
    "Gamma3": lambda n, h: [_tw(h - 1, 2), _tw(h - 1, 2), [n - 2, 1, 1]],
    "Gamma4": lambda n, h: [[2] * h, _tw(h - 2, 4), [n - 2, 1, 1]],
    "Y1": lambda n, h: [_tw(h - 2, 4), [h - 1, h - 1, 2], [h, h]],
    "Y2": lambda n, h: [_tw(h - 1, 2), [h - 1, h - 1, 1, 1], [h, h]],
    "Y3": lambda n, h: [_tw(h - 2, 4), [h, h - 2, 1, 1], [h, h]],
    "Y4": lambda n, h: [_tw(h - 3, 6), [h, h - 2, 2], [h, h]],
    "Y5": lambda n, h: [_tw(h - 1, 2), [h, h - 1, 1], [h, h - 1, 1]],
    "Y6": lambda n, h: [_tw(h - 2, 4), [h - 1, h - 1, 1, 1], [h + 1, h - 1]],
    "Y7": lambda n, h: [_tw(h - 3, 6), [h - 1, h - 1, 2], [h + 1, h - 1]],
}
ODD_TRIPLES = {
    "X1": lambda n, h: [_tw(h - 2, 5), _tw(h, 1), [n - 2, 2]],
    "X2": lambda n, h: [_tw(h - 1, 3), _tw(h - 1, 3), [n - 2, 2]],
    "Z1": lambda n, h: [_tw(h, 1), [h, h, 1], [h, h, 1]],
    "Z2": lambda n, h: [_tw(h - 2, 5), [h, h - 1, 2], [h + 1, h]],
    "Z3": lambda n, h: [_tw(h - 1, 3), [h, h - 1, 1, 1], [h + 1, h]],
    "Z4": lambda n, h: [_tw(h - 1, 3), [h, h, 1], [h + 1, h - 1, 1]],
    # OG is indexed by k with n = 2k + 1, i.e. k = h
    "OG": lambda n, h: [_tw(h - 1, 3), _tw(h, 1), [n - 2, 1, 1]],
}
EVEN_QUADRUPLES = {
    "Xi": lambda n, h: [[2] * h, [h, h], [h, h], [n - 1, 1]],
    "Theta": lambda n, h: [_tw(h - 1, 2), [h, h], [h + 1, h - 1], [n - 1, 1]],
    None: lambda n, h: [[n - 1, 1], [n - 1, 1], [2] * h, _tw(h - 1, 2)],
}

#: Tuples in the one unconstrained sweep, counted once by hand.
UNCONSTRAINED_COUNTS = {(14, 3): 1004}

#: The 47 named families of the catalog.
FAMILY_NAMES = frozenset(
    "W B C D E F Phi G H I J K L V N P R S T HG OF EF FF OG Star Xi Theta Psi6 "
    "Pi Delta Gamma1 Gamma2 Gamma3 Gamma4 Y1 Y2 Y3 Y4 Y5 Y6 Y7 X1 X2 Z1 Z2 Z3 Z4".split())


def _canon(entries) -> tuple:
    return tuple(sorted((tuple(sorted(e, reverse=True)) for e in entries), reverse=True))


def classification_reference(n: int, entries: int) -> dict[tuple, str | None]:
    """Canonical tuple -> expected catalog name (None: name not constrained)."""
    h = n // 2
    if entries == 3:
        table = EVEN_TRIPLES if n % 2 == 0 else ODD_TRIPLES
    elif entries == 4 and n % 2 == 0:
        table = EVEN_QUADRUPLES
    else:
        raise ValueError(f"no reference for {entries} entries at n={n}")
    out = {}
    for name, build in table.items():
        label = None if name is None else f"{name}_{h if name == 'OG' else n}"
        out[_canon(build(n, h))] = label
    return out


def _dim(n: int, mv) -> int:
    return n * n - sum(x * x for x in mv)


def _records(stdout: str, problems: list[str]) -> list[dict]:
    out = []
    for i, line in enumerate(stdout.splitlines()):
        try:
            out.append(json.loads(line))
        except json.JSONDecodeError:
            problems.append(f"line {i}: not JSON")
    return out


def _record_problems(rec: dict, n: int, entries: int) -> list[str]:
    mvs = rec.get("entries", [])
    out = []
    if rec.get("n") != n or len(mvs) != entries:
        out.append(f"{mvs}: wrong size or entry count")
    if any(sum(mv) != n or list(mv) != sorted(mv, reverse=True) or min(mv) < 1 for mv in mvs):
        out.append(f"{mvs}: an entry is not a partition of {n}")
    if mvs != [list(e) for e in _canon(mvs)]:
        out.append(f"{mvs}: entries not in canonical order")
    if 2 * n * n - sum(_dim(n, mv) for mv in mvs) != 2 or rec.get("defect") != 2:
        out.append(f"{mvs}: defect is not 2")
    return out


def classification_check(n: int, entries: int) -> Check:
    reference = classification_reference(n, entries)

    def check(stdout: str):
        problems: list[str] = []
        records = _records(stdout, problems)
        found = {}
        for rec in records:
            problems += _record_problems(rec, n, entries)
            found[_canon(rec.get("entries", []))] = rec.get("series_names", [])
        if set(found) != set(reference):
            problems.append(f"n={n}: {len(found)} tuples found, the table has "
                            f"{len(reference)}; extra {sorted(set(found) - set(reference))}, "
                            f"missing {sorted(set(reference) - set(found))}")
        for key, name in reference.items():
            if name is not None and key in found and name not in found[key]:
                problems.append(f"{key}: expected name {name}, got {found[key]}")
        return problems, 1

    return check


def unconstrained_check(n: int, entries: int) -> Check:
    expected = UNCONSTRAINED_COUNTS.get((n, entries))

    def check(stdout: str):
        problems: list[str] = []
        records = _records(stdout, problems)
        keys = []
        for rec in records:
            problems += _record_problems(rec, n, entries)
            if any(len(mv) < 2 for mv in rec.get("entries", [])):
                problems.append(f"{rec.get('entries')}: scalar entry")
            keys.append(tuple(map(tuple, rec.get("entries", []))))
        if keys != sorted(set(keys)):
            problems.append("records not strictly ascending")
        if expected is not None and len(records) != expected:
            problems.append(f"{len(records)} tuples, expected {expected}")
        return problems, 1

    return check


# ---------------------------------------------------------------------------
# batch: audit every trace from its recorded states


def _conjugate(parts) -> list[int]:
    return [sum(1 for p in parts if p > k) for k in range(max(parts, default=0))]


def _state_invariants(state: dict):
    """(n, r per entry, d per entry) recomputed from the recorded Jordan shape."""
    sizes = [sum(sum(b) for b in e["eigenvalues"]) for e in state["entries"]]
    n = sizes[0] if sizes else 0
    if any(s != n for s in sizes) or state.get("n") != n:
        raise ValueError(f"entry sizes {sizes} disagree with n={state.get('n')}")
    rs = [n - max(len(b) for b in e["eigenvalues"]) for e in state["entries"]]
    ds = [n * n - sum(c * c for b in e["eigenvalues"] for c in _conjugate(b))
          for e in state["entries"]]
    return n, rs, ds


def audit_trace(payload: dict, n_in: int) -> list[str]:
    """Problems with one ``decide`` record: every condition value, the step
    sizes, the defect invariant and the verdict against the terminal step."""
    out = []
    steps = payload.get("steps") or []
    verdict = payload.get("verdict", {})
    defect = payload.get("defect")
    if not steps or verdict.get("at_step") != len(steps) - 1:
        return [f"verdict step {verdict.get('at_step')} vs {len(steps)} steps"]
    if len(payload.get("chain", [])) != len(steps):
        out.append("chain length differs from the step count")
    if steps[0]["n"] != n_in:
        out.append(f"first step has n={steps[0]['n']}, input has n={n_in}")
    for i, st in enumerate(steps):
        try:
            n, rs, ds = _state_invariants(st["state"])
        except (ValueError, KeyError) as exc:
            out.append(f"step {i}: {exc}")
            continue
        rsum = sum(rs)
        alpha = sum(ds) - (2 * n * n - 2)
        margins = [rsum - r - n for r in rs]
        omega = rsum - 2 * n
        if st["n"] != n:
            out.append(f"step {i}: n={st['n']}, state has size {n}")
        if (st["alpha"]["slack"] != alpha or st["alpha"]["holds"] != (alpha >= 0)
                or st["beta"]["margins"] != margins
                or st["beta"]["holds"] != all(m >= 0 for m in margins)
                or st["omega"]["slack"] != omega or st["omega"]["holds"] != (omega >= 0)):
            out.append(f"step {i}: condition values differ from the state")
        if 2 * n * n - sum(ds) != defect:
            out.append(f"step {i}: defect {2 * n * n - sum(ds)} != {defect}")
        last = i == len(steps) - 1
        if not last:
            if st["n1"] != rsum - n or steps[i + 1]["n"] != st["n1"] or not 0 < st["n1"] < n:
                out.append(f"step {i}: n1={st['n1']} but sum(r) - n = {rsum - n}")
            if omega >= 0 or min(margins) < 0 or (i == 0 and alpha < 0) or min(rs) < 1:
                out.append(f"step {i}: reduced although a stop condition held")
            continue
        if st["n1"] is not None:
            out.append("terminal step has n1")
        reason = verdict.get("reason")
        solvable = verdict.get("solvable")
        ok = {
            "OmegaHolds": solvable is True and omega >= 0 and (i > 0 or alpha >= 0),
            "ReducedToSize1": solvable is True and n == 1,
            "AlphaFails": solvable is False and i == 0 and alpha < 0,
            "BetaFails": solvable is False and min(margins) < 0 and omega < 0,
            "DegenerateInput": solvable is False and sum(r > 0 for r in rs) < 2,
        }.get(reason, False)
        if not ok:
            out.append(f"verdict {reason} (solvable={solvable}) does not match the last step")
    return out


def batch_check(meta: list[dict]) -> Check:
    def check(stdout: str):
        problems: list[str] = []
        records = _records(stdout, problems)
        if len(records) != len(meta):
            problems.append(f"{len(records)} records for {len(meta)} lines")
        for i, (rec, m) in enumerate(zip(records, meta)):
            problems += [f"line {i}: {p}" for p in audit_trace(rec, m["n"])]
            if m["kind"] == "catalog":
                if not rec["verdict"]["solvable"]:
                    problems.append(f"line {i}: catalog instance {m['name']} not solvable")
                if m["name"] not in rec["chain"][0]:
                    problems.append(f"line {i}: {m['name']} not named, got {rec['chain'][0]}")
        return problems, len(records)

    return check


# ---------------------------------------------------------------------------
# chains


def chains_check(all_families: bool) -> Check:
    """``all_families``: every one of the 47 families must have been verified."""

    def check(stdout: str):
        problems: list[str] = []
        payload = json.loads(stdout)
        families = payload["families"]
        if payload["all_ok"] is not True or payload["failures"]:
            problems.append(f"failures: {payload['failures']}")
        bad = [name for name, st in families.items() if st["ok"] != st["instances"]]
        if bad:
            problems.append(f"families with failed instances: {sorted(bad)}")
        missing = FAMILY_NAMES - set(families)
        if all_families and missing:
            problems.append(f"families missing: {sorted(missing)}")
        return problems, sum(st["instances"] for st in families.values())

    return check


# ---------------------------------------------------------------------------
# genericity: exact values are {"1": q, "t<i>": q} coefficient maps


def _value(coeffs: dict) -> dict[str, Fraction]:
    return {k: Fraction(v) for k, v in coeffs.items() if Fraction(v)}


def _combine(pairs) -> dict[str, Fraction]:
    """sum of weight * value over (weight, value) pairs."""
    total: dict[str, Fraction] = {}
    for weight, value in pairs:
        for key, cf in value.items():
            total[key] = total.get(key, Fraction(0)) + weight * cf
    return {k: v for k, v in total.items() if v}


def _is_relation(total: dict[str, Fraction], mode: str) -> bool:
    if any(k != "1" for k in total):
        return False
    const = total.get("1", Fraction(0))
    return const == 0 if mode == "additive" else const.denominator == 1


def _trace_total(assignment: dict) -> dict[str, Fraction]:
    return _combine((item["mult"], _value(item["coeffs"]))
                    for entry in assignment["entries"] for item in entry)


def generated_check(mults, mode: str) -> Check:
    want = [sorted(m) for m in mults]

    def check(stdout: str):
        a = json.loads(stdout)
        got = [sorted(item["mult"] for item in entry) for entry in a["entries"]]
        problems = []
        if a["mode"] != mode or got != want:
            problems.append(f"mode {a['mode']} / multiplicities {got}, expected {mode} / {want}")
        if not _is_relation(_trace_total(a), mode):
            problems.append("trace condition fails")
        return problems, 1

    return check


def witness_problems(assignment: dict, witness: dict) -> list[str]:
    """A witness is real when its sub-multiplicities fit the assignment, all
    sum to kappa, and its weighted sum is a relation equal to its total."""
    entries = assignment["entries"]
    n = sum(item["mult"] for item in entries[0])
    kappa = witness["kappa"]
    subs = witness["sub_multiplicities"]
    if not 1 <= kappa <= n - 1 or len(subs) != len(entries):
        return [f"kappa={kappa} or {len(subs)} vectors out of range"]
    pairs = []
    for vec, entry in zip(subs, entries):
        if (len(vec) != len(entry) or sum(vec) != kappa
                or any(not 0 <= c <= item["mult"] for c, item in zip(vec, entry))):
            return [f"sub-multiplicities {vec} do not fit {[i['mult'] for i in entry]}"]
        pairs += [(c, _value(item["coeffs"])) for c, item in zip(vec, entry)]
    total = _combine(pairs)
    if not _is_relation(total, assignment["mode"]):
        return ["witness is not a relation"]
    if total != _value(witness["total"]):
        return ["witness total differs from its sub-selection sum"]
    return []


def generic_check_check(expect_generic: bool, assignment: dict | None = None) -> Check:
    def check(stdout: str):
        payload = json.loads(stdout)
        problems = []
        if payload["trace_condition"] is not True:
            problems.append("trace condition reported false")
        if payload["generic"] is not expect_generic:
            problems.append(f"generic={payload['generic']}, expected {expect_generic}")
        elif expect_generic and payload["witness"] is not None:
            problems.append("generic with a witness")
        elif not expect_generic:
            problems += witness_problems(assignment, payload["witness"])
        return problems, 1

    return check


def planted_nongeneric(mults, kappa: int) -> dict:
    """An additive assignment with the trace condition and a sub-selection
    relation at ``kappa``: every slot gets its own formal basis element, then
    two slots are solved so that both the trace sum and the chosen
    sub-selection sum vanish."""
    slots = [(j, s, m) for j, entry in enumerate(mults) for s, m in enumerate(entry)]
    choice = {}
    for j, entry in enumerate(mults):
        remaining = kappa
        for s, m in enumerate(entry):
            choice[j, s] = min(m, remaining)
            remaining -= choice[j, s]
    values = {(j, s): {f"t{i + 1}": Fraction(1)} for i, (j, s, _) in enumerate(slots)}
    mult = {(j, s): m for j, s, m in slots}
    pair = next(((a, b) for a in values for b in values if a != b
                 and choice[a] * mult[b] - choice[b] * mult[a] != 0), None)
    if pair is None:
        # sub-selection proportional to the multiplicities: the trace
        # condition alone implies the relation
        a = slots[-1][:2]
        rest = _combine((mult[k], values[k]) for k in values if k != a)
        values[a] = _combine([(Fraction(-1, mult[a]), rest)])
    else:
        a, b = pair
        det = choice[a] * mult[b] - choice[b] * mult[a]
        rel = _combine((choice[k], values[k]) for k in values if k not in pair)
        tr = _combine((mult[k], values[k]) for k in values if k not in pair)
        values[a] = _combine([(Fraction(-mult[b], det), rel), (Fraction(choice[b], det), tr)])
        values[b] = _combine([(Fraction(-choice[a], det), tr), (Fraction(mult[a], det), rel)])
    entries = [[{"coeffs": {k: str(v) for k, v in sorted(values[j, s].items())}, "mult": m}
                for s, m in enumerate(entry)] for j, entry in enumerate(mults)]
    assignment = {"mode": "additive", "entries": entries}
    for entry in entries:
        keys = [json.dumps(item["coeffs"], sort_keys=True) for item in entry]
        if len(set(keys)) != len(keys):
            raise ValueError("planted assignment repeats a value within an entry")
    return assignment
