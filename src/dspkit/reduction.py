"""Solvability conditions, the size-reducing step, and the full decision loop.

For a tuple of class shapes of size n the three conditions are

    alpha:  d_1 + ... + d_{p+1} >= 2n^2 - 2
    beta:   for every j,  sum of the other r_i >= n
    omega:  r_1 + ... + r_{p+1} >= 2n

``decide`` assumes generic eigenvalues (the caller's responsibility, see
``dspkit.genericity``): it checks alpha once up front, then repeatedly drops
scalar entries, stops with a verdict when omega holds, when the size reaches 1,
or when beta fails, and otherwise applies one reduction step, shrinking n to
n1 = sum(r_j) - n.  The quantity 2n^2 - sum(d_j) is invariant along the way.
``decide`` checks the conditions once per step and passes that report on to the
step itself; ``psi_step``, the step for outside callers, keeps its contract: it
checks every precondition and raises ``PreconditionError`` when one fails.

Reduction chains share long suffixes, so the per-entry cut of ``psi_step`` is
memoized: the shapes in the tuples that ``psi_step`` and ``decide`` return may
be shared objects.  They are immutable; never mutate them.

``trace_json`` writes a trace's compact, sorted-key JSON text directly, ints,
booleans and ``null`` inline and each state through ``jnf_tuple_json``; it is the
one definition of the trace schema, and ``trace_to_dict`` parses its output.
"""

from __future__ import annotations

import json
from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Sequence

from .errors import PreconditionError
from .jnf import Jnf, JnfTuple, jnf_tuple_json
from .partitions import normalize

#: Bound on the memoized per-entry cuts, chosen by measurement: a `decide --file`
#: of 500 mixed random and catalog lines (perfbench's `batch`, seed 7919) makes
#: 5,528 cuts of 957 distinct (entry, slot, k) triples; deciding and naming its
#: lines in process took 0.144 s with the cache and 0.201 s without (medians of
#: 12 alternating runs, Python 3.11, 2 cores).
_CUT_CACHE_SIZE = 1024


class Reason(str, Enum):
    OMEGA_HOLDS = "OmegaHolds"
    REDUCED_TO_SIZE1 = "ReducedToSize1"
    ALPHA_FAILS = "AlphaFails"
    BETA_FAILS = "BetaFails"
    DEGENERATE_INPUT = "DegenerateInput"


class ConditionReport(NamedTuple):
    alpha: bool
    alpha_slack: int
    beta: bool
    beta_margins: tuple[int, ...]
    omega: bool
    omega_slack: int


class Verdict(NamedTuple):
    solvable: bool
    reason: Reason
    at_step: int


class TraceStep(NamedTuple):
    state: JnfTuple
    report: ConditionReport
    n: int
    n1: int | None
    dropped_scalar_indices: tuple[int, ...]


class ReductionTrace(NamedTuple):
    steps: tuple[TraceStep, ...]
    verdict: Verdict

    @property
    def solvable(self) -> bool:
        return self.verdict.solvable


def check_conditions(t: JnfTuple) -> ConditionReport:
    n = t.n
    rs = [e.r for e in t.entries]
    dsum = sum(e.d for e in t.entries)
    rsum = sum(rs)
    alpha_slack = dsum - (2 * n * n - 2)
    margins = tuple(rsum - r - n for r in rs)
    omega_slack = rsum - 2 * n
    return ConditionReport(
        alpha=alpha_slack >= 0,
        alpha_slack=alpha_slack,
        beta=all(m >= 0 for m in margins),
        beta_margins=margins,
        omega=omega_slack >= 0,
        omega_slack=omega_slack,
    )


def psi_step(t: JnfTuple) -> JnfTuple:
    """One reduction step: shrink from size n to n1 = sum(r_j) - n.

    In every entry the first eigenvalue slot (in canonical order) with the
    maximal block count loses 1 from each of its n - n1 smallest blocks; empty
    blocks (and slots) are deleted.  For a diagonal entry this just cuts the
    largest multiplicity by n - n1.  Cutting another maximal slot would not
    change the verdict of the decision loop.  The returned entries may be
    shared with earlier results (see the module docstring).
    """
    n = t.n
    if n <= 1:
        raise PreconditionError("cannot reduce a tuple of size 1")
    if any(e.is_scalar() for e in t.entries):
        raise PreconditionError("scalar entries must be dropped before reducing")
    rep = check_conditions(t)
    if rep.omega:
        raise PreconditionError("omega holds; the reduction step is not defined")
    if not rep.beta:
        raise PreconditionError("beta fails; the reduction step is not defined")
    return _step(t, rep)


def _step(t: JnfTuple, rep: ConditionReport) -> JnfTuple:
    """``psi_step`` of ``t`` given its report, with the preconditions already checked."""
    k = -rep.omega_slack  # n - n1, with n1 = sum(r_j) - n
    new_entries = []
    for e in t.entries:
        max_count = e.n - e.r
        if k > max_count:  # beta guarantees n - n1 <= n - r_j
            raise RuntimeError(f"block bound broken: cutting {k} from {max_count} blocks")
        chosen = next(i for i, s in enumerate(e.slots) if len(s.parts) == max_count)
        new_entries.append(_cut(e, chosen, k))
    return JnfTuple(tuple(new_entries))


@lru_cache(maxsize=_CUT_CACHE_SIZE)
def _cut(e: Jnf, chosen: int, k: int) -> Jnf:
    """``e`` with 1 cut from each of the ``k`` smallest blocks of slot ``chosen``;
    an emptied slot is deleted."""
    blocks = list(e.slots[chosen].parts)
    for i in range(len(blocks) - k, len(blocks)):
        blocks[i] -= 1
    reduced = normalize(blocks)
    slots = [s for i, s in enumerate(e.slots) if i != chosen]
    if reduced.parts:
        slots.append(reduced)
    return Jnf(tuple(slots))


def decide(t: JnfTuple) -> ReductionTrace:
    """Full decision for generic eigenvalues, with an auditable step record.

    Scalar entries are dropped (and recorded) whenever they appear; the step
    states in the trace are the post-drop tuples, except that the terminal
    size-1 state is recorded as produced.
    """
    steps: list[TraceStep] = []
    cur = t
    defect0 = None
    while True:
        n = cur.n
        if n == 1:
            steps.append(TraceStep(cur, check_conditions(cur), n, None, ()))
            verdict = Verdict(True, Reason.REDUCED_TO_SIZE1, len(steps) - 1)
            break
        scalars = tuple(i for i, e in enumerate(cur.entries) if e.is_scalar())
        if len(cur.entries) - len(scalars) < 2:
            steps.append(TraceStep(cur, check_conditions(cur), n, None, scalars))
            verdict = Verdict(False, Reason.DEGENERATE_INPUT, len(steps) - 1)
            break
        if scalars:
            drop = set(scalars)
            cur = JnfTuple(tuple(e for i, e in enumerate(cur.entries) if i not in drop))
        rep = check_conditions(cur)
        defect = 2 - rep.alpha_slack  # 2n^2 - sum of d, since alpha slack is sum of d - (2n^2 - 2)
        if defect0 is None:
            # alpha is tested at the first step only; the defect must stay put after it
            defect0 = defect
            if not rep.alpha:
                steps.append(TraceStep(cur, rep, n, None, scalars))
                verdict = Verdict(False, Reason.ALPHA_FAILS, len(steps) - 1)
                break
        elif defect != defect0:
            raise RuntimeError(f"defect invariant broken: {defect0} became {defect} at size {n}")
        if rep.omega:
            steps.append(TraceStep(cur, rep, n, None, scalars))
            verdict = Verdict(True, Reason.OMEGA_HOLDS, len(steps) - 1)
            break
        if not rep.beta:
            steps.append(TraceStep(cur, rep, n, None, scalars))
            verdict = Verdict(False, Reason.BETA_FAILS, len(steps) - 1)
            break
        n1 = n + rep.omega_slack
        steps.append(TraceStep(cur, rep, n, n1, scalars))
        cur = _step(cur, rep)
    return ReductionTrace(tuple(steps), verdict)


def solvable_pmv(mvs: Sequence[Sequence[int]]) -> bool:
    """Verdict of ``decide`` specialized to diagonal tuples given as raw
    multiplicity vectors (non-increasing int sequences of equal sum).

    Allocation-light; the enumerator checks every tuple it emits with it.
    """
    cur = [tuple(m) for m in mvs]
    if len(cur) < 2:
        return False
    n = sum(cur[0])
    dsum = 0
    for m in cur:
        s = 0
        for x in m:
            s += x * x
        dsum += n * n - s
    if dsum < 2 * n * n - 2:
        return n == 1
    while True:
        if n == 1:
            return True
        cur = [m for m in cur if len(m) > 1]
        if len(cur) < 2:
            return False
        rsum = 0
        rmax = 0
        for m in cur:
            r = n - m[0]
            rsum += r
            if r > rmax:
                rmax = r
        if rsum >= 2 * n:
            return True
        if rsum - rmax < n:
            return False
        n1 = rsum - n
        k = n - n1
        nxt = []
        for m in cur:
            head = m[0] - k
            rest = m[1:]
            if head > 0:
                rest = tuple(sorted((head, *rest), reverse=True))
            nxt.append(rest)
        cur = nxt
        n = n1


_JSON_BOOL = ("false", "true")


def trace_json(trace: ReductionTrace) -> str:
    """The trace as compact JSON text with sorted keys, ``{"steps":[...],"verdict":{...}}``.

    Each step holds its size ``n``, the next size ``n1`` (``null`` at the last step),
    the ``dropped`` scalar entries, the ``state``, the three condition reports, and
    ``pmv``, the state's vector text, when it is diagonal.  That text and the
    reason names are digits and ASCII punctuation or letters: nothing to escape.
    """
    steps = []
    for step in trace.steps:
        rep = step.report
        state = step.state
        pmv = f',"pmv":"{state}"' if state.is_diagonal else ""
        n1 = "null" if step.n1 is None else step.n1
        steps.append(
            f'{{"alpha":{{"holds":{_JSON_BOOL[rep.alpha]},"slack":{rep.alpha_slack}}},'
            f'"beta":{{"holds":{_JSON_BOOL[rep.beta]},'
            f'"margins":[{",".join(map(str, rep.beta_margins))}]}},'
            f'"dropped":[{",".join(map(str, step.dropped_scalar_indices))}],'
            f'"n":{step.n},"n1":{n1},'
            f'"omega":{{"holds":{_JSON_BOOL[rep.omega]},"slack":{rep.omega_slack}}}{pmv},'
            f'"state":{jnf_tuple_json(state)}}}')
    v = trace.verdict
    return (f'{{"steps":[{",".join(steps)}],"verdict":{{"at_step":{v.at_step},'
            f'"reason":"{v.reason.value}","solvable":{_JSON_BOOL[v.solvable]}}}}}')


def trace_to_dict(trace: ReductionTrace) -> dict:
    """Stable JSON-ready form of a trace: ``trace_json``'s text, parsed."""
    return json.loads(trace_json(trace))
