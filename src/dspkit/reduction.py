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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from .errors import PreconditionError
from .jnf import Jnf, JnfTuple, jnf_tuple_to_dict
from .partitions import normalize


class Reason(str, Enum):
    OMEGA_HOLDS = "OmegaHolds"
    REDUCED_TO_SIZE1 = "ReducedToSize1"
    ALPHA_FAILS = "AlphaFails"
    BETA_FAILS = "BetaFails"
    DEGENERATE_INPUT = "DegenerateInput"


@dataclass(frozen=True)
class ConditionReport:
    alpha: bool
    alpha_slack: int
    beta: bool
    beta_margins: tuple[int, ...]
    omega: bool
    omega_slack: int


@dataclass(frozen=True)
class Verdict:
    solvable: bool
    reason: Reason
    at_step: int


@dataclass(frozen=True)
class TraceStep:
    state: JnfTuple
    report: ConditionReport
    n: int
    n1: int | None
    dropped_scalar_indices: tuple[int, ...]


@dataclass(frozen=True)
class ReductionTrace:
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


def psi_step(
    t: JnfTuple,
    *,
    slot_choice: Callable[[int, Sequence[int]], int] | None = None,
) -> JnfTuple:
    """One reduction step: shrink from size n to n1 = sum(r_j) - n.

    In every entry an eigenvalue slot with the maximal block count loses 1 from
    each of its n - n1 smallest blocks; empty blocks (and slots) are deleted.
    For a diagonal entry this just cuts the largest multiplicity by n - n1.

    ``slot_choice`` may override the tie-break among slots of equal maximal
    block count (default: first in canonical order).  The verdict of the
    decision loop does not depend on this choice.
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
    n1 = n + rep.omega_slack  # = sum(r_j) - n
    k = n - n1
    new_entries = []
    for idx, e in enumerate(t.entries):
        max_count = max(len(s.parts) for s in e.slots)
        candidates = [i for i, s in enumerate(e.slots) if len(s.parts) == max_count]
        chosen = candidates[0] if slot_choice is None else slot_choice(idx, candidates)
        if chosen not in candidates:
            raise PreconditionError("slot_choice must pick a maximal-count slot")
        if k > max_count:  # beta guarantees n - n1 <= n - r_j
            raise RuntimeError(f"block bound broken: cutting {k} from {max_count} blocks")
        blocks = list(e.slots[chosen].parts)
        for i in range(len(blocks) - k, len(blocks)):
            blocks[i] -= 1
        reduced = normalize(blocks)
        slots = [s for i, s in enumerate(e.slots) if i != chosen]
        if reduced.parts:
            slots.append(reduced)
        new_entries.append(Jnf(tuple(slots)))
    return JnfTuple(tuple(new_entries))


def decide(t: JnfTuple) -> ReductionTrace:
    """Full decision for generic eigenvalues, with an auditable step record.

    Scalar entries are dropped (and recorded) whenever they appear; the step
    states in the trace are the post-drop tuples, except that the terminal
    size-1 state is recorded as produced.
    """
    steps: list[TraceStep] = []
    cur = t
    first = True
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
        defect = 2 * n * n - (rep.alpha_slack + 2 * n * n - 2)
        if defect0 is None:
            defect0 = defect
        if defect != defect0:
            raise RuntimeError(f"defect invariant broken: {defect0} became {defect} at size {n}")
        if first and not rep.alpha:
            steps.append(TraceStep(cur, rep, n, None, scalars))
            verdict = Verdict(False, Reason.ALPHA_FAILS, len(steps) - 1)
            break
        first = False
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
        cur = psi_step(cur)
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


def trace_to_dict(trace: ReductionTrace) -> dict:
    """Stable JSON-ready form of a trace."""
    steps = []
    for step in trace.steps:
        rep = step.report
        entry = {
            "n": step.n,
            "n1": step.n1,
            "dropped": list(step.dropped_scalar_indices),
            "state": jnf_tuple_to_dict(step.state),
            "alpha": {"holds": rep.alpha, "slack": rep.alpha_slack},
            "beta": {"holds": rep.beta, "margins": list(rep.beta_margins)},
            "omega": {"holds": rep.omega, "slack": rep.omega_slack},
        }
        if step.state.is_diagonal:
            entry["pmv"] = str(step.state)
        steps.append(entry)
    return {
        "verdict": {
            "solvable": trace.verdict.solvable,
            "reason": trace.verdict.reason.value,
            "at_step": trace.verdict.at_step,
        },
        "steps": steps,
    }
