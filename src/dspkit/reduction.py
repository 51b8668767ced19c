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
``decide`` checks the conditions once per step and cuts by the n - n1 they give;
``psi_step``, the step for outside callers, keeps its contract: it
checks every precondition and raises ``PreconditionError`` when one fails.

``decide`` and ``psi_step`` step the entries' vectors (see ``dspkit.jnf``), so each
state is a ``JnfTuple`` of vectors, made by the input's class (this module loads no
``jnf``), whose shapes are built only if read.  An all-ones slot is its multiplicity m,
and cutting it lowers m, so a diagonal entry steps as its multiplicity vector, its
largest multiplicity lowered by n - n1, as in ``solvable_pmv``.

``trace_json`` writes a trace's compact, sorted-key JSON text directly, ints,
booleans and ``null`` inline and each state through ``jnf_tuple_json``, which joins
its entries' cached JSON (``partitions._entry_record``); they are the one definition
of the trace schema and of the tuple's JSON form.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import PreconditionError
from .partitions import _entry_record, _ranks

if TYPE_CHECKING:
    from .jnf import JnfTuple


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
    rs, dsum = _ranks(t._vecs, n)
    rsum = sum(rs)
    alpha_slack = dsum - (2 * n * n - 2)
    margins = tuple([rsum - n - r for r in rs])
    omega_slack = rsum - 2 * n
    return ConditionReport(alpha_slack >= 0, alpha_slack, min(margins) >= 0, margins,
                           omega_slack >= 0, omega_slack)


def psi_step(t: JnfTuple) -> JnfTuple:
    """One reduction step: shrink from size n to n1 = sum(r_j) - n.

    In every entry the first eigenvalue slot (in canonical order) with the
    maximal block count loses 1 from each of its n - n1 smallest blocks; empty
    blocks (and slots) are deleted.  For a diagonal entry this just cuts the
    largest multiplicity by n - n1.  Cutting another maximal slot would not
    change the verdict of the decision loop.
    """
    n = t.n
    if n <= 1:
        raise PreconditionError("cannot reduce a tuple of size 1")
    if (n,) in t._vecs:  # the vector of a scalar entry
        raise PreconditionError("scalar entries must be dropped before reducing")
    rep = check_conditions(t)
    if rep.omega:
        raise PreconditionError("omega holds; the reduction step is not defined")
    if not rep.beta:
        raise PreconditionError("beta fails; the reduction step is not defined")
    return _step(t, -rep.omega_slack)


def _step(t: JnfTuple, k: int) -> JnfTuple:
    """``t`` of size n as vectors, with 1 cut from each of the ``k`` smallest blocks of each
    entry's first slot with the most blocks, to size n - k; an emptied slot is deleted."""
    out = []
    for vec in t._vecs:
        # canonical slot order sorts (has a block over 1, slot) down, so no all-ones slot
        # after the first has more blocks
        chosen = most = 0
        for i, s in enumerate(vec):
            if type(s) is int:
                if s > most:
                    chosen, most = i, s
                break
            if len(s) > most:
                chosen, most = i, len(s)
        if k > most:  # beta guarantees n - n1 <= n - r_j
            raise RuntimeError(f"block bound broken: cutting {k} from {most} blocks")
        s = vec[chosen]
        rest = vec[:chosen] + vec[chosen + 1:]
        if type(s) is int:
            s -= k
        else:
            s = (*s[:len(s) - k], *(b - 1 for b in s[len(s) - k:] if b > 1))
            s = s if s[0] > 1 else len(s)
        if s:
            # the cut slot only moves right, past the slots still ahead of it
            j, key = chosen, (type(s) is not int, s)
            while j < len(rest) and (type(rest[j]) is not int, rest[j]) > key:
                j += 1
            rest = (*rest[:j], s, *rest[j:])
        out.append(rest)
    # cutting an all-ones slot leaves one, so a diagonal tuple stays diagonal
    diagonal = t.is_diagonal or all(type(vec[0]) is int for vec in out)
    return type(t)._of_vectors(tuple(out), t.n - k, diagonal)


def decide(t: JnfTuple) -> ReductionTrace:
    """Full decision for generic eigenvalues, with an auditable step record.

    Scalar entries are dropped (and recorded) whenever they appear; the step
    states in the trace are the post-drop tuples, except that the terminal
    size-1 state is recorded as produced.  The first state is ``t`` itself when
    nothing is dropped from it.
    """
    steps: list[TraceStep] = []
    state = t
    defect0 = None
    while True:
        n, vecs = state.n, state._vecs
        if n == 1:
            steps.append(TraceStep(state, check_conditions(state), n, None, ()))
            verdict = Verdict(True, Reason.REDUCED_TO_SIZE1, len(steps) - 1)
            break
        # (n) is the vector of a scalar entry
        scalars = tuple(i for i, vec in enumerate(vecs) if vec == (n,)) if (n,) in vecs else ()
        if len(vecs) - len(scalars) < 2:
            steps.append(TraceStep(state, check_conditions(state), n, None, scalars))
            verdict = Verdict(False, Reason.DEGENERATE_INPUT, len(steps) - 1)
            break
        if scalars:
            state = type(state)._of_vectors(tuple([vec for vec in vecs if vec != (n,)]), n,
                                            state.is_diagonal)
        rep = check_conditions(state)
        defect = 2 - rep.alpha_slack  # 2n^2 - sum of d, since alpha slack is sum of d - (2n^2 - 2)
        if defect0 is None:
            # alpha is tested at the first step only; the defect must stay put after it
            defect0 = defect
            if not rep.alpha:
                steps.append(TraceStep(state, rep, n, None, scalars))
                verdict = Verdict(False, Reason.ALPHA_FAILS, len(steps) - 1)
                break
        elif defect != defect0:
            raise RuntimeError(f"defect invariant broken: {defect0} became {defect} at size {n}")
        if rep.omega:
            steps.append(TraceStep(state, rep, n, None, scalars))
            verdict = Verdict(True, Reason.OMEGA_HOLDS, len(steps) - 1)
            break
        if not rep.beta:
            steps.append(TraceStep(state, rep, n, None, scalars))
            verdict = Verdict(False, Reason.BETA_FAILS, len(steps) - 1)
            break
        n1 = n + rep.omega_slack
        steps.append(TraceStep(state, rep, n, n1, scalars))
        state = _step(state, n - n1)
    return ReductionTrace(tuple(steps), verdict)


def solvable_pmv(mvs: Sequence[Sequence[int]]) -> bool:
    """Verdict of ``decide`` specialized to diagonal tuples given as raw
    multiplicity vectors (non-increasing int sequences of equal sum).

    Allocation-light; the enumerator checks every tuple it emits with it.

    No alpha test: d = n^2 - sum(m_i^2) >= n^2 - m_1 * n = n * r, so omega (sum r >= 2n)
    gives alpha (sum d >= 2n^2 - 2).  The defect 2n^2 - sum d is invariant under the step
    and under dropping scalars (d = 0), and is 2 at size 1, so a tuple failing alpha never
    meets omega nor reaches size 1: beta or the two-entry exit rejects it, as ``decide`` would.
    """
    cur = [tuple(m) for m in mvs]
    if len(cur) < 2:
        return False
    n = sum(cur[0])
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


def jnf_tuple_json(t: JnfTuple) -> str:
    """``t`` as compact JSON text with sorted keys: ``{"entries":[...],"n":...}``."""
    return '{"entries":[' + ",".join([_entry_record(v)[1] for v in t._vecs]) + f'],"n":{t.n}}}'


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
