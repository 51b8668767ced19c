"""Shared code for the test suite: seeded random shapes, exhaustive pools,
independent oracles and a fresh-interpreter runner."""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Iterator

import dspkit
from dspkit import (
    EigenvalueAssignment,
    ExactValue,
    Jnf,
    JnfTuple,
    ResourceLimitError,
)
from dspkit.reduction import solvable_pmv

#: The explicit-matrix oracle works on dense n x n matrices; keep it tiny.
ORACLE_MAX_SIZE = 8


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a new interpreter that imports the dspkit under test,
    with text output captured."""
    src = str(Path(dspkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60)


def partitions_of(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of ``n`` as non-increasing tuples, largest first part first."""
    if n < 0:
        raise ValueError("n must be >= 0")
    cap = n if max_part is None else min(max_part, n)

    def rec(m: int, c: int) -> Iterator[tuple[int, ...]]:
        if m == 0:
            yield ()
            return
        for first in range(min(c, m), 0, -1):
            for rest in rec(m - first, first):
                yield (first, *rest)

    return rec(n, cap)


def random_partition(rng: random.Random, n: int) -> tuple[int, ...]:
    parts = []
    rem = n
    while rem:
        p = rng.randint(1, rem)
        parts.append(p)
        rem -= p
    parts.sort(reverse=True)
    return tuple(parts)


def random_jnf(rng: random.Random, n: int) -> Jnf:
    sizes = random_partition(rng, n)
    return Jnf.from_blocks([random_partition(rng, s) for s in sizes])


def random_jnf_tuple(rng: random.Random, n: int, entries: int) -> JnfTuple:
    return JnfTuple(tuple(random_jnf(rng, n) for _ in range(entries)))


def random_pmv(rng: random.Random, n: int, entries: int) -> tuple[tuple[int, ...], ...]:
    return tuple(random_partition(rng, n) for _ in range(entries))


def rational_assignment(rng: random.Random, mults, mode="additive", target=Fraction(0)):
    """Random distinct rationals per slot; the last slot balances the weighted sum."""
    flat = [(i, m) for i, entry in enumerate(mults) for m in entry]
    while True:
        values = [Fraction(rng.randrange(-400, 400), rng.randrange(1, 24)) for _ in flat]
        acc = sum(v * m for v, (_, m) in zip(values[:-1], flat[:-1]))
        values[-1] = (target - acc) / flat[-1][1]
        pos = 0
        entries = []
        ok = True
        for entry in mults:
            vals = values[pos:pos + len(entry)]
            pos += len(entry)
            if len(set(vals)) != len(vals):
                ok = False
                break
            entries.append(tuple((ExactValue.rational(v), m) for v, m in zip(vals, entry)))
        if ok:
            return EigenvalueAssignment(mode, tuple(entries))


def planted_assignment(rng: random.Random, mults, kappa: int, mode="additive"):
    """A trace-balanced assignment with a relation at ``kappa``: every slot
    holds a random constant plus its own basis element t_i, then two slots are
    solved so that the full weighted sum and one random sub-selection of size
    ``kappa`` per entry both vanish.  When no two slots can be solved for (the
    selection is proportional to the multiplicities), the last slot balances
    the full sum, which then implies the relation.  Returns None when 20
    draws all repeat a value within an entry (some shapes force that)."""
    slots = [m for entry in mults for m in entry]
    for _ in range(20):
        choice = []
        for entry in mults:
            rest = kappa
            for i, m in enumerate(entry):
                low = max(0, rest - sum(entry[i + 1:]))
                choice.append(rng.randint(low, min(m, rest)))
                rest -= choice[-1]
        # one dict per slot: basis index -> coefficient, with index 0 the constant
        values = [{0: Fraction(rng.randint(-3, 3)), i + 1: Fraction(1)} for i in range(len(slots))]
        pairs = [(a, b) for a in range(len(slots)) for b in range(a + 1, len(slots))
                 if choice[a] * slots[b] != choice[b] * slots[a]]
        if pairs:
            a, b = rng.choice(pairs)
            det = choice[a] * slots[b] - choice[b] * slots[a]
            rel, tr = _weighted(values, choice, (a, b)), _weighted(values, slots, (a, b))
            keys = set(rel) | set(tr)
            values[a] = {k: (tr.get(k, 0) * choice[b] - rel.get(k, 0) * slots[b]) / det
                         for k in keys}
            values[b] = {k: (rel.get(k, 0) * slots[a] - tr.get(k, 0) * choice[a]) / det
                         for k in keys}
        else:
            total = _weighted(values, slots, (len(slots) - 1,))
            values[-1] = {k: -cf / slots[-1] for k, cf in total.items()}
        flat = [ExactValue(v.get(0, 0), tuple((k, cf) for k, cf in v.items() if k))
                for v in values]
        entries, pos = [], 0
        for entry in mults:
            entries.append(tuple(zip(flat[pos:pos + len(entry)], entry)))
            pos += len(entry)
        if all(len({v for v, _ in entry}) == len(entry) for entry in entries):
            return EigenvalueAssignment(mode, tuple(entries))
    return None


def _weighted(values, weights, skip) -> dict:
    out: dict = {}
    for i, (value, w) in enumerate(zip(values, weights)):
        if i not in skip:
            for k, cf in value.items():
                out[k] = out.get(k, 0) + w * cf
    return out


def all_jnfs(n: int) -> list[Jnf]:
    """Every shape of size n: a multiset of nonempty slot partitions."""
    out = []
    for sizes in partitions_of(n):
        groups = Counter(sizes)
        per_group = [
            list(itertools.combinations_with_replacement(list(partitions_of(s)), cnt))
            for s, cnt in sorted(groups.items())
        ]
        for pick in itertools.product(*per_group):
            slots = [blocks for group in pick for blocks in group]
            out.append(Jnf.from_blocks(slots))
    return sorted(set(out), reverse=True)


def reference_psi_step(blocks, pick=None):
    """One reduction step on raw block lists, computed from scratch; the oracle
    for ``psi_step``.

    ``blocks`` holds, per entry, the block sizes of each eigenvalue slot, slots
    in canonical (descending) order.  ``pick`` names the slot cut in each entry;
    by default the first slot with the most blocks.  Returns the reduced tuple in
    the same form, or None where the step is undefined: size 1, a scalar entry,
    omega holding or beta failing.
    """
    n = sum(sum(slot) for slot in blocks[0])
    counts = [max(len(slot) for slot in entry) for entry in blocks]
    rs = [n - c for c in counts]
    rsum = sum(rs)
    if n <= 1 or 0 in rs or rsum >= 2 * n or any(rsum - r < n for r in rs):
        return None
    k = 2 * n - rsum  # n - n1, with n1 = rsum - n
    out = []
    for j, entry in enumerate(blocks):
        chosen = (pick[j] if pick is not None
                  else next(i for i, slot in enumerate(entry) if len(slot) == counts[j]))
        if len(entry[chosen]) != counts[j]:
            raise ValueError(f"slot {chosen} of entry {j} does not have the most blocks")
        slots = []
        for i, slot in enumerate(entry):
            if i == chosen:
                ascending = sorted(slot)
                slot = [b - 1 for b in ascending[:k]] + ascending[k:]
                slot = tuple(sorted((b for b in slot if b > 0), reverse=True))
            if slot:
                slots.append(tuple(slot))
        out.append(sorted(slots, reverse=True))
    return out


def trace_dict_oracle(trace) -> dict:
    """A trace's JSON-ready dict, built field by field from the trace; the oracle
    for ``reduction.trace_json``."""
    steps = []
    for step in trace.steps:
        rep = step.report
        entry = {
            "n": step.n,
            "n1": step.n1,
            "dropped": list(step.dropped_scalar_indices),
            "state": {"n": step.state.n,
                      "entries": [{"eigenvalues": [list(s.parts) for s in e.slots]}
                                  for e in step.state.entries]},
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


def case_omega(n: int) -> JnfTuple:
    """The exceptional quadruple with defect 4 at even sizes."""
    if n < 4 or n % 2:
        raise ValueError("defined for even n >= 4")
    h = n // 2
    return JnfTuple.from_pmv([(2,) * h, (h, h), (h + 1, h - 1), (n - 1, 1)])


def children_oracle(parent, max_n, u):
    """``catalog._children`` without its bound on the part choices: every combination
    of one part per entry (or a new part) is tried.  The oracle for the bound."""
    n1 = sum(parent[0])
    base = (len(parent) - 2) * n1
    left = [{0: mv, **{x: mv[:i] + mv[i + 1:]
                       for i, x in enumerate(mv) if not i or mv[i - 1] != x}}
            for mv in parent]
    out = set()
    for xs in itertools.product(*left):
        k = base - sum(xs)
        if k < 1 or n1 + k > max_n or min(xs) + k > u:
            continue
        child = []
        for x, rests in zip(xs, left):
            rest = rests[x]
            if rest and rest[0] > x + k:
                break
            child.append((x + k, *rest))
        else:
            out.add(tuple(sorted(child, reverse=True)))
    return out


def scan_rigid(n, entries, u=None, no_all_ones=False, no_scalar=False):
    """Solvable rigid diagonal tuples of size ``n`` by a full scan: canonical
    multiplicity vectors, sorted.  The first entry runs over the partitions of
    ``n`` with parts <= ``u``, the middle ones over every allowed combination,
    and the last over the allowed partitions whose sum of squares brings the
    defect to 2.  The oracle for ``enumerate_rigid``'s tree walk.
    """
    def allowed(mv):
        return not ((no_scalar and len(mv) == 1) or (no_all_ones and mv[0] == 1))

    pool = [mv for mv in partitions_of(n) if allowed(mv)]
    by_squares = {}
    for mv in pool:
        by_squares.setdefault(sum(x * x for x in mv), []).append(mv)
    target = 2 + (entries - 2) * n * n
    found = set()
    for first in partitions_of(n, n if u is None else u):
        if not allowed(first):
            continue
        for middle in itertools.combinations_with_replacement(pool, entries - 2):
            s = sum(x * x for mv in (first, *middle) for x in mv)
            for last in by_squares.get(target - s, ()):
                tup = (first, *middle, last)
                if solvable_pmv(tup):
                    found.add(tuple(sorted(tup, reverse=True)))
    return sorted(found)


def _star_vector(pmv):
    """Star-quiver dimension vector of diagonal multiplicity vectors ``pmv``
    and its adjacency lists: the centre carries n and arm i carries
    n - m_i1, n - m_i1 - m_i2, ...."""
    n = sum(pmv[0])
    alpha, nbrs = [n], [[]]
    for mv in pmv:
        prev, rest = 0, n
        for m in mv[:-1]:
            rest -= m
            alpha.append(rest)
            nbrs.append([prev])
            nbrs[prev].append(len(alpha) - 1)
            prev = len(alpha) - 1
    return alpha, nbrs


def _reflect_down(alpha, nbrs):
    """Kac's reflection reduction.  Reflecting at a vertex whose value exceeds
    half its neighbours' sum keeps a positive root other than that simple
    root positive and lowers the total.  Returns the vector it ends at (a
    simple root, or one that no reflection lowers), or None once a
    coordinate turns negative (not a root).  Changes ``alpha`` in place."""
    while sum(alpha) > 1:
        for v, a in enumerate(alpha):
            s = sum(alpha[u] for u in nbrs[v])
            if 2 * a > s:
                alpha[v] = s - a
                break
        else:
            return alpha
        if alpha[v] < 0:
            return None
    return alpha


def reduces_to_simple_root(pmv) -> bool:
    """Whether the star-quiver dimension vector of diagonal multiplicity
    vectors ``pmv`` is a positive real root, by Kac's reflection reduction:
    a real root ends at a simple root, and anything else either turns
    negative or stalls.  Uses no dspkit code, so it is an independent oracle
    for the solvability verdict.
    """
    end = _reflect_down(*_star_vector(pmv))
    return end is not None and sum(end) <= 1


def is_positive_root(pmv) -> bool:
    """Whether the star-quiver dimension vector of ``pmv`` is a positive root
    (real or imaginary), by Kac's fundamental-set test: reduce by
    reflections; a vector that no reflection lowers is a root iff its
    support is connected.  For generic eigenvalues this is Crawley-Boevey's
    criterion for an irreducible solution, so it is a dspkit-free oracle for
    ``solvable_pmv`` on diagonal tuples.
    """
    alpha, nbrs = _star_vector(pmv)
    end = _reflect_down(alpha, nbrs)
    if end is None:
        return False
    support = [v for v, a in enumerate(end) if a]
    seen, stack = {support[0]}, [support[0]]
    while stack:
        for u in nbrs[stack.pop()]:
            if end[u] and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(support)


def naive_witness(a):
    """First sub-selection relation of assignment ``a`` by brute force over
    plain Fractions: kappa ascending from 1, then the full lexicographic
    product of per-entry sub-multiplicity vectors with sum kappa.  Returns
    ``(kappa, sub_multiplicities, (const, formal))`` or None.  Reads only the
    values' coefficients, so it is an independent oracle for
    ``nongenericity_witness``."""
    entries = [[(v.const, dict(v.formal), m) for v, m in entry] for entry in a.entries]
    n = sum(m for _, _, m in entries[0])
    for kappa in range(1, n):
        per = [[vec for vec in itertools.product(*(range(m + 1) for _, _, m in entry))
                if sum(vec) == kappa] for entry in entries]
        for choice in itertools.product(*per):
            const, formal = Fraction(0), {}
            for entry, vec in zip(entries, choice):
                for (c0, coeffs, _), c in zip(entry, vec):
                    const += c * c0
                    for b, cf in coeffs.items():
                        formal[b] = formal.get(b, 0) + c * cf
            formal = tuple(sorted((b, cf) for b, cf in formal.items() if cf))
            if not formal and (const == 0 if a.mode == "additive" else const.denominator == 1):
                return kappa, choice, (const, formal)
    return None


def centralizer_dim_oracle(j: Jnf) -> int:
    """Centralizer dimension of an explicit matrix with shape ``j``, by exact rank.

    Builds Y with integer eigenvalues 0, 1, 2, ... (one per slot) and the given
    block sizes, then computes the kernel dimension of X -> XY - YX over the
    rationals.  Independent of the closed-form ``d``; used to validate it.
    """
    n = j.n
    if n > ORACLE_MAX_SIZE:
        raise ResourceLimitError(f"oracle limited to n <= {ORACLE_MAX_SIZE}, got {n}")
    y = [[0] * n for _ in range(n)]
    pos = 0
    for eig, slot in enumerate(j.slots):
        for b in slot.parts:
            for i in range(b):
                y[pos + i][pos + i] = eig
                if i + 1 < b:
                    y[pos + i][pos + i + 1] = 1
            pos += b
    # Row (a, b) of the commutator operator: (XY - YX)[a][b] as a linear form in X.
    dim = n * n
    mat = [[0] * dim for _ in range(dim)]
    for a in range(n):
        for b in range(n):
            row = mat[a * n + b]
            for c in range(n):
                row[a * n + c] += y[c][b]
                row[c * n + b] -= y[a][c]
    return dim - _exact_rank(mat)


def _exact_rank(mat: list[list[int]]) -> int:
    rows = [[Fraction(x) for x in row] for row in mat if any(row)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y_ for x, y_ in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank
