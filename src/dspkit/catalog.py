"""Rigidity arithmetic, multiplicity-vector moves, the named-series catalog,
and the enumerator of rigid diagonal tuples, which grows them from size 1 by
running the reduction step backwards.

A tuple is rigid when its defect 2n^2 - sum(d_j) equals 2.  The catalog stores
one generator per named family, each family's reduction chain, and a per-size
index that recognizes catalog members inside traces.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .errors import (
    ChainMismatchError,
    ResourceLimitError,
    SeriesParameterError,
    UndefinedMoveError,
)
from .jnf import JnfTuple
from .partitions import Partition, normalize
from .reduction import decide, solvable_pmv

#: Default guard for the enumerator (overridable, e.g. via DSPKIT_MAX_N).
DEFAULT_MAX_ENUM_N = 40
MAX_ENUM_ENTRIES = 6


# ---------------------------------------------------------------------------
# defect and multiplicity-vector moves


def defect(t: JnfTuple) -> int:
    """2n^2 - sum of class dimensions; invariant under the reduction step."""
    n = t.n
    return 2 * n * n - sum(e.d for e in t.entries)


def is_rigid(t: JnfTuple) -> bool:
    return defect(t) == 2


def passage(mv: Partition) -> Partition:
    """Rebalance one multiplicity vector: first strictly-smaller component up by 1,
    last component down by 1.  Preserves n and r, strictly decreases d."""
    parts = mv.parts
    mu = 1
    while mu < len(parts) and parts[mu] == parts[0]:
        mu += 1
    if mu >= len(parts) - 1:
        raise UndefinedMoveError(f"no passage defined for {mv}")
    out = list(parts)
    out[mu] += 1
    out[-1] -= 1
    return normalize(out)


def antipassage_targets(mv: Partition) -> frozenset[Partition]:
    """All vectors from which a single passage produces ``mv``."""
    counts = list(mv.parts)
    results = set()
    values = sorted(set(counts))

    def without(seq: list[int], value: int) -> list[int]:
        out = list(seq)
        out.remove(value)
        return out

    for w in values:
        if w < 2:
            continue
        base = without(counts, w)
        # the decremented component may have vanished entirely (it was a 1) ...
        cand = normalize(base + [w - 1, 1])
        try:
            if passage(cand) == mv:
                results.add(cand)
        except UndefinedMoveError:
            pass
        # ... or it is still present as some component z
        for z in sorted(set(base)):
            cand = normalize(without(base, z) + [w - 1, z + 1])
            try:
                if passage(cand) == mv:
                    results.add(cand)
            except UndefinedMoveError:
                pass
    return frozenset(results)


def min_d_mv(n: int, r: int) -> Partition:
    """The unique multiplicity vector of size ``n`` minimizing d at fixed rank ``r``."""
    if n < 1 or r < 0 or r > n - 1:
        raise ValueError(f"rank {r} out of range for size {n}")
    if 2 * r <= n:
        return normalize([n - r, r])
    m = n - r
    q = n % m or m
    return Partition((m,) * ((n - q) // m) + (q,))


def case_omega(n: int) -> JnfTuple:
    """The exceptional quadruple with defect 4 at even sizes."""
    if n < 4 or n % 2:
        raise ValueError("defined for even n >= 4")
    h = n // 2
    return JnfTuple.from_pmv([(2,) * h, (h, h), (h + 1, h - 1), (n - 1, 1)])


# ---------------------------------------------------------------------------
# named series


@dataclass(frozen=True)
class SeriesId:
    name: str
    param: int

    def __str__(self) -> str:
        if self.name == "Psi6":
            return "Psi6"
        return f"{self.name}_{self.param}"


def parse_series_id(text: str) -> SeriesId:
    text = text.strip()
    if text == "Psi6":
        return SeriesId("Psi6", 6)
    name, _, param = text.rpartition("_")
    if not name or not param.lstrip("-").isdigit():
        raise ValueError(f"expected NAME_PARAM, got {text!r}")
    if name not in FAMILIES:
        raise ValueError(f"unknown series {name!r}")
    return SeriesId(name, int(param))


@dataclass(frozen=True)
class _Family:
    n_of: Callable[[int], int]  # increasing in the parameter
    ok: Callable[[int], bool]
    build: Callable[[int], list[list[int]]]


def _tw(twos: int, ones: int) -> list[int]:
    return [2] * twos + [1] * ones


FAMILIES: dict[str, _Family] = {
    # triples indexed by k
    "W": _Family(lambda k: 3 * k + 1, lambda k: k >= 0,
                 lambda k: [[k, k, k + 1]] * 3),
    "B": _Family(lambda k: 3 * k - 1, lambda k: k >= 1,
                 lambda k: [[k, k, k - 1]] * 3),
    "C": _Family(lambda k: 3 * k, lambda k: k >= 1,
                 lambda k: [[k, k, k], [k, k, k], [k, k + 1, k - 1]]),
    "D": _Family(lambda k: 4 * k + 1, lambda k: k >= 0,
                 lambda k: [[k, k, k, k + 1], [k, k, k, k + 1], [2 * k, 2 * k + 1]]),
    "E": _Family(lambda k: 4 * k - 1, lambda k: k >= 1,
                 lambda k: [[k, k, k, k - 1], [k, k, k, k - 1], [2 * k, 2 * k - 1]]),
    "F": _Family(lambda k: 4 * k, lambda k: k >= 1,
                 lambda k: [[k] * 4, [k] * 4, [2 * k + 1, 2 * k - 1]]),
    "Phi": _Family(lambda k: 4 * k, lambda k: k >= 1,
                   lambda k: [[k, k, k + 1, k - 1], [k] * 4, [2 * k, 2 * k]]),
    "G": _Family(lambda k: 4 * k + 2, lambda k: k >= 0,
                 lambda k: [[k, k, k + 1, k + 1], [k, k, k + 1, k + 1], [2 * k + 1, 2 * k + 1]]),
    "H": _Family(lambda k: 6 * k + 1, lambda k: k >= 0,
                 lambda k: [[k] * 5 + [k + 1], [3 * k, 3 * k + 1], [2 * k, 2 * k, 2 * k + 1]]),
    "I": _Family(lambda k: 6 * k - 1, lambda k: k >= 1,
                 lambda k: [[k] * 5 + [k - 1], [3 * k, 3 * k - 1], [2 * k, 2 * k, 2 * k - 1]]),
    "J": _Family(lambda k: 6 * k, lambda k: k >= 1,
                 lambda k: [[k] * 6, [3 * k + 1, 3 * k - 1], [2 * k] * 3]),
    "K": _Family(lambda k: 6 * k, lambda k: k >= 1,
                 lambda k: [[k] * 6, [3 * k, 3 * k], [2 * k, 2 * k + 1, 2 * k - 1]]),
    "L": _Family(lambda k: 6 * k, lambda k: k >= 1,
                 lambda k: [[k] * 4 + [k + 1, k - 1], [3 * k, 3 * k], [2 * k] * 3]),
    "V": _Family(lambda k: 6 * k + 2, lambda k: k >= 0,
                 lambda k: [[k] * 4 + [k + 1, k + 1], [3 * k + 1, 3 * k + 1],
                            [2 * k, 2 * k + 1, 2 * k + 1]]),
    "N": _Family(lambda k: 6 * k + 3, lambda k: k >= 0,
                 lambda k: [[k] * 3 + [k + 1] * 3, [3 * k + 1, 3 * k + 2], [2 * k + 1] * 3]),
    "P": _Family(lambda k: 6 * k - 2, lambda k: k >= 1,
                 lambda k: [[k] * 4 + [k - 1] * 2, [3 * k - 1, 3 * k - 1],
                            [2 * k, 2 * k - 1, 2 * k - 1]]),
    # quadruples / quintuple indexed by k; R_1's fourth vector degenerates to a
    # scalar, so R starts at 2
    "R": _Family(lambda k: 2 * k, lambda k: k >= 2,
                 lambda k: [[k, k]] * 3 + [[k + 1, k - 1]]),
    "S": _Family(lambda k: 2 * k + 1, lambda k: k >= 0,
                 lambda k: [[k + 1, k]] * 4),
    "T": _Family(lambda k: 4 * k, lambda k: k >= 1,
                 lambda k: [[2 * k + 1, 2 * k - 1]] + [[3 * k, k]] * 4),
    # classical triples indexed by n
    "HG": _Family(lambda n: n, lambda n: n >= 1,
                  lambda n: [[n - 1, 1], [1] * n, [1] * n]),
    "OF": _Family(lambda n: n, lambda n: n >= 3 and n % 2 == 1,
                  lambda n: [[(n + 1) // 2, (n - 1) // 2],
                             [(n - 1) // 2, (n - 1) // 2, 1], [1] * n]),
    "EF": _Family(lambda n: n, lambda n: n >= 2 and n % 2 == 0,
                  lambda n: [[n // 2, n // 2], [n // 2, (n - 2) // 2, 1], [1] * n]),
    "FF": _Family(lambda n: n, lambda n: 5 <= n <= 8,
                  lambda n: [[2] + [1] * (n - 2), _tw(n - 4, 8 - n), [n - 2, 2]]),
    "OG": _Family(lambda k: 2 * k + 1, lambda k: k >= 1,
                  lambda k: [_tw(k - 1, 3), _tw(k, 1), [2 * k - 1, 1, 1]]),
    # the (n+1)-entry hook series
    "Star": _Family(lambda n: n, lambda n: n >= 2,
                    lambda n: [[n - 1, 1]] * (n + 1)),
    # quadruple classification families (even/odd n)
    "Xi": _Family(lambda n: n, lambda n: n >= 4 and n % 2 == 0,
                  lambda n: [[2] * (n // 2), [n // 2] * 2, [n // 2] * 2, [n - 1, 1]]),
    "Theta": _Family(lambda n: n, lambda n: n >= 4 and n % 2 == 0,
                     lambda n: [_tw((n - 2) // 2, 2), [n // 2] * 2,
                                [n // 2 + 1, n // 2 - 1], [n - 1, 1]]),
    "Psi6": _Family(lambda n: n, lambda n: n == 6,
                    lambda n: [[2, 2, 2], [3, 3], [4, 1, 1], [5, 1]]),
    "Pi": _Family(lambda n: n, lambda n: n >= 3 and n % 2 == 1,
                  lambda n: [_tw((n - 1) // 2, 1), [(n + 1) // 2, (n - 1) // 2],
                             [(n + 1) // 2, (n - 1) // 2], [n - 1, 1]]),
    "Delta": _Family(lambda n: n, lambda n: n >= 3 and n % 2 == 1,
                     lambda n: [_tw((n - 1) // 2, 1)] * 2 + [[n - 1, 1]] * 2),
    # triple classification families, n even
    "Gamma1": _Family(lambda n: n, lambda n: n >= 6 and n % 2 == 0,
                      lambda n: [[2] * (n // 2), _tw((n - 6) // 2, 6), [n - 2, 2]]),
    "Gamma2": _Family(lambda n: n, lambda n: n >= 4 and n % 2 == 0,
                      lambda n: [_tw((n - 2) // 2, 2), _tw((n - 4) // 2, 4), [n - 2, 2]]),
    "Gamma3": _Family(lambda n: n, lambda n: n >= 4 and n % 2 == 0,
                      lambda n: [_tw((n - 2) // 2, 2)] * 2 + [[n - 2, 1, 1]]),
    "Gamma4": _Family(lambda n: n, lambda n: n >= 4 and n % 2 == 0,
                      lambda n: [[2] * (n // 2), _tw((n - 4) // 2, 4), [n - 2, 1, 1]]),
    "Y1": _Family(lambda n: n, lambda n: n >= 4 and n % 2 == 0,
                  lambda n: [_tw((n - 4) // 2, 4), [(n - 2) // 2, (n - 2) // 2, 2],
                             [n // 2, n // 2]]),
    "Y2": _Family(lambda n: n, lambda n: n >= 4 and n % 2 == 0,
                  lambda n: [_tw((n - 2) // 2, 2), [(n - 2) // 2, (n - 2) // 2, 1, 1],
                             [n // 2, n // 2]]),
    "Y3": _Family(lambda n: n, lambda n: n >= 4 and n % 2 == 0,
                  lambda n: [_tw((n - 4) // 2, 4), [n // 2, (n - 4) // 2, 1, 1],
                             [n // 2, n // 2]]),
    "Y4": _Family(lambda n: n, lambda n: n >= 6 and n % 2 == 0,
                  lambda n: [_tw((n - 6) // 2, 6), [n // 2, (n - 4) // 2, 2],
                             [n // 2, n // 2]]),
    "Y5": _Family(lambda n: n, lambda n: n >= 2 and n % 2 == 0,
                  lambda n: [_tw((n - 2) // 2, 2), [n // 2, (n - 2) // 2, 1],
                             [n // 2, (n - 2) // 2, 1]]),
    "Y6": _Family(lambda n: n, lambda n: n >= 4 and n % 2 == 0,
                  lambda n: [_tw((n - 4) // 2, 4), [(n - 2) // 2, (n - 2) // 2, 1, 1],
                             [(n + 2) // 2, (n - 2) // 2]]),
    "Y7": _Family(lambda n: n, lambda n: n >= 6 and n % 2 == 0,
                  lambda n: [_tw((n - 6) // 2, 6), [(n - 2) // 2, (n - 2) // 2, 2],
                             [(n + 2) // 2, (n - 2) // 2]]),
    # triple classification families, n odd
    "X1": _Family(lambda n: n, lambda n: n >= 5 and n % 2 == 1,
                  lambda n: [_tw((n - 5) // 2, 5), _tw((n - 1) // 2, 1), [n - 2, 2]]),
    "X2": _Family(lambda n: n, lambda n: n >= 3 and n % 2 == 1,
                  lambda n: [_tw((n - 3) // 2, 3)] * 2 + [[n - 2, 2]]),
    "Z1": _Family(lambda n: n, lambda n: n >= 3 and n % 2 == 1,
                  lambda n: [_tw((n - 1) // 2, 1), [(n - 1) // 2, (n - 1) // 2, 1],
                             [(n - 1) // 2, (n - 1) // 2, 1]]),
    "Z2": _Family(lambda n: n, lambda n: n >= 5 and n % 2 == 1,
                  lambda n: [_tw((n - 5) // 2, 5), [(n - 1) // 2, (n - 3) // 2, 2],
                             [(n + 1) // 2, (n - 1) // 2]]),
    "Z3": _Family(lambda n: n, lambda n: n >= 3 and n % 2 == 1,
                  lambda n: [_tw((n - 3) // 2, 3), [(n - 1) // 2, (n - 3) // 2, 1, 1],
                             [(n + 1) // 2, (n - 1) // 2]]),
    "Z4": _Family(lambda n: n, lambda n: n >= 3 and n % 2 == 1,
                  lambda n: [_tw((n - 3) // 2, 3), [(n - 1) // 2, (n - 1) // 2, 1],
                             [(n + 1) // 2, (n - 3) // 2, 1]]),
}


def series_mvs(sid: SeriesId) -> tuple[Partition, ...]:
    """Canonical multiplicity vectors of the family instance."""
    fam = FAMILIES.get(sid.name)
    if fam is None:
        raise SeriesParameterError(f"unknown series {sid.name!r}")
    if not fam.ok(sid.param):
        raise SeriesParameterError(f"parameter {sid.param} out of range for {sid.name}")
    mvs = sorted((normalize(raw) for raw in fam.build(sid.param)), reverse=True)
    if {mv.size for mv in mvs} != {fam.n_of(sid.param)}:
        raise RuntimeError(f"{sid} does not build vectors of size {fam.n_of(sid.param)}")
    return tuple(mvs)


def series(sid: SeriesId | str) -> JnfTuple:
    """Build the family instance as a canonicalized diagonal tuple."""
    if isinstance(sid, str):
        sid = parse_series_id(sid)
    return JnfTuple.from_pmv(series_mvs(sid))


def all_series_ids(max_n: int) -> Iterator[SeriesId]:
    """Every catalog instance of size up to ``max_n``, family by family."""
    for name, fam in FAMILIES.items():
        param = 0
        while fam.n_of(param) <= max_n:
            if fam.ok(param):
                yield SeriesId(name, param)
            param += 1


def canonical_form(t: JnfTuple) -> JnfTuple:
    """Entry order normalized (descending); tuples equal up to permutation agree."""
    return JnfTuple(tuple(sorted(t.entries, reverse=True)))


@functools.cache
def _names_by_pmv(n: int) -> dict[tuple[Partition, ...], list[str]]:
    """Names of the size-``n`` catalog instances, keyed by canonical vectors."""
    index: dict[tuple[Partition, ...], list[str]] = {}
    for sid in all_series_ids(n):
        if FAMILIES[sid.name].n_of(sid.param) == n:
            index.setdefault(series_mvs(sid), []).append(str(sid))
    return index


def identify(t: JnfTuple) -> list[str]:
    """Names of every catalog instance equal to ``t`` up to entry permutation."""
    if not t.is_diagonal:
        return []
    return sorted(_names_by_pmv(t.n).get(tuple(sorted(t.pmv(), reverse=True)), ()))


# ---------------------------------------------------------------------------
# reduction chains

_Succ = Callable[[int], "SeriesId | int | None"]

# Successor of each family instance in its reduction chain.  An ``int`` value
# means the chain ends in that many size-1 entries with no catalog name.
_SUCCESSORS: dict[str, _Succ] = {
    "W": lambda k: None if k == 0 else SeriesId("B", k),
    "B": lambda k: SeriesId("W", k - 1),
    "C": lambda k: SeriesId("B", k),
    "D": lambda k: None if k == 0 else SeriesId("E", k),
    "E": lambda k: SeriesId("G", k - 1),
    "F": lambda k: SeriesId("E", k),
    "Phi": lambda k: SeriesId("E", k),
    "G": lambda k: SeriesId("D", k),
    "H": lambda k: None if k == 0 else SeriesId("I", k),
    "I": lambda k: SeriesId("P", k),
    "J": lambda k: SeriesId("I", k),
    "K": lambda k: SeriesId("I", k),
    "L": lambda k: SeriesId("I", k),
    "P": lambda k: SeriesId("N", k - 1),
    "N": lambda k: SeriesId("V", k),
    "V": lambda k: SeriesId("H", k),
    "R": lambda k: SeriesId("S", k - 1),
    "S": lambda k: None if k == 0 else SeriesId("S", k - 1),
    "T": lambda k: 5 if k == 1 else SeriesId("S", k - 1),
    "HG": lambda n: None if n == 1 else SeriesId("HG", n - 1),
    "OF": lambda n: SeriesId("HG", 2) if n == 3 else SeriesId("EF", n - 1),
    "EF": lambda n: SeriesId("HG", 1) if n == 2 else SeriesId("OF", n - 1),
    "FF": lambda n: {5: SeriesId("HG", 3), 6: SeriesId("Y1", 4),
                     7: SeriesId("Z2", 5), 8: SeriesId("Gamma1", 6)}[n],
    "OG": lambda k: SeriesId("HG", 2) if k == 1 else SeriesId("OG", k - 1),
    "Star": lambda n: n + 1,
    "Xi": lambda n: SeriesId("Pi", n - 1),
    "Theta": lambda n: SeriesId("HG", 2) if n == 4 else SeriesId("Theta", n - 2),
    "Psi6": lambda n: SeriesId("Theta", 4),
    "Pi": lambda n: SeriesId("S", 0) if n == 3 else SeriesId("Pi", n - 2),
    "Delta": lambda n: SeriesId("S", 0) if n == 3 else SeriesId("Delta", n - 2),
    "Gamma1": lambda n: SeriesId("X1", 5) if n == 6 else SeriesId("Gamma1", n - 2),
    "Gamma2": lambda n: SeriesId("HG", 3) if n == 4 else SeriesId("Gamma2", n - 2),
    "Gamma3": lambda n: SeriesId("HG", 2) if n == 4 else SeriesId("Gamma3", n - 2),
    "Gamma4": lambda n: SeriesId("HG", 3) if n == 4 else SeriesId("Gamma4", n - 2),
    "X1": lambda n: SeriesId("Gamma2", 4) if n == 5 else SeriesId("X1", n - 2),
    "X2": lambda n: SeriesId("HG", 2) if n == 3 else SeriesId("X2", n - 2),
    "Y1": lambda n: SeriesId("HG", 3) if n == 4 else SeriesId("Z2", n - 1),
    "Y2": lambda n: SeriesId("Z3", n - 1),
    "Y3": lambda n: SeriesId("HG", 3) if n == 4 else SeriesId("Y6", n - 2),
    "Y4": lambda n: SeriesId("Z2", 5) if n == 6 else SeriesId("Y7", n - 2),
    "Y5": lambda n: SeriesId("HG", 1) if n == 2 else SeriesId("Y5", n - 2),
    "Y6": lambda n: SeriesId("HG", 3) if n == 4 else SeriesId("Y3", n - 2),
    "Y7": lambda n: SeriesId("X1", 5) if n == 6 else SeriesId("Y4", n - 2),
    "Z1": lambda n: SeriesId("Y5", n - 1),
    "Z2": lambda n: SeriesId("Gamma4", 4) if n == 5 else SeriesId("Z2", n - 2),
    "Z3": lambda n: SeriesId("HG", 2) if n == 3 else SeriesId("Z3", n - 2),
    "Z4": lambda n: SeriesId("HG", 2) if n == 3 else SeriesId("Z4", n - 2),
}


@dataclass(frozen=True)
class ChainStep:
    label: str
    mvs: tuple[Partition, ...]

    def __str__(self) -> str:
        return ";".join(map(str, self.mvs))


def expected_chain(sid: SeriesId | str) -> list[ChainStep]:
    """The family's symbolic reduction chain, fully instantiated."""
    if isinstance(sid, str):
        sid = parse_series_id(sid)
    chain: list[ChainStep] = []
    cur: SeriesId | None = sid
    while cur is not None:
        mvs = series_mvs(cur)
        chain.append(ChainStep(str(cur), mvs))
        if mvs[0].size == 1:
            break
        nxt = _SUCCESSORS[cur.name](cur.param)
        if nxt is None:
            break
        if isinstance(nxt, int):
            chain.append(ChainStep(";".join(["(1)"] * nxt), (Partition((1,)),) * nxt))
            break
        cur = nxt
    return chain


def verify_chain(sid: SeriesId | str) -> list[str]:
    """Run the decision on the instance and match its trace against the chain.

    Returns the symbolic labels; raises ``ChainMismatchError`` on the first
    step whose state differs from the expected instance.
    """
    if isinstance(sid, str):
        sid = parse_series_id(sid)
    expected = expected_chain(sid)
    trace = decide(JnfTuple.from_pmv(expected[0].mvs))
    if len(trace.steps) != len(expected):
        raise ChainMismatchError(
            f"{sid}: trace has {len(trace.steps)} steps, chain expects {len(expected)}")
    for i, (step, exp) in enumerate(zip(trace.steps, expected)):
        if not (step.state.is_diagonal
                and tuple(sorted(step.state.pmv(), reverse=True)) == exp.mvs):
            raise ChainMismatchError(
                f"{sid}: step {i} is {step.state}, expected {exp.label} = {exp}")
    if not trace.verdict.solvable:
        raise ChainMismatchError(f"{sid}: chain ran but verdict is not solvable")
    return [c.label for c in expected]


# ---------------------------------------------------------------------------
# enumeration


@dataclass(frozen=True)
class EnumConstraints:
    n: int
    num_entries: int
    max_first_part: int | None = None
    forbid_all_ones: bool = False
    forbid_scalar: bool = False
    require_defect: int = 2

    def __post_init__(self) -> None:
        if self.n < 1 or self.num_entries < 2:
            raise ValueError("need n >= 1 and at least two entries")
        if self.require_defect != 2:
            raise ValueError(f"only defect 2 (rigid) can be enumerated, not {self.require_defect}")


def _children(parent: tuple[tuple[int, ...], ...], max_n: int) -> set[tuple[tuple[int, ...], ...]]:
    """Canonical tuples of size <= ``max_n`` that one reduction step takes to ``parent``:
    entry j gains k = (E-2)*n1 - sum(x_j) on one part x_j (or on a new part, x_j = 0),
    and x_j + k must be a largest part, since the step cuts one."""
    n1 = sum(parent[0])
    base = (len(parent) - 2) * n1
    # per entry: each part x (0 for none) -> what is left of the entry without it
    left = [{0: mv, **{x: mv[:i] + mv[i + 1:] for i, x in enumerate(mv)}} for mv in parent]
    out = set()
    for xs in itertools.product(*left):
        k = base - sum(xs)
        if k < 1 or n1 + k > max_n:
            continue
        child = []
        for x, rests in zip(xs, left):
            rest = rests[x]
            if rest and rest[0] > x + k:
                break
            child.append((x + k, *rest))
        else:
            # at n = n1 + k the child's rank sum is 2n - k, so omega fails, and
            # n1 minus each rank is x_j >= 0, so beta holds: the step is defined
            out.add(tuple(sorted(child, reverse=True)))
    return out


def enumerate_rigid(c: EnumConstraints, *, max_n: int | None = None) -> list[JnfTuple]:
    """All solvable rigid diagonal tuples meeting the constraints, up to entry
    permutation, sorted by their canonical multiplicity vectors.

    They reduce step by step to (1);...;(1) and the step is deterministic, so
    they form a tree (Katz's algorithm run backwards) that the walk grows up to
    size ``c.n``, keeping scalar entries as (n).  The step never raises a part,
    so ``max_first_part`` prunes it.  Outputs are checked with ``solvable_pmv``.
    """
    limit = DEFAULT_MAX_ENUM_N if max_n is None else max_n
    if c.n > limit:
        raise ResourceLimitError(f"n={c.n} exceeds the enumeration guard {limit}")
    if c.num_entries > MAX_ENUM_ENTRIES:
        raise ResourceLimitError(f"at most {MAX_ENUM_ENTRIES} entries supported")
    found = []
    stack = [((1,),) * c.num_entries]
    while stack:
        node = stack.pop()
        if c.max_first_part is not None and min(mv[0] for mv in node) > c.max_first_part:
            continue
        if sum(node[0]) < c.n:
            stack.extend(_children(node, c.n))
        elif not any((c.forbid_scalar and len(mv) == 1) or (c.forbid_all_ones and mv[0] == 1)
                     for mv in node):
            if not solvable_pmv(node):
                raise RuntimeError(f"the tree walk reached {node}, which solvable_pmv rejects")
            found.append(node)
    return [JnfTuple.from_pmv(mvs) for mvs in sorted(found)]


def catalog_lines(tuples: Iterable[JnfTuple]) -> list[dict]:
    """JSON-ready dump records: one per tuple, with defect and catalog names."""
    out = []
    for t in tuples:
        out.append({
            "n": t.n,
            "entries": [list(e.multiplicity_vector().parts) for e in t.entries],
            "defect": defect(t),
            "series_names": identify(t),
        })
    return out
