"""Rigidity arithmetic, the named-series catalog with its reduction chains, and the
enumerator of rigid diagonal tuples, which grows them from size 1 by running the
reduction step backwards.

A tuple is rigid when its defect 2n^2 - sum(d_j) equals 2.  The catalog holds one
record per named family (its size map, parameter range, generator and successor in
the reduction chain) and a per-size index on int vectors that names catalog members
in traces and in enumerator output, whose walk has one guard: ``MAX_ENUM_WORK``.
One memoized builder makes each member's canonical int vectors once per process;
``series_mvs``, ``series``, the chain check and the name index all read them.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from .errors import (
    ChainMismatchError,
    PreconditionError,
    ResourceLimitError,
    SeriesParameterError,
)
from .partitions import MAX_SIZE, Partition, _capped, _ranks, format_vectors, normalize
from .reduction import psi_step, solvable_pmv

if TYPE_CHECKING:
    from .jnf import JnfTuple

#: The walk's one resource guard: a node with p parts that tries t part choices (the product
#: of its entries' choice counts) is charged t*p units of work before it builds a child.  The
#: largest walks in perfbench and the tests do 162,989 and 1,551,788.  In process, 3 GB cap,
#: 2 runs each (Python 3.11, 2 cores), walks trip after: unconstrained triples 0.64-0.65 s /
#: 21 MB at n=40, 0.2-0.4 s / 16-18 MB at n=100 and 10000, 0.4 s / 140 MB at 10**30; 4 or 6
#: entries 0.5-0.75 s / 20-22 MB at n=40, 4, 6 or 8 0.6-1.0 s / 192-284 MB at 10**30; u=1 or 2,
#: 3 or 4 entries, n=10**4 to 10**30 0.08-0.14 s / 16-18 MB; 19 entries at n=40 1.6 s / 16 MB;
#: 21 or 30 at once.
MAX_ENUM_WORK = 10_000_000
#: Bound on the cached per-size name indexes, chosen by measurement: perfbench's
#: `batch` (seed 5) names states of 40 sizes, which 64 keeps (40 builds, 2,048 hits;
#: 0.09-0.13 s to decide and name its lines in process) and 32 does not (350 builds,
#: 0.26-0.31 s).  Naming the chain of HG_800 builds 800 indexes: peak RSS 78 MB
#: unbounded, 30 MB with the bound (Python 3.11, 2 cores).
_NAMES_CACHE_SIZE = 64
#: Bound on the memoized catalog members, chosen by measurement: catalog-verify builds
#: each of its 553 instances once at --max-n 30 and each of its 1,134 at the default
#: --max-n 60 (at 200, 172 of 3,840 twice).  Naming the chain of HG_800 builds 15,440
#: members: peak RSS 41.7 MB with the bound, 46.0 MB with 2,048 and 41.6 MB with no
#: memo (Python 3.11, 2 cores).
_MEMBER_CACHE_SIZE = 1024


# ---------------------------------------------------------------------------
# defect and the dimension-minimizing vector


def defect(t: JnfTuple) -> int:
    """2n^2 - sum of class dimensions; invariant under the reduction step."""
    return 2 * t.n * t.n - _ranks(t._vecs, t.n)[1]


def is_rigid(t: JnfTuple) -> bool:
    return defect(t) == 2


def min_d_mv(n: int, r: int) -> Partition:
    """The unique multiplicity vector of size ``n`` minimizing d at fixed rank ``r``."""
    if n < 1 or r < 0 or r > n - 1:
        raise ValueError(f"rank {r} out of range for size {n}")
    if 2 * r <= n:
        return normalize([n - r, r])
    m = n - r
    q = n % m or m
    return Partition((m,) * ((n - q) // m) + (q,))


# ---------------------------------------------------------------------------
# named series


class SeriesId(NamedTuple):
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


class _Family(NamedTuple):
    # instance p, for p in params, has size a*p + b with a >= 1, so the size-n member's
    # parameter is the quotient of n - b by a, if that divides and lies in params
    a: int
    b: int
    params: range
    build: Callable[[int], list[list[int]]]
    # the next instance in the reduction chain, asked only of instances of size > 1; an
    # ``int`` means the chain ends in that many size-1 entries with no catalog name
    succ: Callable[[int], SeriesId | int]

    def n_of(self, param: int) -> int:
        return self.a * param + self.b


#: A stop past every parameter whose instance fits the partition cap.
_END = MAX_SIZE + 1


def _tw(twos: int, ones: int) -> list[int]:
    return [2] * twos + [1] * ones


FAMILIES: dict[str, _Family] = {
    # triples indexed by k
    "W": _Family(3, 1, range(0, _END), lambda k: [[k, k, k + 1]] * 3, lambda k: SeriesId("B", k)),
    "B": _Family(3, -1, range(1, _END),
                 lambda k: [[k, k, k - 1]] * 3, lambda k: SeriesId("W", k - 1)),
    "C": _Family(3, 0, range(1, _END),
                 lambda k: [[k, k, k], [k, k, k], [k, k + 1, k - 1]], lambda k: SeriesId("B", k)),
    "D": _Family(4, 1, range(0, _END),
                 lambda k: [[k, k, k, k + 1], [k, k, k, k + 1], [2 * k, 2 * k + 1]],
                 lambda k: SeriesId("E", k)),
    "E": _Family(4, -1, range(1, _END),
                 lambda k: [[k, k, k, k - 1], [k, k, k, k - 1], [2 * k, 2 * k - 1]],
                 lambda k: SeriesId("G", k - 1)),
    "F": _Family(4, 0, range(1, _END),
                 lambda k: [[k] * 4, [k] * 4, [2 * k + 1, 2 * k - 1]], lambda k: SeriesId("E", k)),
    "Phi": _Family(4, 0, range(1, _END), lambda k: [[k, k, k + 1, k - 1], [k] * 4, [2 * k, 2 * k]],
                   lambda k: SeriesId("E", k)),
    "G": _Family(4, 2, range(0, _END),
                 lambda k: [[k, k, k + 1, k + 1], [k, k, k + 1, k + 1], [2 * k + 1, 2 * k + 1]],
                 lambda k: SeriesId("D", k)),
    "H": _Family(6, 1, range(0, _END),
                 lambda k: [[k] * 5 + [k + 1], [3 * k, 3 * k + 1], [2 * k, 2 * k, 2 * k + 1]],
                 lambda k: SeriesId("I", k)),
    "I": _Family(6, -1, range(1, _END),
                 lambda k: [[k] * 5 + [k - 1], [3 * k, 3 * k - 1], [2 * k, 2 * k, 2 * k - 1]],
                 lambda k: SeriesId("P", k)),
    "J": _Family(6, 0, range(1, _END), lambda k: [[k] * 6, [3 * k + 1, 3 * k - 1], [2 * k] * 3],
                 lambda k: SeriesId("I", k)),
    "K": _Family(6, 0, range(1, _END),
                 lambda k: [[k] * 6, [3 * k, 3 * k], [2 * k, 2 * k + 1, 2 * k - 1]],
                 lambda k: SeriesId("I", k)),
    "L": _Family(6, 0, range(1, _END),
                 lambda k: [[k] * 4 + [k + 1, k - 1], [3 * k, 3 * k], [2 * k] * 3],
                 lambda k: SeriesId("I", k)),
    "V": _Family(6, 2, range(0, _END),
                 lambda k: [[k] * 4 + [k + 1, k + 1], [3 * k + 1, 3 * k + 1],
                            [2 * k, 2 * k + 1, 2 * k + 1]],
                 lambda k: SeriesId("H", k)),
    "N": _Family(6, 3, range(0, _END),
                 lambda k: [[k] * 3 + [k + 1] * 3, [3 * k + 1, 3 * k + 2], [2 * k + 1] * 3],
                 lambda k: SeriesId("V", k)),
    "P": _Family(6, -2, range(1, _END),
                 lambda k: [[k] * 4 + [k - 1] * 2, [3 * k - 1, 3 * k - 1],
                            [2 * k, 2 * k - 1, 2 * k - 1]],
                 lambda k: SeriesId("N", k - 1)),
    # quadruples / quintuple indexed by k; R_1's fourth vector degenerates to a
    # scalar, so R starts at 2
    "R": _Family(2, 0, range(2, _END),
                 lambda k: [[k, k]] * 3 + [[k + 1, k - 1]], lambda k: SeriesId("S", k - 1)),
    "S": _Family(2, 1, range(0, _END), lambda k: [[k + 1, k]] * 4, lambda k: SeriesId("S", k - 1)),
    "T": _Family(4, 0, range(1, _END), lambda k: [[2 * k + 1, 2 * k - 1]] + [[3 * k, k]] * 4,
                 lambda k: 5 if k == 1 else SeriesId("S", k - 1)),
    # classical triples indexed by n
    "HG": _Family(1, 0, range(1, _END),
                  lambda n: [[n - 1, 1], [1] * n, [1] * n], lambda n: SeriesId("HG", n - 1)),
    "OF": _Family(1, 0, range(3, _END, 2),
                  lambda n: [[(n + 1) // 2, (n - 1) // 2],
                             [(n - 1) // 2, (n - 1) // 2, 1], [1] * n],
                  lambda n: SeriesId("HG", 2) if n == 3 else SeriesId("EF", n - 1)),
    "EF": _Family(1, 0, range(2, _END, 2),
                  lambda n: [[n // 2, n // 2], [n // 2, (n - 2) // 2, 1], [1] * n],
                  lambda n: SeriesId("HG", 1) if n == 2 else SeriesId("OF", n - 1)),
    "FF": _Family(1, 0, range(5, 9), lambda n: [[2] + [1] * (n - 2), _tw(n - 4, 8 - n), [n - 2, 2]],
                  lambda n: {5: SeriesId("HG", 3), 6: SeriesId("Y1", 4),
                             7: SeriesId("Z2", 5), 8: SeriesId("Gamma1", 6)}[n]),
    "OG": _Family(2, 1, range(1, _END), lambda k: [_tw(k - 1, 3), _tw(k, 1), [2 * k - 1, 1, 1]],
                  lambda k: SeriesId("HG", 2) if k == 1 else SeriesId("OG", k - 1)),
    # the (n+1)-entry hook series
    "Star": _Family(1, 0, range(2, _END), lambda n: [[n - 1, 1]] * (n + 1), lambda n: n + 1),
    # quadruple classification families (even/odd n)
    "Xi": _Family(1, 0, range(4, _END, 2),
                  lambda n: [[2] * (n // 2), [n // 2] * 2, [n // 2] * 2, [n - 1, 1]],
                  lambda n: SeriesId("Pi", n - 1)),
    "Theta": _Family(1, 0, range(4, _END, 2),
                     lambda n: [_tw((n - 2) // 2, 2), [n // 2] * 2,
                                [n // 2 + 1, n // 2 - 1], [n - 1, 1]],
                     lambda n: SeriesId("HG", 2) if n == 4 else SeriesId("Theta", n - 2)),
    "Psi6": _Family(1, 0, range(6, 7), lambda n: [[2, 2, 2], [3, 3], [4, 1, 1], [5, 1]],
                    lambda n: SeriesId("Theta", 4)),
    "Pi": _Family(1, 0, range(3, _END, 2),
                  lambda n: [_tw((n - 1) // 2, 1), [(n + 1) // 2, (n - 1) // 2],
                             [(n + 1) // 2, (n - 1) // 2], [n - 1, 1]],
                  lambda n: SeriesId("S", 0) if n == 3 else SeriesId("Pi", n - 2)),
    "Delta": _Family(1, 0, range(3, _END, 2),
                     lambda n: [_tw((n - 1) // 2, 1)] * 2 + [[n - 1, 1]] * 2,
                     lambda n: SeriesId("S", 0) if n == 3 else SeriesId("Delta", n - 2)),
    # triple classification families, n even
    "Gamma1": _Family(1, 0, range(6, _END, 2),
                      lambda n: [[2] * (n // 2), _tw((n - 6) // 2, 6), [n - 2, 2]],
                      lambda n: SeriesId("X1", 5) if n == 6 else SeriesId("Gamma1", n - 2)),
    "Gamma2": _Family(1, 0, range(4, _END, 2),
                      lambda n: [_tw((n - 2) // 2, 2), _tw((n - 4) // 2, 4), [n - 2, 2]],
                      lambda n: SeriesId("HG", 3) if n == 4 else SeriesId("Gamma2", n - 2)),
    "Gamma3": _Family(1, 0, range(4, _END, 2),
                      lambda n: [_tw((n - 2) // 2, 2)] * 2 + [[n - 2, 1, 1]],
                      lambda n: SeriesId("HG", 2) if n == 4 else SeriesId("Gamma3", n - 2)),
    "Gamma4": _Family(1, 0, range(4, _END, 2),
                      lambda n: [[2] * (n // 2), _tw((n - 4) // 2, 4), [n - 2, 1, 1]],
                      lambda n: SeriesId("HG", 3) if n == 4 else SeriesId("Gamma4", n - 2)),
    "Y1": _Family(1, 0, range(4, _END, 2),
                  lambda n: [_tw((n - 4) // 2, 4), [(n - 2) // 2, (n - 2) // 2, 2],
                             [n // 2, n // 2]],
                  lambda n: SeriesId("HG", 3) if n == 4 else SeriesId("Z2", n - 1)),
    "Y2": _Family(1, 0, range(4, _END, 2),
                  lambda n: [_tw((n - 2) // 2, 2), [(n - 2) // 2, (n - 2) // 2, 1, 1],
                             [n // 2, n // 2]],
                  lambda n: SeriesId("Z3", n - 1)),
    "Y3": _Family(1, 0, range(4, _END, 2),
                  lambda n: [_tw((n - 4) // 2, 4), [n // 2, (n - 4) // 2, 1, 1],
                             [n // 2, n // 2]],
                  lambda n: SeriesId("HG", 3) if n == 4 else SeriesId("Y6", n - 2)),
    "Y4": _Family(1, 0, range(6, _END, 2),
                  lambda n: [_tw((n - 6) // 2, 6), [n // 2, (n - 4) // 2, 2],
                             [n // 2, n // 2]],
                  lambda n: SeriesId("Z2", 5) if n == 6 else SeriesId("Y7", n - 2)),
    "Y5": _Family(1, 0, range(2, _END, 2),
                  lambda n: [_tw((n - 2) // 2, 2), [n // 2, (n - 2) // 2, 1],
                             [n // 2, (n - 2) // 2, 1]],
                  lambda n: SeriesId("HG", 1) if n == 2 else SeriesId("Y5", n - 2)),
    "Y6": _Family(1, 0, range(4, _END, 2),
                  lambda n: [_tw((n - 4) // 2, 4), [(n - 2) // 2, (n - 2) // 2, 1, 1],
                             [(n + 2) // 2, (n - 2) // 2]],
                  lambda n: SeriesId("HG", 3) if n == 4 else SeriesId("Y3", n - 2)),
    "Y7": _Family(1, 0, range(6, _END, 2),
                  lambda n: [_tw((n - 6) // 2, 6), [(n - 2) // 2, (n - 2) // 2, 2],
                             [(n + 2) // 2, (n - 2) // 2]],
                  lambda n: SeriesId("X1", 5) if n == 6 else SeriesId("Y4", n - 2)),
    # triple classification families, n odd
    "X1": _Family(1, 0, range(5, _END, 2),
                  lambda n: [_tw((n - 5) // 2, 5), _tw((n - 1) // 2, 1), [n - 2, 2]],
                  lambda n: SeriesId("Gamma2", 4) if n == 5 else SeriesId("X1", n - 2)),
    "X2": _Family(1, 0, range(3, _END, 2), lambda n: [_tw((n - 3) // 2, 3)] * 2 + [[n - 2, 2]],
                  lambda n: SeriesId("HG", 2) if n == 3 else SeriesId("X2", n - 2)),
    "Z1": _Family(1, 0, range(3, _END, 2),
                  lambda n: [_tw((n - 1) // 2, 1), [(n - 1) // 2, (n - 1) // 2, 1],
                             [(n - 1) // 2, (n - 1) // 2, 1]],
                  lambda n: SeriesId("Y5", n - 1)),
    "Z2": _Family(1, 0, range(5, _END, 2),
                  lambda n: [_tw((n - 5) // 2, 5), [(n - 1) // 2, (n - 3) // 2, 2],
                             [(n + 1) // 2, (n - 1) // 2]],
                  lambda n: SeriesId("Gamma4", 4) if n == 5 else SeriesId("Z2", n - 2)),
    "Z3": _Family(1, 0, range(3, _END, 2),
                  lambda n: [_tw((n - 3) // 2, 3), [(n - 1) // 2, (n - 3) // 2, 1, 1],
                             [(n + 1) // 2, (n - 1) // 2]],
                  lambda n: SeriesId("HG", 2) if n == 3 else SeriesId("Z3", n - 2)),
    "Z4": _Family(1, 0, range(3, _END, 2),
                  lambda n: [_tw((n - 3) // 2, 3), [(n - 1) // 2, (n - 1) // 2, 1],
                             [(n + 1) // 2, (n - 3) // 2, 1]],
                  lambda n: SeriesId("HG", 2) if n == 3 else SeriesId("Z4", n - 2)),
    # even-n quadruples that the classical Xi/Theta/Psi6 table misses; Lambda_4 would
    # be Theta_4
    "Lambda": _Family(1, 0, range(6, _END, 2),
                      lambda n: [[n - 1, 1], [n - 1, 1], [2] * (n // 2), _tw((n - 2) // 2, 2)],
                      lambda n: SeriesId("Theta", 4) if n == 6 else SeriesId("Lambda", n - 2)),
}


_Vectors = tuple[tuple[int, ...], ...]


@functools.lru_cache(maxsize=_MEMBER_CACHE_SIZE)
def _member(sid: SeriesId, fam: _Family) -> _Vectors:
    """Canonical int vectors of instance ``sid`` as ``fam`` builds it, built once per
    process: keyed by the record too, so a patched ``FAMILIES`` entry builds anew."""
    if sid.param not in fam.params:
        raise SeriesParameterError(f"parameter {sid.param} out of range for {sid.name}")
    n = _capped(fam.n_of(sid.param))
    mvs = tuple(sorted((tuple(sorted(filter(None, raw), reverse=True))
                        for raw in fam.build(sid.param)), reverse=True))
    if {sum(mv) for mv in mvs} != {n} or any(mv[-1] < 1 for mv in mvs):
        raise RuntimeError(f"{sid} does not build positive vectors of size {n}")
    return mvs


def _vectors(node: SeriesId | int) -> _Vectors:
    """A chain member's canonical int vectors: a catalog instance's, or a tail of
    that many size-1 entries."""
    if isinstance(node, int):
        return ((1,),) * node
    fam = FAMILIES.get(node.name)
    if fam is None:
        raise SeriesParameterError(f"unknown series {node.name!r}")
    return _member(node, fam)


def series_mvs(sid: SeriesId) -> tuple[Partition, ...]:
    """Canonical multiplicity vectors of the family instance."""
    return tuple(map(Partition, _vectors(sid)))


def series(sid: SeriesId | str) -> JnfTuple:
    """Build the family instance as a canonicalized diagonal tuple."""
    from .jnf import JnfTuple  # here, so that the enumerator loads no shapes

    if isinstance(sid, str):
        sid = parse_series_id(sid)
    vecs = _vectors(sid)
    return JnfTuple._of_vectors(vecs, sum(vecs[0]), True)


def all_series_ids(max_n: int) -> Iterator[SeriesId]:
    """Every catalog instance of size up to ``max_n``, family by family."""
    for name, fam in FAMILIES.items():
        for param in fam.params:
            if fam.n_of(param) > max_n:
                break
            yield SeriesId(name, param)


@functools.lru_cache(maxsize=_NAMES_CACHE_SIZE)
def _names_by_pmv(n: int) -> dict[_Vectors, tuple[str, ...]]:
    """Sorted names of the size-``n`` catalog instances, keyed by canonical vectors."""
    index: dict[_Vectors, list[str]] = {}
    for name, fam in FAMILIES.items():
        param, rest = divmod(n - fam.b, fam.a)
        if not rest and param in fam.params:
            sid = SeriesId(name, param)
            index.setdefault(_member(sid, fam), []).append(str(sid))
    return {key: tuple(sorted(names)) for key, names in index.items()}


def identify(t: JnfTuple) -> list[str]:
    """Names of every catalog instance equal to ``t`` up to entry permutation."""
    if not t.is_diagonal:
        return []
    key = tuple(sorted(t._vecs, reverse=True))  # a diagonal tuple's vectors are its pmv
    return list(_names_by_pmv(t.n).get(key, ()))


# ---------------------------------------------------------------------------
# reduction chains


class ChainStep(NamedTuple):
    label: str
    mvs: tuple[Partition, ...]

    def __str__(self) -> str:
        return format_vectors(mv.parts for mv in self.mvs)


def _chain_step(node: SeriesId | int) -> ChainStep:
    """A chain member: a catalog instance, or a tail of that many size-1 entries."""
    label = ";".join(["(1)"] * node) if isinstance(node, int) else str(node)
    return ChainStep(label, tuple(map(Partition, _vectors(node))))


def verify_step(sid: SeriesId | str) -> SeriesId | int | None:
    """Check one edge of the instance's reduction chain and return its successor
    (``None`` at size 1).

    Raises ``ChainMismatchError`` unless the defect is 2 and, above size 1, the
    successor is a catalog instance and one reduction step (scalar entries of the
    result dropped, unless it has size 1) gives its vectors.  Successors are smaller
    catalog instances, so checking every instance up to some size proves every chain
    up to it, and the verdict ``ReducedToSize1``.
    """
    if isinstance(sid, str):
        sid = parse_series_id(sid)
    t = series(sid)
    if not is_rigid(t):
        raise ChainMismatchError(f"{sid}: defect is {defect(t)}, not 2")
    if t.n == 1:
        return None
    nxt = FAMILIES[sid.name].succ(sid.param)
    try:
        want = _vectors(nxt)
    except SeriesParameterError as exc:
        raise ChainMismatchError(f"{sid}: bad successor {nxt} ({exc})") from None
    try:
        got = psi_step(t)
    except PreconditionError as exc:
        raise ChainMismatchError(f"{sid}: step 1 is undefined ({exc})") from None
    mvs = tuple(sorted((mv for mv in got._vecs if got.n == 1 or len(mv) > 1), reverse=True))
    if mvs != want:
        step = _chain_step(nxt)
        raise ChainMismatchError(
            f"{sid}: step 1 is {format_vectors(mvs)}, expected {step.label} = {step}")
    return nxt


def verify_chain(sid: SeriesId | str) -> list[ChainStep]:
    """The instance's reduction chain, each edge checked with ``verify_step``."""
    node = parse_series_id(sid) if isinstance(sid, str) else sid
    chain = []
    while node is not None:
        chain.append(_chain_step(node))
        node = verify_step(node) if isinstance(node, SeriesId) else None
    return chain


# ---------------------------------------------------------------------------
# enumeration


def _children(parent: _Vectors, max_n: int, u: int, spare: list[int]) -> set[_Vectors]:
    """Canonical tuples of size <= ``max_n``, with an entry of parts <= ``u``, that one
    reduction step takes to ``parent``: entry j gains k = (E-2)*n1 - sum(x_j) on one
    part x_j (or on a new part, x_j = 0), and x_j + k must be a largest part.  The node's
    work, parts times tries (the product of the choice counts), leaves ``spare[0]`` or raises."""
    n1 = sum(parent[0])
    base = (len(parent) - 2) * n1
    kwin = max_n - n1
    # 1 <= k <= kmax, so x_j + k can be a largest part only for x_j >= mv[0] - kmax,
    # and a new part only when mv[0] <= kmax
    kmax = min(kwin, u)
    # per entry: each such distinct part x (0 for none), what is left of the entry
    # without it, and the least k that makes x + k a largest part
    left = []
    work = sum(map(len, parent))
    for mv in parent:
        low = mv[0] - kmax
        choices = [(0, mv, mv[0])] if low <= 0 else []
        for i, x in enumerate(mv):
            if x >= low and (not i or mv[i - 1] != x):
                rest = mv[:i] + mv[i + 1:]
                choices.append((x, rest, rest[0] - x if rest else 0))
        left.append(choices)
        work *= len(choices)
        if work > spare[0]:
            raise ResourceLimitError(f"the walk to n={max_n} does > {MAX_ENUM_WORK} units of work")
    spare[0] -= work
    *heads, last = left
    partial = [(base, 1, u, ())]
    for choices in heads:
        partial = _extended(partial, choices, kwin)
    # at n = n1 + k the child's rank sum is 2n - k, so omega fails, and n1 minus each
    # rank is x_j >= 0, so beta holds: the step is defined
    return {tuple(sorted([(y + k, *z) for y, z in acc] + [(x + k, *rest)], reverse=True))
            for r, lo, least, acc in partial for x, rest, gap in last
            if lo <= (k := r - x) <= kwin and gap <= k and (least if least <= x else x) + k <= u}


def _extended(partial: Iterable[tuple], choices: list[tuple], kwin: int) -> Iterator[tuple]:
    """``_children``'s combinations of the other entries' choices, one entry more, made
    lazily so that no node holds them all: k before the parts still to come are taken off,
    the least k the largest-part conditions allow, the least part, and the choices."""
    for r, lo, least, acc in partial:
        for x, rest, gap in choices:
            # a later part only lowers k, so below its least k a combination is dropped
            if r - x >= lo and r - x >= gap and gap <= kwin:
                yield (r - x, lo if lo >= gap else gap, least if least <= x else x,
                       acc + ((x, rest),))


def enumerate_rigid(n: int, entries: int, *, u: int | None = None, no_all_ones: bool = False,
                    no_scalar: bool = False) -> list[_Vectors]:
    """All solvable rigid diagonal tuples of size ``n`` with ``entries`` entries, up to
    entry permutation, as sorted canonical vectors: int tuples, parts and entries descending.

    Filters: an entry with parts <= ``u``, no all-ones entry, no scalar entry.  The
    tuples reduce step by step to (1);...;(1) and the step is deterministic, so they
    form a tree (Katz's algorithm run backwards) that the walk grows up to size ``n``,
    keeping scalar entries as (n).  The step never raises a part, so ``u`` prunes it.
    Outputs are checked with ``solvable_pmv``.  ``ValueError`` for n < 1, fewer than
    two entries or u < 1.  No size or entry limit: ``ResourceLimitError`` past ``MAX_ENUM_WORK``
    units of work, at once and at any n if the root's 2**entries tries alone pass it.
    """
    if n < 1 or entries < 2 or u is not None and u < 1:
        raise ValueError("need n >= 1, at least two entries and u >= 1")
    if entries >= MAX_ENUM_WORK.bit_length():
        raise ResourceLimitError(f"the root tries 2**{entries} > {MAX_ENUM_WORK} part choices")
    found = []
    u = n if u is None else u
    stack, spare = [((1,),) * entries], [MAX_ENUM_WORK]
    while stack:
        node = stack.pop()
        if sum(node[0]) < n:
            stack.extend(_children(node, n, u, spare))
        elif not any((no_scalar and len(mv) == 1) or (no_all_ones and mv[0] == 1)
                     for mv in node):
            if not solvable_pmv(node):
                raise RuntimeError(f"the tree walk reached {node}, which solvable_pmv rejects")
            found.append(node)
    return sorted(found)


def catalog_lines(tuples: Iterable[_Vectors]) -> list[dict]:
    """JSON-ready records of rigid vectors (``enumerate_rigid``'s, or in any entry or part
    order) with defect and names; ``RuntimeError`` if sizes differ or the defect is not 2."""
    out = []
    for mvs in tuples:
        n = sum(mvs[0])
        if any(sum(mv) != n for mv in mvs):
            raise RuntimeError(f"{mvs}: entries are not all of size {n}")
        value = 2 * n * n - sum(n * n - sum(x * x for x in mv) for mv in mvs)
        if value != 2:
            raise RuntimeError(f"{mvs}: defect is {value}, not 2")
        key = tuple(sorted((tuple(sorted(mv, reverse=True)) for mv in mvs), reverse=True))
        out.append({"n": n, "entries": [list(mv) for mv in mvs], "defect": value,
                    "series_names": list(_names_by_pmv(n).get(key, ()))})
    return out
