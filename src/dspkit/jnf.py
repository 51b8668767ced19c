"""Jordan-form shapes, their class invariants r and d, and the diagonal correspondence.

A shape here is purely combinatorial: eigenvalues are anonymous slots, each slot
carrying the partition of its Jordan block sizes.  Diagonalizable classes are the
special case where every block has size 1; those are encoded compactly by a
multiplicity vector (one part per eigenvalue).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import ResourceLimitError
from .partitions import Partition, disjoint_sum, dual, normalize, parse_parts

#: The explicit-matrix oracle works on dense n x n matrices; keep it tiny.
ORACLE_MAX_SIZE = 8


@dataclass(frozen=True, order=True)
class Jnf:
    """Jordan block sizes grouped by eigenvalue slot, canonically ordered.

    Also carries the size ``n``, the rank ``r``, the class dimension ``d`` and
    ``is_diagonal``, computed on construction.
    """

    slots: tuple[Partition, ...]

    def __post_init__(self) -> None:
        slots = tuple(sorted(self.slots, reverse=True))
        object.__setattr__(self, "slots", slots)
        if not slots:
            raise ValueError("a Jordan shape needs at least one eigenvalue slot")
        if any(not s.parts for s in slots):
            raise ValueError("every eigenvalue slot must carry at least one block")
        # n, r, d and is_diagonal are read for every state of a decision, so they
        # are computed once, as plain attributes: equality, hashing and ordering
        # see only the slots.  r is n minus the maximal block count of one slot.
        # d is n^2 minus the centralizer dimension, the sum over slots of the
        # squared conjugate parts, which is sum((2i+1) * p_i) with i from 0.
        n = sum(s.size for s in slots)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", n - max(len(s.parts) for s in slots))
        object.__setattr__(self, "d", n * n - sum(
            (2 * i + 1) * p for s in slots for i, p in enumerate(s.parts)))
        object.__setattr__(self, "is_diagonal", all(s.parts[0] == 1 for s in slots))

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "Jnf":
        return cls(tuple(normalize(b) for b in blocks))

    @classmethod
    def diagonal(cls, mv: Partition | Iterable[int]) -> "Jnf":
        mv = mv if isinstance(mv, Partition) else normalize(mv)
        return cls(tuple(Partition((1,) * m) for m in mv.parts))

    def multiplicity_vector(self) -> Partition:
        if not self.is_diagonal:
            raise ValueError("only diagonal shapes have a multiplicity vector")
        return Partition(tuple(len(s.parts) for s in self.slots))

    def eigenvalue_multiplicities(self) -> tuple[int, ...]:
        """Total size per eigenvalue slot, in canonical slot order."""
        return tuple(s.size for s in self.slots)

    def is_scalar(self) -> bool:
        """A zero-dimensional class: one eigenvalue, all blocks of size 1."""
        return self.r == 0

    def __str__(self) -> str:
        if self.is_diagonal:
            return str(self.multiplicity_vector())
        return "{" + ",".join(str(s) for s in self.slots) + "}"


def corresponding_diagonal(j: Jnf) -> Partition:
    """Multiplicity vector of the diagonal shape matched to ``j``.

    Pools the conjugates of every slot's block partition; preserves both r and d.
    """
    return disjoint_sum(dual(s) for s in j.slots)


@dataclass(frozen=True)
class JnfTuple:
    """An ordered tuple of shapes of one common size, the decision-procedure input."""

    entries: tuple[Jnf, ...]

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        if len(entries) < 2:
            raise ValueError("need at least two entries")
        sizes = {e.n for e in entries}
        if len(sizes) != 1:
            raise ValueError(f"entries disagree on size: {sorted(sizes)}")
        if entries[0].n < 1:
            raise ValueError("size must be at least 1")

    @classmethod
    def from_pmv(cls, mvs: Iterable[Partition | Iterable[int]]) -> "JnfTuple":
        return cls(tuple(Jnf.diagonal(mv) for mv in mvs))

    @property
    def n(self) -> int:
        return self.entries[0].n

    @property
    def is_diagonal(self) -> bool:
        return all(e.is_diagonal for e in self.entries)

    def pmv(self) -> tuple[Partition, ...]:
        return tuple(e.multiplicity_vector() for e in self.entries)

    def __str__(self) -> str:
        return ";".join(str(e) for e in self.entries)


def diagonalized(t: JnfTuple) -> JnfTuple:
    """Entrywise corresponding diagonal tuple."""
    return JnfTuple.from_pmv([corresponding_diagonal(e) for e in t.entries])


def parse_pmv(text: str) -> JnfTuple:
    segments = [seg for seg in text.split(";") if seg.strip()]
    return JnfTuple.from_pmv([normalize(parse_parts(seg)) for seg in segments])


def jnf_to_dict(j: Jnf) -> dict:
    return {"eigenvalues": [list(s.parts) for s in j.slots]}


def require_key(data: dict, key: str):
    """``data[key]`` of a parsed JSON object; a missing key is a ValueError naming it."""
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f"missing key {key!r}")
    return data[key]


def jnf_from_dict(data: dict) -> Jnf:
    return Jnf.from_blocks(require_key(data, "eigenvalues"))


def jnf_tuple_to_dict(t: JnfTuple) -> dict:
    return {"n": t.n, "entries": [jnf_to_dict(e) for e in t.entries]}


def jnf_tuple_from_dict(data: dict) -> JnfTuple:
    t = JnfTuple(tuple(jnf_from_dict(e) for e in require_key(data, "entries")))
    if "n" in data and int(data["n"]) != t.n:
        raise ValueError(f"declared size {data['n']} does not match entries of size {t.n}")
    return t


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
