"""Jordan-form shapes, their class invariants r and d, and the diagonal correspondence.

A shape here is purely combinatorial: eigenvalues are anonymous slots, each slot
carrying the partition of its Jordan block sizes.  Diagonalizable classes are the
special case where every block has size 1; those are encoded compactly by a
multiplicity vector (one part per eigenvalue).

A shape's int form, its vector, is what the decision loop steps: one item per slot in
canonical slot order, an all-ones slot as its multiplicity and any other slot as its
block sizes, an int tuple.  Canonical order puts the all-ones slots last, so a diagonal
shape's vector is its multiplicity vector.  A ``JnfTuple`` holds its entries or their
vectors and builds the other on first read: the parsers (``sorted_parts`` checks their
parts) and the decision loop make vectors, and the tuple's text, its JSON
(``reduction.jnf_tuple_json``) and r and d (``partitions._ranks``) come from them, so a
tuple that is only parsed, decided, named and printed never builds a shape.

Shapes and tuples are immutable and may be shared: shapes built from vectors, by
``Jnf.diagonal`` or on a first read of ``entries``, come from a bounded table.  Never
mutate them with ``object.__setattr__``.  A ``Jnf`` fills its hash into a slot on
first use.
"""

from __future__ import annotations

from functools import lru_cache, total_ordering
from operator import attrgetter
from typing import Iterable

from .errors import require_key
from .partitions import (_TEXT_CACHE_SIZE, Partition, _capped, _Frozen, _ranks, _vector_text,
                         disjoint_sum, dual, normalize, parse_parts, sorted_parts)

#: Bound on the table of shapes built from vectors, for callers that read ``entries``
#: (the CLI does not), chosen by measurement: Tier-1 builds shapes of 2,470 distinct
#: vectors.  The six tests that read the most took 11.7 s with 2048 and 13.0-13.2 s
#: with no table; 1024 to 8192 moved the whole suite by under 0.3 s.
_SHAPE_CACHE_SIZE = 2048


@total_ordering
class Jnf(_Frozen):
    """Jordan block sizes grouped by eigenvalue slot, canonically ordered.

    Also carries the size ``n``, the rank ``r``, the class dimension ``d`` and
    ``is_diagonal``, computed on construction.
    """

    # _mv is set on diagonal shapes only; _hash is filled on first use (reading it
    # raises before)
    __slots__ = ("slots", "n", "r", "d", "is_diagonal", "_vec", "_mv", "_hash")

    def __init__(self, slots: tuple[Partition, ...]) -> None:
        slots = tuple(sorted(slots, key=attrgetter("parts"), reverse=True))
        object.__setattr__(self, "slots", slots)
        # plain attributes, computed once: equality, hashing and ordering see only slots
        vec, n = _vector([s.parts for s in slots])
        (r,), d = _ranks((vec,), n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "is_diagonal", type(vec[0]) is int)
        object.__setattr__(self, "_vec", vec)
        if self.is_diagonal:
            object.__setattr__(self, "_mv", Partition(self._vec))

    def __repr__(self) -> str:
        return f"Jnf(slots={self.slots!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.slots == other.slots

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.slots,))
            object.__setattr__(self, "_hash", h)
            return h

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.slots < other.slots

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "Jnf":
        return cls(tuple(normalize(b) for b in blocks))

    @classmethod
    def diagonal(cls, mv: Partition | Iterable[int]) -> "Jnf":
        """The diagonal shape of multiplicity vector ``mv``, checked by ``sorted_parts``."""
        return _shape(sorted_parts(mv))

    def multiplicity_vector(self) -> Partition:
        if not self.is_diagonal:
            raise ValueError("only diagonal shapes have a multiplicity vector")
        return self._mv

    def eigenvalue_multiplicities(self) -> tuple[int, ...]:
        """Total size per eigenvalue slot, in canonical slot order."""
        return tuple(s.size for s in self.slots)

    def is_scalar(self) -> bool:
        """A zero-dimensional class: one eigenvalue, all blocks of size 1."""
        return self.r == 0

    def __str__(self) -> str:
        return str(self._mv) if self.is_diagonal else "{" + ",".join(map(str, self.slots)) + "}"


def corresponding_diagonal(j: Jnf) -> Partition:
    """Multiplicity vector of the diagonal shape matched to ``j``.

    Pools the conjugates of every slot's block partition; preserves both r and d.
    """
    return disjoint_sum(dual(s) for s in j.slots)


class JnfTuple(_Frozen):
    """An ordered tuple of shapes of one common size, the decision-procedure input.

    ``n`` and ``is_diagonal`` are set on construction.  ``entries`` and ``_vecs``,
    the entries' vectors (see the module docstring), are each built from the other on
    first read; equality and hashing see the entries.
    """

    __slots__ = ("entries", "n", "is_diagonal", "_vecs")

    def __init__(self, entries: tuple[Jnf, ...]) -> None:
        entries = tuple(entries)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "n", _size(len(entries), {e.n for e in entries}))
        object.__setattr__(self, "is_diagonal", all(e.is_diagonal for e in entries))

    @classmethod
    def _of_vectors(cls, vecs: tuple, n: int, diagonal: bool) -> "JnfTuple":
        """Unchecked: the caller vouches for the canonical ``vecs``, ``n`` and ``diagonal``."""
        self = object.__new__(cls)
        object.__setattr__(self, "_vecs", vecs)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "is_diagonal", diagonal)
        return self

    def __getattr__(self, name):
        # called for unset slots only: the one of entries and _vecs not yet built
        if name == "entries":
            value = tuple(map(_shape, self._vecs))
        elif name == "_vecs":
            value = tuple([e._vec for e in self.entries])
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, name, value)
        return value

    def __repr__(self) -> str:
        return f"JnfTuple(entries={self.entries!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.entries,))

    @classmethod
    def from_pmv(cls, mvs: Iterable[Partition | Iterable[int]]) -> "JnfTuple":
        """The diagonal tuple of multiplicity vectors ``mvs``, each checked by ``sorted_parts``."""
        vecs = []
        for mv in mvs:
            vecs.append(sorted_parts(mv))
            if not vecs[-1]:
                raise ValueError("a Jordan shape needs at least one eigenvalue slot")
        return cls._of_vectors(tuple(vecs), _size(len(vecs), set(map(sum, vecs))), True)

    def pmv(self) -> tuple[Partition, ...]:
        if not self.is_diagonal:
            raise ValueError("only diagonal shapes have a multiplicity vector")
        return tuple(map(Partition, self._vecs))

    def __str__(self) -> str:
        if self.is_diagonal:
            return ";".join(map(_entry_text, self._vecs))
        return ";".join(str(e) for e in self.entries)


def _size(count: int, sizes: set[int]) -> int:
    """The one size of a tuple of ``count`` entries of ``sizes``; raises unless valid."""
    if count < 2:
        raise ValueError("need at least two entries")
    if len(sizes) != 1:
        raise ValueError(f"entries disagree on size: {sorted(sizes)}")
    return sizes.pop()


@lru_cache(maxsize=_SHAPE_CACHE_SIZE)
def _shape(vec: tuple) -> Jnf:
    # vectors come validated, so no bool or float part (True == 1) finds an int's shape
    return Jnf(tuple(Partition((1,) * s if type(s) is int else s) for s in vec))


def parse_pmv(text: str) -> JnfTuple:
    segments = [seg for seg in text.split(";") if seg.strip()]
    return JnfTuple.from_pmv([parse_parts(seg) for seg in segments])


# format_vectors' text of one validated vector: no bool or float part (True == 1)
_entry_text = lru_cache(maxsize=_TEXT_CACHE_SIZE)(_vector_text)


def jnf_from_dict(data: dict) -> Jnf:
    return Jnf.from_blocks(require_key(data, "eigenvalues"))


def _vector(slots: list[tuple[int, ...]]) -> tuple[tuple, int]:
    """The vector and size of the shape of checked block tuples ``slots`` in canonical order."""
    if not slots:
        raise ValueError("a Jordan shape needs at least one eigenvalue slot")
    if not slots[-1]:
        raise ValueError("every eigenvalue slot must carry at least one block")
    return tuple([s if s[0] > 1 else len(s) for s in slots]), _capped(sum(map(sum, slots)))


def jnf_tuple_from_dict(data: dict) -> JnfTuple:
    shapes = [_vector(sorted(map(sorted_parts, require_key(e, "eigenvalues")), reverse=True))
              for e in require_key(data, "entries")]
    vecs = tuple([vec for vec, _ in shapes])
    t = JnfTuple._of_vectors(vecs, _size(len(vecs), {size for _, size in shapes}),
                             all(type(vec[0]) is int for vec in vecs))
    if "n" in data and (type(data["n"]) is not int or data["n"] != t.n):
        raise ValueError(f"declared size {data['n']!r} does not match entries of size {t.n}")
    return t

