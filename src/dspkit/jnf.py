"""Jordan-form shapes, their class invariants r and d, and the diagonal correspondence.

A shape here is purely combinatorial: eigenvalues are anonymous slots, each slot
carrying the partition of its Jordan block sizes.  Diagonalizable classes are the
special case where every block has size 1; those are encoded compactly by a
multiplicity vector (one part per eigenvalue).

Shapes are immutable and may be shared: ``Jnf.diagonal`` reuses one all-ones
slot per multiplicity, and the reduction step reuses the shapes it has already
built.  A ``Jnf`` fills its multiplicity vector, text and hash into slots on first
use, so a shape that is never printed or hashed never pays for them.  Never mutate
a ``Partition`` or ``Jnf`` with ``object.__setattr__``.

``jnf_tuple_json`` writes a tuple's compact JSON text directly, joining each
slot's cached ``[a,b,...]`` text; it is the one definition of the JSON form, and
the ``*_to_dict`` functions parse its output.
"""

from __future__ import annotations

import json
from functools import lru_cache
from operator import attrgetter
from typing import Iterable

from .errors import require_key
from .partitions import Partition, _Frozen, disjoint_sum, dual, normalize, parse_parts

#: Bound on the interned all-ones slots of ``Jnf.diagonal``, one per multiplicity.
#: Without it a long-lived process could hold one slot of every size up to
#: ``MAX_SIZE``, about 400 MB.
_ONES_CACHE_SIZE = 256


@lru_cache(maxsize=_ONES_CACHE_SIZE)
def _ones(m: int) -> Partition:
    return Partition((1,) * m)


@lru_cache(maxsize=_ONES_CACHE_SIZE)
def _slot_json(parts: tuple[int, ...]) -> str:
    # the states of a batch share their all-ones slots, so a few hundred texts cover it
    return "[" + ",".join(map(str, parts)) + "]"


class Jnf(_Frozen):
    """Jordan block sizes grouped by eigenvalue slot, canonically ordered.

    Also carries the size ``n``, the rank ``r``, the class dimension ``d`` and
    ``is_diagonal``, computed on construction.
    """

    # _mv, _text and _hash are filled on first use; until then reading one raises AttributeError
    __slots__ = ("slots", "n", "r", "d", "is_diagonal", "_mv", "_text", "_hash")

    def __init__(self, slots: tuple[Partition, ...]) -> None:
        slots = tuple(sorted(slots, key=attrgetter("parts"), reverse=True))
        object.__setattr__(self, "slots", slots)
        if not slots:
            raise ValueError("a Jordan shape needs at least one eigenvalue slot")
        # n, r, d and is_diagonal are read for every state of a decision, so they
        # are computed once, in one pass, as plain attributes: equality, hashing and
        # ordering see only the slots.  r is n minus the maximal block count of one
        # slot.  d is n^2 minus the centralizer dimension, the sum over slots of the
        # squared conjugate parts, which is sum((2i+1) * p_i) with i from 0: m^2 for
        # an all-ones slot of multiplicity m.
        n = centralizer = most = 0
        diagonal = True
        for s in slots:
            parts = s.parts
            if not parts:
                raise ValueError("every eigenvalue slot must carry at least one block")
            n += s.size
            most = max(most, len(parts))
            if parts[0] == 1:
                centralizer += len(parts) ** 2
            else:
                diagonal = False
                centralizer += sum((2 * i + 1) * p for i, p in enumerate(parts))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", n - most)
        object.__setattr__(self, "d", n * n - centralizer)
        object.__setattr__(self, "is_diagonal", diagonal)

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

    def __le__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.slots <= other.slots

    def __gt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.slots > other.slots

    def __ge__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.slots >= other.slots

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "Jnf":
        return cls(tuple(normalize(b) for b in blocks))

    @classmethod
    def diagonal(cls, mv: Partition | Iterable[int]) -> "Jnf":
        """The diagonal shape of multiplicity vector ``mv``; equal multiplicities
        share one interned all-ones slot."""
        mv = mv if isinstance(mv, Partition) else normalize(mv)
        return cls(tuple(_ones(m) for m in mv.parts))

    def multiplicity_vector(self) -> Partition:
        if not self.is_diagonal:
            raise ValueError("only diagonal shapes have a multiplicity vector")
        try:
            return self._mv
        except AttributeError:
            mv = Partition(tuple(len(s.parts) for s in self.slots))
            object.__setattr__(self, "_mv", mv)
            return mv

    def eigenvalue_multiplicities(self) -> tuple[int, ...]:
        """Total size per eigenvalue slot, in canonical slot order."""
        return tuple(s.size for s in self.slots)

    def is_scalar(self) -> bool:
        """A zero-dimensional class: one eigenvalue, all blocks of size 1."""
        return self.r == 0

    def __str__(self) -> str:
        try:
            return self._text
        except AttributeError:
            text = (str(self.multiplicity_vector()) if self.is_diagonal
                    else "{" + ",".join(str(s) for s in self.slots) + "}")
            object.__setattr__(self, "_text", text)
            return text


def corresponding_diagonal(j: Jnf) -> Partition:
    """Multiplicity vector of the diagonal shape matched to ``j``.

    Pools the conjugates of every slot's block partition; preserves both r and d.
    """
    return disjoint_sum(dual(s) for s in j.slots)


class JnfTuple(_Frozen):
    """An ordered tuple of shapes of one common size, the decision-procedure input."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[Jnf, ...]) -> None:
        entries = tuple(entries)
        object.__setattr__(self, "entries", entries)
        if len(entries) < 2:
            raise ValueError("need at least two entries")
        sizes = {e.n for e in entries}
        if len(sizes) != 1:
            raise ValueError(f"entries disagree on size: {sorted(sizes)}")

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


def _jnf_json(j: Jnf) -> str:
    return '{"eigenvalues":[' + ",".join([_slot_json(s.parts) for s in j.slots]) + "]}"


def jnf_tuple_json(t: JnfTuple) -> str:
    """``t`` as compact JSON text with sorted keys: ``{"entries":[...],"n":...}``."""
    return '{"entries":[' + ",".join([_jnf_json(e) for e in t.entries]) + f'],"n":{t.n}}}'


def jnf_to_dict(j: Jnf) -> dict:
    return json.loads(_jnf_json(j))


def jnf_from_dict(data: dict) -> Jnf:
    return Jnf.from_blocks(require_key(data, "eigenvalues"))


def jnf_tuple_to_dict(t: JnfTuple) -> dict:
    return json.loads(jnf_tuple_json(t))


def jnf_tuple_from_dict(data: dict) -> JnfTuple:
    t = JnfTuple(tuple(jnf_from_dict(e) for e in require_key(data, "entries")))
    if "n" in data and (type(data["n"]) is not int or data["n"] != t.n):
        raise ValueError(f"declared size {data['n']!r} does not match entries of size {t.n}")
    return t

