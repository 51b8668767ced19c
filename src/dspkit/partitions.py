"""Exact arithmetic on integer partitions: normalization, conjugation, disjoint sums."""

from __future__ import annotations

from functools import total_ordering
from typing import Iterable, Iterator

#: Hard cap on partition size; keeps n**2 arithmetic trivially safe everywhere.
MAX_SIZE = 10_000


class _Frozen:
    """Base of the immutable value types: instances are filled in ``__init__``
    with ``object.__setattr__`` and refuse assignment and deletion afterwards."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


@total_ordering
class Partition(_Frozen):
    """A non-increasing tuple of positive ints (no ``bool`` or ``float``).  The
    empty partition is allowed.

    ``size``, the sum of the parts, is computed on construction; equality,
    hashing and ordering see only ``parts``.
    """

    __slots__ = ("parts", "size")

    def __init__(self, parts: tuple[int, ...] = ()) -> None:
        parts = tuple(parts)
        object.__setattr__(self, "parts", parts)
        prev = None
        total = 0
        for x in parts:
            if type(x) is not int or x < 1:
                raise ValueError(f"parts must be positive integers: {parts!r}")
            if prev is not None and x > prev:
                raise ValueError(f"parts must be non-increasing: {parts!r}")
            prev = x
            total += x
        if total > MAX_SIZE:
            raise ValueError(f"partition size {total} exceeds the cap {MAX_SIZE}")
        object.__setattr__(self, "size", total)

    def __repr__(self) -> str:
        return f"Partition(parts={self.parts!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self) -> int:
        return hash((self.parts,))

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.parts < other.parts

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def __str__(self) -> str:
        return format_vectors((self.parts,))


def format_vectors(mvs: Iterable[Iterable[int]]) -> str:
    """The ``(a,b);(c)`` text form of multiplicity vectors, used by every printer."""
    return ";".join(map(_vector_text, mvs))


def _vector_text(mv: Iterable[int]) -> str:
    return "(" + ",".join(map(str, mv)) + ")"


def normalize(raw: Iterable[int]) -> Partition:
    """Sort non-increasing and drop int zeros; ``Partition`` rejects any other
    part that is not a positive int, ``0.0`` and ``False`` included."""
    return Partition(tuple(sorted((x for x in raw if x or type(x) is not int), reverse=True)))


def dual(p: Partition) -> Partition:
    """Conjugate partition: its k-th part counts the parts of ``p`` that are >= k."""
    if not p.parts:
        return Partition()
    out = [0] * p.parts[0]
    for x in p.parts:
        for k in range(x):
            out[k] += 1
    return Partition(tuple(out))


def disjoint_sum(ps: Iterable[Partition]) -> Partition:
    """Multiset union of the parts of all given partitions."""
    merged: list[int] = []
    for p in ps:
        merged.extend(p.parts)
    merged.sort(reverse=True)
    return Partition(tuple(merged))


def parse_parts(text: str) -> list[int]:
    """Parse a parenthesized comma-separated integer list, e.g. ``(4,2,2)``."""
    s = "".join(text.split())
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"expected a parenthesized part list, got {text!r}")
    body = s[1:-1]
    if not body:
        return []
    try:
        return [int(tok) for tok in body.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad integer in {text!r}") from exc


def parse_partition(text: str) -> Partition:
    """Parse the text form; out-of-order parts and zeros are normalized away."""
    return normalize(parse_parts(text))
