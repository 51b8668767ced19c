"""Integer partitions: validation (``sorted_parts``), conjugation, sums, r and d (``_ranks``)."""

from __future__ import annotations

from functools import total_ordering
from operator import mul
from typing import Iterable, Iterator

#: Hard cap on partition size; keeps n**2 arithmetic trivially safe everywhere.
MAX_SIZE = 10_000
#: The odd numbers 2i+1 that weigh block i in a slot's sum of squared conjugate parts.
_ODD = range(1, 2 * MAX_SIZE, 2)
#: Bound on each of the cached JSON and vector texts of entries: perfbench's `batch`
#: prints 1,454 (seed 5) and 1,484 (seed 7919) distinct entries of about 7,500.  Its
#: seed-7919 lines took 43.4-44.1 ms in process with 2048 or 4096, 43.6-45.3 with 1024,
#: 44.9-46.0 with 512 and 46.2-47.3 with 256; seed 5 took 46.9-48.0 against 44.3-44.8
#: with no vector-text cache (5 fresh processes each, Python 3.11, 2 cores).
_TEXT_CACHE_SIZE = 2048


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
        object.__setattr__(self, "size", _checked_size(parts))

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


def _checked_size(parts: tuple) -> int:
    """The sum of ``parts``; ``ValueError`` unless they are positive ints, sorted and capped."""
    prev = None
    total = 0
    for x in parts:
        if type(x) is not int or x < 1:
            raise ValueError(f"parts must be positive integers: {parts!r}")
        if prev is not None and x > prev:
            raise ValueError(f"parts must be non-increasing: {parts!r}")
        prev = x
        total += x
    return _capped(total)


def _capped(size: int) -> int:
    if size > MAX_SIZE:
        raise ValueError(f"partition size {size} exceeds the cap {MAX_SIZE}")
    return size


def sorted_parts(raw: Iterable[int]) -> tuple[int, ...]:
    """``raw`` sorted non-increasing, int zeros dropped, checked as ``Partition`` checks parts."""
    parts = tuple(sorted((x for x in raw if x or type(x) is not int), reverse=True))
    _checked_size(parts)
    return parts


def normalize(raw: Iterable[int]) -> Partition:
    """The ``Partition`` of ``sorted_parts(raw)``, whose check it does not repeat."""
    p = object.__new__(Partition)
    object.__setattr__(p, "parts", sorted_parts(raw))
    object.__setattr__(p, "size", sum(p.parts))
    return p


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


def _ranks(vecs: tuple, n: int) -> tuple[list[int], int]:
    """Per-entry rank r and the sum of the class dimensions d of entries of size ``n``
    given as vectors.  r is n minus the most blocks of one slot, and d is n^2 minus
    the sum over slots of the squared conjugate parts: m^2 for an all-ones slot of
    multiplicity m, sum((2i+1) * p_i) with i from 0 for blocks p."""
    rs = []
    squares = 0
    for vec in vecs:
        if type(vec[0]) is int:
            rs.append(n - vec[0])
            squares += sum(map(mul, vec, vec))
            continue
        most = 0
        for s in vec:
            if type(s) is int:
                squares += s * s
            else:
                squares += sum(map(mul, s, _ODD))
                s = len(s)
            if s > most:
                most = s
        rs.append(n - most)
    return rs, n * n * len(rs) - squares
