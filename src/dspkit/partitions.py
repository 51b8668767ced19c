"""Exact arithmetic on integer partitions: normalization, conjugation, disjoint sums."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

#: Hard cap on partition size; keeps n**2 arithmetic trivially safe everywhere.
MAX_SIZE = 10_000


@dataclass(frozen=True, order=True)
class Partition:
    """A non-increasing tuple of positive integers.  The empty partition is allowed.

    ``size``, the sum of the parts, is computed on construction.
    """

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        parts = tuple(int(x) for x in self.parts)
        object.__setattr__(self, "parts", parts)
        prev = None
        total = 0
        for x in parts:
            if x < 1:
                raise ValueError(f"parts must be positive integers: {parts!r}")
            if prev is not None and x > prev:
                raise ValueError(f"parts must be non-increasing: {parts!r}")
            prev = x
            total += x
        if total > MAX_SIZE:
            raise ValueError(f"partition size {total} exceeds the cap {MAX_SIZE}")
        object.__setattr__(self, "size", total)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.parts)) + ")"


def normalize(raw: Iterable[int]) -> Partition:
    """Sort non-increasing and drop zeros.  Negative entries are rejected."""
    cleaned = []
    for x in raw:
        x = int(x)
        if x < 0:
            raise ValueError(f"negative part: {x}")
        if x:
            cleaned.append(x)
    cleaned.sort(reverse=True)
    return Partition(tuple(cleaned))


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
