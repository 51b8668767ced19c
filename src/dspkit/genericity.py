"""Exact eigenvalue assignments and genericity checking.

Values live in the rational span of a formal basis (1, t_1, ..., t_B): exact
vectors over Q with the t_b treated as independent transcendentals.  In the
multiplicative setting a value x stands for the eigenvalue exp(2*pi*i*x), so
"product equals 1" becomes "weighted sum is an integer with no formal part".

An assignment is generic when no proper sub-selection relation holds: for
every kappa with 1 <= kappa <= n - 1 and every per-entry choice of
sub-multiplicities summing to kappa, the weighted sum is nonzero (additive)
or non-integral (multiplicative).

Relations are decided by exact integer elimination first (see
``nongenericity_witness``): the formal coordinates of a generated assignment
leave a free box of a few points to enumerate, at any n.  Only an input whose
free box is too large, such as a purely rational one, goes to the
meet-in-the-middle search, and only that search is limited to
n <= GENERIC_CHECK_MAX_N; the elimination is limited by the size of its
system (about HG_350).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add, mul
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import ObstructionError, ResourceLimitError, require_key

if TYPE_CHECKING:
    from .jnf import JnfTuple

#: The fallback relation search is a product over per-entry sub-multiplicity
#: vectors; keep its input size small enough that it stays instant.
GENERIC_CHECK_MAX_N = 14


class _Record:
    """An immutable value record: equality, hash and repr over the fields
    annotated in the subclass, which ``__init__`` sets through ``_set``.  It is
    for the records that validate their input and keep hidden coordinates
    (``ExactValue``, ``EigenvalueAssignment``); the others are named tuples.  The
    package imports no ``dataclasses`` (which loads ``inspect``, about 10 ms
    per process), so the records are written out."""

    def _set(self, **fields) -> None:
        self.__dict__.update(fields)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__annotations__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__annotations__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ExactValue(_Record):
    """q_0 + sum q_b * t_b with rational coefficients and formal basis t_b.

    A value record with no arithmetic: sums of values are taken on the integer
    coordinates of ``EigenvalueAssignment``.  Each basis index appears once.
    """

    const: Fraction
    formal: tuple[tuple[int, Fraction], ...]

    def __init__(self, const=Fraction(0), formal=()) -> None:
        terms = sorted((int(i), Fraction(cf)) for i, cf in formal)
        for (i, _), (j, _) in zip(terms, terms[1:]):
            if i == j:
                raise ValueError(f"basis index t{i} is given twice")
        self._set(const=Fraction(const), formal=tuple((i, cf) for i, cf in terms if cf))

    @classmethod
    def rational(cls, q) -> "ExactValue":
        return cls(Fraction(q), ())

    @classmethod
    def basis(cls, index: int) -> "ExactValue":
        return cls(Fraction(0), ((index, Fraction(1)),))

    def to_coeff_dict(self) -> dict[str, str]:
        out = {}
        if self.const:
            out["1"] = str(self.const)
        for i, cf in self.formal:
            out[f"t{i}"] = str(cf)
        return out

    @classmethod
    def from_coeff_dict(cls, data: dict[str, str | int]) -> "ExactValue":
        if not isinstance(data, dict):
            raise ValueError(f"coefficients must be a JSON object, not {data!r}")
        const = Fraction(0)
        formal = []
        for key, val in data.items():
            if type(val) not in (int, str):
                raise ValueError(f"coefficient {val!r} is not a string such as \"1/10\" or an int")
            # only the form to_coeff_dict writes: no sign, space, "_" or leading zero
            if key != "1" and not (key[1:].isascii() and key[1:].isdigit()
                                   and key == f"t{int(key[1:])}"):
                raise ValueError(f"bad coefficient key {key!r}")
            try:
                q = Fraction(val)
            except ZeroDivisionError:
                raise ValueError(f"coefficient {val!r} has a zero denominator") from None
            if key == "1":
                const = q
            else:
                formal.append((int(key[1:]), q))
        return cls(const, tuple(formal))


class EigenvalueAssignment(_Record):
    """Per entry: (value, multiplicity) pairs matching the tuple's eigenvalue slots.

    Outside its fields (so equality, hash and repr ignore it) it keeps the
    integer view every sum in this module runs on: ``_coords`` holds, entry by
    entry, each value q_0 + sum q_b * t_b as ``_denom`` * (q_0, q_b1, ...) over
    ``_basis``, the formal indices that occur, ascending, with its multiplicity.
    """

    mode: str  # "additive" | "multiplicative"
    entries: tuple[tuple[tuple[ExactValue, int], ...], ...]

    def __init__(self, mode: str, entries) -> None:
        if mode not in ("additive", "multiplicative"):
            raise ValueError(f"unknown mode {mode!r}")
        entries = tuple(tuple(entry) for entry in entries)
        self._set(mode=mode, entries=entries)
        if len(entries) < 2:
            raise ValueError("need at least two entries")
        sizes = set()
        for entry in entries:
            if not all(type(m) is int and m >= 1 for _, m in entry):
                raise ValueError("multiplicities must be positive integers")
            vals = [v for v, _ in entry]
            if len(vals) != len(set(vals)):
                raise ValueError("eigenvalues within one entry must be distinct")
            sizes.add(sum(m for _, m in entry))
        if len(sizes) != 1:
            raise ValueError(f"entries disagree on total size: {sorted(sizes)}")
        values = [v for entry in entries for v, _ in entry]
        basis = tuple(sorted({b for v in values for b, _ in v.formal}))
        position = {b: k for k, b in enumerate(basis, 1)}
        denom = math.lcm(*(q.denominator for v in values
                           for q in (v.const, *(cf for _, cf in v.formal))))

        def coords(v: ExactValue) -> tuple[int, ...]:
            row = [0] * (len(basis) + 1)
            row[0] = v.const.numerator * (denom // v.const.denominator)
            for b, cf in v.formal:
                row[position[b]] = cf.numerator * (denom // cf.denominator)
            return tuple(row)

        self._set(_denom=denom, _basis=basis,
                  _coords=tuple(tuple((coords(v), m) for v, m in entry) for entry in entries))

    @property
    def n(self) -> int:
        return sum(m for _, m in self.entries[0])

    def multiplicities(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(m for _, m in entry) for entry in self.entries)


class NongenericityWitness(NamedTuple):
    kappa: int
    sub_multiplicities: tuple[tuple[int, ...], ...]
    total: ExactValue


def _selection_sum(a: EigenvalueAssignment, choice) -> list[int]:
    """The integer coordinates (see ``EigenvalueAssignment``) of sum c * v over
    the slots of ``a``, with one weight vector c per entry in ``choice``."""
    total = [0] * (len(a._basis) + 1)
    for entry, vec in zip(a._coords, choice):
        for (coords, _), c in zip(entry, vec):
            total = [x + c * y for x, y in zip(total, coords)]
    return total


def _selection_total(a: EigenvalueAssignment, choice) -> ExactValue:
    """The sum of ``_selection_sum`` as a value, for output."""
    denom, total = a._denom, _selection_sum(a, choice)
    return ExactValue(Fraction(total[0], denom),
                      tuple(zip(a._basis, (Fraction(x, denom) for x in total[1:]))))


def trace_condition(a: EigenvalueAssignment) -> bool:
    """Sum of all values with multiplicity is 0 (additive) or integral
    (multiplicative, i.e. the product of the exp(2*pi*i*x) is 1)."""
    total = _selection_sum(a, a.multiplicities())
    if a.mode == "multiplicative":
        total[0] %= a._denom
    return not any(total)


def _weighted_subvectors(
    entry: Sequence[tuple[tuple[int, ...], int]], kappa: int
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Sub-multiplicity vectors of one entry of (coordinates, multiplicity)
    pairs with sum kappa, lexicographically ascending, each with its weighted
    coordinate sum."""
    mults = [m for _, m in entry]
    values = [v for v, _ in entry]
    suffix = [0] * (len(mults) + 1)
    for i in range(len(mults) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + mults[i]
    out: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    def rec(i: int, remaining: int, vec: list[int], acc: tuple[int, ...]) -> None:
        if remaining > suffix[i]:
            return
        if i == len(mults):
            out.append((tuple(vec), acc))
            return
        for c in range(0, min(mults[i], remaining) + 1):
            vec.append(c)
            rec(i + 1, remaining - c, vec,
                tuple(x + c * y for x, y in zip(acc, values[i])) if c else acc)
            vec.pop()

    rec(0, kappa, [], (0,) * len(values[0]))
    return out


def _prefix_sums(factors, dim: int) -> list[tuple[tuple, tuple[int, ...]]]:
    """(vectors, coordinate sum) of every combination of ``factors``, in
    ``itertools.product`` order."""
    out = [((), (0,) * dim)]
    for factor in factors:
        out = [(vecs + (v,), tuple(map(add, s, p))) for vecs, s in out for v, p in factor]
    return out


def _relation_rows(mode: str, entries) -> list[list[int]]:
    """The homogeneous integer system of a relation: one unknown c per slot
    (entries in order, see ``EigenvalueAssignment``), one row per formal
    coordinate, one for the constant coordinate in additive mode, and E - 1
    rows that give every entry the sum of the first."""
    slots = [coords for entry in entries for coords, _ in entry]
    rows = [[coords[k] for coords in slots]
            for k in range(0 if mode == "additive" else 1, len(slots[0]))]
    return rows + [[(i == 0) - (i == j) for i, entry in enumerate(entries) for _ in entry]
                   for j in range(1, len(entries))]


def _reduce(rows: list[list[int]], order: Sequence[int]) -> list[tuple[int, list[int]]]:
    """Reduced echelon form of ``rows`` by integer-only steps, with pivots
    taken in column ``order``: (column, row) pairs in which each row is
    divided by its gcd and is zero in every other pivot column.  Row
    operations p * r - a * s with p != 0 keep the solution set over Q."""
    pending = [row for row in rows if any(row)]
    pivots: list[tuple[int, list[int]]] = []
    for col in order:
        row = min((r for r in pending if r[col]), key=lambda r: len(r) - r.count(0),
                  default=None)
        if row is None:
            continue
        pending.remove(row)
        g = math.gcd(*row)
        row = [x // g for x in row]
        p = row[col]

        def eliminate(other: list[int]) -> list[int]:
            a = other[col]
            if not a:
                return other
            out = [p * x - a * y for x, y in zip(other, row)]
            h = math.gcd(*out)
            return [x // h for x in out] if h > 1 else out

        pending = [r for r in map(eliminate, pending) if any(r)]
        pivots = [(c, eliminate(r)) for c, r in pivots]
        pivots.append((col, row))
    return pivots


#: Largest free box (the product of m + 1 over the free slots of the reduced
#: system) that ``nongenericity_witness`` enumerates; a larger one goes to the
#: relation search.  Enumeration costs 2-4 us per point, about 4 ms here; on
#: random rational assignments with n <= 14 and larger boxes the search is
#: faster (median 1.3 ms against 6 ms at 1024-4096 points).
_MAX_FREE_BOX = 1024

#: Largest relation system (rows times eigenvalue slots) that
#: ``nongenericity_witness`` builds.  It is held dense, and reducing it takes
#: about 1.5 s near this size (the candidate of HG_350: 704 x 702 entries).
_MAX_SYSTEM_ENTRIES = 500_000


def nongenericity_witness(a: EigenvalueAssignment) -> NongenericityWitness | None:
    """Smallest (kappa, lexicographic sub-multiplicity choice) violating relation,
    or None when no sub-selection relation holds.  The trace condition is not
    checked here: an assignment is generic when ``trace_condition`` holds and
    this returns None.

    A relation is an integer vector c with 0 <= c <= m slot by slot that
    solves the homogeneous system of ``_relation_rows`` and has kappa, the sum
    of each entry, in 1..n-1; in the multiplicative setting its constant
    coordinate must also vanish modulo D.  The system is reduced by exact
    integer elimination with pivots on the widest slots, so the free slots
    have the smallest boxes.  Every point of the free box then fixes each
    pivot slot, which must be integral and inside its box, and the smallest
    (kappa, choice) of those points is the answer.  When the free box holds
    more than ``_MAX_FREE_BOX`` points, ``_search_witness`` finds the same
    relation instead; only that search is limited to n <= GENERIC_CHECK_MAX_N.
    A system of more than ``_MAX_SYSTEM_ENTRIES`` entries raises
    ``ResourceLimitError`` before it is built.
    """
    n, denom, entries = a.n, a._denom, a._coords
    bounds = [m for entry in entries for _, m in entry]
    height = len(a._basis) + (a.mode == "additive") + len(entries) - 1
    if height * len(bounds) > _MAX_SYSTEM_ENTRIES:
        raise ResourceLimitError(f"genericity check limited to relation systems of "
                                 f"{_MAX_SYSTEM_ENTRIES} entries, not {height} x {len(bounds)}")
    rows = _relation_rows(a.mode, entries)
    # widest slots first; among equal widths the sparsest column, for less fill-in
    pivots = _reduce(rows, sorted(range(len(bounds)),
                                  key=lambda k: (-bounds[k], sum(1 for r in rows if r[k]))))
    free = sorted(set(range(len(bounds))).difference(c for c, _ in pivots))
    if math.prod(bounds[f] + 1 for f in free) > _MAX_FREE_BOX:
        return _search_witness(a)
    solved = [(c, row[c], bounds[c], [row[f] for f in free]) for c, row in pivots]
    consts = [coords[0] for entry in entries for coords, _ in entry]
    mult_mode = a.mode == "multiplicative"
    first = len(entries[0])
    best = None
    x = [0] * len(bounds)
    for point in itertools.product(*(range(bounds[f] + 1) for f in free)):
        for col, p, bound, coefs in solved:
            q, r = divmod(-sum(map(mul, coefs, point)), p)
            if r or q < 0 or q > bound:
                break
            x[col] = q
        else:
            for f, v in zip(free, point):
                x[f] = v
            kappa = sum(x[:first])
            if not 0 < kappa < n or mult_mode and sum(map(mul, consts, x)) % denom:
                continue
            cut = iter(x)
            found = (kappa, tuple(tuple(next(cut) for _ in entry) for entry in entries))
            if best is None or found < best:
                best = found
    if best is None:
        return None
    return NongenericityWitness(*best, _selection_total(a, best[1]))


def _search_witness(a: EigenvalueAssignment) -> NongenericityWitness | None:
    """``nongenericity_witness`` by search, for free boxes too large to enumerate.

    The search space per kappa is the product over entries of that entry's
    sub-multiplicity vectors with sum kappa; it is scanned meet-in-the-middle
    on integer coordinates (see ``EigenvalueAssignment``).  A right-hand table maps
    each sum to its first combination; the left-hand entries enter negated, so
    a relation is a left-hand sum that equals a right-hand key.  In the
    multiplicative setting only the constant coordinate modulo D matters.
    Under the trace condition the complement of a relation is one too, so
    kappa <= n/2 is enough; otherwise the scan runs to n - 1.
    """
    n = a.n
    if n > GENERIC_CHECK_MAX_N:
        raise ResourceLimitError(f"genericity check limited to n <= {GENERIC_CHECK_MAX_N}")
    denom, entries = a._denom, a._coords
    dim = len(a._basis) + 1
    half = (len(entries) + 1) // 2
    left_entries = [[(tuple(-x for x in v), m) for v, m in entry] for entry in entries[:half]]
    right_entries = entries[half:]
    mult_mode = a.mode == "multiplicative"
    for kappa in range(1, n // 2 + 1 if trace_condition(a) else n):
        right = [_weighted_subvectors(entry, kappa) for entry in right_entries]
        table: dict = {}
        for vecs, s in _prefix_sums(right[:-1], dim):
            for v, p in right[-1]:
                total = tuple(map(add, s, p))
                key = (total[0] % denom,) + total[1:] if mult_mode else total
                if key not in table:
                    table[key] = vecs + (v,)
        left = [_weighted_subvectors(entry, kappa) for entry in left_entries]
        for vecs, s in _prefix_sums(left[:-1], dim):
            for v, p in left[-1]:
                total = tuple(map(add, s, p))
                hit = table.get((total[0] % denom,) + total[1:] if mult_mode else total)
                if hit is not None:
                    choice = vecs + (v,) + hit
                    return NongenericityWitness(kappa, choice, _selection_total(a, choice))
    return None


def gcd_obstruction(t: JnfTuple) -> int | None:
    """gcd of all eigenvalue multiplicities when it is >= 2, else None.

    A gcd g >= 2 forces the kappa = n/g sub-selection relation in the additive
    setting, so no additive generic assignment exists.
    """
    g = 0
    for e in t.entries:
        for m in e.eigenvalue_multiplicities():
            g = math.gcd(g, m)
    return g if g >= 2 else None


def candidate_assignment(
    t: JnfTuple,
    mode: str = "additive",
    *,
    product_exponent: int = 1,
) -> EigenvalueAssignment:
    """The canonical trace-balanced assignment for ``t``, without validation.

    Every eigenvalue slot except the last slot of the last entry gets a fresh
    formal basis element t_b; the last slot, of multiplicity m_L, is solved
    from the trace condition as T/m_L - sum_b (m_b/m_L) * t_b, where T is the
    weighted sum.  In multiplicative mode T is ``product_exponent`` (an
    integer, so the product is 1); when the multiplicities share a gcd g, the
    product over g-fold smaller multiplicities is then a primitive g-th root
    of unity iff gcd(product_exponent, g) == 1.
    """
    mult_lists = [e.eigenvalue_multiplicities() for e in t.entries]
    mults = [m for ms in mult_lists for m in ms]
    last = mults[-1]
    target = 0 if mode == "additive" else product_exponent
    balance = ExactValue(Fraction(target, last),
                         tuple((b, Fraction(-m, last)) for b, m in enumerate(mults[:-1], 1)))
    values = iter([*map(ExactValue.basis, range(1, len(mults))), balance])
    return EigenvalueAssignment(mode, tuple(tuple((next(values), m) for m in ms)
                                            for ms in mult_lists))


def generate_generic(
    t: JnfTuple,
    mode: str = "additive",
    *,
    product_exponent: int = 1,
) -> EigenvalueAssignment:
    """``candidate_assignment(t, mode, product_exponent=...)``, certified
    generic in closed form, or ``ObstructionError`` carrying the smallest
    relation (the one ``nongenericity_witness`` reports).

    Let m be the multiplicities, g their gcd, and T the weighted total of the
    values: 0 (additive) or ``product_exponent`` (multiplicative).  In the
    candidate every slot but the last, of multiplicity m_L, holds a fresh t_b,
    so a selection c has formal part sum_b (c_b - c_L * m_b / m_L) * t_b.  It
    vanishes only when c = lam * m on every slot; c is integral with
    1 <= kappa <= n - 1 exactly when lam = a/g with 0 < a < g.  The constant
    part of such a selection is lam * T = a*T/g, in every trace-balanced
    assignment.  A relation needs a*T/g to be zero (additive) or integral
    (multiplicative), i.e. g/h divides a with h = gcd(g, T); additive T = 0
    gives h = g.  So the candidate is generic iff h = 1, and otherwise the
    smallest relation has a = g/h: kappa = n/h and choice m/h.
    """
    a = candidate_assignment(t, mode, product_exponent=product_exponent)
    if not trace_condition(a):
        raise RuntimeError(f"generated assignment for {t} breaks the trace condition")
    g = gcd_obstruction(t) or 1
    target = 0 if mode == "additive" else product_exponent
    h = math.gcd(g, target)
    if h > 1:
        choice = tuple(tuple(m // h for m in entry) for entry in a.multiplicities())
        raise ObstructionError(
            f"multiplicity gcd {g} and trace target {target} share the factor {h}, "
            f"which rules out {mode} generic eigenvalues",
            witness=NongenericityWitness(a.n // h, choice, _selection_total(a, choice)))
    return a


def assignment_to_dict(a: EigenvalueAssignment) -> dict:
    return {
        "mode": a.mode,
        "entries": [
            [{"coeffs": v.to_coeff_dict(), "mult": m} for v, m in entry]
            for entry in a.entries
        ],
    }


def assignment_from_dict(data: dict) -> EigenvalueAssignment:
    entries = tuple(
        tuple((ExactValue.from_coeff_dict(require_key(item, "coeffs")),
               require_key(item, "mult")) for item in entry)
        for entry in require_key(data, "entries")
    )
    return EigenvalueAssignment(require_key(data, "mode"), entries)


def witness_to_dict(w: NongenericityWitness) -> dict:
    return {
        "kappa": w.kappa,
        "sub_multiplicities": [list(v) for v in w.sub_multiplicities],
        "total": w.total.to_coeff_dict(),
    }
