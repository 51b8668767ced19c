"""Acceptance suite: one test per criterion, each printing a pass line.

Every tolerance is exact (integer or rational arithmetic throughout).  The
classical table of even-size rigid quadruples (`Xi_n`, `Theta_n`, `Psi6`)
misses a family that the enumerator finds at every even n >= 6, catalogued
as `Lambda_n`:

    ((n-1,1), (n-1,1), (2,...,2), (2,...,2,1,1))

It is rigid and solvable, on three independent pieces of evidence: its
squares sum to 2n^2+2, so its defect is 2 by plain arithmetic; its star-quiver
dimension vector reduces to a simple root under Kac's reflections (a positive
real root, hence solvable for generic eigenvalues); and it satisfies both
necessary conditions, which criterion 8 shows equivalent to solvability for
such tuples.  Criterion 5b therefore expects three families at n=12.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest

from dspkit import (
    Jnf,
    JnfTuple,
    ObstructionError,
    Reason,
    SeriesId,
    candidate_assignment,
    check_conditions,
    corresponding_diagonal,
    decide,
    defect,
    enumerate_rigid,
    gcd_obstruction,
    generate_generic,
    jnf_tuple_from_dict,
    nongenericity_witness,
    series,
    trace_condition,
    verify_chain,
)
from dspkit.catalog import FAMILIES, all_series_ids, parse_series_id, series_mvs
from dspkit.reduction import solvable_pmv
from helpers import (
    all_jnfs,
    case_omega,
    centralizer_dim_oracle,
    diagonalized,
    is_generic,
    partitions_of,
    random_jnf_tuple,
    random_partition,
    rational_assignment,
    reduces_to_simple_root,
)


def report(num: str, text: str) -> None:
    print(f"[criterion {num}] PASS - {text}")


# ---------------------------------------------------------------------------
# criterion 1: chain reproduction
#
# The expected chains are re-encoded here, independently of the library's
# successor table, as (family, param) -> next symbolic step; "ones:<count>"
# marks an unnamed terminal of size-1 entries.

def _next_step(name: str, p: int):
    table = {
        "W": lambda: None if p == 0 else ("B", p),
        "B": lambda: ("W", p - 1),
        "C": lambda: ("B", p),
        "D": lambda: None if p == 0 else ("E", p),
        "E": lambda: ("G", p - 1),
        "F": lambda: ("E", p),
        "Phi": lambda: ("E", p),
        "G": lambda: ("D", p),
        "H": lambda: None if p == 0 else ("I", p),
        "I": lambda: ("P", p),
        "J": lambda: ("I", p),
        "K": lambda: ("I", p),
        "L": lambda: ("I", p),
        "P": lambda: ("N", p - 1),
        "N": lambda: ("V", p),
        "V": lambda: ("H", p),
        "R": lambda: ("S", p - 1),
        "S": lambda: None if p == 0 else ("S", p - 1),
        "T": lambda: "ones:5" if p == 1 else ("S", p - 1),
        "HG": lambda: None if p == 1 else ("HG", p - 1),
        "OF": lambda: ("HG", 2) if p == 3 else ("EF", p - 1),
        "EF": lambda: ("HG", 1) if p == 2 else ("OF", p - 1),
        "FF": lambda: {5: ("HG", 3), 6: ("Y1", 4), 7: ("Z2", 5), 8: ("Gamma1", 6)}[p],
        "OG": lambda: ("HG", 2) if p == 1 else ("OG", p - 1),
        "Star": lambda: f"ones:{p + 1}",
        "Xi": lambda: ("Pi", p - 1),
        "Theta": lambda: ("HG", 2) if p == 4 else ("Theta", p - 2),
        "Psi6": lambda: ("Theta", 4),
        "Pi": lambda: ("S", 0) if p == 3 else ("Pi", p - 2),
        "Delta": lambda: ("S", 0) if p == 3 else ("Delta", p - 2),
        "Gamma1": lambda: ("X1", 5) if p == 6 else ("Gamma1", p - 2),
        "Gamma2": lambda: ("HG", 3) if p == 4 else ("Gamma2", p - 2),
        "Gamma3": lambda: ("HG", 2) if p == 4 else ("Gamma3", p - 2),
        "Gamma4": lambda: ("HG", 3) if p == 4 else ("Gamma4", p - 2),
        "X1": lambda: ("Gamma2", 4) if p == 5 else ("X1", p - 2),
        "X2": lambda: ("HG", 2) if p == 3 else ("X2", p - 2),
        "Y1": lambda: ("HG", 3) if p == 4 else ("Z2", p - 1),
        "Y2": lambda: ("Z3", p - 1),
        "Y3": lambda: ("HG", 3) if p == 4 else ("Y6", p - 2),
        "Y4": lambda: ("Z2", 5) if p == 6 else ("Y7", p - 2),
        "Y5": lambda: ("HG", 1) if p == 2 else ("Y5", p - 2),
        "Y6": lambda: ("HG", 3) if p == 4 else ("Y3", p - 2),
        "Y7": lambda: ("X1", 5) if p == 6 else ("Y4", p - 2),
        "Z1": lambda: ("Y5", p - 1),
        "Z2": lambda: ("Gamma4", 4) if p == 5 else ("Z2", p - 2),
        "Z3": lambda: ("HG", 2) if p == 3 else ("Z3", p - 2),
        "Z4": lambda: ("HG", 2) if p == 3 else ("Z4", p - 2),
        "Lambda": lambda: ("Theta", 4) if p == 6 else ("Lambda", p - 2),
    }
    return table[name]()


def _expected_labels(name: str, param: int) -> list[str]:
    labels = []
    cur = (name, param)
    while True:
        labels.append(str(SeriesId(*cur)))
        if FAMILIES[cur[0]].n_of(cur[1]) == 1:
            return labels
        nxt = _next_step(*cur)
        if nxt is None:
            return labels
        if isinstance(nxt, str):
            count = int(nxt.split(":")[1])
            labels.append(";".join(["(1)"] * count))
            return labels
        cur = nxt


def _first_instances(name: str, how_many: int = 9) -> list[int]:
    # nine instances cover parameters 1..8 even for families that start at 0
    fam = FAMILIES[name]
    return [p for p in fam.params[:how_many] if fam.n_of(p) <= 200]


def test_criterion_01_chain_reproduction():
    start = time.perf_counter()
    checked = 0
    for name in FAMILIES:
        for param in _first_instances(name):
            steps = verify_chain(SeriesId(name, param))
            assert [s.label for s in steps] == _expected_labels(name, param)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("01", f"{checked} chains reproduced verbatim in {elapsed:.2f}s")


def test_criterion_02_catalog_rigidity_to_60():
    checked = 0
    for sid in all_series_ids(60):
        t = series(sid)
        assert defect(t) == 2, str(sid)
        assert decide(t).solvable, str(sid)
        checked += 1
    report("02", f"{checked} catalog instances with n <= 60 rigid and solvable")


def _random_tuple(rng, n, entries):
    """``random_jnf_tuple(rng, n, entries)`` from the same draws in the same order,
    built from its block lists by ``jnf_tuple_from_dict`` rather than through ``Jnf``."""
    return jnf_tuple_from_dict({"entries": [
        {"eigenvalues": [random_partition(rng, s) for s in random_partition(rng, n)]}
        for _ in range(entries)]})


def _criterion_03_draws(build):
    rng = random.Random(20240809)
    while True:
        n = rng.randint(2, 15)
        yield build(rng, n, rng.randint(2, 5))


def test_criterion_03_draws_match_the_shape_oracle():
    pairs = zip(_criterion_03_draws(_random_tuple), _criterion_03_draws(random_jnf_tuple))
    for t, oracle in itertools.islice(pairs, 1000):
        assert (t, t.n, t.is_diagonal) == (oracle, oracle.n, oracle.is_diagonal)


def test_criterion_03_defect_invariance_random():
    draws = _criterion_03_draws(_random_tuple)
    checked = 0
    while checked < 10_000:
        trace = decide(next(draws))
        if len(trace.steps) < 2:
            continue
        values = {2 * s.n * s.n - sum(e.d for e in s.state.entries) for s in trace.steps}
        assert len(values) == 1
        checked += 1
    report("03", "defect constant along 10000 traces with at least one reduction step")


def _classify(n: int, entries: int) -> set[tuple]:
    """Canonical vectors of the u=2 rigid tuples (no all-ones or scalar entry)."""
    return set(enumerate_rigid(n, entries, u=2, no_all_ones=True, no_scalar=True))


def _expected_set(names: list[str]) -> set[tuple]:
    return {tuple(mv.parts for mv in series_mvs(parse_series_id(name))) for name in names}


def test_criterion_04_triple_classification_n22_n23():
    start = time.perf_counter()
    even = _classify(22, 3)
    expected_even = _expected_set(
        ["Gamma1_22", "Gamma2_22", "Gamma3_22", "Gamma4_22",
         "Y1_22", "Y2_22", "Y3_22", "Y4_22", "Y5_22", "Y6_22", "Y7_22"])
    assert even == expected_even
    odd = _classify(23, 3)
    expected_odd = _expected_set(
        ["X1_23", "X2_23", "OG_11", "Z1_23", "Z2_23", "Z3_23", "Z4_23"])
    assert odd == expected_odd
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report("04", f"triple classification exact at n=22 (11 families) and "
                 f"n=23 (7 families) in {elapsed:.2f}s")


def test_criterion_05a_quadruple_classification():
    odd = _classify(11, 4)
    assert odd == _expected_set(["Pi_11", "Delta_11"])
    small = _classify(6, 4)
    assert _expected_set(["Psi6"]) <= small
    assert _expected_set(["Xi_6", "Theta_6"]) <= small
    report("05a", "quadruples exact at n=11; n=6 contains Psi6, Xi_6, Theta_6")


def _plain_defect(pmv) -> int:
    n = sum(pmv[0])
    return 2 * n * n - sum(n * n - sum(x * x for x in mv) for mv in pmv)


def test_criterion_05b_quadruple_classification_even_exact():
    """Exact quadruple classification at n=12: Xi_12, Theta_12 and Lambda_12 =
    ((n-1,1),(n-1,1),(2,...,2),(2,...,2,1,1)), which the classical table
    misses.

    That the extra tuple belongs is checked without dspkit: its defect is 2
    by plain arithmetic, and its star-quiver dimension vector reduces to a
    simple root, so it is a real root and solvable for generic eigenvalues
    (Crawley-Boevey; Kac).  Criterion 8 shows the same through the necessary
    conditions.  A defect-2 quadruple that fails the beta condition must not
    reduce, so the oracle can say no.
    """
    n, h = 12, 6
    extra = ((n - 1, 1), (n - 1, 1), (2,) * h, (2,) * (h - 1) + (1, 1))
    assert _plain_defect(extra) == 2
    assert reduces_to_simple_root(extra)
    unsolvable = ((3, 1), (3, 1), (3, 1), (1, 1, 1, 1))
    assert _plain_defect(unsolvable) == 2
    assert not reduces_to_simple_root(unsolvable)
    assert _expected_set(["Lambda_12"]) == {extra}
    assert _classify(n, 4) == _expected_set(["Xi_12", "Theta_12"]) | {extra}
    report("05b", "quadruples exact at n=12: Xi_12, Theta_12 and "
                  "Lambda_12 = ((11,1),(11,1),(2^6),(2^5,1,1)), missing from the classical table")


def test_criterion_06_no_rigid_beyond_quadruples():
    for entries in (5, 6):
        for n in range(2, 9):
            assert _classify(n, entries) == set()
    n = 8
    h = n // 2
    first = JnfTuple.from_pmv([(2,) * h, (h + 1, h - 1), (h + 1, h - 1),
                               (n - 1, 1), (n - 1, 1)])
    second = JnfTuple.from_pmv([(2,) * h, (h, h), (h + 2, h - 2),
                                (n - 1, 1), (n - 1, 1)])
    assert sum(e.d for e in first.entries) == 2 * n * n + 2 * n - 8
    assert sum(e.d for e in second.entries) == 2 * n * n + 2 * n - 12
    report("06", "no rigid tuples with 5 or 6 entries (n <= 8); "
                 "near-miss dimension sums match at n=8")


def test_criterion_07_case_omega_dimension_sum():
    for n in range(4, 21, 2):
        t = case_omega(n)
        assert sum(e.d for e in t.entries) == 2 * n * n - 4
    report("07", "exceptional quadruple has dimension sum 2n^2-4 for even n in 4..20")


def test_criterion_08_u2_equivalence():
    start = time.perf_counter()
    total = 0
    for n in range(2, 15):
        pool = [p for p in partitions_of(n) if len(p) > 1]
        firsts = [p for p in partitions_of(n, 2) if len(p) > 1]
        squares = [sum(x * x for x in p) for p in pool]
        ranks = [n - p[0] for p in pool]
        indexes = range(len(pool))
        for first in firsts:
            s0 = sum(x * x for x in first)
            r0 = n - first[0]
            for rem in (1, 2, 3):
                bound = (rem - 1) * n * n + 2
                for combo in itertools.combinations_with_replacement(indexes, rem):
                    ssum = s0
                    rsum = r0
                    rmax = r0
                    for i in combo:
                        ssum += squares[i]
                        ri = ranks[i]
                        rsum += ri
                        if ri > rmax:
                            rmax = ri
                    want = ssum <= bound and rsum - rmax >= n
                    got = solvable_pmv((first, *[pool[i] for i in combo]))
                    assert want == got, (n, first, [pool[i] for i in combo])
                    total += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 180.0
    report("08", f"solvable <=> (alpha and beta) over {total} tuples with "
                 f"first-vector parts <= 2 in {elapsed:.1f}s")


def test_criterion_09_bounded_multiplicity_three_counterexample():
    for m in (1, 2):
        n = 6 * m + 3
        first = (3,) * m + (2,) + (1,) * (3 * m + 1)
        big = (3 * m + 1, 3 * m + 1, 1)
        t = JnfTuple.from_pmv([first, big, big])
        assert defect(t) == 2
        rep = check_conditions(t)
        assert rep.alpha and rep.beta and not rep.omega
        trace = decide(t)
        assert not trace.verdict.solvable
        assert trace.verdict.reason is Reason.BETA_FAILS
        assert trace.verdict.at_step == 1
        assert trace.steps[1].n == n - 2
    report("09", "first-vector-parts-3 counterexample fails beta exactly at "
                 "the first reduced size for m in {1,2}")


def test_criterion_10_correspondence_consistency():
    for n in range(1, 7):
        jnfs = all_jnfs(n)
        for j in jnfs:
            diag = Jnf.diagonal(corresponding_diagonal(j))
            assert diag.r == j.r and diag.d == j.d
        for count in (2, 3):
            for combo in itertools.combinations_with_replacement(jnfs, count):
                t = JnfTuple(combo)
                assert decide(t).solvable == decide(diagonalized(t)).solvable
    rng = random.Random(1234)
    for _ in range(10_000):
        t = random_jnf_tuple(rng, rng.randint(1, 10), rng.randint(2, 3))
        for e in t.entries:
            diag = Jnf.diagonal(corresponding_diagonal(e))
            assert diag.r == e.r and diag.d == e.d
        assert decide(t).solvable == decide(diagonalized(t)).solvable
    report("10", "rank and dimension preserved and verdicts agree under the "
                 "diagonal correspondence (exhaustive n<=6, 10000 random n<=10)")


def test_criterion_11_centralizer_oracle():
    checked = 0
    for n in range(1, 6):
        for j in all_jnfs(n):
            assert j.d == n * n - centralizer_dim_oracle(j)
            checked += 1
    report("11", f"closed-form dimension equals the explicit commutator-kernel "
                 f"oracle for all {checked} shapes of size <= 5")


def test_criterion_12_genericity():
    # gcd-obstructed shapes: every trace-balanced additive assignment fails
    rng = random.Random(77)
    obstructed = [
        JnfTuple.from_pmv([(2, 2)] * 3),
        JnfTuple.from_pmv([(2, 2, 2)] * 3),
        JnfTuple.from_pmv([(3, 3)] * 3),
        JnfTuple.from_pmv([(2, 2, 2, 2), (4, 4), (4, 4)]),
        JnfTuple((Jnf.diagonal((2, 2, 2)), Jnf.diagonal((2, 2, 2)),
                  Jnf.from_blocks([[3, 2, 1]]))),
    ]
    for t in obstructed:
        g = gcd_obstruction(t)
        assert g is not None and g >= 2
        mults = [e.eigenvalue_multiplicities() for e in t.entries]
        for _ in range(100):
            a = rational_assignment(rng, mults)
            assert trace_condition(a)
            assert nongenericity_witness(a) is not None
        with pytest.raises(ObstructionError):
            generate_generic(t, "additive")
    # generation validates on unobstructed shapes
    for sid in ["HG_2", "HG_3", "HG_4", "HG_5", "HG_6", "Xi_8", "W_2"]:
        a = generate_generic(series(sid), "additive")
        assert trace_condition(a) and is_generic(a)
    # multiplicative mode on the all-even block variant: the primitive-root
    # assignment is generic, the non-primitive one yields a witness
    variant = obstructed[-1]
    good = generate_generic(variant, "multiplicative", product_exponent=1)
    assert trace_condition(good) and is_generic(good)
    bad = candidate_assignment(variant, "multiplicative", product_exponent=0)
    w = nongenericity_witness(bad)
    assert w is not None and w.kappa == variant.n // 2
    report("12", "gcd-obstructed shapes never generic additively (100 seeded "
                 "assignments each); generation validates; primitive vs "
                 "non-primitive root-of-unity behavior confirmed")
