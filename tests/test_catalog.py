import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dspkit import (
    ChainMismatchError,
    EnumConstraints,
    Jnf,
    JnfTuple,
    Partition,
    ResourceLimitError,
    SeriesParameterError,
    UndefinedMoveError,
    all_series_ids,
    antipassage_targets,
    canonical_form,
    case_omega,
    catalog_lines,
    defect,
    enumerate_rigid,
    identify,
    is_rigid,
    min_d_mv,
    normalize,
    parse_pmv,
    parse_series_id,
    partitions_of,
    passage,
    series,
    verify_chain,
)
from helpers import reduces_to_simple_root, scan_rigid


def mv_r(p):
    return p.size - p.parts[0]


def mv_d(p):
    return p.size ** 2 - sum(x * x for x in p.parts)


# ---------------------------------------------------------------------------
# defect


def test_defect_hypergeometric():
    for n in range(2, 12):
        t = series(f"HG_{n}")
        assert defect(t) == 2 and is_rigid(t)


def test_defect_case_omega():
    for n in range(4, 22, 2):
        assert defect(case_omega(n)) == 4


def test_defect_near_miss_quintuple():
    for n in (6, 8, 12):
        h = n // 2
        t = JnfTuple.from_pmv([(2,) * h, (h + 1, h - 1), (h + 1, h - 1),
                               (n - 1, 1), (n - 1, 1)])
        assert defect(t) == 8 - 2 * n


# ---------------------------------------------------------------------------
# passage / antipassage


def test_passage_examples():
    assert passage(Partition((3, 3, 1, 1))).parts == (3, 3, 2)
    assert passage(Partition((4, 4, 1, 1))).parts == (4, 4, 2)
    with pytest.raises(UndefinedMoveError):
        passage(Partition((2, 2, 2)))
    with pytest.raises(UndefinedMoveError):
        passage(Partition((3, 2)))


def test_passage_preserves_n_r_and_decreases_d():
    for n in range(3, 15):
        for parts in partitions_of(n):
            p = Partition(parts)
            try:
                q = passage(p)
            except UndefinedMoveError:
                continue
            assert q.size == n
            assert mv_r(q) == mv_r(p)
            mu = len([x for x in parts if x == parts[0]])
            drop = 2 * (parts[mu] - parts[-1] + 1)
            assert mv_d(p) - mv_d(q) == -drop or mv_d(q) - mv_d(p) == -drop
            assert mv_d(q) < mv_d(p)
            assert mv_d(p) - mv_d(q) == drop


def test_antipassage_examples():
    assert Partition((3, 3, 1, 1)) in antipassage_targets(Partition((3, 3, 2)))
    assert antipassage_targets(Partition((1, 1))) == frozenset()


def test_antipassage_is_exact_inverse_image():
    for n in range(2, 13):
        for parts in partitions_of(n):
            target = Partition(parts)
            brute = set()
            for cand_parts in partitions_of(n):
                cand = Partition(cand_parts)
                try:
                    if passage(cand) == target:
                        brute.add(cand)
                except UndefinedMoveError:
                    pass
            assert antipassage_targets(target) == frozenset(brute)


@given(st.integers(min_value=2, max_value=14))
def test_passage_round_trips_through_antipassage(n):
    for parts in partitions_of(n):
        p = Partition(parts)
        try:
            q = passage(p)
        except UndefinedMoveError:
            continue
        assert p in antipassage_targets(q)


# ---------------------------------------------------------------------------
# minimal-d vectors


def test_min_d_examples():
    assert min_d_mv(7, 3).parts == (4, 3)
    assert min_d_mv(7, 5).parts == (2, 2, 2, 1)
    assert min_d_mv(6, 0).parts == (6,)
    with pytest.raises(ValueError):
        min_d_mv(5, 5)


def test_min_d_attains_strict_minimum():
    for n in range(1, 19):
        best: dict[int, list] = {}
        for parts in partitions_of(n):
            p = Partition(parts)
            best.setdefault(mv_r(p), []).append(p)
        for r, pool in best.items():
            dmin = min(mv_d(p) for p in pool)
            argmin = [p for p in pool if mv_d(p) == dmin]
            assert argmin == [min_d_mv(n, r)]


# ---------------------------------------------------------------------------
# the two-vector rebalancing move


@given(st.data())
def test_two_vector_rebalancing_decreases_dimension_sum(data):
    n = data.draw(st.integers(min_value=4, max_value=40))
    beta = data.draw(st.integers(min_value=1, max_value=(n - 1) // 2 - 1 or 1))
    w = data.draw(st.integers(min_value=1, max_value=beta))
    alpha, v = n - beta, n - w
    if not (alpha > beta and v >= w and beta + 1 <= n // 2):
        return
    first, second = normalize([alpha, beta]), normalize([v, w])
    moved_first, moved_second = normalize([alpha - 1, beta + 1]), normalize([v + 1, w - 1])
    assert mv_r(moved_first) + mv_r(moved_second) == mv_r(first) + mv_r(second)
    assert (mv_d(moved_first) + mv_d(moved_second)) < (mv_d(first) + mv_d(second))


# ---------------------------------------------------------------------------
# series generators


def test_series_examples():
    assert str(series("W_2")) == "(3,2,2);(3,2,2);(3,2,2)"
    og = series("OG_2")
    assert sorted(e.multiplicity_vector().parts for e in og.entries) == [
        (2, 1, 1, 1), (2, 2, 1), (3, 1, 1)]
    assert str(series("FF_5")) == "(3,2);(2,1,1,1);(2,1,1,1)"
    assert str(series("Psi6")) == "(5,1);(4,1,1);(3,3);(2,2,2)"
    assert series("Star_3").entries == parse_pmv("(2,1);(2,1);(2,1);(2,1)").entries


def test_series_parameter_errors():
    for bad in ["R_1", "FF_9", "Xi_7", "B_0", "Theta_3"]:
        with pytest.raises(SeriesParameterError):
            series(bad)
    with pytest.raises(ValueError):
        parse_series_id("Nope_3")


def test_identify_multi_names():
    ones = JnfTuple.from_pmv([(1,)] * 3)
    assert identify(ones) == ["D_0", "HG_1", "H_0", "W_0"]
    # genuine small-size coincidence of four families
    assert identify(series("X1_5")) == ["I_1", "OF_5", "X1_5", "Z2_5"]
    assert identify(parse_pmv("(9,1);(9,1);(2,2,2,2,2);(2,2,2,2,1,1)")) == []
    # a Jordan tuple is never named, though its diagonal counterpart here is W_1
    jordan = JnfTuple((Jnf.from_blocks([[2, 1], [1]]), Jnf.diagonal((2, 1, 1)),
                       Jnf.diagonal((2, 1, 1))))
    assert identify(jordan) == []


def test_identify_matches_brute_force():
    instances = [(sid, canonical_form(series(sid))) for sid in all_series_ids(40)]
    for sid, key in instances:
        t = series(sid)
        reversed_t = JnfTuple(tuple(reversed(t.entries)))
        want = sorted(str(other) for other, okey in instances if okey == key)
        assert identify(reversed_t) == want, sid


def test_all_series_ids_counts():
    assert [len(list(all_series_ids(m))) for m in (30, 40, 60)] == [540, 728, 1106]


# ---------------------------------------------------------------------------
# chains


def test_verify_chain_examples():
    assert verify_chain("D_2") == ["D_2", "E_2", "G_1", "D_1", "E_1", "G_0", "D_0"]
    assert verify_chain("Xi_8") == ["Xi_8", "Pi_7", "Pi_5", "Pi_3", "S_0"]
    assert verify_chain("Star_3") == ["Star_3", "(1);(1);(1);(1)"]
    assert verify_chain("T_1") == ["T_1", "(1);(1);(1);(1);(1)"]


def test_chain_mismatch_is_detected(monkeypatch):
    import dspkit.catalog as cat

    monkeypatch.setitem(cat._SUCCESSORS, "W", lambda k: cat.SeriesId("S", k))
    with pytest.raises(ChainMismatchError, match=r"^W_1: step 1 is .*, expected S_1 = "):
        verify_chain("W_1")


# ---------------------------------------------------------------------------
# enumeration


def _constraints(n, entries):
    return EnumConstraints(n=n, num_entries=entries, max_first_part=2,
                           forbid_all_ones=True, forbid_scalar=True, require_defect=2)


def test_enumerate_quadruples_n11():
    res = enumerate_rigid(_constraints(11, 4))
    assert [identify(t) for t in res] == [["Pi_11"], ["Delta_11"]]


def test_enumerate_quadruples_n6_contains_psi6():
    res = enumerate_rigid(_constraints(6, 4))
    names = {name for t in res for name in identify(t)}
    assert "Psi6" in names and "Xi_6" in names and "Theta_6" in names


def test_enumerate_quintuples_n8_empty():
    assert enumerate_rigid(_constraints(8, 5)) == []


@pytest.mark.parametrize("entries, max_n", [(2, 8), (3, 12), (4, 10), (5, 8), (6, 8)])
def test_enumerate_matches_scan(entries, max_n):
    # the tree walk against the full sum-of-squares scan, with every filter
    for n in range(1, max_n + 1):
        for u in (None, 1, 2, 3):
            for no_all_ones, no_scalar in itertools.product((False, True), repeat=2):
                got = enumerate_rigid(EnumConstraints(n, entries, u, no_all_ones, no_scalar))
                want = scan_rigid(n, entries, u, no_all_ones, no_scalar)
                assert [tuple(mv.parts for mv in t.pmv()) for t in got] == want, \
                    (n, u, no_all_ones, no_scalar)


def test_enumerate_resource_guard():
    with pytest.raises(ResourceLimitError):
        enumerate_rigid(_constraints(41, 3))
    with pytest.raises(ResourceLimitError):
        enumerate_rigid(EnumConstraints(n=5, num_entries=7))
    assert enumerate_rigid(_constraints(41, 3), max_n=41) is not None


def test_rank_sum_over_u2_outputs():
    # with a parts<=2 entry present, the remaining rank sum is n or n+1
    for n, entries in [(10, 3), (11, 4), (12, 4)]:
        for t in enumerate_rigid(_constraints(n, entries)):
            rs = sorted(e.r for e in t.entries)
            total = sum(rs)
            assert total - (n - 2) in (n, n + 1)


#: The u=2 triples (no all-ones, no scalar entry) that no catalog family names,
#: by size.  They occur only at 6 <= n <= 16.
SPORADIC_U2_TRIPLES = {
    6: [
        "(3,2,1);(3,1,1,1);(2,2,2)",
    ],
    7: [
        "(4,1,1,1);(3,3,1);(2,2,2,1)",
        "(4,2,1);(3,2,2);(2,2,2,1)",
        "(4,3);(3,1,1,1,1);(2,2,2,1)",
    ],
    8: [
        "(4,3,1);(4,2,2);(2,2,2,2)",
        "(4,4);(4,1,1,1,1);(2,2,2,1,1)",
        "(5,1,1,1);(3,3,2);(2,2,2,2)",
        "(5,2,1);(3,3,1,1);(2,2,2,2)",
        "(5,2,1);(3,3,2);(2,2,2,1,1)",
        "(5,3);(3,2,1,1,1);(2,2,2,2)",
        "(5,3);(3,2,2,1);(2,2,2,1,1)",
    ],
    9: [
        "(5,2,2);(4,4,1);(2,2,2,2,1)",
        "(5,4);(4,2,2,1);(2,2,2,2,1)",
        "(6,1,1,1);(3,3,3);(2,2,2,2,1)",
        "(6,2,1);(3,3,3);(2,2,2,1,1,1)",
        "(6,3);(3,2,2,2);(2,2,2,2,1)",
        "(6,3);(3,3,1,1,1);(2,2,2,2,1)",
        "(6,3);(3,3,2,1);(2,2,2,1,1,1)",
        "(6,3);(3,3,3);(2,1,1,1,1,1,1,1)",
    ],
    10: [
        "(5,5);(5,2,1,1,1);(2,2,2,2,2)",
        "(5,5);(5,2,2,1);(2,2,2,2,1,1)",
        "(6,3,1);(4,4,2);(2,2,2,2,2)",
        "(6,4);(4,3,2,1);(2,2,2,2,2)",
        "(6,4);(4,3,3);(2,2,2,1,1,1,1)",
        "(7,2,1);(3,3,3,1);(2,2,2,2,2)",
        "(7,3);(3,3,2,1,1);(2,2,2,2,2)",
        "(7,3);(3,3,2,2);(2,2,2,2,1,1)",
        "(7,3);(3,3,3,1);(2,2,2,1,1,1,1)",
    ],
    11: [
        "(6,5);(5,3,3);(2,2,2,2,1,1,1)",
        "(7,4);(4,4,2,1);(2,2,2,2,2,1)",
        "(7,4);(4,4,3);(2,2,2,1,1,1,1,1)",
        "(8,3);(3,3,3,1,1);(2,2,2,2,2,1)",
        "(8,3);(3,3,3,2);(2,2,2,2,1,1,1)",
    ],
    12: [
        "(6,6);(6,3,2,1);(2,2,2,2,2,2)",
        "(6,6);(6,3,3);(2,2,2,2,1,1,1,1)",
        "(7,5);(5,4,3);(2,2,2,2,2,1,1)",
        "(8,3,1);(4,4,4);(2,2,2,2,2,2)",
        "(8,4);(4,4,3,1);(2,2,2,2,2,2)",
        "(8,4);(4,4,4);(2,2,2,1,1,1,1,1,1)",
        "(9,2,1);(3,3,3,3);(2,2,2,2,2,2)",
        "(9,3);(3,3,3,2,1);(2,2,2,2,2,2)",
        "(9,3);(3,3,3,3);(2,2,2,2,1,1,1,1)",
    ],
    13: [
        "(7,6);(6,4,3);(2,2,2,2,2,2,1)",
        "(8,5);(5,4,4);(2,2,2,2,2,2,1)",
        "(8,5);(5,5,3);(2,2,2,2,2,1,1,1)",
        "(9,4);(4,4,4,1);(2,2,2,2,2,2,1)",
        "(10,3);(3,3,3,3,1);(2,2,2,2,2,2,1)",
    ],
    14: [
        "(7,7);(7,4,3);(2,2,2,2,2,2,1,1)",
        "(8,6);(6,5,3);(2,2,2,2,2,2,2)",
        "(9,5);(5,5,4);(2,2,2,2,2,2,1,1)",
        "(11,3);(3,3,3,3,2);(2,2,2,2,2,2,2)",
    ],
    15: [
        "(9,6);(6,6,3);(2,2,2,2,2,2,2,1)",
        "(10,5);(5,5,5);(2,2,2,2,2,2,1,1,1)",
        "(12,3);(3,3,3,3,3);(2,2,2,2,2,2,2,1)",
    ],
    16: [
        "(8,8);(8,5,3);(2,2,2,2,2,2,2,2)",
    ],
}


def _u2(n, entries):
    return enumerate_rigid(_constraints(n, entries), max_n=60)


def test_u2_triples_named_except_sporadic_table():
    for n in range(1, 61):
        res = _u2(n, 3)
        assert all(reduces_to_simple_root([mv.parts for mv in t.pmv()]) for t in res), n
        unnamed = [str(t) for t in res if not identify(t)]
        assert unnamed == SPORADIC_U2_TRIPLES.get(n, []), n
        if n >= 17:
            assert len(res) == (11 if n % 2 == 0 else 7), n
    assert [len(v) for v in SPORADIC_U2_TRIPLES.values()] == [1, 3, 7, 8, 9, 5, 9, 5, 4, 3, 1]


def test_u2_quadruples_named_except_05b_family():
    for n in range(1, 41):
        res = _u2(n, 4)
        assert all(reduces_to_simple_root([mv.parts for mv in t.pmv()]) for t in res), n
        unnamed = [t for t in res if not identify(t)]
        if n % 2 == 0 and n >= 6:
            h = n // 2
            extra = ((n - 1, 1), (n - 1, 1), (2,) * h, (2,) * (h - 1) + (1, 1))
            assert unnamed == [JnfTuple.from_pmv(extra)], n
        else:
            assert unnamed == [], n
        want = {1: 0, 2: 0, 3: 1, 4: 2, 6: 4}.get(n, 3 if n % 2 == 0 else 2)
        assert len(res) == want, n


def test_catalog_lines_shape():
    res = enumerate_rigid(_constraints(11, 4))
    lines = catalog_lines(res)
    assert lines[0]["n"] == 11 and lines[0]["defect"] == 2
    assert lines[0]["series_names"] == ["Pi_11"]


def test_canonical_form_sorts_entries():
    t = parse_pmv("(2,1,1);(3,1);(2,2)")
    assert str(canonical_form(t)) == "(3,1);(2,2);(2,1,1)"
