import hashlib
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dspkit import (
    ChainMismatchError,
    ChainStep,
    Jnf,
    JnfTuple,
    Partition,
    Reason,
    ResourceLimitError,
    SeriesParameterError,
    all_series_ids,
    catalog_lines,
    decide,
    defect,
    enumerate_rigid,
    identify,
    is_rigid,
    min_d_mv,
    normalize,
    parse_pmv,
    parse_series_id,
    series,
    verify_chain,
    verify_step,
)
from dspkit.catalog import FAMILIES, SeriesId, _names_by_pmv, series_mvs
from dspkit.cli import main
from dspkit.partitions import MAX_SIZE
from helpers import (
    case_omega,
    children_oracle,
    partitions_of,
    reduces_to_simple_root,
    scan_rigid,
)


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
    # below the first parameter, of the wrong parity, one past the last
    for bad in ["R_1", "FF_9", "Xi_7", "B_0", "Theta_3", "W_-1", "HG_0", "OF_4", "EF_3", "Y5_3",
                "X1_3", "FF_4", "Psi6_7", "Star_1", "HG_10001"]:
        with pytest.raises(SeriesParameterError):
            series(bad)
    with pytest.raises(ValueError):
        parse_series_id("Nope_3")
    # the last parameter of an unbounded family makes an instance of the size cap
    assert series("HG_10000").n == MAX_SIZE


def test_series_past_the_size_cap_is_refused(capsys):
    # W_4000 is in range (k runs to 10,000) but has size 3 * 4000 + 1 = 12,001
    with pytest.raises(ValueError, match=r"^partition size 12001 exceeds the cap 10000$"):
        series("W_4000")
    for command in ("series", "chain"):
        assert main([command, "W_4000"]) == 2
        assert capsys.readouterr() == ("", "error: partition size 12001 exceeds the cap 10000\n")
    assert series("W_3333").n == MAX_SIZE


@pytest.mark.parametrize("build", [
    lambda n: [[n, 1], [1] * n, [1] * n],       # one entry of size n + 1
    lambda n: [[n - 1], [1] * n, [1] * n],      # one of size n - 1
    lambda n: [[n + 1, -1], [1] * n, [1] * n],  # the right size, with a negative part
], ids=["over", "under", "negative"])
def test_member_rejects_a_builder_of_wrong_vectors(monkeypatch, build):
    monkeypatch.setitem(FAMILIES, "HG", FAMILIES["HG"]._replace(build=build))
    with pytest.raises(RuntimeError, match="^HG_5 does not build positive vectors of size 5$"):
        series("HG_5")


def test_identify_multi_names():
    ones = JnfTuple.from_pmv([(1,)] * 3)
    assert identify(ones) == ["D_0", "HG_1", "H_0", "W_0"]
    # genuine small-size coincidence of four families
    assert identify(series("X1_5")) == ["I_1", "OF_5", "X1_5", "Z2_5"]
    assert identify(parse_pmv("(9,1);(9,1);(2,2,2,2,2);(2,2,2,2,1,1)")) == ["Lambda_10"]
    assert identify(parse_pmv("(3,2,1);(3,1,1,1);(2,2,2)")) == []
    # a Jordan tuple is never named, though its diagonal counterpart here is W_1
    jordan = JnfTuple((Jnf.from_blocks([[2, 1], [1]]), Jnf.diagonal((2, 1, 1)),
                       Jnf.diagonal((2, 1, 1))))
    assert identify(jordan) == []


def test_identify_matches_brute_force():
    instances = [(sid, tuple(mv.parts for mv in series_mvs(sid))) for sid in all_series_ids(40)]
    for sid, key in instances:
        t = series(sid)
        reversed_t = JnfTuple(tuple(reversed(t.entries)))
        want = sorted(str(other) for other, okey in instances if okey == key)
        assert identify(reversed_t) == want, sid
        # the vector path of enum-rigid output reads the same index
        assert catalog_lines([key])[0]["series_names"] == want, sid


def test_size_maps_are_strictly_increasing():
    # the premise of all_series_ids' early stop: sizes grow along params from size >= 1
    for name, fam in FAMILIES.items():
        assert fam.a >= 1 and fam.n_of(fam.params[0]) >= 1, name


def test_names_by_pmv_matches_a_scan_of_all_series_ids():
    for n in range(1, 201):
        want: dict = {}
        for sid in all_series_ids(n):
            if FAMILIES[sid.name].n_of(sid.param) == n:
                want.setdefault(tuple(mv.parts for mv in series_mvs(sid)), []).append(str(sid))
        assert _names_by_pmv(n) == {key: tuple(sorted(names)) for key, names in want.items()}, n


def test_names_by_pmv_builds_only_the_named_members(monkeypatch):
    import dspkit.catalog as cat

    builds = []

    def counted(name, build):
        def wrapper(param):
            builds.append(SeriesId(name, param))
            return build(param)
        return wrapper

    # patched records share no memoized member with earlier calls
    for name, fam in FAMILIES.items():
        monkeypatch.setitem(cat.FAMILIES, name, fam._replace(build=counted(name, fam.build)))
    _names_by_pmv.cache_clear()
    try:
        index = _names_by_pmv(400)
    finally:
        _names_by_pmv.cache_clear()
    named = [sid for sid in all_series_ids(400) if FAMILIES[sid.name].n_of(sid.param) == 400]
    assert builds == named and len(named) == 23
    assert index[tuple(mv.parts for mv in series_mvs(SeriesId("HG", 400)))] == ("HG_400",)


def test_names_by_pmv_keeps_a_bounded_number_of_indexes():
    # naming a long chain visits one size per step; at most the bound stays cached
    bound = _names_by_pmv.cache_info().maxsize
    assert bound is not None and bound >= 40  # the sizes of a catalog batch up to n=40
    _names_by_pmv.cache_clear()
    try:
        trace = decide(series("HG_200"))
        assert [identify(step.state) for step in trace.steps][-1] == ["D_0", "HG_1", "H_0", "W_0"]
        info = _names_by_pmv.cache_info()
        assert info.misses == 200 and info.currsize == bound
    finally:
        _names_by_pmv.cache_clear()


def test_all_series_ids_counts():
    assert [len(list(all_series_ids(m))) for m in (30, 40, 60)] == [553, 746, 1134]
    # perfbench's batch reads catalog lines of all_series_ids(40) by position: pin the order
    digests = [hashlib.sha256("\n".join(map(str, all_series_ids(m))).encode()).hexdigest()
               for m in (40, 60)]
    assert digests == ["30630d77b56feb36208de76acfa3ebf8b7fa99183bcc4d63a55c2a0180bf0df6",
                       "ff673d7754c0ea6b0a68c997f61fdf33abbf7c3ee7cf823480cd5d689648bc16"]


# ---------------------------------------------------------------------------
# chains


def _chain_labels(sid):
    return [s.label for s in verify_chain(sid)]


def test_verify_chain_examples():
    assert _chain_labels("D_2") == ["D_2", "E_2", "G_1", "D_1", "E_1", "G_0", "D_0"]
    assert _chain_labels("Xi_8") == ["Xi_8", "Pi_7", "Pi_5", "Pi_3", "S_0"]
    assert _chain_labels("Star_3") == ["Star_3", "(1);(1);(1);(1)"]
    assert _chain_labels("T_1") == ["T_1", "(1);(1);(1);(1);(1)"]
    assert verify_chain("W_1") == [ChainStep(str(sid), series_mvs(sid))
                                   for sid in (SeriesId("W", 1), SeriesId("B", 1), SeriesId("W", 0))]


def test_verify_step_returns_the_successor():
    assert verify_step("W_1") == SeriesId("B", 1)
    assert verify_step(SeriesId("T", 1)) == 5
    assert verify_step("W_0") is None


def test_verify_chain_matches_the_decide_trace_to_60():
    # decide is the reference: the chain's vectors are the trace's post-drop states
    for sid in all_series_ids(60):
        trace = decide(series(sid))
        assert trace.verdict.reason is Reason.REDUCED_TO_SIZE1, sid
        states = [tuple(sorted(step.state.pmv(), reverse=True)) for step in trace.steps]
        assert [step.mvs for step in verify_chain(sid)] == states, sid


def test_each_successor_is_a_smaller_instance_or_a_ones_count():
    # so verify_step on every instance up to a size proves every chain up to it
    for sid in all_series_ids(200):
        fam = FAMILIES[sid.name]
        n = fam.n_of(sid.param)
        if n < 2:
            continue
        nxt = fam.succ(sid.param)
        if isinstance(nxt, int):
            assert nxt >= 2, sid
        else:
            assert isinstance(nxt, SeriesId), sid
            assert nxt.param in FAMILIES[nxt.name].params, sid
            assert FAMILIES[nxt.name].n_of(nxt.param) < n, sid


def test_chain_mismatch_is_detected(monkeypatch):
    import dspkit.catalog as cat

    monkeypatch.setitem(cat.FAMILIES, "W", cat.FAMILIES["W"]._replace(
        succ=lambda k: cat.SeriesId("S", k)))
    with pytest.raises(ChainMismatchError, match=r"^W_1: step 1 is .*, expected S_1 = "):
        verify_chain("W_1")


def test_verify_chain_rejects_a_non_rigid_instance(monkeypatch):
    import dspkit.catalog as cat

    # W_1 becomes (2,1,1);(2,1,1);(1,1,1,1), of defect 0; its trace is never compared
    monkeypatch.setitem(cat.FAMILIES, "W", cat.FAMILIES["W"]._replace(
        build=lambda k: [[k, k, k + 1]] * 2 + [[1] * (3 * k + 1)]))
    with pytest.raises(ChainMismatchError, match=r"^W_1: defect is 0, not 2$"):
        verify_chain("W_1")


# ---------------------------------------------------------------------------
# enumeration


#: The classification filters: an entry with parts <= 2, no all-ones or scalar entry.
_U2 = {"u": 2, "no_all_ones": True, "no_scalar": True}


def test_enumerate_quadruples_n11():
    res = enumerate_rigid(11, 4, **_U2)
    assert [identify(JnfTuple.from_pmv(v)) for v in res] == [["Pi_11"], ["Delta_11"]]


def test_enumerate_quadruples_n6_contains_psi6():
    res = enumerate_rigid(6, 4, **_U2)
    names = {name for v in res for name in identify(JnfTuple.from_pmv(v))}
    assert "Psi6" in names and "Xi_6" in names and "Theta_6" in names


def test_enumerate_quintuples_n8_empty():
    assert enumerate_rigid(8, 5, **_U2) == []


@pytest.mark.parametrize("entries, max_n", [(2, 8), (3, 12), (4, 10), (5, 8), (6, 8), (7, 6),
                                            (8, 5)])
def test_enumerate_matches_scan(entries, max_n):
    # the tree walk against the full sum-of-squares scan, with every filter
    for n in range(1, max_n + 1):
        for u in (None, 1, 2, 3):
            for no_all_ones, no_scalar in itertools.product((False, True), repeat=2):
                got = enumerate_rigid(n, entries, u=u, no_all_ones=no_all_ones,
                                      no_scalar=no_scalar)
                want = scan_rigid(n, entries, u, no_all_ones, no_scalar)
                assert got == want, (n, u, no_all_ones, no_scalar)


def test_children_bound_drops_no_child(monkeypatch):
    # the bounded part choices against every combination, at each node the walks expand
    import dspkit.catalog as cat

    bounded = cat._children
    expanded = 0

    def checked(parent, max_n, u, spare):
        nonlocal expanded
        expanded += 1
        got = bounded(parent, max_n, u, spare)
        assert got == children_oracle(parent, max_n, u), (parent, max_n, u)
        return got

    monkeypatch.setattr(cat, "_children", checked)
    for entries, max_n in ((3, 14), (4, 10)):
        for n in range(1, max_n + 1):
            for u in (None, 1, 2, 3):
                enumerate_rigid(n, entries, u=u)
    assert expanded > 7000


def test_enumerate_resource_guard(monkeypatch):
    import dspkit.catalog as cat

    # the root of E single-part entries tries 2**E part choices, E units each
    monkeypatch.setattr(cat, "MAX_ENUM_WORK", 8 * 2 ** 8)
    assert enumerate_rigid(2, 8) == scan_rigid(2, 8)
    monkeypatch.setattr(cat, "MAX_ENUM_WORK", 8 * 2 ** 8 - 1)
    with pytest.raises(ResourceLimitError, match=r"^the walk to n=2 does > 2047 units of work$"):
        enumerate_rigid(2, 8)
    # past 2**E > budget, E is refused before the root is built, at any n
    monkeypatch.setattr(cat, "MAX_ENUM_WORK", 2 ** 8 - 1)
    with pytest.raises(ResourceLimitError, match=r"^the root tries 2\*\*8 > 255 part choices$"):
        enumerate_rigid(1, 8)
    assert enumerate_rigid(1, 7) == [((1,),) * 7]
    monkeypatch.undo()
    for n in (1, 3):
        with pytest.raises(ResourceLimitError, match=r"^the root tries 2\*\*1000000000 > "):
            enumerate_rigid(n, 10 ** 9)
    # no size guard
    assert len(enumerate_rigid(41, 3, **_U2)) == 7
    # deep, narrow walks pay for the parts they copy: triples with an all-ones entry
    # (about 4n^2 units to size n) trip on the way to n=10**5
    with pytest.raises(ResourceLimitError, match=r"^the walk to n=100000 does > "):
        enumerate_rigid(10 ** 5, 3, u=1)
    # malformed sizes and part bounds are refused before any guard
    for n, entries, u in [(0, 3, None), (50, 1, None), (0, 10 ** 9, None), (5, 3, 0),
                          (5, 10 ** 9, -1)]:
        with pytest.raises(ValueError, match=r"^need n >= 1, at least two entries and u >= 1$"):
            enumerate_rigid(n, entries, u=u)


def test_enumerate_node_budget(monkeypatch):
    import dspkit.catalog as cat

    # triples at n=8, scalars included, do 4,035 units of work
    want = enumerate_rigid(8, 3)
    monkeypatch.setattr(cat, "MAX_ENUM_WORK", 4035)
    assert enumerate_rigid(8, 3) == want
    monkeypatch.setattr(cat, "MAX_ENUM_WORK", 4034)
    with pytest.raises(ResourceLimitError,
                       match=r"^the walk to n=8 does > 4034 units of work$"):
        enumerate_rigid(8, 3)


def test_walk_work_is_pinned(monkeypatch):
    # MAX_ENUM_WORK - spare[0] after each walk: perfbench's largest walk, a u=2 triple
    # walk and a u=2 quadruple walk
    import dspkit.catalog as cat

    spares = []
    children = cat._children

    def recorded(parent, max_n, u, spare):
        spares.append(spare)
        return children(parent, max_n, u, spare)

    monkeypatch.setattr(cat, "_children", recorded)
    for n, entries, kwargs, work in [(14, 3, {"no_scalar": True}, 162_989), (34, 3, _U2, 51_126),
                                     (200, 4, {"u": 2}, 1_551_788)]:
        spares.clear()
        enumerate_rigid(n, entries, **kwargs)
        assert cat.MAX_ENUM_WORK - spares[-1][0] == work, (n, entries)


def test_rank_sum_over_u2_outputs():
    # with a parts<=2 entry present, the remaining rank sum is n or n+1
    for n, entries in [(10, 3), (11, 4), (12, 4)]:
        for v in enumerate_rigid(n, entries, **_U2):
            rs = sorted(e.r for e in JnfTuple.from_pmv(v).entries)
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
    return enumerate_rigid(n, entries, **_U2)


def test_u2_triples_named_except_sporadic_table():
    for n in range(1, 61):
        res = [JnfTuple.from_pmv(v) for v in _u2(n, 3)]
        assert all(reduces_to_simple_root([mv.parts for mv in t.pmv()]) for t in res), n
        unnamed = [str(t) for t in res if not identify(t)]
        assert unnamed == SPORADIC_U2_TRIPLES.get(n, []), n
        if n >= 17:
            assert len(res) == (11 if n % 2 == 0 else 7), n
    assert [len(v) for v in SPORADIC_U2_TRIPLES.values()] == [1, 3, 7, 8, 9, 5, 9, 5, 4, 3, 1]


def test_u2_quadruples_all_named():
    for n in range(1, 41):
        res = [JnfTuple.from_pmv(v) for v in _u2(n, 4)]
        assert all(reduces_to_simple_root([mv.parts for mv in t.pmv()]) for t in res), n
        assert all(identify(t) for t in res), n
        want = {1: 0, 2: 0, 3: 1, 4: 2, 6: 4}.get(n, 3 if n % 2 == 0 else 2)
        assert len(res) == want, n


def test_catalog_lines_shape():
    res = enumerate_rigid(11, 4, **_U2)
    assert res[0] == ((10, 1), (6, 5), (6, 5), (2, 2, 2, 2, 2, 1))
    lines = catalog_lines(res)
    assert lines[0]["n"] == 11 and lines[0]["defect"] == 2
    assert lines[0]["entries"] == [[10, 1], [6, 5], [6, 5], [2, 2, 2, 2, 2, 1]]
    assert lines[0]["series_names"] == ["Pi_11"]
    # names are found in any entry order and with parts ascending
    shuffled = ((1, 10), (2, 2, 2, 2, 2, 1), (5, 6), (6, 5))
    assert catalog_lines([shuffled])[0]["series_names"] == ["Pi_11"]


def test_catalog_lines_rejects_non_rigid_vectors():
    # case omega at n=4 has defect 4
    omega = tuple(mv.parts for mv in case_omega(4).pmv())
    with pytest.raises(RuntimeError, match=r"defect is 4, not 2$"):
        catalog_lines([omega])
    with pytest.raises(RuntimeError, match=r"entries are not all of size 3$"):
        catalog_lines([((2, 1), (2, 1), (1, 1, 1, 1))])
