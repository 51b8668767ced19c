import pytest
from hypothesis import given
from hypothesis import strategies as st

from dspkit import (
    Partition,
    disjoint_sum,
    dual,
    normalize,
    parse_partition,
)
from helpers import partitions_of

parts_lists = st.lists(st.integers(min_value=0, max_value=12), max_size=10)


def test_normalize_sorts_and_drops_zeros():
    assert normalize([1, 2, 0, 3]).parts == (3, 2, 1)
    assert normalize([]).parts == ()
    assert normalize([2, 2, 2]).parts == (2, 2, 2)


def test_normalize_rejects_negative():
    with pytest.raises(ValueError):
        normalize([3, -1])


def test_normalize_rejects_non_int_parts():
    for raw in ([3, 0.0], [3, False], [3, 1.5]):
        with pytest.raises(ValueError):
            normalize(raw)


def test_partition_validates_order_and_positivity():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_partition_rejects_non_int_parts():
    for parts in ((2.5,), (True,), (2.0,), ("1",), (2, 1.0)):
        with pytest.raises(ValueError):
            Partition(parts)
    assert Partition([2, 1]).parts == (2, 1)  # a list is stored as a tuple


def test_dual_examples():
    assert dual(Partition((4, 2, 2))).parts == (3, 3, 1, 1)
    assert dual(Partition((7,))).parts == (1,) * 7
    assert dual(Partition((5, 1))).parts == (2, 1, 1, 1, 1)
    assert dual(Partition()).parts == ()


def test_disjoint_sum_examples():
    a = Partition((3, 3, 1, 1))
    b = Partition((2, 1, 1, 1, 1))
    assert disjoint_sum([a, b]).parts == (3, 3, 2, 1, 1, 1, 1, 1, 1)
    assert disjoint_sum([Partition(), Partition()]).parts == ()
    assert disjoint_sum([Partition((2, 2))]).parts == (2, 2)


def test_dual_involution_exhaustive_small():
    for n in range(21):
        for parts in partitions_of(n):
            p = Partition(parts)
            assert dual(dual(p)) == p
            assert dual(p).size == n
            if parts:
                assert dual(p).parts[0] == len(parts)
                assert len(dual(p)) == parts[0]


@given(parts_lists)
def test_normalize_idempotent(raw):
    p = normalize(raw)
    assert normalize(p.parts) == p
    assert p.size == sum(x for x in raw if x)


@given(parts_lists, parts_lists)
def test_disjoint_sum_commutes(a, b):
    pa, pb = normalize(a), normalize(b)
    assert disjoint_sum([pa, pb]) == disjoint_sum([pb, pa])


@given(parts_lists, parts_lists, parts_lists)
def test_disjoint_sum_associates(a, b, c):
    pa, pb, pc = normalize(a), normalize(b), normalize(c)
    left = disjoint_sum([disjoint_sum([pa, pb]), pc])
    right = disjoint_sum([pa, disjoint_sum([pb, pc])])
    assert left == right


def test_text_round_trip():
    for text in ["(4,2,2)", "()", "(10,1)"]:
        assert str(parse_partition(text)) == text
    assert parse_partition(" ( 1, 2 , 0, 3)").parts == (3, 2, 1)
    with pytest.raises(ValueError):
        parse_partition("4,2,2")


def test_partitions_of_counts():
    counts = [len(list(partitions_of(n))) for n in range(11)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert list(partitions_of(4, max_part=2)) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_size_cap():
    with pytest.raises(ValueError):
        Partition((10_001,))
