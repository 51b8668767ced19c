import itertools
import json
import operator

import pytest

from dspkit import (
    Jnf,
    JnfTuple,
    Partition,
    Reason,
    ResourceLimitError,
    Verdict,
    corresponding_diagonal,
    dual,
    jnf_tuple_from_dict,
    parse_pmv,
)
from dspkit.cli import main
from dspkit.reduction import jnf_tuple_json
from dspkit.partitions import MAX_SIZE, normalize
from helpers import all_jnfs, centralizer_dim_oracle, diagonalized, partitions_of, shape_fields


def mv(*parts):
    return Jnf.diagonal(parts)


def test_r_examples():
    for n in (3, 5, 9):
        assert mv(n - 1, 1).r == 1
        assert mv(*([1] * n)).r == n - 1
    j = Jnf.from_blocks([[4, 2, 2], [5, 1]])
    assert j.n == 14
    assert j.r == 11


def test_d_examples():
    for n in (2, 4, 7):
        assert mv(*([1] * n)).d == n * n - n
    assert Jnf.from_blocks([[3]]).d == 6
    assert Jnf.from_blocks([[4, 2, 2]]).d == 44
    assert Jnf.from_blocks([[4, 2, 2], [5, 1]]).d == 168


def test_corresponding_diagonal_examples():
    assert corresponding_diagonal(Jnf.from_blocks([[2, 2]])).parts == (2, 2)
    assert corresponding_diagonal(Jnf.from_blocks([[4, 2, 2]])).parts == (3, 3, 1, 1)
    j = Jnf.from_blocks([[4, 2, 2], [5, 1]])
    assert corresponding_diagonal(j).parts == (3, 3, 2, 1, 1, 1, 1, 1, 1)


def test_corresponding_diagonal_idempotent_on_diagonal():
    for parts in [(2, 2), (3, 1), (1, 1, 1), (4, 2, 1)]:
        j = mv(*parts)
        assert corresponding_diagonal(j).parts == parts


def test_r_d_preserved_by_correspondence_exhaustive():
    for n in range(1, 13):
        for j in all_jnfs(n):
            diag = Jnf.diagonal(corresponding_diagonal(j))
            assert diag.r == j.r
            assert diag.d == j.d


def test_d_matches_conjugate_definition_exhaustive():
    # d is n^2 minus the squared parts of every slot's conjugate partition
    for n in range(1, 13):
        for j in all_jnfs(n):
            assert j.d == n * n - sum(c * c for s in j.slots for c in dual(s).parts), j


def test_d_even_and_bounded_exhaustive():
    for n in range(1, 11):
        for j in all_jnfs(n):
            assert j.d % 2 == 0
            assert 0 <= j.d <= n * n - n


def test_centralizer_oracle_examples():
    assert centralizer_dim_oracle(Jnf.from_blocks([[3]])) == 3
    assert centralizer_dim_oracle(Jnf.from_blocks([[1], [1], [1]])) == 3
    assert centralizer_dim_oracle(Jnf.from_blocks([[2, 1]])) == 5


def test_centralizer_oracle_guard():
    with pytest.raises(ResourceLimitError):
        centralizer_dim_oracle(Jnf.diagonal((5, 4)))


def test_oracle_matches_d_small():
    for n in range(1, 5):
        for j in all_jnfs(n):
            assert j.d == j.n * j.n - centralizer_dim_oracle(j)


def test_shapes_compare_by_their_one_field_and_are_immutable():
    p = Partition((2, 1))
    j = Jnf.from_blocks([[1, 1], [2], [1, 1, 1], [3]])
    t = JnfTuple.from_pmv([(1, 1), (2,)])
    assert p == Partition([2, 1]) and hash(p) == hash(((2, 1),))
    assert hash(j) == hash((j.slots,)) and hash(t) == hash((t.entries,))
    assert Partition((1,)) != (1,) and j != j.slots and t != t.entries
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            op(Partition((1,)), (1,))
        with pytest.raises(TypeError):
            op(j, j.slots)
    # slots are sorted descending by their parts; shapes order by their slots
    assert [s.parts for s in j.slots] == [(3,), (2,), (1, 1, 1), (1, 1)]
    assert sorted([Jnf.from_blocks([[2]]), mv(2), mv(1, 1)]) == [
        mv(1, 1), mv(2), Jnf.from_blocks([[2]])]
    assert Partition() < Partition((1,)) <= Partition((1, 1)) and mv(2) >= mv(1, 1) < mv(1, 1, 1)
    # all four operators follow the tuple order of the one field, across sizes
    parts = [Partition(q) for n in range(6) for q in partitions_of(n)]
    shapes = [x for n in range(1, 6) for x in all_jnfs(n)]
    for pool, field in ((parts, "parts"), (shapes, "slots")):
        for a, b in itertools.product(pool, repeat=2):
            fa, fb = getattr(a, field), getattr(b, field)
            assert ((a < b, a <= b, a > b, a >= b)
                    == (fa < fb, fa <= fb, fa > fb, fa >= fb)), (a, b)
    assert repr(p) == "Partition(parts=(2, 1))"
    assert repr(t) == ("JnfTuple(entries=(Jnf(slots=(Partition(parts=(1,)), Partition(parts=(1,)))), "
                       "Jnf(slots=(Partition(parts=(1, 1)),))))")
    for value, field in ((p, "parts"), (p, "size"), (j, "slots"), (j, "n"), (t, "entries")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    # the result records are named tuples: they unpack to, and equal, their fields
    v = Verdict(True, Reason.OMEGA_HOLDS, 0)
    solvable, reason, at_step = v
    assert v == (solvable, reason, at_step) == (True, Reason.OMEGA_HOLDS, 0)


def test_derived_fields_are_stable_and_frozen():
    # text (filled on first use), multiplicity vector and hash of equal shapes built
    # apart (interned all-ones slots or not) agree, before and after printing
    for blocks in ([[1, 1, 1], [1, 1], [1]], [[2, 1], [1, 1], [3]], [[1]]):
        a, b = Jnf.from_blocks(blocks), Jnf.from_blocks(blocks)
        for name in ("_mv", "_text", "_hash"):
            with pytest.raises(AttributeError):
                setattr(a, name, None)
        text, h = str(a), hash(a)
        assert (str(a), hash(a)) == (text, h) == (str(b), hash(b))
        assert h == hash((a.slots,))
        if a.is_diagonal:
            c = Jnf.diagonal([len(s.parts) for s in a.slots])
            assert (str(c), hash(c)) == (text, h) and c == a
            vector = a.multiplicity_vector()
            assert a.multiplicity_vector() is vector
            assert b.multiplicity_vector() == vector == c.multiplicity_vector()
        for name in ("_mv", "_text", "_hash"):
            with pytest.raises(AttributeError):
                setattr(a, name, None)
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert not hasattr(a, "__dict__")
        assert (str(a), hash(a)) == (text, h)


def _general_diagonal(raw):
    # the general constructor on all-ones slots: the reference for Jnf.diagonal
    return Jnf(tuple(Partition((1,) * m) for m in normalize(raw).parts))


def test_diagonal_matches_the_general_constructor():
    for n in range(1, 13):
        for parts in partitions_of(n):
            want = shape_fields(_general_diagonal(parts))
            for given in (parts, Partition(parts), parts[::-1]):
                got = Jnf.diagonal(given)
                assert shape_fields(got) == want, given
                assert got == _general_diagonal(parts)
                assert got.multiplicity_vector().parts == parts


@pytest.mark.parametrize("raw", [(), (0,), (0, 0), (-1,), (2, -1), (1.0,), (True,),
                                 (MAX_SIZE + 1,)], ids=repr)
def test_diagonal_rejects_what_the_general_constructor_rejects(raw):
    with pytest.raises(ValueError) as want:
        _general_diagonal(raw)
    with pytest.raises(ValueError) as got:
        Jnf.diagonal(raw)
    assert str(got.value) == str(want.value)
    with pytest.raises(ValueError, match="^a Jordan shape needs at least one eigenvalue slot$"):
        Jnf.diagonal(Partition())


def test_diagonal_table_rejects_parts_equal_to_int_parts(capsys):
    # True == 1 and 2.0 == 2 hash alike, so with (1,1) and (2,) in the tables of shapes
    # and texts a lookup that did not check the part types would hand them out
    ones, two = Jnf.diagonal((1, 1)), Jnf.diagonal((2,))
    assert str(JnfTuple.from_pmv([(1, 1), (2,)])) == "(1,1);(2)"
    assert Jnf.diagonal((1, 1)) is ones and Jnf.diagonal([2]) is two
    for raw in ((True, 1), (1, True), (2.0,), (1.0, 1)):
        with pytest.raises(ValueError, match="^parts must be positive integers"):
            Jnf.diagonal(raw)
        with pytest.raises(ValueError, match="^parts must be positive integers"):
            JnfTuple.from_pmv([raw, (2,)])
    with pytest.raises(ValueError, match="^parts must be positive integers"):
        parse_pmv("(1,-1);(2)")
    blob = json.dumps({"entries": [{"eigenvalues": [[True, True]]}, {"eigenvalues": [[2]]}]})
    assert main(["decide", "--jnf", blob]) == 2
    assert capsys.readouterr().err.startswith("error: parts must be positive integers")


def test_tuple_validation():
    with pytest.raises(ValueError):
        JnfTuple((mv(2, 1),))
    with pytest.raises(ValueError):
        JnfTuple((mv(2, 1), mv(2, 2)))
    with pytest.raises(ValueError):
        JnfTuple.from_pmv([(), ()])
    # from_pmv checks its vectors as the constructor checks shapes
    for mvs in ([(2, 1)], [(2, 1), (2, 2)], [(1,), (0, 0)]):
        with pytest.raises(ValueError) as want:
            JnfTuple(tuple(map(Jnf.diagonal, mvs)))
        with pytest.raises(ValueError) as got:
            JnfTuple.from_pmv(mvs)
        assert str(got.value) == str(want.value)


def test_pmv_text_round_trip():
    t = parse_pmv("(2,2,1);(3,2);(4,1)")
    assert str(t) == "(2,2,1);(3,2);(4,1)"
    assert t.n == 5
    assert parse_pmv("(1,2,2);(3,2);(4,1)") == t  # normalized


def test_tuple_json_round_trip():
    t = JnfTuple((Jnf.from_blocks([[4, 2, 2], [5, 1]]), mv(13, 1)))
    data = json.loads(jnf_tuple_json(t))
    assert data["n"] == 14
    assert jnf_tuple_from_dict(data) == t
    with pytest.raises(ValueError):
        jnf_tuple_from_dict({"n": 3, "entries": data["entries"]})


def test_diagonalized_keeps_order():
    t = JnfTuple((Jnf.from_blocks([[2, 2]]), mv(3, 1), mv(2, 2)))
    d = diagonalized(t)
    assert str(d) == "(2,2);(3,1);(2,2)"


def test_scalar_detection():
    assert mv(4).is_scalar()
    assert not mv(3, 1).is_scalar()
    assert not Jnf.from_blocks([[4]]).is_scalar()
