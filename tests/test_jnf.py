import pytest

from dspkit import (
    Jnf,
    JnfTuple,
    ResourceLimitError,
    centralizer_dim_oracle,
    corresponding_diagonal,
    diagonalized,
    dual,
    jnf_tuple_from_dict,
    jnf_tuple_to_dict,
    parse_pmv,
)
from helpers import all_jnfs


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


def test_tuple_validation():
    with pytest.raises(ValueError):
        JnfTuple((mv(2, 1),))
    with pytest.raises(ValueError):
        JnfTuple((mv(2, 1), mv(2, 2)))
    with pytest.raises(ValueError):
        JnfTuple.from_pmv([(), ()])


def test_pmv_text_round_trip():
    t = parse_pmv("(2,2,1);(3,2);(4,1)")
    assert str(t) == "(2,2,1);(3,2);(4,1)"
    assert t.n == 5
    assert parse_pmv("(1,2,2);(3,2);(4,1)") == t  # normalized


def test_tuple_json_round_trip():
    t = JnfTuple((Jnf.from_blocks([[4, 2, 2], [5, 1]]), mv(13, 1)))
    data = jnf_tuple_to_dict(t)
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
