import itertools
import random
from fractions import Fraction

import pytest

from dspkit import (
    EigenvalueAssignment,
    ExactValue,
    Jnf,
    JnfTuple,
    NongenericityWitness,
    ObstructionError,
    ResourceLimitError,
    all_series_ids,
    assignment_from_dict,
    assignment_to_dict,
    candidate_assignment,
    gcd_obstruction,
    generate_generic,
    nongenericity_witness,
    series,
    trace_condition,
)
import dspkit.genericity as genericity
from dspkit.genericity import _search_witness, _weighted_subvectors
from helpers import (
    is_generic,
    naive_witness,
    partitions_of,
    planted_assignment,
    random_jnf_tuple,
    random_partition,
    rational_assignment,
)


def test_exact_value_dict_round_trip():
    v = ExactValue(Fraction(-1, 2), ((1, Fraction(1)), (3, Fraction(2, 7))))
    assert ExactValue.from_coeff_dict(v.to_coeff_dict()) == v
    assert ExactValue.from_coeff_dict({}) == ExactValue()


def test_value_records_compare_by_fields_and_are_immutable():
    a = EigenvalueAssignment("additive", [[(ExactValue.basis(1), 1), (ExactValue(), 1)]] * 2)
    same = EigenvalueAssignment("additive", (((ExactValue(0, ((1, 1),)), 1),
                                              (ExactValue.rational(0), 1)),) * 2)
    w = NongenericityWitness(1, ((1, 0), (0, 1)), ExactValue.basis(1))
    assert a == same and hash(a) == hash(same)
    assert a != EigenvalueAssignment("multiplicative", a.entries)
    assert w == NongenericityWitness(1, ((1, 0), (0, 1)), ExactValue.basis(1)) != (1, w.total)
    assert len({ExactValue.basis(1), ExactValue(0, ((1, Fraction(2, 2)),))}) == 1
    assert repr(ExactValue.rational(Fraction(1, 2))) == (
        "ExactValue(const=Fraction(1, 2), formal=())")
    for record, field in ((a, "mode"), (w, "kappa"), (w.total, "const")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)


def test_exact_value_rejects_repeated_index():
    with pytest.raises(ValueError):
        ExactValue(0, ((1, 1), (1, -1)))


def _weighted_sum(a, choice=None):
    """(constant, nonzero formal coefficients) of sum c * v over the slots of
    ``a``, in plain Fractions; c is the multiplicity unless ``choice`` is given."""
    const, formal = Fraction(0), {}
    for entry, vec in zip(a.entries, choice or a.multiplicities()):
        for (value, _), c in zip(entry, vec):
            const += c * value.const
            for b, cf in value.formal:
                formal[b] = formal.get(b, Fraction(0)) + c * cf
    return const, {b: cf for b, cf in formal.items() if cf}


def test_trace_condition_modes():
    t = series("HG_2")
    a = generate_generic(t, "additive")
    assert trace_condition(a) and _weighted_sum(a) == (0, {})
    m = generate_generic(t, "multiplicative")
    assert trace_condition(m)
    assert _weighted_sum(m) == (1, {})


def test_trace_condition_all_zero_exponents():
    # every factor is exp(0) = 1, so the product condition holds trivially
    zero = ExactValue.rational(0)
    a = EigenvalueAssignment("multiplicative", (((zero, 2),), ((zero, 2),)))
    assert trace_condition(a)
    assert not trace_condition(EigenvalueAssignment("additive",
                                                    (((zero, 1), (ExactValue.rational(1), 1)),
                                                     ((zero, 2),))))


def test_explicit_relation_is_found():
    # one entry holds 0 twice; the other two entries have a zero-sum pair
    entries = (
        ((ExactValue.rational(0), 2), (ExactValue.rational(1), 2)),
        ((ExactValue.rational(2), 2), (ExactValue.rational(-1), 2)),
        ((ExactValue.rational(3), 2), (ExactValue.rational(-4), 2)),
    )
    a = EigenvalueAssignment("additive", entries)
    w = nongenericity_witness(a)
    assert w is not None and 1 < w.kappa < 4 + 1
    # the reported choice really sums to zero
    for entry, vec in zip(entries, w.sub_multiplicities):
        for (_, mult), c in zip(entry, vec):
            assert 0 <= c <= mult
    assert _weighted_sum(a, w.sub_multiplicities) == (0, {})


def test_generated_assignments_validate():
    for sid in ["HG_2", "HG_3", "HG_4", "W_2", "Xi_8"]:
        a = generate_generic(series(sid), "additive")
        assert trace_condition(a)
        assert is_generic(a)


def test_gcd_obstruction_examples():
    assert gcd_obstruction(JnfTuple.from_pmv([(2, 2, 2)] * 3)) == 2
    assert gcd_obstruction(series("HG_4")) is None
    assert gcd_obstruction(series("Xi_8")) is None
    variant = JnfTuple((Jnf.diagonal((2, 2, 2)), Jnf.diagonal((2, 2, 2)),
                        Jnf.from_blocks([[3, 2, 1]])))
    assert gcd_obstruction(variant) == 2


def test_obstructed_shapes_never_generic_additively():
    rng = random.Random(99)
    shapes = [
        [(2, 2), (2, 2), (2, 2)],
        [(2, 2, 2), (2, 2, 2), (2, 2, 2)],
        [(4, 2), (2, 2, 2), (4, 2)],
        [(3, 3), (3, 3), (3, 3)],
    ]
    for mults in shapes:
        for _ in range(30):
            a = rational_assignment(rng, mults)
            assert trace_condition(a)
            assert nongenericity_witness(a) is not None


def test_additive_obstruction_error():
    with pytest.raises(ObstructionError):
        generate_generic(JnfTuple.from_pmv([(2, 2, 2)] * 3), "additive")


def test_multiplicative_primitive_vs_not():
    variant = JnfTuple((Jnf.diagonal((2, 2, 2)), Jnf.diagonal((2, 2, 2)),
                        Jnf.from_blocks([[3, 2, 1]])))
    good = generate_generic(variant, "multiplicative", product_exponent=1)
    assert trace_condition(good) and is_generic(good)
    bad = candidate_assignment(variant, "multiplicative", product_exponent=0)
    w = nongenericity_witness(bad)
    assert w is not None and w.kappa == 3
    with pytest.raises(ObstructionError) as err:
        generate_generic(variant, "multiplicative", product_exponent=2)
    w = err.value.witness
    assert w.kappa == 3
    assert w.sub_multiplicities == ((1, 1, 1), (1, 1, 1), (3,))
    assert w.total == ExactValue.rational(1)


def test_closed_form_certificate_matches_search():
    # generate_generic decides genericity without searching; the search is the oracle
    outcomes = {True: 0, False: 0}
    modes = [("additive", 1)] + [("multiplicative", e) for e in range(4)]
    for n in range(1, 7):
        for size in (2, 3):
            for mvs in itertools.combinations_with_replacement(partitions_of(n), size):
                t = JnfTuple.from_pmv(mvs)
                for mode, exponent in modes:
                    a = candidate_assignment(t, mode, product_exponent=exponent)
                    want = _search_witness(a)
                    try:
                        got = generate_generic(t, mode, product_exponent=exponent)
                    except ObstructionError as err:
                        assert want is not None and err.witness == want, (t, mode, exponent)
                    else:
                        assert got == a and want is None, (t, mode, exponent)
                    outcomes[want is None] += 1
    # both verdicts occur, so neither branch is tested vacuously
    assert min(outcomes.values()) > 100


def test_additive_relation_implies_multiplicative():
    rng = random.Random(4)
    found = 0
    while found < 20:
        mults = [tuple(sorted((rng.randint(1, 3) for _ in range(rng.randint(1, 3))),
                              reverse=True)) for _ in range(3)]
        sizes = {sum(m) for m in mults}
        if len(sizes) != 1 or sizes.pop() < 3:
            continue
        a = rational_assignment(rng, mults)
        w = nongenericity_witness(a)
        if w is None:
            continue
        found += 1
        as_mult = EigenvalueAssignment("multiplicative", a.entries)
        assert nongenericity_witness(as_mult) is not None


def test_search_space_counts_match_naive_subsets():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(2, 6)
        mults = random_partition(rng, n)
        entry = tuple((tuple(int(i == j) for j in range(len(mults))), m)
                      for i, m in enumerate(mults))
        positions = [i for i, m in enumerate(mults) for _ in range(m)]
        for kappa in range(1, n):
            subs = _weighted_subvectors(entry, kappa)
            # one unit coordinate per slot, so the weighted sum is the vector itself
            assert all(v == s for v, s in subs)
            assert [v for v, _ in subs] == sorted(v for v, _ in subs)
            naive = set()
            for subset in itertools.combinations(range(n), kappa):
                counts = [0] * len(mults)
                for idx in subset:
                    counts[positions[idx]] += 1
                naive.add(tuple(counts))
            assert {v for v, _ in subs} == naive


def _random_value(rng: random.Random, style: int) -> ExactValue:
    if style == 0:  # small integers: relations are common
        return ExactValue.rational(rng.randint(-2, 2))
    if style == 1:
        return ExactValue.rational(Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 4])))
    formal = tuple((b, Fraction(rng.randint(-2, 2), rng.choice([1, 2])))
                   for b in rng.sample(range(1, 4), rng.randint(0, 2)))
    return ExactValue(Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])), formal)


def test_witness_matches_naive_oracle():
    rng = random.Random(31)
    outcomes = {True: 0, False: 0}
    for _ in range(150):
        entries = rng.randint(2, 4)
        n = rng.randint(2, 5 if entries == 4 else 6)
        style = rng.randint(0, 2)
        for mode in ("additive", "multiplicative"):
            rows = []
            for _ in range(entries):
                mults = random_partition(rng, n)
                values = [_random_value(rng, style) for _ in mults]
                while len(set(values)) < len(values):
                    values = [_random_value(rng, style) for _ in mults]
                rows.append(tuple(zip(values, mults)))
            a = EigenvalueAssignment(mode, tuple(rows))
            w = nongenericity_witness(a)
            got = None if w is None else (w.kappa, w.sub_multiplicities,
                                          (w.total.const, w.total.formal))
            want = naive_witness(a)
            assert got == want, a
            outcomes[want is not None] += 1
    # both outcomes occur often, so neither branch is tested vacuously
    assert min(outcomes.values()) > 100


def test_trace_condition_failure_is_not_generic():
    # no sub-selection relation, but the values sum to 14, not 0
    one, two, five = (ExactValue.rational(x) for x in (1, 2, 5))
    a = EigenvalueAssignment("additive", (((one, 2), (two, 1)), ((one, 2), (two, 1)),
                                          ((one, 2), (five, 1))))
    assert not trace_condition(a)
    assert nongenericity_witness(a) is None
    assert not is_generic(a)


def test_witness_is_smallest():
    # kappa=1 relations (0+0 and 5-5) exist; the lexicographically first is reported
    entries = (
        ((ExactValue.rational(0), 2), (ExactValue.rational(5), 2)),
        ((ExactValue.rational(0), 2), (ExactValue.rational(-5), 2)),
    )
    a = EigenvalueAssignment("additive", entries)
    w = nongenericity_witness(a)
    assert w.kappa == 1
    assert w.sub_multiplicities == ((0, 1), (0, 1))


def test_kappa_one_relation_is_found():
    # trace-balanced n=2 triple {0,1},{0,1},{0,-2}: one value from each entry sums to 0
    entries = tuple(
        ((ExactValue.rational(0), 1), (ExactValue.rational(x), 1)) for x in (1, 1, -2))
    a = EigenvalueAssignment("additive", entries)
    assert trace_condition(a)
    w = nongenericity_witness(a)
    assert w is not None and w.kappa == 1
    assert w.total == ExactValue()
    assert not is_generic(a)


def test_check_guard():
    # a formal candidate is decided by elimination at any n; only the search is capped
    big = series("HG_15")
    a = candidate_assignment(big, "additive")
    assert nongenericity_witness(a) is None and is_generic(a)
    rational = rational_assignment(random.Random(15),
                                   [e.eigenvalue_multiplicities() for e in big.entries])
    with pytest.raises(ResourceLimitError, match="n <= 14"):
        nongenericity_witness(rational)


def test_elimination_guard(monkeypatch):
    # the dense relation system of the HG_15 candidate has 34 rows and 32 slots
    a = candidate_assignment(series("HG_15"), "additive")
    monkeypatch.setattr(genericity, "_MAX_SYSTEM_ENTRIES", 34 * 32)
    assert nongenericity_witness(a) is None
    monkeypatch.setattr(genericity, "_MAX_SYSTEM_ENTRIES", 34 * 32 - 1)
    with pytest.raises(ResourceLimitError, match="34 x 32"):
        nongenericity_witness(a)


def _key(w):
    return None if w is None else (w.kappa, w.sub_multiplicities, (w.total.const, w.total.formal))


def _assignment_pool(rng, tuples):
    """Per random Jordan tuple (n <= 8, 2-4 entries): the candidate in both
    modes with product exponents 0-3, planted kappa = 1 and 2 relations in
    both modes, and a random rational assignment in each mode."""
    for _ in range(tuples):
        t = random_jnf_tuple(rng, rng.randint(2, 8), rng.randint(2, 4))
        mults = [e.eigenvalue_multiplicities() for e in t.entries]
        yield candidate_assignment(t, "additive")
        for exponent in range(4):
            yield candidate_assignment(t, "multiplicative", product_exponent=exponent)
        for kappa in (1, 2):
            for mode in ("additive", "multiplicative"):
                planted = planted_assignment(rng, mults, kappa, mode) if kappa < t.n else None
                if planted is not None:
                    yield planted
        yield rational_assignment(rng, mults)
        yield rational_assignment(rng, mults, "multiplicative", Fraction(rng.randint(0, 3)))


def test_elimination_matches_search_and_naive_oracle(monkeypatch):
    searched = []

    def search(a):
        searched.append(a)
        return _search_witness(a)

    monkeypatch.setattr(genericity, "_search_witness", search)
    rng = random.Random(57)
    outcomes = {True: 0, False: 0}
    compared_naive = 0
    for a in _assignment_pool(rng, 100):
        fell_back = len(searched)
        got = _key(nongenericity_witness(a))
        assert got == _key(_search_witness(a)), a
        if a.n <= 5 and (len(a.entries) < 4 or a.n <= 4):
            assert got == naive_witness(a), a
            compared_naive += 1
        outcomes[len(searched) > fell_back] += 1
    # most inputs are decided by elimination, and the fallback is exercised too
    assert outcomes[False] > 900 and outcomes[True] >= 10 and compared_naive > 400


def test_large_free_boxes_are_enumerated_exactly(monkeypatch):
    # with the fallback forbidden, rational assignments enumerate their whole free box
    def search(a):
        raise AssertionError("fell back to the search")

    monkeypatch.setattr(genericity, "_MAX_FREE_BOX", 10**9)
    monkeypatch.setattr(genericity, "_search_witness", search)
    rng = random.Random(58)
    for _ in range(60):
        n = rng.randint(2, 5)
        mults = [random_partition(rng, n) for _ in range(rng.randint(2, 3))]
        for a in (rational_assignment(rng, mults),
                  rational_assignment(rng, mults, "multiplicative", Fraction(rng.randint(0, 3)))):
            assert _key(nongenericity_witness(a)) == naive_witness(a), a


def test_elimination_matches_closed_form_beyond_search_cap(monkeypatch):
    # candidates past the search's n <= 14 cap, against the closed-form certificate:
    # catalog instances (multiplicity gcd 1) and doubled ones (gcd 2, obstructed
    # additively and for even product exponents)
    monkeypatch.setattr(genericity, "_search_witness", None)
    outcomes = {True: 0, False: 0}
    for sid in all_series_ids(20):
        t = series(str(sid))
        if t.n > 14:
            shapes = [t]
        elif t.n >= 8:
            shapes = [JnfTuple.from_pmv([[2 * m for m in e.eigenvalue_multiplicities()]
                                         for e in t.entries])]
        else:
            continue
        for mode, exponent in [("additive", 1)] + [("multiplicative", e) for e in range(4)]:
            for t in shapes:
                w = nongenericity_witness(candidate_assignment(t, mode, product_exponent=exponent))
                try:
                    generate_generic(t, mode, product_exponent=exponent)
                except ObstructionError as err:
                    assert err.witness == w, (t, mode, exponent)
                else:
                    assert w is None, (t, mode, exponent)
                outcomes[w is None] += 1
    assert min(outcomes.values()) > 50


def test_search_stops_at_half_under_the_trace_condition(monkeypatch):
    # a relation at kappa > n/2 has its complement at n - kappa, so n=6 scans kappa <= 3
    kappas = set()
    subvectors = genericity._weighted_subvectors
    monkeypatch.setattr(genericity, "_weighted_subvectors",
                        lambda entry, kappa: kappas.add(kappa) or subvectors(entry, kappa))
    a = rational_assignment(random.Random(3), [(3, 3), (2, 2, 2), (4, 2)])
    assert trace_condition(a) and _search_witness(a) is None and naive_witness(a) is None
    assert kappas == {1, 2, 3}


def test_search_scans_every_kappa_without_the_trace_condition():
    # values 1(x2),3 / -2(x2),5 sum to 6, so the halved scan does not apply; the
    # only relation, 1 + 3 + 2*(-2) = 0, has kappa 2 > n/2
    a = EigenvalueAssignment("additive", tuple(
        ((ExactValue.rational(x), 2), (ExactValue.rational(y), 1)) for x, y in ((1, 3), (-2, 5))))
    assert not trace_condition(a)
    for w in (nongenericity_witness(a), _search_witness(a)):
        assert (w.kappa, w.sub_multiplicities) == (2, ((1, 1), (2, 0)))
    assert _key(w) == naive_witness(a)


def test_assignment_json_round_trip():
    a = generate_generic(series("HG_3"), "additive")
    data = assignment_to_dict(a)
    assert assignment_from_dict(data) == a


def test_assignment_validation():
    dup = ((ExactValue.rational(1), 1), (ExactValue.rational(1), 2))
    other = ((ExactValue.rational(2), 3),)
    with pytest.raises(ValueError):
        EigenvalueAssignment("additive", (dup, other))
    with pytest.raises(ValueError):
        EigenvalueAssignment("nonsense", (other, other))
