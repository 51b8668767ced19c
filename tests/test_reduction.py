import itertools
import json
import random

import pytest

import dspkit.jnf
import dspkit.reduction
from dspkit import (
    Jnf,
    JnfTuple,
    PreconditionError,
    Reason,
    all_series_ids,
    check_conditions,
    decide,
    parse_pmv,
    psi_step,
    series,
    solvable_pmv,
)
from dspkit.reduction import jnf_tuple_json
from helpers import (
    all_jnfs,
    cut_blocks,
    diagonalized,
    is_positive_root,
    partitions_of,
    random_jnf_tuple,
    random_pmv,
    reference_psi_step,
    shape_fields,
    trace_dict_oracle,
)


def test_conditions_hypergeometric_triple():
    rep = check_conditions(parse_pmv("(2,1);(1,1,1);(1,1,1)"))
    assert rep.alpha and rep.alpha_slack == 0
    assert rep.beta and rep.beta_margins == (1, 0, 0)
    assert not rep.omega and rep.omega_slack == -1


def test_conditions_xi8():
    rep = check_conditions(parse_pmv("(2,2,2,2);(4,4);(4,4);(7,1)"))
    assert rep.alpha_slack == 0


def test_alpha_fails_for_any_third_entry_with_two_half_half():
    for third in partitions_of(8):
        rep = check_conditions(parse_pmv(f"(4,4);(4,4);{'(' + ','.join(map(str, third)) + ')'}"))
        assert not rep.alpha


def test_psi_step_w2_to_b2():
    t = parse_pmv("(3,2,2);(3,2,2);(3,2,2)")
    assert str(psi_step(t)) == "(2,2,1);(2,2,1);(2,2,1)"


def test_psi_step_pi9_to_pi7():
    t = parse_pmv("(2,2,2,2,1);(5,4);(5,4);(8,1)")
    assert str(psi_step(t)) == "(2,2,2,1);(4,3);(4,3);(6,1)"


def test_psi_step_block_rule():
    t = JnfTuple((Jnf.from_blocks([[2, 2]]), Jnf.diagonal((2, 1, 1)), Jnf.diagonal((1, 1, 1, 1))))
    out = psi_step(t)
    assert out.entries[0].slots[0].parts == (2, 1)
    assert out.n == 3


def test_psi_step_preconditions():
    with pytest.raises(PreconditionError, match="size 1"):
        psi_step(parse_pmv("(1);(1)"))
    # omega holds here
    with pytest.raises(PreconditionError, match="omega holds"):
        psi_step(parse_pmv("(1,1,1);(1,1,1);(1,1,1)"))
    # scalar entry present
    with pytest.raises(PreconditionError, match="scalar entries"):
        psi_step(parse_pmv("(2);(1,1);(1,1)"))
    # each entry's partner has rank 1 < n = 2
    with pytest.raises(PreconditionError, match="beta fails"):
        psi_step(parse_pmv("(1,1);(1,1)"))


def test_decide_checks_each_step_once(monkeypatch):
    calls = 0
    check = dspkit.reduction.check_conditions

    def counted(t):
        nonlocal calls
        calls += 1
        return check(t)

    monkeypatch.setattr(dspkit.reduction, "check_conditions", counted)
    rng = random.Random(19)
    tuples = [random_jnf_tuple(rng, rng.randint(2, 12), rng.randint(3, 4)) for _ in range(100)]
    tuples += [JnfTuple.from_pmv(random_pmv(rng, rng.randint(2, 30), rng.randint(3, 5)))
               for _ in range(100)]
    tuples += [series(sid) for sid in all_series_ids(24)]
    for t in tuples:
        calls = 0
        trace = decide(t)
        assert calls == len(trace.steps), t


def test_decide_w_series_chain():
    trace = decide(parse_pmv("(3,2,2);(3,2,2);(3,2,2)"))
    states = [str(s.state) for s in trace.steps]
    assert states == [
        "(3,2,2);(3,2,2);(3,2,2)",
        "(2,2,1);(2,2,1);(2,2,1)",
        "(2,1,1);(2,1,1);(2,1,1)",
        "(1,1);(1,1);(1,1)",
        "(1);(1);(1)",
    ]
    assert trace.verdict.solvable and trace.verdict.reason is Reason.REDUCED_TO_SIZE1


def test_decide_beta_failure_after_one_step():
    # rigid, satisfies beta at size 9, loses beta at the reduced size 7
    t = parse_pmv("(3,2,1,1,1,1);(4,4,1);(4,4,1)")
    trace = decide(t)
    assert not trace.verdict.solvable
    assert trace.verdict.reason is Reason.BETA_FAILS
    assert trace.verdict.at_step == 1
    assert str(trace.steps[1].state) == "(2,1,1,1,1,1);(4,2,1);(4,2,1)"


def test_decide_scalar_drop_mid_reduction():
    # the five-entry series at k=2: first entry turns scalar and is dropped
    t = parse_pmv("(5,3);(6,2);(6,2);(6,2);(6,2)")
    trace = decide(t)
    assert trace.verdict.solvable
    step = trace.steps[1]
    assert step.dropped_scalar_indices == (0,)
    assert str(step.state) == "(2,1);(2,1);(2,1);(2,1)"


def test_decide_alpha_failure_reported_at_start():
    trace = decide(parse_pmv("(4,4);(4,4);(7,1)"))
    assert trace.verdict.reason is Reason.ALPHA_FAILS
    assert trace.verdict.at_step == 0


def test_decide_degenerate_inputs():
    assert decide(parse_pmv("(3);(3)")).verdict.reason is Reason.DEGENERATE_INPUT
    assert decide(parse_pmv("(3);(3);(2,1)")).verdict.reason is Reason.DEGENERATE_INPUT
    # size 1 is solvable by definition
    assert decide(parse_pmv("(1);(1);(1)")).verdict.reason is Reason.REDUCED_TO_SIZE1


def test_decide_omega_immediately():
    trace = decide(parse_pmv("(1,1,1);(1,1,1);(1,1,1)"))
    assert trace.verdict.solvable and trace.verdict.reason is Reason.OMEGA_HOLDS
    assert len(trace.steps) == 1


def test_input_scalars_dropped_at_step_zero():
    t = parse_pmv("(2);(1,1);(1,1);(1,1)")
    trace = decide(t)
    assert trace.steps[0].dropped_scalar_indices == (0,)
    assert trace.verdict.solvable


def test_defect_constant_along_traces():
    rng = random.Random(11)
    seen = 0
    while seen < 200:
        t = random_jnf_tuple(rng, rng.randint(2, 10), rng.randint(2, 4))
        trace = decide(t)
        defects = {2 * s.n * s.n - (s.report.alpha_slack + 2 * s.n * s.n - 2)
                   for s in trace.steps}
        assert len(defects) == 1
        assert len(trace.steps) <= t.n + 1  # size strictly decreases per step
        if len(trace.steps) > 1:
            seen += 1


def test_tie_breaking_does_not_change_verdict_or_diagonal_result():
    # draw (every other tuple diagonal) until 100 tuples are stepped, at least 50
    # of them with a tie between maximal slots and 20 of those diagonal, so the
    # claim does not rest on a handful of tuples
    rng = random.Random(23)
    stepped = ties = diagonal_ties = 0
    while stepped < 100 or ties < 50 or diagonal_ties < 20:
        n, entries = rng.randint(2, 9), rng.randint(2, 4)
        t = (JnfTuple.from_pmv(random_pmv(rng, n, entries)) if stepped % 2
             else random_jnf_tuple(rng, n, entries))
        rep = check_conditions(t)
        if rep.omega or not rep.beta or any(e.is_scalar() for e in t.entries):
            continue
        raw = _raw(t)
        choice_sets = []
        for entry in raw:
            mx = max(len(slot) for slot in entry)
            choice_sets.append([i for i, slot in enumerate(entry) if len(slot) == mx])
        verdict = decide(psi_step(t)).solvable
        results = set()
        for pick in itertools.product(*choice_sets):
            out = JnfTuple(tuple(Jnf.from_blocks(entry)
                                 for entry in reference_psi_step(raw, pick)))
            results.add(tuple(sorted(out.entries, reverse=True)))
            assert decide(out).solvable == verdict
        if t.is_diagonal:
            assert len(results) == 1
        tie = any(len(c) > 1 for c in choice_sets)
        stepped += 1
        ties += tie
        diagonal_ties += tie and t.is_diagonal


def _raw(t: JnfTuple) -> list[list[tuple[int, ...]]]:
    return [[s.parts for s in e.slots] for e in t.entries]


def test_decide_states_equal_eagerly_built_states():
    # each state of decide, held as vectors, against the state built eagerly from the
    # input's blocks by reference_psi_step and Jnf.from_blocks, dropped entries removed
    rng = random.Random(47)
    tuples = [random_jnf_tuple(rng, rng.randint(1, 12), rng.randint(2, 5)) for _ in range(300)]
    tuples += [JnfTuple.from_pmv(random_pmv(rng, rng.randint(1, 12), rng.randint(2, 5)))
               for _ in range(300)]
    tuples += [series(sid) for sid in all_series_ids(40)]
    states = jordan = 0
    for t in tuples:
        trace = decide(t)
        blocks = _raw(t)
        for i, step in enumerate(trace.steps):
            if not (trace.verdict.reason is Reason.DEGENERATE_INPUT and i == len(trace.steps) - 1):
                blocks = [e for j, e in enumerate(blocks) if j not in step.dropped_scalar_indices]
            got, want = step.state, JnfTuple(tuple(Jnf.from_blocks(e) for e in blocks))
            # text and JSON first: they are written from the vectors, before any shape
            assert (str(got), jnf_tuple_json(got)) == (str(want), jnf_tuple_json(want))
            assert (got.n, got.is_diagonal) == (want.n, want.is_diagonal)
            if want.is_diagonal:
                assert got.pmv() == want.pmv()
            else:
                with pytest.raises(ValueError):
                    got.pmv()
            assert got == want and hash(got) == hash(want)
            assert list(map(shape_fields, got.entries)) == list(map(shape_fields, want.entries))
            if i + 1 < len(trace.steps):
                blocks = reference_psi_step(blocks)
            states += 1
            jordan += not want.is_diagonal
    assert states > 10000 and jordan > 250


def test_psi_step_matches_reference_step():
    # the step on vectors against a from-scratch step on raw block lists
    rng = random.Random(31)
    stepped = 0
    while stepped < 600:
        t = random_jnf_tuple(rng, rng.randint(2, 12), rng.randint(2, 5))
        raw = _raw(t)
        want = reference_psi_step(raw)
        if want is None:
            with pytest.raises(PreconditionError):
                psi_step(t)
            continue
        assert _raw(psi_step(t)) == want, t
        stepped += 1


def test_diagonal_cut_matches_the_block_cut():
    # the step on a shape's vector against the cut on its block sizes, for every shape
    # with n <= 10, diagonal or not, and every k up to the most blocks of one slot
    step = dspkit.reduction._step
    cases = diagonal = 0
    for n in range(1, 11):
        for e in all_jnfs(n):
            count = n - e.r
            chosen = next(i for i, s in enumerate(e.slots) if len(s.parts) == count)
            for k in range(1, count + 1):
                if e.r == 0 and k == n:
                    continue  # nothing would be left: not a shape
                vec = step(JnfTuple._of_vectors((e._vec,), n, e.is_diagonal), k)._vecs[0]
                got = dspkit.jnf._shape(vec)
                assert shape_fields(got) == shape_fields(cut_blocks(e, chosen, k)), (e, k)
                assert vec == got._vec, (e, k)
                cases += 1
                diagonal += e.is_diagonal
    assert (cases, diagonal) == (5105, 527)
    for vec in ((2, 1), ((2, 1), 1)):  # a diagonal and a Jordan entry of 2 blocks at most
        with pytest.raises(RuntimeError, match="^block bound broken"):
            step(JnfTuple._of_vectors((vec, vec), 3, type(vec[0]) is int), 3)


def test_decide_traces_do_not_depend_on_cache_state():
    rng = random.Random(37)
    tuples = [random_jnf_tuple(rng, rng.randint(2, 12), rng.randint(2, 5)) for _ in range(300)]
    tuples += [series(sid) for sid in all_series_ids(24)]
    caches = (dspkit.partitions._entry_record, dspkit.jnf._shape)

    def dumped(t):
        return dspkit.reduction.trace_json(decide(t))

    cold = []
    for t in tuples:
        for cache in caches:
            cache.cache_clear()
        cold.append(dumped(t))
    # catalog chains share suffixes, so this pass hits texts of earlier instances
    assert [dumped(t) for t in tuples] == cold
    assert [dumped(t) for t in reversed(tuples)] == cold[::-1]  # repeated, other order


def test_step_and_slot_caches_stay_bounded():
    caches = (dspkit.partitions._entry_record, dspkit.jnf._shape)
    for cache in caches:
        cache.cache_clear()
    rng = random.Random(41)
    seen = set()
    while len(seen) < 3000:
        if rng.random() < 0.5:
            t = random_jnf_tuple(rng, rng.randint(2, 12), rng.randint(2, 5))
        else:
            t = JnfTuple.from_pmv(random_pmv(rng, rng.randint(2, 30), rng.randint(3, 5)))
        if t not in seen:
            seen.add(t)
            dspkit.reduction.trace_json(decide(t))
    for m in range(1, 2 * dspkit.partitions._entry_record.cache_info().maxsize):
        dspkit.reduction.jnf_tuple_json(JnfTuple.from_pmv([(m, 1), (m, 1)]))
    for raw in itertools.product(range(1, 30), repeat=3):
        Jnf.diagonal(raw)
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize is not None and info.misses > info.maxsize
        assert info.currsize <= info.maxsize
    # one shape per vector while the table holds it, whatever order it is given in;
    # a shape builds its vector once
    a = Jnf.diagonal((3, 2))
    assert Jnf.diagonal([2, 0, 3]) is a is Jnf.diagonal(a.multiplicity_vector())
    assert a.multiplicity_vector() is a.multiplicity_vector()


def _writes_its_oracle(t):
    trace = decide(t)
    want = trace_dict_oracle(trace)
    assert (dspkit.reduction.trace_json(trace)
            == json.dumps(want, sort_keys=True, separators=(",", ":"))), t
    assert json.loads(dspkit.reduction.trace_json(trace)) == want, t
    return trace


def test_trace_json_matches_the_dict_oracle():
    for sid in all_series_ids(60):
        _writes_its_oracle(series(sid))
    rng = random.Random(43)
    dropped = jordan = 0
    for _ in range(300):
        for t in (JnfTuple.from_pmv(random_pmv(rng, rng.randint(1, 30), rng.randint(2, 5))),
                  random_jnf_tuple(rng, rng.randint(1, 12), rng.randint(2, 5))):
            steps = _writes_its_oracle(t).steps
            dropped += any(s.dropped_scalar_indices for s in steps)
            jordan += any(not s.state.is_diagonal for s in steps)
    assert dropped > 50 and jordan > 50
    reasons = {_writes_its_oracle(parse_pmv(text)).verdict.reason for text in (
        "(2,1);(1,1,1);(1,1,1)", "(4,4);(4,4);(7,1)", "(3,2,1,1,1,1);(4,4,1);(4,4,1)",
        "(1,1,1);(1,1,1);(1,1,1)", "(3);(3);(2,1)")}
    assert reasons == set(Reason)
    # Jordan states carry no "pmv" key; the scalar third entry is dropped at step 0
    t = JnfTuple((Jnf.from_blocks([[2, 1], [1, 1]]), Jnf.from_blocks([[3, 1], [1]]),
                  Jnf.diagonal((5,)), Jnf.diagonal((3, 1, 1))))
    steps = json.loads(dspkit.reduction.trace_json(_writes_its_oracle(t)))["steps"]
    assert steps[0]["dropped"] == [2] and len(steps[0]["state"]["entries"]) == 3
    assert ["pmv" in step for step in steps] == [False, False, True, True]
    assert [step["n1"] for step in steps] == [3, 2, 1, None]


def test_solvable_pmv_agrees_with_decide():
    rng = random.Random(5)
    for _ in range(400):
        pmv = random_pmv(rng, rng.randint(1, 10), rng.randint(2, 5))
        assert solvable_pmv(pmv) == decide(JnfTuple.from_pmv(pmv)).solvable


def test_solvable_pmv_matches_root_oracle_exhaustive():
    # every diagonal tuple with n <= 9 and 2-4 entries, against Kac's root test
    count = 0
    for n in range(1, 10):
        pool = list(partitions_of(n))
        for entries in range(2, 5):
            for pmv in itertools.combinations_with_replacement(pool, entries):
                assert solvable_pmv(pmv) == is_positive_root(pmv), pmv
                count += 1
    assert count == 66973


def test_class_dimension_is_at_least_n_times_rank():
    # d >= n * r, so omega implies alpha: solvable_pmv needs no alpha test
    shapes = [j for n in range(1, 11) for j in all_jnfs(n)]
    assert all(j.d >= j.n * j.r for j in shapes)
    assert len(shapes) == 1684 and sum(j.is_diagonal for j in shapes) == 138


def test_decide_matches_root_oracle_on_jordan_tuples_exhaustive():
    # every 2- and 3-entry tuple of shapes with n <= 5, non-diagonal ones
    # included, against Kac's root test on the corresponding diagonal tuple
    count = 0
    for n in range(1, 6):
        shapes = all_jnfs(n)
        for entries in (2, 3):
            for combo in itertools.combinations_with_replacement(shapes, entries):
                t = JnfTuple(combo)
                assert decide(t).solvable == is_positive_root(diagonalized(t).pmv()), t
                count += 1
    assert count == 4792


def test_u2_equivalence_small():
    # first vector with parts <= 2: solvable iff alpha and beta
    for n in range(2, 9):
        firsts = [p for p in partitions_of(n, 2) if len(p) > 1]
        others = [p for p in partitions_of(n) if len(p) > 1]
        for first in firsts:
            for pair in itertools.combinations_with_replacement(others, 2):
                t = (first, *pair)
                rep = check_conditions(JnfTuple.from_pmv(t))
                assert solvable_pmv(t) == (rep.alpha and rep.beta)


def test_crosscheck_examples():
    t1 = JnfTuple((Jnf.from_blocks([[2, 2]]), Jnf.from_blocks([[2, 2]]),
                   Jnf.from_blocks([[3, 1]])))
    t2 = JnfTuple((Jnf.diagonal((2, 2, 2)), Jnf.diagonal((2, 2, 2)),
                   Jnf.from_blocks([[3, 2, 1]])))
    for t in (t1, t2, parse_pmv("(2,2);(2,2);(2,1,1)")):
        assert decide(t).solvable == decide(diagonalized(t)).solvable
