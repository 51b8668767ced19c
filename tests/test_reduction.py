import itertools
import random

import pytest

from dspkit import (
    Jnf,
    JnfTuple,
    PreconditionError,
    Reason,
    check_conditions,
    decide,
    diagonalized,
    parse_pmv,
    partitions_of,
    psi_step,
    solvable_pmv,
)
from helpers import all_jnfs, is_positive_root, random_jnf_tuple, random_pmv


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
    with pytest.raises(PreconditionError):
        psi_step(parse_pmv("(1);(1)"))
    # omega holds here
    with pytest.raises(PreconditionError):
        psi_step(parse_pmv("(1,1,1);(1,1,1);(1,1,1)"))
    # scalar entry present
    with pytest.raises(PreconditionError):
        psi_step(parse_pmv("(2);(1,1);(1,1)"))


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
    rng = random.Random(23)
    for _ in range(150):
        t = random_jnf_tuple(rng, rng.randint(2, 9), rng.randint(2, 4))
        rep = check_conditions(t)
        if rep.omega or not rep.beta or any(e.is_scalar() for e in t.entries):
            continue
        choice_sets = []
        for e in t.entries:
            mx = max(len(s) for s in e.slots)
            choice_sets.append([i for i, s in enumerate(e.slots) if len(s) == mx])
        results = set()
        for pick in itertools.product(*choice_sets):
            out = psi_step(t, slot_choice=lambda j, cands, p=pick: p[j])
            results.add(tuple(sorted(out.entries, reverse=True)))
            assert decide(out).solvable == decide(psi_step(t)).solvable
        if t.is_diagonal:
            assert len(results) == 1


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
