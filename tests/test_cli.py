import collections
import hashlib
import importlib
import inspect
import json
import os
import random
import time

import pytest

import dspkit
from dspkit.catalog import all_series_ids, defect, series
from dspkit.cli import _defect, main
from dspkit.genericity import (
    ExactValue,
    assignment_from_dict,
    assignment_to_dict,
    candidate_assignment,
    trace_condition,
)
from dspkit.jnf import Jnf, JnfTuple
from dspkit.reduction import Reason, decide
from helpers import (fresh_python, random_jnf_tuple, random_pmv, rational_assignment,
                     reference_psi_step)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_text(capsys):
    code, out, err = run(capsys, "decide", "(2,2,3);(2,2,3);(2,2,3)")
    assert code == 0
    assert "Solvable" in out and "W_2" in out
    assert "normalized" in err  # input was unsorted
    code, out, err = run(capsys, "decide", "(3,2,2);(3,2,2);(3,2,2)")
    assert code == 0 and "W_2" in out
    assert "normalized" not in err  # canonical input


def test_decide_json_deterministic(capsys):
    code, out1, _ = run(capsys, "decide", "(3,2,2);(3,2,2);(3,2,2)", "--json")
    assert code == 0
    code, out2, _ = run(capsys, "decide", "(3,2,2);(3,2,2);(3,2,2)", "--json")
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["verdict"]["solvable"] is True
    assert payload["chain"][0] == ["W_2"]
    assert payload["defect"] == 2


def test_decide_not_solvable_exits_zero(capsys):
    code, out, _ = run(capsys, "decide", "(4,4);(4,4);(7,1)", "--json")
    assert code == 0
    assert json.loads(out)["verdict"]["reason"] == "AlphaFails"


def test_decide_jnf_json_input(capsys):
    blob = json.dumps({"n": 4, "entries": [
        {"eigenvalues": [[2, 2]]}, {"eigenvalues": [[1, 1], [1], [1]]},
        {"eigenvalues": [[1], [1], [1], [1]]}]})
    code, out, _ = run(capsys, "decide", "--jnf", blob, "--json")
    assert code == 0
    assert json.loads(out)["verdict"]["solvable"] is True


def test_decide_batch_file(tmp_path, capsys):
    path = tmp_path / "batch.jsonl"
    path.write_text('"(2,1);(1,1,1);(1,1,1)"\n"(4,4);(4,4);(7,1)"\n'
                    '"(1,2,2);(3,2);(4,1)"\n"(2,2,1);(3,2);(4,1)"\n', encoding="utf-8")
    code, out, _ = run(capsys, "decide", "--file", str(path))
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert [l["verdict"]["solvable"] for l in lines[:2]] == [True, False]
    assert lines[2] == lines[3]  # unsorted input is normalized


def test_decide_batch_file_bad_line_continues(tmp_path, capsys):
    path = tmp_path / "batch.jsonl"
    path.write_text('"(2,1);(1,1,1);(1,1,1)"\n"(2,2;(3)"\n\n{"entries": 5}\n'
                    '"(4,4);(4,4);(7,1)"\n', encoding="utf-8")
    code, out, _ = run(capsys, "decide", "--file", str(path))
    assert code == 2
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 4
    assert lines[0]["verdict"]["solvable"] is True
    assert [l["line"] for l in lines[1:3]] == [2, 4] and all(l["error"] for l in lines[1:3])
    assert lines[3]["verdict"]["reason"] == "AlphaFails"


def _random_parts(rng, n):
    out = []
    while n:
        out.append(rng.randint(1, n))
        n -= out[-1]
    return out  # left unsorted: the reader normalizes


def _pmv_line(mvs):
    return json.dumps(";".join("(" + ",".join(map(str, mv)) + ")" for mv in mvs))


def _diagonal_line(rng, n):
    return _pmv_line([_random_parts(rng, n) for _ in range(rng.randint(3, 5))])


def _jordan_line(rng, n):
    return json.dumps({"n": n, "entries": [
        {"eigenvalues": [_random_parts(rng, s) for s in _random_parts(rng, n)]}
        for _ in range(rng.randint(3, 4))]})


def _catalog_line(rng, name):
    mvs = [list(mv) for mv in series(name).pmv()]
    rng.shuffle(mvs)
    return _pmv_line(mvs)


def _pinned_batch() -> list[str]:
    """A fixed ``decide --file`` input: hand-picked verdicts, seeded random diagonal
    and Jordan lines, catalog instances with shuffled entries, one malformed line."""
    rng = random.Random(19)
    lines = [_pmv_line(mvs) for mvs in (
        [[1], [1]], [[2, 1], [1, 1, 1], [1, 1, 1]], [[4, 4], [4, 4], [7, 1]],
        [[3, 2, 1, 1, 1, 1], [4, 4, 1], [4, 4, 1]], [[2], [1, 1], [1, 1]],
        [[3], [2, 1], [1, 1, 1]], [[1, 1, 1]] * 3)]
    lines += [_diagonal_line(rng, n) for n in (rng.randint(2, 24) for _ in range(30))]
    lines += [_jordan_line(rng, n) for n in (rng.randint(2, 12) for _ in range(15))]
    lines += [_catalog_line(rng, name) for name in (
        "W_4", "HG_9", "Lambda_12", "T_3", "Star_5", "Psi6", "Xi_10", "OG_4", "Gamma1_10",
        "Z2_9", "R_5", "P_3")]
    lines.insert(20, '"(2,2;(3)"')
    return lines


def test_decide_batch_file_is_byte_stable(tmp_path, capsys):
    path = tmp_path / "batch.jsonl"
    path.write_text("\n".join(_pinned_batch()) + "\n", encoding="utf-8")
    # twice in one process, with whatever the first run left in the caches
    for _ in range(2):
        code, out, _ = run(capsys, "decide", "--file", str(path))
        assert code == 2
        assert (hashlib.sha256(out.encode()).hexdigest()
                == "24fc3f240fcc0beca9fc71d45dc6e6475e921fa16ca213bd85884e004a575584")


def test_decide_batch_file_makes_the_same_calls_cold_and_warm(tmp_path, capsys, monkeypatch):
    # every public function of these modules, and JnfTuple.from_pmv, counted wherever it
    # is looked up, as perfbench's traced passes count them: a call made only on a
    # cache miss would make the counts of a cold and a warm run differ
    mods = [importlib.import_module(f"dspkit.{name}")
            for name in ("partitions", "jnf", "reduction", "catalog")]
    calls = collections.Counter()

    def counted(label, fn):
        def wrapper(*args, **kwargs):
            calls[label] += 1
            return fn(*args, **kwargs)
        return wrapper

    wrappers = {obj: counted(f"{mod.__name__}.{attr}", obj) for mod in mods
                for attr, obj in vars(mod).items()
                if not attr.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__}
    for mod in [dspkit, *mods, importlib.import_module("dspkit.cli"),
                importlib.import_module("dspkit.genericity")]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                monkeypatch.setattr(mod, attr, wrappers[obj])
    from_pmv = JnfTuple.__dict__["from_pmv"].__func__
    monkeypatch.setattr(JnfTuple, "from_pmv", classmethod(counted("from_pmv", from_pmv)))
    path = tmp_path / "batch.jsonl"
    path.write_text("\n".join(_pinned_batch()) + "\n", encoding="utf-8")
    for mod in mods:
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    runs = []
    for _ in range(2):
        calls.clear()
        runs.append((run(capsys, "decide", "--file", str(path)), dict(calls)))
    assert runs[0] == runs[1]
    counts = runs[0][1]
    assert counts["dspkit.catalog.identify"] == sum(
        len(json.loads(line)["steps"]) for line in runs[0][0][1].splitlines()
        if "steps" in json.loads(line))
    assert counts["dspkit.reduction.decide"] == len(_pinned_batch()) - 1
    assert counts["from_pmv"] > 0 and counts["dspkit.partitions.sorted_parts"] > 0


def _input_blocks(line: str) -> list[list[tuple[int, ...]]]:
    """A ``decide --file`` line's tuple as per-entry block lists in canonical slot
    order, read without dspkit: a vector's slots are all-ones, one per multiplicity."""
    item = json.loads(line)
    if isinstance(item, str):
        slots = [[[1] * m for m in map(int, seg.strip("()").split(","))]
                 for seg in item.split(";")]
    else:
        slots = [e["eigenvalues"] for e in item["entries"]]
    return [sorted((tuple(sorted(filter(None, s), reverse=True)) for s in entry), reverse=True)
            for entry in slots]


def _audit_trace(blocks, payload):
    """Check one ``decide --json`` payload from its text alone: step 0's state is the
    input and each later one ``reference_psi_step`` of the state before it, the
    step's ``dropped`` scalar entries removed (the state a ``DegenerateInput``
    verdict stops at keeps them); sizes, ``n1`` and ``at_step`` agree."""
    steps, verdict = payload["steps"], payload["verdict"]
    assert verdict["at_step"] == len(steps) - 1
    produced = blocks
    for i, step in enumerate(steps):
        n, dropped = step["n"], step["dropped"]
        assert all(produced[j] == [(1,) * n] for j in dropped), (i, dropped)
        want = produced
        if not (verdict["reason"] == "DegenerateInput" and i == len(steps) - 1):
            want = [entry for j, entry in enumerate(produced) if j not in dropped]
        state = [[tuple(s) for s in e["eigenvalues"]] for e in step["state"]["entries"]]
        assert state == want, i
        assert n == step["state"]["n"] == sum(map(sum, state[0]))
        if i + 1 < len(steps):
            produced = reference_psi_step(state)
            assert produced is not None and step["n1"] == steps[i + 1]["n"], i
        else:
            assert step["n1"] is None


def test_decide_traces_pass_a_text_audit(tmp_path, capsys):
    # a seeded mixed batch (half diagonal, a quarter Jordan, a quarter shuffled catalog
    # instances) and every catalog instance to n=60
    rng = random.Random(53)
    catalog = list(all_series_ids(60))
    lines = ([_diagonal_line(rng, rng.randint(2, 30)) for _ in range(250)]
             + [_jordan_line(rng, rng.randint(2, 16)) for _ in range(125)]
             + [_catalog_line(rng, rng.choice(catalog)) for _ in range(125)])
    rng.shuffle(lines)
    lines += [_pmv_line(series(sid).pmv()) for sid in catalog]
    path = tmp_path / "batch.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "decide", "--file", str(path))
    payloads = out.splitlines()
    assert code == 0 and len(payloads) == len(lines) == 500 + 1134
    reasons = collections.Counter()
    for line, payload in zip(lines, map(json.loads, payloads)):
        _audit_trace(_input_blocks(line), payload)
        reasons[payload["verdict"]["reason"]] += 1
    assert len(reasons) == 5  # every kind of verdict is audited


def test_trace_jordan_json_is_byte_stable(capsys):
    # four steps through Jordan states, with the scalar third entry dropped
    blob = json.dumps({"n": 5, "entries": [
        {"eigenvalues": [[2, 1], [1, 1]]}, {"eigenvalues": [[3, 1], [1]]},
        {"eigenvalues": [[1, 1, 1, 1, 1]]}, {"eigenvalues": [[1, 1, 1], [1], [1]]}]})
    code, out, _ = run(capsys, "trace", "--jnf", blob, "--json")
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "1aec2e1501116c0ab02882165a0d43809a7e496f2e6aab982eb466c0e1c6bccb")


_JORDAN = json.dumps({"n": 5, "entries": [
    {"eigenvalues": [[2, 1], [1, 1]]}, {"eigenvalues": [[3, 1], [1]]},
    {"eigenvalues": [[1, 1, 1, 1, 1]]}, {"eigenvalues": [[1, 1, 1], [1], [1]]}]})


@pytest.mark.parametrize("argv, digest", [
    # Jordan states, the scalar third entry dropped at step 0
    (["trace", "--jnf", _JORDAN],
     "da50c1d69f1e99a1eee50653446e638f07c5820a2b018b306fd9b351c7adccd8"),
    # E_3, a diagonal catalog instance named at every step
    (["trace", "(3,3,3,2);(3,3,3,2);(6,5)"],
     "a67be299dd4952054859d9adf92319978022bb1629885ca445944b8621da4401"),
    (["decide", "--jnf", _JORDAN],
     "8ba359c1e64bd75f0a9ccb3cead9f00d38a095392e6692d2776a080bc6f707ed"),
    (["decide", "(3,3,3,2);(3,3,3,2);(6,5)"],
     "00e53ba631c95a51cb5f50beaeafa812138ae2fad640277ef95d9b37a0182818"),
    (["decide", "(4,4);(4,4);(7,1)"],
     "026511aebe55499a67923bb21ff8787bc23b52f621c16972779039abcea1e59a"),
    (["decide", "(1,1,1);(1,1,1);(1,1,1)"],
     "f58b29f0852e5cd2dcc433966b6af04712dff57773e71746af8ee13af4f9c505"),
    # beta fails at step 0, with a negative margin
    (["trace", "(3,1);(3,1);(3,1);(1,1,1,1)"],
     "897f7f0475b9a486faae21788cc9767ef686c03f1ec9b612eb1533812132b3d4"),
    # the scalar first entry dropped, then alpha fails
    (["trace", "(2);(1,1);(1,1)"],
     "aa58ded5afef74b9f507ed56839f3091bace0f8409295a15c704310c396a0f75"),
])
def test_text_output_is_byte_stable(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_long_diagonal_chain_is_byte_stable(capsys):
    # HG_60 = (59,1);(1^60);(1^60) steps through every size down to 1, each state
    # diagonal and named, so this pins the diagonal build, cut and naming across 60 sizes
    ones = "(" + ",".join(["1"] * 60) + ")"
    code, out, _ = run(capsys, "decide", f"(59,1);{ones};{ones}", "--json")
    assert code == 0 and json.loads(out)["chain"][-1] == ["D_0", "HG_1", "H_0", "W_0"]
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "536fb9038d495560c465b93376cd0b29e741ad22cd6b4e0afdb7d183e1fff042")


def test_decide_tuple_with_file_exits_2(tmp_path, capsys):
    path = tmp_path / "batch.jsonl"
    path.write_text('"(2,1);(1,1,1);(1,1,1)"\n', encoding="utf-8")
    for tup in (["(1,1);(1,1);(1,1)"], ["--jnf", '{"entries":[{"eigenvalues":[[1]]},'
                                                 '{"eigenvalues":[[1]]}]}']):
        code, out, err = run(capsys, "decide", *tup, "--file", str(path))
        assert code == 2 and not out, tup
        assert err.startswith("error: ") and len(err.splitlines()) == 1, tup


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "decide", "2,2,3")
    assert code == 2 and err


def test_wrong_json_shape_exits_2(capsys):
    for argv in (["generic-check", "[1]"],
                 ["generic-check", '{"mode":"additive","entries":5}'],
                 ["generic-check", '{"mode":"additive","entries":[[{"coeffs":5,"mult":1}],'
                                   '[{"coeffs":{},"mult":1}]]}'],
                 # t01 is not a key the output writes; read as t1 it named t1 twice
                 ["generic-check", '{"mode":"additive","entries":[[{"coeffs":{"1":"5"},"mult":1},'
                                   '{"coeffs":{"t1":"1","t01":"-1"},"mult":1}],'
                                   '[{"coeffs":{"1":"-5"},"mult":1},{"coeffs":{},"mult":1}]]}'],
                 ["decide", "--jnf", "5"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out, argv
        assert err.startswith("error: ") and len(err.splitlines()) == 1, argv


def test_the_size_cap_holds_for_every_entry_in_every_input_form(tmp_path, capsys):
    # a Jordan entry's slots of 6,000 each fit the cap; the entry of 12,000 does not
    big = json.dumps({"entries": [{"eigenvalues": [[6000], [6000]]}] * 3})
    cap = "error: partition size 12000 exceeds the cap 10000\n"
    for argv in (["decide", "--jnf", big], ["defect", "--jnf", big], ["trace", "--jnf", big],
                 ["decide", "(6000,6000);(6000,6000);(6000,6000)"],
                 ["dual", "--jnf", json.dumps({"eigenvalues": [[6000], [6000]]})]):
        assert run(capsys, *argv) == (2, "", cap), argv[:2]
    path = tmp_path / "batch.jsonl"
    path.write_text(big + '\n"(6000,6000);(6000,6000);(6000,6000)"\n', encoding="utf-8")
    code, out, _ = run(capsys, "decide", "--file", str(path))
    assert code == 2
    assert [json.loads(line) for line in out.splitlines()] == [
        {"line": line, "error": cap[7:-1]} for line in (1, 2)]
    # an entry of exactly the cap is still decided
    edge = json.dumps({"entries": [{"eigenvalues": [[5000], [5000]]}] * 3})
    assert run(capsys, "defect", "--jnf", edge)[:2] == (0, "defect: -99970000 (not rigid)\n")


def _jnf(first_slot, n=None):
    blob = {"entries": [{"eigenvalues": [first_slot, [1]]},
                        {"eigenvalues": [[1], [1]]}, {"eigenvalues": [[1], [1]]}]}
    if n is not None:
        blob["n"] = n
    return json.dumps(blob)


def _assignment(mult=1, coeff="1"):
    return json.dumps({"mode": "additive", "entries": [
        [{"coeffs": {"1": coeff}, "mult": mult}, {"coeffs": {"1": "-1"}, "mult": 1}],
        [{"coeffs": {}, "mult": 2}]]})


@pytest.mark.parametrize("argv", [
    ["decide", "--jnf", _jnf([1.7])],
    ["decide", "--jnf", _jnf(["1"])],
    ["decide", "--jnf", _jnf([True])],
    ["decide", "--jnf", _jnf([1], n=2.9)],
    ["generic-check", _assignment(mult=1.9)],
    ["generic-check", _assignment(mult="1")],
    ["generic-check", _assignment(mult=True)],
    ["generic-check", _assignment(coeff=0.1)],
    ["generic-check", _assignment(coeff=True)],
    ["generic-check", _assignment(coeff="1/0")],
], ids=["fractional-block", "string-block", "true-block", "fractional-n", "fractional-mult",
        "string-mult", "true-mult", "float-coeff", "true-coeff", "zero-denominator-coeff"])
def test_non_integer_numbers_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def _keyed_assignment(key):
    return json.dumps({"mode": "additive", "entries": [
        [{"coeffs": {key: "1"}, "mult": 1}, {"coeffs": {"1": "1"}, "mult": 1}],
        [{"coeffs": {key: "-1"}, "mult": 1}, {"coeffs": {"1": "-1"}, "mult": 1}]]})


@pytest.mark.parametrize("key", ["t01", "t+1", "t 1", "t-1", "t1_0", "t\u0661", "t", "T1"])
def test_malformed_coefficient_key_exits_2(capsys, key):
    code, out, err = run(capsys, "generic-check", _keyed_assignment(key))
    assert code == 2 and not out
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_coefficient_keys_round_trip(capsys):
    coeffs = {"1": "1/2", "t0": "3", "t1": "-1", "t10": "2/7", "t123": "5"}
    assert ExactValue.from_coeff_dict(coeffs).to_coeff_dict() == coeffs
    for key in ("t0", "t7", "t10", "t123"):
        code, out, _ = run(capsys, "generic-check", _keyed_assignment(key), "--json")
        assert code == 0 and json.loads(out)["trace_condition"] is True, key


def test_int_coefficient_is_accepted(capsys):
    code, out, _ = run(capsys, "generic-check", _assignment(coeff=1), "--json")
    assert code == 0 and json.loads(out)["trace_condition"] is True


def test_decide_batch_file_fractional_block_is_reported_in_place(tmp_path, capsys):
    path = tmp_path / "batch.jsonl"
    path.write_text("\n".join(['"(1,1);(1,1);(1,1)"', _jnf([1.7]), _jnf([1])]) + "\n",
                    encoding="utf-8")
    code, out, _ = run(capsys, "decide", "--file", str(path))
    assert code == 2
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 3
    assert set(lines[1]) == {"error", "line"} and lines[1]["line"] == 2
    assert lines[0] == lines[2] and lines[0]["verdict"]["solvable"] is True


def test_missing_json_key_is_named(tmp_path, capsys):
    code, _, err = run(capsys, "decide", "--jnf", '{"n":3}')
    assert code == 2 and err.strip() == "error: missing key 'entries'"
    code, _, err = run(capsys, "decide", "--jnf", '{"entries":[{}, {}]}')
    assert code == 2 and err.strip() == "error: missing key 'eigenvalues'"
    path = tmp_path / "batch.jsonl"
    path.write_text('{"n":3}\n', encoding="utf-8")
    code, out, _ = run(capsys, "decide", "--file", str(path))
    assert code == 2 and json.loads(out) == {"line": 1, "error": "missing key 'entries'"}


def test_trace_text(capsys):
    code, out, _ = run(capsys, "trace", "(3,2,2);(3,2,2);(3,2,2)")
    assert code == 0
    assert "step 0" in out and "omega slack" in out


def test_decide_reads_the_input_defect_from_its_first_step():
    # the first state keeps the input's size, and the scalar entries dropped from it have
    # d = 0, so its alpha slack gives the input's defect
    rng = random.Random(47)
    tuples = [JnfTuple.from_pmv([(2, 1), (3,), (3,)]), JnfTuple.from_pmv([(4,), (4,)]),
              JnfTuple.from_pmv([(1,), (1,), (1,)])]
    for i in range(600):
        n, count = rng.randint(1, 10), rng.randint(2, 5)
        if i % 2:
            t = random_jnf_tuple(rng, n, count)
        else:
            t = JnfTuple.from_pmv(random_pmv(rng, n, count))
        tuples.append(JnfTuple(t.entries + (Jnf.diagonal((n,)),) * rng.randint(0, 2)))
    reasons, dropped = set(), 0
    for t in tuples:
        trace = decide(t)
        assert _defect(trace) == defect(t), t
        reasons.add(trace.verdict.reason)
        dropped += bool(trace.steps[0].dropped_scalar_indices)
    assert reasons == set(Reason) and dropped > 100


def test_defect_command(capsys):
    code, out, _ = run(capsys, "defect", "(2,2,2,2);(4,4);(4,4);(7,1)", "--json")
    assert code == 0
    assert json.loads(out) == {"defect": 2, "n": 8, "rigid": True}


def test_enum_rigid_text_and_json(capsys):
    args = ["enum-rigid", "--n", "11", "--entries", "4", "--u", "2",
            "--no-all-ones", "--no-scalar"]
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert "total: 2" in out and "Pi_11" in out and "Delta_11" in out
    code, out, _ = run(capsys, *args, "--json")
    names = [json.loads(line)["series_names"] for line in out.splitlines()]
    assert names == [["Pi_11"], ["Delta_11"]]


def test_enum_rigid_jobs_determinism(capsys):
    args = ["enum-rigid", "--n", "10", "--entries", "3", "--u", "2",
            "--no-all-ones", "--no-scalar", "--json"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args, "--jobs", "2")
    assert out1 == out2


def test_enum_rigid_resource_guard(capsys):
    # the root of E entries tries 2**E part choices: past the budget, refused before the
    # walk starts (the time bound is loose, for shared hosts; the message shows no walk ran)
    for entries in ("40", "1000000000"):
        start = time.perf_counter()
        code, out, err = run(capsys, "enum-rigid", "--n", "3", "--entries", entries)
        assert time.perf_counter() - start < 10
        assert code == 3 and not out
        assert err == f"error: the root tries 2**{entries} > 10000000 part choices\n"
    # no size guard: the u=2 triples at n=41 run
    code, out, _ = run(capsys, "enum-rigid", "--n", "41", "--entries", "3",
                       "--u", "2", "--no-all-ones", "--no-scalar")
    assert code == 0 and out.endswith("total: 7\n")


def test_enum_rigid_node_budget(capsys, monkeypatch):
    import dspkit.catalog as cat

    # triples at n=8, scalars included, do 4,035 units of work
    monkeypatch.setattr(cat, "MAX_ENUM_WORK", 4034)
    code, out, err = run(capsys, "enum-rigid", "--n", "8", "--entries", "3")
    assert code == 3 and not out
    assert err == "error: the walk to n=8 does > 4034 units of work\n"
    monkeypatch.setattr(cat, "MAX_ENUM_WORK", 4035)
    code, out, _ = run(capsys, "enum-rigid", "--n", "8", "--entries", "3")
    assert code == 0 and out.endswith("total: 45\n")


@pytest.mark.parametrize("u", ["0", "-1"])
def test_enum_rigid_part_bound_below_1_exits_2(capsys, u):
    code, out, err = run(capsys, "enum-rigid", "--n", "5", "--entries", "3", "--u", u)
    assert code == 2 and not out
    assert err == "error: need n >= 1, at least two entries and u >= 1\n"


_CLASSIFY = ["--u", "2", "--no-all-ones", "--no-scalar"]


@pytest.mark.parametrize("args, json_digest, text_digest", [
    (["--n", "22", "--entries", "3", *_CLASSIFY],
     "0d4f8c23649cec00e06ab6a64a8962f3673578fa46a9cae9a5b74a5cb42f3ffd",
     "0bb6f617b28bd54c994436f9480bbbd652836d29fbb515c742834a3e5aceefa1"),
    (["--n", "34", "--entries", "3", *_CLASSIFY],
     "c4b736324c4decfe510537db4f9b2de1110ac81f2b0d889271e15fea7c47dbb7",
     "2f96d0e0a0cd244e5eac12e08e383f8ae7d993551dd604c49b0647a7b56fcc78"),
    (["--n", "14", "--entries", "3", "--no-scalar"],
     "476a2b9da7e12982e97fd72ab7b3dc4ebf3f3aa6f54fa5f9548e0431bd449149",
     "291f7bb9a0cc9551ec3763cbe8c04b0faa3f44ab8bea21653b26bd6f564ac76b"),
    (["--n", "12", "--entries", "4", "--no-scalar"],
     "dfe7f6a2e9dfbfd4db22f408284e4c102b3f511e387c043d418f88745a4faa1b",
     "d3ea53024bc02f2a4afd0393660676b204da18979afda8aa818e71b8ef7b628f"),
])
def test_enum_rigid_output_is_byte_stable(capsys, args, json_digest, text_digest):
    for extra, digest in (["--json"], json_digest), ([], text_digest):
        code, out, _ = run(capsys, "enum-rigid", *args, *extra)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, extra


@pytest.mark.parametrize("entries", ["3", "4"])
def test_enum_rigid_u2_to_n200(capsys, entries):
    # everything at n <= 200 but the sporadic triples at n <= 16 is named; the walk takes
    # about 0.1 s, and the time bound is loose, for shared hosts
    start = time.perf_counter()
    code, out, _ = run(capsys, "enum-rigid", "--n", "200", "--entries", entries,
                       *_CLASSIFY, "--json")
    assert time.perf_counter() - start < 10
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records and all(r["defect"] == 2 and r["series_names"] for r in records)


def test_enum_rigid_rejects_other_defects(capsys):
    code, out, err = run(capsys, "enum-rigid", "--n", "6", "--entries", "3", "--defect", "4")
    assert code == 2 and not out
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_series_and_chain(capsys):
    code, out, _ = run(capsys, "series", "W_2")
    assert code == 0 and out.strip() == "(3,2,2);(3,2,2);(3,2,2)"
    code, out, _ = run(capsys, "chain", "W_2")
    assert code == 0 and out.strip() == "W_2 -> B_2 -> W_1 -> B_1 -> W_0"
    code, out, _ = run(capsys, "chain", "Lambda_12")
    assert code == 0 and out == ("Lambda_12 -> Lambda_10 -> Lambda_8 -> Lambda_6 -> Theta_4"
                                 " -> HG_2 -> HG_1\n")
    code, _, err = run(capsys, "series", "R_1")
    assert code == 2 and err


def test_chain_json_is_byte_stable(capsys):
    code, out, _ = run(capsys, "chain", "Xi_8", "--json")
    assert code == 0
    assert out == ('{"chain":["Xi_8","Pi_7","Pi_5","Pi_3","S_0"],"id":"Xi_8","states":'
                   '["(7,1);(4,4);(4,4);(2,2,2,2)","(6,1);(4,3);(4,3);(2,2,2,1)",'
                   '"(4,1);(3,2);(3,2);(2,2,1)","(2,1);(2,1);(2,1);(2,1)","(1);(1);(1);(1)"]}\n')
    code, out, _ = run(capsys, "chain", "T_1", "--json")
    assert code == 0
    assert out == ('{"chain":["T_1","(1);(1);(1);(1);(1)"],"id":"T_1","states":'
                   '["(3,1);(3,1);(3,1);(3,1);(3,1)","(1);(1);(1);(1);(1)"]}\n')


def test_catalog_verify_chains_json_is_byte_stable(capsys):
    # twice in one process, with whatever the first run left in the caches
    for _ in range(2):
        code, out, _ = run(capsys, "catalog-verify", "--max-n", "30", "--chains", "--json")
        assert code == 0
        assert (hashlib.sha256(out.encode()).hexdigest()
                == "2b0b21c4f2f2b5553988bb46f105e0027239cf5f98e70a1853dee0d15a0663da")


def test_catalog_verify_json_is_byte_stable(capsys):
    for _ in range(2):
        code, out, _ = run(capsys, "catalog-verify", "--max-n", "30", "--json")
        assert code == 0
        assert (hashlib.sha256(out.encode()).hexdigest()
                == "2b0b21c4f2f2b5553988bb46f105e0027239cf5f98e70a1853dee0d15a0663da")


def test_dual_commands(capsys):
    code, out, _ = run(capsys, "dual", "--jnf", '{"eigenvalues":[[4,2,2]]}')
    assert code == 0 and out.strip() == "(3,3,1,1)"
    code, out, _ = run(capsys, "dual", "--partition", "(5,1)")
    assert code == 0 and out.strip() == "(2,1,1,1,1)"
    code, _, _ = run(capsys, "dual")
    assert code == 2


def test_min_d_command(capsys):
    code, out, _ = run(capsys, "min-d", "--n", "7", "--r", "5")
    assert code == 0 and out.strip() == "(2,2,2,1)"


def test_generic_gen_and_check_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "generic-gen", "(1,1);(1,1);(1,1)", "--seed", "2")
    assert code == 0
    path = tmp_path / "assignment.json"
    path.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "generic-check", "--file", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"generic": True, "trace_condition": True, "witness": None}


def test_generic_gen_obstruction(capsys):
    code, _, err = run(capsys, "generic-gen", "(2,2);(2,2);(2,2)")
    assert code == 1 and "gcd" in err
    code, out, err = run(capsys, "generic-gen", "(2,2);(2,2);(2,2)", "--mode", "multiplicative",
                         "--product-exponent", "2")
    assert code == 1 and out == "" and "gcd" in err


def test_generic_gen_is_byte_stable_and_ignores_seed(capsys):
    cases = [
        ([str(series("HG_10"))],
         "b55771392396972c9b7920c7302f045cf68e3e77cf7ffcae86c735f33aab0e78"),
        ([str(series("HG_10")), "--mode", "multiplicative"],
         "7eeb07dd5b5cf7c62c939a1077e437a7f9be6484ba5538559452a34536b34855"),
        ([str(series("Xi_12"))],
         "c3c9547b311851dad2b5a8852d8fab4e42c6e0e9e7db929a9f912e87ce6bb8d7"),
        ([str(series("Xi_12")), "--mode", "multiplicative"],
         "dea506c4b33167f6688e86eb66436d076551bfbdbaf3df5cd3e29bc2bccd6d5b"),
        (["(1,1);(1,1);(1,1)", "--mode", "multiplicative", "--product-exponent", "3"],
         "3cf976097ddcb3602845f9132a3a16ea9097fb823a1902fb2cc028074972ad55"),
    ]
    for argv, digest in cases:
        code, out, _ = run(capsys, "generic-gen", *argv, "--seed", "0")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
        assert run(capsys, "generic-gen", *argv, "--seed", "7919") == (0, out, "")


def test_generic_gen_beyond_search_cap(tmp_path, capsys):
    # generation needs no search, and checking a generated (formal) assignment
    # needs none either, so both work past the search's n <= 14 guard
    for sid in ("HG_15", "Delta_41"):
        code, out, _ = run(capsys, "generic-gen", str(series(sid)))
        assert code == 0
        assert trace_condition(assignment_from_dict(json.loads(out)))
        path = tmp_path / f"{sid}.json"
        path.write_text(out, encoding="utf-8")
        code, out, err = run(capsys, "generic-check", "--file", str(path))
        assert (code, out, err) == (0, "trace condition: True\ngeneric: true\n", ""), sid
    # a random rational assignment still needs the search, which refuses n = 15
    t = series("HG_15")
    a = rational_assignment(random.Random(15), [e.eigenvalue_multiplicities() for e in t.entries])
    code, _, err = run(capsys, "generic-check", json.dumps(assignment_to_dict(a)))
    assert code == 3 and "n <= 14" in err


def test_generic_check_witness(capsys):
    blob = json.dumps({
        "mode": "additive",
        "entries": [
            [{"coeffs": {}, "mult": 2}, {"coeffs": {"1": "1"}, "mult": 2}],
            [{"coeffs": {}, "mult": 2}, {"coeffs": {"1": "-1"}, "mult": 2}],
        ],
    })
    code, out, _ = run(capsys, "generic-check", blob, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["generic"] is False
    assert payload["witness"]["kappa"] == 1


def test_multiplicative_witness_json_is_byte_stable(capsys):
    # the witness total keeps its raw constant: 0 for exponent 0, 1 for exponent 2
    variant = JnfTuple((Jnf.diagonal((2, 2, 2)), Jnf.diagonal((2, 2, 2)),
                        Jnf.from_blocks([[3, 2, 1]])))
    for e, digest in ((0, "b2c248c8c23979c280858b2491fdbd98545a74248db347ca2be6774428df47b4"),
                      (2, "5da86911074a456d1eeb4b655b10d6ae8a2895c734e6f2a807f82791cd6a8732")):
        a = candidate_assignment(variant, "multiplicative", product_exponent=e)
        code, out, _ = run(capsys, "generic-check", json.dumps(assignment_to_dict(a)), "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, e


def test_generic_check_trace_condition_failure(capsys):
    # additive 1(x2),2 / 1(x2),2 / 1(x2),5: no relation, but the values sum to 14
    blob = json.dumps({"mode": "additive", "entries": [
        [{"coeffs": {"1": "1"}, "mult": 2}, {"coeffs": {"1": x}, "mult": 1}]
        for x in ("2", "2", "5")]})
    code, out, _ = run(capsys, "generic-check", blob, "--json")
    assert code == 0
    assert json.loads(out) == {"generic": False, "trace_condition": False, "witness": None}
    code, out, _ = run(capsys, "generic-check", blob)
    assert code == 0
    assert out == "trace condition: False\ngeneric: false (trace condition fails)\n"


@pytest.mark.parametrize("max_n", ["0", "-3"])
@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_catalog_verify_max_n_below_1_exits_2(capsys, max_n, flags):
    # no instance would be checked, so there is no "all OK" to report
    code, out, err = run(capsys, "catalog-verify", "--max-n", max_n, *flags)
    assert code == 2 and not out
    assert err == f"error: --max-n must be at least 1, not {max_n}\n"


def test_catalog_verify(capsys, monkeypatch):
    import dspkit.catalog as cat

    args = ["catalog-verify", "--max-n", "12", "--chains", "--json"]
    code, out, _ = run(capsys, *args)
    assert code == 0
    payload = json.loads(out)
    assert payload["all_ok"] is True
    assert payload["families"]["W"]["ok"] == payload["families"]["W"]["instances"]
    # a broken chain is reported and exits 1
    monkeypatch.setitem(cat.FAMILIES, "W", cat.FAMILIES["W"]._replace(
        succ=lambda k: cat.SeriesId("S", k)))
    code, out, _ = run(capsys, *args)
    assert code == 1
    payload = json.loads(out)
    assert payload["all_ok"] is False
    assert payload["families"]["W"]["ok"] < payload["families"]["W"]["instances"]
    # each failure is its own bad edge: B's chains run through W, and B stays OK
    assert [f.split(":")[0] for f in payload["failures"]] == ["W_1", "W_2", "W_3"]
    assert payload["families"]["B"]["ok"] == payload["families"]["B"]["instances"]


@pytest.mark.parametrize("flags", [[], ["--chains"]], ids=["default", "chains"])
def test_catalog_verify_chains_steps_each_instance_once(capsys, monkeypatch, flags):
    import dspkit.catalog as cat
    import dspkit.reduction as red

    calls = []
    psi_step = cat.psi_step
    monkeypatch.setattr(cat, "psi_step", lambda t: calls.append(t) or psi_step(t))
    monkeypatch.setattr(red, "decide", None)
    code, out, _ = run(capsys, "catalog-verify", "--max-n", "30", *flags, "--json")
    assert code == 0 and json.loads(out)["all_ok"] is True
    assert 0 < len(calls) <= len(list(cat.all_series_ids(30)))


def _counted_builds(monkeypatch) -> collections.Counter:
    """Count each family generator's calls per instance, on patched records that
    share no memoized member with earlier calls."""
    import dspkit.catalog as cat

    builds = collections.Counter()

    def counted(name, build):
        def wrapper(param):
            builds[cat.SeriesId(name, param)] += 1
            return build(param)
        return wrapper

    for name, fam in cat.FAMILIES.items():
        monkeypatch.setitem(cat.FAMILIES, name, fam._replace(build=counted(name, fam.build)))
    return builds


def test_chain_builds_each_member_once(capsys, monkeypatch):
    import dspkit.catalog as cat

    builds = _counted_builds(monkeypatch)
    code, out, _ = run(capsys, "chain", "HG_30", "--json")
    assert code == 0 and json.loads(out)["chain"] == [f"HG_{n}" for n in range(30, 0, -1)]
    assert builds == {cat.SeriesId("HG", n): 1 for n in range(1, 31)}


def test_catalog_verify_builds_each_instance_once(capsys, monkeypatch):
    import dspkit.catalog as cat

    builds = _counted_builds(monkeypatch)
    code, out, _ = run(capsys, "catalog-verify", "--max-n", "30", "--json")
    assert code == 0 and json.loads(out)["all_ok"] is True
    assert builds == dict.fromkeys(cat.all_series_ids(30), 1)


def test_an_undefined_chain_step_exits_1(capsys, monkeypatch):
    import dspkit.catalog as cat

    # an extra scalar entry keeps W_1's defect at 2, but the step is not defined on it
    monkeypatch.setitem(cat.FAMILIES, "W", cat.FAMILIES["W"]._replace(
        build=lambda k: [[k, k, k + 1]] * 3 + [[3 * k + 1]]))
    code, _, err = run(capsys, "chain", "W_1")
    assert code == 1 and err.startswith("error: W_1: step 1 is undefined")
    code, out, _ = run(capsys, "catalog-verify", "--max-n", "12", "--chains", "--json")
    assert code == 1 and "W_1" in [f.split(":")[0] for f in json.loads(out)["failures"]]


def test_a_successor_outside_the_catalog_exits_1(capsys, monkeypatch):
    import dspkit.catalog as cat

    monkeypatch.setitem(cat.FAMILIES, "W", cat.FAMILIES["W"]._replace(
        succ=lambda k: cat.SeriesId("B", 0)))
    code, _, err = run(capsys, "chain", "W_1")
    assert code == 1 and err.startswith("error: W_1: bad successor B_0")
    code, out, _ = run(capsys, "catalog-verify", "--max-n", "12", "--chains", "--json")
    assert code == 1
    assert [f.split(":")[0] for f in json.loads(out)["failures"]] == ["W_1", "W_2", "W_3"]
    # an id the user gives is still malformed input
    code, out, err = run(capsys, "chain", "B_0")
    assert code == 2 and not out and err.startswith("error: ")


#: A Jordan tuple, slots given out of canonical order, with entries whose slots of the
#: most blocks differ: (2,1) and (1,1) at step 0, (2) and (1) in two entries at step 1.
_TIED_JORDAN = json.dumps({"n": 5, "entries": [
    {"eigenvalues": [[1, 1], [2, 1]]}, {"eigenvalues": [[1], [1, 1], [2]]},
    {"eigenvalues": [[1], [2, 1, 1]]}]})


def test_output_does_not_depend_on_hash_randomization(tmp_path):
    path = tmp_path / "batch.jsonl"
    path.write_text("\n".join(_pinned_batch()) + "\n", encoding="utf-8")
    for argv in (["enum-rigid", "--n", "14", "--entries", "3", "--no-scalar", "--json"],
                 ["decide", "--file", str(path)],
                 ["catalog-verify", "--json"],
                 ["trace", "--json", "--jnf", _TIED_JORDAN]):
        a, b = (fresh_python("-m", "dspkit.cli", *argv, PYTHONHASHSEED=seed)
                for seed in ("0", "12345"))
        assert a.stdout and (a.returncode, a.stdout) == (b.returncode, b.stdout), argv


@pytest.mark.parametrize("argv", [
    ["decide", "(3,2,2);(3,2,2);(3,2,2)"],
    ["trace", "(2,1);(1,1,1);(1,1,1)"],
    ["defect", "(2,2,2,2);(4,4);(4,4);(7,1)", "--json"],
    ["enum-rigid", "--n", "6", "--entries", "3", "--no-scalar"],
    ["series", "W_2", "--json"],
    ["chain", "W_2"],
    ["dual", "--jnf", '{"eigenvalues":[[4,2,2]]}'],
    ["min-d", "--n", "7", "--r", "5"],
    ["generic-check", _assignment(), "--json"],
    ["generic-gen", "(1,1);(1,1);(1,1)"],
    ["catalog-verify", "--max-n", "6"],
], ids=lambda argv: argv[0])
def test_command_in_a_fresh_process(capsys, argv):
    # in-process tests run after other tests have imported every module, so a
    # missing import inside a command handler shows only in a new interpreter
    proc = fresh_python("-m", "dspkit.cli", *argv)
    assert proc.returncode == 0 and proc.stdout, proc.stderr
    assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)


def _block_buffered(*args, **kwargs):
    """``fresh_python`` without ``PYTHONUNBUFFERED``, so stdout is block-buffered as
    it is for most users: an exit that skipped the flush would lose output."""
    return fresh_python(*args, drop=("PYTHONUNBUFFERED",), **kwargs)


_BATCH = "<batch file>"


@pytest.mark.parametrize("code, argv", [
    (0, ["decide", "(3,2,2);(3,2,2);(3,2,2)", "--json"]),
    # the multiplicity gcd rules out additive generic eigenvalues
    (1, ["generic-gen", "(2,2);(2,2);(2,2)"]),
    (2, ["decide", "--no-such-flag"]),
    (2, ["decide", "--file", _BATCH]),  # one malformed line; the others still print
    (3, ["enum-rigid", "--n", "10", "--entries", "30"]),  # trips the root check at once
    (0, ["enum-rigid", "--n", "14", "--entries", "3", "--no-scalar", "--json"]),  # ~82 KB
    (0, ["--help"]),
], ids=["ok", "failed", "usage", "bad-line", "resource", "large", "help"])
def test_process_output_matches_main_byte_for_byte(tmp_path, capsys, monkeypatch, code, argv):
    path = tmp_path / "batch.jsonl"
    path.write_text('"(2,1);(1,1,1);(1,1,1)"\n"(2,2;(3)"\n"(4,4);(4,4);(7,1)"\n',
                    encoding="utf-8")
    argv = [str(path) if a == _BATCH else a for a in argv]
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the same width in both
    proc = _block_buffered("-m", "dspkit.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)
    assert proc.returncode == code and (proc.stdout or proc.stderr)
    if "--json" in argv and argv[0] == "enum-rigid":
        assert proc.stdout.count("\n") == 1004


_DECIDE = ["decide", "(3,2,2);(3,2,2);(3,2,2)"]


def test_exit_handler_runs_once_after_the_output(capsys):
    proc = _block_buffered("-c", "import atexit; atexit.register(print, 'exit handler'); "
                                 "from dspkit.cli import run; run()", *_DECIDE)
    code, out, err = run(capsys, *_DECIDE)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out + "exit handler\n", err)


def test_live_thread_finishes_its_output(capsys):
    # the thread prints only once the main thread has finished, so an exit that
    # did not wait for it would lose the line
    proc = _block_buffered("-c", "import threading; threading.Thread(target=lambda: ("
                                 "threading.main_thread().join(), print('thread done'))).start(); "
                                 "from dspkit.cli import run; run()", *_DECIDE)
    code, out, err = run(capsys, *_DECIDE)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out + "thread done\n", err)


@pytest.mark.parametrize("argv", [
    # the output overflows the text buffer, so a write inside main meets the closed pipe
    ["enum-rigid", "--n", "14", "--entries", "3", "--no-scalar", "--json"],
    # the output fits the buffers, so the exit's flush meets it
    _DECIDE,
    # about 6 KB: past a pipe's 4 KB byte buffer, inside the 8 KB text buffer, so the
    # exit's flush writes it through and keeps nothing for a later flush
    ["enum-rigid", "--n", "9", "--entries", "3", "--no-scalar", "--json"],
], ids=["in-main", "at-exit", "past-the-buffer"])
def test_closed_stdout_pipe(argv):
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _block_buffered("-m", "dspkit.cli", *argv, stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (2, "error: [Errno 32] Broken pipe\n")


def test_no_stdout_takes_the_normal_exit():
    # sys.stdout is None when the process starts with fd 1 closed: nothing to flush
    proc = fresh_python("-c", "import sys; sys.stdout = None; "
                              "from dspkit.cli import run; run()", *_DECIDE)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
