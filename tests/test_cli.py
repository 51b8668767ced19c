import hashlib
import json
import random

import pytest

from dspkit.catalog import series
from dspkit.cli import main
from dspkit.genericity import (
    ExactValue,
    assignment_from_dict,
    assignment_to_dict,
    candidate_assignment,
    trace_condition,
)
from dspkit.jnf import Jnf, JnfTuple
from helpers import fresh_python, rational_assignment


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


def _pinned_batch() -> list[str]:
    """A fixed ``decide --file`` input: hand-picked verdicts, seeded random diagonal
    and Jordan lines, catalog instances with shuffled entries, one malformed line."""
    rng = random.Random(19)

    def parts(n):
        out = []
        while n:
            out.append(rng.randint(1, n))
            n -= out[-1]
        return out  # left unsorted: the reader normalizes

    def text(mvs):
        return json.dumps(";".join("(" + ",".join(map(str, mv)) + ")" for mv in mvs))

    lines = [text(mvs) for mvs in (
        [[1], [1]], [[2, 1], [1, 1, 1], [1, 1, 1]], [[4, 4], [4, 4], [7, 1]],
        [[3, 2, 1, 1, 1, 1], [4, 4, 1], [4, 4, 1]], [[2], [1, 1], [1, 1]],
        [[3], [2, 1], [1, 1, 1]], [[1, 1, 1]] * 3)]
    lines += [text([parts(n) for _ in range(rng.randint(3, 5))])
              for n in (rng.randint(2, 24) for _ in range(30))]
    lines += [json.dumps({"n": n, "entries": [{"eigenvalues": [parts(s) for s in parts(n)]}
                                              for _ in range(rng.randint(3, 4))]})
              for n in (rng.randint(2, 12) for _ in range(15))]
    for name in ("W_4", "HG_9", "Lambda_12", "T_3", "Star_5", "Psi6", "Xi_10", "OG_4",
                 "Gamma1_10", "Z2_9", "R_5", "P_3"):
        mvs = [list(mv) for mv in series(name).pmv()]
        rng.shuffle(mvs)
        lines.append(text(mvs))
    lines.insert(20, '"(2,2;(3)"')
    return lines


def test_decide_batch_file_is_byte_stable(tmp_path, capsys):
    path = tmp_path / "batch.jsonl"
    path.write_text("\n".join(_pinned_batch()) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "decide", "--file", str(path))
    assert code == 2
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "24fc3f240fcc0beca9fc71d45dc6e6475e921fa16ca213bd85884e004a575584")


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
])
def test_text_output_is_byte_stable(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def test_enum_rigid_resource_guard(capsys, monkeypatch):
    code, _, err = run(capsys, "enum-rigid", "--n", "41", "--entries", "3")
    assert code == 3
    monkeypatch.setenv("DSPKIT_MAX_N", "41")
    code, _, _ = run(capsys, "enum-rigid", "--n", "41", "--entries", "2",
                     "--u", "1", "--no-scalar")
    assert code == 0


def test_enum_rigid_node_budget(capsys, monkeypatch):
    import dspkit.catalog as cat

    monkeypatch.setattr(cat, "DEFAULT_MAX_ENUM_NODES", 43)
    code, out, err = run(capsys, "enum-rigid", "--n", "8", "--entries", "3")
    assert code == 3 and not out
    assert err == "error: the walk to n=8 expands more than 43 nodes\n"
    monkeypatch.setattr(cat, "DEFAULT_MAX_ENUM_NODES", 44)
    code, out, _ = run(capsys, "enum-rigid", "--n", "8", "--entries", "3")
    assert code == 0 and out.endswith("total: 45\n")


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
    code, out, _ = run(capsys, "catalog-verify", "--max-n", "30", "--chains", "--json")
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "2b0b21c4f2f2b5553988bb46f105e0027239cf5f98e70a1853dee0d15a0663da")


def test_catalog_verify_json_is_byte_stable(capsys):
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
