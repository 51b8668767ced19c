import hashlib
import json

from dspkit.cli import main


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


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "decide", "2,2,3")
    assert code == 2 and err


def test_wrong_json_shape_exits_2(capsys):
    for argv in (["generic-check", "[1]"],
                 ["generic-check", '{"mode":"additive","entries":5}'],
                 ["decide", "--jnf", "5"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out, argv
        assert err.startswith("error: ") and len(err.splitlines()) == 1, argv


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


def test_enum_rigid_rejects_other_defects(capsys):
    code, out, err = run(capsys, "enum-rigid", "--n", "6", "--entries", "3", "--defect", "4")
    assert code == 2 and not out
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_series_and_chain(capsys):
    code, out, _ = run(capsys, "series", "W_2")
    assert code == 0 and out.strip() == "(3,2,2);(3,2,2);(3,2,2)"
    code, out, _ = run(capsys, "chain", "W_2")
    assert code == 0 and out.strip() == "W_2 -> B_2 -> W_1 -> B_1 -> W_0"
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
            == "97b1ed486ccb36c40ce4880c9f795a37222ad04be5b3664551c215d9eb976d8d")


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
    monkeypatch.setitem(cat._SUCCESSORS, "W", lambda k: cat.SeriesId("S", k))
    code, out, _ = run(capsys, *args)
    assert code == 1
    payload = json.loads(out)
    assert payload["all_ok"] is False
    assert payload["families"]["W"]["ok"] < payload["families"]["W"]["instances"]
