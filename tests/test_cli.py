import json

import pytest

import nlprover.cli as cli
from nlprover.cli import main

WORKED_THEORY = (
    "# worked example\n"
    "Everyone is not kind or not round or rough.\n"
    "Everyone is not rough.\n"
    "Everyone is round.\n"
)


@pytest.fixture
def theory_file(tmp_path):
    p = tmp_path / "theory.txt"
    p.write_text(WORKED_THEORY)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_prove_worked_example(capsys, theory_file):
    code, out, _ = run(
        capsys, "prove", "--theory", theory_file, "--hypothesis", "Bob is not kind."
    )
    assert code == 0
    assert "label: True" in out
    assert out.count("STEP ") == 3
    assert "Bob is not round or rough." in out


def test_prove_single_fact(capsys, tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("Bob is kind.\n")
    code, out, _ = run(capsys, "prove", "--theory", str(p), "--hypothesis", "Bob is kind.")
    assert code == 0
    assert "label: True" in out
    assert out.count("STEP ") == 1


def test_prove_unknown_empty_proof(capsys, tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("Bob is kind.\n")
    code, out, _ = run(capsys, "prove", "--theory", str(p), "--hypothesis", "Bob is round.")
    assert code == 0
    assert "label: Unknown" in out
    assert "STEP" not in out


def test_prove_json_output(capsys, theory_file):
    code, out, _ = run(
        capsys, "prove", "--theory", theory_file, "--hypothesis", "Bob is not kind.", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["label"] == "True"
    assert len(payload["predicted_proof"]) == 3


def test_parse_error_exits_2(capsys, tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("Bob is zippy.\n")
    code, _, err = run(capsys, "prove", "--theory", str(p), "--hypothesis", "Bob is kind.")
    assert code == 2
    assert "zippy" in err


def test_bad_flag_exits_4(capsys, theory_file):
    with pytest.raises(SystemExit) as e:
        main(["prove", "--theory", theory_file, "--strategy", "nonsense"])
    assert e.value.code == 4


@pytest.mark.parametrize(
    "command, flag",
    [
        ("gen", ["--lexicon", "lex.txt"]),
        ("gen", ["--json"]),
        ("eval", ["--budget", "5"]),
        ("eval", ["--lexicon", "lex.txt"]),
        ("check", ["--budget", "5"]),
        ("check", ["--lexicon", "lex.txt"]),
    ],
    ids=lambda x: x if isinstance(x, str) else x[0].lstrip("-"),
)
def test_flag_a_command_does_not_read_exits_4(capsys, tmp_path, command, flag):
    required = {
        "gen": ["--out", str(tmp_path / "x.jsonl"), "--count", "2"],
        "eval": ["--predictions", "p.jsonl", "--gold", "g.jsonl"],
        "check": ["--proofs", "p.jsonl", "--instances", "g.jsonl"],
    }
    with pytest.raises(SystemExit) as e:
        main([command, *required[command], *flag])
    assert e.value.code == 4
    assert flag[0] in capsys.readouterr().err


def test_bad_gen_config_exits_4(capsys, tmp_path):
    code, _, err = run(
        capsys, "gen", "--out", str(tmp_path / "x.jsonl"), "--count", "1", "--mix", "2,2,2"
    )
    assert code == 4
    assert "config error" in err


@pytest.mark.parametrize(
    "flags", [["--mix", "nan,0.5,0.5"], ["--nlsat", "--fraction-unsat", "2"]]
)
def test_gen_config_error_exits_4_without_output(capsys, tmp_path, flags):
    out_path = tmp_path / "x.jsonl"
    code, out, err = run(capsys, "gen", "--out", str(out_path), "--count", "1", *flags)
    assert code == 4
    assert err.startswith("gen: config error:")
    assert not out and not out_path.exists()


def test_gen_engine_oracle_disagreement_exits_4(capsys, tmp_path, monkeypatch):
    from nlprover.judge import Verdict

    monkeypatch.setattr("nlprover.datagen.judge", lambda *args, **kwargs: Verdict("no label"))
    out_path = tmp_path / "x.jsonl"
    code, out, err = run(capsys, "gen", "--out", str(out_path), "--count", "3")
    assert code == 4
    assert err.startswith("gen: engine/oracle disagreement: oracle=")
    assert "engine=no label" in err
    assert not out and not out_path.exists()


@pytest.mark.parametrize("flag", ["--out", "--training-records"])
def test_unwritable_gen_output_exits_2_before_generating(capsys, tmp_path, monkeypatch, flag):
    def no_generation(*args, **kwargs):
        return iter(lambda: pytest.fail("generated before the output paths were checked"), None)

    monkeypatch.setattr("nlprover.cli.generate", no_generation)
    paths = {"--out": str(tmp_path / "o.jsonl"), "--training-records": str(tmp_path / "r.jsonl")}
    paths[flag] = str(tmp_path / "missing" / "x.jsonl")
    argv = [arg for item in paths.items() for arg in item]
    code, out, err = run(capsys, "gen", "--count", "1", *argv)
    assert code == 2
    assert "cannot write" in err and paths[flag] in err
    assert not out
    # The probe of the writable path leaves nothing behind.
    assert list(tmp_path.iterdir()) == []


def test_sat_command(capsys, tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("Everyone is round.\nBob is not round.\n")
    code, out, _ = run(capsys, "sat", "--theory", str(p))
    assert code == 0
    assert "Unsatisfiable" in out
    p2 = tmp_path / "t2.txt"
    p2.write_text("Bob is kind.\n")
    code, out, _ = run(capsys, "sat", "--theory", str(p2))
    assert "Satisfiable" in out


def test_gen_is_byte_identical_across_runs(capsys, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out_path in (a, b):
        code, _, _ = run(
            capsys, "gen", "--out", str(out_path), "--count", "12", "--seed", "5"
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_prove_eval_pipeline(capsys, tmp_path):
    gold = tmp_path / "gold.jsonl"
    code, _, _ = run(capsys, "gen", "--out", str(gold), "--count", "9", "--seed", "3")
    assert code == 0

    code, out, _ = run(capsys, "prove", "--instances", str(gold), "--jobs", "1", "--json")
    assert code == 0
    preds = tmp_path / "preds.jsonl"
    preds.write_text(out)

    code, out, _ = run(capsys, "eval", "--predictions", str(preds), "--gold", str(gold))
    assert code == 0
    assert "EA: 1.0000" in out
    assert "FA: 1.0000" in out

    code, out, _ = run(capsys, "check", "--proofs", str(preds), "--instances", str(gold))
    assert code == 0
    assert "valid: 9/9" in out


def test_eval_json(capsys, tmp_path):
    gold = tmp_path / "gold.jsonl"
    run(capsys, "gen", "--out", str(gold), "--count", "6", "--seed", "4")
    code, out, _ = run(capsys, "prove", "--instances", str(gold), "--jobs", "1", "--json")
    preds = tmp_path / "preds.jsonl"
    preds.write_text(out)
    code, out, _ = run(capsys, "eval", "--predictions", str(preds), "--gold", str(gold), "--json")
    payload = json.loads(out)
    assert payload == {"entailment_accuracy": 1.0, "full_accuracy": 1.0, "n": 6}


def test_gen_nlsat_and_training_records(capsys, tmp_path):
    out_path = tmp_path / "nlsat.jsonl"
    code, _, _ = run(
        capsys,
        "gen", "--nlsat", "--out", str(out_path), "--count", "8", "--seed", "2",
        "--attributes", "8", "--depth-min", "1", "--depth-max", "6",
    )
    assert code == 0
    lines = [json.loads(l) for l in out_path.read_text().splitlines()]
    assert len(lines) == 8
    assert {l["label"] for l in lines} == {"Satisfiable", "Unsatisfiable"}

    gold = tmp_path / "gold.jsonl"
    records = tmp_path / "records.jsonl"
    code, _, _ = run(
        capsys,
        "gen", "--out", str(gold), "--count", "6", "--seed", "1",
        "--training-records", str(records),
    )
    assert code == 0
    recs = [json.loads(l) for l in records.read_text().splitlines()]
    assert recs and all(r["kind"] in ("pre_s", "post_s", "kc") for r in recs)


def test_gold_proofs_of_rule_only_data_check_valid(capsys, tmp_path):
    gold = tmp_path / "nlsat.jsonl"
    code, _, _ = run(
        capsys,
        "gen", "--nlsat", "--out", str(gold), "--count", "6", "--seed", "7",
        "--attributes", "12", "--depth-min", "1", "--depth-max", "4",
    )
    assert code == 0
    insts = [json.loads(l) for l in gold.read_text().splitlines()]
    assert {i["label"] for i in insts} == {"Satisfiable", "Unsatisfiable"}
    preds = tmp_path / "preds.jsonl"
    preds.write_text("".join(
        json.dumps({"id": i["id"], "predicted_label": i["label"], "predicted_proof": i["gold_proof"]})
        + "\n"
        for i in insts
    ))
    code, out, _ = run(capsys, "check", "--proofs", str(preds), "--instances", str(gold))
    assert code == 0
    assert out.endswith("valid: 6/6\n")
    code, out, _ = run(capsys, "eval", "--predictions", str(preds), "--gold", str(gold))
    assert code == 0
    assert "EA: 1.0000" in out and "FA: 1.0000" in out


def test_missing_prediction_is_input_error(capsys, tmp_path):
    gold = tmp_path / "gold.jsonl"
    run(capsys, "gen", "--out", str(gold), "--count", "3", "--seed", "9")
    preds = tmp_path / "preds.jsonl"
    preds.write_text("")
    code, _, err = run(capsys, "eval", "--predictions", str(preds), "--gold", str(gold))
    assert code == 2
    assert "no prediction" in err


def test_prove_on_rule_only_data_is_input_error(capsys, tmp_path):
    out_path = tmp_path / "nlsat.jsonl"
    run(
        capsys,
        "gen", "--nlsat", "--out", str(out_path), "--count", "2", "--seed", "3",
        "--attributes", "8", "--depth-min", "1", "--depth-max", "4",
    )
    code, _, err = run(capsys, "prove", "--instances", str(out_path), "--jobs", "2")
    assert code == 2
    assert "no hypothesis" in err


def test_prove_instances_parallel_matches_serial(capsys, tmp_path):
    gold = tmp_path / "gold.jsonl"
    run(capsys, "gen", "--out", str(gold), "--count", "6", "--seed", "8")
    outs = []
    for jobs in ("1", "3"):
        code, out, _ = run(capsys, "prove", "--instances", str(gold), "--jobs", jobs, "--json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


class _FakePool:
    """Stands in for ProcessPoolExecutor: records its size, starts no process
    and maps in this one."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize(
    "jobs, cores, size", [("1000", 4, 4), ("3", 4, 3), ("1000", None, None), ("1", 4, None)]
)
def test_prove_pool_is_bounded_by_work_and_cores(capsys, tmp_path, monkeypatch, jobs, cores, size):
    gold = tmp_path / "gold.jsonl"
    run(capsys, "gen", "--out", str(gold), "--count", "6", "--seed", "8")
    serial = run(capsys, "prove", "--instances", str(gold), "--jobs", "1", "--json")
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _FakePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
    monkeypatch.setattr(_FakePool, "sizes", [])
    assert run(capsys, "prove", "--instances", str(gold), "--jobs", jobs, "--json") == serial
    assert _FakePool.sizes == ([] if size is None else [size])
    # two instances make a pool of two at most, whatever the cores
    two = tmp_path / "two.jsonl"
    two.write_text("".join(gold.read_text().splitlines(keepends=True)[:2]))
    monkeypatch.setattr(_FakePool, "sizes", [])
    assert run(capsys, "prove", "--instances", str(two), "--jobs", jobs)[0] == 0
    assert _FakePool.sizes == ([] if size is None else [2])


def test_prove_json_proof_equals_gen_gold_proof(capsys, tmp_path):
    gold = tmp_path / "gold.jsonl"
    code, _, _ = run(
        capsys,
        "gen", "--out", str(gold), "--count", "12", "--seed", "3",
        "--existential", "--entities", "2", "--attributes", "4",
    )
    assert code == 0
    code, out, _ = run(capsys, "prove", "--instances", str(gold), "--jobs", "1", "--json")
    assert code == 0
    golds = [json.loads(l) for l in gold.read_text().splitlines()]
    preds = [json.loads(l) for l in out.splitlines()]
    assert [p["id"] for p in preds] == [g["id"] for g in golds]
    assert any(g["gold_proof"] for g in golds)
    for p, g in zip(preds, golds):
        assert p["predicted_proof"] == g["gold_proof"], g["id"]


@pytest.fixture
def gold_and_preds(capsys, tmp_path):
    gold = tmp_path / "gold.jsonl"
    run(capsys, "gen", "--out", str(gold), "--count", "3", "--seed", "9")
    code, out, _ = run(capsys, "prove", "--instances", str(gold), "--jobs", "1", "--json")
    assert code == 0
    preds = tmp_path / "preds.jsonl"
    preds.write_text(out)
    return gold, preds


def _corrupt(path, lineno=2):
    lines = path.read_text().splitlines()
    lines[lineno - 1] = lines[lineno - 1][:-5]
    path.write_text("\n".join(lines) + "\n")


def test_prove_malformed_instances_exits_2(capsys, gold_and_preds):
    gold, _ = gold_and_preds
    _corrupt(gold)
    code, _, err = run(capsys, "prove", "--instances", str(gold), "--jobs", "1")
    assert code == 2
    assert f"{gold}:2:" in err and "Traceback" not in err


def test_prove_unreadable_instances_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "prove", "--instances", str(tmp_path / "missing.jsonl"))
    assert code == 2
    assert "missing.jsonl" in err


def test_prove_instance_missing_field_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "x"}\n')
    code, _, err = run(capsys, "prove", "--instances", str(bad))
    assert code == 2
    assert f"{bad}:1:" in err


def test_eval_malformed_predictions_exits_2(capsys, gold_and_preds):
    gold, preds = gold_and_preds
    _corrupt(preds, 3)
    code, _, err = run(capsys, "eval", "--predictions", str(preds), "--gold", str(gold))
    assert code == 2
    assert f"{preds}:3:" in err


def test_eval_malformed_gold_exits_2(capsys, gold_and_preds):
    gold, preds = gold_and_preds
    _corrupt(gold, 1)
    code, _, err = run(capsys, "eval", "--predictions", str(preds), "--gold", str(gold))
    assert code == 2
    assert f"{gold}:1:" in err


def test_check_malformed_proofs_exits_2(capsys, gold_and_preds):
    gold, preds = gold_and_preds
    _corrupt(preds)
    code, _, err = run(capsys, "check", "--proofs", str(preds), "--instances", str(gold))
    assert code == 2
    assert f"{preds}:2:" in err


@pytest.mark.parametrize("field", ["theory", "hypothesis"])
def test_eval_non_sentence_gold_exits_2(capsys, gold_and_preds, field):
    gold, preds = gold_and_preds
    recs = [json.loads(l) for l in gold.read_text().splitlines()]
    recs[1][field] = [5] if field == "theory" else 5
    gold.write_text("".join(json.dumps(r) + "\n" for r in recs))
    code, _, err = run(capsys, "eval", "--predictions", str(preds), "--gold", str(gold))
    assert code == 2
    assert f"{gold}:2:" in err


def test_check_malformed_proof_step_exits_2(capsys, gold_and_preds):
    gold, preds = gold_and_preds
    recs = [json.loads(l) for l in preds.read_text().splitlines()]
    recs[0]["predicted_proof"] = [{"premises_fol": []}]
    preds.write_text("".join(json.dumps(r) + "\n" for r in recs))
    code, _, err = run(capsys, "check", "--proofs", str(preds), "--instances", str(gold))
    assert code == 2
    assert "predicted_proof" in err


@pytest.mark.parametrize("command", ["check", "eval"])
@pytest.mark.parametrize("field", ["premises_fol", "conclusion_fol"])
def test_non_string_predicted_step_exits_2(capsys, gold_and_preds, command, field):
    gold, preds = gold_and_preds
    recs = [json.loads(l) for l in preds.read_text().splitlines()]
    rec = next(r for r in recs if r["predicted_proof"])
    step = rec["predicted_proof"][0]
    if field == "premises_fol":
        step[field][1] = 5
    else:
        step[field] = 5
    preds.write_text("".join(json.dumps(r) + "\n" for r in recs))
    flags = {"check": ("--proofs", "--instances"), "eval": ("--predictions", "--gold")}
    pred_flag, gold_flag = flags[command]
    code, _, err = run(capsys, command, pred_flag, str(preds), gold_flag, str(gold))
    assert code == 2
    assert str(preds) in err and rec["id"] in err


@pytest.mark.parametrize("key", ["entities", "attributes"])
def test_prove_non_string_meta_words_exit_2(capsys, gold_and_preds, key):
    gold, _ = gold_and_preds
    recs = [json.loads(l) for l in gold.read_text().splitlines()]
    recs[1]["meta"][key] = [1, 2]
    gold.write_text("".join(json.dumps(r) + "\n" for r in recs))
    code, _, err = run(capsys, "prove", "--instances", str(gold), "--jobs", "1")
    assert code == 2
    assert f"{gold}:2:" in err and f"meta.{key}" in err


@pytest.mark.parametrize("command", ["prove", "check", "eval"])
@pytest.mark.parametrize(
    "key, words", [("entities", ["Bob", "bob"]), ("attributes", ["kind", "is"])]
)
def test_meta_that_makes_no_lexicon_exits_2(capsys, gold_and_preds, command, key, words):
    gold, preds = gold_and_preds
    recs = [json.loads(l) for l in gold.read_text().splitlines()]
    recs[1]["meta"][key] = words
    gold.write_text("".join(json.dumps(r) + "\n" for r in recs))
    argv = {
        "prove": ("--instances", str(gold), "--jobs", "1"),
        "check": ("--proofs", str(preds), "--instances", str(gold)),
        "eval": ("--predictions", str(preds), "--gold", str(gold)),
    }[command]
    code, _, err = run(capsys, command, *argv)
    assert code == 2
    assert f"{gold}:2:" in err and "lexicon" in err and "Traceback" not in err


def _usage_exit(capsys, *argv):
    with pytest.raises(SystemExit) as e:
        main(list(argv))
    out = capsys.readouterr()
    return e.value.code, out.out, out.err


def test_negative_count_is_config_error(capsys, tmp_path):
    out_path = tmp_path / "out.jsonl"
    code, _, err = _usage_exit(capsys, "gen", "--out", str(out_path), "--count", "-1")
    assert code == 4
    assert "--count" in err
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["prove", "sat"])
def test_negative_budget_is_config_error(capsys, theory_file, command):
    argv = [command, "--theory", theory_file, "--budget", "-5"]
    if command == "prove":
        argv += ["--hypothesis", "Bob is kind."]
    code, out, err = _usage_exit(capsys, *argv)
    assert code == 4
    assert "--budget" in err and not out


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_prove_jobs_below_one_is_config_error(capsys, theory_file, jobs):
    argv = ["prove", "--theory", theory_file, "--hypothesis", "Bob is kind.", "--jobs", jobs]
    code, out, err = _usage_exit(capsys, *argv)
    assert code == 4
    assert "--jobs" in err and not out


def test_zero_budget_and_count_are_accepted(capsys, tmp_path, theory_file):
    out_path = tmp_path / "out.jsonl"
    assert run(capsys, "gen", "--out", str(out_path), "--count", "0")[0] == 0
    assert out_path.read_text() == ""
    code, _, _ = run(
        capsys, "prove", "--theory", theory_file, "--hypothesis", "Bob is kind.", "--budget", "0"
    )
    assert code == 0
