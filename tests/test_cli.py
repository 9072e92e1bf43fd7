import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_import_loads_neither_logging_nor_json():
    # Import time is part of every command's start-up.
    import subprocess
    import sys
    from pathlib import Path

    import nlprover

    src = str(Path(nlprover.__file__).resolve().parent.parent)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import nlprover; "
        "print(sorted({'logging', 'json'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code, src], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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


@pytest.mark.parametrize(
    "mode, flag",
    [
        (["--nlsat"], ["--facts", "1"]),
        (["--nlsat"], ["--entities", "1"]),
        (["--nlsat"], ["--existential"]),
        (["--nlsat"], ["--mix", "1,0,0"]),
        ([], ["--fraction-unsat", "1"]),
        ([], ["--budget", "5"]),
    ],
    ids=[
        "nlsat-facts",
        "nlsat-entities",
        "nlsat-existential",
        "nlsat-mix",
        "plain-fraction-unsat",
        "plain-budget",
    ],
)
def test_gen_flag_the_generator_does_not_read_exits_4(capsys, tmp_path, mode, flag):
    out_path = tmp_path / "x.jsonl"
    code, out, err = run(capsys, "gen", "--out", str(out_path), "--count", "1", *mode, *flag)
    assert code == 4
    assert err.startswith("gen: config error:") and flag[0] in err
    assert not out and not out_path.exists()


@pytest.mark.parametrize("flag", ["--theory", "--hypothesis", "--lexicon"])
def test_prove_instances_rejects_single_pair_flags(capsys, tmp_path, flag):
    gold = tmp_path / "g.jsonl"
    assert run(capsys, "gen", "--out", str(gold), "--count", "1")[0] == 0
    code, out, err = run(capsys, "prove", "--instances", str(gold), flag, "x", "--jobs", "1")
    assert code == 4
    assert err.startswith("prove: config error:") and flag in err
    assert not out


@pytest.mark.parametrize("pair", [[], ["--theory"], ["--hypothesis"]], ids=["none", "theory", "hypothesis"])
def test_prove_without_a_mode_is_config_error(capsys, theory_file, pair):
    values = {"--theory": theory_file, "--hypothesis": "Bob is kind."}
    code, out, err = run(capsys, "prove", *[a for flag in pair for a in (flag, values[flag])])
    assert code == 4
    assert err.startswith("prove: config error:") and "--instances" in err
    assert not out


def test_prove_single_pair_rejects_jobs(capsys, theory_file):
    argv = ["prove", "--theory", theory_file, "--hypothesis", "Bob is kind.", "--jobs", "3"]
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert err == "prove: config error: --jobs not read without --instances\n"
    assert not out


def test_bad_gen_config_exits_4(capsys, tmp_path):
    code, _, err = run(
        capsys, "gen", "--out", str(tmp_path / "x.jsonl"), "--count", "1", "--mix", "2,2,2"
    )
    assert code == 4
    assert "config error" in err


@pytest.mark.parametrize(
    "flags",
    [["--mix", "nan,0.5,0.5"], ["--nlsat", "--fraction-unsat", "2"], ["--depth-max", "0"]],
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


def test_eval_on_gold_with_no_instances_is_input_error(capsys, tmp_path):
    empty = tmp_path / "e.jsonl"
    empty.write_text("")
    code, out, err = run(capsys, "eval", "--predictions", str(empty), "--gold", str(empty))
    assert code == 2
    assert err.startswith("nlprover: input error:") and str(empty) in err
    assert not out
    # check has nothing to score, only proofs to count
    assert run(capsys, "check", "--proofs", str(empty), "--instances", str(empty)) == (
        0, "valid: 0/0\n", ""
    )


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


# jobs None leaves --jobs out: the pool then has one worker a core.
@pytest.mark.parametrize(
    "jobs, cores, size",
    [
        ("1000", 4, 4), ("3", 4, 3), ("1000", None, None), ("1", 4, None),
        (None, 4, 4), (None, None, None),
    ],
)
def test_prove_pool_is_bounded_by_work_and_cores(capsys, tmp_path, monkeypatch, jobs, cores, size):
    gold = tmp_path / "gold.jsonl"
    run(capsys, "gen", "--out", str(gold), "--count", "6", "--seed", "8")
    serial = run(capsys, "prove", "--instances", str(gold), "--jobs", "1", "--json")
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _FakePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
    monkeypatch.setattr(_FakePool, "sizes", [])
    jobs_flag = [] if jobs is None else ["--jobs", jobs]
    assert run(capsys, "prove", "--instances", str(gold), *jobs_flag, "--json") == serial
    assert _FakePool.sizes == ([] if size is None else [size])
    # two instances make a pool of two at most, whatever the cores
    two = tmp_path / "two.jsonl"
    two.write_text("".join(gold.read_text().splitlines(keepends=True)[:2]))
    monkeypatch.setattr(_FakePool, "sizes", [])
    assert run(capsys, "prove", "--instances", str(two), *jobs_flag)[0] == 0
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


@pytest.mark.parametrize(
    "command, which",
    [("prove", "gold"), ("check", "gold"), ("eval", "gold"), ("check", "preds"), ("eval", "preds")],
)
def test_record_nested_past_the_stack_exits_2(capsys, gold_and_preds, command, which):
    gold, preds = gold_and_preds
    path = {"gold": gold, "preds": preds}[which]
    lines = path.read_text().splitlines()
    lines[1] = "[" * 100_000 + "]" * 100_000
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, command, *_argv(command, gold, preds))
    assert code == 2
    assert f"{path}:2:" in err and "Traceback" not in err


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
    lineno, rec = next((n, r) for n, r in enumerate(recs, start=1) if r["predicted_proof"])
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
    assert f"{preds}:{lineno}:" in err and rec["id"] in err


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
    code, _, err = run(capsys, command, *_argv(command, gold, preds))
    assert code == 2
    assert f"{gold}:2:" in err and "lexicon" in err and "Traceback" not in err


def _argv(command, gold, preds):
    return {
        "prove": ("--instances", str(gold), "--jobs", "1"),
        "check": ("--proofs", str(preds), "--instances", str(gold)),
        "eval": ("--predictions", str(preds), "--gold", str(gold)),
    }[command]


def _rewrite_line(path, lineno, field, value):
    recs = [json.loads(l) for l in path.read_text().splitlines()]
    recs[lineno - 1][field] = value
    path.write_text("".join(json.dumps(r) + "\n" for r in recs))


@pytest.mark.parametrize("command", ["check", "eval"])
@pytest.mark.parametrize("field", ["id", "predicted_label"])
def test_non_string_prediction_field_exits_2(capsys, gold_and_preds, command, field):
    gold, preds = gold_and_preds
    _rewrite_line(preds, 2, field, ["True"])
    code, _, err = run(capsys, command, *_argv(command, gold, preds))
    assert code == 2
    assert f"{preds}:2:" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["check", "eval"])
@pytest.mark.parametrize("repeated", [1, 3])
def test_repeated_prediction_id_exits_2(capsys, gold_and_preds, command, repeated):
    # Read last-one-wins, a second copy with another label would move EA.
    gold, preds = gold_and_preds
    recs = [json.loads(l) for l in preds.read_text().splitlines()]
    first = recs[repeated - 1]
    recs.append(dict(first, predicted_label="False" if first["predicted_label"] == "True" else "True"))
    preds.write_text("".join(json.dumps(r) + "\n" for r in recs))
    code, out, err = run(capsys, command, *_argv(command, gold, preds))
    assert code == 2
    assert f"{preds}:4:" in err and "repeated id" in err and first["id"] in err
    assert not out


@pytest.mark.parametrize("command", ["prove", "check", "eval"])
@pytest.mark.parametrize(
    "field, value",
    [
        ("id", ["x"]),
        ("label", 1),
        ("theory", "Bob is kind."),
        ("depth", "x"),
        ("theory_fol", [1, 2]),
        ("hypothesis_fol", 7),
        ("label", "Maybe"),
        ("id", "gen-9-00000"),
    ],
)
def test_malformed_gold_field_exits_2(capsys, gold_and_preds, command, field, value):
    # A theory given as one string would be read as one-letter sentences,
    # and line 1's id again would be judged and scored twice.
    gold, preds = gold_and_preds
    _rewrite_line(gold, 2, field, value)
    code, _, err = run(capsys, command, *_argv(command, gold, preds))
    assert code == 2
    assert f"{gold}:2:" in err and field in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["prove", "check", "eval"])
@pytest.mark.parametrize(
    "field, value",
    [
        ("premises_fol", "ab"),
        ("premises_fol", ["a", "b", "c"]),
        ("premises_nl", "ab"),
        ("conclusion_fol", ["[]"]),
        ("conclusion_nl", 5),
    ],
)
def test_malformed_gold_step_exits_2(capsys, gold_and_preds, command, field, value):
    # A two-letter string would be read as the premises "a" and "b".
    gold, preds = gold_and_preds
    recs = [json.loads(l) for l in gold.read_text().splitlines()]
    lineno = next(n for n, r in enumerate(recs, start=1) if r["gold_proof"])
    recs[lineno - 1]["gold_proof"][0][field] = value
    gold.write_text("".join(json.dumps(r) + "\n" for r in recs))
    code, _, err = run(capsys, command, *_argv(command, gold, preds))
    assert code == 2
    assert f"{gold}:{lineno}:" in err and field in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["check", "eval"])
@pytest.mark.parametrize("premises", ["ab", ["a", "b", "c"]])
def test_predicted_step_premises_not_a_pair_exit_2(capsys, gold_and_preds, command, premises):
    # Neither is a pair: a lenient reader would take "ab" as the premises
    # "a" and "b", or the list's first two, and score the step.
    gold, preds = gold_and_preds
    recs = [json.loads(l) for l in preds.read_text().splitlines()]
    recs[1]["predicted_proof"] = [{"premises_fol": premises, "conclusion_fol": "[]"}]
    preds.write_text("".join(json.dumps(r) + "\n" for r in recs))
    code, _, err = run(capsys, command, *_argv(command, gold, preds))
    assert code == 2
    assert f"{preds}:2:" in err and recs[1]["id"] in err and "premises_fol" in err


_PROVE_PAIR = ["prove", "--hypothesis", "Bob is kind.", "--theory", "T"]


@pytest.mark.parametrize(
    "argv, bad",
    [
        (_PROVE_PAIR, "T"),
        (["sat", "--theory", "T"], "T"),
        (_PROVE_PAIR + ["--lexicon", "L"], "L"),
        (["sat", "--theory", "T", "--lexicon", "L"], "L"),
        (["prove", "--instances", "G", "--jobs", "1"], "G"),
        (["eval", "--predictions", "P", "--gold", "G"], "G"),
        (["eval", "--predictions", "P", "--gold", "G"], "P"),
        (["check", "--proofs", "P", "--instances", "G"], "G"),
        (["check", "--proofs", "P", "--instances", "G"], "P"),
    ],
    ids=[
        "prove-theory", "sat-theory", "prove-lexicon", "sat-lexicon", "prove-instances",
        "eval-gold", "eval-predictions", "check-instances", "check-proofs",
    ],
)
def test_non_utf8_input_exits_2_naming_the_file(capsys, tmp_path, gold_and_preds, theory_file, argv, bad):
    gold, preds = gold_and_preds
    lexicon = tmp_path / "lex.txt"
    lexicon.write_text("[entities]\nBob\n[attributes]\nkind\n")
    paths = {"T": theory_file, "L": str(lexicon), "G": str(gold), "P": str(preds)}
    with open(paths[bad], "ab") as fh:
        fh.write(b"\xff\xfe\n")
    code, out, err = run(capsys, *[paths.get(a, a) for a in argv])
    assert code == 2
    assert f"{paths[bad]}: " in err and "utf-8" in err
    assert not out


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


def _nested(depth):
    return "f(" * depth + "a" + ")" * depth


@pytest.mark.parametrize("command", ["check", "eval"])
@pytest.mark.parametrize("depth", [300, 3000])
def test_deeply_nested_predicted_premise_counts_invalid(capsys, gold_and_preds, command, depth):
    # Past the parser's term depth a premise is malformed clause text: the
    # step is invalid, not a crash.
    gold, preds = gold_and_preds
    recs = [json.loads(l) for l in preds.read_text().splitlines()]
    rec = next(r for r in recs if r["predicted_proof"])
    rec["predicted_proof"][0]["premises_fol"][0] = f"p({_nested(depth)})"
    preds.write_text("".join(json.dumps(r) + "\n" for r in recs))
    code, out, err = run(capsys, command, *_argv(command, gold, preds))
    assert code == 0 and "Traceback" not in err
    n = len(recs)
    if command == "check":
        assert f"{rec['id']}: invalid" in out and out.endswith(f"valid: {n - 1}/{n}\n")
    else:
        assert "EA: 1.0000" in out and f"FA: {(n - 1) / n:.4f}" in out


# ---------------------------------------------------------------------------
# The readers under generated damage: every command exits 0, 2 or 4.


@cache
def _fuzz_files() -> dict[str, bytes]:
    """A generated gold file, `prove`'s predictions for it, a theory and a
    lexicon."""
    with tempfile.TemporaryDirectory() as d:
        gold = Path(d) / "gold.jsonl"
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["gen", "--out", str(gold), "--count", "4", "--seed", "9"]) == 0
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["prove", "--instances", str(gold), "--jobs", "1", "--json"]) == 0
        return {
            "gold": gold.read_bytes(),
            "preds": out.getvalue().encode(),
            "theory": WORKED_THEORY.encode(),
            "lexicon": b"[entities]\nBob\n[attributes]\nkind\nround\nrough\n",
        }


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
_CLAUSE_TEXT = st.one_of(
    st.text(max_size=24),
    st.integers(0, 3000).map(lambda d: f"p({_nested(d)})"),
    st.sampled_from(
        ["[]", "", "kind(", "p(x))", " | ", "-kind(Bob)", "kind(Bob) | -kind(Bob)", "p(sk1(v1))", "-(a)"]
    ),
)


def _damage_record(data, rec) -> object:
    """`rec` with one field replaced, or one clause text of a proof step."""
    steps = (rec.get("predicted_proof") or rec.get("gold_proof")) if isinstance(rec, dict) else None
    if steps and data.draw(st.booleans()):
        step = steps[data.draw(st.integers(0, len(steps) - 1))]
        field = data.draw(st.sampled_from(["premises_fol", "conclusion_fol", "premises_nl"]))
        text = data.draw(_CLAUSE_TEXT)
        if field.startswith("premises") and isinstance(step.get(field), list) and step[field]:
            step[field][data.draw(st.integers(0, len(step[field]) - 1))] = text
        else:
            step[field] = text
        return rec
    if isinstance(rec, dict) and rec and data.draw(st.booleans()):
        rec[data.draw(st.sampled_from(sorted(rec)))] = data.draw(_JSON)
        return rec
    return data.draw(_JSON)


def _damage(data, raw: bytes, jsonl: bool) -> bytes:
    lines = raw.split(b"\n")
    i = data.draw(st.integers(0, len(lines) - 1))
    how = data.draw(st.sampled_from(["record" if jsonl else "text", "bytes", "truncate", "drop", "repeat"]))
    if how == "record" and lines[i].strip():
        lines[i] = json.dumps(_damage_record(data, json.loads(lines[i]))).encode()
    elif how == "text":
        lines[i] = data.draw(st.text(max_size=40)).encode("utf-8", "surrogatepass")
    elif how == "bytes":
        lines[i] = data.draw(st.binary(max_size=24))
    elif how == "truncate":
        lines[i] = lines[i][: data.draw(st.integers(0, len(lines[i])))]
    elif how == "drop":
        del lines[i]
    else:
        lines.insert(i, lines[i])
    return b"\n".join(lines)


_FUZZ_COMMANDS = {
    "gold": [
        ["prove", "--instances", "G", "--jobs", "1"],
        ["check", "--proofs", "P", "--instances", "G"],
        ["eval", "--predictions", "P", "--gold", "G", "--json"],
    ],
    "preds": [
        ["check", "--proofs", "P", "--instances", "G", "--json"],
        ["eval", "--predictions", "P", "--gold", "G"],
    ],
    "theory": [
        ["prove", "--theory", "T", "--hypothesis", "Bob is not kind."],
        ["sat", "--theory", "T", "--json"],
    ],
    "lexicon": [
        ["prove", "--theory", "T", "--hypothesis", "Bob is not kind.", "--lexicon", "L"],
        ["sat", "--theory", "T", "--lexicon", "L"],
    ],
}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_FUZZ_COMMANDS)), st.data())
def test_damaged_inputs_exit_0_2_or_4_without_raising(which, data):
    files = dict(_fuzz_files())
    files[which] = _damage(data, files[which], jsonl=which in ("gold", "preds"))
    with tempfile.TemporaryDirectory() as d:
        paths = {}
        for name, flag in (("gold", "G"), ("preds", "P"), ("theory", "T"), ("lexicon", "L")):
            paths[flag] = Path(d) / name
            paths[flag].write_bytes(files[name])
        for argv in _FUZZ_COMMANDS[which]:
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main([str(paths[a]) if a in paths else a for a in argv])
            assert code in (0, 2, 4), (argv, err.getvalue())
            assert "Traceback" not in err.getvalue()
