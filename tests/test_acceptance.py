"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. The heavyweight fixtures (1,000 judged instances, 400 rule-only
instances) are built once per session and shared across criteria.
"""

import json
import math
import time
from itertools import islice

import pytest

from nlprover.cli import main as cli_main
from nlprover.datagen import (
    GenConfig,
    extract_training_samples,
    generate,
    generate_nlsat,
    oracle_entail,
    oracle_sat,
)
from nlprover.engine import SOS_LINEAR, UNRESTRICTED, refute
from nlprover.evaluation import PredictionRecord, score, vce_loss
from nlprover.judge import FALSE, SATISFIABLE, TRUE, UNKNOWN, UNSATISFIABLE, check_sat, judge
from nlprover.language import realize_clause, to_sentence
from nlprover.logic import canonical_key, parse_clause
from nlprover.normalize import SkolemNamer, build_theory_sets, to_clauses

WORKED_THEORY = [
    "Everyone is not kind or not round or rough.",
    "Everyone is not rough.",
    "Everyone is round.",
]
WORKED_HYPOTHESIS = "Bob is not kind."

# All three configurations stay within the <=6 entities / <=8 attributes
# bound of the main corpus criteria and the 24-ground-atom oracle cap.
MAIN_CONFIGS = [
    (GenConfig(seed=101, n_entities=4, n_attributes=6), 400),
    (GenConfig(seed=202, n_entities=6, n_attributes=4, n_facts=6), 300),
    (GenConfig(seed=303, n_entities=3, n_attributes=8, n_rules=6), 300),
]


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name} failed: {detail}"


def _judge_instance(inst):
    lex = inst.lexicon()
    sents = [to_sentence(t, lex) for t in inst.theory]
    hyp = to_sentence(inst.hypothesis, lex)
    return judge(sents, hyp, lexicon=lex), sents, hyp, lex


@pytest.fixture(scope="session")
def main_corpus():
    t0 = time.time()
    instances = []
    for cfg, n in MAIN_CONFIGS:
        instances.extend(islice(generate(cfg), n))
    verdicts = []
    oracle_labels = []
    for inst in instances:
        verdict, sents, hyp, lex = _judge_instance(inst)
        namer = SkolemNamer()
        clauses = [c for s in sents for c in to_clauses(s.formula, namer)]
        oracle_labels.append(oracle_entail(clauses, hyp.formula))
        verdicts.append(verdict)
    elapsed = time.time() - t0
    return instances, verdicts, oracle_labels, elapsed


@pytest.fixture(scope="session")
def existential_corpus():
    cfg = GenConfig(seed=404, n_entities=3, n_attributes=4, allow_existential=True)
    instances = list(islice(generate(cfg), 200))
    verdicts = []
    oracle_labels = []
    for inst in instances:
        verdict, sents, hyp, lex = _judge_instance(inst)
        namer = SkolemNamer()
        clauses = [c for s in sents for c in to_clauses(s.formula, namer)]
        oracle_labels.append(oracle_entail(clauses, hyp.formula))
        verdicts.append(verdict)
    return instances, verdicts, oracle_labels


@pytest.fixture(scope="session")
def nlsat_corpus():
    cfg = GenConfig(seed=505, n_attributes=12, n_rules=6, target_depth_range=(1, 12))
    return list(islice(generate_nlsat(cfg, fraction_unsat=0.5), 400))


def _records_for(instances, verdicts):
    records = []
    for inst, v in zip(instances, verdicts):
        records.append(
            PredictionRecord(
                instance_id=inst.id,
                theory=inst.theory,
                hypothesis=inst.hypothesis,
                gold_label=inst.label,
                predicted_label=v.label,
                predicted_proof=[(s.premises_fol, s.conclusion_fol) for s in v.proof],
                lexicon=inst.lexicon(),
            )
        )
    return records


def _round_trip_ok(instances, verdicts):
    checked = 0
    for inst, v in zip(instances, verdicts):
        lex = inst.lexicon()
        clause_strs = list(inst.theory_fol)
        if inst.hypothesis_fol:
            clause_strs.append(inst.hypothesis_fol)
        for s in v.proof:
            clause_strs.extend([s.premises_fol[0], s.premises_fol[1], s.conclusion_fol])
        for cs in clause_strs:
            c = parse_clause(cs)
            if c.is_empty:
                if realize_clause(c, lex) != "":
                    return False, "empty clause must render as the empty string"
                continue
            text = realize_clause(c, lex)
            back = to_clauses(to_sentence(text, lex).formula, SkolemNamer(start=900))
            if len(back) != 1 or canonical_key(back[0]) != canonical_key(c):
                return False, f"round trip broke on {cs!r} -> {text!r}"
            checked += 1
    return True, f"{checked} clauses"


def test_01_oracle_agreement(main_corpus):
    instances, verdicts, oracle_labels, elapsed = main_corpus
    n = len(instances)
    agree = sum(
        v.label == ol == inst.label
        for inst, v, ol in zip(instances, verdicts, oracle_labels)
    )
    labels = {i.label for i in instances}
    ok = n == 1000 and agree == n and elapsed < 120 and labels == {TRUE, FALSE, UNKNOWN}
    report(1, "oracle agreement", ok, f"{agree}/{n} agree, {elapsed:.1f}s")


def test_02_self_full_accuracy(main_corpus):
    instances, verdicts, _, _ = main_corpus
    s = score(_records_for(instances, verdicts))
    ok = s.entailment_accuracy == 1.0 and s.full_accuracy == 1.0
    report(2, "self full-accuracy", ok, f"EA={s.entailment_accuracy} FA={s.full_accuracy}")


def test_03_worked_example_reproduction():
    from nlprover.language import DEFAULT_LEXICON as lex

    sents = [to_sentence(t, lex) for t in WORKED_THEORY]
    v = judge(sents, to_sentence(WORKED_HYPOTHESIS, lex), lexicon=lex)
    want_fol = ["-round(Bob) | rough(Bob)", "-round(Bob)", "[]"]
    want_nl = ["Bob is not round or rough.", "Bob is not round.", ""]
    got_fol = [s.conclusion_fol for s in v.proof]
    got_nl = [s.conclusion_nl for s in v.proof]
    variant_ok = len(got_fol) == 3 and all(
        canonical_key(parse_clause(a)) == canonical_key(parse_clause(b))
        for a, b in zip(got_fol, want_fol)
    )
    ok = v.label == TRUE and variant_ok and got_nl == want_nl
    report(3, "worked example", ok, f"label={v.label} conclusions={got_fol}")


def test_04_round_trip(main_corpus):
    instances, verdicts, _, _ = main_corpus
    ok, detail = _round_trip_ok(instances, verdicts)
    report(4, "round trip", ok, detail)


def test_05_strategy_equivalence(main_corpus):
    instances = main_corpus[0][:500]
    agreements = 0
    total = 0
    sos_not_worse = 0
    refuted_cases = 0
    for inst in instances:
        lex = inst.lexicon()
        sents = [to_sentence(t, lex).formula for t in inst.theory]
        h = to_sentence(inst.hypothesis, lex).formula
        for pick in (0, 1):
            ra = refute(build_theory_sets(sents, h)[pick], strategy=SOS_LINEAR, budget=5000)
            rb = refute(build_theory_sets(sents, h)[pick], strategy=UNRESTRICTED, budget=5000)
            total += 1
            agreements += ra.refuted == rb.refuted
            if ra.refuted and rb.refuted:
                refuted_cases += 1
                sos_not_worse += ra.steps_used <= rb.steps_used
    ratio = sos_not_worse / refuted_cases if refuted_cases else 1.0
    ok = total == 1000 and agreements == total and ratio >= 0.9
    report(
        5,
        "strategy equivalence",
        ok,
        f"{agreements}/{total} agree, sos<=unrestricted on {ratio:.1%} of {refuted_cases} refuted",
    )


def test_06_existential_handling(existential_corpus):
    instances, verdicts, oracle_labels = existential_corpus
    n = len(instances)
    agree = sum(
        v.label == ol == inst.label
        for inst, v, ol in zip(instances, verdicts, oracle_labels)
    )
    s = score(_records_for(instances, verdicts))
    rt_ok, rt_detail = _round_trip_ok(instances, verdicts)
    uses_existential = any(
        t.startswith("Someone") for inst in instances for t in inst.theory
    )
    ok = (
        n == 200
        and agree == n
        and s.entailment_accuracy == 1.0
        and s.full_accuracy == 1.0
        and rt_ok
        and uses_existential
    )
    report(6, "existential handling", ok, f"{agree}/{n} agree, EA=FA={s.full_accuracy}, {rt_detail}")


def test_07_nlsat(nlsat_corpus):
    instances = nlsat_corpus
    n = len(instances)
    agree = 0
    for inst in instances:
        lex = inst.lexicon()
        sents = [to_sentence(t, lex) for t in inst.theory]
        namer = SkolemNamer()
        clauses = [c for s in sents for c in to_clauses(s.formula, namer)]
        expected = SATISFIABLE if oracle_sat(clauses) else UNSATISFIABLE
        got = check_sat(sents, budget=100, lexicon=lex).status
        agree += got == expected == inst.label
    n_unsat = sum(i.label == UNSATISFIABLE for i in instances)
    max_depth = max(i.depth for i in instances)
    ok = n == 400 and agree == n and n_unsat == 200 and max_depth >= 10
    report(7, "nlsat", ok, f"{agree}/{n} agree, {n_unsat} unsat, max depth {max_depth}")


def test_08_vce_loss_numerics():
    checks = [
        math.isclose(vce_loss([0.9, 0.0], [0], [1]), -0.9, abs_tol=1e-9),
        math.isclose(vce_loss([0.5, 0.0], [0], [1]), -0.8, abs_tol=1e-9),
        math.isclose(
            vce_loss([0.8, 0.0, 0.0], [0], [1, 2]), -(0.8 - math.log(2.0)), abs_tol=1e-9
        ),
    ]
    h = 1e-5
    base = [0.85, 0.3, -0.2]
    l0 = vce_loss(base, [0], [1, 2])
    up = [0.85 + h, 0.3, -0.2]
    mono_pos = vce_loss(up, [0], [1, 2]) <= l0 + 1e-12
    mono_neg = all(
        vce_loss([0.85, 0.3 + (h if i == 1 else 0), -0.2 + (h if i == 2 else 0)], [0], [1, 2])
        >= l0 - 1e-12
        for i in (1, 2)
    )
    ok = all(checks) and mono_pos and mono_neg
    report(8, "vce loss numerics", ok, f"values={checks} mono=({mono_pos},{mono_neg})")


def test_09_training_record_extraction():
    from nlprover.datagen import Instance
    from nlprover.engine import ProofStep
    from nlprover.language import DEFAULT_LEXICON

    lex = DEFAULT_LEXICON
    sents = [to_sentence(t, lex) for t in WORKED_THEORY]
    v = judge(sents, to_sentence(WORKED_HYPOTHESIS, lex), lexicon=lex)
    inst = Instance(
        id="worked",
        theory=WORKED_THEORY,
        theory_fol=[],
        hypothesis=WORKED_HYPOTHESIS,
        hypothesis_fol="-kind(Bob)",
        label=v.label,
        depth=len(v.proof),
        gold_proof=[
            ProofStep(s.premises_fol, s.premises_nl, s.conclusion_fol, s.conclusion_nl)
            for s in v.proof
        ],
        meta={"entities": list(lex.entities), "attributes": list(lex.attributes)},
    )
    a = extract_training_samples(inst)
    b = extract_training_samples(inst)
    merged = "Bob is not round or rough." in a[4]["context"]
    ok = (
        len(a) == 12
        and merged
        and json.dumps(a, ensure_ascii=False) == json.dumps(b, ensure_ascii=False)
    )
    report(9, "training records", ok, f"{len(a)} records, merged={merged}")


def test_10_determinism(tmp_path, capsys):
    gen_outputs = []
    for name in ("a.jsonl", "b.jsonl"):
        path = tmp_path / name
        code = cli_main(["gen", "--out", str(path), "--count", "15", "--seed", "77"])
        assert code == 0
        gen_outputs.append(path.read_bytes())
    capsys.readouterr()

    theory = tmp_path / "theory.txt"
    theory.write_text("\n".join(WORKED_THEORY) + "\n")
    prove_outputs = []
    for _ in range(2):
        code = cli_main(
            ["prove", "--theory", str(theory), "--hypothesis", WORKED_HYPOTHESIS]
        )
        assert code == 0
        prove_outputs.append(capsys.readouterr().out)
    ok = gen_outputs[0] == gen_outputs[1] and prove_outputs[0] == prove_outputs[1]
    with capsys.disabled():
        report(10, "determinism", ok, "gen and prove byte-identical")
