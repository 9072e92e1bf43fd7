import math
import random
from itertools import islice

import pytest

import nlprover.evaluation as evaluation
from nlprover.datagen import GenConfig, generate, generate_nlsat
from nlprover.evaluation import (
    DegenerateContrastError,
    PredictionRecord,
    Scores,
    check_proof,
    check_step,
    score,
    vce_loss,
)
from nlprover.judge import FALSE, SATISFIABLE, TRUE, UNSATISFIABLE, judge, target_clauses
from nlprover.language import to_sentence
from nlprover.normalize import theory_set

RULE = "-kind(v1) | -round(v1) | rough(v1)"

WORKED_THEORY = [
    "Everyone is not kind or not round or rough.",
    "Everyone is not rough.",
    "Everyone is round.",
]
WORKED_PROOF = [
    (("kind(Bob)", RULE), "-round(Bob) | rough(Bob)"),
    (("-round(Bob) | rough(Bob)", "-rough(v1)"), "-round(Bob)"),
    (("-round(Bob)", "round(v1)"), "[]"),
]


def worked_record(**overrides):
    kwargs = dict(
        instance_id="w1",
        theory=WORKED_THEORY,
        hypothesis="Bob is not kind.",
        gold_label="True",
        predicted_label="True",
        predicted_proof=[(tuple(p), c) for p, c in WORKED_PROOF],
    )
    kwargs.update(overrides)
    return PredictionRecord(**kwargs)


def test_check_step_rule_application():
    assert check_step((RULE, "kind(Bob)"), "-round(Bob) | rough(Bob)")


def test_check_step_unit_refutation():
    assert check_step(("kind(Bob)", "-kind(Bob)"), "[]")


def test_check_step_rejects_unsupported_conclusion():
    assert not check_step(("kind(Bob)", "tall(Bob)"), "happy(Bob)")


def test_check_step_is_symmetric():
    assert check_step(("kind(Bob)", RULE), "-round(Bob) | rough(Bob)")


def test_check_step_accepts_variant_conclusions():
    assert check_step(("-kind(v1) | rough(v1)", "-rough(v2)"), "-kind(v7)")
    # Seven variables: the conclusion is the resolvent renamed and reordered.
    assert check_step(
        ("-p(v7,v1) | p(v6,v2) | q(v3,v3) | -q(v5,v4) | -q(v5,v2) | r(a)", "-r(a)"),
        "-q(v6,v7) | q(v2,v2) | -p(v1,v5) | -q(v6,v4) | p(v3,v7)",
    )


def test_check_step_accepts_factored_resolvent():
    assert check_step(("p(v1) | q(Bob)", "p(Bob) | -q(Bob)"), "p(Bob)")


def test_check_step_malformed_counts_invalid():
    assert not check_step(("kind(", "kind(Bob)"), "[]")
    assert not check_step(("kind(Bob)", "-kind(Bob)"), "not a clause")
    # Nested this deep, a term would exhaust the recursion limit in
    # unification (300) or in the parser (3,000).
    for depth in (300, 3000):
        deep = "f(" * depth + "a" + ")" * depth
        assert not check_step((f"p({deep})", f"-p({deep})"), "[]")
        assert not check_step((f"p({deep}) | q(a)", "-q(a)"), f"p({deep})")


def test_check_proof_worked_example():
    assert check_proof(worked_record())


def test_check_proof_unknown_convention():
    rec = worked_record(predicted_label="Unknown", predicted_proof=[], gold_label="Unknown")
    assert check_proof(rec)
    rec = worked_record(predicted_label="Unknown", predicted_proof=[], gold_label="True")
    assert not check_proof(rec)


def test_check_proof_on_rule_only_data():
    # No hypothesis: an Unsatisfiable proof refutes the theory alone, and a
    # Satisfiable prediction, like Unknown, carries no proof.
    cfg = GenConfig(seed=9, n_attributes=8, target_depth_range=(1, 6))
    insts = list(islice(generate_nlsat(cfg, 0.5), 6))
    assert {i.label for i in insts} == {SATISFIABLE, UNSATISFIABLE}
    for inst in insts:
        gold = [(s.premises_fol, s.conclusion_fol) for s in inst.gold_proof]
        rec = PredictionRecord(
            inst.id, inst.theory, inst.hypothesis, inst.label, inst.label, gold, inst.lexicon()
        )
        assert check_proof(rec)
        other = SATISFIABLE if inst.label == UNSATISFIABLE else UNSATISFIABLE
        rec.gold_label = other
        assert check_proof(rec) == (inst.label == UNSATISFIABLE)


def test_check_proof_rejects_altered_middle_step():
    proof = [(tuple(p), c) for p, c in WORKED_PROOF]
    proof[1] = (proof[1][0], "round(Bob)")
    assert not check_proof(worked_record(predicted_proof=proof))


def test_check_proof_rejects_foreign_premises():
    proof = [(("tall(Alan)", "-tall(Alan)"), "[]")]
    assert not check_proof(worked_record(predicted_proof=proof))


def test_check_proof_requires_empty_clause_ending():
    proof = [(tuple(p), c) for p, c in WORKED_PROOF[:2]]
    assert not check_proof(worked_record(predicted_proof=proof))


@pytest.mark.parametrize(
    "overrides",
    [
        {"theory": [*WORKED_THEORY, "Everyone is purple."]},
        {"hypothesis": "Bob is not purple."},
    ],
    ids=["theory", "hypothesis"],
)
def test_check_proof_unknown_word_scores_invalid(overrides):
    assert not check_proof(worked_record(**overrides))


def test_check_proof_premises_may_be_earlier_conclusions():
    # step 2 uses step 1's conclusion; the full worked proof covers it
    assert check_proof(worked_record())


def test_score_all_correct():
    records = [worked_record(instance_id=f"r{i}") for i in range(3)]
    s = score(records)
    assert s == Scores(1.0, 1.0, 3)


def test_score_three_of_four_labels():
    records = [worked_record(instance_id=f"r{i}") for i in range(3)]
    records.append(worked_record(instance_id="r3", predicted_label="False", predicted_proof=[]))
    s = score(records)
    assert s.entailment_accuracy == 0.75
    assert s.full_accuracy == 0.75
    assert s.n == 4


def test_score_full_accuracy_never_exceeds_entailment():
    rng = random.Random(17)
    records = []
    for i in range(40):
        rec = worked_record(instance_id=f"p{i}")
        roll = rng.random()
        if roll < 0.3:
            rec.predicted_label = "False"
        elif roll < 0.6:
            rec.predicted_proof = rec.predicted_proof[:1]
        records.append(rec)
    s = score(records)
    assert 0.0 <= s.full_accuracy <= s.entailment_accuracy <= 1.0


def test_score_rejects_empty_input():
    with pytest.raises(ValueError):
        score([])


_TARGET_STREAMS = {
    "default": (lambda: generate(GenConfig(seed=5)), {TRUE, FALSE}),
    "existential": (
        lambda: generate(GenConfig(seed=5, n_entities=2, n_attributes=4, allow_existential=True)),
        {TRUE, FALSE},
    ),
    "nlsat": (
        lambda: generate_nlsat(GenConfig(seed=5, n_attributes=8, target_depth_range=(1, 6)), 0.5),
        {UNSATISFIABLE},
    ),
}


@pytest.mark.parametrize("stream", sorted(_TARGET_STREAMS))
def test_check_proof_reads_the_targets_clauses(monkeypatch, stream):
    # check_proof takes the premises it accepts from the target's compiled
    # clauses, with no TheorySet built: their keys are the set's keys.
    made = []
    real = evaluation.target_clauses
    monkeypatch.setattr(evaluation, "target_clauses", lambda *a: made.append(real(*a)) or made[-1])
    draw, labels = _TARGET_STREAMS[stream]
    seen = set()
    for inst in islice(draw(), 12):
        if not inst.gold_proof:
            continue
        lex = inst.lexicon()
        gold = [(s.premises_fol, s.conclusion_fol) for s in inst.gold_proof]
        made.clear()
        rec = PredictionRecord(
            inst.id, inst.theory, inst.hypothesis, inst.label, inst.label, gold, lex
        )
        assert check_proof(rec)
        [(theory, goals)] = made
        target = theory_set(*target_clauses(inst.theory, inst.hypothesis, inst.label, lex))
        assert {c.literals for c in theory + goals} == {c.literals for c in target.clauses}
        seen.add(inst.label)
    assert seen == labels


def test_engine_verdicts_score_perfectly():
    records = []
    for inst in islice(generate(GenConfig(seed=8)), 20):
        lex = inst.lexicon()
        sents = [to_sentence(t, lex) for t in inst.theory]
        v = judge(sents, to_sentence(inst.hypothesis, lex), lexicon=lex)
        records.append(
            PredictionRecord(
                instance_id=inst.id,
                theory=inst.theory,
                hypothesis=inst.hypothesis,
                gold_label=inst.label,
                predicted_label=v.label,
                predicted_proof=[(s.premises_fol, s.conclusion_fol) for s in v.proof],
                lexicon=lex,
            )
        )
    s = score(records)
    assert s.entailment_accuracy == 1.0
    assert s.full_accuracy == 1.0


def test_vce_loss_single_positive_above_clamp():
    assert vce_loss([0.9, 0.0], [0], [1]) == pytest.approx(-0.9, abs=1e-9)


def test_vce_loss_clamps_low_positive():
    assert vce_loss([0.5, 0.0], [0], [1]) == pytest.approx(-0.8, abs=1e-9)


def test_vce_loss_two_negatives():
    expected = -(0.8 - math.log(2.0))
    assert vce_loss([0.8, 0.0, 0.0], [0], [1, 2]) == pytest.approx(expected, abs=1e-9)


def test_vce_loss_monotonicity_by_finite_differences():
    h = 1e-5
    base = [0.85, 0.3, -0.2, 0.1]
    pos, neg = [0], [1, 2, 3]
    l0 = vce_loss(base, pos, neg)
    up = list(base)
    up[0] += h
    assert vce_loss(up, pos, neg) <= l0 + 1e-12  # non-increasing in positives above 0.8
    for i in neg:
        bumped = list(base)
        bumped[i] += h
        assert vce_loss(bumped, pos, neg) >= l0 - 1e-12  # non-decreasing in negatives


def test_check_proof_rejects_wrong_side_premises():
    # predicted True must refute theory + negated hypothesis; sneaking the
    # hypothesis clause itself in as a premise is invalid
    proof = [(("-kind(Bob)", "kind(Bob)"), "[]")]
    rec = worked_record(predicted_proof=proof)
    # kind(Bob) is the T2 goal clause, -kind(Bob) is only in T1
    assert not check_proof(rec)


def test_vce_loss_degenerate_sets_rejected():
    with pytest.raises(DegenerateContrastError):
        vce_loss([0.5], [0], [])
    with pytest.raises(DegenerateContrastError):
        vce_loss([0.5], [], [0])
    with pytest.raises(ValueError):
        vce_loss([0.5, 0.5], [0], [0])
