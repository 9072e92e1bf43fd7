import json
from collections import Counter
from itertools import islice

import pytest

from nlprover.datagen import (
    GenConfig,
    GenerationStalledError,
    InconsistentTheoryError,
    OracleOverflowError,
    extract_training_samples,
    generate,
    generate_nlsat,
    instance_from_dict,
    instance_to_dict,
    oracle_entail,
    oracle_sat,
)
from nlprover.judge import FALSE, SATISFIABLE, TRUE, UNKNOWN, UNSATISFIABLE, judge
from nlprover.language import DEFAULT_LEXICON, to_sentence
from nlprover.logic import parse_clause
from nlprover.normalize import Atom, SkolemNamer, to_clauses
from nlprover.logic import Const

BOB = Const("Bob")


def test_oracle_reflexive_entailment():
    assert oracle_entail([parse_clause("kind(Bob)")], Atom("kind", (BOB,))) == TRUE


def test_oracle_independent_atom_unknown():
    assert oracle_entail([parse_clause("kind(Bob)")], Atom("round", (BOB,))) == UNKNOWN


def test_oracle_worked_example_entailment():
    theory = [
        parse_clause("-kind(v1) | -round(v1) | rough(v1)"),
        parse_clause("-rough(v1)"),
        parse_clause("round(v1)"),
    ]
    from nlprover.normalize import Not

    assert oracle_entail(theory, Not(Atom("kind", (BOB,)))) == TRUE
    assert oracle_entail(theory, Atom("kind", (BOB,))) == FALSE


def test_oracle_universal_hypothesis_needs_witness():
    # one positive instance does not entail the universal claim
    from nlprover.normalize import ForAll
    from nlprover.logic import Var

    x = Var("x")
    assert oracle_entail([parse_clause("round(Bob)")], ForAll(x, Atom("round", (x,)))) == UNKNOWN
    assert oracle_entail([parse_clause("round(v1)")], ForAll(x, Atom("round", (x,)))) == TRUE


def test_oracle_existential_hypothesis():
    from nlprover.normalize import Exists
    from nlprover.logic import Var

    x = Var("x")
    assert oracle_entail([parse_clause("kind(Bob)")], Exists(x, Atom("kind", (x,)))) == TRUE


def test_oracle_rejects_inconsistent_theory():
    with pytest.raises(InconsistentTheoryError):
        oracle_entail(
            [parse_clause("kind(Bob)"), parse_clause("-kind(Bob)")], Atom("round", (BOB,))
        )


def test_oracle_overflow_guard():
    clauses = [parse_clause(f"p{i}(Bob) | p{i}(Alan) | p{i}(Erin)") for i in range(9)]
    with pytest.raises(OracleOverflowError):
        oracle_sat(clauses)  # 9 predicates x 3 constants = 27 atoms


def test_oracle_sat_examples():
    assert oracle_sat([parse_clause("kind(Bob)")])
    assert not oracle_sat([parse_clause("round(v1)"), parse_clause("-round(Bob)")])


def test_generate_is_deterministic():
    a = [instance_to_dict(i) for i in islice(generate(GenConfig(seed=6)), 12)]
    b = [instance_to_dict(i) for i in islice(generate(GenConfig(seed=6)), 12)]
    assert a == b


def test_generate_label_mix_is_exact():
    insts = list(islice(generate(GenConfig(seed=2)), 30))
    counts = Counter(i.label for i in insts)
    assert counts == {TRUE: 10, FALSE: 10, UNKNOWN: 10}


def test_generate_respects_custom_mix():
    cfg = GenConfig(seed=2, label_mix=(0.5, 0.5, 0.0))
    insts = list(islice(generate(cfg), 20))
    counts = Counter(i.label for i in insts)
    assert counts == {TRUE: 10, FALSE: 10}


def test_generated_instances_rejudge_to_stored_label():
    for inst in islice(generate(GenConfig(seed=4)), 25):
        lex = inst.lexicon()
        sents = [to_sentence(t, lex) for t in inst.theory]
        v = judge(sents, to_sentence(inst.hypothesis, lex), lexicon=lex)
        assert v.label == inst.label
        assert len(v.proof) == inst.depth


def test_generated_theory_fol_matches_parse():
    for inst in islice(generate(GenConfig(seed=10)), 10):
        lex = inst.lexicon()
        namer = SkolemNamer()
        got = []
        for t in inst.theory:
            cls = to_clauses(to_sentence(t, lex).formula, namer)
            assert len(cls) == 1
            got.append(cls[0])
        from nlprover.logic import clause_to_str

        assert [clause_to_str(c) for c in got] == inst.theory_fol


def test_existential_and_nlsat_theory_fol_match_parse_per_sentence():
    from nlprover.logic import clause_to_str

    cfg = GenConfig(seed=3, n_entities=3, n_attributes=4, allow_existential=True)
    exist = list(islice(generate(cfg), 30))
    assert any("sk" in s for i in exist for s in i.theory_fol)
    for inst in exist + list(islice(generate_nlsat(GenConfig(seed=5)), 10)):
        lex = inst.lexicon()
        namer = SkolemNamer()
        got = []
        for t in inst.theory:
            cls = to_clauses(to_sentence(t, lex).formula, namer)
            assert len(cls) == 1
            got.append(cls[0])
        assert [clause_to_str(c) for c in got] == inst.theory_fol


def test_generated_depths_stay_in_window():
    cfg = GenConfig(seed=15, target_depth_range=(2, 4))
    for inst in islice(generate(cfg), 15):
        if inst.label != UNKNOWN:
            assert 2 <= inst.depth <= 4


def test_existential_mode_produces_someone_sentences():
    cfg = GenConfig(seed=3, n_entities=3, n_attributes=4, allow_existential=True)
    insts = list(islice(generate(cfg), 30))
    assert any(t.startswith("Someone") for i in insts for t in i.theory)
    assert any("sk" in s for i in insts for s in i.theory_fol)


def test_instance_json_round_trip():
    inst = next(iter(generate(GenConfig(seed=1))))
    d = instance_to_dict(inst)
    assert instance_from_dict(json.loads(json.dumps(d))) == inst


def test_training_record_counts():
    # one record block of four per proof step
    for inst in islice(generate(GenConfig(seed=12, label_mix=(0.5, 0.5, 0.0))), 6):
        records = extract_training_samples(inst)
        assert len(records) == 4 * inst.depth
        kinds = [r["kind"] for r in records]
        assert kinds[:4] == ["pre_s", "post_s", "post_s", "kc"]


def test_training_records_for_worked_example():
    lex = DEFAULT_LEXICON
    theory = [
        "Everyone is not kind or not round or rough.",
        "Everyone is not rough.",
        "Everyone is round.",
    ]
    sents = [to_sentence(t, lex) for t in theory]
    h = to_sentence("Bob is not kind.", lex)
    v = judge(sents, h, lexicon=lex)
    from nlprover.datagen import GoldStep, Instance

    inst = Instance(
        id="w",
        theory=theory,
        theory_fol=[],
        hypothesis="Bob is not kind.",
        hypothesis_fol="-kind(Bob)",
        label=v.label,
        depth=len(v.proof),
        gold_proof=[
            GoldStep(s.premises_fol, s.premises_nl, s.conclusion_fol, s.conclusion_nl)
            for s in v.proof
        ],
        meta={"entities": list(lex.entities), "attributes": list(lex.attributes)},
    )
    records = extract_training_samples(inst)
    assert len(records) == 12
    # step 2's context holds step 1's conclusion, merged into the set
    step2 = records[4]
    assert step2["kind"] == "pre_s"
    assert "Bob is not round or rough." in step2["context"]
    # the composer record carries only the two premises
    assert records[3]["kind"] == "kc" and records[3]["context"] == []
    # byte stability across two extractions
    again = extract_training_samples(inst)
    assert json.dumps(records) == json.dumps(again)


def test_training_records_refused_for_unknown():
    inst = next(i for i in generate(GenConfig(seed=2)) if i.label == UNKNOWN)
    with pytest.raises(ValueError):
        extract_training_samples(inst)


def test_nlsat_direct_contradiction_labeled():
    cfg = GenConfig(seed=9, n_attributes=6, target_depth_range=(1, 4))
    insts = list(islice(generate_nlsat(cfg, 1.0), 5))
    assert all(i.label == UNSATISFIABLE for i in insts)
    assert all(i.gold_proof[-1].conclusion_fol == "[]" for i in insts)
    assert all(i.hypothesis == "" for i in insts)


def test_nlsat_fraction_split_is_exact():
    cfg = GenConfig(seed=9, n_attributes=8, target_depth_range=(1, 6))
    insts = list(islice(generate_nlsat(cfg, 0.5), 20))
    counts = Counter(i.label for i in insts)
    assert counts == {SATISFIABLE: 10, UNSATISFIABLE: 10}


def test_nlsat_rule_only_theories_have_no_ground_sentences():
    cfg = GenConfig(seed=11, n_attributes=8, target_depth_range=(1, 6))
    for inst in islice(generate_nlsat(cfg, 0.5), 12):
        for t in inst.theory:
            first = t.split()[0].lower().rstrip(",")
            assert first in ("everyone", "if") or first in inst.meta["attributes"]


def test_nlsat_determinism():
    cfg = GenConfig(seed=14, n_attributes=8, target_depth_range=(1, 8))
    a = [instance_to_dict(i) for i in islice(generate_nlsat(cfg, 0.5), 8)]
    b = [instance_to_dict(i) for i in islice(generate_nlsat(cfg, 0.5), 8)]
    assert a == b


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(n_entities=0).validate()
    with pytest.raises(ValueError):
        GenConfig(label_mix=(0.5, 0.5, 0.5)).validate()
    with pytest.raises(ValueError):
        GenConfig(n_entities=6, n_attributes=8).validate()  # 48 worst-case atoms
    with pytest.raises(ValueError):
        GenConfig(target_depth_range=(3, 1)).validate()
    GenConfig(n_entities=6, n_attributes=4).validate()  # 24 atoms: at the cap
    GenConfig(n_entities=6, n_attributes=8).validate(rule_only=True)


def test_generation_stall_raises_with_constraint():
    # an impossible depth window for a tiny theory cannot be satisfied
    cfg = GenConfig(seed=0, n_facts=1, n_rules=1, target_depth_range=(6, 6))
    with pytest.raises(GenerationStalledError):
        list(islice(generate(cfg), 1))
