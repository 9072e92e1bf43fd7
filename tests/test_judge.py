from itertools import islice
from unittest import mock

import pytest

from nlprover.datagen import GenConfig, generate, generate_nlsat, oracle_entail, oracle_sat
from nlprover.engine import HALT_BUDGET, HALT_EMPTY, RefutationResult, format_proof
from nlprover.judge import (
    FALSE,
    SATISFIABLE,
    TRUE,
    UNKNOWN,
    UNSATISFIABLE,
    check_sat,
    judge,
    refutation_target,
    tie_break,
)
from nlprover.language import DEFAULT_LEXICON, to_sentence
from nlprover.logic import clause_to_str
from nlprover.normalize import SkolemNamer, build_theory_sets, compile_clauses, to_clauses

LEX = DEFAULT_LEXICON

WORKED_THEORY = [
    "Everyone is not kind or not round or rough.",
    "Everyone is not rough.",
    "Everyone is round.",
]


def _sents(texts, lex=LEX):
    return [to_sentence(t, lex) for t in texts]


def test_judge_worked_example_is_true_with_three_steps():
    v = judge(_sents(WORKED_THEORY), to_sentence("Bob is not kind.", LEX))
    assert v.label == TRUE
    assert v.steps_t2 == 3
    assert [s.conclusion_fol for s in v.proof] == [
        "-round(Bob) | rough(Bob)",
        "-round(Bob)",
        "[]",
    ]
    assert not v.tie_broken
    assert v.halt_t2 == HALT_EMPTY


def test_refutation_target_maps_label_to_clause_set():
    h = to_sentence("Bob is not kind.", LEX).formula
    t1, t2 = build_theory_sets([s.formula for s in _sents(WORKED_THEORY)], h)

    def strs(tset):
        return [clause_to_str(c) for c in tset.clauses], tset.supported

    def target(label, hypothesis="Bob is not kind."):
        return strs(refutation_target(WORKED_THEORY, hypothesis, label, LEX))

    assert target(TRUE) == strs(t2)
    assert target(FALSE) == strs(t1)
    theory = (["-kind(v1) | -round(v1) | rough(v1)", "-rough(v1)", "round(v1)"], set())
    # any other label refutes the theory alone and never parses the hypothesis
    for label in (SATISFIABLE, UNSATISFIABLE, UNKNOWN, "Maybe"):
        assert target(label, hypothesis="") == theory


def test_judge_fact_identical_hypothesis():
    v = judge(_sents(["Bob is kind."]), to_sentence("Bob is kind.", LEX))
    assert v.label == TRUE
    assert v.steps_t2 == 1
    assert v.proof[-1].conclusion_fol == "[]"


def test_judge_unrelated_hypothesis_is_unknown():
    v = judge(_sents(["Bob is kind."]), to_sentence("Bob is round.", LEX))
    assert v.label == UNKNOWN
    assert v.proof == []


def test_judge_false_hypothesis():
    v = judge(_sents(WORKED_THEORY), to_sentence("Bob is kind.", LEX))
    assert v.label == FALSE
    assert v.steps_t1 == 3


def test_tie_break_prefers_fewer_steps():
    r5 = RefutationResult(True, 5, [], HALT_EMPTY)
    r2 = RefutationResult(True, 2, [], HALT_EMPTY)
    assert tie_break(r5, r2) == TRUE
    assert tie_break(r2, r5) == FALSE


def test_tie_break_equal_steps_is_unknown():
    r3 = RefutationResult(True, 3, [], HALT_EMPTY)
    assert tie_break(r3, r3) == UNKNOWN


def test_judge_tie_broken_on_inconsistent_theory():
    # A theory-internal contradiction is invisible to goal-directed search
    # (every step must touch a goal descendant), so the tie path is exercised
    # with the unrestricted strategy, which refutes both sets.
    v = judge(
        _sents(["Bob is kind.", "Bob is not kind."]),
        to_sentence("Bob is round.", LEX),
        strategy="unrestricted",
    )
    assert v.tie_broken
    assert v.label == UNKNOWN  # symmetric contradiction: equal step counts


def test_budget_exhaustion_reads_as_no_contradiction():
    v = judge(_sents(WORKED_THEORY), to_sentence("Bob is not kind.", LEX), budget=2)
    # the three-step refutation does not fit in a two-step budget
    assert v.label == UNKNOWN
    assert v.halt_t2 == HALT_BUDGET


def test_check_sat_direct_contradiction():
    r = check_sat(_sents(["Everyone is round.", "Bob is not round."]))
    assert r.status == UNSATISFIABLE
    assert r.steps_used == 1
    assert r.proof[-1].conclusion_fol == "[]"


def test_check_sat_single_fact():
    r = check_sat(_sents(["Bob is kind."]))
    assert r.status == SATISFIABLE
    assert r.proof == []


def test_check_sat_chain():
    texts = [
        "Everyone is kind.",
        "Kind people are rough.",
        "Everyone is not rough.",
    ]
    r = check_sat(_sents(texts))
    assert r.status == UNSATISFIABLE


def test_check_sat_matches_oracle_on_rule_only_theories():
    from nlprover.datagen import generate_nlsat

    cfg = GenConfig(seed=5, n_attributes=8, n_rules=5, target_depth_range=(1, 6))
    for inst in islice(generate_nlsat(cfg, 0.5), 30):
        lex = inst.lexicon()
        sents = _sents(inst.theory, lex)
        namer = SkolemNamer()
        clauses = [c for s in sents for c in to_clauses(s.formula, namer)]
        expected = SATISFIABLE if oracle_sat(clauses) else UNSATISFIABLE
        assert check_sat(sents, lexicon=lex).status == expected == inst.label


def test_judge_label_matches_oracle_on_generated_instances():
    for inst in islice(generate(GenConfig(seed=21)), 40):
        lex = inst.lexicon()
        sents = _sents(inst.theory, lex)
        h = to_sentence(inst.hypothesis, lex)
        namer = SkolemNamer()
        clauses = [c for s in sents for c in to_clauses(s.formula, namer)]
        assert judge(sents, h, lexicon=lex).label == oracle_entail(clauses, h.formula) == inst.label


def test_at_most_one_side_refuted_on_consistent_theories():
    for inst in islice(generate(GenConfig(seed=33)), 25):
        lex = inst.lexicon()
        v = judge(_sents(inst.theory, lex), to_sentence(inst.hypothesis, lex), lexicon=lex)
        assert not v.tie_broken


# The generator's three shapes, as `gen`, `gen --existential` and
# `gen --nlsat` draw them.
GENERATED = {
    "default": lambda: generate(GenConfig(seed=3)),
    "existential": lambda: generate(
        GenConfig(seed=3, n_entities=2, n_attributes=4, allow_existential=True)
    ),
    "nlsat": lambda: generate_nlsat(GenConfig(seed=3, n_attributes=12, target_depth_range=(1, 12))),
}


def _verdict_key(v):
    return (
        v.label, v.steps_t1, v.steps_t2, v.halt_t1, v.halt_t2, v.tie_broken,
        format_proof(v.proof),
    )


def _sat_key(r):
    return r.status, r.steps_used, r.halt_reason, format_proof(r.proof)


def _clear_compile_memos():
    from nlprover.language import _parse
    from nlprover.normalize import _clause_form

    _parse.cache_clear()
    _clause_form.cache_clear()


def _target_key(tset):
    return [clause_to_str(c) for c in tset.clauses], sorted(tset.supported)


@pytest.mark.parametrize("stream", sorted(GENERATED))
def test_warm_and_cold_compile_memos_decide_alike(stream):
    # The stream itself warms the parse and clause-form memos; each cold
    # call starts from empty ones.
    for inst in islice(GENERATED[stream](), 15):
        lex = inst.lexicon()
        results = []
        for cold in (False, True):
            if cold:
                _clear_compile_memos()
            target = refutation_target(inst.theory, inst.hypothesis, inst.label, lex)
            if cold:
                _clear_compile_memos()
            sents = _sents(inst.theory, lex)
            if inst.hypothesis:
                v = judge(sents, to_sentence(inst.hypothesis, lex), lexicon=lex)
                decided = _verdict_key(v)
            else:
                decided = _sat_key(check_sat(sents, lexicon=lex))
            results.append((_target_key(target), decided))
        assert results[0] == results[1], inst.id


def test_theory_clauses_keep_their_sk_names():
    # Compiled alone, the theory's someone is sk1, the very entity the
    # hypothesis names; compiled with the hypothesis, it is named after it.
    sents = _sents(["Someone is kind."])
    h = to_sentence("person sk1 is kind.", LEX)
    clauses = compile_clauses([sents[0].formula])[0]
    assert judge(sents, h).label == oracle_entail([sents[0].formula], h.formula) == UNKNOWN
    assert oracle_entail(clauses, h.formula) == TRUE


def test_judge_relational_fact_with_fol_fallback_rendering():
    from nlprover.language import Lexicon

    lex = Lexicon(entities=("Bob", "Alan"), attributes=("kind",), relations=("likes",))
    v = judge(
        _sents(["Bob likes Alan."], lex), to_sentence("Bob likes Alan.", lex), lexicon=lex
    )
    assert v.label == TRUE and v.steps_t2 == 1
    # the negated relational clause has no sentence template, so the step's
    # NL slot carries the clause text itself
    assert v.proof[0].premises_nl[1] == "-likes(Bob,Alan)" or (
        v.proof[0].premises_nl[0] == "-likes(Bob,Alan)"
    )


# 24 sentences over Bob, Alan and the first 12 attributes of the pool. The
# saturation pre-check refutes "Bob is not happy." plus the theory, but no
# linear chain turns up before the deepening search passes its work limit.
ITEM_THEORY = [
    "Alan is smart.", "Alan is not calm.", "Bob is not green.", "Alan is not green.",
    "Bob is quiet.", "Alan is rough.", "If someone is tall and calm then they are blue.",
    "If someone is happy and brave then they are blue.", "Quiet, rough people are smart.",
    "Smart people are quiet.", "If someone is tall then they are smart.",
    "Everyone is not tall or rough.", "Quiet people are rough.", "Kind people are not round.",
    "Everyone is not blue or tall.", "If someone is quiet and calm then they are brave.",
    "Everyone is not brave or blue.", "If someone is kind then they are not brave.",
    "If someone is big and calm then they are rough.", "Happy, smart people are big.",
    "Big, blue people are round.", "Blue, brave people are smart.",
    "If someone is big then they are calm.",
    "If someone is tall and quiet then they are not calm.",
]


def test_work_limit_falls_back_to_the_saturation_proof():
    import nlprover.engine as engine
    from nlprover.datagen import ATTR_POOL
    from nlprover.evaluation import PredictionRecord, check_proof
    from nlprover.language import Lexicon

    lex = Lexicon(("Bob", "Alan"), tuple(ATTR_POOL[:12]))
    sents, hyp = _sents(ITEM_THEORY, lex), to_sentence("Bob is not happy.", lex)
    assert oracle_entail([s.formula for s in sents], hyp.formula) == TRUE
    with mock.patch.object(engine, "_WORK_LIMIT", 200):
        v = judge(sents, hyp, lexicon=lex)
        short = judge(sents, hyp, budget=len(v.proof) - 1, lexicon=lex)
    assert (v.label, v.halt_t2, v.steps_t2, len(v.proof)) == (TRUE, HALT_EMPTY, 10, 10)
    # a DAG: the last step resolves two derived clauses
    assert min(v.proof[-1].premise_ids) > len(ITEM_THEORY) + 1
    steps = [((s.premises_fol[0], s.premises_fol[1]), s.conclusion_fol) for s in v.proof]
    rec = PredictionRecord("item", ITEM_THEORY, "Bob is not happy.", TRUE, v.label, steps, lex)
    assert check_proof(rec)
    # a derivation longer than the budget is not returned
    assert (short.label, short.halt_t2, short.proof) == (UNKNOWN, HALT_BUDGET, [])
