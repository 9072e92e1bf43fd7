import hashlib
import json
from collections import Counter
from itertools import islice, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlprover.datagen as datagen
from nlprover.datagen import (
    GenConfig,
    GenerationError,
    GenerationStalledError,
    InconsistentTheoryError,
    OracleOverflowError,
    _MODEL_STORE_SIZE,
    _ground,
    _ground_theory,
    _render_rule,
    _rule_key,
    extract_training_samples,
    generate,
    generate_nlsat,
    instance_from_dict,
    instance_to_dict,
    oracle_entail,
    oracle_sat,
)
from nlprover.engine import HALT_BUDGET, HALT_EMPTY, HALT_NO_PAIR
from nlprover.herbrand import _solve
from nlprover.judge import (
    FALSE,
    SATISFIABLE,
    TRUE,
    UNKNOWN,
    UNSATISFIABLE,
    Verdict,
    judge,
    nl_renderer,
)
from nlprover.language import DEFAULT_LEXICON, Lexicon, to_sentence
from nlprover.logic import (
    Clause,
    Const,
    Func,
    Literal,
    Var,
    parse_clause,
)
from nlprover.normalize import Atom, Exists, ForAll, Not, SkolemNamer, compile_clauses, to_clauses
from oracle_utils import ref_dpll, ref_ground

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


def test_proof_past_the_window_is_a_rejected_draw(monkeypatch):
    # The window's top is the judge's step budget: a candidate whose proof
    # needs more steps ends Unknown on the budget and is dropped, not
    # reported as an engine/oracle disagreement.
    verdicts = []

    def recording_judge(*args, **kwargs):
        verdicts.append(judge(*args, **kwargs))
        return verdicts[-1]

    monkeypatch.setattr(datagen, "judge", recording_judge)
    insts = list(islice(generate(GenConfig(seed=7, target_depth_range=(0, 2))), 60))
    assert len(insts) == 60
    assert all(i.depth <= 2 for i in insts)
    assert any(
        v.label == UNKNOWN and HALT_BUDGET in (v.halt_t1, v.halt_t2) for v in verdicts
    )


@pytest.mark.parametrize("label, halt", [(FALSE, HALT_EMPTY), (UNKNOWN, HALT_NO_PAIR)])
def test_wrong_engine_label_is_a_generation_error(monkeypatch, label, halt):
    # True is drawn first; a False proof or an Unknown that is no budget
    # stop disagrees with the oracle.
    verdict = Verdict(label, halt_t1=halt, halt_t2=halt)
    monkeypatch.setattr(datagen, "judge", lambda *args, **kwargs: verdict)
    with pytest.raises(GenerationError, match=f"oracle=True engine={label}"):
        next(generate(GenConfig(seed=7)))


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
    from nlprover.datagen import Instance
    from nlprover.engine import ProofStep

    inst = Instance(
        id="w",
        theory=theory,
        theory_fol=[],
        hypothesis="Bob is not kind.",
        hypothesis_fol="-kind(Bob)",
        label=v.label,
        depth=len(v.proof),
        gold_proof=[
            ProofStep(s.premises_fol, s.premises_nl, s.conclusion_fol, s.conclusion_nl)
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


def test_training_records_on_rule_only_data_target_the_theory():
    # No hypothesis is parsed: a Satisfiable instance has no proof and no
    # records, and an Unsatisfiable one's first context is its theory,
    # rendered clause by clause.
    cfg = GenConfig(seed=9, n_attributes=8, target_depth_range=(1, 6))
    insts = list(islice(generate_nlsat(cfg, 0.5), 6))
    assert {i.label for i in insts} == {SATISFIABLE, UNSATISFIABLE}
    for inst in insts:
        records = extract_training_samples(inst)
        if inst.label == SATISFIABLE:
            assert records == []
            continue
        lex = inst.lexicon()
        clauses, _, _ = compile_clauses(to_sentence(t, lex).formula for t in inst.theory)
        render = nl_renderer(lex)
        assert records[0]["context"] == [render(c) for c in dict.fromkeys(clauses)]


def test_training_records_without_gold_proof_compile_nothing(monkeypatch):
    import nlprover.normalize as normalize

    inst = next(i for i in generate_nlsat(GenConfig(seed=1), 0.5) if i.label == SATISFIABLE)
    assert inst.gold_proof == []
    calls = []
    real = normalize.to_clauses
    monkeypatch.setattr(normalize, "to_clauses", lambda *a, **k: calls.append(a) or real(*a, **k))
    assert extract_training_samples(inst) == []
    assert calls == []


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
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            GenConfig(label_mix=(bad, 0.5, 0.5)).validate()
    GenConfig(n_entities=6, n_attributes=4).validate()  # 24 atoms: at the cap
    GenConfig(n_entities=6, n_attributes=8).validate(rule_only=True)


def test_depth_window_topped_at_zero_needs_an_unknown_only_mix():
    # Every True or False proof takes a step, so no draw could ever pass.
    for mix in ((1 / 3, 1 / 3, 1 / 3), (1.0, 0.0, 0.0), (0.0, 0.5, 0.5)):
        with pytest.raises(ValueError, match="target_depth_range top 0"):
            GenConfig(target_depth_range=(0, 0), label_mix=mix).validate()
    cfg = GenConfig(seed=7, target_depth_range=(0, 0), label_mix=(0.0, 0.0, 1.0))
    assert {i.label for i in islice(generate(cfg), 5)} == {"Unknown"}
    GenConfig(target_depth_range=(0, 0)).validate(rule_only=True)


def test_generation_stall_raises_with_constraint():
    # an impossible depth window for a tiny theory cannot be satisfied
    cfg = GenConfig(seed=0, n_facts=1, n_rules=1, target_depth_range=(6, 6))
    with pytest.raises(GenerationStalledError):
        list(islice(generate(cfg), 1))


def test_oracle_ground_cache_is_bounded():
    assert _ground_theory.cache_info().maxsize is not None


# ---------------------------------------------------------------------------
# Grounding against the one it replaced. The reference, `ref_ground` in
# oracle_utils, is the earlier `_ground`, kept verbatim: it grounds the whole
# clause list at once by substituting each assignment into the clause and
# numbering atoms as met.


_G_VARS = st.sampled_from([Var("v1"), Var("v2")])
_G_FUNC = st.just(Func("f", (Var("v1"),)))


def _g_consts(names):
    return st.sampled_from([Const(n) for n in names])


def _g_clauses(terms, unary):
    """Clauses of up to three literals over unary predicates and the binary
    `likes`: ground, over v1 only, or over two variables in either order."""
    lit = st.one_of(
        st.builds(Literal, st.booleans(), st.sampled_from(unary), st.tuples(terms)),
        st.builds(Literal, st.booleans(), st.just("likes"), st.tuples(terms, terms)),
    )
    return st.lists(lit, max_size=3).map(lambda ls: Clause(tuple(ls)))


@st.composite
def _grounding_cases(draw):
    unary = ("kind", "round", "rough")
    consts = _g_consts(("Bob", "Alan", "sk1", "sk2"))
    # Without constants the theory's domain is the witness c0 alone.
    theory_terms = _G_VARS if draw(st.booleans()) else st.one_of(_G_VARS, consts)
    # Extras may bring new constants, a new predicate and, rarely, a Func.
    extra_terms = st.one_of(_G_VARS, _g_consts(("Bob", "sk1", "Erin", "sk3")))
    if draw(st.integers(0, 9)) == 0:
        extra_terms = st.one_of(extra_terms, _G_FUNC)
    theory = draw(st.lists(_g_clauses(theory_terms, unary), max_size=5))
    extra = draw(st.lists(_g_clauses(extra_terms, (*unary, "quiet")), max_size=3))
    cap = draw(st.sampled_from([6, 12, 24]))
    return theory, extra, cap


def _as_set(clause: tuple[int, int]) -> frozenset:
    """A (positive atoms, negated atoms) bitmask pair as signed atom numbers."""
    pos, neg = clause
    bits = range(1, max(pos, neg).bit_length())
    return frozenset([i for i in bits if pos >> i & 1] + [-i for i in bits if neg >> i & 1])


def _ground_whole(theory, extra, cap):
    """The new grounding as one list in the reference's form."""
    try:
        grounding, ground = _ground(
            tuple(c.literals for c in theory), (c.literals for c in extra), cap
        )
    except OracleOverflowError as e:
        return ("overflow", str(e))
    return [_as_set(c) for c in grounding.ground + ground]


def _ref_ground_or_error(clauses, cap):
    try:
        return ref_ground(clauses, cap)
    except OracleOverflowError as e:
        return ("overflow", str(e))


@settings(max_examples=300, deadline=None)
@given(_grounding_cases())
def test_ground_with_extra_matches_reference(case):
    theory, extra, cap = case
    # A fresh constant gives the interleaved call another domain. A clause
    # without constants keeps the domain, so a cached theory grounding that
    # an earlier call had extended would show up in the calls after it.
    other = [*extra, Clause((Literal(True, "kind", (Const("sk9"),)),))]
    same_domain = [Clause((Literal(False, "kind", (Var("v1"),)),)), *extra]
    for e in (extra, other, same_domain, extra):
        assert _ground_whole(theory, e, cap) == _ref_ground_or_error(theory + e, cap)


# ---------------------------------------------------------------------------
# The SAT core against the one it replaced. `ref_dpll` in oracle_utils is
# the earlier oracle's `_dpll`, kept verbatim: it rescans and copies the
# whole ground list for every forced literal.


def _as_masks(clause: frozenset) -> tuple[int, int]:
    return (
        sum(1 << l for l in clause if l > 0),
        sum(1 << -l for l in clause if l < 0),
    )


@st.composite
def _ground_lists(draw):
    """Ground clause lists over 1 to 24 atoms; fewer atoms make
    unsatisfiable lists likelier. Grounding never makes a tautology, so
    neither does this: each clause takes at most one sign per atom."""
    n = draw(st.integers(1, 24))
    clause = st.dictionaries(st.integers(1, n), st.booleans(), min_size=1, max_size=4).map(
        lambda signs: frozenset(a if positive else -a for a, positive in signs.items())
    )
    return draw(st.lists(clause, max_size=60))


@settings(max_examples=400, deadline=None)
@given(_ground_lists())
def test_sat_core_matches_reference_dpll(clauses):
    model = _solve([_as_masks(c) for c in clauses])
    assert (model is not None) == ref_dpll(clauses)
    if model is not None:
        assert all(any((l > 0) == bool(model >> abs(l) & 1) for l in c) for c in clauses)


def test_sat_core_returns_the_empty_model():
    # Every atom false is a model, and the int 0; it must not read as "none".
    assert _solve([_as_masks(frozenset({-1, 2})), _as_masks(frozenset({-2}))]) == 0
    assert _solve([_as_masks(frozenset())]) is None


# ---------------------------------------------------------------------------
# Model reuse: entailment with stored models answers as two fresh solves do.


def _fresh_entail(theory, hypothesis, cap=24):
    """oracle_entail's answer from two solves of freshly ground lists."""
    theory, h_clauses, neg_clauses = compile_clauses(theory, hypothesis)
    sat_with_neg = ref_dpll(ref_ground(theory + neg_clauses, cap))
    sat_with_h = ref_dpll(ref_ground(theory + h_clauses, cap))
    return {
        (True, True): UNKNOWN,
        (True, False): TRUE,
        (False, True): FALSE,
        (False, False): "inconsistent",
    }[sat_with_h, sat_with_neg]


def _entail_or_error(theory, hypothesis):
    try:
        return oracle_entail(theory, hypothesis)
    except InconsistentTheoryError:
        return "inconsistent"


_E_UNARY = ("kind", "round", "rough", "quiet")


@st.composite
def _entailment_cases(draw):
    consts = ("Bob", "Alan", "sk1")
    # Unary predicates only, so that every case stays under the atom cap.
    terms = st.one_of(st.just(Var("v1")), _g_consts(consts))
    lit = st.builds(Literal, st.booleans(), st.sampled_from(_E_UNARY[:3]), st.tuples(terms))
    clause = st.lists(lit, max_size=3).map(lambda ls: Clause(tuple(ls)))
    theory = draw(st.lists(clause, max_size=6))
    # Ground hypotheses over the theory's constants and over a new one
    # (Erin), and quantified ones, whose clause forms bring a witness.
    ground = st.builds(
        lambda p, c, neg: (Not if neg else lambda f: f)(Atom(p, (Const(c),))),
        st.sampled_from(_E_UNARY),
        st.sampled_from((*consts, "Erin")),
        st.booleans(),
    )
    x = Var("x")
    quantified = st.builds(
        lambda q, p: q(x, Atom(p, (x,))), st.sampled_from((ForAll, Exists)), st.sampled_from(_E_UNARY)
    )
    hypotheses = draw(st.lists(st.one_of(ground, quantified), min_size=1, max_size=12))
    return theory, hypotheses


@settings(max_examples=150, deadline=None)
@given(_entailment_cases())
def test_entailment_with_stored_models_matches_fresh_solves(case):
    theory, hypotheses = case
    _ground_theory.cache_clear()
    # Each hypothesis is asked twice, so the second asking meets the models
    # that the first and the ones before it stored.
    for h in hypotheses + hypotheses:
        assert _entail_or_error(theory, h) == _fresh_entail(theory, h)


def test_model_store_is_bounded():
    # Six free atoms and one unit hypothesis per atom and sign: each check
    # stores a model, and no more than the store's bound are kept.
    theory = [parse_clause(f"{p}(Bob) | {p}(Alan) | {p}(Erin)") for p in ("kind", "round")]
    for p, c, neg in product(("kind", "round"), ("Bob", "Alan", "Erin"), (False, True)):
        h = Atom(p, (Const(c),))
        assert oracle_entail(theory, Not(h) if neg else h) == UNKNOWN
    grounding, _ = _ground(tuple(c.literals for c in theory), (), 24)
    assert 1 < len(grounding.models) <= _MODEL_STORE_SIZE
    assert grounding.models.maxlen == _MODEL_STORE_SIZE
    for m in grounding.models:
        assert all(pos & m or neg & ~m for pos, neg in grounding.ground)


# ---------------------------------------------------------------------------
# Sampler keys: the structural key stands for the compiled clause.


def _clause_key(text: str, lex: Lexicon):
    """The key the sampler used to compute: the sentence's clause form."""
    return tuple(c.literals for c in to_clauses(to_sentence(text, lex).formula))


def _same_partition(keyed: dict) -> bool:
    """Do the two keys of each item (structural, clause) group items alike?"""
    by_struct: dict = {}
    by_clause: dict = {}
    for item, (struct, clause) in keyed.items():
        by_struct.setdefault(struct, set()).add(item)
        by_clause.setdefault(clause, set()).add(item)
    return sorted(map(sorted, by_struct.values())) == sorted(map(sorted, by_clause.values()))


def test_rule_key_partitions_templates_as_clause_keys_do():
    attributes = ("kind", "round", "rough", "tall", "happy", "big")
    lex = Lexicon(entities=("Bob",), attributes=attributes)
    keyed = {}
    triples = set()
    for n in (1, 2, 3):
        for body in permutations(attributes, n):
            for head in (a for a in attributes if a not in body):
                for neg, form in product((False, True), ("people", "if", "everyone")):
                    text = _render_rule(list(body), head, neg, form)
                    keyed[text] = (_rule_key(list(body), head, neg), _clause_key(text, lex))
                    triples.add((frozenset(body), head, neg))
    assert _same_partition(keyed)
    # Keyed by (body, head, negated) alone, rules with a negated head that
    # share a clause would count as different.
    assert len({s for s, _ in keyed.values()}) == 200 < len(triples)
    # The negated-head collision: two different rules, one clause.
    a = _render_rule(["kind", "round"], "rough", True, "if")
    b = _render_rule(["kind", "rough"], "round", True, "people")
    assert _clause_key(a, lex) == _clause_key(b, lex)
    assert _rule_key(["kind", "round"], "rough", True) == _rule_key(["kind", "rough"], "round", True)


def test_fact_key_partitions_facts_as_clause_keys_do():
    # The sampler keys the fact "E is [not] a." by ("fact", E, a, negated).
    entities, attributes = ("Bob", "Alan", "Erin"), ("kind", "round", "rough")
    lex = Lexicon(entities=entities, attributes=attributes)
    keyed = {}
    for e, a, neg in product(entities, attributes, (False, True)):
        text = f"{e} is {'not ' if neg else ''}{a}."
        keyed[text] = (("fact", e, a, neg), _clause_key(text, lex))
    assert _same_partition(keyed)
    assert len(keyed) == 18


# ---------------------------------------------------------------------------
# Output bytes, pinned: the JSONL of the first 100 instances of
# generate(GenConfig(seed=1)) followed by the first 50 of
# generate_nlsat(GenConfig(seed=1)), as write_jsonl writes them; and the
# training records of those of them not labeled Unknown, as
# write_records writes them.

_PINNED_STREAM_SHA256 = "c2b9c6c3a1072c8a260a6349ca5775d5d73a97e7e56f4e280aea252588d70907"
_PINNED_RECORDS_SHA256 = "9c53b18ea93581bba4c4ee8503c10a8b7f3702a21fa643e9ff1fc6ca18749b1e"


def test_generated_bytes_are_pinned():
    h = hashlib.sha256()
    records = hashlib.sha256()
    cfg = GenConfig(seed=1)
    for inst in [*islice(generate(cfg), 100), *islice(generate_nlsat(cfg), 50)]:
        h.update((json.dumps(instance_to_dict(inst), ensure_ascii=False) + "\n").encode())
        if inst.label != UNKNOWN:
            for rec in extract_training_samples(inst):
                records.update((json.dumps(rec, ensure_ascii=False) + "\n").encode())
    assert h.hexdigest() == _PINNED_STREAM_SHA256
    assert records.hexdigest() == _PINNED_RECORDS_SHA256
