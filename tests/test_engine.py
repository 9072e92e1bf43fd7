import hashlib
import json
import sys
from collections import Counter, deque
from itertools import islice, product
from typing import Optional
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlprover.engine as engine
from nlprover.datagen import GenConfig, generate, oracle_sat
from nlprover.engine import (
    HALT_BUDGET,
    HALT_EMPTY,
    HALT_NO_PAIR,
    HALT_SATURATED,
    SOS_LINEAR,
    STRATEGIES,
    UNRESTRICTED,
    ProofStep,
    RefutationResult,
    TheorySet,
    _Derivation,
    _extract,
    _given_clause_loop,
    _make_step,
    _renamed_literals,
    factor,
    factor_closure,
    format_proof,
    inferences,
    refute,
    resolve,
)
from nlprover.judge import judge, nl_renderer
from nlprover.language import DEFAULT_LEXICON, to_sentence
from nlprover.logic import (
    Clause,
    Const,
    Func,
    Literal,
    Var,
    _canonical_literals,
    canonicalize,
    clause_to_str,
    clause_vars,
    is_tautology,
    parse_clause,
    subst_clause,
    subsumes,
    unify,
)
from nlprover.normalize import build_theory_sets

LEX = DEFAULT_LEXICON
BOB = Const("Bob")
X = Var("x")

RULE = parse_clause("-kind(v1) | -round(v1) | rough(v1)")
KIND_BOB = parse_clause("kind(Bob)")


def _strs(clauses):
    return sorted(clause_to_str(c) for c in clauses)


def test_resolve_rule_with_fact():
    assert _strs(resolve(RULE, KIND_BOB)) == ["-round(Bob) | rough(Bob)"]


def test_resolve_chain_step():
    out = resolve(parse_clause("-round(Bob) | rough(Bob)"), parse_clause("-rough(v1)"))
    assert _strs(out) == ["-round(Bob)"]


def test_resolve_to_empty_clause():
    assert _strs(resolve(parse_clause("-round(Bob)"), parse_clause("round(v1)"))) == ["[]"]
    assert _strs(resolve(KIND_BOB, parse_clause("-kind(Bob)"))) == ["[]"]


def test_resolve_unrelated_is_empty_set():
    assert resolve(KIND_BOB, parse_clause("tall(Bob)")) == []


def test_resolve_drops_tautologies():
    out = resolve(parse_clause("kind(Bob) | rough(Bob)"), parse_clause("-kind(Bob) | -rough(Bob)"))
    assert out == []  # both resolvents are rough|{-rough} style tautologies


def test_factor_merges_unifiable_literals():
    out = factor(parse_clause("p(v1) | p(v2)"))
    assert _strs(out) == ["p(v1)"]


def test_factor_no_pair():
    assert factor(parse_clause("kind(Bob) | rough(Bob)")) == []


def test_factor_with_constant():
    out = factor(parse_clause("p(v1) | p(Bob) | q(v1)"))
    assert _strs(out) == ["p(Bob) | q(Bob)"]


def test_factor_skips_pairs_of_different_predicates(monkeypatch):
    import nlprover.engine as engine

    calls = []
    real_unify = engine.unify
    monkeypatch.setattr(engine, "unify", lambda a, b: calls.append((a, b)) or real_unify(a, b))
    assert factor(parse_clause("-p(v1) | -q(v1)")) == []
    assert calls == []


def _worked_example_sets():
    theory = [
        "Everyone is not kind or not round or rough.",
        "Everyone is not rough.",
        "Everyone is round.",
    ]
    sents = [to_sentence(t, LEX).formula for t in theory]
    h = to_sentence("Bob is not kind.", LEX).formula
    return build_theory_sets(sents, h, realize_fn=nl_renderer(LEX))


def test_refute_worked_example_three_steps():
    _, t2 = _worked_example_sets()
    result = refute(t2, strategy=SOS_LINEAR, budget=100)
    assert result.refuted and result.halt_reason == HALT_EMPTY
    assert result.steps_used == 3
    conclusions = [s.conclusion_fol for s in result.proof]
    assert conclusions == ["-round(Bob) | rough(Bob)", "-round(Bob)", "[]"]
    nl = [s.conclusion_nl for s in result.proof]
    assert nl == ["Bob is not round or rough.", "Bob is not round.", ""]


def test_refute_single_unit_clause():
    t = TheorySet()
    t.add(KIND_BOB, supported=True)
    result = refute(t, strategy=SOS_LINEAR)
    assert not result.refuted
    assert result.steps_used == 0
    assert result.halt_reason == HALT_NO_PAIR


def test_refute_unrelated_facts_has_no_valid_pair():
    t = TheorySet()
    for s, goal in (("kind(Bob)", True), ("tall(Bob)", False), ("happy(Bob)", False)):
        t.add(parse_clause(s), supported=goal)
    result = refute(t, strategy=SOS_LINEAR)
    assert not result.refuted
    assert result.halt_reason == HALT_NO_PAIR


def test_theory_set_rejects_duplicates_and_tautologies():
    t = TheorySet()
    c1, new1 = t.add(parse_clause("kind(Bob) | rough(Bob)"))
    c2, new2 = t.add(parse_clause("rough(Bob) | kind(Bob)"))
    assert new1 and not new2 and c1.id == c2.id
    c3, new3 = t.add(parse_clause("kind(Bob) | -kind(Bob)"))
    assert c3 is None and not new3
    assert len(t.clauses) == 1


def test_clause_ids_increase_with_generation_order():
    _, t2 = _worked_example_sets()
    result = refute(t2, strategy=SOS_LINEAR)
    ids = [s.conclusion_id for s in result.proof]
    assert ids == sorted(ids)
    assert ids[0] > max(c.id for c in t2.clauses[:4])


def test_proof_replay_is_deterministic():
    lines = []
    for _ in range(2):
        _, t2 = _worked_example_sets()
        result = refute(t2, strategy=SOS_LINEAR)
        lines.append("\n".join(format_proof(result.proof)))
    assert lines[0] == lines[1]


def test_unrestricted_refutes_worked_example():
    _, t2 = _worked_example_sets()
    result = refute(t2, strategy=UNRESTRICTED, budget=100)
    assert result.refuted and result.halt_reason == HALT_EMPTY
    assert result.proof[-1].conclusion_fol == "[]"
    # every step's premises are inputs or earlier conclusions
    seen = {c.id for c in t2.clauses[: len(t2.clauses)]} | {
        s.conclusion_id for s in result.proof
    }
    for s in result.proof:
        assert set(s.premise_ids) <= seen


@pytest.mark.parametrize("strategy", [SOS_LINEAR, UNRESTRICTED])
def test_nl_realized_only_for_returned_proof(strategy):
    # The worked example plus generated instances, with every clause the
    # renderer is asked for logged.
    worked = [
        "Everyone is not kind or not round or rough.",
        "Everyone is not rough.",
        "Everyone is round.",
    ]
    tasks = [(worked, "Bob is not kind.", LEX)]
    for inst in islice(generate(GenConfig(seed=42)), 12):
        tasks.append((inst.theory, inst.hypothesis, inst.lexicon()))
    n_refuted = 0
    for theory, hypothesis, lex in tasks:
        rendered = []
        render = nl_renderer(lex)

        def counting(c, render=render, rendered=rendered):
            rendered.append(clause_to_str(c))
            return render(c)

        sents = [to_sentence(t, lex).formula for t in theory]
        h = to_sentence(hypothesis, lex).formula
        for tset in build_theory_sets(sents, h, realize_fn=counting):
            rendered.clear()
            result = refute(tset, strategy=strategy, budget=5000)
            named = {f for s in result.proof for f in (*s.premises_fol, s.conclusion_fol)}
            assert set(rendered) <= named
            assert len(rendered) == 3 * len(result.proof)
            n_refuted += result.refuted
    assert n_refuted >= 5


def test_proof_step_dict_round_trip():
    _, t2 = _worked_example_sets()
    proof = refute(t2, strategy=SOS_LINEAR).proof
    assert proof
    for s in proof:
        d = s.to_dict()
        assert list(d) == ["premises_fol", "premises_nl", "conclusion_fol", "conclusion_nl"]
        assert ProofStep.from_dict(d) == s
        assert ProofStep.from_dict(json.loads(json.dumps(d))) == s


def test_strategies_agree_on_generated_instances():
    # The fair FIFO loop needs room to reach the empty clause, so the
    # agreement check runs both strategies with a budget large enough to
    # decide rather than time out.
    agree = 0
    for inst in islice(generate(GenConfig(seed=42)), 40):
        sents = [to_sentence(t, inst.lexicon()).formula for t in inst.theory]
        h = to_sentence(inst.hypothesis, inst.lexicon()).formula
        for pick in (0, 1):
            sets_a = build_theory_sets(sents, h)
            sets_b = build_theory_sets(sents, h)
            ra = refute(sets_a[pick], strategy=SOS_LINEAR, budget=5000)
            rb = refute(sets_b[pick], strategy=UNRESTRICTED, budget=5000)
            assert ra.refuted == rb.refuted, inst.id
            if ra.refuted:
                assert ra.steps_used <= rb.steps_used
            agree += 1
    assert agree == 80


def test_refuted_iff_oracle_unsat_on_seeded_sets():
    for inst in islice(generate(GenConfig(seed=13)), 30):
        sents = [to_sentence(t, inst.lexicon()).formula for t in inst.theory]
        h = to_sentence(inst.hypothesis, inst.lexicon()).formula
        t1, t2 = build_theory_sets(sents, h)
        for tset in (t1, t2):
            clauses = list(tset.clauses)
            result = refute(tset, strategy=SOS_LINEAR)
            assert result.refuted == (not oracle_sat(clauses))


def _snapshot(tset):
    return [(c.id, c.literals) for c in tset.clauses], set(tset.supported)


def _outcome(result):
    return result.refuted, result.steps_used, result.halt_reason, format_proof(result.proof)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_refute_leaves_theory_set_unchanged(strategy):
    sets = list(_worked_example_sets())
    for inst in islice(generate(GenConfig(seed=42)), 10):
        lex = inst.lexicon()
        sents = [to_sentence(t, lex).formula for t in inst.theory]
        h = to_sentence(inst.hypothesis, lex).formula
        sets.extend(build_theory_sets(sents, h, realize_fn=nl_renderer(lex)))
    n_refuted = 0
    for tset in sets:
        before = _snapshot(tset)
        first = refute(tset, strategy=strategy)
        assert _snapshot(tset) == before
        # A second call on the same set answers the same, ids included.
        assert _outcome(refute(tset, strategy=strategy)) == _outcome(first)
        n_refuted += first.refuted
    assert n_refuted >= 5


def test_refute_leaves_recursion_limit_alone():
    limit = sys.getrecursionlimit()
    try:
        _, t2 = _worked_example_sets()
        assert refute(t2, strategy=SOS_LINEAR, budget=1000).refuted
        assert sys.getrecursionlimit() == limit
    finally:
        sys.setrecursionlimit(limit)


# SHA-256 of the proof text below, ids included, one per strategy. The
# sos-linear pin is the text the recursive deepening search printed when it
# stored every reached clause in the theory set; the unrestricted pin is the
# text of the given-clause loop with forward subsumption. Instance records
# and bench digests carry no ids, so these pin the order in which each
# search numbers the clauses it reaches.
_PROOF_TEXT_SHA256 = {
    SOS_LINEAR: "a91993db107e4dde01bcbcaf0597975ff39153e48bd7ecf07760b0a98ffbfe89",
    UNRESTRICTED: "01485234fe9e0588c414a1e694e0e6b8162d3ab9f3ac79a3dd534e89bef2f658",
}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_proof_text_with_ids_is_pinned(strategy):
    pools = (
        islice(generate(GenConfig(seed=1)), 60),
        islice(
            generate(GenConfig(seed=3, n_entities=2, n_attributes=4, allow_existential=True)), 30
        ),
    )
    digest = hashlib.sha256()
    for inst in (i for pool in pools for i in pool):
        lex = inst.lexicon()
        sentences = [to_sentence(t, lex) for t in inst.theory]
        hyp = to_sentence(inst.hypothesis, lex)
        v = judge(sentences, hyp, strategy=strategy, lexicon=lex)
        head = [inst.id, strategy, v.label, v.steps_t1, v.steps_t2, v.halt_t1, v.halt_t2]
        lines = [" ".join(map(str, head)), *format_proof(v.proof)]
        digest.update(("\n".join(lines) + "\n").encode())
    assert digest.hexdigest() == _PROOF_TEXT_SHA256[strategy]


def _clause_formula(c):
    # clause as a closed formula: universal closure of the literal disjunction
    from nlprover.normalize import Atom, ForAll, Not as FNot, Or as FOr
    from nlprover.logic import clause_vars

    parts = []
    for lit in c.literals:
        atom = Atom(lit.pred, lit.args)
        parts.append(atom if lit.positive else FNot(atom))
    f = parts[0]
    for p in parts[1:]:
        f = FOr(f, p)
    for v in reversed(clause_vars(c)):
        f = ForAll(v, f)
    return f


def test_proof_steps_are_entailed_by_their_premises():
    # independent soundness check: models of the two premises always satisfy
    # the conclusion, i.e. premises + negated conclusion is unsatisfiable
    from nlprover.datagen import oracle_sat
    from nlprover.normalize import SkolemNamer, negate, to_clauses

    checked = 0
    for inst in islice(generate(GenConfig(seed=77)), 20):
        lex = inst.lexicon()
        sents = [to_sentence(t, lex).formula for t in inst.theory]
        h = to_sentence(inst.hypothesis, lex).formula
        t1, t2 = build_theory_sets(sents, h)
        for tset in (t1, t2):
            result = refute(tset, strategy=SOS_LINEAR)
            for step in result.proof:
                premises = [parse_clause(step.premises_fol[0]), parse_clause(step.premises_fol[1])]
                concl = parse_clause(step.conclusion_fol)
                if concl.is_empty:
                    assert not oracle_sat(premises)
                else:
                    namer = SkolemNamer(start=500)
                    neg = to_clauses(negate(_clause_formula(concl)), namer)
                    assert not oracle_sat(premises + neg), step
                checked += 1
    assert checked >= 20


def test_refute_rejects_bad_inputs():
    import pytest

    with pytest.raises(ValueError):
        refute(TheorySet(), strategy=SOS_LINEAR)
    t = TheorySet()
    t.add(KIND_BOB)
    with pytest.raises(ValueError):
        refute(t, strategy="sideways")


def test_resolve_multiple_complementary_pairs():
    out = resolve(parse_clause("kind(Bob) | round(Bob)"), parse_clause("-kind(Bob) | tall(Bob)"))
    assert _strs(out) == ["round(Bob) | tall(Bob)"]
    out = resolve(
        parse_clause("kind(Bob) | round(Alan)"), parse_clause("-kind(Bob) | -round(Alan)")
    )
    assert out == []  # both resolvents are tautologies


def test_step_line_format():
    _, t2 = _worked_example_sets()
    result = refute(t2, strategy=SOS_LINEAR)
    line = format_proof(result.proof)[0]
    assert line.startswith("STEP 1: [")
    assert " => " in line and " ;; NL: " in line
    last = format_proof(result.proof)[-1]
    assert last.endswith("=> ")  # empty clause renders as the empty string


def test_kernel_caches_are_bounded():
    assert _canonical_literals.cache_info().maxsize is not None
    assert _renamed_literals.cache_info().maxsize is not None


# ---------------------------------------------------------------------------
# The indexed kernel against the plain one it replaced. The reference
# functions below are the earlier kernel, kept verbatim: rename both clauses
# apart, then try every opposite-polarity literal pair; saturate by scanning
# every stored clause for each given clause.


def _ref_rename_apart(c: Clause, prefix: str) -> Clause:
    ren = {v: Var(f"{prefix}{i}") for i, v in enumerate(clause_vars(c), start=1)}
    return subst_clause(ren, c) if ren else c


def _ref_resolve_detailed(c1, c2):
    a = _ref_rename_apart(c1, "lv")
    b = _ref_rename_apart(c2, "rv")
    out = []
    seen = set()
    for i, la in enumerate(a.literals):
        for j, lb in enumerate(b.literals):
            if la.positive == lb.positive:
                continue
            theta = unify(la, lb)
            if theta is None:
                continue
            rest = tuple(l for k, l in enumerate(a.literals) if k != i) + tuple(
                l for k, l in enumerate(b.literals) if k != j
            )
            res = canonicalize(subst_clause(theta, Clause(rest)))
            if is_tautology(res) or res.literals in seen:
                continue
            seen.add(res.literals)
            out.append((res, theta))
    return out


def _ref_sos_saturate(tset, cap):
    seen = {c.literals for c in tset.clauses}
    others = list(tset.clauses)
    queue = deque(c for c in tset.clauses if tset.is_supported(c.id))
    if not queue:
        return "saturated"
    while queue:
        given = queue.popleft()
        for other in [*others, given]:
            for res, _ in _ref_resolve_detailed(given, other):
                for cand in (res, *factor_closure(res)):
                    if cand.literals in seen:
                        continue
                    if cand.is_empty:
                        return "refutable"
                    seen.add(cand.literals)
                    others.append(cand)
                    queue.append(cand)
                    if len(seen) > cap:
                        return "inconclusive"
    return "saturated"


_ARITY = {"p": 1, "q": 2, "r": 1}
_CONSTS = st.sampled_from([Const("a"), Const("b")])
_VARS = st.sampled_from([Var("v1"), Var("v2"), Var("x")])


def _terms(ground):
    base = _CONSTS if ground else st.one_of(_VARS, _CONSTS)
    return st.one_of(base, st.builds(lambda t: Func("f", (t,)), base))


def _literals(ground=False, positive=st.booleans(), preds=st.sampled_from(sorted(_ARITY))):
    return preds.flatmap(
        lambda p: st.builds(
            Literal, positive, st.just(p), st.tuples(*[_terms(ground)] * _ARITY[p])
        )
    )


def _clauses(ground=False, positive=st.booleans(), min_size=0, max_size=3):
    return st.lists(_literals(ground, positive), min_size=min_size, max_size=max_size).map(
        lambda ls: Clause(tuple(ls))
    )


@st.composite
def _clashing_pairs(draw, ground=False):
    # c2 holds a literal of the predicate of some literal of c1, with the
    # opposite sign, so the pair passes the complementary prefilter
    c1 = draw(_clauses(ground, min_size=1))
    lit = draw(st.sampled_from(c1.literals))
    clash = draw(_literals(ground, st.just(not lit.positive), st.just(lit.pred)))
    rest = list(draw(_clauses(ground, max_size=2)).literals)
    rest.insert(draw(st.integers(0, len(rest))), clash)
    return c1, Clause(tuple(rest))


_PAIRS = st.one_of(
    _clashing_pairs(),
    _clashing_pairs(ground=True),
    st.tuples(_clauses(), _clauses()),
    _clauses().map(lambda c: (c, c)),
    st.tuples(_clauses(positive=st.just(True)), _clauses(positive=st.just(True))),
)


def _fields(clauses):
    return [(r.literals, r.id) for r in clauses]


@settings(max_examples=300, deadline=None)
@given(_PAIRS)
def test_resolve_matches_reference(pair):
    c1, c2 = pair
    for a, b in ((c1, c2), (c2, c1)):
        assert _fields(resolve(a, b)) == _fields(r for r, _ in _ref_resolve_detailed(a, b))


@settings(max_examples=200, deadline=None)
@given(_PAIRS)
def test_inferences_are_resolvents_then_their_factors(pair):
    c1, c2 = pair
    want = [c for r, _ in _ref_resolve_detailed(c1, c2) for c in (r, *factor_closure(r))]
    assert _fields(inferences(c1, c2)) == _fields(want)


# The unrestricted search before it became the given-clause loop with every
# clause queued, kept verbatim but for the kernel call, which now returns
# the resolvents alone. It stored resolvents in the theory set and tried
# factors only of new resolvents.


class _BudgetExhausted(Exception):
    pass


def _ref_refute_unrestricted(tset: TheorySet, budget: int) -> RefutationResult:
    # One entry per accepted step, keyed by the id of its new conclusion.
    by_conclusion: dict[int, _Derivation] = {}
    usable: list[Clause] = []
    queue = deque(tset.clauses)

    def accept(a: Clause, b: Clause, res: Clause) -> Optional[Clause]:
        # Returns the stored clause when it is new and within budget.
        if len(by_conclusion) >= budget:
            raise _BudgetExhausted
        supported = tset.is_supported(a.id) or tset.is_supported(b.id)
        stored, new = tset.add(res, supported=supported)
        if stored is None or not new:
            return None
        by_conclusion[stored.id] = (a, b, stored)
        return stored

    try:
        while queue:
            given = queue.popleft()
            for other in [*usable, given]:
                for res in resolve(given, other):
                    stored = accept(given, other, res)
                    if stored is None:
                        continue
                    if stored.is_empty:
                        proof = [_make_step(tset, *d) for d in _extract(by_conclusion, stored.id)]
                        return RefutationResult(True, len(by_conclusion), proof, HALT_EMPTY)
                    queue.append(stored)
                    for fc in factor_closure(stored):
                        fstored = accept(given, other, fc)
                        if fstored is not None:
                            queue.append(fstored)
            usable.append(given)
    except _BudgetExhausted:
        return RefutationResult(False, len(by_conclusion), [], HALT_BUDGET)
    reason = HALT_NO_PAIR if not by_conclusion else HALT_SATURATED
    return RefutationResult(False, len(by_conclusion), [], reason)


def _function_free_clauses():
    lit = st.sampled_from(sorted(_ARITY)).flatmap(
        lambda p: st.builds(
            Literal, st.booleans(), st.just(p), st.tuples(*[st.one_of(_VARS, _CONSTS)] * _ARITY[p])
        )
    )
    return st.lists(lit, min_size=1, max_size=2).map(lambda ls: Clause(tuple(ls)))


def _template_clauses(ground, max_size=3):
    # The shapes the sentence grammar compiles to: unary literals over v1
    # only, or ground. Their resolvents keep that shape, so factoring never
    # applies and the old search's skipped factors cannot show.
    arg = _CONSTS if ground else st.just(Var("v1"))
    lit = st.builds(
        lambda pos, pred, a: Literal(pos, pred, (a,)), st.booleans(), st.sampled_from("prs"), arg
    )
    return st.lists(lit, min_size=1, max_size=max_size).map(lambda ls: Clause(tuple(ls)))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.one_of(_template_clauses(False), _template_clauses(True)), st.booleans()),
        min_size=1,
        max_size=8,
    ),
    st.integers(0, 40),
)
def test_unrestricted_is_no_worse_than_reference_on_template_sets(entries, budget):
    # Forward subsumption changes which resolvents the loop accepts, so the
    # reference pins what it decides, not how it explores.
    def build():
        t = TheorySet()
        for c, supported in entries:
            t.add(c, supported=supported)
        return t

    t = build()
    if not t.clauses:
        return
    got = refute(t, strategy=UNRESTRICTED, budget=budget)
    want = _ref_refute_unrestricted(build(), budget)
    if want.halt_reason != HALT_BUDGET:
        assert got.refuted == want.refuted
        assert got.halt_reason != HALT_BUDGET
    if want.refuted:
        assert got.refuted
    assert got.steps_used <= want.steps_used
    assert bool(got.proof) == got.refuted
    # each step is an inference of its premises, each premise an input or an
    # earlier conclusion, and a proof ends in the empty clause
    known = {c.id: clause_to_str(c) for c in t.clauses}
    for step in got.proof:
        a, b = (parse_clause(f) for f in step.premises_fol)
        assert [known.get(i) for i in step.premise_ids] == list(step.premises_fol)
        assert step.conclusion_fol in {clause_to_str(r) for r in inferences(a, b)}
        known[step.conclusion_id] = step.conclusion_fol
    if got.proof:
        assert got.proof[-1].conclusion_fol == "[]"


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(_function_free_clauses(), _template_clauses(False), _template_clauses(True)),
        min_size=1,
        max_size=8,
    )
)
def test_unrestricted_decides_like_oracle(clauses):
    t = TheorySet()
    for c in clauses:
        t.add(c)
    if not t.clauses:
        return
    result = refute(t, strategy=UNRESTRICTED, budget=400)
    if result.halt_reason != HALT_BUDGET:
        assert result.refuted == (not oracle_sat(t.clauses))


# The sos-linear search before its deepening ran on an explicit stack, kept
# verbatim but for the kernel call and its two limits, which are passed in.
# The recursive descent stored every clause it reached in the theory set,
# marked supported, so proof ids came from the set. Its pre-check has since
# changed twice, and the reference follows: the pre-check drops subsumed
# candidates, and its derivation answers when the descent passes the work
# limit, if it fits the budget. Without subsumption the pre-check can stop
# on its cap where the subsuming one decides: on -p(v1), the goal
# p(v1) | r(v1) and -p(v2) | -r(f(v2)), the plain loop derives
# r(v1) | -r(f(v1)), r(v1) | -r(f(f(v1))), ... up to its cap, and r(v1)
# subsumes them all.


def _ref_refute_sos_linear(tset, budget, work_limit, saturate_cap):
    goals = [c for c in tset.clauses if tset.is_supported(c.id)]
    others = [c for c in tset.clauses if not tset.is_supported(c.id)]
    halt, _, derivation = _given_clause_loop(tset, goals, others, saturate_cap)
    if halt in (HALT_SATURATED, HALT_NO_PAIR):
        return RefutationResult(False, 0, [], HALT_NO_PAIR)

    inputs = list(tset.clauses)
    state = {"work": 0, "truncated": False}
    trail: list[_Derivation] = []

    def candidates(center, ancestors):
        sides = sorted(inputs + ancestors, key=lambda c: (len(c.literals), c.id))
        out = []
        for side in sides:
            for res in resolve(center, side):
                out.append((side, res))
                for fc in factor_closure(res):
                    out.append((side, fc))
        return out

    def descend(center, path_keys, ancestors, depth_left):
        cands = candidates(center, ancestors)
        for side, res in cands:
            if res.is_empty:
                stored, _ = tset.add(res, supported=True)
                trail.append((center, side, stored))
                return True
        for side, res in cands:
            if res.is_empty or res.literals in path_keys:
                continue
            if depth_left <= 1:
                state["truncated"] = True
                continue
            state["work"] += 1
            if state["work"] > work_limit:
                raise _BudgetExhausted
            stored, _ = tset.add(res, supported=True)
            if stored is None:
                continue
            trail.append((center, side, stored))
            path_keys.add(stored.literals)
            ancestors.append(stored)
            if descend(stored, path_keys, ancestors, depth_left - 1):
                return True
            ancestors.pop()
            path_keys.discard(stored.literals)
            trail.pop()
        return False

    limit = 1
    while limit <= budget:
        state["truncated"] = False
        for goal in goals:
            trail.clear()
            try:
                if descend(goal, {goal.literals}, [], limit):
                    proof = [_make_step(tset, *d) for d in trail]
                    return RefutationResult(True, len(trail), proof, HALT_EMPTY)
            except _BudgetExhausted:
                if derivation and len(derivation) <= budget:
                    proof = [_make_step(tset, *d) for d in derivation]
                    return RefutationResult(True, len(proof), proof, HALT_EMPTY)
                return RefutationResult(False, 0, [], HALT_BUDGET)
        if not state["truncated"]:
            return RefutationResult(False, 0, [], HALT_NO_PAIR)
        limit += 1
    return RefutationResult(False, 0, [], HALT_BUDGET)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(
                _clauses(min_size=1, max_size=2),
                _template_clauses(False, max_size=2),
                _template_clauses(True, max_size=2),
            ),
            st.booleans(),
        ),
        min_size=3,
        max_size=12,
    ),
    st.integers(0, 6),
)
def test_sos_linear_matches_recursive_reference(entries, budget):
    # Short clauses over three predicates make about a fifth of the sets
    # refutable within the step budget and some more past it. Small limits keep each
    # example fast; both searches get the same ones.
    def build():
        t = TheorySet()
        for c, supported in entries:
            t.add(c, supported=supported)
        return t

    t = build()
    if not t.clauses:
        return
    with mock.patch.object(engine, "_WORK_LIMIT", 200), mock.patch.object(
        engine, "_SATURATE_CAP", 200
    ):
        got = refute(t, strategy=SOS_LINEAR, budget=budget)
    want = _ref_refute_sos_linear(build(), budget, work_limit=200, saturate_cap=200)
    assert _outcome(got) == _outcome(want)


def test_sos_linear_chain_clause_resolves_with_itself():
    # The shortest chain resolves the first derived clause with itself; with
    # only the inputs and earlier clauses as sides it would take 6 steps.
    t = TheorySet()
    t.add(parse_clause("q(v1) | -p(v1) | p(f(v1))"), supported=True)
    for text in ("-q(v1)", "p(a)", "-p(f(f(f(f(a)))))"):
        t.add(parse_clause(text))
    result = refute(t, strategy=SOS_LINEAR)
    assert (result.refuted, result.steps_used) == (True, 5)
    assert [line.split(" ;; ")[0] for line in format_proof(result.proof)] == [
        "STEP 1: [1] -p(v1) | p(f(v1)) | q(v1) | [2] -q(v1) => [5] -p(v1) | p(f(v1))",
        "STEP 2: [5] -p(v1) | p(f(v1)) | [5] -p(v1) | p(f(v1)) => [11] -p(v1) | p(f(f(v1)))",
        "STEP 3: [11] -p(v1) | p(f(f(v1))) | [3] p(a) => [18] p(f(f(a)))",
        "STEP 4: [18] p(f(f(a))) | [11] -p(v1) | p(f(f(v1))) => [53] p(f(f(f(f(a)))))",
        "STEP 5: [53] p(f(f(f(f(a))))) | [4] -p(f(f(f(f(a))))) => [54] []",
    ]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_refutation_needs_factors_of_duplicate_resolvents(strategy):
    # Unsatisfiable only through the factors p(v1) and -p(v1), and the only
    # resolvents whose factors they are duplicate the inputs.
    t = TheorySet()
    t.add(parse_clause("p(v1) | p(v2)"))
    t.add(parse_clause("-p(v1) | -p(v2)"), supported=True)
    result = refute(t, strategy=strategy)
    assert result.refuted and result.halt_reason == HALT_EMPTY


# ---------------------------------------------------------------------------
# Forward subsumption in the given-clause loop.


def _subterms(t):
    yield t
    if isinstance(t, Func):
        for a in t.args:
            yield from _subterms(a)


def _ref_subsumes(s: Clause, c: Clause) -> bool:
    # Every substitution of s's variables by subterms of c, then multiset
    # inclusion of s's instance in c: each literal of s needs its own.
    terms = list(dict.fromkeys(x for l in c.literals for a in l.args for x in _subterms(a)))
    vs = clause_vars(s)
    have = Counter(c.literals)
    for image in product(terms, repeat=len(vs)):
        if not Counter(subst_clause(dict(zip(vs, image)), s).literals) - have:
            return True
    return False


def _generalized(draw, lit):
    # lit with some argument subterms replaced by variables
    def gen(t):
        if draw(st.integers(0, 2)) == 0:
            return draw(_VARS)
        if isinstance(t, Func):
            return Func(t.name, tuple(gen(a) for a in t.args))
        return t

    return Literal(lit.positive, lit.pred, tuple(gen(a) for a in lit.args))


@st.composite
def _subsumption_pairs(draw):
    # Half the pairs build s from literals of c (repeats allowed) with
    # arguments generalized, so that s often subsumes c; the rest are free.
    c = draw(_clauses(max_size=4))
    if c.literals and draw(st.booleans()):
        picked = draw(st.lists(st.sampled_from(c.literals), min_size=1, max_size=3))
        s = Clause(tuple(_generalized(draw, l) for l in picked))
    else:
        s = draw(_clauses(max_size=3))
    return s, c


@settings(max_examples=500, deadline=None)
@given(_subsumption_pairs(), st.booleans())
def test_subsumes_matches_brute_force(pair, canonical):
    s, c = pair
    if canonical:
        s, c = canonicalize(s), canonicalize(c)
    assert subsumes(s, c) == _ref_subsumes(s, c)


def test_subsumes_is_one_way_multiset_matching():
    def sub(a, b):
        return subsumes(parse_clause(a), parse_clause(b))

    assert sub("p(v1)", "p(a) | q(v1,b)")
    assert sub("q(v1,v2)", "q(v2,v1)")  # the candidate's variables stay fixed
    assert not sub("q(v1,v1)", "q(v1,v2)")
    assert not sub("p(a)", "p(v1)")
    assert not sub("p(v1) | p(v2)", "p(v1)")  # its factor
    assert not sub("p(v1) | p(v2)", "p(v1) | -p(v2)")
    assert sub("p(v1) | p(v2)", "p(a) | p(b)")
    assert not sub("p(v1)", "[]")


def _precheck(t, limit):
    goals = [c for c in t.clauses if t.is_supported(c.id)]
    others = [c for c in t.clauses if not t.is_supported(c.id)]
    return _given_clause_loop(t, goals, others, limit)


def test_sos_precheck_promotes_the_subsumer():
    # The goal's resolvents p(b) | -r(v1) and q(v1) | r(a) are subsumed by
    # the unsupported inputs p(v1) and q(v1). Dropped without queueing
    # their subsumers, the pre-check would end saturated on this refutable
    # set.
    t = TheorySet()
    t.add(parse_clause("p(b) | q(v1)"), supported=True)
    for text in ("-q(v1) | -r(v1)", "-p(b) | r(a)", "q(v1)", "p(v1)"):
        t.add(parse_clause(text))
    halt, _, derivation = _precheck(t, 100)
    assert halt == HALT_EMPTY
    assert {d[0].literals for d in derivation} >= {t.clauses[3].literals, t.clauses[4].literals}
    assert refute(t, strategy=SOS_LINEAR).refuted


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.one_of(_function_free_clauses(), _template_clauses(True, 2)), st.booleans()),
        min_size=2,
        max_size=8,
    )
)
def test_subsuming_precheck_decides_like_reference_saturation(entries):
    # Set of support is complete when the unsupported clauses are
    # satisfiable, so on such sets subsumption may change how much the
    # pre-check explores but not what it decides.
    t = TheorySet()
    for c, supported in entries:
        t.add(c, supported=supported)
    unsupported = [c for c in t.clauses if not t.is_supported(c.id)]
    if len(unsupported) == len(t.clauses) or not oracle_sat(unsupported):
        return
    want = _ref_sos_saturate(t, cap=60)
    halt, _, derivation = _precheck(t, 600)
    if want == "refutable":
        assert halt == HALT_EMPTY
    elif want == "saturated":
        assert halt in (HALT_SATURATED, HALT_NO_PAIR)
    if halt != HALT_BUDGET:
        assert (halt == HALT_EMPTY) == (not oracle_sat(t.clauses))
    # the derivation cites inputs and earlier conclusions only
    known = {c.id: c for c in t.clauses}
    for a, b, concl in derivation:
        assert known.get(a.id) == a and known.get(b.id) == b
        assert concl.literals in {r.literals for r in inferences(a, b)}
        known[concl.id] = concl
