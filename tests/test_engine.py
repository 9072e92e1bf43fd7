import hashlib
import json
import sys
from collections import Counter, deque
from itertools import islice, product
from typing import Optional
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import nlprover.engine as engine
from nlprover.datagen import GenConfig, generate, oracle_entail, oracle_sat
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
    _given_clause_loop,
    _proof_steps,
    _renamed_literals,
    factor,
    factor_closure,
    format_proof,
    inferences,
    refute,
    resolve,
)
from nlprover.herbrand import ORACLE_MAX_ATOMS, OracleOverflowError, _ground_theory
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
from oracle_utils import ref_dpll, ref_ground

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
    return build_theory_sets(sents, h)


def test_refute_worked_example_three_steps():
    _, t2 = _worked_example_sets()
    result = refute(t2, strategy=SOS_LINEAR, budget=100, render=nl_renderer(LEX))
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
        for tset in build_theory_sets(sents, h):
            rendered.clear()
            result = refute(tset, strategy=strategy, budget=5000, render=counting)
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
    sets = [(tset, nl_renderer(LEX)) for tset in _worked_example_sets()]
    for inst in islice(generate(GenConfig(seed=42)), 10):
        lex = inst.lexicon()
        sents = [to_sentence(t, lex).formula for t in inst.theory]
        h = to_sentence(inst.hypothesis, lex).formula
        sets.extend((tset, nl_renderer(lex)) for tset in build_theory_sets(sents, h))
    n_refuted = 0
    for tset, render in sets:
        before = _snapshot(tset)
        first = refute(tset, strategy=strategy, render=render)
        assert _snapshot(tset) == before
        # A second call on the same set answers the same, ids included.
        assert _outcome(refute(tset, strategy=strategy, render=render)) == _outcome(first)
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
# sos-linear pin is the text of the deepening search's chains (and of the
# given-clause loop's derivation where it passes the work limit); the
# unrestricted pin is the text of the given-clause loop with forward
# subsumption. Instance records and bench digests carry no ids, so these
# pin the proofs each search finds together with `refute`'s numbering of
# them: inputs keep their ids, and the k-th derived clause is last input
# id + k.
_PROOF_TEXT_SHA256 = {
    SOS_LINEAR: "1e514ef9ca1616708fb5bde71683a3faa1b980e2b7ab28ac94a9c00fb428985d",
    UNRESTRICTED: "41ba1ee3a6ce8ad28fef8e73d327e4a94e19fbb53fb6baf2c0cd45f99e6c2905",
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


def _assert_ids_follow_the_proof(tset, proof):
    # Inputs keep their ids, a conclusion equal to an input keeps that
    # input's id, the other conclusions are numbered n+1, n+2, ... in proof
    # order (n inputs), and each premise id names an input or an earlier
    # conclusion with the premise's text.
    inputs = {c.id: clause_to_str(c) for c in tset.clauses}
    known = dict(inputs)
    for step in proof:
        assert [known.get(i) for i in step.premise_ids] == list(step.premises_fol)
        if step.conclusion_id in inputs:
            assert inputs[step.conclusion_id] == step.conclusion_fol
        else:
            assert step.conclusion_fol not in known.values()
            assert step.conclusion_id == len(known) + 1
            known[step.conclusion_id] = step.conclusion_fol


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_proof_ids_follow_the_proof_on_generated_instances(strategy):
    pools = (
        islice(generate(GenConfig(seed=1)), 40),
        islice(
            generate(GenConfig(seed=3, n_entities=2, n_attributes=4, allow_existential=True)), 20
        ),
    )
    derived = 0
    for inst in (i for pool in pools for i in pool):
        lex = inst.lexicon()
        sents = [to_sentence(t, lex).formula for t in inst.theory]
        h = to_sentence(inst.hypothesis, lex).formula
        for tset in build_theory_sets(sents, h):
            result = refute(tset, strategy=strategy, budget=300)
            _assert_ids_follow_the_proof(tset, result.proof)
            derived += len(result.proof)
    assert derived >= 50


def test_verdicts_do_not_depend_on_the_memo_history():
    # The pre-check's ground decisions go through herbrand's memo of
    # theory groundings and stored models, which the oracle shares. A
    # verdict, its proof ids included, must not depend on what the memo
    # holds: the second pass runs in reverse order, after the oracle has
    # asked about the same theories.
    instances = list(islice(generate(GenConfig(seed=5)), 60))
    judged = []
    for inst in instances:
        lex = inst.lexicon()
        judged.append(([to_sentence(t, lex) for t in inst.theory], to_sentence(inst.hypothesis, lex), lex))

    def verdict(sentences, hyp, lex):
        v = judge(sentences, hyp, lexicon=lex)
        return v.label, v.steps_t1, v.steps_t2, v.halt_t1, v.halt_t2, format_proof(v.proof)

    _ground_theory.cache_clear()
    first = [verdict(*x) for x in judged]
    for sentences, hyp, _ in judged:
        oracle_entail([s.formula for s in sentences], hyp.formula)
    second = [verdict(*x) for x in reversed(judged)][::-1]
    assert second == first


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

    # An empty set is not refuted; it is no input error.
    for strategy in STRATEGIES:
        result = refute(TheorySet(), strategy=strategy)
        assert (result.refuted, result.steps_used, result.proof) == (False, 0, [])
        assert result.halt_reason == HALT_NO_PAIR
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
    result = refute(t2, strategy=SOS_LINEAR, render=nl_renderer(LEX))
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


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        _PAIRS,
        st.tuples(
            _clauses(positive=st.just(True), min_size=1, max_size=1),
            _clauses(positive=st.just(False), min_size=1, max_size=1),
        ),
    )
)
def test_only_two_units_infer_the_empty_clause(pair):
    # The deepening search tries a chain clause's sides shortest first, so
    # this makes an empty inference, when there is one, its first candidate.
    c1, c2 = pair
    got = list(inferences(c1, c2))
    if len(c1.literals) == len(c2.literals) == 1:
        assert len(got) <= 1 and all(r.is_empty for r in got)
    else:
        assert not any(r.is_empty for r in got)


# The unrestricted search before it became the given-clause loop with every
# clause queued, kept verbatim but for the kernel call, which now returns
# the resolvents alone, and for its proof, which it renders as `refute`
# does, from a copy of the set taken before it stored anything. It stored
# resolvents in the theory set and tried factors only of new resolvents.


class _BudgetExhausted(Exception):
    pass


def _extract(by_conclusion: dict[int, _Derivation], empty_id: int) -> list[_Derivation]:
    """Derivation of the empty clause: walk premise ids back through the
    step log, then order by conclusion id."""
    needed: dict[int, _Derivation] = {}
    stack = [empty_id]
    while stack:
        cid = stack.pop()
        d = by_conclusion.get(cid)
        if d is None or cid in needed:
            continue
        needed[cid] = d
        stack.extend((d[0].id, d[1].id))
    return [needed[cid] for cid in sorted(needed)]


def _ref_refute_unrestricted(tset: TheorySet, budget: int) -> RefutationResult:
    inputs = tset.copy()
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
                        derivation = _extract(by_conclusion, stored.id)
                        proof = _proof_steps(inputs, derivation, clause_to_str)
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
# marked supported, and ordered a clause's sides by (length, id), so an
# ancestor ranks by the order in which it was first reached. Its proofs are
# rendered as `refute` renders them, from a copy of the set taken before
# the descent stored anything. Its pre-check has since changed four times,
# and the reference follows: the pre-check drops
# subsumed candidates, its derivation answers when the descent passes the
# work limit, if it fits the budget, it leaves out the clauses that hold a
# pure literal (prune=False runs it on every clause, as before), and a
# ground model of the clauses it kept means no refutation, so a pre-check
# that stops on its cap on such a set answers no_valid_pair. Without
# subsumption the pre-check can stop on its cap where the subsuming one
# decides: on -p(v1), the goal p(v1) | r(v1) and -p(v2) | -r(f(v2)), the
# plain loop derives r(v1) | -r(f(v1)), r(v1) | -r(f(f(v1))), ... up to its
# cap, and r(v1) subsumes them all. The engine grounds before its loop and
# runs the loop only when grounding cannot decide or the fallback needs its
# derivation; the reference always runs its loop first, and grounds only
# when the loop stops on its cap, with the earlier oracle's grounding and
# DPLL, so the two decide through different code.


def _ref_has_ground_model(clauses):
    # Function-free, within the oracle's atom cap, and satisfiable.
    try:
        return ref_dpll(ref_ground(clauses, ORACLE_MAX_ATOMS))
    except OracleOverflowError:
        return False


def _ref_without_pure(clauses):
    # Drop one clause that holds a pure literal at a time, until none does.
    clauses = list(clauses)
    while True:
        for c in clauses:
            if any(
                not any(m.pred == l.pred and m.positive != l.positive for d in clauses for m in d.literals)
                for l in c.literals
            ):
                clauses.remove(c)
                break
        else:
            return clauses


def _ref_refute_sos_linear(tset, budget, work_limit, saturate_cap, prune=True):
    given_set = tset.copy()
    goals = [c for c in tset.clauses if tset.is_supported(c.id)]
    pre = _ref_without_pure(tset.clauses) if prune else tset.clauses
    pre_goals = [c for c in pre if tset.is_supported(c.id)]
    others = [c for c in pre if not tset.is_supported(c.id)]
    halt, _, derivation = _given_clause_loop(tset, pre_goals, others, saturate_cap)
    if halt in (HALT_SATURATED, HALT_NO_PAIR) or (
        halt == HALT_BUDGET and _ref_has_ground_model(pre)
    ):
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
                    proof = _proof_steps(given_set, trail, clause_to_str)
                    return RefutationResult(True, len(trail), proof, HALT_EMPTY)
            except _BudgetExhausted:
                if derivation and len(derivation) <= budget:
                    proof = _proof_steps(given_set, derivation, clause_to_str)
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
    st.one_of(st.integers(0, 4), st.just(200)),
)
def test_sos_linear_matches_recursive_reference(entries, budget, work_limit):
    # Short clauses over three predicates make about a fifth of the sets
    # refutable within the step budget and some more past it. Small limits keep each
    # example fast; both searches get the same ones. Few sets need more than
    # four extensions, so a work limit of 0-4 makes the fallback fire on some.
    def build():
        t = TheorySet()
        for c, supported in entries:
            t.add(c, supported=supported)
        return t

    t = build()
    if not t.clauses:
        return
    with mock.patch.object(engine, "_WORK_LIMIT", work_limit), mock.patch.object(
        engine, "_SATURATE_CAP", 200
    ):
        got = refute(t, strategy=SOS_LINEAR, budget=budget)
    want = _ref_refute_sos_linear(build(), budget, work_limit=work_limit, saturate_cap=200)
    assert _outcome(got) == _outcome(want)


def _unary(positive, pred, term=Var("v1")):
    return Literal(positive, pred, (term,))


@st.composite
def _chain_sets(draw):
    """The fact p0(a), the rules -p_i(v1) | p_{i+1}(v1) for i < n (n is 3-8),
    the supported goal -p_n(a), and 0-4 rules that branch off the chain:
    a way out to q_k, a way in from q_k, or a two-premise rule that skips
    ahead. Entries come in a drawn order, so ids and (len, id) ties vary."""
    n = draw(st.integers(3, 8))
    a = Const("a")
    entries = [(Clause((_unary(True, "p0", a),)), False)]
    entries += [
        (Clause((_unary(False, f"p{i}"), _unary(True, f"p{i + 1}"))), False) for i in range(n)
    ]
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, n)), draw(st.integers(0, n))
        q = f"q{draw(st.integers(0, 2))}"
        literals = draw(
            st.sampled_from(
                [
                    (_unary(False, f"p{i}"), _unary(draw(st.booleans()), q)),
                    (_unary(False, q), _unary(True, f"p{i}")),
                    (_unary(False, f"p{i}"), _unary(False, q), _unary(True, f"p{j}")),
                ]
            )
        )
        entries.append((Clause(literals), False))
    entries.append((Clause((_unary(False, f"p{n}", a),)), True))
    return draw(st.permutations(entries))


@settings(max_examples=150, deadline=None)
@given(_chain_sets(), st.integers(0, 12), st.integers(0, 30))
def test_sos_linear_matches_recursive_reference_on_chains(entries, budget, small_limit):
    # Every drawn set is refutable in n + 1 steps or fewer, so deepening
    # runs several levels and extends many chains; the branches give it
    # dead ends to back out of. Compared at the real work limit and at a
    # small one, where the fallback answers.
    def build():
        t = TheorySet()
        for c, supported in entries:
            t.add(c, supported=supported)
        return t

    for work_limit in (engine._WORK_LIMIT, small_limit):
        with mock.patch.object(engine, "_WORK_LIMIT", work_limit):
            got = refute(build(), strategy=SOS_LINEAR, budget=budget)
        want = _ref_refute_sos_linear(
            build(), budget, work_limit=work_limit, saturate_cap=engine._SATURATE_CAP
        )
        assert _outcome(got) == _outcome(want)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        _chain_sets(),
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
    ),
    st.integers(0, 12),
    st.integers(0, 30),
)
def test_proof_ids_follow_the_proof_on_drawn_sets(entries, budget, small_limit):
    # The reference tests' drawn sets, under both strategies; sos-linear at
    # the real work limit and at a small one, where the loop's derivation
    # answers.
    t = TheorySet()
    for c, supported in entries:
        t.add(c, supported=supported)
    runs = [(UNRESTRICTED, engine._WORK_LIMIT, 10 * budget)]
    runs += [(SOS_LINEAR, limit, budget) for limit in (engine._WORK_LIMIT, small_limit)]
    for strategy, work_limit, steps in runs:
        with mock.patch.object(engine, "_WORK_LIMIT", work_limit), mock.patch.object(
            engine, "_SATURATE_CAP", 200
        ):
            result = refute(t, strategy=strategy, budget=steps)
        event(f"{strategy} refuted: {result.refuted}")
        _assert_ids_follow_the_proof(t, result.proof)


# A function-free clause of one or two literals whose first literal is
# made positive: a set of these is satisfied by making every atom true.
_POSITIVE_CLAUSES = _function_free_clauses().map(
    lambda c: Clause((Literal(True, c.literals[0].pred, c.literals[0].args), *c.literals[1:]))
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(_POSITIVE_CLAUSES, st.just(False)),
            st.tuples(_function_free_clauses(), st.just(True)),
        ),
        min_size=2,
        max_size=10,
    ),
    st.integers(0, 6),
)
def test_pure_literal_deletion_moves_no_outcome(entries, budget):
    # Binary predicates, clauses with several positive literals and several
    # goals, at the real limits. The theory is satisfiable, so set of
    # support decides refutability with or without the clauses that hold a
    # pure literal, none of which is in a refutation, and leaving them out
    # of the pre-check changes nothing that refute returns. Sets that a
    # pre-check over every clause cannot decide within 300 resolvents are
    # left out: at the real cap they are slow.
    def build():
        t = TheorySet()
        for c, supported in entries:
            t.add(c, supported=supported)
        return t

    t = build()
    if not t.clauses or _precheck(t, 300)[0] == HALT_BUDGET:
        return
    got = refute(t, strategy=SOS_LINEAR, budget=budget)
    want = _ref_refute_sos_linear(
        build(),
        budget,
        work_limit=engine._WORK_LIMIT,
        saturate_cap=engine._SATURATE_CAP,
        prune=False,
    )
    assert _outcome(got) == _outcome(want)


def test_pure_literal_deletion_runs_to_a_fixpoint():
    # r is pure at first; once p(a) | r(a) is gone, -p is; then -q. -t(a)
    # and t(a) keep each other.
    texts = ["-p(v1) | q(v1)", "-q(v1) | t(v1)", "p(a) | r(a)", "-t(a)", "t(a)"]
    clauses = [Clause(parse_clause(x).literals, i) for i, x in enumerate(texts, start=1)]
    assert [c.id for c in engine._without_pure(clauses)] == [4, 5]
    assert [c.id for c in _ref_without_pure(clauses)] == [4, 5]


def test_pure_goals_end_the_search_before_any_inference(monkeypatch):
    # The theory alone is refutable, but r has no positive literal, so no
    # refutation starts at the goal -r(v1).
    t = TheorySet()
    t.add(parse_clause("-r(v1)"), supported=True)
    for text in ("q(a)", "-q(v1) | s(v1)", "-s(a)"):
        t.add(parse_clause(text))

    def no_inferences(*args):
        pytest.fail("inferences called")

    monkeypatch.setattr(engine, "inferences", no_inferences)
    result = refute(t, strategy=SOS_LINEAR)
    assert (result.refuted, result.steps_used, result.halt_reason) == (False, 0, HALT_NO_PAIR)


def _self_resolving_chain_set():
    t = TheorySet()
    t.add(parse_clause("q(v1) | -p(v1) | p(f(v1))"), supported=True)
    for text in ("-q(v1)", "p(a)", "-p(f(f(f(f(a)))))"):
        t.add(parse_clause(text))
    return t


def test_sos_linear_chain_clause_resolves_with_itself():
    # The shortest chain resolves the first derived clause with itself; with
    # only the inputs and earlier clauses as sides it would take 6 steps.
    result = refute(_self_resolving_chain_set(), strategy=SOS_LINEAR)
    assert (result.refuted, result.steps_used) == (True, 5)
    assert [line.split(" ;; ")[0] for line in format_proof(result.proof)] == [
        "STEP 1: [1] -p(v1) | p(f(v1)) | q(v1) | [2] -q(v1) => [5] -p(v1) | p(f(v1))",
        "STEP 2: [5] -p(v1) | p(f(v1)) | [5] -p(v1) | p(f(v1)) => [6] -p(v1) | p(f(f(v1)))",
        "STEP 3: [6] -p(v1) | p(f(f(v1))) | [3] p(a) => [7] p(f(f(a)))",
        "STEP 4: [7] p(f(f(a))) | [6] -p(v1) | p(f(f(v1))) => [8] p(f(f(f(f(a)))))",
        "STEP 5: [8] p(f(f(f(f(a))))) | [4] -p(f(f(f(f(a))))) => [9] []",
    ]


@pytest.mark.parametrize("work_limit, steps", [(137, 6), (138, 5)])
def test_sos_linear_fallback_fires_past_the_work_limit(work_limit, steps):
    # The 5-step chain above ends on the 138th extension; with one fewer the
    # pre-check's 6-step derivation answers, as in the reference.
    with mock.patch.object(engine, "_WORK_LIMIT", work_limit):
        got = refute(_self_resolving_chain_set(), strategy=SOS_LINEAR, budget=10)
    want = _ref_refute_sos_linear(
        _self_resolving_chain_set(), 10, work_limit=work_limit, saturate_cap=engine._SATURATE_CAP
    )
    assert _outcome(got) == _outcome(want)
    assert (got.refuted, got.steps_used) == (True, steps)


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
# The ground decision in the sos-linear pre-check.

# Unary p, r and s and binary q: at most 18 ground atoms over three
# constants, within the oracle's cap, and 28 over four, past it.
_GD_ARITY = {"p": 1, "r": 1, "s": 1, "q": 2}
_GD_TERMS = st.one_of(
    st.sampled_from([Var("v1"), Var("v2")]), st.sampled_from([Const(n) for n in "abcd"])
)
_GD_CLAUSES = st.lists(
    st.sampled_from(sorted(_GD_ARITY)).flatmap(
        lambda p: st.builds(
            Literal, st.booleans(), st.just(p), st.tuples(*[_GD_TERMS] * _GD_ARITY[p])
        )
    ),
    min_size=1,
    max_size=3,
).map(lambda ls: Clause(tuple(ls)))

# A draw is compared only when the reference decides it within this many
# inferences in its pre-check and this many resolvents in its deepening
# search: at the real cap and work limit one that does not is slow.
_GD_INFERENCE_BOUND = 1000


class _PastBound(Exception):
    pass


def _within(make, bound):
    """`make` (resolve or inferences) as a list, raising _PastBound once
    the calls have made more than `bound` clauses in all."""
    made = 0

    def bounded(c1, c2):
        nonlocal made
        out = list(make(c1, c2))
        made += len(out)
        if made > bound:
            raise _PastBound
        return out

    return bounded


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_GD_CLAUSES, st.booleans()), min_size=2, max_size=10), st.integers(0, 6))
def test_ground_decision_matches_reference_on_function_free_sets(entries, budget):
    # Non-Horn clauses, several goals, and theories that may have no model,
    # where set of support is incomplete and the loop decides; at the real
    # work limit and saturation cap. The events name each draw's halt reason
    # and count the skipped draws (pytest --hypothesis-show-statistics).
    def build():
        t = TheorySet()
        for c, supported in entries:
            t.add(c, supported=supported)
        return t

    t = build()
    if not t.clauses:
        return
    try:
        with mock.patch.object(
            engine, "inferences", _within(inferences, _GD_INFERENCE_BOUND)
        ), mock.patch.object(
            sys.modules[__name__], "resolve", _within(resolve, _GD_INFERENCE_BOUND)
        ):
            want = _ref_refute_sos_linear(
                build(), budget, work_limit=engine._WORK_LIMIT, saturate_cap=engine._SATURATE_CAP
            )
    except _PastBound:
        event("skipped: the reference passes the inference bound")
        return
    kept = _ref_without_pure(t.clauses)
    goals = [c for c in kept if t.is_supported(c.id)]
    if goals:
        others = [c for c in kept if not t.is_supported(c.id)]
        event(f"ground decision: {engine._ground_decision(others, goals)}")
    got = refute(t, strategy=SOS_LINEAR, budget=budget)
    event(f"halt: {got.halt_reason}")
    assert _outcome(got) == _outcome(want)


def _counting(monkeypatch, name):
    calls = []
    real = getattr(engine, name)
    monkeypatch.setattr(engine, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_ground_model_decides_without_inferences(monkeypatch):
    # Satisfiable and function-free, and no literal is pure: Bob is kind or
    # round, Alan is not round, and nobody is kind.
    t = TheorySet()
    for text in ("kind(Bob) | round(Bob)", "-round(Alan)"):
        t.add(parse_clause(text))
    t.add(parse_clause("-kind(v1)"), supported=True)

    def no_inferences(*args):
        pytest.fail("inferences called")

    monkeypatch.setattr(engine, "inferences", no_inferences)
    loops = _counting(monkeypatch, "_given_clause_loop")
    result = refute(t, strategy=SOS_LINEAR)
    assert (result.refuted, result.steps_used, result.halt_reason) == (False, 0, HALT_NO_PAIR)
    assert loops == []


@pytest.mark.parametrize(
    "theory, goal",
    [
        # a function term
        (["p(f(a))", "-p(b) | r(b)"], "-r(v1) | p(v1)"),
        # 5 constants and a binary predicate: 25 ground atoms
        (["q(a,b) | q(c,d)"], "-q(v1,e)"),
    ],
)
def test_sets_grounding_cannot_reach_take_the_loop(monkeypatch, theory, goal):
    t = TheorySet()
    for text in theory:
        t.add(parse_clause(text))
    t.add(parse_clause(goal), supported=True)
    loops = _counting(monkeypatch, "_given_clause_loop")
    assert engine._ground_decision(
        [c for c in t.clauses if not t.is_supported(c.id)],
        [c for c in t.clauses if t.is_supported(c.id)],
    ) is None
    result = refute(t, strategy=SOS_LINEAR)
    assert result.halt_reason == HALT_NO_PAIR
    assert len(loops) == 1


def test_ground_model_answers_where_the_capped_loop_would_not():
    # Satisfiable and function-free. With a cap of 1 the loop stops on its
    # second candidate, and deepening within a budget of 1 would then end
    # budget_exhausted; the ground model answers no_valid_pair, and so does
    # the reference once its loop has stopped on the cap.
    def build():
        t = TheorySet()
        for text in ("p(a)", "p(b)", "-r(c)"):
            t.add(parse_clause(text))
        t.add(parse_clause("-p(v1) | r(v1)"), supported=True)
        return t

    assert _precheck(build(), 1)[0] == HALT_BUDGET
    with mock.patch.object(engine, "_SATURATE_CAP", 1):
        got = refute(build(), strategy=SOS_LINEAR, budget=1)
    want = _ref_refute_sos_linear(build(), 1, work_limit=engine._WORK_LIMIT, saturate_cap=1)
    assert _outcome(got) == _outcome(want)
    assert got.halt_reason == HALT_NO_PAIR


def _chain_set(n=4):
    # p0(a), -p_i(v1) | p_{i+1}(v1) for i < n, and the goal -p_n(a): refutable
    # in n + 1 steps, function-free, and the theory has a model.
    t = TheorySet()
    t.add(parse_clause("p0(a)"))
    for i in range(n):
        t.add(parse_clause(f"-p{i}(v1) | p{i + 1}(v1)"))
    t.add(parse_clause(f"-p{n}(a)"), supported=True)
    return t


def test_ground_refuted_set_runs_the_loop_only_for_the_fallback(monkeypatch):
    loops = _counting(monkeypatch, "_given_clause_loop")
    at_limit = refute(_chain_set(), strategy=SOS_LINEAR, budget=10)
    assert (at_limit.refuted, at_limit.steps_used, loops) == (True, 5, [])
    # Past a work limit of 2 the loop runs once, and its derivation answers.
    with mock.patch.object(engine, "_WORK_LIMIT", 2):
        got = refute(_chain_set(), strategy=SOS_LINEAR, budget=10)
    assert len(loops) == 1
    want = _ref_refute_sos_linear(
        _chain_set(), 10, work_limit=2, saturate_cap=engine._SATURATE_CAP
    )
    assert _outcome(got) == _outcome(want)
    _, _, derivation = _precheck(_chain_set(), engine._SATURATE_CAP)
    assert got.refuted and got.steps_used == len(derivation) > 0


def test_deepening_resolves_each_clashing_pair_once(monkeypatch):
    # A ground model decides the 5-step chain, so every inference is the
    # deepening search's. It deepens five times over the same chains, yet
    # resolves each (chain clause, side) pair once, and only a pair holding
    # some predicate with opposite signs.
    t = _chain_set()
    t.add(parse_clause("q(a) | -p2(b)"))
    calls = _counting(monkeypatch, "inferences")
    result = refute(t, strategy=SOS_LINEAR, budget=10)
    assert (result.refuted, result.steps_used) == (True, 5)
    pairs = [(a.literals, b.literals) for a, b in calls]
    assert pairs and len(pairs) == len(set(pairs))
    for a, b in calls:
        signs = {(l.pred, l.positive) for l in b.literals}
        assert any((l.pred, not l.positive) in signs for l in a.literals), (a, b)


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
    known = {c.literals for c in t.clauses}
    for a, b, concl in derivation:
        assert a.literals in known and b.literals in known
        assert concl.literals in {r.literals for r in inferences(a, b)}
        known.add(concl.literals)
