import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import formulas_satisfiable

import nlprover.normalize as normalize
from nlprover.datagen import oracle_sat
from nlprover.logic import Clause, Const, Func, Term, Var, canonicalize, clause_to_str, is_tautology
from nlprover.normalize import (
    And,
    Atom,
    CnfBlowupError,
    Exists,
    ForAll,
    Formula,
    Implies,
    MAX_CLAUSES_PER_FORMULA,
    Not,
    Or,
    SkolemNamer,
    _CLAUSE_FORM_CACHE_SIZE,
    _clause_form,
    _distribute,
    build_theory_sets,
    compile_clauses,
    free_vars,
    negate,
    nnf,
    theory_set,
    to_clauses,
)

X = Var("x")
BOB = Const("Bob")


def _strs(clauses):
    return [clause_to_str(c) for c in clauses]


def test_rule_converts_to_single_clause():
    f = ForAll(X, Implies(And(Atom("round", (X,)), Atom("kind", (X,))), Atom("rough", (X,))))
    assert _strs(to_clauses(f)) == ["-kind(v1) | -round(v1) | rough(v1)"]


def test_top_level_existential_becomes_sk_constant():
    f = Exists(X, Atom("kind", (X,)))
    assert _strs(to_clauses(f, SkolemNamer())) == ["kind(sk1)"]


def test_ground_atom_is_identity():
    assert _strs(to_clauses(Atom("kind", (BOB,)))) == ["kind(Bob)"]


def test_negate_atomic():
    f = negate(Atom("kind", (BOB,)))
    assert f == Not(Atom("kind", (BOB,)))


def test_negate_dualizes_quantifier():
    f = negate(ForAll(X, Atom("kind", (X,))))
    assert f == Exists(X, Not(Atom("kind", (X,))))


def test_negate_cancels_double_negation():
    f = negate(Not(Atom("round", (BOB,))))
    assert f == Atom("round", (BOB,))


def _random_formula(rng, depth=0):
    roll = rng.random()
    atom = Atom(rng.choice("pqr"), (rng.choice([BOB, Const("Alan")]),))
    if depth >= 3 or roll < 0.3:
        return atom
    if roll < 0.45:
        return Not(_random_formula(rng, depth + 1))
    a = _random_formula(rng, depth + 1)
    b = _random_formula(rng, depth + 1)
    return (And if roll < 0.65 else Or if roll < 0.85 else Implies)(a, b)


def test_double_negation_is_nnf_identity_for_quantifier_free():
    rng = random.Random(2)
    for _ in range(300):
        f = _random_formula(rng)
        assert negate(negate(f)) == nnf(f)


def _grammar_like_formula(rng, entities, attrs):
    kind = rng.choice(("fact", "rule", "univ", "exist", "univ1"))
    x = Var("x")
    if kind == "fact":
        a = Atom(rng.choice(attrs), (Const(rng.choice(entities)),))
        return a if rng.random() < 0.6 else Not(a)
    if kind == "exist":
        a = Atom(rng.choice(attrs), (x,))
        return Exists(x, a if rng.random() < 0.6 else Not(a))
    if kind == "univ1":
        a = Atom(rng.choice(attrs), (x,))
        return ForAll(x, a if rng.random() < 0.6 else Not(a))
    body_attrs = rng.sample(attrs, rng.randint(1, min(2, len(attrs) - 1)))
    body = Atom(body_attrs[0], (x,))
    for b in body_attrs[1:]:
        body = And(body, Atom(b, (x,)))
    head = Atom(rng.choice([a for a in attrs if a not in body_attrs]), (x,))
    if rng.random() < 0.3:
        head = Not(head)
    if kind == "rule":
        return ForAll(x, Implies(body, head))
    lits = Or(Not(Atom(body_attrs[0], (x,))), head)
    return ForAll(x, lits)


def test_clause_form_is_equisatisfiable_with_formulas():
    # Formula-level finite-model search against clause-level enumeration.
    rng = random.Random(4)
    both = {True: 0, False: 0}
    for trial in range(120):
        # the second half uses a cramped vocabulary so contradictions are common
        attrs = ["p", "q", "r"] if trial < 60 else ["p", "q"]
        n = rng.randint(2, 4) if trial < 60 else rng.randint(4, 6)
        formulas = [_grammar_like_formula(rng, ["Bob"], attrs) for _ in range(n)]
        namer = SkolemNamer()
        clauses = [c for f in formulas for c in to_clauses(f, namer)]
        expected = formulas_satisfiable(formulas)
        got = oracle_sat(clauses)
        assert got == expected
        both[expected] += 1
    assert both[True] > 10 and both[False] > 10


def test_cnf_blowup_raises():
    # Or-chain of 9 conjunction pairs distributes to 2^9 = 512 clauses.
    def pair(i):
        return And(Atom(f"a{i}", (BOB,)), Atom(f"b{i}", (BOB,)))

    f = pair(0)
    for i in range(1, 9):
        f = Or(f, pair(i))
    with pytest.raises(CnfBlowupError):
        to_clauses(f)


def test_free_variables_rejected():
    with pytest.raises(ValueError):
        to_clauses(Atom("kind", (X,)))


def test_build_theory_sets_minimal_case():
    t1, t2 = build_theory_sets([Atom("kind", (BOB,))], Atom("kind", (BOB,)))
    assert _strs(t1.clauses) == ["kind(Bob)"]
    assert _strs(t2.clauses) == ["kind(Bob)", "-kind(Bob)"]
    assert t2.is_supported(t2.clauses[1].id)
    assert not t2.is_supported(t2.clauses[0].id)
    # the hypothesis clause collapsed into the theory clause in T1 but keeps
    # its support mark there
    assert t1.is_supported(t1.clauses[0].id)


def test_build_theory_sets_equal_sets_built_apart():
    # T1 and T2 start from one copied theory part, and neither sees the
    # other's goals.
    nlt = [ForAll(X, Or(Not(Atom("kind", (X,))), Atom("rough", (X,)))), Atom("kind", (BOB,))]
    h = Atom("rough", (BOB,))
    theory, h_clauses, neg_clauses = compile_clauses(nlt, h)
    for got, goals in zip(build_theory_sets(nlt, h), (h_clauses, neg_clauses)):
        want = theory_set(theory, goals)
        assert [(c.literals, c.id) for c in got.clauses] == [(c.literals, c.id) for c in want.clauses]
        assert (got.supported, got._index) == (want.supported, want._index)


def test_negated_hypothesis_lands_in_t2():
    nlt = [ForAll(X, Or(Not(Atom("kind", (X,))), Atom("rough", (X,))))]
    h = Not(Atom("kind", (BOB,)))
    t1, t2 = build_theory_sets(nlt, h)
    assert "kind(Bob)" in _strs(t2.clauses)
    assert "-kind(Bob)" in _strs(t1.clauses)


def test_existential_theory_shares_sk_constant_across_sets():
    nlt = [Exists(X, Atom("kind", (X,)))]
    h = Atom("round", (BOB,))
    t1, t2 = build_theory_sets(nlt, h)
    assert "kind(sk1)" in _strs(t1.clauses)
    assert "kind(sk1)" in _strs(t2.clauses)
    # both sets stay satisfiable under the independent model checker
    assert oracle_sat(t1.clauses)
    assert oracle_sat(t2.clauses)


def test_skolem_namer_avoids_existing_names():
    f = And(Atom("kind", (Const("sk3"),)), Exists(X, Atom("round", (X,))))
    clauses = to_clauses(f, SkolemNamer.starting_after([f]))
    assert "round(sk4)" in _strs(clauses)


# ---------------------------------------------------------------------------
# Reference clause form: rename bound variables apart, prenex left to right,
# then Skolemize the prefix, each as its own pass over the formula. The
# one-walk Skolem matrix must give the same clauses and the same sk-names.


def _ref_free_vars(f: Formula, bound: frozenset = frozenset()) -> set[Var]:
    if isinstance(f, Atom):
        out = set()
        for a in f.args:
            if isinstance(a, Var) and a not in bound:
                out.add(a)
            elif isinstance(a, Func):
                out |= {v for v in _ref_func_vars(a) if v not in bound}
        return out
    if isinstance(f, Not):
        return _ref_free_vars(f.f, bound)
    if isinstance(f, (And, Or, Implies)):
        return _ref_free_vars(f.a, bound) | _ref_free_vars(f.b, bound)
    return _ref_free_vars(f.body, bound | {f.var})


def _ref_func_vars(t: Func):
    for a in t.args:
        if isinstance(a, Var):
            yield a
        elif isinstance(a, Func):
            yield from _ref_func_vars(a)


def _standardize(f: Formula, env: dict, counter: list[int]) -> Formula:
    """Rename every bound variable to a fresh one (q1, q2, ...)."""
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(_std_term(a, env) for a in f.args))
    if isinstance(f, Not):
        return Not(_standardize(f.f, env, counter))
    if isinstance(f, And):
        return And(_standardize(f.a, env, counter), _standardize(f.b, env, counter))
    if isinstance(f, Or):
        return Or(_standardize(f.a, env, counter), _standardize(f.b, env, counter))
    counter[0] += 1
    fresh = Var(f"q{counter[0]}")
    inner = dict(env)
    inner[f.var] = fresh
    body = _standardize(f.body, inner, counter)
    return ForAll(fresh, body) if isinstance(f, ForAll) else Exists(fresh, body)


def _std_term(t: Term, env: dict) -> Term:
    if isinstance(t, Var):
        return env.get(t, t)
    if isinstance(t, Func):
        return Func(t.name, tuple(_std_term(a, env) for a in t.args))
    return t


def _prenex(f: Formula) -> tuple[list[tuple[str, Var]], Formula]:
    """Pull quantifiers to the front, left to right, outside in. Assumes NNF
    with bound variables already renamed apart."""
    if isinstance(f, Atom) or isinstance(f, Not):
        return [], f
    if isinstance(f, (And, Or)):
        pa, ma = _prenex(f.a)
        pb, mb = _prenex(f.b)
        matrix = And(ma, mb) if isinstance(f, And) else Or(ma, mb)
        return pa + pb, matrix
    kind = "forall" if isinstance(f, ForAll) else "exists"
    prefix, matrix = _prenex(f.body)
    return [(kind, f.var)] + prefix, matrix


def _skolemize(prefix, matrix: Formula, namer: SkolemNamer) -> Formula:
    env: dict[Var, Term] = {}
    universals: list[Var] = []
    for kind, var in prefix:
        if kind == "forall":
            universals.append(var)
        else:
            env[var] = namer.fresh(tuple(universals))
    if not env:
        return matrix
    return _apply_env(matrix, env)


def _apply_env(f: Formula, env: dict) -> Formula:
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(_std_term(a, env) for a in f.args))
    if isinstance(f, Not):
        return Not(_apply_env(f.f, env))
    if isinstance(f, And):
        return And(_apply_env(f.a, env), _apply_env(f.b, env))
    if isinstance(f, Or):
        return Or(_apply_env(f.a, env), _apply_env(f.b, env))
    raise AssertionError("quantifier survived prenexing")


def _ref_to_clauses(f, namer, max_clauses):
    if _ref_free_vars(f):
        raise ValueError("formula has free variables")
    g = _standardize(nnf(f), {}, [0])
    prefix, matrix = _prenex(g)
    matrix = _skolemize(prefix, matrix, namer)
    out: list[Clause] = []
    seen = set()
    for lits in _distribute(matrix, max_clauses):
        c = canonicalize(Clause(tuple(lits)))
        if is_tautology(c) or c.literals in seen:
            continue
        seen.add(c.literals)
        out.append(c)
    return out


_VARS = (Var("x"), Var("y"), Var("z"))
_terms = st.recursive(
    st.sampled_from(_VARS) | st.sampled_from((BOB, Const("Alan"), Const("sk2"))),
    lambda t: st.builds(Func, st.sampled_from("fg"), st.lists(t, min_size=1, max_size=2).map(tuple)),
    max_leaves=4,
)
_atoms = st.builds(Atom, st.sampled_from("pqr"), st.lists(_terms, max_size=3).map(tuple))
@st.composite
def _formulas(draw, depth=4):
    kind = draw(st.sampled_from((Atom, Not, And, And, Or, Implies, ForAll, ForAll, Exists, Exists)))
    if depth == 0 or kind is Atom:
        return draw(_atoms)
    if kind is Not:
        return Not(draw(_formulas(depth - 1)))
    if kind in (ForAll, Exists):
        return kind(draw(st.sampled_from(_VARS)), draw(_formulas(depth - 1)))
    return kind(draw(_formulas(depth - 1)), draw(_formulas(depth - 1)))


def _close(f: Formula, universal: tuple[bool, ...]) -> Formula:
    for v, u in zip(sorted(free_vars(f), key=lambda v: v.name), universal):
        f = (ForAll if u else Exists)(v, f)
    return f


_closed = st.builds(_close, _formulas(), st.tuples(st.booleans(), st.booleans(), st.booleans()))


def _outcome(convert, f, start, max_clauses):
    namer = SkolemNamer(start)
    try:
        got = _strs(convert(f, namer, max_clauses))
    except CnfBlowupError as e:
        got = (type(e), str(e))
    return got, namer.next_index


@settings(max_examples=400, deadline=None)
@given(
    _closed,
    st.integers(1, 5),
    st.sampled_from((2, 8)) | st.just(MAX_CLAUSES_PER_FORMULA),
)
def test_to_clauses_matches_reference_pipeline(f, start, max_clauses):
    assert free_vars(f) == _ref_free_vars(f) == set()
    assert _outcome(to_clauses, f, start, max_clauses) == _outcome(
        _ref_to_clauses, f, start, max_clauses
    )


@settings(max_examples=200, deadline=None)
@given(_formulas(), st.integers(1, 5))
def test_open_formula_rejected_before_naming(f, start):
    assert free_vars(f) == _ref_free_vars(f)
    if not free_vars(f):
        return
    namer = SkolemNamer(start)
    with pytest.raises(ValueError):
        to_clauses(f, namer)
    assert namer.next_index == start


# ---------------------------------------------------------------------------
# The clause-form memo: a hit must leave the caller's namer and the clauses
# exactly as compiling the formula anew would.


def test_clause_form_memo_keeps_namer_indices():
    # Someone is kind, and everyone has a kind friend: sk-terms both ways.
    f = And(
        Exists(X, Atom("kind", (X,))),
        ForAll(X, Exists(Var("y"), And(Atom("kind", (Var("y"),)), Atom("p", (X, Var("y")))))),
    )
    cold = {}
    for start in (1, 4):
        _clause_form.cache_clear()
        cold[start] = _outcome(to_clauses, f, start, MAX_CLAUSES_PER_FORMULA)
    assert cold[1][1] == 3 and cold[4][1] == 6 and cold[1][0] != cold[4][0]
    for start in (1, 4, 1, 4):
        assert _outcome(to_clauses, f, start, MAX_CLAUSES_PER_FORMULA) == cold[start]
    # One namer through two compilations in a row, warm and cold alike.
    runs = []
    for clear in (True, False):
        if clear:
            _clause_form.cache_clear()
        namer = SkolemNamer(2)
        runs.append((_strs(to_clauses(f, namer)), _strs(to_clauses(f, namer)), namer.next_index))
    assert runs[0] == runs[1]
    assert runs[0][2] == 6 and runs[0][0] != runs[0][1]


def test_clause_form_memo_without_a_namer_walks_the_formula_once(monkeypatch):
    # Names start after the formula's own sk3; a memo hit finds that start
    # without walking the formula again.
    f = And(Atom("kind", (Const("sk3"),)), Exists(X, Atom("round", (X,))))
    _clause_form.cache_clear()
    cold = _strs(to_clauses(f))
    assert cold == ["kind(sk3)", "round(sk4)"]

    def no_walk(*args):
        pytest.fail("formula walked for sk-names")

    monkeypatch.setattr(normalize, "_formula_consts", no_walk)
    assert _strs(to_clauses(f)) == cold


def test_clause_form_memo_hands_out_fresh_lists():
    f = Atom("kind", (BOB,))
    got = to_clauses(f, SkolemNamer())
    got.append(got[0])
    assert len(to_clauses(f, SkolemNamer())) == 1


def test_repeated_cnf_blowup_advances_the_namer_each_time():
    # Cold, then twice from the memo.
    p = Atom("p", ())
    f = Exists(X, And(And(p, p), Atom("p", (X,))))
    _clause_form.cache_clear()
    for _ in range(3):
        namer = SkolemNamer(1)
        with pytest.raises(CnfBlowupError):
            to_clauses(f, namer, 2)
        assert namer.next_index == 2


def test_clause_form_memo_stays_within_its_bound():
    f = Exists(X, Atom("kind", (X,)))
    _clause_form.cache_clear()
    for start in range(1, _CLAUSE_FORM_CACHE_SIZE + 101):
        namer = SkolemNamer(start)
        assert _strs(to_clauses(f, namer)) == [f"kind(sk{start})"]
        assert namer.next_index == start + 1
    info = _clause_form.cache_info()
    assert info.maxsize == _CLAUSE_FORM_CACHE_SIZE
    assert info.currsize == _CLAUSE_FORM_CACHE_SIZE
    _clause_form.cache_clear()
