import random
from itertools import product

import pytest

from nlprover.logic import (
    MAX_TERM_DEPTH,
    Clause,
    ClauseFormatError,
    Const,
    Func,
    Literal,
    Var,
    canonical_key,
    canonicalize,
    clause_to_str,
    is_tautology,
    parse_clause,
    subst_clause,
    subst_literal,
    unify,
)

BOB = Const("Bob")
X = Var("x")
Y = Var("y")


def lit(positive, pred, *args):
    return Literal(positive, pred, tuple(args))


def test_unify_binds_variable_to_constant():
    assert unify(lit(True, "kind", BOB), lit(True, "kind", X)) == {X: BOB}


def test_unify_identical_atoms_gives_empty_substitution():
    assert unify(lit(True, "kind", BOB), lit(True, "kind", BOB)) == {}


def test_unify_predicate_mismatch_fails():
    assert unify(lit(True, "kind", BOB), lit(True, "round", BOB)) is None


def test_unify_occurs_check_fails():
    assert unify(lit(True, "p", X), lit(True, "p", Func("f", (X,)))) is None


def test_unify_arity_mismatch_fails():
    assert unify(lit(True, "p", X), lit(True, "p", X, Y)) is None


def _random_term(rng, vars_, consts, depth=0):
    roll = rng.random()
    if roll < 0.4:
        return rng.choice(vars_)
    if roll < 0.8 or depth >= 2:
        return rng.choice(consts)
    return Func(rng.choice("fg"), tuple(_random_term(rng, vars_, consts, depth + 1)
                                        for _ in range(rng.randint(1, 2))))


def _random_atom(rng, vars_, consts, preds=("p", "q")):
    pred = rng.choice(preds)
    args = tuple(_random_term(rng, vars_, consts) for _ in range(rng.randint(1, 2)))
    return Literal(True, pred, args)


def test_unification_soundness_on_random_atom_pairs():
    rng = random.Random(11)
    vars_ = [Var("x"), Var("y")]
    consts = [Const("Bob"), Const("Alan")]
    hits = 0
    for _ in range(400):
        a = _random_atom(rng, vars_, consts)
        b = _random_atom(rng, [Var("u"), Var("w")], consts)
        s = unify(a, b)
        if s is not None:
            hits += 1
            assert subst_literal(s, a) == subst_literal(s, b)
    assert hits > 20  # the generator must actually exercise the success path


def test_unification_generality_against_brute_force():
    # For ground b: unify succeeds exactly when some substitution over a
    # small constant pool maps a onto b.
    rng = random.Random(7)
    consts = [Const("Bob"), Const("Alan"), Const("Erin")]
    vars_ = [Var("x"), Var("y")]
    for _ in range(300):
        a = _random_atom(rng, vars_, consts)
        b = Literal(True, rng.choice("pq"),
                    tuple(rng.choice(consts) for _ in range(rng.randint(1, 2))))
        a_vars = sorted({v.name for arg in a.args for v in _vars_of(arg)})
        exists = False
        for combo in product(consts, repeat=len(a_vars)):
            s = {Var(n): c for n, c in zip(a_vars, combo)}
            if subst_literal(s, a) == b:
                exists = True
                break
        assert (unify(a, b) is not None) == exists


def _vars_of(term):
    if isinstance(term, Var):
        yield term
    elif isinstance(term, Func):
        for a in term.args:
            yield from _vars_of(a)


def test_apply_replaces_bound_variables():
    c = Clause((lit(False, "kind", X), lit(True, "rough", X)))
    out = subst_clause({X: BOB}, c)
    assert out.literals == (lit(False, "kind", BOB), lit(True, "rough", BOB))


def test_apply_empty_substitution_is_identity():
    c = Clause((lit(True, "kind", X),))
    assert subst_clause({}, c) == c


def test_apply_keeps_duplicates_until_canonicalized():
    c = Clause((lit(True, "p", X), lit(True, "p", Y)))
    out = subst_clause({X: Y}, c)
    assert out.literals == (lit(True, "p", Y), lit(True, "p", Y))
    assert canonicalize(out).literals == (lit(True, "p", Var("v1")),)


def test_canonicalize_orders_negatives_first_and_renames():
    c = Clause((lit(True, "rough", X), lit(False, "kind", X)))
    assert clause_to_str(canonicalize(c)) == "-kind(v1) | rough(v1)"


def test_canonicalize_deduplicates():
    a = Const("a")
    c = Clause((lit(True, "p", a), lit(True, "p", a)))
    assert canonicalize(c).literals == (lit(True, "p", a),)


def _random_clause(rng):
    vars_ = [Var(n) for n in ("x", "y", "z")]
    consts = [Const("Bob"), Const("Alan")]
    n = rng.randint(0, 4)
    lits = tuple(
        Literal(rng.random() < 0.5, rng.choice("pqr"),
                tuple(_random_term(rng, vars_, consts) for _ in range(rng.randint(1, 2))))
        for _ in range(n)
    )
    return Clause(lits)


def test_canonicalize_is_idempotent_on_random_clauses():
    rng = random.Random(3)
    for _ in range(500):
        c = _random_clause(rng)
        once = canonicalize(c)
        assert canonicalize(once) == once


def test_variants_share_canonical_form():
    rng = random.Random(5)
    for _ in range(300):
        c = _random_clause(rng)
        names = list({v.name for l in c.literals for a in l.args for v in _vars_of(a)})
        ren = {Var(n): Var(f"u{i}") for i, n in enumerate(rng.sample(names, len(names)))}
        renamed = subst_clause(ren, c)
        assert canonical_key(c) == canonical_key(renamed)


def test_clause_serialization_round_trip():
    s = "-kind(v1) | -round(v1) | rough(v1)"
    assert clause_to_str(parse_clause(s)) == s
    assert clause_to_str(parse_clause("[]")) == "[]"
    nested = "p(f(v1,Bob)) | -q(Alan)"
    back = parse_clause(nested)
    assert clause_to_str(canonicalize(back)) == "-q(Alan) | p(f(v1,Bob))"


def _nested(depth):
    return "f(" * depth + "a" + ")" * depth


def test_parse_clause_rejects_garbage():
    # A term nested past MAX_TERM_DEPTH would exhaust the recursion limit in
    # the parser or in unification.
    assert parse_clause(f"p({_nested(MAX_TERM_DEPTH)})").literals[0].args[0].name == "f"
    deep = [f"-q(b) | p({_nested(d)})" for d in (MAX_TERM_DEPTH + 1, 300, 3000)]
    for bad in ("", "kind Bob", "kind(", "p(x))", "|", *deep):
        with pytest.raises(ClauseFormatError):
            parse_clause(bad)


def test_parse_memo_is_bounded_and_never_stores_an_error():
    assert parse_clause.cache_info().maxsize is not None
    parse_clause.cache_clear()
    for bad in ("kind(", f"p({_nested(MAX_TERM_DEPTH + 1)})"):
        for _ in range(3):
            with pytest.raises(ClauseFormatError):
                parse_clause(bad)
    assert parse_clause.cache_info().currsize == 0
    for text in ("-kind(v1) | -round(v1) | rough(v1)", "p(f(v1,Bob)) | -q(Alan)", "[]"):
        first, again = parse_clause(text), parse_clause(text)
        fresh = parse_clause.__wrapped__(text)
        assert again is first
        assert (first.literals, first.id) == (fresh.literals, fresh.id)
    assert parse_clause.cache_info().hits == 3


def test_tautology_detection():
    assert is_tautology(Clause((lit(True, "p", BOB), lit(False, "p", BOB))))
    assert not is_tautology(Clause((lit(True, "p", BOB), lit(False, "p", Const("Alan")))))


def test_empty_clause_prints_as_brackets():
    assert clause_to_str(Clause(())) == "[]"


def test_pickled_terms_and_literals_hash_as_fresh_ones_under_another_hash_seed(tmp_path):
    # Each class keeps its hash from construction; a str hashes differently
    # under another PYTHONHASHSEED, so a pickle must not carry that hash.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import nlprover

    src = str(Path(nlprover.__file__).resolve().parent.parent)
    values = (
        "(Var('x'), Const('Bob'), Func('f', (Var('x'), Const('a'))),"
        " Literal(False, 'kind', (Func('f', (Var('x'),)), Const('Bob'))))"
    )
    prelude = f"import pickle, sys; sys.path.insert(0, {src!r}); from nlprover.logic import *; "
    dump = prelude + f"sys.stdout.buffer.write(pickle.dumps({values}))"
    load = prelude + (
        f"old = pickle.loads(sys.stdin.buffer.read()); new = {values}; "
        "print(all(a == b and hash(a) == hash(b) and a in {b} for a, b in zip(old, new)))"
    )

    def python(code, seed, data=None):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        proc = subprocess.run(
            [sys.executable, "-c", code], input=data, capture_output=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    assert python(load, "2", python(dump, "1")).strip() == b"True"
