import random

import pytest

from nlprover.language import (
    DEFAULT_LEXICON,
    KIND_DISJUNCTIVE_RULE,
    KIND_EXISTENTIAL_FACT,
    KIND_FACT,
    KIND_RULE,
    Lexicon,
    ParseError,
    UnknownWordError,
    UnrealizableError,
    load_lexicon,
    negate_sentence,
    parse_sentence,
    realize_clause,
    to_sentence,
)
from nlprover.logic import (
    Clause,
    Const,
    Literal,
    Var,
    canonical_key,
    clause_to_str,
)
from nlprover.normalize import (
    And,
    Atom,
    Exists,
    ForAll,
    Implies,
    Not,
    Or,
    SkolemNamer,
    to_clauses,
)

LEX = DEFAULT_LEXICON
X = Var("x")
BOB = Const("Bob")


def clause_of(text, lex=LEX):
    cls = to_clauses(parse_sentence(text, lex), SkolemNamer())
    assert len(cls) == 1
    return cls[0]


def test_parse_simple_fact():
    assert parse_sentence("Bob is kind.", LEX) == Atom("kind", (BOB,))


def test_parse_comma_rule():
    f = parse_sentence("Round, kind people are rough.", LEX)
    assert f == ForAll(X, Implies(And(Atom("round", (X,)), Atom("kind", (X,))), Atom("rough", (X,))))


def test_parse_universal_clause_sentence():
    f = parse_sentence("Everyone is not kind or not round or rough.", LEX)
    expected = ForAll(
        X, Or(Or(Not(Atom("kind", (X,))), Not(Atom("round", (X,)))), Atom("rough", (X,)))
    )
    assert f == expected


def test_parse_ground_disjunction():
    f = parse_sentence("Bob is not round or rough.", LEX)
    assert f == Or(Not(Atom("round", (BOB,))), Atom("rough", (BOB,)))


def test_parse_if_rule_matches_comma_rule():
    a = parse_sentence("If someone is round and kind then they are rough.", LEX)
    b = parse_sentence("Round, kind people are rough.", LEX)
    assert a == b


def test_parse_existential():
    assert parse_sentence("Someone is kind.", LEX) == Exists(X, Atom("kind", (X,)))


def test_parse_negated_head_rule():
    f = parse_sentence("Kind people are not rough.", LEX)
    assert f == ForAll(X, Implies(Atom("kind", (X,)), Not(Atom("rough", (X,)))))


def test_sentence_kinds():
    assert to_sentence("Bob is kind.", LEX).kind == KIND_FACT
    assert to_sentence("Bob is not round or rough.", LEX).kind == KIND_DISJUNCTIVE_RULE
    assert to_sentence("Everyone is round.", LEX).kind == KIND_DISJUNCTIVE_RULE
    assert to_sentence("Round, kind people are rough.", LEX).kind == KIND_RULE
    assert to_sentence("Someone is not tall.", LEX).kind == KIND_EXISTENTIAL_FACT


def test_parse_is_case_insensitive_on_function_words():
    assert parse_sentence("bob IS kind.", LEX) == Atom("kind", (BOB,))
    assert parse_sentence("EVERYONE is round.", LEX) == ForAll(X, Atom("round", (X,)))


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as e:
        parse_sentence("Bob kind.", LEX)
    assert e.value.position == 4


def test_unknown_word_named_in_error():
    with pytest.raises(UnknownWordError) as e:
        parse_sentence("Bob is zippy.", LEX)
    assert e.value.token == "zippy"


def test_missing_final_period_rejected():
    with pytest.raises(ParseError):
        parse_sentence("Bob is kind", LEX)


def test_parse_memo_shares_sentences_and_never_stores_errors():
    from nlprover.language import _parse

    first = to_sentence("Bob is kind.", LEX)
    assert to_sentence("Bob is kind.", LEX) is first
    # An equal lexicon is the same key; another lexicon parses afresh.
    assert to_sentence("Bob is kind.", Lexicon(LEX.entities, LEX.attributes)) is first
    other = Lexicon(("Bob",), ("kind",))
    assert to_sentence("Bob is kind.", other) == first
    _parse.cache_clear()
    for _ in range(2):
        with pytest.raises(UnknownWordError):
            to_sentence("Bob is zippy.", LEX)
    assert _parse.cache_info().currsize == 0


def test_parse_memo_stays_within_its_bound():
    from nlprover.language import _SENTENCE_CACHE_SIZE, _parse

    _parse.cache_clear()
    for i in range(_SENTENCE_CACHE_SIZE + 100):
        assert to_sentence(f"person sk{i} is kind.", LEX).formula == Atom("kind", (Const(f"sk{i}"),))
    info = _parse.cache_info()
    assert info.maxsize == _SENTENCE_CACHE_SIZE
    assert info.currsize == _SENTENCE_CACHE_SIZE
    _parse.cache_clear()


def test_realize_empty_clause_is_empty_string():
    assert realize_clause(Clause(()), LEX) == ""


def test_realize_ground_disjunction():
    c = Clause((Literal(False, "round", (BOB,)), Literal(True, "rough", (BOB,))))
    assert realize_clause(c, LEX) == "Bob is not round or rough."


def test_realize_universal_clause():
    c = Clause(
        (
            Literal(False, "kind", (X,)),
            Literal(False, "round", (X,)),
            Literal(True, "rough", (X,)),
        )
    )
    assert realize_clause(c, LEX) == "Everyone is not kind or not round or rough."


def test_realize_follows_canonical_order():
    c = Clause((Literal(True, "rough", (BOB,)), Literal(False, "kind", (BOB,))))
    assert realize_clause(c, LEX) == "Bob is not kind or rough."


def test_realize_sk_constant_as_pseudo_entity():
    c = Clause((Literal(True, "kind", (Const("sk1"),)),))
    assert realize_clause(c, LEX) == "person sk1 is kind."
    assert clause_to_str(clause_of("person sk1 is kind.")) == "kind(sk1)"


def test_realize_rejects_mixed_entities():
    c = Clause((Literal(True, "kind", (BOB,)), Literal(True, "rough", (Const("Alan"),))))
    with pytest.raises(UnrealizableError):
        realize_clause(c, LEX)


def test_realize_rejects_mixed_variable_and_entity():
    c = Clause((Literal(True, "kind", (X,)), Literal(True, "rough", (BOB,))))
    with pytest.raises(UnrealizableError):
        realize_clause(c, LEX)


def test_negate_sentence_examples():
    assert negate_sentence("Bob is not kind.", LEX) == "Bob is kind."
    assert negate_sentence("Bob is kind.", LEX) == "Bob is not kind."
    assert negate_sentence("Everyone is round.", LEX) == "Someone is not round."
    assert negate_sentence("Someone is kind.", LEX) == "Everyone is not kind."


def test_negate_sentence_rejects_disjunctions():
    with pytest.raises(UnrealizableError):
        negate_sentence("Bob is not round or rough.", LEX)


def _random_template_clause(rng, lex):
    attrs = list(lex.attributes)
    shape = rng.choice(("ground", "universal", "sk"))
    n = rng.randint(1, 3)
    picked = rng.sample(attrs, n)
    if shape == "universal":
        subject = Var("x")
    elif shape == "sk":
        subject = Const(f"sk{rng.randint(1, 5)}")
    else:
        subject = Const(rng.choice(lex.entities))
    lits = tuple(Literal(rng.random() < 0.5, a, (subject,)) for a in picked)
    return Clause(lits)


def test_round_trip_on_template_reach_clauses():
    rng = random.Random(9)
    for _ in range(400):
        c = _random_template_clause(rng, LEX)
        text = realize_clause(c, LEX)
        back = clause_of(text)
        assert canonical_key(back) == canonical_key(c), (text, c)


def test_parse_determinism():
    a = parse_sentence("Round, kind people are rough.", LEX)
    b = parse_sentence("Round, kind people are rough.", LEX)
    assert a == b


def test_relations_behind_lexicon_flag():
    lex = Lexicon(entities=("Bob", "Alan"), attributes=("kind",), relations=("likes",))
    f = parse_sentence("Bob likes Alan.", lex)
    assert f == Atom("likes", (BOB, Const("Alan")))
    c = Clause((Literal(True, "likes", (BOB, Const("Alan"))),))
    assert realize_clause(c, lex) == "Bob likes Alan."
    with pytest.raises(UnrealizableError):
        realize_clause(Clause((Literal(False, "likes", (BOB, Const("Alan"))),)), lex)
    # relations disabled: the verb is just an unknown word
    with pytest.raises(UnknownWordError):
        parse_sentence("Bob likes Alan.", LEX)


def test_lexicon_rejects_reserved_and_duplicate_names():
    with pytest.raises(ValueError):
        Lexicon(entities=("Bob",), attributes=("not",))
    with pytest.raises(ValueError):
        Lexicon(entities=("Bob",), attributes=("bob",))
    with pytest.raises(ValueError):
        Lexicon(entities=("sk1",), attributes=("kind",))


def test_lexicon_file_round_trip(tmp_path):
    p = tmp_path / "lex.txt"
    p.write_text(
        "# test lexicon\n[entities]\nBob\nAlan\n\n[attributes]\nkind\nround\n[relations]\nlikes\n"
    )
    lex = load_lexicon(p)
    assert lex.entities == ("Bob", "Alan")
    assert lex.attributes == ("kind", "round")
    assert lex.relations == ("likes",)
