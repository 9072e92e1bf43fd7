"""Template English in and out of clause form.

The grammar is a small LL(1) fragment over a fixed lexicon:

    fact          := Name "is" ["not"] Adj "."
    rel_fact      := Name Verb Name "."              (if relations enabled)
    rule          := AdjList "people are" ["not"] Adj "."
                   | "If someone is" Adj {"and" Adj} "then they are" ["not"] Adj "."
    univ_clause   := "Everyone is" Lit {"or" Lit} "."
    ground_clause := Name "is" Lit {"or" Lit} "."
    exist_fact    := "Someone is" ["not"] Adj "."

Function words are case-insensitive; entity names are capitalized and
attributes lower-case. Sk-constants read and print as "person sk1" style
pseudo-entities, so every clause the engine produces in the monadic
fragment round-trips through its rendered sentence.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Optional

from .logic import (
    SK_NAME, VAR_NAME, Clause, Const, Literal, Var, canonicalize, clause_consts, clause_vars
)
from .normalize import And, Atom, Exists, ForAll, Formula, Implies, Not, Or, negate

RESERVED_WORDS = {
    "is", "not", "or", "and", "are", "people", "if", "then", "they",
    "everyone", "someone", "person",
}


class ParseError(ValueError):
    """Sentence deviates from the grammar. `position` is a character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"parse_error at {position}: {message}")
        self.message = message
        self.position = position

    def __reduce__(self):  # keep picklable across worker processes
        return type(self), (self.message, self.position)


class UnknownWordError(ParseError):
    def __init__(self, token: str, position: int):
        ValueError.__init__(self, f"unknown_word at {position}: {token!r}")
        self.position = position
        self.token = token

    def __reduce__(self):
        return type(self), (self.token, self.position)


class UnrealizableError(ValueError):
    """Clause does not fit any sentence template."""


@dataclass(frozen=True)
class Lexicon:
    """Content vocabulary: proper names, unary-predicate adjectives and,
    optionally, binary-predicate verbs."""

    entities: tuple[str, ...]
    attributes: tuple[str, ...]
    relations: tuple[str, ...] = ()

    def __post_init__(self):
        lowered = [w.lower() for w in (*self.entities, *self.attributes, *self.relations)]
        if len(set(lowered)) != len(lowered):
            raise ValueError("lexicon names must be unique across sections")
        for w in lowered:
            if w in RESERVED_WORDS or SK_NAME.match(w) or VAR_NAME.match(w):
                raise ValueError(f"reserved or ambiguous lexicon name: {w!r}")

    @cached_property
    def entity_by_lower(self) -> dict[str, str]:
        return {e.lower(): e for e in self.entities}

    @cached_property
    def attribute_set(self) -> frozenset[str]:
        return frozenset(a.lower() for a in self.attributes)

    @cached_property
    def relation_by_lower(self) -> dict[str, str]:
        return {r.lower(): r for r in self.relations}


DEFAULT_LEXICON = Lexicon(
    entities=("Bob", "Alan", "Erin", "Gary"),
    attributes=("kind", "round", "rough", "tall", "happy", "big", "blue", "green"),
)


def read_utf8(path) -> str:
    """The text of a UTF-8 file, whatever the locale. Raises OSError when it
    cannot be read, and ValueError naming the path when it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: {e}") from e


def load_lexicon(path) -> Lexicon:
    """Line-oriented lexicon file with [entities], [attributes], [relations]
    sections; blank lines and #-comments ignored."""
    sections: dict[str, list[str]] = {"entities": [], "attributes": [], "relations": []}
    current: Optional[str] = None
    for raw in read_utf8(path).splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = re.fullmatch(r"\[(\w+)\]", line)
        if m:
            name = m.group(1).lower()
            if name not in sections:
                raise ValueError(f"unknown lexicon section [{name}]")
            current = name
            continue
        if current is None:
            raise ValueError(f"lexicon entry {line!r} before any section header")
        sections[current].append(line)
    return Lexicon(
        entities=tuple(sections["entities"]),
        attributes=tuple(sections["attributes"]),
        relations=tuple(sections["relations"]),
    )


KIND_FACT = "fact"
KIND_RULE = "rule"
KIND_DISJUNCTIVE_RULE = "disjunctive_rule"
KIND_EXISTENTIAL_FACT = "existential_fact"


@dataclass(frozen=True)
class Sentence:
    text: str
    formula: Formula
    kind: str


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*|,")


class _Parser:
    def __init__(self, text: str, lex: Lexicon):
        self.text = text
        self.lex = lex
        if not text.endswith("."):
            raise ParseError("sentence must end with '.'", len(text))
        self.tokens = [(m.group(0), m.start()) for m in _TOKEN_RE.finditer(text[:-1])]
        self.pos = 0

    def peek(self) -> Optional[str]:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def peek_lower(self) -> Optional[str]:
        t = self.peek()
        return t.lower() if t is not None else None

    def here(self) -> int:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][1]
        return len(self.text) - 1

    def take(self) -> str:
        if self.pos >= len(self.tokens):
            raise ParseError("unexpected end of sentence", self.here())
        tok = self.tokens[self.pos][0]
        self.pos += 1
        return tok

    def expect(self, word: str):
        at = self.here()
        tok = self.take()
        if tok.lower() != word:
            raise ParseError(f"expected {word!r}, got {tok!r}", at)

    def end(self):
        if self.pos != len(self.tokens):
            raise ParseError(f"trailing words from {self.peek()!r}", self.here())

    def adjective(self) -> str:
        at = self.here()
        tok = self.take()
        low = tok.lower()
        if low in self.lex.attribute_set:
            return low
        raise UnknownWordError(tok, at)

    def subject(self) -> Const:
        at = self.here()
        tok = self.take()
        if tok.lower() == "person":
            sk_at = self.here()
            sk = self.take().lower()
            if not SK_NAME.match(sk):
                raise ParseError(f"expected sk-name after 'person', got {sk!r}", sk_at)
            return Const(sk)
        name = self.lex.entity_by_lower.get(tok.lower())
        if name is None:
            raise UnknownWordError(tok, at)
        return Const(name)

    def lit(self, subject) -> Formula:
        neg = False
        if self.peek_lower() == "not":
            self.take()
            neg = True
        atom = Atom(self.adjective(), (subject,))
        return Not(atom) if neg else atom

    def lit_list(self, subject) -> Formula:
        out = self.lit(subject)
        while self.peek_lower() == "or":
            self.take()
            out = Or(out, self.lit(subject))
        return out

    def sentence(self) -> Sentence:
        first = self.peek_lower()
        if first is None:
            raise ParseError("empty sentence", 0)
        if first == "everyone":
            self.take()
            self.expect("is")
            x = Var("x")
            body = self.lit_list(x)
            self.end()
            return Sentence(self.text, ForAll(x, body), KIND_DISJUNCTIVE_RULE)
        if first == "someone":
            self.take()
            self.expect("is")
            x = Var("x")
            body = self.lit(x)
            self.end()
            return Sentence(self.text, Exists(x, body), KIND_EXISTENTIAL_FACT)
        if first == "if":
            return self._if_rule()
        if first == "person" or first.lower() in self.lex.entity_by_lower:
            return self._subject_sentence()
        if first in self.lex.attribute_set:
            return self._adjlist_rule()
        raise UnknownWordError(self.peek(), self.here())

    def _subject_sentence(self) -> Sentence:
        subj = self.subject()
        nxt = self.peek_lower()
        if nxt != "is" and nxt in self.lex.relation_by_lower:
            verb = self.lex.relation_by_lower[self.take().lower()]
            obj = self.subject()
            self.end()
            return Sentence(self.text, Atom(verb, (subj, obj)), KIND_FACT)
        if nxt is not None and nxt != "is" and nxt not in RESERVED_WORDS:
            raise UnknownWordError(self.peek(), self.here())
        self.expect("is")
        body = self.lit_list(subj)
        self.end()
        kind = KIND_FACT if isinstance(body, (Atom, Not)) else KIND_DISJUNCTIVE_RULE
        return Sentence(self.text, body, kind)

    def _if_rule(self) -> Sentence:
        self.expect("if")
        self.expect("someone")
        self.expect("is")
        x = Var("x")
        body = Atom(self.adjective(), (x,))
        while self.peek_lower() == "and":
            self.take()
            body = And(body, Atom(self.adjective(), (x,)))
        self.expect("then")
        self.expect("they")
        self.expect("are")
        head = self.lit(x)
        self.end()
        return Sentence(self.text, ForAll(x, Implies(body, head)), KIND_RULE)

    def _adjlist_rule(self) -> Sentence:
        x = Var("x")
        body = Atom(self.adjective(), (x,))
        while self.peek() == ",":
            self.take()
            body = And(body, Atom(self.adjective(), (x,)))
        self.expect("people")
        self.expect("are")
        head = self.lit(x)
        self.end()
        return Sentence(self.text, ForAll(x, Implies(body, head)), KIND_RULE)


# Bound on the parse memo (about 900 bytes an entry). A generated stream or
# an instance pool repeats a few thousand distinct sentences.
_SENTENCE_CACHE_SIZE = 1 << 14


def to_sentence(text: str, lex: Lexicon = DEFAULT_LEXICON) -> Sentence:
    """The parse of one template sentence. Lexicon and Sentence are frozen,
    so a text is parsed once per lexicon and its Sentence shared; a
    ParseError is raised on every call and never stored."""
    return _parse(text, lex)


@lru_cache(maxsize=_SENTENCE_CACHE_SIZE)
def _parse(text: str, lex: Lexicon) -> Sentence:
    return _Parser(text, lex).sentence()


def parse_sentence(text: str, lex: Lexicon = DEFAULT_LEXICON) -> Formula:
    """Deterministic parse of one template sentence into a closed formula."""
    return to_sentence(text, lex).formula


# ---------------------------------------------------------------------------
# Realization


def _adj_of(lit: Literal, lex: Lexicon) -> str:
    if lit.pred not in lex.attribute_set:
        raise UnrealizableError(f"unrealizable: predicate {lit.pred!r} not in lexicon")
    return lit.pred


def _lit_phrase(lit: Literal, lex: Lexicon) -> str:
    return ("" if lit.positive else "not ") + _adj_of(lit, lex)


def _subject_phrase(c: Const, lex: Lexicon) -> str:
    if SK_NAME.match(c.name):
        return f"person {c.name}"
    if c.name.lower() in lex.entity_by_lower:
        return lex.entity_by_lower[c.name.lower()]
    raise UnrealizableError(f"unrealizable: unknown entity {c.name!r}")


def realize_clause(c: Clause, lex: Lexicon = DEFAULT_LEXICON) -> str:
    """Render a clause as one template sentence; the empty clause renders as
    the empty string. Literal order follows the canonical form."""
    c = canonicalize(c)
    if c.is_empty:
        return ""
    if any(len(l.args) == 2 for l in c.literals):
        if len(c.literals) == 1 and c.literals[0].positive and lex.relations:
            lit = c.literals[0]
            a, b = lit.args
            if (
                isinstance(a, Const)
                and isinstance(b, Const)
                and lit.pred in lex.relation_by_lower
            ):
                return f"{_subject_phrase(a, lex)} {lit.pred} {_subject_phrase(b, lex)}."
        raise UnrealizableError("unrealizable: no template for this relational clause")
    if any(len(l.args) != 1 for l in c.literals):
        raise UnrealizableError("unrealizable: only unary and binary predicates have templates")
    vs = clause_vars(c)
    consts = clause_consts(c)
    if vs and consts:
        raise UnrealizableError("unrealizable: clause mixes variables and entities")
    if len(vs) > 1:
        raise UnrealizableError("unrealizable: clause has several distinct variables")
    if len(consts) > 1:
        raise UnrealizableError("unrealizable: clause mentions several entities")
    body = " or ".join(_lit_phrase(l, lex) for l in c.literals)
    if vs:
        return f"Everyone is {body}."
    return f"{_subject_phrase(consts[0], lex)} is {body}."


def _flatten_or(f: Formula) -> list[Formula]:
    if isinstance(f, Or):
        return _flatten_or(f.a) + _flatten_or(f.b)
    return [f]


def _as_literal(f: Formula) -> Literal:
    if isinstance(f, Atom):
        return Literal(True, f.pred, f.args)
    if isinstance(f, Not) and isinstance(f.f, Atom):
        return Literal(False, f.f.pred, f.f.args)
    raise UnrealizableError("unrealizable: not a literal")


def negate_sentence(text: str, lex: Lexicon = DEFAULT_LEXICON) -> str:
    """Textual negation via the logic: parse, negate, render back.

    Works for facts, existential facts and single-literal universal
    sentences; anything whose negation leaves the template fragment raises
    UnrealizableError. The negation is a ground clause, a universal clause
    or a single-literal existential ("Someone is ...").
    """
    f = negate(parse_sentence(text, lex))
    if isinstance(f, Exists):
        lit = _as_literal(f.body)
        if lit.args != (f.var,):
            raise UnrealizableError("unrealizable: existential over a complex body")
        return f"Someone is {_lit_phrase(lit, lex)}."
    if isinstance(f, ForAll):
        lits = [_as_literal(g) for g in _flatten_or(f.body)]
        if any(l.args != (f.var,) for l in lits):
            raise UnrealizableError("unrealizable: universal over a complex body")
        clause = Clause(tuple(Literal(l.positive, l.pred, (Var("x"),)) for l in lits))
        return realize_clause(clause, lex)
    lits = [_as_literal(g) for g in _flatten_or(f)]
    return realize_clause(Clause(tuple(lits)), lex)
