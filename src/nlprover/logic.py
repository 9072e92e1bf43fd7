"""First-order terms, literals and clauses, with substitution, unification
and canonical forms.

All values are immutable after construction and safe to share between
concurrent tasks. A Clause is a plain carrier of literals; `canonicalize`
produces the normal form used everywhere for duplicate and variant
detection (literals deduplicated and sorted, variables renamed v1, v2, ...).

The textual clause format is fixed: literals joined by " | ", negative
literals prefixed "-", terms in prefix form, e.g.
"-kind(v1) | -round(v1) | rough(v1)". The empty clause prints as "[]".
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from typing import Iterator, Optional, Union


# Terms and literals key every memo, index and seen-set of the search, so
# each computes its hash once, at construction: the hash the dataclass would
# compute, from the fields that take part in equality. The hash of a str
# differs between interpreters, so a pickle carries the fields alone and the
# hash is computed again where it is loaded.
@dataclass(frozen=True, slots=True)
class Var:
    name: str
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "name", sys.intern(self.name))
        object.__setattr__(self, "_hash", hash((self.name,)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Var, (self.name,)

    def __repr__(self):
        return f"Var({self.name})"


@dataclass(frozen=True, slots=True)
class Const:
    name: str
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "name", sys.intern(self.name))
        object.__setattr__(self, "_hash", hash((self.name,)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Const, (self.name,)

    def __repr__(self):
        return f"Const({self.name})"


@dataclass(frozen=True, slots=True)
class Func:
    """Function application. Unused by the default grammar (which only emits
    constants) but required so that Skolemizing an existential under a
    universal stays expressible."""

    name: str
    args: tuple["Term", ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "name", sys.intern(self.name))
        object.__setattr__(self, "_hash", hash((self.name, self.args)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Func, (self.name, self.args)

    def __repr__(self):
        return f"Func({self.name}, {self.args!r})"


Term = Union[Var, Const, Func]


@dataclass(frozen=True, slots=True)
class Literal:
    positive: bool
    pred: str
    args: tuple[Term, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "pred", sys.intern(self.pred))
        object.__setattr__(self, "_hash", hash((self.positive, self.pred, self.args)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Literal, (self.positive, self.pred, self.args)

    def __repr__(self):
        return f"Literal({literal_to_str(self)})"


@dataclass(frozen=True, eq=False, slots=True)
class Clause:
    """A disjunction of literals; zero literals means contradiction.

    Equality and hashing ignore `id` so that two derivations of the same
    literal tuple compare equal.
    """

    literals: tuple[Literal, ...]
    id: Optional[int] = None

    @property
    def is_empty(self) -> bool:
        return not self.literals

    def __eq__(self, other):
        return isinstance(other, Clause) and self.literals == other.literals

    def __hash__(self):
        return hash(self.literals)

    def __repr__(self):
        return f"Clause({clause_to_str(self)})"


# ---------------------------------------------------------------------------
# Variable and constant traversal


def term_vars(t: Term) -> Iterator[Var]:
    if isinstance(t, Var):
        yield t
    elif isinstance(t, Func):
        for a in t.args:
            yield from term_vars(a)


def term_consts(t: Term) -> Iterator[Const]:
    if isinstance(t, Const):
        yield t
    elif isinstance(t, Func):
        for a in t.args:
            yield from term_consts(a)


def clause_vars(c: Clause) -> list[Var]:
    """Distinct variables in first-occurrence order."""
    seen: dict[Var, None] = {}
    for lit in c.literals:
        for a in lit.args:
            for v in term_vars(a):
                seen.setdefault(v)
    return list(seen)


def clause_consts(c: Clause) -> list[Const]:
    seen: dict[Const, None] = {}
    for lit in c.literals:
        for a in lit.args:
            for k in term_consts(a):
                seen.setdefault(k)
    return list(seen)


# ---------------------------------------------------------------------------
# Substitution (a plain dict from Var to Term, kept in solved form)

Subst = dict


def subst_term(s: Subst, t: Term) -> Term:
    if isinstance(t, Var):
        return s.get(t, t)
    if isinstance(t, Func):
        return Func(t.name, tuple(subst_term(s, a) for a in t.args))
    return t


def subst_literal(s: Subst, lit: Literal) -> Literal:
    return Literal(lit.positive, lit.pred, tuple(subst_term(s, a) for a in lit.args))


def subst_clause(s: Subst, c: Clause) -> Clause:
    """Apply a substitution to every literal. Duplicate literals produced by
    the substitution are kept; collapsing them is canonicalize's job."""
    return Clause(tuple(subst_literal(s, lit) for lit in c.literals), c.id)


def occurs_in(v: Var, t: Term) -> bool:
    if v == t:
        return True
    if isinstance(t, Func):
        return any(occurs_in(v, a) for a in t.args)
    return False


def unify_terms(t1: Term, t2: Term, s: Optional[Subst] = None) -> Optional[Subst]:
    """Extend substitution s to unify t1 with t2, or return None.

    The result is kept in solved (idempotent) form: new bindings are
    substituted into the ranges of existing ones.
    """
    if s is None:
        s = {}
    t1 = subst_term(s, t1)
    t2 = subst_term(s, t2)
    if t1 == t2:
        return s
    if isinstance(t1, Var):
        if occurs_in(t1, t2):
            return None
        one = {t1: t2}
        s = {v: subst_term(one, u) for v, u in s.items()}
        s[t1] = t2
        return s
    if isinstance(t2, Var):
        return unify_terms(t2, t1, s)
    if isinstance(t1, Func) and isinstance(t2, Func):
        if t1.name != t2.name or len(t1.args) != len(t2.args):
            return None
        for a1, a2 in zip(t1.args, t2.args):
            s = unify_terms(a1, a2, s)
            if s is None:
                return None
        return s
    return None  # distinct constants, or constant vs function


def unify(a: Literal, b: Literal) -> Optional[Subst]:
    """Most general unifier of the atoms of a and b (polarity is ignored).

    Returns None on predicate mismatch, arity mismatch or occurs-check
    failure. Callers must have renamed the two literals apart.
    """
    if a.pred != b.pred or len(a.args) != len(b.args):
        return None
    s: Optional[Subst] = {}
    for t1, t2 in zip(a.args, b.args):
        s = unify_terms(t1, t2, s)
        if s is None:
            return None
    return s


def _match_term(p: Term, t: Term, theta: Subst) -> bool:
    """Extend theta in place so that p under theta is t, binding only
    variables of p: the variables of t are held fixed."""
    if isinstance(p, Var):
        bound = theta.setdefault(p, t)
        return bound is t or bound == t
    if isinstance(p, Const):
        return p == t
    return (
        isinstance(t, Func)
        and p.name == t.name
        and len(p.args) == len(t.args)
        and all(_match_term(a, b, theta) for a, b in zip(p.args, t.args))
    )


def _match_literals(ps, k: int, ts, used: int, theta: Subst) -> bool:
    # Match ps[k:] against the literals of ts whose bits in `used` are clear.
    if k == len(ps):
        return True
    p = ps[k]
    for j, t in enumerate(ts):
        if used >> j & 1 or t.positive != p.positive or t.pred != p.pred:
            continue
        th = dict(theta)
        if len(t.args) == len(p.args) and all(
            _match_term(a, b, th) for a, b in zip(p.args, t.args)
        ):
            if _match_literals(ps, k + 1, ts, used | 1 << j, th):
                return True
    return False


def subsumes(s: Clause, c: Clause) -> bool:
    """Whether s subsumes c: some substitution of s's variables alone maps
    each literal of s to a different literal of c (one-way multiset
    matching). So p(v1) | p(v2) does not subsume p(v1), its factor."""
    return len(s.literals) <= len(c.literals) and _match_literals(
        s.literals, 0, c.literals, 0, {}
    )


# ---------------------------------------------------------------------------
# Ordering and canonical forms


def _term_key(t: Term):
    if isinstance(t, Var):
        return (0, t.name)
    if isinstance(t, Const):
        return (1, t.name)
    return (2, t.name, tuple(_term_key(a) for a in t.args))


def _term_key_abstract(t: Term):
    # Variables indistinguishable: used to sort before renaming.
    if isinstance(t, Var):
        return (0,)
    if isinstance(t, Const):
        return (1, t.name)
    return (2, t.name, tuple(_term_key_abstract(a) for a in t.args))


def literal_key(lit: Literal):
    """Total order on literals: negative before positive, then predicate
    name, then argument structure."""
    return (
        0 if not lit.positive else 1,
        lit.pred,
        tuple(_term_key(a) for a in lit.args),
    )


def _literal_key_abstract(lit: Literal):
    return (
        0 if not lit.positive else 1,
        lit.pred,
        tuple(_term_key_abstract(a) for a in lit.args),
    )


_MAX_PERMUTED_VARS = 6

# Bound on the canonical-form cache (about 600 bytes an entry): room for the
# clauses of a large saturation and of many small judgments besides.
_CANONICAL_CACHE_SIZE = 1 << 15


@lru_cache(maxsize=_CANONICAL_CACHE_SIZE)
def _canonical_literals(literals: tuple[Literal, ...]) -> tuple[Literal, ...]:
    lits = tuple(dict.fromkeys(literals))
    seen: dict[Var, None] = {}
    for lit in lits:
        for a in lit.args:
            for v in term_vars(a):
                seen.setdefault(v)
    vs = list(seen)
    if not vs:
        return tuple(sorted(lits, key=literal_key))
    if len(vs) <= _MAX_PERMUTED_VARS:
        # Smallest sorted form over all renamings: true variant invariance.
        best = None
        best_key = None
        for perm in permutations(range(1, len(vs) + 1)):
            ren = {v: Var(f"v{i}") for v, i in zip(vs, perm)}
            cand = tuple(
                sorted(dict.fromkeys(subst_literal(ren, l) for l in lits), key=literal_key)
            )
            key = tuple(literal_key(l) for l in cand)
            if best_key is None or key < best_key:
                best, best_key = cand, key
        assert best is not None
        return best
    # Fallback for absurdly wide clauses: rename by first occurrence in the
    # variable-blind sort order, iterated to a fixpoint so the result is
    # idempotent. Deterministic, but not fully variant-invariant.
    current = tuple(lits)
    for _ in range(8):
        ordered = sorted(current, key=_literal_key_abstract)
        ren: dict[Var, Var] = {}
        for lit in ordered:
            for a in lit.args:
                for v in term_vars(a):
                    if v not in ren:
                        ren[v] = Var(f"v{len(ren) + 1}")
        renamed = tuple(
            sorted(dict.fromkeys(subst_literal(ren, l) for l in ordered), key=literal_key)
        )
        if renamed == current:
            break
        current = renamed
    return current


def canonicalize(c: Clause) -> Clause:
    """Deduplicate and sort literals, renaming variables to v1, v2, ... so
    that two clauses are variants iff their canonical forms are identical."""
    return Clause(_canonical_literals(c.literals), c.id)


def canonical_key(c: Clause) -> tuple[Literal, ...]:
    return _canonical_literals(c.literals)


def is_tautology(c: Clause) -> bool:
    pos = {(l.pred, l.args) for l in c.literals if l.positive}
    return any((l.pred, l.args) in pos for l in c.literals if not l.positive)


# ---------------------------------------------------------------------------
# Textual form


def term_to_str(t: Term) -> str:
    if isinstance(t, Func):
        return f"{t.name}({','.join(term_to_str(a) for a in t.args)})"
    return t.name


def literal_to_str(lit: Literal) -> str:
    sign = "" if lit.positive else "-"
    return f"{sign}{lit.pred}({','.join(term_to_str(a) for a in lit.args)})"


def clause_to_str(c: Clause) -> str:
    if c.is_empty:
        return "[]"
    return " | ".join(literal_to_str(l) for l in c.literals)


class ClauseFormatError(ValueError):
    """Raised when a clause string does not follow the textual format."""


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# Variable (v1, v2, ...) and Skolem (sk1, sk2, ...) names; no word may take either form.
VAR_NAME = re.compile(r"v\d+\Z")
SK_NAME = re.compile(r"sk(\d+)\Z")


def _split_args(s: str) -> list[str]:
    if not s:
        return []
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ClauseFormatError(f"unbalanced parentheses in {s!r}")
        elif ch == "," and depth == 0:
            parts.append(s[start:i])
            start = i + 1
    if depth != 0:
        raise ClauseFormatError(f"unbalanced parentheses in {s!r}")
    parts.append(s[start:])
    return parts


# Most function applications a clause text may nest in one argument. The
# grammar's terms nest one deep (a Skolem function of a variable), and a
# derivation nests them only a few deeper; a few hundred deep would exhaust
# the interpreter's recursion limit in parsing or unification.
MAX_TERM_DEPTH = 64

# Bound on the clause-text memo (a clause and its text, well under 1 KB an
# entry): room for every premise and conclusion of many proofs.
_PARSE_CACHE_SIZE = 1 << 14


def _parse_term(s: str, depth: int) -> Term:
    s = s.strip()
    m = _NAME_RE.match(s)
    if not m:
        raise ClauseFormatError(f"bad term {s!r}")
    name = m.group(0)
    rest = s[m.end():]
    if not rest:
        return Var(name) if VAR_NAME.match(name) else Const(name)
    if not (rest.startswith("(") and rest.endswith(")")):
        raise ClauseFormatError(f"bad term {s!r}")
    if depth >= MAX_TERM_DEPTH:
        raise ClauseFormatError(f"term nested deeper than {MAX_TERM_DEPTH}: {s[:40]!r}")
    args = tuple(_parse_term(a, depth + 1) for a in _split_args(rest[1:-1]))
    return Func(name, args)


def _parse_literal(s: str) -> Literal:
    s = s.strip()
    positive = True
    if s.startswith("-"):
        positive = False
        s = s[1:].strip()
    m = _NAME_RE.match(s)
    if not m or not s[m.end():].startswith("(") or not s.endswith(")"):
        raise ClauseFormatError(f"bad literal {s!r}")
    pred = m.group(0)
    inner = s[m.end() + 1 : -1]
    args = tuple(_parse_term(a, 0) for a in _split_args(inner)) if inner.strip() else ()
    return Literal(positive, pred, args)


@lru_cache(maxsize=_PARSE_CACHE_SIZE)
def parse_clause(s: str) -> Clause:
    """Inverse of clause_to_str. Variables are exactly the names v1, v2, ...;
    every other bare name is a constant. Raises ClauseFormatError on text
    outside the format, terms nested past MAX_TERM_DEPTH included. The
    result is memoized by text (a Clause is immutable); an error is raised
    again on every call."""
    s = s.strip()
    if s == "[]":
        return Clause(())
    if not s:
        raise ClauseFormatError("empty clause string (use '[]')")
    return Clause(tuple(_parse_literal(part) for part in s.split(" | ")))
