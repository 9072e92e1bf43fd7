"""Quantified formulas and their conversion to clause form.

The pipeline has three passes: eliminate implications and push negations to
the atoms (NNF); one walk that renames each universal apart and replaces each
existential with a fresh sk-term over the universals before it, leaving the
quantifier-free matrix (the outer Skolemization of Nonnengart and
Weidenbach); then distribute disjunction over conjunction. The resulting
clause set is equisatisfiable with the input formula, which is all
refutation needs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

from .engine import TheorySet
from .logic import (
    Clause,
    Const,
    Func,
    Literal,
    Term,
    Var,
    canonicalize,
    clause_consts,
    is_tautology,
    subst_term,
    term_consts,
    term_vars,
)


@dataclass(frozen=True, slots=True)
class Atom:
    pred: str
    args: tuple[Term, ...]


@dataclass(frozen=True, slots=True)
class Not:
    f: "Formula"


@dataclass(frozen=True, slots=True)
class And:
    a: "Formula"
    b: "Formula"


@dataclass(frozen=True, slots=True)
class Or:
    a: "Formula"
    b: "Formula"


@dataclass(frozen=True, slots=True)
class Implies:
    a: "Formula"
    b: "Formula"


@dataclass(frozen=True, slots=True)
class ForAll:
    var: Var
    body: "Formula"


@dataclass(frozen=True, slots=True)
class Exists:
    var: Var
    body: "Formula"


Formula = Union[Atom, Not, And, Or, Implies, ForAll, Exists]


class CnfBlowupError(Exception):
    """The clause form of one formula exceeded the configured bound."""


MAX_CLAUSES_PER_FORMULA = 256

_SK_RE = re.compile(r"sk(\d+)\Z")


class SkolemNamer:
    """Hands out sk1, sk2, ... in first-use order. One namer per judging
    task, shared across every formula of that task so names never collide."""

    def __init__(self, start: int = 1):
        self.next_index = start

    def fresh(self, universal_vars: tuple[Var, ...]) -> Term:
        name = f"sk{self.next_index}"
        self.next_index += 1
        if universal_vars:
            return Func(name, universal_vars)
        return Const(name)

    @classmethod
    def starting_after(cls, items: Iterable[Union[Formula, Clause]]) -> "SkolemNamer":
        """A namer whose names cannot clash with sk-constants already present
        in the inputs (e.g. re-parsed 'person sk1' pseudo-entities), which
        may be formulas or clauses."""
        top = 0
        for item in items:
            consts = clause_consts(item) if isinstance(item, Clause) else _formula_consts(item)
            for c in consts:
                m = _SK_RE.match(c.name)
                if m:
                    top = max(top, int(m.group(1)))
        return cls(start=top + 1)


def _formula_consts(f: Formula) -> Iterable[Const]:
    if isinstance(f, Atom):
        for a in f.args:
            yield from term_consts(a)
    elif isinstance(f, Not):
        yield from _formula_consts(f.f)
    elif isinstance(f, (And, Or, Implies)):
        yield from _formula_consts(f.a)
        yield from _formula_consts(f.b)
    else:
        yield from _formula_consts(f.body)


def free_vars(f: Formula, bound: frozenset = frozenset()) -> set[Var]:
    if isinstance(f, Atom):
        return {v for a in f.args for v in term_vars(a) if v not in bound}
    if isinstance(f, Not):
        return free_vars(f.f, bound)
    if isinstance(f, (And, Or, Implies)):
        return free_vars(f.a, bound) | free_vars(f.b, bound)
    return free_vars(f.body, bound | {f.var})


def nnf(f: Formula) -> Formula:
    """Negation normal form: no Implies, negation only on atoms."""
    if isinstance(f, Atom):
        return f
    if isinstance(f, Implies):
        return nnf(Or(Not(f.a), f.b))
    if isinstance(f, And):
        return And(nnf(f.a), nnf(f.b))
    if isinstance(f, Or):
        return Or(nnf(f.a), nnf(f.b))
    if isinstance(f, ForAll):
        return ForAll(f.var, nnf(f.body))
    if isinstance(f, Exists):
        return Exists(f.var, nnf(f.body))
    g = f.f
    if isinstance(g, Atom):
        return f
    if isinstance(g, Not):
        return nnf(g.f)
    if isinstance(g, Implies):
        return nnf(Not(Or(Not(g.a), g.b)))
    if isinstance(g, And):
        return Or(nnf(Not(g.a)), nnf(Not(g.b)))
    if isinstance(g, Or):
        return And(nnf(Not(g.a)), nnf(Not(g.b)))
    if isinstance(g, ForAll):
        return Exists(g.var, nnf(Not(g.body)))
    return ForAll(g.var, nnf(Not(g.body)))


def negate(f: Formula) -> Formula:
    """Negation pushed to the atoms, quantifiers dualized."""
    if free_vars(f):
        raise ValueError("cannot negate a formula with free variables")
    return nnf(Not(f))


def _skolem_matrix(
    f: Formula, env: dict[Var, Term], universals: list[Var], namer: SkolemNamer
) -> Formula:
    """The quantifier-free Skolem matrix of an NNF formula, in one walk.

    `env` maps each bound variable in scope to its replacement. A ForAll
    binds a fresh variable and appends it to `universals`, which gathers the
    universals in preorder and is never popped; an Exists binds a fresh
    sk-term over every universal before it in that order. This is the
    matrix of prenexing left to right, outside in, then Skolemizing.
    """
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(subst_term(env, a) for a in f.args))
    if isinstance(f, Not):
        return Not(_skolem_matrix(f.f, env, universals, namer))
    if isinstance(f, (And, Or)):
        a = _skolem_matrix(f.a, env, universals, namer)
        return type(f)(a, _skolem_matrix(f.b, env, universals, namer))
    if isinstance(f, ForAll):
        bound = Var(f"q{len(universals) + 1}")
        universals.append(bound)
    else:
        bound = namer.fresh(tuple(universals))
    return _skolem_matrix(f.body, {**env, f.var: bound}, universals, namer)


def _distribute(f: Formula, max_clauses: int) -> list[list[Literal]]:
    if isinstance(f, Atom):
        return [[Literal(True, f.pred, f.args)]]
    if isinstance(f, Not):
        assert isinstance(f.f, Atom)
        return [[Literal(False, f.f.pred, f.f.args)]]
    if isinstance(f, And):
        out = _distribute(f.a, max_clauses) + _distribute(f.b, max_clauses)
        if len(out) > max_clauses:
            raise CnfBlowupError("cnf_blowup")
        return out
    assert isinstance(f, Or)
    left = _distribute(f.a, max_clauses)
    right = _distribute(f.b, max_clauses)
    if len(left) * len(right) > max_clauses:
        raise CnfBlowupError("cnf_blowup")
    return [li + rj for li in left for rj in right]


def to_clauses(
    f: Formula,
    namer: Optional[SkolemNamer] = None,
    max_clauses: int = MAX_CLAUSES_PER_FORMULA,
) -> list[Clause]:
    """Skolem-normal-form clause set of a closed formula.

    Clauses come back canonicalized, deduplicated and with tautologies
    dropped; the set is equisatisfiable with f. Raises CnfBlowupError when
    the clause count would exceed max_clauses.
    """
    if free_vars(f):
        raise ValueError("formula has free variables")
    if namer is None:
        namer = SkolemNamer.starting_after([f])
    matrix = _skolem_matrix(nnf(f), {}, [], namer)
    out: list[Clause] = []
    seen = set()
    for lits in _distribute(matrix, max_clauses):
        c = canonicalize(Clause(tuple(lits)))
        if is_tautology(c) or c.literals in seen:
            continue
        seen.add(c.literals)
        out.append(c)
    return out


def compile_clauses(
    theory: Iterable[Union[Formula, Clause]],
    hypothesis: Optional[Formula] = None,
) -> tuple[list[Clause], list[Clause], list[Clause]]:
    """Clause form of one task: the theory clauses, then the hypothesis
    clauses, then the clauses of its negation.

    One Skolem namer, starting after every sk-name already in the inputs,
    names all three in that order, so sk-names never collide and line up
    wherever the same task is compiled again. Theory items that are already
    clauses are kept as they are. Without a hypothesis the last two lists
    are empty.
    """
    theory = list(theory)
    namer = SkolemNamer.starting_after(theory if hypothesis is None else [*theory, hypothesis])
    theory_clauses: list[Clause] = []
    for item in theory:
        if isinstance(item, Clause):
            theory_clauses.append(item)
        else:
            theory_clauses.extend(to_clauses(item, namer))
    if hypothesis is None:
        return theory_clauses, [], []
    h_clauses = to_clauses(hypothesis, namer)
    neg_clauses = to_clauses(negate(hypothesis), namer)
    return theory_clauses, h_clauses, neg_clauses


def theory_set(
    theory: Iterable[Clause],
    goals: Iterable[Clause] = (),
    realize_fn: Optional[Callable[[Clause], str]] = None,
) -> TheorySet:
    """A theory set of the theory clauses, then the goals marked supported.
    Without goals it is the single target of a satisfiability check."""
    tset = TheorySet(realize_fn=realize_fn)
    for c in theory:
        tset.add(c)
    for c in goals:
        tset.add(c, supported=True)
    return tset


def build_theory_sets(
    nlt: Iterable[Formula],
    hypothesis: Formula,
    realize_fn: Optional[Callable[[Clause], str]] = None,
):
    """The two refutation targets for a judging task.

    T1 holds the theory plus the hypothesis, T2 the theory plus its negation.
    Theory clauses are normalized once with a shared Skolem namer and reused
    by both sets, so sk-names line up across the two proofs. The goal-side
    clauses are marked supported in each set; they are the support set for
    the goal-directed search.
    """
    theory_clauses, h_clauses, neg_clauses = compile_clauses(nlt, hypothesis)
    return (
        theory_set(theory_clauses, h_clauses, realize_fn),
        theory_set(theory_clauses, neg_clauses, realize_fn),
    )
