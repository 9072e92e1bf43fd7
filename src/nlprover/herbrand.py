"""Grounding over the Herbrand domain, and a DPLL satisfiability core.

A function-free clause set has a model exactly when its ground instances
over its Herbrand domain (the constants that occur, plus one witness
constant when none do) have one. `decide(theory, extra)` is the one question
this module answers: does `theory + extra` have a model, and, when it has
none, does `theory` alone? The datagen oracle labels instances with it, and
the engine's sos-linear pre-check decides refutability with it before any
resolution. Both stop at ORACLE_MAX_ATOMS ground atoms.

A theory's constants and predicates are scanned once, and its grounding
over each domain is kept in a memo of _GROUND_CACHE_SIZE theories, least
recently used dropped first, so the questions that add a hypothesis, its
negation or a set of goals to the same theory scan and ground only what
they add, numbering new atoms after the theory's. The memo entry also keeps
the theory's propagated state, which every question starts from, and a few
models found by earlier questions. A question whose added clauses hold in a
stored model (with the atoms the theory lacks set false) is satisfiable,
since that assignment satisfies the whole list; every other question is
searched in full, so an answer never depends on what the memo holds. The
memo and its models are per process and shared by every caller: `judge`
updates them as the oracle does, and the CLI's prove workers each keep
their own.

Grounding builds no terms: each clause is compiled once into literal
templates whose variables are slot numbers, and each assignment yields atom
keys (predicate, constant names) that are numbered in first-use order. A
theory grounding numbers the atoms of its own clauses first, so clauses
added to it later number their new atoms after the theory's.

A ground clause is a pair of bitmasks (positive atoms, negated atoms), bit
i standing for atom i; an assignment is likewise a pair (true atoms, false
atoms). A model is the int of its true atoms: every atom not in it is
false. Satisfiability is decided by unit propagation and splitting (Davis,
Logemann and Loveland, 1962); the search is exhaustive, so "unsatisfiable"
means that no assignment works.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator, Optional

from .logic import Clause, Const, Func, Literal, Var

ORACLE_MAX_ATOMS = 24


class OracleOverflowError(Exception):
    """Ground atom space too large to enumerate."""


def _propagate(
    clauses: Iterable[tuple[int, int]], t: int, f: int
) -> Optional[tuple[int, int, list[tuple[int, int]]]]:
    """Unit propagation from the partial assignment (t, f). Returns the
    extended assignment and the clauses it leaves open, cut down to their
    unassigned literals, or None when a clause has every literal false."""
    while True:
        open_: list[tuple[int, int]] = []
        forced = False
        for pos, neg in clauses:
            if pos & t or neg & f:
                continue
            pos &= ~f
            neg &= ~t
            free = pos | neg
            if not free:
                return None
            if free & (free - 1):
                open_.append((pos, neg))
            elif pos:
                t |= pos
                forced = True
            else:
                f |= neg
                forced = True
        if not forced:
            return t, f, open_
        clauses = open_


def _solve(clauses: Iterable[tuple[int, int]], t: int = 0, f: int = 0) -> Optional[int]:
    """A model of `clauses` that extends the partial assignment (t, f), or
    None when there is none: unit propagation, then a split on the lowest
    atom of the first open clause, true first."""
    state = _propagate(clauses, t, f)
    if state is None:
        return None
    t, f, open_ = state
    if not open_:
        return t
    pos, neg = open_[0]
    free = pos | neg
    bit = free & -free
    model = _solve(open_, t | bit, f)
    return model if model is not None else _solve(open_, t, f | bit)


def _holds(ground: Iterable[tuple[int, int]], model: int) -> bool:
    """Does every ground clause hold in `model`?"""
    return all(pos & model or neg & ~model for pos, neg in ground)


def _scan(
    clauses: Iterable[tuple[Literal, ...]],
) -> tuple[dict[str, None], dict[tuple[str, int], None]]:
    """The constants of `clauses` by name, in first-occurrence order, and
    their (predicate, arity) pairs. Raises OracleOverflowError at a
    function term."""
    consts: dict[str, None] = {}
    preds: dict[tuple[str, int], None] = {}
    for literals in clauses:
        for lit in literals:
            preds.setdefault((lit.pred, len(lit.args)))
            for a in lit.args:
                if isinstance(a, Func):
                    raise OracleOverflowError(
                        "oracle_overflow: function terms are outside oracle reach"
                    )
                if isinstance(a, Const):
                    consts.setdefault(a.name)
    return consts, preds


def _domain(
    consts: dict[str, None], preds: dict[tuple[str, int], None], max_atoms: int
) -> tuple[str, ...]:
    """The Herbrand domain of a scanned set: its constants, or the witness
    c0 when there are none. Raises OracleOverflowError when the set has more
    than max_atoms ground atoms over it."""
    domain = tuple(consts) or ("c0",)
    n_atoms = sum(len(domain) ** arity for _, arity in preds)
    if n_atoms > max_atoms:
        raise OracleOverflowError(
            f"oracle_overflow: {n_atoms} ground atoms exceeds the cap of {max_atoms}"
        )
    return domain


def _ground_instances(
    clauses: Iterable[tuple[Literal, ...]],
    domain: tuple[str, ...],
    known: dict,
    atoms: dict,
) -> Iterator[tuple[int, int]]:
    """Every non-tautological ground instance of `clauses` over `domain`.
    No terms are built: each literal becomes (positive, pred, argument
    template), where an int in the template is a variable's slot in
    first-occurrence order and a str is a constant's name. An atom keeps
    its number in `known`; any other is numbered in `atoms`, on from the
    atoms of `known`, in first-use order."""
    first = len(known) + 1
    for literals in clauses:
        slots: dict[Var, int] = {}
        template = [
            (
                lit.positive,
                lit.pred,
                tuple(
                    slots.setdefault(a, len(slots)) if isinstance(a, Var) else a.name
                    for a in lit.args
                ),
            )
            for lit in literals
        ]
        for assignment in product(domain, repeat=len(slots)):
            pos = neg = 0
            for positive, pred, args in template:
                key = (pred, tuple(assignment[a] if type(a) is int else a for a in args))
                idx = known.get(key) or atoms.get(key)
                if idx is None:
                    idx = atoms[key] = first + len(atoms)
                bit = 1 << idx
                if positive:
                    if neg & bit:
                        break  # tautology; the atoms after it stay unnumbered
                    pos |= bit
                else:
                    if pos & bit:
                        break
                    neg |= bit
            else:
                yield pos, neg


# Models kept per (theory, domain). generate() puts up to 33 satisfiability
# questions to one theory (oracle_sat, then two per candidate hypothesis).
# Over 300 gen-default instances a store of 8 models answered 2,010 of 4,118
# questions without search, one of 32 models 2,014 and one of 1 model 1,130.
_MODEL_STORE_SIZE = 8


class _TheoryGrounding:
    """A theory's grounding over one domain: its atom numbers, its ground
    clauses in first-instance order, its unit-propagated state (None when
    propagation alone refutes it), which every question starts from, and up
    to _MODEL_STORE_SIZE models that earlier questions found, each cut down
    to the theory's atoms (`mask`)."""

    __slots__ = ("domain", "atoms", "ground", "seen", "base", "mask", "models")

    def __init__(self, theory: Iterable[tuple[Literal, ...]], domain: tuple[str, ...]):
        self.domain = domain
        self.atoms: dict = {}
        self.ground = list(dict.fromkeys(_ground_instances(theory, domain, {}, self.atoms)))
        self.seen = set(self.ground)
        self.base = _propagate(self.ground, 0, 0)
        self.mask = (1 << (len(self.atoms) + 1)) - 2
        self.models: deque[int] = deque(maxlen=_MODEL_STORE_SIZE)

    def instances(self, extra: Iterable[tuple[Literal, ...]]) -> list[tuple[int, int]]:
        """The ground instances of `extra` over this domain that the theory
        lacks, their new atoms numbered on from the theory's. Atoms are
        numbered exactly as when the theory and `extra` are ground as one
        list."""
        instances = dict.fromkeys(_ground_instances(extra, self.domain, self.atoms, {}))
        return [g for g in instances if g not in self.seen]

    def satisfiable(self, extra: list[tuple[int, int]]) -> bool:
        """Do the theory's ground clauses and the ground clauses `extra` have
        a model? A stored model answers when it fits; otherwise the search
        starts from the propagated state, and the model it finds is stored."""
        if self.base is None:
            return False
        # A stored model, with every atom the theory lacks set false, is a
        # full assignment that satisfies the theory; if it satisfies the
        # added clauses too, the whole list is satisfiable.
        if any(_holds(extra, m) for m in self.models):
            return True
        t, f, open_ = self.base
        model = _solve([*open_, *extra], t, f)
        if model is None:
            return False
        model &= self.mask
        if model not in self.models:
            self.models.append(model)
        return True


# Domains kept per theory. generate() asks about a theory over its own
# constants, and over one more for each candidate hypothesis that names an
# entity or an sk-constant the theory lacks: at most 8 domains (its own, one
# per name of the six-name pool, and one for an existential hypothesis).
_DOMAINS_PER_THEORY = 8


class _Theory:
    """A theory's constants in first-occurrence order and its (predicate,
    arity) pairs, scanned once, and its grounding over each domain a
    question has needed, up to _DOMAINS_PER_THEORY of them, oldest dropped
    first."""

    __slots__ = ("literals", "consts", "preds", "groundings")

    def __init__(self, theory: tuple[tuple[Literal, ...], ...]):
        self.literals = theory
        self.consts, self.preds = _scan(theory)
        self.groundings: dict[tuple[str, ...], _TheoryGrounding] = {}

    def over(self, domain: tuple[str, ...]) -> _TheoryGrounding:
        grounding = self.groundings.get(domain)
        if grounding is None:
            if len(self.groundings) == _DOMAINS_PER_THEORY:
                del self.groundings[next(iter(self.groundings))]
            grounding = self.groundings[domain] = _TheoryGrounding(self.literals, domain)
        return grounding


# One entry per theory: its scan and up to _DOMAINS_PER_THEORY groundings,
# each with its atom numbers, ground clauses, propagated state and up to
# _MODEL_STORE_SIZE models, about 13 KB a grounding for a default-size theory
# at the 24-atom cap. generate() makes at most 17 oracle calls on one theory
# in a row (oracle_sat, then oracle_entail per candidate hypothesis), with a
# judgment's pre-check questions between them, so a small bound keeps every
# hit, and with it the models those calls store. A bound the size of a
# replayed benchmark pool would measure the replay, not the program.
_GROUND_CACHE_SIZE = 64


@lru_cache(maxsize=_GROUND_CACHE_SIZE)
def _ground_theory(theory: tuple[tuple[Literal, ...], ...]) -> _Theory:
    return _Theory(theory)


def _ground(
    theory: tuple[tuple[Literal, ...], ...],
    extra: Iterable[tuple[Literal, ...]],
    max_atoms: int,
) -> tuple[_TheoryGrounding, list[tuple[int, int]]]:
    """The ground clauses of `theory + extra` over their Herbrand domain (the
    constants, or the witness c0 when there are none): the theory's memoized
    grounding and the instances of `extra` that it lacks. Atoms are numbered
    exactly as when the whole list is ground at once. Only `extra` is
    scanned; the theory's scan is memoized with its groundings."""
    entry = _ground_theory(theory)
    extra = list(extra)
    consts, preds = _scan(extra)
    domain = _domain({**entry.consts, **consts}, {**entry.preds, **preds}, max_atoms)
    grounding = entry.over(domain)
    return grounding, grounding.instances(extra)


def decide(theory: Iterable[Clause], extra: Iterable[Clause] = ()) -> Optional[bool]:
    """Whether `theory + extra` has a model over their Herbrand domain, or
    None when `theory` alone has none. Raises OracleOverflowError at a
    function term or past ORACLE_MAX_ATOMS ground atoms.

    The theory's grounding comes from the memo, and the search runs on the
    whole list first; the theory alone is searched only when the whole list
    has no model, none is stored and `extra` adds ground clauses."""
    grounding, ground = _ground(
        tuple(c.literals for c in theory), (c.literals for c in extra), ORACLE_MAX_ATOMS
    )
    if grounding.satisfiable(ground):
        return True
    # A stored model, or one the search finds now, is a model of the theory.
    if grounding.models or (ground and grounding.satisfiable([])):
        return False
    return None
