"""Grounding over the Herbrand domain, and a DPLL satisfiability core.

A function-free clause set has a model exactly when its ground instances
over its Herbrand domain (the constants that occur, plus one witness
constant when none do) have one. The datagen oracle labels instances with
this, and the engine's sos-linear pre-check decides refutability with it
before any resolution. Both stop at ORACLE_MAX_ATOMS ground atoms.

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

from itertools import product
from typing import Iterable, Iterator, Optional

from .logic import Const, Func, Literal, Var

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


class _TheoryGrounding:
    """A theory's grounding over one domain: its atom numbers, its ground
    clauses in first-instance order, and its unit-propagated state (None
    when propagation alone refutes it). Nothing changes after construction,
    so every question put to the theory starts from that state."""

    __slots__ = ("domain", "atoms", "ground", "seen", "base")

    def __init__(self, theory: Iterable[tuple[Literal, ...]], domain: tuple[str, ...]):
        self.domain = domain
        self.atoms: dict = {}
        self.ground = list(dict.fromkeys(_ground_instances(theory, domain, {}, self.atoms)))
        self.seen = set(self.ground)
        self.base = _propagate(self.ground, 0, 0)

    def instances(self, extra: Iterable[tuple[Literal, ...]]) -> list[tuple[int, int]]:
        """The ground instances of `extra` over this domain that the theory
        lacks, their new atoms numbered on from the theory's. Atoms are
        numbered exactly as when the theory and `extra` are ground as one
        list."""
        instances = dict.fromkeys(_ground_instances(extra, self.domain, self.atoms, {}))
        return [g for g in instances if g not in self.seen]

    def model(self, extra: Iterable[tuple[int, int]] = ()) -> Optional[int]:
        """A model of the theory's ground clauses and the ground clauses
        `extra`, or None when they have none."""
        if self.base is None:
            return None
        t, f, open_ = self.base
        return _solve([*open_, *extra], t, f)
