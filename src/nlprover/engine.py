"""Binary resolution with factoring and strategy-guided refutation search.

Both strategies run one given-clause loop (Otter's, under Wos's set of
support), started from different partitions of the input clauses. The
loop drops a candidate that an input or accepted clause subsumes, and
queues that subsumer if it started usable and was never queued (McCune's
Otter moves it into the set of support the same way).

* unrestricted: every clause is queued and none starts usable, so none is
  promoted and every pair of kept clauses is resolved once, first in
  first out. The budget bounds the number of accepted resolvents, and
  steps_used is that number.
* sos_linear (default): the loop is a decision pre-check. The support
  clauses (goals) are queued, the other clauses start usable, and
  saturation decides whether the empty clause is reachable. When it may
  be, an iterative-deepening search recovers a linear chain: the first
  premise chain starts at a goal clause, every later step keeps the
  previous resolvent as one premise, and the other premise comes from
  the input clauses or an ancestor on the current chain. The budget
  bounds the length of one chain, and steps_used is the length of the
  refutation found (0 when none was). If deepening passes its work limit
  on a set the pre-check refuted, the pre-check's derivation is returned
  when it fits the budget: a saturation DAG, not a shortest linear chain.

Each search returns its halt reason, its step count and the derivation of
the empty clause as (premise, premise, conclusion) triples; `refute` alone
renders that derivation as proof steps and builds the result. `refute`
leaves its theory set unchanged, so a second call on the same set gives the
same answer. A proof names each clause by an id: the inputs keep theirs,
and each resolvent the search reaches is numbered on from the last input
id in the order it was first reached.

A pair of clauses is resolved only when some literal of one has the same
predicate as, and the opposite sign of, a literal of the other; the loop
finds a given clause's partners through a (predicate, polarity) index
instead of scanning every usable clause.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Optional

from .logic import (
    Clause,
    Literal,
    Var,
    canonical_key,
    canonicalize,
    clause_to_str,
    clause_vars,
    is_tautology,
    subst_clause,
    subsumes,
    unify,
)

SOS_LINEAR = "sos_linear"
UNRESTRICTED = "unrestricted"
STRATEGIES = (SOS_LINEAR, UNRESTRICTED)

DEFAULT_BUDGET = 100

HALT_EMPTY = "empty_clause"
HALT_SATURATED = "saturated"
HALT_BUDGET = "budget_exhausted"
HALT_NO_PAIR = "no_valid_pair"


@dataclass
class TheorySet:
    """An ordered clause set with duplicate, tautology and support tracking.

    Insertion order is generation order, and a clause's id is its 1-based
    position. No two stored clauses share a canonical form and no stored
    clause is a tautology. `supported` holds the ids of the goal clauses,
    the roots of the goal-directed search. `realize_fn`, when given, renders
    a clause in natural language; it runs only when `nl_of` asks for a
    clause, and without it a clause renders as its textual form.
    """

    realize_fn: Optional[Callable[[Clause], str]] = None
    clauses: list[Clause] = field(default_factory=list)
    supported: set[int] = field(default_factory=set)
    _index: dict = field(default_factory=dict)

    def add(self, clause: Clause, supported: bool = False) -> tuple[Optional[Clause], bool]:
        """Insert a clause, returning (stored clause, was_new); `supported`
        marks it a goal.

        Tautologies are rejected with (None, False). A clause whose canonical
        form is already stored returns the existing copy, marked supported
        when `supported` is set.
        """
        c = canonicalize(clause)
        if is_tautology(c):
            return None, False
        existing = self._index.get(c.literals)
        if existing is not None:
            if supported:
                self.supported.add(existing.id)
            return existing, False
        c = Clause(c.literals, len(self.clauses) + 1)
        self._index[c.literals] = c
        self.clauses.append(c)
        if supported:
            self.supported.add(c.id)
        return c, True

    def nl_of(self, c: Clause) -> str:
        return clause_to_str(c) if self.realize_fn is None else self.realize_fn(c)

    def is_supported(self, cid: int) -> bool:
        return cid in self.supported


# ---------------------------------------------------------------------------
# Inference rules


# Bound on the rename-apart memo (about 500 bytes an entry), as for the
# canonical-form cache in logic.
_RENAME_CACHE_SIZE = 1 << 15


@lru_cache(maxsize=_RENAME_CACHE_SIZE)
def _renamed_literals(literals: tuple[Literal, ...], prefix: str) -> tuple[Literal, ...]:
    """The literals with their variables renamed prefix1, prefix2, ... in
    first-occurrence order, computed once per clause and side."""
    c = Clause(literals)
    ren = {v: Var(f"{prefix}{i}") for i, v in enumerate(clause_vars(c), start=1)}
    return subst_clause(ren, c).literals if ren else literals


def _complementary_pairs(c1: Clause, c2: Clause) -> list[tuple[int, int]]:
    """Positions (i, j) where literal i of c1 and literal j of c2 share a
    predicate and differ in sign: the only pairs that can clash."""
    return [
        (i, j)
        for i, la in enumerate(c1.literals)
        for j, lb in enumerate(c2.literals)
        if la.pred == lb.pred and la.positive != lb.positive
    ]


def resolve(c1: Clause, c2: Clause) -> list[Clause]:
    """All binary resolvents over every complementary unifiable literal pair.

    Resolvents are canonicalized; tautologies and canonical duplicates are
    dropped. Order follows literal positions, so the result is deterministic.
    """
    pairs = _complementary_pairs(c1, c2)
    if not pairs:
        return []
    a = _renamed_literals(c1.literals, "lv")
    b = _renamed_literals(c2.literals, "rv")
    out: list[Clause] = []
    seen = set()
    for i, j in pairs:
        theta = unify(a[i], b[j])
        if theta is None:
            continue
        rest = a[:i] + a[i + 1 :] + b[:j] + b[j + 1 :]
        res = canonicalize(subst_clause(theta, Clause(rest)))
        if is_tautology(res) or res.literals in seen:
            continue
        seen.add(res.literals)
        out.append(res)
    return out


def factor(c: Clause) -> list[Clause]:
    """Clauses obtained by unifying two same-polarity same-predicate literals
    of c and merging them. Tautologies dropped."""
    out: list[Clause] = []
    seen = set()
    lits = c.literals
    for i in range(len(lits)):
        for j in range(i + 1, len(lits)):
            if lits[i].positive != lits[j].positive or lits[i].pred != lits[j].pred:
                continue
            theta = unify(lits[i], lits[j])
            if theta is None:
                continue
            fc = canonicalize(subst_clause(theta, c))
            if is_tautology(fc) or fc.literals in seen or fc.literals == canonical_key(c):
                continue
            seen.add(fc.literals)
            out.append(fc)
    return out


def factor_closure(c: Clause) -> list[Clause]:
    """Every clause reachable from c by repeated factoring (c excluded)."""
    out: list[Clause] = []
    seen = {canonical_key(c)}
    queue = deque([c])
    while queue:
        cur = queue.popleft()
        for fc in factor(cur):
            if fc.literals in seen:
                continue
            seen.add(fc.literals)
            out.append(fc)
            queue.append(fc)
    return out


def inferences(c1: Clause, c2: Clause) -> Iterator[Clause]:
    """Each binary resolvent of c1 and c2, followed by its factor closure."""
    for res in resolve(c1, c2):
        yield res
        yield from factor_closure(res)


# ---------------------------------------------------------------------------
# Refutation search


@dataclass(frozen=True)
class ProofStep:
    """One resolution step in clause text and in natural language.

    `premise_ids` and `conclusion_id` are the ids the search gave the
    clauses: an input keeps its id in the theory set, and a resolvent is
    numbered on from the inputs. No stored record carries that set, so they
    take no part in equality and are not serialized.
    """

    premises_fol: tuple[str, str]
    premises_nl: tuple[str, str]
    conclusion_fol: str
    conclusion_nl: str
    premise_ids: tuple[int, int] = field(default=(0, 0), compare=False)
    conclusion_id: int = field(default=0, compare=False)

    def to_dict(self) -> dict:
        return {
            "premises_fol": list(self.premises_fol),
            "premises_nl": list(self.premises_nl),
            "conclusion_fol": self.conclusion_fol,
            "conclusion_nl": self.conclusion_nl,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ProofStep":
        return cls(
            tuple(d["premises_fol"]),
            tuple(d["premises_nl"]),
            d["conclusion_fol"],
            d["conclusion_nl"],
        )


@dataclass
class RefutationResult:
    refuted: bool
    steps_used: int
    proof: list[ProofStep]
    halt_reason: str


def format_proof(steps: list[ProofStep]) -> list[str]:
    """Line-oriented proof serialization."""
    lines = []
    for k, s in enumerate(steps, start=1):
        lines.append(
            f"STEP {k}: [{s.premise_ids[0]}] {s.premises_fol[0]}"
            f" | [{s.premise_ids[1]}] {s.premises_fol[1]}"
            f" => [{s.conclusion_id}] {s.conclusion_fol}"
            f" ;; NL: {s.premises_nl[0]} + {s.premises_nl[1]} => {s.conclusion_nl}"
        )
    return lines


# A derivation recorded during search: (premise, premise, stored conclusion).
# Searches record these and render a ProofStep only for the returned proof.
_Derivation = tuple[Clause, Clause, Clause]


def _make_step(tset: TheorySet, a: Clause, b: Clause, concl: Clause) -> ProofStep:
    return ProofStep(
        premises_fol=(clause_to_str(a), clause_to_str(b)),
        premises_nl=(tset.nl_of(a), tset.nl_of(b)),
        conclusion_fol=clause_to_str(concl),
        conclusion_nl=tset.nl_of(concl),
        premise_ids=(a.id, b.id),
        conclusion_id=concl.id,
    )


def refute(
    tset: TheorySet,
    strategy: str = SOS_LINEAR,
    budget: int = DEFAULT_BUDGET,
) -> RefutationResult:
    """Search for the empty clause. The returned proof is the derivation of
    the empty clause (empty when no refutation was found). steps_used is
    the proof's length under sos_linear (0 when none was found) and the
    number of accepted resolvents under unrestricted. Both searches return
    a derivation, and only this function renders one as proof steps."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if not tset.clauses:
        raise ValueError("empty theory set")
    if strategy == UNRESTRICTED:
        halt, steps, derivation = _given_clause_loop(tset, tset.clauses, [], budget)
    else:
        halt, steps, derivation = _refute_sos_linear(tset, budget)
    proof = [_make_step(tset, *d) for d in derivation]
    return RefutationResult(halt == HALT_EMPTY, steps, proof, halt)


def _given_clause_loop(
    tset: TheorySet,
    queue: list[Clause],
    start_usable: list[Clause],
    limit: int,
) -> tuple[str, int, list[_Derivation]]:
    """Saturate under a set of support: `queue` holds the support clauses
    and `start_usable` the clauses that start usable.

    Each round takes the oldest queued clause as given, resolves it with
    every usable clause holding a complementary literal, in usable order,
    then with itself, and makes it usable. Each resolvent and each of its
    factors is a candidate. One whose canonical form is new and that no
    input or accepted clause subsumes is accepted, numbered on from the
    theory set's last id and queued. A subsumed candidate is dropped, and a
    subsumer from `start_usable` that was never queued is queued (it is
    usable already, so it is not made usable twice); without that promotion
    the support restriction would lose the refutations that go through the
    subsumer. A candidate that arrives after `limit` accepted ones ends the
    search. The theory set is not changed.

    Returns the halt reason, the number of accepted resolvents and the
    derivation of the empty clause (empty unless it was reached).
    """
    seen = {c.literals for c in tset.clauses}
    first_id = len(tset.clauses) + 1
    # One entry per accepted resolvent, keyed by its id.
    by_conclusion: dict[int, _Derivation] = {}
    pending = deque(queue)
    usable: list[Clause] = []
    # (predicate, polarity) -> ascending positions in `usable` of the
    # clauses holding such a literal
    index: dict[tuple[str, bool], list[int]] = {}
    # (predicate, polarity) of its first literal -> input and accepted
    # clauses: a subsumer maps that literal to one of the candidate's
    subsumers: dict[tuple[str, bool], list[Clause]] = {}
    start_ids = {c.id for c in start_usable}
    promoted: set[int] = set()

    def make_usable(c: Clause) -> None:
        for key in {(l.pred, l.positive) for l in c.literals}:
            index.setdefault(key, []).append(len(usable))
        usable.append(c)

    def add_subsumer(c: Clause) -> None:
        if c.literals:
            first = c.literals[0]
            subsumers.setdefault((first.pred, first.positive), []).append(c)

    def subsumer_of(cand: Clause) -> Optional[Clause]:
        for key in dict.fromkeys((l.pred, l.positive) for l in cand.literals):
            for s in subsumers.get(key, ()):
                if subsumes(s, cand):
                    return s
        return None

    for c in tset.clauses:
        add_subsumer(c)
    for c in start_usable:
        make_usable(c)
    while pending:
        given = pending.popleft()
        positions = sorted(
            {p for l in given.literals for p in index.get((l.pred, not l.positive), ())}
        )
        others = [usable[p] for p in positions]
        if given.id not in promoted:
            others.append(given)
        for other in others:
            for cand in inferences(given, other):
                if len(by_conclusion) >= limit:
                    return HALT_BUDGET, len(by_conclusion), []
                if cand.literals in seen:
                    continue
                seen.add(cand.literals)
                s = subsumer_of(cand)
                if s is not None:
                    if s.id in start_ids and s.id not in promoted:
                        promoted.add(s.id)
                        pending.append(s)
                    continue
                stored = Clause(cand.literals, first_id + len(by_conclusion))
                by_conclusion[stored.id] = (given, other, stored)
                if stored.is_empty:
                    return HALT_EMPTY, len(by_conclusion), _extract(by_conclusion, stored.id)
                pending.append(stored)
                add_subsumer(stored)
        if given.id not in promoted:
            make_usable(given)
    return (HALT_SATURATED if by_conclusion else HALT_NO_PAIR), len(by_conclusion), []


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


# Resource guard for the backtracking search: pathological inputs could make
# the depth-first enumeration of bounded-length chains thrash exponentially,
# so cap the number of chain extensions and report budget exhaustion past it.
_WORK_LIMIT = 50_000

# Cap on the resolvents the saturation pre-check accepts; past it the
# pre-check is inconclusive and the deepening search decides.
_SATURATE_CAP = 20_000


class _Frame(NamedTuple):
    """One clause on the deepening search's current chain."""
    clause: Clause
    step: Optional[_Derivation]  # the step that derived it; None for the goal
    untried: Iterator[tuple[Clause, Clause]]  # (side, candidate) pairs left


def _refute_sos_linear(tset: TheorySet, budget: int) -> tuple[str, int, list[_Derivation]]:
    """Iterative-deepening search over linear derivations of length <= budget.

    The given-clause loop, with the goals queued, decides refutability
    first; the deepening search then recovers a shortest-length chain.
    Past the work limit the loop's derivation answers instead, when it fits
    the budget; that derivation is a DAG, not a linear chain.
    Every chain clause is scanned for an immediate empty resolvent against
    all its candidate sides before the chain grows from it.

    Returns the halt reason, the length of the derivation found (0 when
    none was) and that derivation of the empty clause.
    """
    # Roots are the support clauses present at entry (goal clauses, plus any
    # theory clause a goal collapsed into at insertion).
    goals = [c for c in tset.clauses if tset.is_supported(c.id)]
    others = [c for c in tset.clauses if not tset.is_supported(c.id)]
    halt, _, derivation = _given_clause_loop(tset, goals, others, _SATURATE_CAP)
    # Saturation without the empty clause decides the set; a refutable or
    # capped pre-check leaves the proof to the deepening search.
    if halt in (HALT_SATURATED, HALT_NO_PAIR):
        return HALT_NO_PAIR, 0, []

    inputs = tset.clauses
    # Every clause reached, by canonical form: the inputs, then the resolvents
    # numbered on in first-reach order over all levels and goals.
    reached = {c.literals: c for c in inputs}

    def reach(res: Clause) -> Clause:
        new = Clause(res.literals, len(reached) + 1)
        return reached.setdefault(res.literals, new)

    def push(chain: list[_Frame], clause: Clause, step: Optional[_Derivation]):
        """Put `clause` on the chain with its inferences against the inputs and
        the chain's derived clauses; return the refutation if one is empty."""
        ancestors = [f.clause for f in chain[1:]] + ([clause] if chain else [])
        sides = sorted(inputs + ancestors, key=lambda c: (len(c.literals), c.id))
        cands = [(side, res) for side in sides for res in inferences(clause, side)]
        chain.append(_Frame(clause, step, iter(cands)))
        for side, res in cands:
            if res.is_empty:
                return [f.step for f in chain[1:]] + [(clause, side, reach(res))]
        return None

    work = 0
    for limit in range(1, budget + 1):
        truncated = False
        for goal in goals:
            chain: list[_Frame] = []
            path_keys = {goal.literals}
            trail = push(chain, goal, None)
            while trail is None and chain:
                top = chain[-1]
                for side, res in top.untried:
                    if res.is_empty or res.literals in path_keys:
                        continue
                    if len(chain) >= limit:
                        truncated = True
                        continue
                    work += 1
                    if work > _WORK_LIMIT:
                        if 0 < len(derivation) <= budget:
                            return HALT_EMPTY, len(derivation), derivation
                        return HALT_BUDGET, 0, []
                    stored = reach(res)
                    path_keys.add(stored.literals)
                    trail = push(chain, stored, (top.clause, side, stored))
                    break
                else:
                    path_keys.discard(chain.pop().clause.literals)
            if trail is not None:
                return HALT_EMPTY, len(trail), trail
        if not truncated:
            # every chain bottomed out before the depth limit: deepening
            # further cannot help
            return HALT_NO_PAIR, 0, []
    return HALT_BUDGET, 0, []

