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
* sos_linear (default): a decision pre-check comes first. It leaves out
  every clause that holds a pure literal, repeated until none is left,
  since no refutation can use one; when no goal is left, the set is not
  refutable. A ground model decides a remaining set that is function-free
  and has at most ORACLE_MAX_ATOMS ground atoms over its Herbrand domain,
  when its non-goal clauses have a model (`herbrand`): a model of the whole
  set means no refutation, and none means the goals reach the empty
  clause, since set of support is complete when the other clauses are
  satisfiable. Saturation decides every other set: the remaining goals are
  queued, the other remaining clauses start usable, and the loop runs until
  it reaches the empty clause or saturates. When the set may be refutable,
  an iterative-deepening search recovers a linear chain: the first premise
  chain starts at a goal clause, every later step keeps the previous
  resolvent as one premise, and the other premise comes from the input
  clauses (all of them, pure or not) or an ancestor on the current chain.
  The budget bounds the length of one chain, and steps_used is the length
  of the refutation found (0 when none was). If deepening passes its work
  limit on a set the pre-check refuted, the saturation's derivation from
  the clauses the pre-check kept is returned when it fits the budget: a
  DAG, not a shortest linear chain. When a ground model decided the set,
  the saturation runs for this fallback alone.

Each search returns its halt reason, its step count and the derivation of
the empty clause as (premise, premise, conclusion) triples; `refute` alone
renders that derivation as proof steps, with the clause renderer it is
given, and builds the result. `refute` leaves its theory set unchanged, so
a second call on the same set gives the same answer. A proof names each
clause by an id: the inputs keep theirs, and each resolvent the search
reaches is numbered on from the last input id in the order it was first
reached.

A pair of clauses is resolved only when some literal of one has the same
predicate as, and the opposite sign of, a literal of the other; the loop
finds a given clause's partners through a (predicate, polarity) index
instead of scanning every usable clause, and the deepening search finds a
chain clause's input sides through the same kind of index. The deepening
search also keeps each (chain clause, side) pair's inferences for the
length of one call, since every level revisits the chains of the last
one. In the same way a clause is tried as a subsumer of a candidate only
when, for each (predicate, polarity), it has no more literals than the
candidate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Optional

from .herbrand import (
    ORACLE_MAX_ATOMS,
    OracleOverflowError,
    _domain,
    _holds,
    _scan,
    _TheoryGrounding,
)
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
    the roots of the goal-directed search.
    """

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

    def is_supported(self, cid: int) -> bool:
        return cid in self.supported

    def copy(self) -> "TheorySet":
        """A set holding the same clauses, to be added to apart from this one."""
        return TheorySet(list(self.clauses), set(self.supported), dict(self._index))


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
        premises_fol, conclusion_fol = step_fields(d, "fol")
        premises_nl, conclusion_nl = step_fields(d, "nl")
        return cls(premises_fol, premises_nl, conclusion_fol, conclusion_nl)


def step_fields(d: dict, side: str) -> tuple[tuple[str, str], str]:
    """The premises and conclusion of a serialized proof step on one side,
    "fol" or "nl". Raises TypeError unless the step is an object whose
    premises are a list of two strings and whose conclusion is a string,
    and KeyError when a field is missing."""
    if not isinstance(d, dict):
        raise TypeError("a proof step must be an object")
    premises, conclusion = d[f"premises_{side}"], d[f"conclusion_{side}"]
    if not (
        isinstance(premises, list) and len(premises) == 2 and all(isinstance(p, str) for p in premises)
    ):
        raise TypeError(f"premises_{side} must be a list of two strings")
    if not isinstance(conclusion, str):
        raise TypeError(f"conclusion_{side} must be a string")
    return (premises[0], premises[1]), conclusion


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


def _make_step(render: Callable[[Clause], str], a: Clause, b: Clause, concl: Clause) -> ProofStep:
    return ProofStep(
        premises_fol=(clause_to_str(a), clause_to_str(b)),
        premises_nl=(render(a), render(b)),
        conclusion_fol=clause_to_str(concl),
        conclusion_nl=render(concl),
        premise_ids=(a.id, b.id),
        conclusion_id=concl.id,
    )


def refute(
    tset: TheorySet,
    strategy: str = SOS_LINEAR,
    budget: int = DEFAULT_BUDGET,
    render: Callable[[Clause], str] = clause_to_str,
) -> RefutationResult:
    """Search for the empty clause. The returned proof is the derivation of
    the empty clause (empty when no refutation was found). steps_used is
    the proof's length under sos_linear (0 when none was found) and the
    number of accepted resolvents under unrestricted. Both searches return
    a derivation, and only this function renders one as proof steps:
    `render` gives each step's natural-language side, and it is called for
    the clauses of the returned proof alone (`judge.nl_renderer` renders
    template English; the default repeats the clause text)."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if not tset.clauses:
        raise ValueError("empty theory set")
    if strategy == UNRESTRICTED:
        halt, steps, derivation = _given_clause_loop(tset, tset.clauses, [], budget)
    else:
        halt, steps, derivation = _refute_sos_linear(tset, budget)
    proof = [_make_step(render, *d) for d in derivation]
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
    # clauses, each with its literal count per (predicate, polarity): a
    # subsumer maps that literal to one of the candidate's, and maps its
    # literals to distinct literals of the candidate, so it can subsume
    # only a candidate with at least as many of each
    subsumers: dict[tuple[str, bool], list[tuple[Clause, tuple]]] = {}
    start_ids = {c.id for c in start_usable}
    promoted: set[int] = set()

    def make_usable(c: Clause) -> None:
        for key in {(l.pred, l.positive) for l in c.literals}:
            index.setdefault(key, []).append(len(usable))
        usable.append(c)

    def add_subsumer(c: Clause) -> None:
        if c.literals:
            first = c.literals[0]
            counts = tuple(_sign_counts(c).items())
            subsumers.setdefault((first.pred, first.positive), []).append((c, counts))

    def subsumer_of(cand: Clause) -> Optional[Clause]:
        have = _sign_counts(cand)
        for key in have:
            for s, counts in subsumers.get(key, ()):
                if all(have.get(k, 0) >= n for k, n in counts) and subsumes(s, cand):
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


def _sign_counts(c: Clause) -> dict[tuple[str, bool], int]:
    """The number of c's literals of each (predicate, polarity), in
    first-occurrence order."""
    counts: dict[tuple[str, bool], int] = {}
    for l in c.literals:
        key = (l.pred, l.positive)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _without_pure(clauses: list[Clause]) -> list[Clause]:
    """The clauses left once every clause holding a pure literal is dropped,
    repeated until none is: a literal is pure when no clause left holds its
    predicate with the other polarity. No refutation resolves a pure literal
    away, so none uses a clause that holds one (Davis and Putnam, 1960)."""
    while True:
        signs = {(l.pred, l.positive) for c in clauses for l in c.literals}
        kept = [c for c in clauses if all((l.pred, not l.positive) in signs for l in c.literals)]
        if len(kept) == len(clauses):
            return kept
        clauses = kept


def _ground_decision(theory: list[Clause], goals: list[Clause]) -> Optional[bool]:
    """Whether `theory + goals` has a model, decided by grounding: True
    when it has one, False when it has none but `theory` has one. Set of
    support from `goals` is then complete (Wos, Robinson and Carson, 1965),
    so False means the goals reach the empty clause. None otherwise: the
    set holds a function term or has more than ORACLE_MAX_ATOMS ground
    atoms over its Herbrand domain, or `theory` has no model."""
    theory_literals = [c.literals for c in theory]
    goal_literals = [c.literals for c in goals]
    try:
        domain = _domain(*_scan(theory_literals + goal_literals), ORACLE_MAX_ATOMS)
    except OracleOverflowError:
        return None
    grounding = _TheoryGrounding(theory_literals, domain)
    model = grounding.model()
    if model is None:
        return None
    ground = grounding.instances(goal_literals)
    return _holds(ground, model) or grounding.model(ground) is not None


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


def _size_id(c: Clause) -> tuple[int, Optional[int]]:
    return len(c.literals), c.id


class _Frame(NamedTuple):
    """One clause on the deepening search's current chain."""
    clause: Clause
    signs: frozenset  # the (predicate, polarity) pairs of its literals
    step: Optional[_Derivation]  # the step that derived it; None for the goal
    untried: Iterator[tuple[Clause, Clause]]  # (side, candidate) pairs left


def _refute_sos_linear(tset: TheorySet, budget: int) -> tuple[str, int, list[_Derivation]]:
    """Iterative-deepening search over linear derivations of length <= budget.

    Refutability is decided first, over the clauses that hold no pure
    literal: by a ground model when `_ground_decision` can, otherwise by the
    given-clause loop with the goals queued. The deepening search then
    recovers a shortest-length chain, with every clause as a side.
    Past the work limit the loop's derivation answers instead, when it fits
    the budget; that derivation is a DAG, not a linear chain.
    A chain clause's sides are taken in (length, id) order: the inputs,
    sorted once and found through a (predicate, polarity) index, and the
    ancestors, each only when it holds a literal the chain clause can clash
    with, since no other side has an inference. The candidates are made
    side by side as the search tries them, and each (chain clause, side)
    pair's inferences are kept for the rest of the call, so a pair that a
    later level or goal revisits is not resolved again. Only two units
    resolve to the empty clause and factoring never empties one, so an
    empty inference, when a clause has one, is its first candidate.

    Returns the halt reason, the length of the derivation found (0 when
    none was) and that derivation of the empty clause.
    """
    # Roots are the support clauses present at entry (goal clauses, plus any
    # theory clause a goal collapsed into at insertion).
    goals = [c for c in tset.clauses if tset.is_supported(c.id)]
    # The pre-check leaves out the clauses no refutation can use; when that
    # is every goal, nothing is refutable. The deepening search keeps them:
    # leaving them out there would renumber the resolvents it prints.
    kept = _without_pure(tset.clauses)
    kept_goals = [c for c in kept if tset.is_supported(c.id)]
    if not kept_goals:
        return HALT_NO_PAIR, 0, []
    others = [c for c in kept if not tset.is_supported(c.id)]
    decided = _ground_decision(others, kept_goals)
    if decided:
        return HALT_NO_PAIR, 0, []
    # The pre-check's derivation, when it ran; the work limit's fallback is
    # its only reader, so a ground decision leaves it to that fallback.
    derivation: Optional[list[_Derivation]] = None
    if decided is None:
        halt, _, derivation = _given_clause_loop(tset, kept_goals, others, _SATURATE_CAP)
        # Saturation without the empty clause decides the set; a refutable
        # or capped pre-check leaves the proof to the deepening search.
        if halt in (HALT_SATURATED, HALT_NO_PAIR):
            return HALT_NO_PAIR, 0, []

    # Every clause reached, by canonical form: the inputs, then the resolvents
    # numbered on in first-reach order over all levels and goals.
    reached = {c.literals: c for c in tset.clauses}
    # The inputs in (length, id) order, and (predicate, polarity) -> the
    # ascending positions there of the inputs holding such a literal.
    inputs = sorted(tset.clauses, key=_size_id)
    index: dict[tuple[str, bool], list[int]] = {}
    for pos, c in enumerate(inputs):
        for key in {(l.pred, l.positive) for l in c.literals}:
            index.setdefault(key, []).append(pos)
    # (chain clause literals, side literals) -> the pair's inferences, which
    # depend on the literals alone; a pair is resolved once per call.
    memo: dict[tuple[tuple[Literal, ...], tuple[Literal, ...]], tuple[Clause, ...]] = {}

    def reach(res: Clause) -> Clause:
        new = Clause(res.literals, len(reached) + 1)
        return reached.setdefault(res.literals, new)

    def candidates(clause: Clause, sides: list[Clause]) -> Iterator[tuple[Clause, Clause]]:
        for s in sides:
            key = (clause.literals, s.literals)
            made = memo.get(key)
            if made is None:
                made = memo[key] = tuple(inferences(clause, s))
            for r in made:
                yield s, r

    # chain clause literals -> its (predicate, polarity) pairs, the pairs it
    # can clash with, and the inputs holding one of those, in (length, id) order
    partners: dict[tuple[Literal, ...], tuple[frozenset, frozenset, list[Clause]]] = {}

    def push(chain: list[_Frame], clause: Clause, step: Optional[_Derivation]) -> None:
        """Put `clause` on the chain, with its sides in (length, id) order:
        the inputs and the ancestors (itself included, unless it is the goal)
        that hold a literal it can clash with. The others resolve to nothing."""
        got = partners.get(clause.literals)
        if got is None:
            signs = frozenset((l.pred, l.positive) for l in clause.literals)
            wanted = frozenset((p, not positive) for p, positive in signs)
            positions = sorted({p for k in wanted for p in index.get(k, ())})
            got = partners[clause.literals] = (signs, wanted, [inputs[p] for p in positions])
        signs, wanted, sides = got
        clashing = [f.clause for f in chain[1:] if not wanted.isdisjoint(f.signs)]
        if chain and not wanted.isdisjoint(signs):
            clashing.append(clause)
        if clashing:
            # stable: an input stays ahead of its own copy on the chain
            sides = sorted(sides + clashing, key=_size_id)
        chain.append(_Frame(clause, signs, step, candidates(clause, sides)))

    work = 0
    for limit in range(1, budget + 1):
        truncated = False
        for goal in goals:
            chain: list[_Frame] = []
            path_keys = {goal.literals}
            push(chain, goal, None)
            while chain:
                top = chain[-1]
                side, res = next(
                    ((s, r) for s, r in top.untried if r.literals not in path_keys), (None, None)
                )
                if res is not None and res.is_empty:
                    steps = [f.step for f in chain[1:]] + [(top.clause, side, reach(res))]
                    return HALT_EMPTY, len(steps), steps
                if res is None or len(chain) >= limit:
                    truncated = truncated or res is not None
                    path_keys.discard(chain.pop().clause.literals)
                    continue
                work += 1
                if work > _WORK_LIMIT:
                    if derivation is None:
                        _, _, derivation = _given_clause_loop(
                            tset, kept_goals, others, _SATURATE_CAP
                        )
                    if 0 < len(derivation) <= budget:
                        return HALT_EMPTY, len(derivation), derivation
                    return HALT_BUDGET, 0, []
                stored = reach(res)
                path_keys.add(stored.literals)
                push(chain, stored, (top.clause, side, stored))
        if not truncated:
            # every chain bottomed out before the depth limit: deepening
            # further cannot help
            return HALT_NO_PAIR, 0, []
    return HALT_BUDGET, 0, []
