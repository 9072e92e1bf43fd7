"""Top-level decision procedures: dual-set refutation for hypothesis
labeling, and single-set satisfiability for rule-only theories.

A hypothesis is judged by refuting both T1 (theory plus hypothesis) and
T2 (theory plus negated hypothesis): a contradiction only in T2 proves the
hypothesis True, only in T1 proves it False, in neither leaves it Unknown.
Budget exhaustion on a set counts as "no contradiction" for that set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .engine import (
    DEFAULT_BUDGET,
    SOS_LINEAR,
    UNRESTRICTED,
    ProofStep,
    RefutationResult,
    TheorySet,
    refute,
)
from .language import (
    DEFAULT_LEXICON,
    Lexicon,
    Sentence,
    UnrealizableError,
    realize_clause,
    to_sentence,
)
from .logic import Clause, clause_to_str
from .normalize import build_theory_sets, compile_clauses, theory_set

TRUE = "True"
FALSE = "False"
UNKNOWN = "Unknown"
LABELS = (TRUE, FALSE, UNKNOWN)

SATISFIABLE = "Satisfiable"
UNSATISFIABLE = "Unsatisfiable"

# The set a proof of each label refutes, as an index into (T1, T2): T2 for
# True, T1 for False. Any other label has no hypothesis side.
_PROOF_SIDE = {TRUE: 1, FALSE: 0}


def nl_renderer(lex: Lexicon) -> Callable[[Clause], str]:
    """Clause renderer for `refute` and training records: template sentence
    when one fits, otherwise the clause's textual form."""

    def render(c: Clause) -> str:
        try:
            return realize_clause(c, lex)
        except UnrealizableError:
            return clause_to_str(c)

    return render


def target_clauses(
    theory: Sequence[str],
    hypothesis: str,
    label: str,
    lexicon: Lexicon,
) -> tuple[list[Clause], list[Clause]]:
    """The clauses a proof of `label` refutes, as (theory clauses, goals):
    the goals are the hypothesis clauses for False, those of its negation
    for True, and none for any other label (a rule-only refutation). They
    come from one compilation, already canonical and free of tautologies,
    and the hypothesis is parsed only when the label needs it. `lexicon`
    parses the sentences. Raises ParseError on a sentence outside the
    grammar and CnfBlowupError on an oversized clause form."""
    formulas = [to_sentence(t, lexicon).formula for t in theory]
    if label not in _PROOF_SIDE:
        return compile_clauses(formulas)[0], []
    h = to_sentence(hypothesis, lexicon).formula
    theory_clauses, *goals = compile_clauses(formulas, h)
    return theory_clauses, goals[_PROOF_SIDE[label]]


def refutation_target(
    theory: Sequence[str],
    hypothesis: str,
    label: str,
    lexicon: Lexicon,
) -> TheorySet:
    """The clause set a proof of `label` refutes: T2 for True, T1 for False,
    and the theory alone for any other label, built from `target_clauses`.
    A caller that renders the set's clauses, as training-record extraction
    does, renders them with `nl_renderer`."""
    return theory_set(*target_clauses(theory, hypothesis, label, lexicon))


@dataclass
class Verdict:
    label: str
    proof: list[ProofStep] = field(default_factory=list)
    steps_t1: int = 0
    steps_t2: int = 0
    tie_broken: bool = False
    halt_t1: str = ""
    halt_t2: str = ""


def tie_break(r1: RefutationResult, r2: RefutationResult) -> str:
    """Both sets refuted (inconsistent input or engine fault): fewer steps
    wins, an exact tie stays Unknown."""
    if r2.steps_used < r1.steps_used:
        return TRUE
    if r1.steps_used < r2.steps_used:
        return FALSE
    # Imported here, so that importing the package does not load logging.
    import logging

    logging.getLogger(__name__).warning(
        "both theory sets refuted in %d steps; returning Unknown", r1.steps_used
    )
    return UNKNOWN


def judge(
    nlt: Sequence[Sentence],
    hypothesis: Sentence,
    budget: int = DEFAULT_BUDGET,
    strategy: str = SOS_LINEAR,
    lexicon: Lexicon = DEFAULT_LEXICON,
) -> Verdict:
    """Label `hypothesis` against the theory `nlt`."""
    t1, t2 = build_theory_sets([s.formula for s in nlt], hypothesis.formula)
    render = nl_renderer(lexicon)
    r1 = refute(t1, strategy=strategy, budget=budget, render=render)
    r2 = refute(t2, strategy=strategy, budget=budget, render=render)
    tie = r1.refuted and r2.refuted
    if tie:
        label = tie_break(r1, r2)
    else:
        label = TRUE if r2.refuted else FALSE if r1.refuted else UNKNOWN
    side = _PROOF_SIDE.get(label)
    return Verdict(
        label=label,
        proof=[] if side is None else (r1, r2)[side].proof,
        steps_t1=r1.steps_used,
        steps_t2=r2.steps_used,
        tie_broken=tie,
        halt_t1=r1.halt_reason,
        halt_t2=r2.halt_reason,
    )


@dataclass
class SatResult:
    status: str
    proof: list[ProofStep] = field(default_factory=list)
    steps_used: int = 0
    halt_reason: str = ""


def check_sat(
    nlt: Sequence[Sentence],
    budget: int = DEFAULT_BUDGET,
    lexicon: Lexicon = DEFAULT_LEXICON,
) -> SatResult:
    """Is the theory self-contradictory? No hypothesis and no goal clause,
    so the search runs unrestricted rather than goal-directed."""
    clauses = compile_clauses(s.formula for s in nlt)[0]
    tset = theory_set(clauses)
    result = refute(tset, strategy=UNRESTRICTED, budget=budget, render=nl_renderer(lexicon))
    status = UNSATISFIABLE if result.refuted else SATISFIABLE
    return SatResult(
        status=status,
        proof=result.proof,
        steps_used=result.steps_used,
        halt_reason=result.halt_reason,
    )
