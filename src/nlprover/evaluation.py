"""Scoring protocol: per-step proof validity, entailment accuracy and full
accuracy, plus a reference implementation of the validity contrastive loss.

A predicted step is valid iff its conclusion is a binary resolvent of its
two premises (possibly followed by factoring); the check is symbolic, never
string matching, so a proof that takes a different valid route than the
gold proof still scores as correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .engine import inferences
from .judge import SATISFIABLE, UNKNOWN, target_clauses
from .language import DEFAULT_LEXICON, Lexicon
from .logic import ClauseFormatError, canonical_key, parse_clause
from .normalize import CnfBlowupError


def check_step(premises: tuple[str, str], conclusion: str) -> bool:
    """Can the conclusion be derived from the two premises in one resolution
    step (with optional factoring of the resolvent)? Malformed clause text
    counts as an invalid step."""
    try:
        p1 = parse_clause(premises[0])
        p2 = parse_clause(premises[1])
        concl = parse_clause(conclusion)
    except ClauseFormatError:
        return False
    target = canonical_key(concl)
    return any(canonical_key(c) == target for c in inferences(p1, p2))


@dataclass
class PredictionRecord:
    """One scored instance: the original theory and hypothesis, the gold
    label, the model's predicted label and proof (a list of
    ((premise_fol, premise_fol), conclusion_fol) triples), and the lexicon
    the theory and hypothesis are parsed with."""

    instance_id: str
    theory: list[str]
    hypothesis: str
    gold_label: str
    predicted_label: str
    predicted_proof: list[tuple[tuple[str, str], str]] = field(default_factory=list)
    lexicon: Lexicon = DEFAULT_LEXICON


def check_proof(rec: PredictionRecord) -> bool:
    """Proof validity for one record.

    An Unknown or Satisfiable prediction carries no proof and counts as
    right exactly when the gold label is the same. Otherwise every step must
    be a valid resolution step, every premise must come from the input
    clauses of the predicted label's refutation target (see
    `judge.target_clauses`, parsed with the record's lexicon) or an
    earlier conclusion, and the proof must end in the empty clause.
    """
    if rec.predicted_label in (UNKNOWN, SATISFIABLE):
        return rec.gold_label == rec.predicted_label
    try:
        parts = target_clauses(rec.theory, rec.hypothesis, rec.predicted_label, rec.lexicon)
    except (ValueError, CnfBlowupError):
        # ParseError and UnknownWordError are ValueErrors
        return False
    available = {c.literals for part in parts for c in part}
    if not rec.predicted_proof:
        return False
    last = None
    for (p1, p2), concl in rec.predicted_proof:
        # check_step parsed all three texts; parse_clause's memo answers these
        if not check_step((p1, p2), concl):
            return False
        keys = [canonical_key(parse_clause(p)) for p in (p1, p2)]
        concl_key = canonical_key(parse_clause(concl))
        if any(k not in available for k in keys):
            return False
        available.add(concl_key)
        last = concl_key
    return last == ()


@dataclass(frozen=True)
class Scores:
    entailment_accuracy: float
    full_accuracy: float
    n: int


def score(records: Sequence[PredictionRecord]) -> Scores:
    """EA is the fraction of records with the right label; FA additionally
    requires a valid proof."""
    if not records:
        raise ValueError("cannot score an empty record list")
    ea_hits = 0
    fa_hits = 0
    for rec in records:
        if rec.predicted_label != rec.gold_label:
            continue
        ea_hits += 1
        if check_proof(rec):
            fa_hits += 1
    n = len(records)
    return Scores(entailment_accuracy=ea_hits / n, full_accuracy=fa_hits / n, n=n)


class DegenerateContrastError(ValueError):
    """No positives or no negatives: the contrastive loss is undefined."""


def vce_loss(
    similarities: Sequence[float],
    positive_idx: Sequence[int],
    negative_idx: Sequence[int],
) -> float:
    """Validity contrastive loss over one selection round.

        L = -(1/k) * sum_{j in P} log( exp(max(sim_j, 0.8))
                                       / sum_{i in R} exp(sim_i) )

    This is the formula as printed; min(sim_j, 0.8), capping a positive
    similarity at 0.8, is the other reading of the constant.
    """
    pos = list(positive_idx)
    neg = list(negative_idx)
    if not pos or not neg:
        raise DegenerateContrastError("degenerate_contrast")
    if set(pos) & set(neg):
        raise ValueError("positive and negative index sets overlap")
    denom = sum(math.exp(similarities[i]) for i in neg)
    total = 0.0
    for j in pos:
        total += math.log(math.exp(max(similarities[j], 0.8)) / denom)
    return -total / len(pos)
