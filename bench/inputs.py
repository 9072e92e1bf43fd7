"""Seeded inputs for the prove-* workloads.

The theories are drawn here, from the template grammar, and not taken from
`nlprover.datagen.generate()`: the generator filters on proof depth and
draws from one rng stream with the engine in the loop, so a change to the
search would silently change the benchmark's inputs. Only the oracle
(`datagen.oracle_entail`, grounding plus DPLL) labels the hypotheses, and
the digest of the result is compared across commits.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass

# Library functions are called through their modules so that a traced run
# sees these calls too.
from nlprover import datagen, language, normalize
from nlprover.judge import FALSE, TRUE, UNKNOWN

NAMES = ("Bob", "Alan", "Erin", "Gary", "Dave", "Fiona")
ATTRS = (
    "kind", "round", "rough", "tall", "happy", "big", "blue", "green",
    "quiet", "smart", "brave", "calm",
)
RULE_FORMS = ("people", "if", "everyone")
LABEL_ORDER = (TRUE, FALSE, UNKNOWN)
# Hypotheses tried per theory before it is dropped for lack of the label
# the quota needs.
MAX_CANDIDATES = 16


@dataclass(frozen=True)
class Shape:
    name: str
    n_entities: int
    n_attributes: int
    n_facts: int
    n_rules: int
    max_body: int
    p_negation: float = 0.25


# The three acceptance-suite configurations, weighted 400:300:300 as there.
DEFAULT_SHAPES = (
    (Shape("4x6", 4, 6, 5, 5, 2), 4),
    (Shape("6x4", 6, 4, 6, 5, 2), 3),
    (Shape("3x8", 3, 8, 5, 6, 2), 3),
)
# RuleTaker-sized theories (16 and 24 sentences) inside the oracle's
# 24-ground-atom cap.
PAPER_SHAPES = (
    (Shape("3x8-paper", 3, 8, 10, 14, 3), 1),
    (Shape("2x12-paper", 2, 12, 6, 18, 2), 1),
)


@dataclass(frozen=True)
class ProveInput:
    id: str
    shape: str
    entities: tuple[str, ...]
    attributes: tuple[str, ...]
    theory: tuple[str, ...]
    hypothesis: str
    label: str

    def lexicon(self) -> language.Lexicon:
        return language.Lexicon(entities=self.entities, attributes=self.attributes)


def _rule_text(body: list[str], head: str, neg: bool, form: str) -> str:
    head_s = ("not " if neg else "") + head
    if form == "people":
        s = ", ".join(body) + f" people are {head_s}."
    elif form == "if":
        s = "if someone is " + " and ".join(body) + f" then they are {head_s}."
    else:
        s = "everyone is " + " or ".join(f"not {b}" for b in body) + f" or {head_s}."
    return s[0].upper() + s[1:]


def _sample_theory(rng: random.Random, shape: Shape, ents, attrs) -> list[str]:
    """Facts over distinct (entity, attribute) pairs and rules over distinct
    (body, head, polarity) triples, each rule in one of the three forms."""
    texts: list[str] = []
    facts = rng.sample([(e, a) for e in ents for a in attrs], shape.n_facts)
    for e, a in facts:
        neg = rng.random() < shape.p_negation
        texts.append(f"{e} is {'not ' if neg else ''}{a}.")
    keys = set()
    while len(keys) < shape.n_rules:
        body = rng.sample(attrs, rng.randint(1, shape.max_body))
        head = rng.choice([a for a in attrs if a not in body])
        neg = rng.random() < shape.p_negation
        form = rng.choice(RULE_FORMS)
        key = (frozenset(body), head, neg)
        if key in keys:
            continue
        keys.add(key)
        texts.append(_rule_text(body, head, neg, form))
    return texts


def sample(seed: int, shapes, count: int, tag: str) -> list[ProveInput]:
    """`count` oracle-labelled instances, one hypothesis per theory, with
    shapes interleaved by weight and labels balanced True/False/Unknown
    the way the generator's quota keeps them. Inconsistent theories are
    skipped."""
    rng = random.Random(f"{tag}:{seed}")
    schedule = [shape for shape, weight in shapes for _ in range(weight)]
    counts = dict.fromkeys(LABEL_ORDER, 0)
    out: list[ProveInput] = []
    while len(out) < count:
        shape = schedule[len(out) % len(schedule)]
        need = min(LABEL_ORDER, key=lambda l: (counts[l], LABEL_ORDER.index(l)))
        ents = NAMES[: shape.n_entities]
        attrs = ATTRS[: shape.n_attributes]
        lex = language.Lexicon(entities=ents, attributes=attrs)
        texts = _sample_theory(rng, shape, ents, attrs)
        clauses = [
            c for t in texts for c in normalize.to_clauses(language.to_sentence(t, lex).formula)
        ]
        if not datagen.oracle_sat(clauses):
            continue
        cands = [(e, a, neg) for e in ents for a in attrs for neg in (False, True)]
        rng.shuffle(cands)
        for e, a, neg in cands[:MAX_CANDIDATES]:
            h = f"{e} is {'not ' if neg else ''}{a}."
            if datagen.oracle_entail(clauses, language.to_sentence(h, lex).formula) == need:
                out.append(
                    ProveInput(
                        id=f"{tag}-{seed}-{len(out):04d}",
                        shape=shape.name,
                        entities=ents,
                        attributes=attrs,
                        theory=tuple(texts),
                        hypothesis=h,
                        label=need,
                    )
                )
                counts[need] += 1
                break
    return out


def digest(items) -> str:
    """SHA-256 over the canonical JSON of the inputs."""
    h = hashlib.sha256()
    for it in items:
        h.update(json.dumps(asdict(it), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()
