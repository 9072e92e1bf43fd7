"""Synthetic labeled theories with gold refutation proofs, the training
record extractor, and the model-enumeration oracle used to check every
label independently of the resolution engine.

The oracle grounds each clause set over its Herbrand domain (the constants
that occur, plus one witness constant when none do) and decides
satisfiability by exhaustive assignment search with unit propagation. That
is a completely separate decision path from resolution, which is exactly
why it can arbitrate.

Grounding builds no terms: each clause is compiled once into literal
templates whose variables are slot numbers, and each assignment yields atom
keys (predicate, constant names) that are numbered in first-use order. A
theory is ground once per domain and kept in a bounded memo, so the checks
that add a hypothesis or its negation to the same theory ground only what
they add, numbering new atoms after the theory's.

Ground clauses and assignments are pairs of atom bitmasks, so propagation
is a few integer operations per clause. The memo entry also keeps the
theory's propagated state, which every check starts from, and a few models
found by earlier checks. A check whose added clauses hold in a stored model
(with the atoms the theory lacks set false) is satisfiable, since that
assignment satisfies the whole list; every other check is searched in full.
The search is still exhaustive: "unsatisfiable" means that no assignment
works.
"""

from __future__ import annotations

import json
import math
import random
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import count, product
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .engine import DEFAULT_BUDGET, ProofStep
from .judge import (
    FALSE,
    SATISFIABLE,
    TRUE,
    UNKNOWN,
    UNSATISFIABLE,
    check_sat,
    judge,
    nl_renderer,
    refutation_target,
)
from .language import Lexicon, Sentence, to_sentence
from .logic import Clause, Const, Func, Literal, Var, clause_to_str
from .normalize import Formula, compile_clauses

ORACLE_MAX_ATOMS = 24
MAX_EXISTENTIAL_FACTS = 2
_STALL_LIMIT = 2000
# Candidate hypotheses judged per sampled theory.
_MAX_CANDIDATES = 16

NAME_POOL = ("Bob", "Alan", "Erin", "Gary", "Dave", "Fiona")
ATTR_POOL = (
    "kind", "round", "rough", "tall", "happy", "big", "blue", "green",
    "quiet", "smart", "brave", "calm",
)


class OracleOverflowError(Exception):
    """Ground atom space too large to enumerate."""


class InconsistentTheoryError(Exception):
    """The theory entails both the hypothesis and its negation."""


class GenerationError(Exception):
    """Engine verdict disagreed with the oracle during generation."""


class GenerationStalledError(Exception):
    """Acceptance rate fell below the floor; names the failing constraint."""


# ---------------------------------------------------------------------------
# Model-enumeration oracle
#
# A ground clause is a pair of bitmasks (positive atoms, negated atoms), bit
# i standing for atom i; an assignment is likewise a pair (true atoms, false
# atoms). A model is the int of its true atoms: every atom not in it is false.


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
    propagation alone refutes it), and models found by earlier checks. Only
    the model store changes after construction."""

    __slots__ = ("atoms", "ground", "seen", "base", "mask", "models")

    def __init__(self, theory: tuple[tuple[Literal, ...], ...], domain: tuple[str, ...]):
        self.atoms: dict = {}
        self.ground = list(dict.fromkeys(_ground_instances(theory, domain, {}, self.atoms)))
        self.seen = set(self.ground)
        self.base = _propagate(self.ground, 0, 0)
        self.mask = (1 << (len(self.atoms) + 1)) - 2
        self.models: deque[int] = deque(maxlen=_MODEL_STORE_SIZE)


# One entry per (theory, domain): atom numbers, ground clauses, propagated
# state and up to _MODEL_STORE_SIZE models, about 13 KB for a default-size
# theory at the 24-atom cap. generate() makes at most 17 oracle calls on one
# theory in a row (oracle_sat, then oracle_entail per candidate hypothesis,
# over one or two domains), so a small bound keeps every hit, and with it
# the models those calls store.
_GROUND_CACHE_SIZE = 64


@lru_cache(maxsize=_GROUND_CACHE_SIZE)
def _ground_theory(
    theory: tuple[tuple[Literal, ...], ...], domain: tuple[str, ...]
) -> _TheoryGrounding:
    return _TheoryGrounding(theory, domain)


def _ground(
    theory: tuple[tuple[Literal, ...], ...],
    extra: Iterable[tuple[Literal, ...]],
    max_atoms: int,
) -> tuple[_TheoryGrounding, list[tuple[int, int]]]:
    """The ground clauses of `theory + extra` over their Herbrand domain (the
    constants, or the witness c0 when there are none): the theory's memoized
    grounding and the instances of `extra` that it lacks. Atoms are numbered
    exactly as when the whole list is ground at once."""
    extra = list(extra)
    consts: dict[str, None] = {}
    preds: dict[tuple[str, int], None] = {}
    for literals in (*theory, *extra):
        for lit in literals:
            preds.setdefault((lit.pred, len(lit.args)))
            for a in lit.args:
                if isinstance(a, Func):
                    raise OracleOverflowError(
                        "oracle_overflow: function terms are outside oracle reach"
                    )
                if isinstance(a, Const):
                    consts.setdefault(a.name)
    domain = tuple(consts) or ("c0",)
    n_atoms = sum(len(domain) ** arity for _, arity in preds)
    if n_atoms > max_atoms:
        raise OracleOverflowError(
            f"oracle_overflow: {n_atoms} ground atoms exceeds the cap of {max_atoms}"
        )
    grounding = _ground_theory(theory, domain)
    instances = dict.fromkeys(_ground_instances(extra, domain, grounding.atoms, {}))
    return grounding, [g for g in instances if g not in grounding.seen]


def _satisfiable(
    theory: tuple[tuple[Literal, ...], ...],
    extra: Iterable[tuple[Literal, ...]],
    max_atoms: int,
) -> bool:
    """Is `theory + extra` satisfiable? A stored model answers when it fits;
    otherwise the search starts from the theory's propagated state, and the
    model it finds is stored."""
    grounding, ground = _ground(theory, extra, max_atoms)
    if grounding.base is None:
        return False
    # A stored model, with every atom the theory lacks set false, is a full
    # assignment that satisfies the theory; if it satisfies the added
    # clauses too, the whole list is satisfiable.
    if any(all(pos & m or neg & ~m for pos, neg in ground) for m in grounding.models):
        return True
    t, f, open_ = grounding.base
    model = _solve([*open_, *ground], t, f)
    if model is None:
        return False
    model &= grounding.mask
    if model not in grounding.models:
        grounding.models.append(model)
    return True


def oracle_sat(clauses: Iterable[Clause], max_atoms: int = ORACLE_MAX_ATOMS) -> bool:
    """Satisfiability by exhaustive search over ground-atom assignments."""
    return _satisfiable(tuple(c.literals for c in clauses), (), max_atoms)


def oracle_entail(
    theory: Iterable[Clause],
    hypothesis: Formula,
    max_atoms: int = ORACLE_MAX_ATOMS,
) -> str:
    """True when every model of the theory satisfies the hypothesis, False
    when every model satisfies its negation, Unknown otherwise.

    Both checks run as satisfiability questions over the theory plus the
    clause form of the (negated) hypothesis, so universal hypotheses get
    their witness constant for free.
    """
    theory, h_clauses, neg_clauses = compile_clauses(theory, hypothesis)
    key = tuple(c.literals for c in theory)
    sat_with_neg = _satisfiable(key, (c.literals for c in neg_clauses), max_atoms)
    sat_with_h = _satisfiable(key, (c.literals for c in h_clauses), max_atoms)
    if sat_with_h and sat_with_neg:
        return UNKNOWN
    if sat_with_h:
        return TRUE
    if sat_with_neg:
        return FALSE
    raise InconsistentTheoryError("theory is unsatisfiable on its own")


# ---------------------------------------------------------------------------
# Configuration and instances


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    n_entities: int = 4
    n_attributes: int = 6
    n_facts: int = 5
    n_rules: int = 5
    max_rule_body: int = 2
    p_negation: float = 0.25
    allow_existential: bool = False
    target_depth_range: tuple[int, int] = (0, 5)
    label_mix: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)

    def validate(self, rule_only: bool = False) -> None:
        for name in ("n_entities", "n_attributes", "n_facts", "n_rules", "max_rule_body"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.n_entities > len(NAME_POOL):
            raise ValueError(f"n_entities capped at {len(NAME_POOL)} by the name pool")
        if self.n_attributes > len(ATTR_POOL):
            raise ValueError(f"n_attributes capped at {len(ATTR_POOL)} by the attribute pool")
        if self.max_rule_body >= self.n_attributes:
            raise ValueError("max_rule_body must leave at least one head attribute")
        if not 0.0 <= self.p_negation <= 1.0:
            raise ValueError("p_negation must be in [0, 1]")
        lo, hi = self.target_depth_range
        if lo < 0 or hi < lo:
            raise ValueError("target_depth_range must satisfy 0 <= lo <= hi")
        if len(self.label_mix) != 3 or not all(
            math.isfinite(p) and p >= 0 for p in self.label_mix
        ):
            raise ValueError("label_mix needs three finite non-negative proportions")
        if abs(sum(self.label_mix) - 1.0) > 1e-9:
            raise ValueError("label_mix must sum to 1")
        # Rule-only theories ground over a single witness constant; judged
        # theories over every entity plus any existential sk-constants
        # (existential facts, plus one for an existential hypothesis).
        if rule_only:
            worst = 1
        else:
            worst = self.n_entities + (MAX_EXISTENTIAL_FACTS + 1 if self.allow_existential else 0)
        if worst * self.n_attributes > ORACLE_MAX_ATOMS:
            raise ValueError(
                "oracle_overflow: worst-case ground atoms "
                f"{worst * self.n_attributes} exceed {ORACLE_MAX_ATOMS}; "
                "shrink n_entities or n_attributes"
            )


@dataclass
class Instance:
    id: str
    theory: list[str]
    theory_fol: list[str]
    hypothesis: str
    hypothesis_fol: str
    label: str
    depth: int
    gold_proof: list[ProofStep]
    meta: dict

    def lexicon(self) -> Lexicon:
        return Lexicon(
            entities=tuple(self.meta.get("entities", ())),
            attributes=tuple(self.meta.get("attributes", ())),
        )


def instance_to_dict(inst: Instance) -> dict:
    return {
        "id": inst.id,
        "theory": inst.theory,
        "theory_fol": inst.theory_fol,
        "hypothesis": inst.hypothesis,
        "hypothesis_fol": inst.hypothesis_fol,
        "label": inst.label,
        "depth": inst.depth,
        "gold_proof": [s.to_dict() for s in inst.gold_proof],
        "meta": inst.meta,
    }


def instance_from_dict(d: dict) -> Instance:
    theory, hypothesis = list(d["theory"]), d["hypothesis"]
    # Parsed later, where only grammar errors are expected.
    if not all(isinstance(t, str) for t in [*theory, hypothesis]):
        raise TypeError("theory and hypothesis must be sentences (strings)")
    meta = dict(d["meta"])
    for key in ("entities", "attributes"):
        words = meta.get(key, [])
        if not (isinstance(words, list) and all(isinstance(w, str) for w in words)):
            raise TypeError(f"meta.{key} must be a list of words (strings)")
    inst = Instance(
        id=d["id"],
        theory=theory,
        theory_fol=list(d["theory_fol"]),
        hypothesis=hypothesis,
        hypothesis_fol=d["hypothesis_fol"],
        label=d["label"],
        depth=d["depth"],
        gold_proof=[ProofStep.from_dict(s) for s in d["gold_proof"]],
        meta=meta,
    )
    inst.lexicon()  # a vocabulary Lexicon rejects raises ValueError here
    return inst


def write_jsonl(instances: Iterable[Instance], path) -> int:
    n = 0
    with open(path, "w") as fh:
        for inst in instances:
            fh.write(json.dumps(instance_to_dict(inst), ensure_ascii=False) + "\n")
            n += 1
    return n


def read_jsonl(path) -> list[Instance]:
    """Instances, one per non-blank line. A line that is not an instance
    record raises ValueError naming the file and line number."""
    out = []
    for n, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if line.strip():
            try:
                out.append(instance_from_dict(json.loads(line)))
            except (ValueError, KeyError, TypeError) as e:
                raise ValueError(
                    f"{path}:{n}: not an instance record ({type(e).__name__}: {e})"
                ) from e
    return out


# ---------------------------------------------------------------------------
# Theory sampling


def _capitalize(s: str) -> str:
    return s[0].upper() + s[1:]


def _render_rule(body: list[str], head: str, neg_head: bool, form: str) -> str:
    head_s = ("not " if neg_head else "") + head
    if form == "people":
        s = ", ".join(body) + f" people are {head_s}."
    elif form == "if":
        s = "if someone is " + " and ".join(body) + f" then they are {head_s}."
    else:
        s = "everyone is " + " or ".join(f"not {b}" for b in body) + f" or {head_s}."
    return _capitalize(s)


def _rule_key(body: list[str], head: str, neg_head: bool) -> frozenset:
    """What a rule compiles to, without compiling it: its clause is the
    disjunction of these signed attributes, so two rules share a key exactly
    when they share a clause (`a, b -> not c` and `a, c -> not b` do)."""
    return frozenset({(False, b) for b in body} | {(not neg_head, head)})


def _sample_theory(
    rng: random.Random, cfg: GenConfig, entities: list[str], attributes: list[str]
) -> Optional[list[str]]:
    """Template sentences for one theory, no two of which compile to the
    same clause (existential facts are kept apart by their index), or None
    when a draw keeps repeating."""
    texts: list[str] = []
    keys = set()
    n_exist = 0
    for _ in range(cfg.n_facts):
        for _attempt in range(30):
            existential = (
                cfg.allow_existential
                and n_exist < MAX_EXISTENTIAL_FACTS
                and rng.random() < 0.3
            )
            adj = rng.choice(attributes)
            neg = rng.random() < cfg.p_negation
            if existential:
                text = f"Someone is {'not ' if neg else ''}{adj}."
                key = ("exist", adj, neg, n_exist)
            else:
                ent = rng.choice(entities)
                text = f"{ent} is {'not ' if neg else ''}{adj}."
                key = ("fact", ent, adj, neg)
            if text in texts or key in keys:
                continue
            texts.append(text)
            keys.add(key)
            n_exist += existential
            break
        else:
            return None
    for _ in range(cfg.n_rules):
        for _attempt in range(30):
            body_n = rng.randint(1, cfg.max_rule_body)
            body = rng.sample(attributes, body_n)
            head_pool = [a for a in attributes if a not in body]
            head = rng.choice(head_pool)
            neg = rng.random() < cfg.p_negation
            form = rng.choice(("people", "if", "everyone"))
            text = _render_rule(body, head, neg, form)
            key = _rule_key(body, head, neg)
            if text in texts or key in keys:
                continue
            texts.append(text)
            keys.add(key)
            break
        else:
            return None
    return texts


def _theory_clauses(sentences: list[Sentence]) -> tuple[list[Clause], list[str]]:
    """The theory's clauses, Skolem-named exactly as the judge will name them
    when it compiles the same sentences, and their FOL strings.

    Each generator template (a literal fact, or a rule whose head is not in
    its body) compiles to one clause, so clause i is sentence i's. Only the
    total count is checked here; tests check the per-sentence alignment.
    """
    clauses, _, _ = compile_clauses(s.formula for s in sentences)
    assert len(clauses) == len(sentences), "as many clauses as template sentences"
    return clauses, [clause_to_str(c) for c in clauses]


def _candidate_hypotheses(
    rng: random.Random,
    entities: list[str],
    attributes: list[str],
    fact_texts: list[str],
    allow_existential: bool = False,
) -> list[str]:
    """Candidate hypotheses, shuffled but with atoms that are not already
    stated as facts first: those force the label through rule chains, which
    keeps refutation depths from collapsing to one step. In existential mode
    "Someone is ..." hypotheses join the pool; proving one of those is what
    pulls sk-constants into gold proofs."""
    cands = [
        (e, a, neg) for e in entities for a in attributes for neg in (False, True)
    ]
    if allow_existential:
        cands += [("Someone", a, neg) for a in attributes for neg in (False, True)]
    rng.shuffle(cands)
    stated = set()
    for t in fact_texts:
        words = t.rstrip(".").split()
        if len(words) >= 3 and words[1] == "is":
            stated.add((words[0], words[-1]))
    fresh = [c for c in cands if (c[0], c[1]) not in stated]
    direct = [c for c in cands if (c[0], c[1]) in stated]
    ordered = direct + fresh if rng.random() < 0.25 else fresh + direct
    return [f"{e} is {'not ' if neg else ''}{a}." for e, a, neg in ordered]


# ---------------------------------------------------------------------------
# Generators


class _Draw(NamedTuple):
    """One accepted candidate: an instance but for its id, depth and meta."""

    theory: list[str]
    theory_fol: list[str]
    label: str
    proof: list[ProofStep]
    hypothesis: str = ""
    hypothesis_fol: str = ""


def _label_quota_loop(
    draw: Callable[[str], Optional[_Draw]],
    mix: dict[str, float],
    wanted: Callable[[str], str],
    id_prefix: str,
    meta: dict,
) -> Iterator[Instance]:
    """Endless stream of drawn instances under a label quota.

    Each instance is drawn for the label furthest behind its share of `mix`
    (ties go to the earlier label), so every prefix of the stream is as
    close to the mix as arithmetic allows. `draw` samples, labels and proves
    one candidate of that label, or rejects it with None; after _STALL_LIMIT
    rejections in a row, GenerationStalledError names what was wanted.
    Instances are numbered `{id_prefix}-00000` on, each with a copy of
    `meta`.
    """
    counts = dict.fromkeys(mix, 0)
    for n in count():
        need = min((l for l in mix if mix[l] > 0), key=lambda l: counts[l] / mix[l])
        for _ in range(_STALL_LIMIT):
            d = draw(need)
            if d is not None:
                break
        else:
            raise GenerationStalledError(
                f"generation_stalled: no {wanted(need)} after {_STALL_LIMIT} attempts"
            )
        counts[d.label] += 1
        yield Instance(
            id=f"{id_prefix}-{n:05d}",
            theory=list(d.theory),
            theory_fol=d.theory_fol,
            hypothesis=d.hypothesis,
            hypothesis_fol=d.hypothesis_fol,
            label=d.label,
            depth=len(d.proof),
            gold_proof=d.proof,
            meta=dict(meta),
        )


def generate(config: GenConfig, budget: int = DEFAULT_BUDGET) -> Iterator[Instance]:
    """Endless stream of labeled instances matching the config.

    Theories are rejection-sampled from the grammar, discarded when
    inconsistent, labeled by the oracle and proved by the engine; a label
    quota scheduler keeps every prefix of the stream as close to label_mix
    as arithmetic allows. Deterministic for a fixed config. The config is
    checked on the call, before the first instance is asked for.
    """
    config.validate()
    rng = random.Random(config.seed)
    entities = list(NAME_POOL[: config.n_entities])
    attributes = list(ATTR_POOL[: config.n_attributes])
    lex = Lexicon(entities=tuple(entities), attributes=tuple(attributes))
    lo, hi = config.target_depth_range

    def draw(need: str) -> Optional[_Draw]:
        texts = _sample_theory(rng, config, entities, attributes)
        if texts is None:
            return None
        sentences = [to_sentence(t, lex) for t in texts]
        try:
            clauses, theory_fol = _theory_clauses(sentences)
            if not oracle_sat(clauses):
                return None
        except OracleOverflowError:
            return None
        candidates = _candidate_hypotheses(
            rng, entities, attributes, texts, config.allow_existential
        )
        for h_text in candidates[:_MAX_CANDIDATES]:
            h_sentence = to_sentence(h_text, lex)
            try:
                label = oracle_entail(clauses, h_sentence.formula)
            except OracleOverflowError:
                return None
            if label != need:
                continue
            verdict = judge(sentences, h_sentence, budget=budget, lexicon=lex)
            if verdict.label != label:
                raise GenerationError(
                    f"engine/oracle disagreement: oracle={label} "
                    f"engine={verdict.label} on theory={texts!r} h={h_text!r}"
                )
            if label != UNKNOWN and not (lo <= len(verdict.proof) <= hi):
                continue
            # Compiled after the theory clauses, so the hypothesis clause
            # gets the same sk-names the judge assigns.
            _, h_cls, _ = compile_clauses(clauses, h_sentence.formula)
            return _Draw(texts, theory_fol, label, verdict.proof, h_text, clause_to_str(h_cls[0]))
        return None

    return _label_quota_loop(
        draw,
        dict(zip((TRUE, FALSE, UNKNOWN), config.label_mix)),
        lambda need: f"instance with label {need} and depth in [{lo}, {hi}]",
        f"gen-{config.seed}",
        {
            "seed": config.seed,
            "entities": entities,
            "attributes": attributes,
            "existential": config.allow_existential,
        },
    )


def generate_nlsat(
    config: GenConfig,
    fraction_unsat: float = 0.5,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[Instance]:
    """Endless stream of rule-only theories labeled Satisfiable or
    Unsatisfiable. Unsatisfiable cases carry a refutation proof; their
    depth comes from a planted contradiction chain whose length is drawn
    from target_depth_range. The arguments are checked on the call, before
    the first instance is asked for."""
    config.validate(rule_only=True)
    if not 0.0 <= fraction_unsat <= 1.0:
        raise ValueError("fraction_unsat must be in [0, 1]")
    rng = random.Random(config.seed)
    attributes = list(ATTR_POOL[: config.n_attributes])
    lex = Lexicon(entities=(), attributes=tuple(attributes))
    lo, hi = config.target_depth_range
    hi = max(1, min(hi, config.n_attributes))
    lo = max(1, min(lo, hi))

    def draw(need: str) -> Optional[_Draw]:
        if need == UNSATISFIABLE:
            depth_target = rng.randint(lo, hi)
            chain = rng.sample(attributes, depth_target)
            texts = [_capitalize(f"everyone is {chain[0]}.")]
            for a, b in zip(chain, chain[1:]):
                texts.append(_render_rule([a], b, False, rng.choice(("people", "if", "everyone"))))
            texts.append(_capitalize(f"everyone is not {chain[-1]}."))
        else:
            texts = []
            for _ in range(config.n_rules):
                body_n = rng.randint(1, config.max_rule_body)
                body = rng.sample(attributes, body_n)
                head = rng.choice([a for a in attributes if a not in body])
                neg = rng.random() < config.p_negation
                texts.append(_render_rule(body, head, neg, rng.choice(("people", "if", "everyone"))))
        # distractor rules for both labels
        for _ in range(rng.randint(0, 2)):
            body = rng.sample(attributes, 1)
            head = rng.choice([a for a in attributes if a not in body])
            texts.append(_render_rule(body, head, rng.random() < 0.5, rng.choice(("people", "if"))))
        texts = list(dict.fromkeys(texts))
        rng.shuffle(texts)
        sentences = [to_sentence(t, lex) for t in texts]
        try:
            clauses, theory_fol = _theory_clauses(sentences)
            satisfiable = oracle_sat(clauses)
        except OracleOverflowError:
            return None
        label = SATISFIABLE if satisfiable else UNSATISFIABLE
        if label != need:
            return None
        result = check_sat(sentences, budget=budget, lexicon=lex)
        if satisfiable and result.status != SATISFIABLE:
            raise GenerationError(f"engine refuted an oracle-satisfiable theory: {texts!r}")
        if result.status != label:
            # In-budget refutation is part of the dataset contract: an
            # unsatisfiable instance must ship with a gold proof.
            return None
        return _Draw(texts, theory_fol, label, result.proof)

    return _label_quota_loop(
        draw,
        {UNSATISFIABLE: fraction_unsat, SATISFIABLE: 1.0 - fraction_unsat},
        lambda need: f"{need} rule-only theory",
        f"nlsat-{config.seed}",
        {"seed": config.seed, "entities": [], "attributes": attributes, "kind": "nlsat"},
    )


# ---------------------------------------------------------------------------
# Training record extraction


def extract_training_samples(inst: Instance) -> list[dict]:
    """Four records per proof step: select-the-pair, select-the-partner in
    both directions, and compose-the-conclusion. The context grows as
    earlier conclusions merge into the theory set."""
    if inst.label == UNKNOWN:
        raise ValueError("no training records for an Unknown instance")
    if not inst.gold_proof:
        return []
    lex = inst.lexicon()
    target = refutation_target(inst.theory, inst.hypothesis, inst.label, lex, nl_renderer(lex))
    context = [target.nl_of(c) for c in target.clauses]
    records: list[dict] = []
    for step in inst.gold_proof:
        ti, tj = step.premises_nl
        tk = step.conclusion_nl
        snapshot = list(context)
        records.append({"kind": "pre_s", "context": snapshot, "input": [], "target": [ti, tj]})
        records.append({"kind": "post_s", "context": snapshot, "input": [ti], "target": [tj]})
        records.append({"kind": "post_s", "context": snapshot, "input": [tj], "target": [ti]})
        records.append({"kind": "kc", "context": [], "input": [ti, tj], "target": [tk]})
        context.append(tk)
    return records


def write_training_records(records: Iterable[dict], path) -> int:
    n = 0
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
            n += 1
    return n
