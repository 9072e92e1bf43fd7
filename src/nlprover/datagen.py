"""Synthetic labeled theories with gold refutation proofs, the training
record extractor, and the model-enumeration oracle used to check every
label.

The oracle grounds each clause set over its Herbrand domain (the constants
that occur, plus one witness constant when none do) and decides
satisfiability by exhaustive assignment search with unit propagation
(`herbrand`). The engine's sos-linear pre-check decides function-free sets
with the same grounding and search before it resolves anything, so the
oracle is no longer a decision path wholly apart from the engine. Its
independence as an arbiter rests on tests: the pre-check's decisions are
compared with a resolution-only reference search, and the grounding and the
search with the earlier term-building grounding and a clause-copying DPLL,
kept verbatim in the tests.

A theory's constants and predicates are scanned once, and its grounding
over each domain is kept in a bounded memo, so the checks that add a
hypothesis or its negation to the same theory scan and ground only what
they add, numbering new atoms after the theory's. The memo entry also keeps
the theory's propagated state, which every check starts from, and a few
models found by earlier checks. A check whose added clauses hold in a
stored model (with the atoms the theory lacks set false) is satisfiable,
since that assignment satisfies the whole list; every other check is
searched in full. The search is still exhaustive: "unsatisfiable" means
that no assignment works.
"""

from __future__ import annotations

# json is imported by the functions that read and write records, so that
# importing the package does not load it.
import math
import random
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, TypeVar, Union

from .engine import DEFAULT_BUDGET, HALT_BUDGET, ProofStep
from .herbrand import (
    ORACLE_MAX_ATOMS,
    OracleOverflowError,
    _domain,
    _holds,
    _scan,
    _TheoryGrounding,
)
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
from .language import Lexicon, Sentence, read_utf8, to_sentence
from .logic import Clause, Literal, clause_to_str
from .normalize import Formula, compile_clauses

_GOLD_LABELS = (TRUE, FALSE, UNKNOWN, SATISFIABLE, UNSATISFIABLE)
MAX_EXISTENTIAL_FACTS = 2
_STALL_LIMIT = 2000
# Candidate hypotheses judged per sampled theory.
_MAX_CANDIDATES = 16

NAME_POOL = ("Bob", "Alan", "Erin", "Gary", "Dave", "Fiona")
ATTR_POOL = (
    "kind", "round", "rough", "tall", "happy", "big", "blue", "green",
    "quiet", "smart", "brave", "calm",
)


class InconsistentTheoryError(Exception):
    """The theory entails both the hypothesis and its negation."""


class GenerationError(Exception):
    """Engine verdict disagreed with the oracle during generation."""


class GenerationStalledError(Exception):
    """Acceptance rate fell below the floor; names the failing constraint."""


# ---------------------------------------------------------------------------
# Model-enumeration oracle (grounding and SAT core in herbrand)


# Models kept per (theory, domain). generate() puts up to 33 satisfiability
# questions to one theory (oracle_sat, then two per candidate hypothesis).
# Over 300 gen-default instances a store of 8 models answered 2,010 of 4,118
# questions without search, one of 32 models 2,014 and one of 1 model 1,130.
_MODEL_STORE_SIZE = 8


class _StoredGrounding(_TheoryGrounding):
    """A theory grounding with the models that earlier checks found, each
    cut down to the theory's atoms (`mask`)."""

    __slots__ = ("mask", "models")

    def __init__(self, theory: tuple[tuple[Literal, ...], ...], domain: tuple[str, ...]):
        super().__init__(theory, domain)
        self.mask = (1 << (len(self.atoms) + 1)) - 2
        self.models: deque[int] = deque(maxlen=_MODEL_STORE_SIZE)


# Domains kept per theory. generate() asks about a theory over its own
# constants, and over one more for each candidate hypothesis that names an
# entity or an sk-constant the theory lacks: at most 8 domains (its own, one
# per name of the six-name pool, and one for an existential hypothesis).
_DOMAINS_PER_THEORY = 8


class _Theory:
    """A theory's constants in first-occurrence order and its (predicate,
    arity) pairs, scanned once, and its grounding over each domain a check
    has needed, up to _DOMAINS_PER_THEORY of them, oldest dropped first."""

    __slots__ = ("literals", "consts", "preds", "groundings")

    def __init__(self, theory: tuple[tuple[Literal, ...], ...]):
        self.literals = theory
        self.consts, self.preds = _scan(theory)
        self.groundings: dict[tuple[str, ...], _StoredGrounding] = {}

    def over(self, domain: tuple[str, ...]) -> _StoredGrounding:
        grounding = self.groundings.get(domain)
        if grounding is None:
            if len(self.groundings) == _DOMAINS_PER_THEORY:
                del self.groundings[next(iter(self.groundings))]
            grounding = self.groundings[domain] = _StoredGrounding(self.literals, domain)
        return grounding


# One entry per theory: its scan and up to _DOMAINS_PER_THEORY groundings,
# each with its atom numbers, ground clauses, propagated state and up to
# _MODEL_STORE_SIZE models, about 13 KB a grounding for a default-size theory
# at the 24-atom cap. generate() makes at most 17 oracle calls on one theory
# in a row (oracle_sat, then oracle_entail per candidate hypothesis), so a
# small bound keeps every hit, and with it the models those calls store.
_GROUND_CACHE_SIZE = 64


@lru_cache(maxsize=_GROUND_CACHE_SIZE)
def _ground_theory(theory: tuple[tuple[Literal, ...], ...]) -> _Theory:
    return _Theory(theory)


def _ground(
    theory: tuple[tuple[Literal, ...], ...],
    extra: Iterable[tuple[Literal, ...]],
    max_atoms: int,
) -> tuple[_StoredGrounding, list[tuple[int, int]]]:
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


def _satisfiable(
    theory: tuple[tuple[Literal, ...], ...],
    extra: Iterable[tuple[Literal, ...]],
) -> bool:
    """Is `theory + extra` satisfiable? A stored model answers when it fits;
    otherwise the search starts from the theory's propagated state, and the
    model it finds is stored."""
    grounding, ground = _ground(theory, extra, ORACLE_MAX_ATOMS)
    if grounding.base is None:
        return False
    # A stored model, with every atom the theory lacks set false, is a full
    # assignment that satisfies the theory; if it satisfies the added
    # clauses too, the whole list is satisfiable.
    if any(_holds(ground, m) for m in grounding.models):
        return True
    model = grounding.model(ground)
    if model is None:
        return False
    model &= grounding.mask
    if model not in grounding.models:
        grounding.models.append(model)
    return True


def oracle_sat(clauses: Iterable[Clause]) -> bool:
    """Satisfiability by exhaustive search over ground-atom assignments.
    Raises OracleOverflowError past ORACLE_MAX_ATOMS ground atoms."""
    return _satisfiable(tuple(c.literals for c in clauses), ())


def oracle_entail(theory: Iterable[Union[Formula, Clause]], hypothesis: Formula) -> str:
    """True when every model of the theory satisfies the hypothesis, False
    when every model satisfies its negation, Unknown otherwise.

    Both checks run as satisfiability questions over the theory plus the
    clause form of the (negated) hypothesis, so universal hypotheses get
    their witness constant for free. Clause items of the theory are used
    as compiled, so their sk-names are kept: a hypothesis that names an
    `skN` pseudo-entity needs the theory as formulas. Raises OracleOverflowError
    past ORACLE_MAX_ATOMS ground atoms, and InconsistentTheoryError when the
    theory has no model.
    """
    theory, h_clauses, neg_clauses = compile_clauses(theory, hypothesis)
    key = tuple(c.literals for c in theory)
    sat_with_neg = _satisfiable(key, (c.literals for c in neg_clauses))
    sat_with_h = _satisfiable(key, (c.literals for c in h_clauses))
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
        # Every True or False proof takes at least one step.
        if not rule_only and hi == 0 and (self.label_mix[0] > 0 or self.label_mix[1] > 0):
            raise ValueError(
                "target_depth_range top 0 admits no True or False proof; "
                "raise it or give those labels no share of label_mix"
            )
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


def _is_str_list(x) -> bool:
    return isinstance(x, list) and all(isinstance(s, str) for s in x)


def instance_from_dict(d: dict) -> Instance:
    # The text is parsed later, where only grammar errors are expected.
    for key in ("id", "label", "hypothesis", "hypothesis_fol"):
        if not isinstance(d[key], str):
            raise TypeError(f"{key} must be a string")
    for key in ("theory", "theory_fol"):
        if not _is_str_list(d[key]):
            raise TypeError(f"{key} must be a list of strings")
    if type(d["depth"]) is not int:
        raise TypeError("depth must be an integer")
    if d["label"] not in _GOLD_LABELS:
        raise ValueError(f"label {d['label']!r} is not one of {', '.join(_GOLD_LABELS)}")
    meta = dict(d["meta"])
    for key in ("entities", "attributes"):
        if not _is_str_list(meta.get(key, [])):
            raise TypeError(f"meta.{key} must be a list of words (strings)")
    inst = Instance(
        id=d["id"],
        theory=d["theory"],
        theory_fol=list(d["theory_fol"]),
        hypothesis=d["hypothesis"],
        hypothesis_fol=d["hypothesis_fol"],
        label=d["label"],
        depth=d["depth"],
        gold_proof=[ProofStep.from_dict(s) for s in d["gold_proof"]],
        meta=meta,
    )
    inst.lexicon()  # a vocabulary Lexicon rejects raises ValueError here
    return inst


def write_records(records: Iterable[dict], path) -> int:
    """Write one JSON object a line; returns how many."""
    import json

    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
            n += 1
    return n


def write_jsonl(instances: Iterable[Instance], path) -> int:
    return write_records(map(instance_to_dict, instances), path)


T = TypeVar("T")


def read_records(path, decode: Callable[[dict], T], kind: str) -> dict[str, T]:
    """The records of a JSONL file by their `id`, one per non-blank line,
    each decoded by `decode`, which raises ValueError, KeyError or TypeError
    on a record without a string `id`. A line that `decode` rejects, or that
    repeats an earlier line's id, raises ValueError naming `path:line`;
    `kind` names the record in the message."""
    import json

    out: dict[str, T] = {}
    for n, line in enumerate(read_utf8(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            d = json.loads(line)
            rec = decode(d)
        # json raises RecursionError on nesting deeper than the stack.
        except (ValueError, KeyError, TypeError, RecursionError) as e:
            raise ValueError(f"{path}:{n}: not {kind} record ({type(e).__name__}: {e})") from e
        if d["id"] in out:
            raise ValueError(f"{path}:{n}: repeated id {d['id']!r}")
        out[d["id"]] = rec
    return out


def read_jsonl(path) -> list[Instance]:
    """The instances of a dataset file, in file order (see `read_records`)."""
    return list(read_records(path, instance_from_dict, "an instance").values())


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


def _draw_rule(
    rng: random.Random, cfg: GenConfig, attributes: list[str]
) -> tuple[list[str], str, bool, str]:
    """One random rule: its body, a head outside the body, whether the head
    is negated, and its template form, drawn in that order."""
    body = rng.sample(attributes, rng.randint(1, cfg.max_rule_body))
    head = rng.choice([a for a in attributes if a not in body])
    neg = rng.random() < cfg.p_negation
    return body, head, neg, rng.choice(("people", "if", "everyone"))


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
            body, head, neg, form = _draw_rule(rng, cfg, attributes)
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
    """The theory's clauses and their FOL strings. The oracle decides these
    clauses, and the hypothesis is compiled after them. The engine compiles
    the same sentences, and the clause-form memo hands back these clauses.

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


def generate(config: GenConfig) -> Iterator[Instance]:
    """Endless stream of labeled instances matching the config.

    Theories are rejection-sampled from the grammar, discarded when
    inconsistent, labeled by the oracle and proved by the engine within the
    depth window: the top of target_depth_range is the judge's step budget,
    and a candidate whose proof the engine does not find in that many steps
    is dropped like one whose proof is shorter than the window's bottom. A
    label quota scheduler keeps every prefix of the stream as close to
    label_mix as arithmetic allows. Deterministic for a fixed config. The
    config is checked on the call, before the first instance is asked for.
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
            verdict = judge(sentences, h_sentence, budget=hi, lexicon=lex)
            if verdict.label != label:
                # The side a proof of `label` refutes ran out of steps: its
                # proof, if any, is longer than the window allows.
                halt = verdict.halt_t2 if label == TRUE else verdict.halt_t1
                if verdict.label == UNKNOWN and halt == HALT_BUDGET:
                    continue
                raise GenerationError(
                    f"engine/oracle disagreement: oracle={label} "
                    f"engine={verdict.label} on theory={texts!r} h={h_text!r}"
                )
            # Judged within hi steps, so only the window's bottom is left.
            if label != UNKNOWN and len(verdict.proof) < lo:
                continue
            # Compiled after the theory clauses, as the oracle and the judge
            # compiled it.
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
                texts.append(_render_rule(*_draw_rule(rng, config, attributes)))
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
    target = refutation_target(inst.theory, inst.hypothesis, inst.label, lex)
    render = nl_renderer(lex)
    context = [render(c) for c in target.clauses]
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
