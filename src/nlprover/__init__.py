"""Resolution-refutation reasoning over template natural language: parse
theories, decide hypotheses with dual-set refutation, emit and check
proofs, score predictions, and generate labeled datasets."""

from .logic import (
    Clause,
    Const,
    Func,
    Literal,
    Var,
    canonicalize,
    clause_to_str,
    parse_clause,
    unify,
)
from .normalize import (
    And,
    Atom,
    CnfBlowupError,
    Exists,
    ForAll,
    Implies,
    Not,
    Or,
    SkolemNamer,
    build_theory_sets,
    negate,
    to_clauses,
)
from .language import (
    DEFAULT_LEXICON,
    Lexicon,
    ParseError,
    Sentence,
    UnknownWordError,
    UnrealizableError,
    load_lexicon,
    negate_sentence,
    parse_sentence,
    realize_clause,
    to_sentence,
)
from .engine import (
    DEFAULT_BUDGET,
    SOS_LINEAR,
    UNRESTRICTED,
    ProofStep,
    RefutationResult,
    TheorySet,
    factor,
    format_proof,
    refute,
    resolve,
)
from .judge import SatResult, Verdict, check_sat, judge, tie_break
from .evaluation import (
    PredictionRecord,
    Scores,
    check_proof,
    check_step,
    score,
    vce_loss,
)
from .datagen import (
    GenConfig,
    Instance,
    extract_training_samples,
    generate,
    generate_nlsat,
    oracle_entail,
    oracle_sat,
    read_jsonl,
    write_jsonl,
)

__version__ = "0.1.0"
