"""The benchmark's tracer (bench/spans.py) patches nlprover names from
outside the package and fails loudly when one is gone. This runs it on the
worked example, on a self-contradictory rule set and on one generated
instance, and holds the generator streams to the gen-default workload's
contract, so a refactor that moves a patch point fails here too, not only
in a traced benchmark run."""

import importlib
import importlib.util
from itertools import islice
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"

WORKED_THEORY = [
    "Everyone is not kind or not round or rough.",
    "Everyone is not rough.",
    "Everyone is round.",
]

CONTRADICTORY_RULES = [
    "Everyone is kind.",
    "Everyone is not kind or rough.",
    "Everyone is not rough.",
]


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_patch_points_record_calls():
    # Modules, not names: the tracer swaps module attributes, and the
    # package re-exports the function judge() under the submodule's name.
    judge = importlib.import_module("nlprover.judge")
    evaluation = importlib.import_module("nlprover.evaluation")
    datagen = importlib.import_module("nlprover.datagen")
    language = importlib.import_module("nlprover.language")
    original = language.realize_clause
    tracer = _load_spans().Tracer("prove-default")
    tracer.install()
    try:
        lex = language.DEFAULT_LEXICON
        sents = [language.to_sentence(t, lex) for t in WORKED_THEORY]
        hyp = "Bob is not kind."
        v = judge.judge(sents, language.to_sentence(hyp, lex), lexicon=lex)
        proof = [(s.premises_fol, s.conclusion_fol) for s in v.proof]
        rec = evaluation.PredictionRecord("w", WORKED_THEORY, hyp, v.label, v.label, proof, lex)
        assert evaluation.check_proof(rec)
        # check_sat must reach the unrestricted search through refute
        contradictory = [language.to_sentence(t, lex) for t in CONTRADICTORY_RULES]
        assert judge.check_sat(contradictory, lexicon=lex).status == judge.UNSATISFIABLE
        # generate() must label through the oracle's public names
        next(datagen.generate(datagen.GenConfig(seed=0)))
    finally:
        tracer.uninstall()
    for metric in (
        "language.realize_clause.calls",
        "normalize.build_theory_sets.calls",
        "engine.theoryset_add.calls",
        "judge.check_sat.calls",
        "engine.refute.unrestricted.calls",
        "datagen.oracle_sat.calls",
        "datagen.oracle_entail.calls",
    ):
        assert tracer.counts[metric] > 0, metric
    assert judge.realize_clause is language.realize_clause is original


def test_gen_default_tracer_contract():
    # Every boundary the gen-default workload is assigned must record calls
    # when the generators, the record extractor and the proof checker run
    # through the names the tracer patches.
    datagen = importlib.import_module("nlprover.datagen")
    evaluation = importlib.import_module("nlprover.evaluation")
    tracer = _load_spans().Tracer("gen-default")
    tracer.install()
    try:
        streams = (
            datagen.generate(datagen.GenConfig(seed=1)),
            datagen.generate_nlsat(
                datagen.GenConfig(seed=1, n_attributes=12, target_depth_range=(1, 12))
            ),
        )
        for stream in streams:
            for inst in islice(stream, 4):
                if not inst.gold_proof:
                    continue
                assert len(datagen.extract_training_samples(inst)) == 4 * len(inst.gold_proof)
                proof = [(s.premises_fol, s.conclusion_fol) for s in inst.gold_proof]
                rec = evaluation.PredictionRecord(
                    inst.id, inst.theory, inst.hypothesis, inst.label, inst.label, proof,
                    inst.lexicon(),
                )
                assert evaluation.check_proof(rec), inst.id
    finally:
        tracer.uninstall()
    tracer.check_assigned()
