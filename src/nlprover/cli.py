"""Batch command-line interface.

Commands: prove, sat, gen, eval, check. Exit codes: 0 success, 2 input
error, 4 config error. Budget exhaustion is not an error; the verdict is
reported normally. All commands are deterministic given their flags and
seed, and instance-level output is ordered by instance id.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from itertools import islice
from pathlib import Path

from .datagen import (
    GenConfig,
    GenerationError,
    GenerationStalledError,
    Instance,
    extract_training_samples,
    generate,
    generate_nlsat,
    read_jsonl,
    write_jsonl,
    write_training_records,
)
from .engine import DEFAULT_BUDGET, format_proof
from .evaluation import PredictionRecord, check_proof, score
from .judge import UNKNOWN, check_sat, judge
from .language import DEFAULT_LEXICON, Lexicon, ParseError, load_lexicon, to_sentence

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONFIG = 4


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; bad flags are config errors here.
    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _load_lexicon(path: str | None) -> Lexicon:
    if path is None:
        return DEFAULT_LEXICON
    try:
        return load_lexicon(path)
    except (OSError, ValueError) as e:
        raise InputError(f"lexicon: {e}") from e


def _read_instances(path: str) -> list[Instance]:
    try:
        return read_jsonl(path)
    except (OSError, ValueError) as e:
        raise InputError(str(e)) from e


def _read_theory_file(path: str) -> list[str]:
    try:
        raw = Path(path).read_text()
    except OSError as e:
        raise InputError(str(e)) from e
    lines = []
    for ln in raw.splitlines():
        s = ln.strip()
        if s and not s.startswith("#"):
            lines.append(s)
    if not lines:
        raise InputError(f"{path}: no sentences")
    return lines


def _check_writable(path: str) -> None:
    """Fail before any work is done when `path` cannot be opened for
    writing. The probe opens it for appending, so an existing file keeps its
    contents, and removes a file that it created."""
    existed = os.path.exists(path)
    try:
        open(path, "a").close()
    except OSError as e:
        raise InputError(f"cannot write {path}: {e.strerror or e}") from e
    if not existed:
        os.remove(path)


def _verdict_payload(instance_id, verdict):
    return {
        "id": instance_id,
        "label": verdict.label,
        "steps_t1": verdict.steps_t1,
        "steps_t2": verdict.steps_t2,
        "halt_t1": verdict.halt_t1,
        "halt_t2": verdict.halt_t2,
        "tie_broken": verdict.tie_broken,
        "predicted_label": verdict.label,
        "predicted_proof": [s.to_dict() for s in verdict.proof],
    }


def _print_verdict(verdict, as_json, instance_id="-"):
    if as_json:
        print(json.dumps(_verdict_payload(instance_id, verdict), ensure_ascii=False))
        return
    print(f"label: {verdict.label}")
    print(f"steps_T1: {verdict.steps_t1} ({verdict.halt_t1})")
    print(f"steps_T2: {verdict.steps_t2} ({verdict.halt_t2})")
    if verdict.tie_broken:
        print("tie_broken: true")
    for line in format_proof(verdict.proof):
        print(line)


def _judge_one(args):
    # Top-level so the process pool can pickle it.
    inst, budget, strategy = args
    if not inst.hypothesis:
        raise InputError(
            f"instance {inst.id} has no hypothesis (rule-only data? use 'sat')"
        )
    lex = inst.lexicon()
    sentences = [to_sentence(t, lex) for t in inst.theory]
    hyp = to_sentence(inst.hypothesis, lex)
    verdict = judge(sentences, hyp, budget=budget, strategy=strategy, lexicon=lex)
    return inst.id, verdict


def cmd_prove(args) -> int:
    strategy = args.strategy.replace("-", "_")
    if args.instances:
        instances = _read_instances(args.instances)
        work = [(inst, args.budget, strategy) for inst in instances]
        # The pool forks every worker up front: no more than work or cores.
        workers = min(args.jobs, len(work), os.cpu_count() or 1)
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_judge_one, work, chunksize=8))
        else:
            results = [_judge_one(w) for w in work]
        for instance_id, verdict in sorted(results, key=lambda r: r[0]):
            if args.json:
                print(json.dumps(_verdict_payload(instance_id, verdict), ensure_ascii=False))
            else:
                print(f"{instance_id}: {verdict.label}")
                for line in format_proof(verdict.proof):
                    print(f"  {line}")
        return EXIT_OK
    if not args.theory or not args.hypothesis:
        raise InputError("prove needs --instances, or --theory and --hypothesis")
    lex = _load_lexicon(args.lexicon)
    sentences = [to_sentence(t, lex) for t in _read_theory_file(args.theory)]
    hyp = to_sentence(args.hypothesis, lex)
    verdict = judge(sentences, hyp, budget=args.budget, strategy=strategy, lexicon=lex)
    _print_verdict(verdict, args.json)
    return EXIT_OK


def cmd_sat(args) -> int:
    lex = _load_lexicon(args.lexicon)
    sentences = [to_sentence(t, lex) for t in _read_theory_file(args.theory)]
    result = check_sat(sentences, budget=args.budget, lexicon=lex)
    if args.json:
        payload = {
            "status": result.status,
            "steps_used": result.steps_used,
            "halt_reason": result.halt_reason,
            "proof": [s.to_dict() for s in result.proof],
        }
        print(json.dumps(payload, ensure_ascii=False))
    else:
        print(f"status: {result.status} ({result.halt_reason}, {result.steps_used} steps)")
        for line in format_proof(result.proof):
            print(line)
    return EXIT_OK


def cmd_gen(args) -> int:
    try:
        config = GenConfig(
            seed=args.seed,
            n_entities=args.entities,
            n_attributes=args.attributes,
            n_facts=args.facts,
            n_rules=args.rules,
            max_rule_body=args.max_body,
            p_negation=args.p_negation,
            allow_existential=args.existential,
            target_depth_range=(args.depth_min, args.depth_max),
            label_mix=tuple(float(x) for x in args.mix.split(",")),
        )
        stream = (
            generate_nlsat(config, fraction_unsat=args.fraction_unsat, budget=args.budget)
            if args.nlsat
            else generate(config, budget=args.budget)
        )
    except ValueError as e:
        print(f"gen: config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    for path in filter(None, (args.out, args.training_records)):
        _check_writable(path)
    try:
        instances = list(islice(stream, args.count))
    except (GenerationError, GenerationStalledError) as e:
        print(f"gen: {e}", file=sys.stderr)
        return EXIT_CONFIG
    records = []
    if args.training_records:
        for inst in instances:
            if inst.label != UNKNOWN:
                records.extend(extract_training_samples(inst))
    try:
        write_jsonl(instances, args.out)
        if args.training_records:
            write_training_records(records, args.training_records)
    except OSError as e:
        raise InputError(f"cannot write output: {e}") from e
    print(f"wrote {len(instances)} instances to {args.out}")
    return EXIT_OK


def _load_predictions(path) -> dict[str, dict]:
    out = {}
    try:
        raw = Path(path).read_text()
    except OSError as e:
        raise InputError(str(e)) from e
    for n, line in enumerate(raw.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            d = json.loads(line)
        except ValueError as e:
            raise InputError(f"{path}:{n}: not JSON ({e})") from e
        if not isinstance(d, dict) or "id" not in d or "predicted_label" not in d:
            raise InputError(f"{path}:{n}: prediction records need 'id' and 'predicted_label'")
        out[d["id"]] = d
    return out


def _records_from_files(pred_path, gold_path) -> list[PredictionRecord]:
    preds = _load_predictions(pred_path)
    records = []
    for inst in _read_instances(gold_path):
        pred = preds.get(inst.id)
        if pred is None:
            raise InputError(f"no prediction for instance {inst.id}")
        try:
            proof = [
                ((s["premises_fol"][0], s["premises_fol"][1]), s["conclusion_fol"])
                for s in pred.get("predicted_proof", [])
            ]
        except (KeyError, IndexError, TypeError) as e:
            raise InputError(
                f"{pred_path}: malformed predicted_proof for {inst.id} ({type(e).__name__}: {e})"
            ) from e
        if not all(isinstance(x, str) for (a, b), c in proof for x in (a, b, c)):
            raise InputError(
                f"{pred_path}: predicted_proof for {inst.id} has a premise or conclusion"
                " that is not a string"
            )
        records.append(
            PredictionRecord(
                instance_id=inst.id,
                theory=inst.theory,
                hypothesis=inst.hypothesis,
                gold_label=inst.label,
                predicted_label=pred["predicted_label"],
                predicted_proof=proof,
                lexicon=inst.lexicon(),
            )
        )
    records.sort(key=lambda r: r.instance_id)
    return records


def cmd_eval(args) -> int:
    records = _records_from_files(args.predictions, args.gold)
    scores = score(records)
    if args.json:
        print(
            json.dumps(
                {
                    "entailment_accuracy": scores.entailment_accuracy,
                    "full_accuracy": scores.full_accuracy,
                    "n": scores.n,
                }
            )
        )
    else:
        print(f"EA: {scores.entailment_accuracy:.4f}")
        print(f"FA: {scores.full_accuracy:.4f}")
        print(f"n: {scores.n}")
    return EXIT_OK


def cmd_check(args) -> int:
    records = _records_from_files(args.proofs, args.instances)
    n_valid = 0
    for rec in records:
        ok = check_proof(rec)
        n_valid += ok
        if args.json:
            print(json.dumps({"id": rec.instance_id, "proof_valid": ok}))
        else:
            print(f"{rec.instance_id}: {'valid' if ok else 'invalid'}")
    if not args.json:
        print(f"valid: {n_valid}/{len(records)}")
    return EXIT_OK


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}: {value}")
        return value

    return parse


# Flags shared between commands; each command takes only the ones it reads.
_COMMON = {
    "--budget": dict(type=_int_at_least(0), default=DEFAULT_BUDGET, help="max reasoning steps per theory set"),
    "--lexicon": dict(help="lexicon file ([entities]/[attributes]/[relations] sections)"),
    "--json": dict(action="store_true", help="machine-readable output"),
}


def _add_common(p, *flags):
    for flag in flags:
        p.add_argument(flag, **_COMMON[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nlprover", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="label a hypothesis against a theory")
    p.add_argument("--theory", help="file with one sentence per line")
    p.add_argument("--hypothesis", help="hypothesis sentence")
    p.add_argument("--instances", help="dataset JSONL to judge instead of a single pair")
    p.add_argument(
        "--strategy",
        choices=["sos-linear", "unrestricted"],
        default="sos-linear",
    )
    p.add_argument("--jobs", type=_int_at_least(1), default=os.cpu_count() or 1)
    _add_common(p, "--budget", "--lexicon", "--json")
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser("sat", help="check a theory for self-contradiction")
    p.add_argument("--theory", required=True)
    _add_common(p, "--budget", "--lexicon", "--json")
    p.set_defaults(fn=cmd_sat)

    p = sub.add_parser("gen", help="generate a labeled dataset with gold proofs")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=_int_at_least(0), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--entities", type=int, default=4)
    p.add_argument("--attributes", type=int, default=6)
    p.add_argument("--facts", type=int, default=5)
    p.add_argument("--rules", type=int, default=5)
    p.add_argument("--max-body", type=int, default=2)
    p.add_argument("--p-negation", type=float, default=0.25)
    p.add_argument("--existential", action="store_true")
    p.add_argument("--depth-min", type=int, default=0)
    p.add_argument("--depth-max", type=int, default=5)
    p.add_argument("--mix", default="0.3334,0.3333,0.3333", help="True,False,Unknown proportions")
    p.add_argument("--nlsat", action="store_true", help="rule-only satisfiability instances")
    p.add_argument("--fraction-unsat", type=float, default=0.5)
    p.add_argument("--training-records", help="also write pre_s/post_s/kc records here")
    _add_common(p, "--budget")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("eval", help="score predictions against gold labels")
    p.add_argument("--predictions", required=True)
    p.add_argument("--gold", required=True)
    _add_common(p, "--json")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("check", help="validate predicted proofs step by step")
    p.add_argument("--proofs", required=True, help="predictions JSONL with predicted_proof")
    p.add_argument("--instances", required=True, help="dataset JSONL")
    _add_common(p, "--json")
    p.set_defaults(fn=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, ParseError) as e:
        print(f"nlprover: input error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
