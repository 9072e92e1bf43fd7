#!/usr/bin/env python3
"""Record the input and output digests of every workload for a range of
seeds, and of each workload's fixed reference draw, into bench/digests.json,
which bench/run.py checks against: a run whose input digest or reference
digest differs from the record fails, and a changed output digest is
reported.

    python3 bench/record_digests.py --seeds 0-49 [--workloads prove-default,gen-default]

Only the named workloads' entries are replaced; the others are kept.
Record prove-paper over few seeds at a time: the library's clause
canonicalisation cache is unbounded, and ten paper-scale seeds in one
process grow it past 2 GB.

Run it only when the benchmark's inputs are meant to change, and say so
with the change.
"""

from __future__ import annotations

import argparse
import json
import signal

import run


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-49")
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS), help="comma-separated")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    signal.signal(signal.SIGALRM, run._on_alarm)
    table = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.exists() else {}
    for w in map(run.WORKLOADS.__getitem__, args.workloads.split(",")):
        table[w.name] = {"reference": run.reference_digest(w)}
        for seed in range(lo, hi + 1):
            built, _, _ = run.setup(w, seed)
            results, _ = run.run_loop(w, built, 0, run.DIGEST_N)
            outputs, marks = run.output_digest(results, run.DIGEST_N)
            table[w.name][str(seed)] = {
                "inputs": run.input_digest(w, seed, built),
                "outputs": outputs,
                "marks": marks,
            }
            print(w.name, seed, marks.count(run.MISSED), flush=True)
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
