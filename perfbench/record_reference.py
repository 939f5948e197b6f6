#!/usr/bin/env python3
"""Record reference.json: what every pool input of every workload gives.

Run from the repository root, only at a commit whose outputs are known to
be right (the gate compares later commits against this file):

    python3 perfbench/record_reference.py

Probe seeds must all give the expected verdicts; the script stops with an
error otherwise.
"""

import json
import re
import sys

import run


def main() -> int:
    run.prepare()
    import bench
    import gate
    import workloads

    bench.OUT_DIR.mkdir(exist_ok=True)
    doc = {"about": "outputs of every benchmark pool input; see gate.py",
           "workloads": {}}
    for workload in workloads.WORKLOADS.values():
        if workload.post == "probe":
            probes = {}
            for seed in workload.probe_seeds:
                result = workloads.run_probe(seed, bench.OUT_DIR / "record-channels.json")
                if result.verdicts != workloads.EXPECTED_VERDICTS:
                    sys.exit(f"probe seed {seed}: unexpected verdicts {result.verdicts}")
                probes[str(seed)] = {"sha256": gate.probe_fingerprint(seed),
                                     "verdicts": result.verdicts}
            (bench.OUT_DIR / "record-channels.json").unlink()
            doc["workloads"][workload.name] = {"probes": probes}
            continue
        cases = []
        for index, case in enumerate(workload.cases):
            results = {}
            for root in case.roots:
                table = workloads.run_sweep(workload, index, root).table
                for seed, rates in gate.sum_rates(table).items():
                    results[str(seed)] = {
                        "root": root,
                        "status": "failed" if rates is None else "ok",
                        "sum_rates": None if rates is None else list(rates),
                        "sha256": gate.trial_fingerprint(case.config, seed)}
            cases.append({**gate.case_reference(case), "results": results})
            print(f"{workload.name}: {case.label}: {len(results)} trials", flush=True)
        doc["workloads"][workload.name] = {"cases": cases}
    text = json.dumps(doc, indent=1, sort_keys=True)
    # one line per trial (innermost lists and objects) keeps the file
    # reviewable
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    text = re.sub(r"\{\s+([^{}]*?)\s+\}",
                  lambda m: "{" + " ".join(m.group(1).split()) + "}", text)
    with open(bench.REFERENCE, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
