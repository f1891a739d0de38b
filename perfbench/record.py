"""Record the stdout digest of each workload's campaign for fixed seeds.

    python3 perfbench/record.py

Writes expected.json: for every workload, the sha256 and byte count of
the NDJSON stream at seeds 0-10 with the workload's trial count, and at
the default seed with the smoke test's trial count.  run.py fails a run
whose stream differs from the recorded one.  Re-record only when a change
is meant to alter the stream, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS

SEEDS = range(11)
SMOKE_TRIALS = 200


def main() -> int:
    run.check_checkout()
    out = {}
    for name, w in WORKLOADS.items():
        out[name] = {}
        jobs = [(seed, w.trials) for seed in SEEDS] + [(run.DEFAULT_SEED, SMOKE_TRIALS)]
        for i, (seed, trials) in enumerate(jobs):
            res = run.run_campaign(name, seed, trials, False, i)
            problems = run.campaign_problems(res, w.exit_code)
            if problems:
                sys.stderr.write(f"{name} seed {seed}: {problems}\n")
                return 1
            s = res["stdout"]
            out[name][f"{seed}:{trials}"] = {"sha256": s["sha256"], "bytes": s["bytes"]}
            print(name, seed, trials, s["sha256"][:16], s["bytes"], flush=True)
    run.EXPECTED.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
