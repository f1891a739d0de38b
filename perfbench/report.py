"""Every workload, untraced and traced, in one report.

    python3 perfbench/report.py [--seed 1] [--seconds 30]

Prints, per workload, each end-to-end metric with its unit and sample
count, the error rate, the stream digest, then the per-layer numbers of
the traced run and the tracing overhead.  Exits 1 if any run fails a
check.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    try:
        numpy_version = run.check_checkout()
    except (run.SetupError, ImportError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    print("# env " + json.dumps(run.environment(args.seed, numpy_version), sort_keys=True))
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            doc, lines = run.run(name, args.seed, args.seconds, trace)
            print(f"## {name} {'traced' if trace else 'untraced'} correct={doc['correct']}")
            print("\n".join(lines), flush=True)
            ok = ok and doc["correct"] and doc["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
