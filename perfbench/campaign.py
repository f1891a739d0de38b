"""One benchmark campaign in a fresh interpreter.

    python3 perfbench/campaign.py JOB.json SPAWNED

The job names the workload, seed, trial count, whether to trace, and
where to write the campaign config and the result; SPAWNED is the
CLOCK_MONOTONIC time at which the parent started this process, so
set-up time covers interpreter start, imports and writing the config.  The campaign runs the real CLI
path, `fuzzyint.cli.main(["falsify", ...])`, with stdout replaced by a
sink that hashes and counts what the CLI writes.  Each campaign needs its
own interpreter because the condition caches in `fuzzyint.inequalities`
are process-global: a second campaign in one process would run warm,
which no CLI user sees.

Trial intervals and throughput use the process's CPU time: a campaign
is single-threaded and never waits, and on a virtual machine CPU time
leaves out the time the hypervisor gives the CPU to other guests (steal),
which wall time counts.  Wall time is reported too.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

# Violation records kept (beyond the hash) to re-verify after timing.
REVERIFY = 20


class HashingSink:
    """Write target for the CLI's stdout: sha256, bytes and record counts."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.bytes = 0
        self.lines = 0
        self.violations = 0
        self.hyp_met_violations = 0
        self.first = ""
        self.last = ""
        self.kept: list[str] = []

    def write(self, s: str) -> int:
        data = s.encode("utf-8")
        self.sha.update(data)
        self.bytes += len(data)
        self.lines += s.count("\n")
        if not self.first:
            self.first = s
        self.last = s
        if '"record":"violation"' in s:
            self.violations += 1
            if '"hypotheses_met":true' in s:
                self.hyp_met_violations += 1
            if len(self.kept) < REVERIFY:
                self.kept.append(s)
        return len(s)

    def flush(self) -> None:
        pass


def check_output(sink: HashingSink, doc: dict) -> list[str]:
    """Problems found in the stream: header, summary, and re-verification
    of the kept violations from (config, trial index) alone."""
    from fuzzyint.harness import CampaignConfig, gen_instance
    from fuzzyint.inequalities import verify
    from fuzzyint.serialize import instance_digest

    problems = []
    header = json.loads(sink.first)
    summary = json.loads(sink.last)
    config = CampaignConfig.from_json(doc)
    if header.get("record") != "header" or header["config"] != config.to_json():
        problems.append("header does not echo the campaign config")
    if summary.get("record") != "summary" or summary["trials"] != doc["trials"]:
        problems.append("summary record missing or with the wrong trial count")
    elif len(summary["violations"]) != sink.violations or sink.lines != sink.violations + 2:
        problems.append("summary violations disagree with the violation records")
    for line in sink.kept:
        rec = json.loads(line)
        inst = gen_instance(config, rec["trial"])
        if instance_digest(inst) != rec["digest"]:
            problems.append(f"trial {rec['trial']}: digest does not match the regenerated instance")
            continue
        v = verify(inst)
        if v.holds or v.margin != rec["margin"] or v.hypotheses_met != rec["hypotheses_met"]:
            problems.append(f"trial {rec['trial']}: violation does not re-verify in isolation")
    return problems


def main(job_path: str, spawned: float) -> int:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, str(Path(job["root"]) / "src"))
    from fuzzyint import cli, harness
    from tracer import Tracer, bindings
    from workloads import WORKLOADS

    doc = WORKLOADS[job["workload"]].campaign(job["seed"], job["trials"])
    Path(job["config"]).write_text(json.dumps(doc))
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spawned

    result = {"setup_s": setup_s, "trials": doc["trials"]}
    tracer = Tracer() if job["trace"] else None
    stamps: list[float] = []
    before = bindings()
    if tracer is not None:
        tracer.install()
        run = tracer.span("cli.main", cli.main)
    else:
        gen = harness.gen_instance

        def stamped(*args):
            stamps.append(time.process_time())
            return gen(*args)

        harness.gen_instance = stamped
        run = cli.main

    sink = HashingSink()
    argv = ["falsify", "--theorem", doc["theorem"], "--config", job["config"]]
    stdout = sys.stdout
    sys.stdout = sink
    try:
        t0, c0 = time.perf_counter(), time.process_time()
        result["exit_code"] = run(argv)
        c1, t1 = time.process_time(), time.perf_counter()
    except Exception:
        result["error"] = traceback.format_exc()
    finally:
        sys.stdout = stdout
        if tracer is not None:
            tracer.uninstall()
        else:
            harness.gen_instance = gen
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if "error" not in result:
        result["wall_s"] = t1 - t0
        result["cpu_s"] = c1 - c0
        result["intervals"] = [b - a for a, b in zip(stamps, stamps[1:] + [c1])]
        result["stdout"] = {
            "sha256": sink.sha.hexdigest(),
            "bytes": sink.bytes,
            "violations": sink.violations,
            "hyp_met_violations": sink.hyp_met_violations,
        }
        result["problems"] = check_output(sink, doc)
    if tracer is not None:
        result["trace"] = tracer.dump()
    result["restored"] = bindings() == before
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
