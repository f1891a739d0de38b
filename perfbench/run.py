"""Fixed-seed `fuzzyint falsify` benchmark.

    python3 perfbench/run.py --workload cheb_clean --seed 1 --seconds 30 --trace 0

Runs the workload's campaign again and again, each time in a fresh
interpreter (see campaign.py), until `--seconds` have passed, one process
at a time with BLAS/OpenMP threads pinned to 1.  The last line of stdout
is one JSON object with `correct`, `attempted`, `failed` and `metrics`;
the lines before it start with `#` and give the environment, each metric
with its sample count, the deterministic counts and any failed check.

`--trace 0` reports the end-to-end metrics from untraced campaigns;
throughput and trial intervals are in the campaign process's CPU time
(see campaign.py), set-up time in wall time.
`--trace 1` alternates untraced and traced campaigns and reports the
per-layer metrics of the traced ones (see tracer.py) together with the
tracing overhead.  A trial fails when it is a violation with
`hypotheses_met: true`, a genuine counterexample; the run is incorrect
when a campaign raises, exits with the wrong code, writes a stream that
does not check out, writes different bytes from another campaign of the
same seed, or differs from the sha256 recorded for its seed in
expected.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".run"
EXPECTED = HERE / "expected.json"

sys.path.insert(0, str(HERE))
from tracer import DETERMINISTIC, LAYER_METRICS, layer_metrics, median_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
CAMPAIGN_TIMEOUT_S = 150
DEFAULT_SEED = 1

END_TO_END = {
    "trials_per_s": "1/s",
    "trial_p50_ms": "ms",
    "trial_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
OVERHEAD = {
    "trace.untraced_trials_per_s": "1/s",
    "trace.traced_trials_per_s": "1/s",
    "trace.overhead_share": "share",
}
PER_LAYER = {**LAYER_METRICS, **OVERHEAD}


class SetupError(Exception):
    """The checkout cannot run the benchmark at all."""


def check_checkout() -> str:
    """Import fuzzyint from the checkout and run the fixture pre-check.

    Returns the numpy version.  Never falls back to an installed copy.
    """
    src = ROOT / "src"
    if not (src / "fuzzyint" / "__init__.py").is_file():
        raise SetupError(f"no fuzzyint sources under {src}")
    sys.path.insert(0, str(src))
    import numpy
    import fuzzyint
    from fuzzyint.harness import reproduce_paper

    if Path(fuzzyint.__file__).resolve().parent != (src / "fuzzyint").resolve():
        raise SetupError(f"fuzzyint imported from {fuzzyint.__file__}, not from {src}")
    if not reproduce_paper().ok:
        raise SetupError("reproduce_paper() pre-check failed")
    return numpy.__version__


def environment(seed: int, numpy_version: str) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "seed": seed,
        "threads_env": THREAD_ENV,
    }


def run_campaign(workload: str, seed: int, trials: int, trace: bool, index: int) -> dict:
    """One campaign in a fresh interpreter; returns campaign.py's result."""
    WORK.mkdir(exist_ok=True)
    stem = WORK / f"{workload}-{os.getpid()}-{index}"
    job_path, result_path, config_path = (stem.with_suffix(s) for s in (".job", ".result", ".config"))
    job = {
        "root": str(ROOT),
        "workload": workload,
        "seed": seed,
        "trials": trials,
        "trace": trace,
        "config": str(config_path),
        "result": str(result_path),
    }
    job_path.write_text(json.dumps(job))
    env = dict(os.environ, **THREAD_ENV)
    try:
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(HERE / "campaign.py"), str(job_path), repr(spawned)],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CAMPAIGN_TIMEOUT_S,
        )
        if proc.returncode != 0 or not result_path.exists():
            return {"error": f"campaign process exited {proc.returncode}: {proc.stderr[-2000:]}"}
        return json.loads(result_path.read_text())
    except subprocess.TimeoutExpired:
        return {"error": f"campaign exceeded {CAMPAIGN_TIMEOUT_S} s"}
    finally:
        for p in (job_path, result_path, config_path):
            p.unlink(missing_ok=True)


def campaign_problems(res: dict, want_exit: int) -> list[str]:
    if "error" in res:
        return [res["error"]]
    problems = list(res["problems"])
    if res["exit_code"] != want_exit:
        problems.append(f"exit code {res['exit_code']}, expected {want_exit}")
    if not res["restored"]:
        problems.append("a wrapped module attribute was not restored")
    return problems


def recorded(workload: str, seed: int, trials: int) -> dict | None:
    if not EXPECTED.exists():
        return None
    return json.loads(EXPECTED.read_text()).get(workload, {}).get(f"{seed}:{trials}")


def run(workload: str, seed: int, seconds: float, trace: bool, trials: int | None = None):
    """Measure one workload; returns (result document, report lines)."""
    w = WORKLOADS[workload]
    trials = w.trials if trials is None else trials
    start = time.monotonic()
    results = []
    while True:
        traced = trace and len(results) % 2 == 1
        began = time.monotonic()
        res = run_campaign(workload, seed, trials, traced, len(results))
        res["traced"] = traced
        results.append(res)
        if "error" in res:
            break
        # Stop when another campaign of the same length would overrun.
        now = time.monotonic()
        if now - start + (now - began) > seconds and (not trace or len(results) >= 2):
            break

    problems = []
    for i, res in enumerate(results):
        problems += [f"campaign {i}: {p}" for p in campaign_problems(res, w.exit_code)]
    ok = [r for r in results if "error" not in r]
    digests = {(r["stdout"]["sha256"], r["stdout"]["bytes"]) for r in ok}
    if len(digests) > 1:
        problems.append(f"campaigns of one seed wrote different streams: {sorted(digests)}")
    want = recorded(workload, seed, trials)
    if want is not None and digests and digests != {(want["sha256"], want["bytes"])}:
        problems.append(f"stream differs from the recorded {want['sha256']} ({want['bytes']} B)")

    lines = [f"# workload {workload} seed {seed} trials/campaign {trials} campaigns {len(results)}"]
    if ok:
        s = ok[0]["stdout"]
        match = "n/a" if want is None else "match" if digests == {(want["sha256"], want["bytes"])} else "MISMATCH"
        lines.append(
            f"# stdout sha256 {s['sha256']} bytes {s['bytes']} violations {s['violations']}"
            f" hyp_met_violations {s['hyp_met_violations']} recorded {match}"
        )
    attempted = sum(r["trials"] for r in ok) or trials
    failed = sum(r["stdout"]["hyp_met_violations"] for r in ok)
    lines.append(f"# error_rate {failed / attempted:.6g} ({failed} of {attempted} trials)")

    if trace:
        metrics, counts = per_layer(ok, problems)
        units = PER_LAYER
    else:
        metrics, counts = end_to_end(ok)
        units = END_TO_END
    for name, value in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        lines.append(f"# {name} {shown} {units[name]} samples={counts[name]}")
    if ok and not trace:
        lines.append(f"# wall_trials_per_s {pooled_rate(ok, 'wall_s'):.6g} 1/s (not gated: counts steal)")
    lines += [f"# FAILED CHECK {p}" for p in problems]
    doc = {
        "correct": not problems and len(ok) == len(results),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    return doc, lines


def pooled_rate(results: list[dict], clock: str = "cpu_s") -> float:
    """Trials per second of campaign CPU (or wall) time over a run.

    Pooled, not a median of campaigns: host speed drifts in phases of ten
    seconds or more, and a pooled rate blends them where a median jumps
    between them.
    """
    return sum(r["trials"] for r in results) / sum(r[clock] for r in results)


def end_to_end(results: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics of untraced campaigns, with sample counts."""
    if not results:
        return {}, {}
    intervals = sorted(x for r in results for x in r["intervals"])
    pct = statistics.quantiles(intervals, n=100, method="inclusive") if len(intervals) > 1 else intervals * 99
    metrics = {
        "trials_per_s": pooled_rate(results),
        "trial_p50_ms": statistics.median(intervals) * 1e3,
        "trial_p99_ms": pct[98] * 1e3,
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    counts = dict.fromkeys(metrics, len(results))
    counts["trial_p50_ms"] = counts["trial_p99_ms"] = len(intervals)
    return metrics, counts


def per_layer(results: list[dict], problems: list[str]) -> tuple[dict, dict]:
    """Per-layer medians of the traced campaigns and the tracing overhead.

    Appends to problems every deterministic count that is not the same in
    all traced campaigns.
    """
    untraced = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    if not (untraced and traced):
        return {}, {}
    per_campaign = [layer_metrics(r["trace"], r["trials"]) for r in traced]
    for name in DETERMINISTIC:
        values = {c[name] for c in per_campaign}
        if len(values) > 1:
            problems.append(f"count {name} differs between campaigns: {sorted(values)}")
    metrics = median_metrics(per_campaign)
    rate_u, rate_t = pooled_rate(untraced), pooled_rate(traced)
    metrics["trace.untraced_trials_per_s"] = rate_u
    metrics["trace.traced_trials_per_s"] = rate_t
    metrics["trace.overhead_share"] = rate_u / rate_t - 1.0
    counts = dict.fromkeys(metrics, len(traced))
    counts["trace.untraced_trials_per_s"] = len(untraced)
    return metrics, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int, help="trials per campaign (default: the workload's)")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps the
    # running campaign instead of leaving it orphaned.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    try:
        numpy_version = check_checkout()
    except (SetupError, ImportError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    doc, lines = run(args.workload, args.seed, args.seconds, bool(args.trace), args.trials)
    print("# env " + json.dumps(environment(args.seed, numpy_version), sort_keys=True))
    print("\n".join(lines))
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
