"""Benchmark of wreatho: four seeded workloads, end-to-end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload blocks|center|nogo|char \\
        --seed N --seconds S --trace 0|1

A run repeats the workload's fixed operation list (a round) in fresh,
single-threaded worker processes, one at a time, for at most S seconds (by
default run_seconds of BENCHMARK.json): it starts no round that the last
one's length says would end later, but runs at least MIN_ROUNDS[workload]
rounds.  Every CLI call starts with cold caches, so every round starts a
new interpreter.  Outputs are checked outside the timed region, against
each other across rounds, and against the digests recorded in
digests.json.

--trace 0 reports the end-to-end metrics (medians over the rounds):
  run_s        wall time of one round's operations
  op_p50_ms    median latency of one operation in a round
  op_tail_ms   the pXX latency, XX fixed per workload so that at least ten
               samples lie beyond it in the smallest run
  setup_s      spawn of the interpreter until wreatho and wreatho.cli are
               imported, sampled several times per run
  peak_rss_mb  peak resident set size of the worker
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of the traced ones (see tracing.py) and the tracing overhead.

Failed operations (an exception, InternalConsistencyError, a CLI exit, a
failed output check or a changed digest) are counted in "failed"; a
summary line before the JSON result gives fail_ratio.

python3 perfbench/run.py --record-digests [--seed N] rewrites digests.json
from the outputs of the given seeds (default: the default seed).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "bench_out")
DIGESTS = os.path.join(HERE, "digests.json")

DEFAULT_SEED = 1
# Rounds per run at least, whatever --seconds says: enough latencies for a
# fixed tail percentile (see tail_percentile), sized to the round lengths
# (blocks ~7 s, center ~9 s, nogo ~2 s, char ~4 s on a 2-vCPU VM).  The
# resulting percentiles (blocks p96, center p80, nogo p93, char p86) fall
# inside a cluster of operations that cost about the same, not between
# two; center's p80 falls among the eight samples of its two 1424x168
# systems, near their middle (three rounds would give p74, the second
# lowest of six).
MIN_ROUNDS = {"blocks": 3, "center": 4, "nogo": 8, "char": 4}
MIN_TRACED_ROUNDS = 2
SETUP_PROBES = 8
WORKER_TIMEOUT_S = 120

sys.path.insert(0, HERE)

import workloads  # noqa: E402


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    # The program's cost depends on the iteration order of its sets and
    # dicts: under random string hashing one blocks round took 5.5 s or
    # 8.1 s, and single operations spread by a quarter.  Every worker gets
    # the same hash seed, so a run measures the program, not a draw.
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args: list[str], stdin: str | None) -> tuple[float, dict]:
    """Run the worker; returns (spawn time, parsed result)."""
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        input=stdin,
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=_env(),
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return t_spawn, json.loads(proc.stdout)


def probe_setup() -> float:
    t_spawn, result = _spawn(["--probe"], None)
    return result["ready"] - t_spawn


def run_round(ops, trace: bool, outputs: bool, spans: str | None = None) -> dict:
    job = json.dumps({"ops": ops, "trace": trace, "outputs": outputs, "spans": spans})
    t_spawn, result = _spawn([], job)
    result["setup_s"] = result["ready"] - t_spawn
    return result


def tail_percentile(workload: str, ops_per_round: int) -> int:
    """Highest whole percentile with at least ten samples beyond it in a
    run of the fewest rounds allowed."""
    samples = ops_per_round * MIN_ROUNDS[workload]
    return max(50, int(100 * (1 - 10 / samples)))


def percentile(values: list[float], p: int) -> float:
    """The p-th percentile, interpolated between neighbouring samples: a
    round repeats the same operations, so nearest-rank would jump between
    the latencies of two different operations."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def judge(ops, rounds, digests) -> tuple[int, int, list[str]]:
    """Count attempted and failed operations over all rounds.

    The first round's outputs go through the output checks; every round's
    digests must match the first round's and any recorded digest.
    """
    import checks

    attempted = failed = 0
    problems = []
    blocks: dict = {}
    first = rounds[0]
    for i, op in enumerate(ops):
        reference = first["records"][i].get("digest")
        for k, rnd in enumerate(rounds):
            attempted += 1
            rec = rnd["records"][i]
            problem = None
            if rec["error"] is not None:
                problem = rec["error"]
            elif rec["digest"] != reference:
                problem = f"output differs between rounds 1 and {k + 1}"
            elif op["id"] in digests and digests[op["id"]] != rec["digest"]:
                problem = "output differs from the recorded digest"
            elif k == 0:
                problem = checks.check(op, first["outputs"][op["id"]], blocks)
            if problem:
                failed += 1
                problems.append(f"{op['id']}: {problem}")
    return attempted, failed, problems


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def end_to_end(ops, rounds, setup_samples, workload) -> tuple[dict, list[str]]:
    latencies = [rec["ms"] for rnd in rounds for rec in rnd["records"]]
    p = tail_percentile(workload, len(ops))
    metrics = {
        "run_s": ([r["wall_s"] for r in rounds], "s"),
        "setup_s": (setup_samples, "s"),
        "peak_rss_mb": ([r["peak_rss_mb"] for r in rounds], "MB"),
    }
    # The median of each round's latencies, then over the rounds: pooled,
    # the median would sit between the slowest sample of one operation and
    # the fastest of the next, and follow the extremes of the noise.
    p50 = statistics.median(
        statistics.median(rec["ms"] for rec in rnd["records"]) for rnd in rounds
    )
    out = {
        "op_p50_ms": {"value": p50, "unit": "ms"},
        "op_tail_ms": {"value": percentile(latencies, p), "unit": "ms"},
    }
    lines = [
        f"{workload}: {len(rounds)} rounds of {len(ops)} operations",
        f"  op_p50_ms    {p50:.4f} ms, median of {len(rounds)} round medians",
        f"  op_tail_ms   {out['op_tail_ms']['value']:.4f} ms = p{p} over "
        f"{len(latencies)} latencies",
    ]
    for name, (values, unit) in metrics.items():
        q1, q2, q3 = _quartiles(values)
        out[name] = {"value": q2, "unit": unit}
        lines.append(
            f"  {name:12s} {q2:.4f} {unit} (quartiles {q1:.4f} .. {q3:.4f}, "
            f"n={len(values)})"
        )
    ordered = {k: out[k] for k in ("run_s", "op_p50_ms", "op_tail_ms", "setup_s", "peak_rss_mb")}
    return ordered, lines


def trace_overhead(untraced, traced) -> float:
    """Median over pairs of traced / untraced run_s, each traced round
    paired with the untraced round run just before it, so that the
    machine's slow drift cancels out."""
    return statistics.median(t["wall_s"] / u["wall_s"] for u, t in zip(untraced, traced))


def per_layer(untraced, traced, workload) -> tuple[dict, list[str]]:
    out = {}
    for name, first in traced[0]["layers"].items():
        values = [r["layers"][name]["value"] for r in traced]
        out[name] = {"value": statistics.median(values), "unit": first["unit"]}
    out["trace.overhead"] = {"value": trace_overhead(untraced, traced), "unit": "ratio"}
    lines = [f"{workload}: {len(traced)} traced and {len(untraced)} untraced rounds"]
    lines += [f"  {k:32s} {v['value']:.6g} {v['unit']}" for k, v in out.items()]
    return out, lines


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = workloads.make_ops(workload, seed)
    with open(DIGESTS) as fh:
        digests = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)

    probe_setup()  # first import compiles the bytecode cache; not counted
    setup_samples = [probe_setup() for _ in range(SETUP_PROBES)]

    start = time.monotonic()
    untraced, traced = [], []
    spans = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.jsonl")
    min_rounds = MIN_TRACED_ROUNDS if trace else MIN_ROUNDS[workload]
    last = 0.0  # length of the last round (pair of rounds when tracing)
    while len(untraced) < min_rounds or time.monotonic() - start + last <= seconds:
        t0 = time.monotonic()
        untraced.append(run_round(ops, False, outputs=not untraced))
        if trace:
            traced.append(run_round(ops, True, outputs=False, spans=spans))
        last = time.monotonic() - t0
    setup_samples += [r["setup_s"] for r in untraced]

    attempted, failed, problems = judge(ops, untraced + traced, digests)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    if trace:
        metrics, lines = per_layer(untraced, traced, workload)
    else:
        metrics, lines = end_to_end(ops, untraced, setup_samples, workload)
    lines.append(
        f"  fail_ratio   {failed / attempted:.4f} ({failed} of {attempted} operations)"
    )
    print("\n".join(lines))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_seconds() -> float:
    """The run length BENCHMARK.json gives, the default of --seconds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return float(json.load(fh)["run_seconds"])


def record_digests(seeds: list[int]) -> None:
    """Rewrite digests.json from one checked round per workload and seed."""
    recorded = {}
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            ops = workloads.make_ops(workload, seed)
            rnd = run_round(ops, False, outputs=True)
            _, failed, problems = judge(ops, [rnd], {})
            if failed:
                raise SystemExit("not recording: " + "; ".join(problems))
            for op, rec in zip(ops, rnd["records"]):
                if recorded.setdefault(op["id"], rec["digest"]) != rec["digest"]:
                    raise SystemExit(f"{op['id']} gave two different outputs")
            print(f"{workload} seed {seed}: {len(ops)} digests", file=sys.stderr)
    with open(DIGESTS, "w") as fh:
        json.dump(dict(sorted(recorded.items())), fh, indent=0)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, action="append")
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "wreatho", "__init__.py")):
        print(f"no wreatho sources under {SRC}", file=sys.stderr)
        return 2
    seeds = args.seed or [DEFAULT_SEED]
    if args.record_digests:
        record_digests(seeds)
        return 0
    if args.workload is None or len(seeds) != 1:
        parser.error("give --workload and one --seed")
    result = measure(args.workload, seeds[0], args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
