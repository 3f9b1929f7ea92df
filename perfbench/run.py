#!/usr/bin/env python3
"""Benchmark of the HiMap mapper, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload fig8-gemm32 --seed 1 --seconds 30 --trace 0

The script builds the `himap-perfbench` program (perfbench/src) from source
with cargo into $CARGO_TARGET_DIR (default `.bench_build`), then drives it.

--trace 0 measures the end-to-end metrics: it starts one fresh `sample`
process after another (a closed loop, one compile at a time) until
--seconds have passed, and reports the median of each timing over the
samples. Each sample compiles every item of the workload through
`HiMap::map_with_stats`, then checks each output with the static verifier
and the cycle-accurate simulator. Times are the sample process's CPU time
(see `cpu_s` in src/main.rs).

--trace 1 measures the per-layer metrics. It makes three rounds of one
untraced sample, one `root` process that times each `map_with_stats` call
and names its winner, and one `replay` process that rebuilds each winner by
calling each layer's public function under a span, and reports medians over
the rounds. The replay must rebuild the very mapping the walk returned;
otherwise the run fails.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; metric names and units come
from BENCHMARK.json. See perfbench/README.md for the workloads.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
# Seconds a run may take after the build; a call still running then is
# killed and the run fails.
RUN_BUDGET = 170
# Rounds of (untraced sample, root, replay) in a traced run.
TRACE_ROUNDS = 3


class BenchError(Exception):
    pass


def build():
    """Builds the benchmark program and returns the path of its binary."""
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        env=env,
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        raise BenchError("cargo build failed")
    return os.path.join(target, "release", "himap-perfbench")


class Program:
    """The built benchmark program; every call must end by `deadline`."""

    def __init__(self, binary, deadline):
        self.binary = binary
        self.deadline = deadline

    def call(self, *args):
        """Runs the program once and returns the JSON object it prints last."""
        timeout = max(1.0, self.deadline - time.monotonic())
        done = subprocess.run(
            [self.binary, *args], capture_output=True, text=True, timeout=timeout
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise BenchError(f"`{' '.join(args)}` exited with {done.returncode}")
        lines = done.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"`{' '.join(args)}` printed nothing")
        return json.loads(lines[-1])


def end_to_end(program, workload, seed, seconds):
    """Fresh `sample` processes until `seconds` have passed; medians."""
    samples = []
    start = time.monotonic()
    while not samples or time.monotonic() - start < seconds:
        samples.append(program.call("sample", workload, str(seed)))
    attempted = sum(int(s["attempted"]) for s in samples)
    failures = [f for s in samples for f in s["failures"]]
    for failure in sorted(set(failures)):
        print(f"failed: {failure}", file=sys.stderr)
    # Mapping quality is deterministic: every sample must agree.
    quality = ("utilization", "sim_cycles", "config_slots")
    steady = all(s[k] == samples[0][k] for s in samples for k in quality)
    if not steady:
        print("mapping quality differs between samples", file=sys.stderr)
    metrics = {
        k: statistics.median(s[k] for s in samples)
        for k in ("setup_s", "compile_s", "verify_s", "simulate_s")
    }
    # The largest peak over the samples: the memory a compile must be given.
    # (Which of two allocation patterns a process takes varies from process
    # to process, so a median would flip between them from run to run.)
    metrics["peak_rss_mb"] = max(s["peak_rss_mb"] for s in samples)
    metrics.update({k: samples[0][k] for k in quality})
    metrics["ok_frac"] = 1.0 - len(failures) / attempted
    print(f"{len(samples)} samples", file=sys.stderr)
    correct = steady and all(int(s["wrong"]) == 0 for s in samples)
    return correct, attempted, len(failures), metrics


def per_layer(program, workload, seed):
    """Rounds of an untraced sample, the traced root compile and the replay.

    Each timing is the median over the rounds: one process's times vary by
    about 10 %, which would blur the replay's account of the root compile.
    """
    bases, roots, replays = [], [], []
    for _ in range(TRACE_ROUNDS):
        bases.append(program.call("sample", workload, str(seed)))
        root = program.call("root", workload, str(seed))
        winners = [item["winner"] for item in root["items"]]
        if roots and winners != [item["winner"] for item in roots[0]["items"]]:
            raise BenchError("two processes compiled different mappings")
        roots.append(root)
        replays.append(program.call("replay", workload, str(seed), *winners))
    items = roots[0]["items"]
    mapped = [item for item in items if item["winner"] != "-"]
    for replay in replays:
        for walk, rebuilt in zip(mapped, replay["items"]):
            # With a single candidate the walk is exactly the replayed
            # winner, so the replay must repeat its route and replication
            # counters.
            if walk["candidates_tried"] == 1 and any(
                walk[k] != rebuilt[k] for k in ("route_attempts", "replication_rounds")
            ):
                raise BenchError(f"{walk['kernel']}: replay counters {rebuilt} differ from {walk}")
    compile_s = statistics.median(base["compile_s"] for base in bases)
    root_s = statistics.median(sum(item["root_s"] for item in r["items"]) for r in roots)
    spans_s = statistics.median(replay["winner_spans_s"] for replay in replays)
    metrics = {
        name: statistics.median(replay["metrics"][name] for replay in replays)
        for name in replays[0]["metrics"]
    }
    tried = sum(item["candidates_tried"] for item in items)
    metrics.update({
        "core.walk.candidates_tried": tried,
        "core.walk.candidates_pruned": sum(item["candidates_pruned"] for item in items),
        "core.walk.useful_ratio": len(mapped) / tried if tried else 0.0,
        "core.walk.other_s": compile_s - spans_s,
        "trace.root_s": root_s,
        "trace.span_coverage": spans_s / root_s if root_s else 0.0,
        "trace.overhead_s": root_s - compile_s,
    })
    for item in items:
        if item["error"]:
            print(f"failed: {item['kernel']}: {item['error']}", file=sys.stderr)
    correct = all(int(base["wrong"]) == 0 for base in bases)
    return correct, len(items), len(items) - len(mapped), metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(SPEC) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        raise BenchError(f"unknown workload {args.workload}; known: {', '.join(workloads)}")
    program = Program(build(), time.monotonic() + RUN_BUDGET)
    if args.trace:
        listed = spec["per_layer"]
        correct, attempted, failed, metrics = per_layer(program, args.workload, args.seed)
    else:
        listed = spec["end_to_end"]
        correct, attempted, failed, metrics = end_to_end(
            program, args.workload, args.seed, args.seconds
        )
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed
        },
    }
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        sys.exit(1)
