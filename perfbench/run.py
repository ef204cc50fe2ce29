"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload learn_rules --seed 101 --seconds 8 --trace 0
    python3 perfbench/run.py --selftest

Run it from the repository root. It builds what it needs (see build.py), runs
the workload in a fresh JVM, passes through that JVM's report lines, and
prints the result as the last line of standard output:

    {"correct": true, "attempted": 200, "failed": 0, "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json;
with `--trace 1` they are its per-layer metrics, and the spans go to
`.bench_build/perfbench/traces/`. See perfbench/README.md.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import threading

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = {"index_build": 11, "learn_rules": 101, "validate_batches": 101}
RUN_TIMEOUT_S = 170
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def declared_metrics(traced):
    with open(os.path.join(build.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=build.ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unavailable"
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"


def run_jvm(cmd):
    """Run the benchmark JVM; stream its stdout, return its lines and exit code."""
    lines = []
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True, cwd=build.ROOT)
    watchdog = threading.Timer(RUN_TIMEOUT_S, p.kill)
    watchdog.start()
    try:
        for line in p.stdout:
            line = line.rstrip("\n")
            lines.append(line)
            if not line.startswith("RESULT "):
                print(line, flush=True)
        code = p.wait()
    finally:
        watchdog.cancel()
        if p.poll() is None:
            p.kill()
            p.wait()
    return lines, code


def check_result(result, traced):
    """The result line must carry exactly the declared metrics and units."""
    want = declared_metrics(traced)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    got = result["metrics"]
    if set(got) != set(want):
        raise ValueError(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    for name, m in got.items():
        if not NAME.fullmatch(name) or m["unit"] != want[name] or not isinstance(m["value"], (int, float)):
            raise ValueError(f"bad metric {name}: {m}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=8)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true", help="run the benchmark's self-tests")
    a = ap.parse_args()
    if not a.selftest and not a.workload:
        ap.error("--workload is required")

    try:
        classpath, index, digest, tmp = build.ensure_built()
    except build.BuildError as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    main_class = "repro.perfbench.Main"
    if a.selftest:
        return subprocess.run(build.java_cmd(classpath, main_class, ["selftest"], tmp, build.SERIAL_GC),
                              cwd=build.ROOT).returncode

    seed = a.seed if a.seed is not None else WORKLOADS[a.workload]
    args = ["run", "--workload", a.workload, "--seed", str(seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace), "--index", index,
            "--trace-dir", os.path.join(build.OUT, "traces"),
            "--git-commit", git_commit(), "--source-digest", digest]
    gc = build.PARALLEL_GC if a.workload == "index_build" else build.SERIAL_GC
    lines, code = run_jvm(build.java_cmd(classpath, main_class, args, tmp, gc))
    results = [l[len("RESULT "):] for l in lines if l.startswith("RESULT ")]
    if code != 0 or len(results) != 1:
        print(f"perfbench: benchmark JVM exited with {code} and {len(results)} result lines", file=sys.stderr)
        return 1
    result = json.loads(results[0])
    try:
        check_result(result, a.trace == 1)
    except ValueError as e:
        print(f"perfbench: malformed result: {e}", file=sys.stderr)
        return 1
    failed_frac = result["failed"] / result["attempted"]
    print(f"failed_ops_frac: {failed_frac} ({result['failed']} of {result['attempted']} operations)")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
