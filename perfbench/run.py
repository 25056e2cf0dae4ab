#!/usr/bin/env python3
"""Build and run the simulator benchmark (perfbench).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]
    python3 perfbench/run.py --self-test

Run from the repository root.  The first call configures and builds
the driver (perfbench/CMakeLists.txt: the src/ libraries plus
perfbench.cc) in .bench_build/ as a Release build; later calls only
re-check the build.  Build output goes to stderr, so the last line
of stdout is the driver's JSON result.  With --trace 1 the span
trace is written to .bench_build/trace-<workload>-seed<N>.json.
--workload all runs every workload of BENCHMARK.json in turn, one
driver process each, and ends with one JSON object whose metrics
are keyed "<workload>/<metric>".

--self-test runs every workload for a few simulated epochs and
checks that each metric named in BENCHMARK.json is printed with its
unit, and that a corrupted fingerprint or audit count is counted as
a failed run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def commit():
    """The checkout's git commit, or 'unknown' outside a git repo."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_driver(args):
    """Run the driver; returns (stdout text, parsed last-line JSON)."""
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver timed out after {RUN_TIMEOUT_S}s")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail(f"driver exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(proc.stdout)
        fail("driver printed no JSON result")
    return proc.stdout, result


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def self_test():
    spec = load_spec()
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    quick = ["--seed", "7", "--seconds", "0.1", "--sim-seconds", "3"]
    problems = []
    for w in spec["workloads"]:
        for trace, want in expected.items():
            out = os.path.join(BUILD, f"selftest-{w['name']}.json")
            _, res = run_driver(["--workload", w["name"], "--trace", trace,
                                 "--trace-out", out] + quick)
            tag = f"{w['name']} trace={trace}"
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                wrong = sorted(k for k in set(want) & set(got)
                               if want[k] != got[k])
                problems.append(f"{tag}: missing {missing}, unexpected "
                                f"{extra}, wrong unit {wrong}")
            if not (res["correct"] and res["failed"] == 0
                    and res["attempted"] >= 2):
                problems.append(f"{tag}: clean run reported {res}")
    name = spec["workloads"][0]["name"]
    for corrupt in ("fingerprint", "audit"):
        _, res = run_driver(["--workload", name, "--trace", "0",
                             "--corrupt", corrupt] + quick)
        if res["correct"] or res["failed"] < 1:
            problems.append(f"--corrupt {corrupt} not counted as failed: "
                            f"correct={res['correct']} "
                            f"failed={res['failed']}")
    for p in problems:
        print(f"self-test: {p}")
    print("self-test:", "FAILED" if problems else "OK")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    build()
    if args.self_test:
        return self_test()
    if not args.workload:
        ap.error("--workload is required")
    names = ([w["name"] for w in load_spec()["workloads"]]
             if args.workload == "all" else [args.workload])
    sha = commit()
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        trace_out = os.path.join(BUILD, f"trace-{name}-seed{args.seed}.json")
        text, res = run_driver(["--workload", name,
                                "--seed", str(args.seed),
                                "--seconds", str(args.seconds),
                                "--trace", args.trace,
                                "--trace-out", trace_out,
                                "--commit", sha])
        if len(names) == 1:
            sys.stdout.write(text)
            return 0
        sys.stdout.write(text.rstrip("\n").rsplit("\n", 1)[0] + "\n\n")
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
