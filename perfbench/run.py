#!/usr/bin/env python3
"""Build and run the simulator's end-to-end benchmark.

    python3 perfbench/run.py --workload <name>|all [--seed N] [--trace 0|1]

Run from the repository root.  Builds perfbench/ together with the
simulator's src/ into .bench_build/perfbench, then runs the workload (or
each in turn) and prints the program's own lines, one environment-stamp
line, and last the JSON result {"correct", "attempted", "failed",
"metrics"}.  The metrics are the ones BENCHMARK.json lists for the mode:
end_to_end with --trace 0, per_layer with --trace 1 (which also writes a
Perfetto trace to .bench_build/traces/).  Exits non-zero, without a result
line, when the build fails or the program's output breaks BENCHMARK.json's
contract; and with the program's exit code when a correctness check fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 175  # one run must end within 180 s


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def read(path):
    with open(path) as f:
        return f.read()


def cpu_ticks():
    """(idle, steal, total) jiffies from the aggregate cpu line of /proc/stat."""
    try:
        fields = [int(x) for x in read("/proc/stat").split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return None
    idle = fields[3] + (fields[4] if len(fields) > 4 else 0)  # idle + iowait
    steal = fields[7] if len(fields) > 7 else 0
    return idle, steal, sum(fields[:8])


def cpu_model():
    try:
        for line in read("/proc/cpuinfo").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over src/ and perfbench/: names the code when git cannot."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources at src/; run from a full checkout")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_workload(bench, workload, seed, trace):
    """Run one workload, print its lines, and return the program's exit code."""
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
           "--trace", str(trace)]
    if trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_out = os.path.join(trace_dir, "%s-seed%d.json" % (workload, seed))
        cmd += ["--trace-out", trace_out]
        print("run.py: trace -> " + trace_out, file=sys.stderr)

    load = os.getloadavg()
    ticks0 = cpu_ticks()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("perfbench did not finish within %d s" % RUN_TIMEOUT_S)
    ticks1 = cpu_ticks()
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("perfbench exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])

    # BENCHMARK.json is the contract: exactly its metrics, in its units.
    want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or got != want:
        fail("result does not match BENCHMARK.json: missing %s, unexpected %s, "
             "unit mismatch %s" % (sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                                   sorted(k for k in want if k in got and want[k] != got[k])))

    env = {"nproc": os.cpu_count(), "cpu_model": cpu_model(), "git_commit": git_commit(),
           "source_sha256": source_digest(), "loadavg": [round(x, 2) for x in load],
           "workload": workload, "seed": seed, "trace": trace}
    if ticks0 and ticks1:
        env["idle_ticks"], env["steal_ticks"], env["total_ticks"] = (
            b - a for a, b in zip(ticks0, ticks1))
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"env": env}))
    print(lines[-1], flush=True)
    return proc.returncode


def main():
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(bench_path):
        fail("BENCHMARK.json not found")
    bench = json.loads(read(bench_path))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    # The run length is BENCHMARK.json's run_seconds.  The option exists
    # because the benchmark calling convention (--workload, --seed,
    # --seconds, --trace) includes it; no other value is accepted.
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"],
                    help="must equal run_seconds in BENCHMARK.json (%d)"
                    % bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds != bench["run_seconds"]:
        ap.error("--seconds must be run_seconds from BENCHMARK.json (%d)"
                 % bench["run_seconds"])

    build()
    rc = 0
    for name in names if args.workload == "all" else [args.workload]:
        rc = max(rc, run_workload(bench, name, args.seed, args.trace))
    sys.exit(rc)


if __name__ == "__main__":
    main()
