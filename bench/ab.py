#!/usr/bin/env python3
"""A/B the working tree against a parent revision with perfbench.

    python3 bench/ab.py --parent <rev> [--workload <name>|all] [--pairs 10]
                        [--seed 1] [--scratch DIR]

Run from the repository root.  Exports <rev> with `git archive` into a
scratch directory outside the repository (default: $TMPDIR/cg-ab-<rev>,
kept between invocations so its perfbench build is reused), then runs
each side's own `perfbench/run.py --workload W --seed S`, alternating the
sides and flipping which goes first in every pair.  Prints, per workload
and end-to-end metric, each side's median and IQR, the pairs the working
tree won, and whether the claim rule holds: at least 9 of 10 pairs won
(the same share for other pair counts) and a median gap larger than the
parent's IQR.  Also prints every run's broadcasts_per_s (whether every
change run beat every parent run needs the runs, not the quartiles), its
load and steal share from its environment stamp, warning when the host
looked busy, and the address mod 64 and size (`nm -C -S`) of the hot
functions in both binaries: the pinned loops, and the stepped engine's
dispatch and do_send, whose inlining moves with unrelated changes (a
function GCC inlined is reported as absent).

Writes nothing inside the repository except what perfbench/run.py itself
builds (.bench_build/).  Exit status: 0, or 1 when a run fails.
"""
import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BINARY = os.path.join(".bench_build", "perfbench", "perfbench")
HOT_LOOPS = (
    "cg::Engine<cg::CcgNode>::run_impl()",
    "cg::Engine<cg::CcgNode>::dispatch(int, cg::Message const&)",
    "cg::Engine<cg::CcgNode>::do_send(int, int, cg::Message const&)",
    "cg::ShardedEngine<cg::CcgNode>::run_window(int, long, long)",
    "cg::ShardedEngine<cg::SbrbNode>::run_window(int, long, long)",
)
# A run is flagged as taken on a busy host when the 1-minute load before it
# came within BUSY_LOAD_SPARE of the vCPU count (the previous run's own
# threads also count toward that average, hence the loose bar), or when the
# hypervisor stole more than BUSY_STEAL_FRAC of the run's ticks.
BUSY_LOAD_SPARE = 1.0
BUSY_STEAL_FRAC = 0.05


def fail(msg):
    print("ab.py: " + msg, file=sys.stderr)
    sys.exit(1)


def git(*args):
    out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                         text=True)
    if out.returncode != 0:
        fail("git %s: %s" % (" ".join(args), out.stderr.strip()))
    return out.stdout.strip()


def export_parent(rev, scratch):
    """git archive `rev` into `scratch` (once); returns the tree's path."""
    commit = git("rev-parse", "--verify", rev + "^{commit}")
    path = scratch or os.path.join(tempfile.gettempdir(), "cg-ab-" + commit[:12])
    path = os.path.abspath(path)
    if os.path.commonpath([path, ROOT]) == ROOT:
        fail("the scratch directory must be outside the repository")
    stamp = os.path.join(path, ".ab-commit")
    if os.path.exists(stamp):
        with open(stamp) as f:
            if f.read().strip() == commit:
                return path, commit
        fail("%s holds another export; pass a fresh --scratch" % path)
    os.makedirs(path, exist_ok=True)
    if os.listdir(path):
        fail("%s is not empty; pass a fresh --scratch" % path)
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT,
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", path], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        fail("git archive %s failed" % commit)
    with open(stamp, "w") as f:
        f.write(commit + "\n")
    return path, commit


def run_side(tree, workload, seed):
    """One perfbench run; returns (result, env) from its last two lines."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed)],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-2000:])
        fail("perfbench/run.py in %s exited %d" % (tree, proc.returncode))
    return json.loads(lines[-1]), json.loads(lines[-2])["env"]


def quartiles(xs):
    """(q1, median, q3) with linear interpolation (numpy's default)."""
    s = sorted(xs)

    def q(p):
        k = (len(s) - 1) * p
        lo, hi = math.floor(k), math.ceil(k)
        return s[lo] + (s[hi] - s[lo]) * (k - lo)

    return q(0.25), q(0.5), q(0.75)


def host_note(env):
    load = env.get("loadavg", [0])[0]
    total = env.get("total_ticks") or 0
    steal = env.get("steal_ticks", 0) / total if total else 0.0
    busy = 1.0 - env.get("idle_ticks", 0) / total if total else 0.0
    nproc = env.get("nproc") or 1
    flag = load > nproc - BUSY_LOAD_SPARE or steal > BUSY_STEAL_FRAC
    return load, steal, busy, flag


def hot_loops(binary):
    """{symbol: (address mod 64, size)} for HOT_LOOPS in `binary`, or None
    when `binary` cannot be read."""
    try:
        proc = subprocess.run(["nm", "-C", "-S", binary], capture_output=True,
                              text=True)
    except OSError:
        return None
    if proc.returncode != 0:
        return None
    out = proc.stdout
    found = {}
    for line in out.splitlines():
        parts = line.split(None, 3)
        if len(parts) == 4 and parts[3] in HOT_LOOPS:
            found[parts[3]] = (int(parts[0], 16) % 64, int(parts[1], 16))
    return found


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="revision to compare with")
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--scratch", help="directory for the parent's export")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    parent, commit = export_parent(args.parent, args.scratch)
    sides = {"parent": parent, "change": ROOT}
    print("parent %s exported to %s" % (commit[:12], parent))
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    need = math.ceil(0.9 * args.pairs)

    for workload in names if args.workload == "all" else [args.workload]:
        runs = {"parent": [], "change": []}
        print("\n== %s, seed %d, %d pairs" % (workload, args.seed, args.pairs))
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result, env = run_side(sides[side], workload, args.seed)
                runs[side].append((result, env))
                load, steal, busy, flag = host_note(env)
                print("pair %2d %-6s broadcasts_per_s=%.4g failed=%d "
                      "load=%.2f steal=%.1f%% busy=%.0f%%%s" % (
                          i + 1, side,
                          result["metrics"]["broadcasts_per_s"]["value"],
                          result["failed"], load, 100 * steal, 100 * busy,
                          "  WARNING: host busy" if flag else ""),
                      flush=True)

        print("\n%-22s %12s %9s %12s %9s %6s %9s  %s" % (
            "metric", "parent", "IQR", "change", "IQR", "won", "delta",
            "claim (>= %d of %d won, gap > parent IQR)" % (need, args.pairs)))
        for metric in better:
            vals = {s: [r["metrics"][metric]["value"] for r, _ in runs[s]]
                    for s in runs}
            pq1, pmed, pq3 = quartiles(vals["parent"])
            cq1, cmed, cq3 = quartiles(vals["change"])
            sign = 1 if better[metric] == "higher" else -1
            won = sum(1 for p, c in zip(vals["parent"], vals["change"])
                      if sign * (c - p) > 0)
            delta = (cmed - pmed) / pmed if pmed else 0.0
            holds = won >= need and sign * (cmed - pmed) > pq3 - pq1
            worse = -sign * delta > bounds[metric]
            print("%-22s %12.5g %9.3g %12.5g %9.3g %3d/%-2d %+8.1f%%  %s%s" % (
                metric, pmed, pq3 - pq1, cmed, cq3 - cq1, won, args.pairs,
                100 * delta, "holds" if holds else "no",
                "  WORSE THAN BOUND %.0f%%" % (100 * bounds[metric])
                if worse else ""))
        rate = "broadcasts_per_s"
        _, pmed, _ = quartiles([r["metrics"][rate]["value"]
                                for r, _ in runs["parent"]])
        for side in runs:
            q1, _, q3 = quartiles([r["metrics"][rate]["value"]
                                   for r, _ in runs[side]])
            print("%s spread: %s IQR / parent median = %.2f (check: <= 0.25)"
                  % (side, rate, (q3 - q1) / pmed if pmed else 0.0))
        failed = sum(r["failed"] for s in runs for r, _ in runs[s])
        if failed:
            print("WARNING: %d failed operations" % failed)

    print("\nhot functions (address mod 64, size in bytes; absent = inlined)")
    loops = {s: hot_loops(os.path.join(sides[s], BINARY)) for s in sides}
    for s in sides:
        if loops[s] is None:
            print("  %s: cannot read %s" % (s, BINARY))
    for sym in HOT_LOOPS:
        cells = []
        for s in sides:
            off = (loops[s] or {}).get(sym)
            cells.append("%s %s" % (s, "%d, %d" % off if off else "absent"))
        print("  %-60s %s" % (sym, " | ".join(cells)))


if __name__ == "__main__":
    main()
