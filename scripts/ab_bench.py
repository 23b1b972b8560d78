#!/usr/bin/env python3
"""Interleaved A/B runs of the repository benchmark (BENCHMARK.json).

Exports two revisions of the repository — the parent (``--base``, default
``HEAD``) and the change (``--change``, default the working tree: tracked
plus untracked, non-ignored files) — into ``.bench_build/base`` and
``.bench_build/head``. The two paths have equal length, so nothing that
depends on the length of a build path (embedded panic locations, symbol
tables, the binary's size) differs between the sides. Every run empties
both exports, build caches included, and stamps each file it writes with
the export time, so each side is built from its own bytes: cargo trusts a
path crate whose sources are older than its build, and ``git archive``
dates each file at its commit, so a kept cache could pass a build of other
bytes off as the revision's. A kept cache saved no time either: every
dependency is a path crate, and stamping rebuilds them all.

Both sides are built with BENCHMARK.json's ``command`` (``run`` swapped for
``build``), then each workload runs ``--pairs`` pairs: pair ``i`` uses seed
``--seed + i`` on both sides, and the side that runs first alternates from
pair to pair so a drift of the machine hits both equally. Per metric it
prints the medians and quartiles of both sides, the change of the median,
the pairs the change won, and for the end-to-end metrics:

* ``gain`` when the change is better in at least nine of ten pairs and its
  median beats the parent's by more than the parent's interquartile range
  (the rule a claimed gain must meet);
* ``worse`` when the change's median is worse than the parent's by more than
  the metric's ``bound`` (a fraction of the parent's median);
* ``spread`` when either side's interquartile range exceeds that bound;
* ``ok`` otherwise.

It exits non-zero if any run fails (a non-zero exit, or ``correct`` false in
the run's result line), and ``2`` if any end-to-end metric is ``worse``.

``--self-test`` checks the statistics and verdicts on a fixed table, that
BENCHMARK.json gives every end-to-end metric a direction and a bound, and
that an export of ``HEAD`` and of the working tree stamps every file with
the export time. It builds and runs nothing; it writes only those two
exports, to a temporary directory it removes.

Usage:
  ab_bench.py [--base REV] [--change REV] [--workloads a,b] [--pairs N]
              [--seed N] [--seconds N] [--trace 0|1]
  ab_bench.py --self-test
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time

BUILD_DIR = ".bench_build"
SIDES = ("base", "head")  # equal length on purpose: see the module doc


def quantile(values, q):
    """Linear-interpolation quantile (the 'inclusive' rule) of a sample."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summary(values):
    return {
        "median": quantile(values, 0.5),
        "q1": quantile(values, 0.25),
        "q3": quantile(values, 0.75),
    }


def better(a, b, direction):
    """Whether value ``a`` is better than ``b`` for a metric's direction."""
    return a < b if direction == "lower" else a > b


def compare(base, head, direction, bound=None):
    """Compares paired samples of one metric (``base[i]`` pairs ``head[i]``).

    Returns the summaries, the change of the median (a fraction of the
    parent's median), the pairs the change won, and the verdict (``None``
    for a metric without a bound).
    """
    b, h = summary(base), summary(head)
    change = (h["median"] - b["median"]) / b["median"] if b["median"] else math.nan
    won = sum(better(y, x, direction) for x, y in zip(base, head))
    verdict = None
    if bound is not None:
        base_iqr = b["q3"] - b["q1"]
        head_iqr = h["q3"] - h["q1"]
        gap = b["median"] - h["median"] if direction == "lower" else h["median"] - b["median"]
        limit = bound * abs(b["median"])
        if -gap > limit:
            verdict = "worse"
        elif base_iqr > limit or head_iqr > limit:
            verdict = "spread"
        elif won * 10 >= 9 * len(base) and gap > base_iqr:
            verdict = "gain"
        else:
            verdict = "ok"
    return {"base": b, "head": h, "change": change, "won": won, "verdict": verdict}


def load_benchmark(root):
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    for metric in bench["end_to_end"]:
        if metric.get("better") not in ("lower", "higher"):
            raise ValueError(f"{metric['name']}: 'better' must be lower or higher")
        if not isinstance(metric.get("bound"), (int, float)) or metric["bound"] <= 0:
            raise ValueError(f"{metric['name']}: needs a positive 'bound'")
    for metric in bench["per_layer"]:
        if metric.get("better") not in ("lower", "higher"):
            raise ValueError(f"{metric['name']}: 'better' must be lower or higher")
    return bench


def git(root, *args):
    return subprocess.run(
        ["git", *args], cwd=root, check=True, capture_output=True, text=True
    ).stdout


def export(root, rev, dest):
    """Writes revision ``rev`` (or the working tree for ``None``) to an
    emptied ``dest``, every file stamped with the export time (see the
    module doc)."""
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    if rev is None:
        listed = git(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
        for name in filter(None, listed.split("\0")):
            source = os.path.join(root, name)
            if not os.path.isfile(source):
                continue  # deleted in the working tree
            target = os.path.join(dest, name)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copy(source, target)
    else:
        archive = subprocess.run(
            ["git", "archive", "--format=tar", rev], cwd=root, check=True, capture_output=True
        ).stdout
        subprocess.run(["tar", "-x", "-m", "-C", dest], input=archive, check=True)


def build_command(command):
    """BENCHMARK.json's run command turned into the matching build."""
    args = list(command)
    if "--" in args:
        args = args[: args.index("--")]
    return ["build" if arg == "run" else arg for arg in args]


def run_once(command, cwd, workload, seed, seconds, trace):
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(args, cwd=cwd, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if done.returncode != 0 or result is None or not result.get("correct"):
        tail = "\n".join((done.stdout + done.stderr).strip().splitlines()[-15:])
        raise RuntimeError(f"exit {done.returncode}:\n{tail}")
    return result


def render(workload, rows, pairs):
    print(f"\n### {workload} ({pairs} pairs)\n")
    print("| metric | parent median [IQR] | change median [IQR] | change | pairs won | verdict |")
    print("|---|---|---|---|---|---|")
    for name, unit, result in rows:
        b, h = result["base"], result["head"]
        print(
            f"| `{name}` | {b['median']:.4g} [{b['q1']:.4g}–{b['q3']:.4g}] {unit} "
            f"| {h['median']:.4g} [{h['q1']:.4g}–{h['q3']:.4g}] {unit} "
            f"| {result['change'] * 100:+.1f}% | {result['won']}/{pairs} "
            f"| {result['verdict'] or '—'} |"
        )


def ab(args, root, bench):
    exports = {side: os.path.join(root, BUILD_DIR, side) for side in SIDES}
    export(root, args.base, exports["base"])
    export(root, args.change, exports["head"])
    for side in SIDES:
        print(f"building {side} in {exports[side]}", flush=True)
        subprocess.run(build_command(bench["command"]), cwd=exports[side], check=True)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"] if args.trace == 0 else bench["end_to_end"] + bench["per_layer"]
    worse = False
    for workload in workloads:
        samples = {side: [] for side in SIDES}
        failed = {side: 0 for side in SIDES}
        attempted = {side: 0 for side in SIDES}
        for i in range(args.pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else tuple(reversed(SIDES))
            for side in order:
                try:
                    result = run_once(bench["command"], exports[side], workload,
                                      seed, args.seconds, args.trace)
                except RuntimeError as error:
                    print(f"FAIL: {workload} {side} seed {seed}: {error}", file=sys.stderr)
                    return 1
                samples[side].append(result["metrics"])
                failed[side] += result["failed"]
                attempted[side] += result["attempted"]
            print(f"{workload}: pair {i + 1}/{args.pairs} done (seed {seed}, "
                  f"{'/'.join(order)})", flush=True)
        rows = []
        for metric in metrics:
            name = metric["name"]
            if not all(name in run for side in SIDES for run in samples[side]):
                continue
            values = {side: [run[name]["value"] for run in samples[side]] for side in SIDES}
            result = compare(values["base"], values["head"], metric["better"], metric.get("bound"))
            worse |= result["verdict"] == "worse"
            rows.append((name, metric["unit"], result))
        render(workload, rows, args.pairs)
        print(f"\nfailed operations: parent {failed['base']}/{attempted['base']}, "
              f"change {failed['head']}/{attempted['head']}")
    return 2 if worse else 0


def self_test(root):
    bench = load_benchmark(root)
    names = {m["name"] for m in bench["end_to_end"]}
    assert {"cpu_us_per_job", "jobs_per_s", "job_p50_us"} <= names, names
    assert build_command(["cargo", "run", "--release", "--", "--x"]) == ["cargo", "build", "--release"]
    assert quantile([4, 1, 3, 2], 0.5) == 2.5
    assert quantile([1, 2, 3, 4, 5], 0.25) == 2.0
    assert quantile([1, 2, 3, 4], 0.75) == 3.25
    # A fixed table: ten pairs of a lower-is-better metric (bound 20%).
    base = [86.3, 84.0, 90.7, 88.1, 85.2, 83.9, 91.0, 86.0, 87.4, 84.4]
    head = [49.4, 50.1, 48.8, 49.9, 51.0, 48.2, 50.5, 49.0, 88.0, 49.7]
    result = compare(base, head, "lower", 0.2)
    assert result["won"] == 9, result
    assert result["verdict"] == "gain", result
    assert abs(result["base"]["median"] - 86.15) < 1e-9, result
    assert abs(result["change"] - (49.8 - 86.15) / 86.15) < 1e-9, result
    # Eight wins of ten is no gain, however large the median gap.
    eight = head[:8] + [95.0, 95.0]
    assert compare(base, eight, "lower", 0.2)["verdict"] == "ok"
    # Higher-is-better: a 25% drop against a 20% bound is worse.
    through = [1000.0] * 10
    assert compare(through, [750.0] * 10, "higher", 0.2)["verdict"] == "worse"
    assert compare(through, [850.0] * 10, "higher", 0.2)["verdict"] == "ok"
    # A side whose middle half is wider than the bound cannot be judged.
    wide = [600.0, 700.0, 800.0, 900.0, 1000.0, 1000.0, 1100.0, 1200.0, 1300.0, 1400.0]
    assert compare(through, wide, "higher", 0.2)["verdict"] == "spread"
    # Metrics without a bound (per-layer) get no verdict.
    assert compare(base, head, "lower")["verdict"] is None
    # Exports carry fresh mtimes, so cargo never trusts a build of other
    # bytes (one second of slack for the file system's timestamp grain).
    with tempfile.TemporaryDirectory() as scratch:
        for rev in ("HEAD", None):
            dest = os.path.join(scratch, rev or "tree")
            started = time.time() - 1
            export(root, rev, dest)
            stale = [os.path.join(top, name)
                     for top, _, names in os.walk(dest) for name in names
                     if os.path.getmtime(os.path.join(top, name)) < started]
            assert not stale, f"{rev or 'working tree'}: kept old mtimes: {stale[:3]}"
    print("ab_bench self-test: ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="parent revision (default HEAD)")
    parser.add_argument("--change", default=None,
                        help="changed revision (default: the working tree)")
    parser.add_argument("--workloads", default="", help="comma-separated; default all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if args.self_test:
        return self_test(root)
    bench = load_benchmark(root)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    return ab(args, root, bench)


if __name__ == "__main__":
    sys.exit(main())
