#!/usr/bin/env python3
"""Runs the benchmark in alternating pairs: a parent revision against the
working tree, and judges every metric by the benchmark's rules.

    python3 scripts/pairs.py --parent REV [--workloads fj-ring,ppl-ring]
        [--seed N] [--pairs N] [--seconds S] [--trace 0|1] [--out PATH]

It snapshots the working tree (tracked and untracked files that
`.gitignore` does not exclude) as a commit object without touching the
index or any branch, checks REV and the snapshot out as `git worktree`s
under `target/pairs/`, and builds perfbench in each with its own
`CARGO_TARGET_DIR` (`target/pairs/build-parent`, `target/pairs/build-change`,
kept between calls so rebuilds are incremental).  Then, per workload, it
runs `BENCHMARK.json`'s command on both sides `--pairs` times, alternating
which side runs first, and reads each run's last two lines (the digest
line and the result line).  The worktrees are removed when it finishes.

For every metric a run prints it reports each side's median and quartiles,
the per-pair ratio (change / parent) median and quartiles, and the pairs
the change won (ties count for neither side), with a verdict:

- `gain`: over at least ten pairs, the change won at least nine tenths
  of them and its median is better than the parent's by more than the
  distance between the parent's quartiles;
- `regression` (end-to-end metrics): the change's median is worse than the
  parent's by more than the metric's bound in `BENCHMARK.json`;
- `worse` (per-layer metrics): the mirror of `gain`;
- `unresolved` (end-to-end metrics): the parent's quartiles lie further
  apart than the bound allows, and the change's runs are not all better
  than all the parent's;
- otherwise `within-bound` (end-to-end) or `no-clear-change` (per-layer).

Per pair it reports whether both runs printed `"correct": true` and
whether their `sim_digest`s are equal.  It prints one table per workload
and writes everything as JSON to `--out` (default
`target/pairs/pairs.json`).  The exit status is 1 if any run was not
correct, any pair's digests differ or any end-to-end metric regressed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "target" / "pairs"
SIDES = ("parent", "change")


def git(*args, env=None):
    return subprocess.run(
        ["git", *args], cwd=ROOT, env=env, check=True, capture_output=True, text=True
    ).stdout.strip()


def snapshot_working_tree():
    """A commit object holding the working tree as it is now, on top of HEAD."""
    index = WORK / "snapshot.index"
    env = dict(os.environ, GIT_INDEX_FILE=str(index))
    try:
        git("read-tree", "HEAD", env=env)
        git("add", "-A", env=env)
        tree = git("write-tree", env=env)
    finally:
        index.unlink(missing_ok=True)
    return git("commit-tree", tree, "-p", "HEAD", "-m", "pairs.py: working tree snapshot")


def add_worktree(side, commit):
    path = WORK / side
    if path.exists():
        remove_worktree(side)
    git("worktree", "add", "--detach", "--force", str(path), commit)
    return path


def remove_worktree(side):
    path = WORK / side
    subprocess.run(
        ["git", "worktree", "remove", "--force", str(path)], cwd=ROOT, capture_output=True
    )
    shutil.rmtree(path, ignore_errors=True)
    git("worktree", "prune")


def side_env(side):
    return dict(os.environ, CARGO_TARGET_DIR=str(WORK / f"build-{side}"))


def build(side, tree):
    print(f"building {side} ...", file=sys.stderr, flush=True)
    subprocess.run(
        ["cargo", "build", "--quiet", "--release", "--offline", "--manifest-path",
         "perfbench/Cargo.toml"],
        cwd=tree, env=side_env(side), check=True,
    )


def run(side, tree, command, workload, args):
    cmd = [*command, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    out = subprocess.run(cmd, cwd=tree, env=side_env(side), capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        sys.exit(f"{side} {workload}: exit {out.returncode}\n{out.stderr}")
    digest, result = json.loads(lines[-2]), json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"correct": result["correct"], "sim_digest": digest["sim_digest"],
            "metrics": metrics, "units": {n: m["unit"] for n, m in result["metrics"].items()}}


def spread(values):
    """Median and quartiles (inclusive method) of `values`."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def judge(parent, change, better, bound):
    """The verdict on one metric: see the module doc."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p, c = spread(parent), spread(change)
    iqr = p["q3"] - p["q1"]
    gain = sign * (c["median"] - p["median"])
    if len(parent) >= 10 and 10 * wins >= 9 * len(parent) and gain > iqr:
        return wins, "gain"
    if bound is None:
        losses = sum(sign * (c_ - p_) < 0 for p_, c_ in zip(parent, change))
        worse = len(parent) >= 10 and 10 * losses >= 9 * len(parent) and -gain > iqr
        return wins, "worse" if worse else "no-clear-change"
    base = abs(p["median"])
    if base > 0 and -gain / base > bound:
        return wins, "regression"
    if better == "higher":
        separated = min(change) > max(parent)
    else:
        separated = max(change) < min(parent)
    if base > 0 and iqr / base > bound and not separated:
        return wins, "unresolved"
    return wins, "within-bound"


def summarise(runs, catalogue):
    metrics = {}
    for name in runs[0]["parent"]["metrics"]:
        parent = [r["parent"]["metrics"][name] for r in runs]
        change = [r["change"]["metrics"][name] for r in runs]
        better, bound = catalogue.get(name, ("lower", None))
        wins, verdict = judge(parent, change, better, bound)
        ratios = [c / p for p, c in zip(parent, change) if p]
        metrics[name] = {
            "unit": runs[0]["parent"]["units"][name], "better": better, "bound": bound,
            "parent": {**spread(parent), "runs": parent},
            "change": {**spread(change), "runs": change},
            "ratio": spread(ratios) if ratios else None,
            "wins": wins, "pairs": len(runs), "verdict": verdict,
        }
    return metrics


def print_table(workload, summary):
    pairs = summary["pairs"]
    equal = sum(p["digests_equal"] for p in pairs)
    correct = sum(p["parent"]["correct"] and p["change"]["correct"] for p in pairs)
    print(f"\n{workload}: {len(pairs)} pairs, digests equal in {equal}, "
          f"both correct in {correct}")
    print(f"{'metric':<28} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
          f"{'ratio':>7} {'wins':>6}  verdict")
    for name, m in summary["metrics"].items():
        p, c = (f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"
                for s in (m["parent"], m["change"]))
        ratio = f"{m['ratio']['median']:.3f}" if m["ratio"] else "-"
        wins = f"{m['wins']}/{m['pairs']}"
        print(f"{name:<28} {p:>34} {c:>34} {ratio:>7} {wins:>6}  {m['verdict']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the revision to compare against")
    ap.add_argument("--workloads", help="comma-separated; default: all of BENCHMARK.json's")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, help="default: BENCHMARK.json's run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=WORK / "pairs.json")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = bench["command"]
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    catalogue = {m["name"]: (m["better"], m.get("bound")) for m in bench["end_to_end"]}
    catalogue.update({m["name"]: (m["better"], None) for m in bench["per_layer"]})

    WORK.mkdir(parents=True, exist_ok=True)
    commits = {"parent": git("rev-parse", "--verify", args.parent + "^{commit}"),
               "change": snapshot_working_tree()}
    try:
        trees = {side: add_worktree(side, commits[side]) for side in SIDES}
        for side in SIDES:
            build(side, trees[side])
        report = {"parent": commits["parent"], "change": commits["change"],
                  "head": git("rev-parse", "HEAD"), "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace, "workloads": {}}
        for workload in workloads:
            runs = []
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run(side, trees[side], command, workload, args)
                pair["digests_equal"] = pair["parent"]["sim_digest"] == pair["change"]["sim_digest"]
                runs.append(pair)
                print(f"{workload} pair {i + 1}/{args.pairs}: digests equal "
                      f"{pair['digests_equal']}", file=sys.stderr, flush=True)
            summary = {"pairs": runs, "metrics": summarise(runs, catalogue)}
            report["workloads"][workload] = summary
            print_table(workload, summary)
    finally:
        for side in SIDES:
            remove_worktree(side)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nwrote {args.out}")
    failed = any(
        not (p["digests_equal"] and p["parent"]["correct"] and p["change"]["correct"])
        for s in report["workloads"].values() for p in s["pairs"]
    ) or any(m["verdict"] == "regression"
             for s in report["workloads"].values() for m in s["metrics"].values())
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
