#!/usr/bin/env python3
"""Paired benchmark runs of two git revisions.

Run from inside a clone of the repository:

    python3 tools/bench_pairs.py PARENT CHANGE --workload wide-simple --seeds 1 2 3 4 5

Both revisions are checked out with ``git worktree`` into a temporary
directory, and each side's ``perfbench/run.py --trace 0`` runs once per seed,
the seed list fixed before the first run.  Pair ``i`` runs PARENT first when
``i`` is even and CHANGE first when it is odd, so a drift of the machine
falls on both sides alike.  Each run is a child process with one BLAS
thread.  Beside the harness's probe-scaled metrics (its last stdout line),
every run records the raw CPU seconds the harness prints to stderr, as
``raw.<phase>``, and the child's own CPU seconds and minor page faults from
``getrusage``, as ``proc.cpu_s`` and ``proc.minflt``: figures the probe does
not scale.

For each metric it prints both sides' medians, the change in percent, the
interquartile range of PARENT's runs, the pairs CHANGE won, and a verdict
against ``BENCHMARK.json``'s end-to-end bounds: ``worse`` past the bound,
``gain`` when there are at least ``MIN_PAIRS`` pairs, CHANGE won at least 9
in 10 of them and its median moved by more than PARENT's interquartile
range, and ``same`` otherwise.  Every
raw result, failed runs included, goes to ``BENCH_<label>.json`` at the
root of the repository.  The tool imports nothing of the repository and
writes nothing under ``perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")
# the fewest pairs that can read ``gain``: one pair wins 1 of 1, and one run has no spread
MIN_PAIRS = 10


def git(repo: str, *args: str) -> str:
    return subprocess.run(["git", "-C", repo, *args], check=True, capture_output=True, text=True).stdout.strip()


def stderr_objects(text: str) -> dict:
    """The ``name: {...}`` lines of a run's stderr whose value is a JSON object, by name."""
    found = {}
    for line in text.splitlines():
        name, sep, rest = line.partition(": ")
        if sep and rest.startswith("{"):
            try:
                found[name] = json.loads(rest)
            except ValueError:
                pass
    return found


def run_once(tree: str, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``tree``: its result line, stderr objects and usage."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    record = {
        "returncode": proc.returncode,
        "stderr": stderr_objects(proc.stderr),
        "proc": {"cpu_s": (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
                 "minflt": after.ru_minflt - before.ru_minflt},
        "result": None,
    }
    lines = proc.stdout.strip().splitlines()
    try:
        record["result"] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except ValueError:
        pass
    if record["result"] is None:
        record["stderr_tail"] = proc.stderr.splitlines()[-5:]
    return record


def run_values(run: dict) -> dict:
    """Every metric of one run: the harness's, ``raw.<phase>`` and ``proc.<name>``; none if it failed."""
    if run["result"] is None:
        return {}
    values = {name: m["value"] for name, m in run["result"]["metrics"].items()}
    values.update({f"raw.{k}": v for k, v in run["stderr"].get("raw CPU seconds", {}).items()})
    values.update({f"proc.{k}": v for k, v in run["proc"].items()})
    return values


def iqr(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(runs: list, spec: dict) -> list:
    """One row per metric of ``runs`` (dicts of ``side``, ``seed`` and a ``run_once`` record):
    medians, PARENT's interquartile range, pairs won and the verdict.  ``spec`` maps a metric
    to ``BENCHMARK.json``'s entry for it, ``better`` and, for an end-to-end metric, ``bound``."""
    by_seed = {}
    for r in runs:
        by_seed.setdefault(r["seed"], {})[r["side"]] = run_values(r)
    names = sorted({name for sides in by_seed.values() for values in sides.values() for name in values})
    rows = []
    for name in names:
        pairs = [(s["parent"][name], s["change"][name]) for s in by_seed.values()
                 if name in s.get("parent", {}) and name in s.get("change", {})]
        if not pairs:
            continue
        parent, change = [p for p, _ in pairs], [c for _, c in pairs]
        row = {"metric": name, "pairs": len(pairs), "parent": statistics.median(parent),
               "change": statistics.median(change), "parent_iqr": iqr(parent), "won": None, "verdict": ""}
        better = spec.get(name, {}).get("better")
        if better in ("lower", "higher"):
            sign = 1.0 if better == "lower" else -1.0
            row["won"] = sum(sign * (c - p) < 0.0 for p, c in pairs)
            worse_by = sign * (row["change"] - row["parent"])
            bound = spec[name].get("bound")
            if bound is not None and worse_by > bound * abs(row["parent"]):
                row["verdict"] = "worse"
            elif len(pairs) >= MIN_PAIRS and row["won"] >= 0.9 * len(pairs) and -worse_by > row["parent_iqr"]:
                row["verdict"] = "gain"
            else:
                row["verdict"] = "same"
        rows.append(row)
    return rows


def format_table(rows: list) -> str:
    out = [f"{'metric':<22} {'pairs':>5} {'parent':>12} {'change':>12} {'change%':>8} {'parent IQR':>11} "
           f"{'won':>6}  verdict"]
    for r in rows:
        pct = 100.0 * (r["change"] - r["parent"]) / abs(r["parent"]) if r["parent"] else float("nan")
        won = "-" if r["won"] is None else f"{r['won']}/{r['pairs']}"
        out.append(f"{r['metric']:<22} {r['pairs']:>5} {r['parent']:>12.6g} {r['change']:>12.6g} {pct:>+7.1f}% "
                   f"{r['parent_iqr']:>11.3g} {won:>6}  {r['verdict']}")
    return "\n".join(out)


def load_spec(path: str) -> dict:
    """``BENCHMARK.json``'s metric entries by name."""
    with open(path, encoding="utf-8") as f:
        bench = json.load(f)
    return {m["name"]: m for m in bench.get("end_to_end", []) + bench.get("per_layer", [])}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=int, nargs="+")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--label", help="the file is BENCH_<label>.json (default: <workload>)")
    args = ap.parse_args(argv)
    root = git(".", "rev-parse", "--show-toplevel")
    revs = {side: git(root, "rev-parse", "--verify", f"{rev}^{{commit}}")
            for side, rev in zip(SIDES, (args.parent, args.change))}
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in SIDES}
        try:
            for side in SIDES:
                git(root, "worktree", "add", "--detach", trees[side], revs[side])
            for i, seed in enumerate(args.seeds):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    record = run_once(trees[side], args.workload, seed, args.seconds)
                    runs.append({"side": side, "seed": seed, "pair": i, **record})
                    state = "ok" if record["result"] else f"FAILED (exit {record['returncode']})"
                    print(f"pair {i} seed {seed} {side}: {state}", file=sys.stderr)
        finally:
            for side in SIDES:
                if os.path.isdir(trees[side]):
                    git(root, "worktree", "remove", "--force", trees[side])
            git(root, "worktree", "prune")
    spec = load_spec(os.path.join(root, "BENCHMARK.json"))
    rows = summarize(runs, spec)
    failed = [(r["side"], r["seed"]) for r in runs if r["result"] is None]
    incorrect = [(r["side"], r["seed"]) for r in runs if r["result"] and not r["result"].get("correct")]
    label = args.label or args.workload
    path = os.path.join(root, f"BENCH_{label}.json")
    env = {"platform": platform.platform(), "python": platform.python_version(), "nproc": os.cpu_count()}
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"workload": args.workload, "revisions": revs, "seeds": args.seeds, "seconds": args.seconds,
                   "environment": env, "summary": rows, "runs": runs}, f, indent=1)
        f.write("\n")
    print(f"{args.workload}: {revs['parent'][:12]} -> {revs['change'][:12]}, {len(args.seeds)} pairs")
    print(format_table(rows))
    print(f"failed runs: {failed or 'none'}; runs not correct: {incorrect or 'none'}; wrote {path}")
    return 1 if failed or incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
