"""Paired benchmark runs of a parent revision against this checkout, written as BENCH JSON.

    python3 tools/bench_pairs.py PARENT_REV OUT.json [--first-seed 21] [--claim TEXT]

The parent revision is exported with `git archive` into a temporary
directory, and the change side is a copy of the files git tracks in the
checkout that holds this script, uncommitted edits included (`git add` a new
file first), in another one.  For each workload of BENCHMARK.json, pair k of ten runs
`bench/run.py --seed FIRST_SEED + k --trace 0` for the benchmark's
run_seconds once on each side, the parent first in even pairs and the change
first in odd ones, one process at a time.  Then each side runs every
workload once with `--trace 1` at seed 3.  OUT.json holds:

  runs     the JSON line each run printed, with its side, workload, seed,
           trace flag, exit code and wall time
  summary  per workload and end-to-end metric: both medians, both
           interquartile ranges (inclusive quartiles), pair wins and ties of
           the change, the relative change of the median, whether it is
           worse than the metric's bound in BENCHMARK.json, and whether the
           comparison is unresolved: the parent's quartile spread exceeds the
           bound and not every change run beats every parent run.  A
           workload without a complete pair reads `pairs: 0` and nulls.
  traced   per workload and side, the per-layer metrics of its traced run
           (null for a run that printed no result)
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
TRACE_SEED = 3


def export(rev, into):
    """The files of `rev` in the directory `into`, by `git archive`."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into)


def export_worktree(into):
    """The tracked files of the working tree, as they are on disk, in the directory `into`."""
    names = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, check=True,
                           capture_output=True).stdout.decode().split("\0")
    for name in filter(None, names):
        source, target = ROOT / name, Path(into) / name
        if source.is_file():    # a tracked file deleted in the working tree is left out
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def run_bench(side, root, workload, seed, seconds, trace):
    """One `bench/run.py` run in the checkout `root`, as a run record."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
        print(f"{side} {workload} seed {seed}: no result (exit {proc.returncode})\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
    return {"side": side, "workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "exit": proc.returncode,
            "wall_s": round(time.monotonic() - t0, 1), "result": result}


def _value(run, metric):
    return run["result"]["metrics"][metric]["value"]


def summarize(runs, end_to_end):
    """Summary per workload and end-to-end metric of the untraced paired runs.

    `end_to_end` is the list of metric specs of BENCHMARK.json (name, better,
    bound).  A pair is the parent and change runs of one workload and seed;
    pairs with a side that printed no result are left out.
    """
    out = {}
    untraced = [r for r in runs if r["trace"] == 0]
    for workload in dict.fromkeys(r["workload"] for r in untraced):
        by_seed = {}
        for r in untraced:
            if r["workload"] == workload and r["result"] is not None:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r
        pairs = [(p["parent"], p["change"]) for _, p in sorted(by_seed.items())
                 if "parent" in p and "change" in p]
        out[workload] = {spec["name"]: _metric_summary(pairs, spec) for spec in end_to_end}
    return out


def _metric_summary(pairs, spec):
    if not pairs:
        return {"parent_median": None, "change_median": None, "parent_q1_q3": None,
                "change_q1_q3": None, "pairs": 0, "change_wins": 0, "ties": 0,
                "relative_change": None, "worse_than_bound": None, "unresolved": None}
    name, lower = spec["name"], spec["better"] == "lower"
    parent = [_value(p, name) for p, _ in pairs]
    change = [_value(c, name) for _, c in pairs]
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    relative = (c_med - p_med) / p_med if p_med else 0.0
    q1, q3 = _quartiles(parent)
    spread = (q3 - q1) / abs(p_med) if p_med else 0.0
    separated = max(change) < min(parent) if lower else min(change) > max(parent)
    return {"parent_median": p_med, "change_median": c_med,
            "parent_q1_q3": [q1, q3], "change_q1_q3": _quartiles(change),
            "pairs": len(pairs), "change_wins": wins, "ties": ties,
            "relative_change": round(relative, 4),
            "worse_than_bound": (relative if lower else -relative) > spec["bound"],
            "unresolved": spread > spec["bound"] and not separated}


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 2
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def traced_metrics(runs):
    """{workload: {side: {metric: value}}} of the traced runs; None for a run without a result."""
    out = {}
    for r in runs:
        if r["trace"] == 1:
            metrics = r["result"]["metrics"] if r["result"] else None
            out.setdefault(r["workload"], {})[r["side"]] = (
                {k: v["value"] for k, v in metrics.items()} if metrics else None)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_rev")
    parser.add_argument("out")
    parser.add_argument("--first-seed", type=int, default=21)
    parser.add_argument("--claim", default="")
    args = parser.parse_args(argv)
    parent_sha = subprocess.run(["git", "rev-parse", "--short", args.parent_rev], cwd=ROOT,
                                check=True, capture_output=True, text=True).stdout.strip()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    runs, workloads = [], [w["name"] for w in spec["workloads"]]
    with tempfile.TemporaryDirectory() as parent, tempfile.TemporaryDirectory() as change:
        export(args.parent_rev, parent)
        export_worktree(change)
        roots = {"parent": Path(parent), "change": Path(change)}
        for workload in workloads:
            for k in range(PAIRS):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    runs.append(run_bench(side, roots[side], workload, args.first_seed + k,
                                          seconds, 0))
                    print(f"{side} {workload} seed {args.first_seed + k}: exit "
                          f"{runs[-1]['exit']}", file=sys.stderr)
        for workload in workloads:
            for side in ("parent", "change"):
                runs.append(run_bench(side, roots[side], workload, TRACE_SEED, seconds, 1))

    doc = {
        "about": (f"Parent ({parent_sha}) and change runs of `python3 bench/run.py "
                  f"--workload W --seed N --seconds {seconds} --trace 0|1`, each side "
                  "in its own copy of the sources, alternating which side runs first in "
                  "each pair; written by tools/bench_pairs.py.  Times are reference seconds "
                  "(CPU seconds scaled by bench/calib.py).  `runs` holds the JSON line each "
                  "run printed; `summary` gives medians, quartiles and pair wins per "
                  "metric; `traced` gives, per workload and side, the per-layer metrics "
                  f"of one --trace 1 run at seed {TRACE_SEED}."),
        "claim": args.claim,
        "summary": summarize(runs, spec["end_to_end"]),
        "traced": traced_metrics(runs),
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    failed = [r for r in runs if r["exit"] != 0]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
