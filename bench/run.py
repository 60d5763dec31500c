"""Benchmark of the skewtor workbench.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
`src/`).  Workloads:

  verify-all      a fresh interpreter per repetition runs `verify all --json`
  model-sessions  analysis sessions on new models generated from the seed
  spinor-spectra  `spin-eig` on seeded random forms, each under a deadline

A run measures a fixed amount of work, whole units of each workload's mix,
sized from --seconds by what one unit took on the reference machine (a
2-core VM), so that a run lasts about --seconds there and two versions of
the program are timed on identical inputs.  With `--trace 0` the end-to-end
metrics are measured; with `--trace 1` the same work runs under
`spans.Tracer` and the per-layer metrics are reported.  Each measured process
runs alone, one at a time, and times are CPU seconds scaled to a reference
speed of the host (see child.py and calib.py).  Every answer is checked for
exactness; the last line of stdout is one JSON object, and the exit code is 1
when an answer is wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

import check  # noqa: E402
import child  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

SUITES = ("exterior", "clifford", "section2", "slformula", "g2", "equivariant",
          "contact", "hermitian", "examples")
SETUP_REPS = 9
# a spin-eig query still running after this many reference seconds is a
# failed operation
SPIN_DEADLINE_S = 0.5
# the models whose every transform is the same Lie algebra (all brackets
# vanish) are left out, so that each model of a session is new
SESSION_SKIP = ("abelian5", "abelian6", "abelian7")
# reference seconds (see calib.py) of one unit of work
VERIFY_REP_S = 30.0     # one cold `verify all --json`
SESSION_CYCLE_S = 1.4   # one session on a new transform of each base model
SPIN_ROUND_S = 4.0      # one spin-eig query per stratum
RUN_BUDGET_S = 170

E2E = ("setup_s", "report_s", "queries_per_s", "query_p50_ms", "query_p90_ms",
       "ok_share", "peak_rss_mb")
UNITS = {"setup_s": "s", "report_s": "s", "queries_per_s": "1/s", "query_p50_ms": "ms",
         "query_p90_ms": "ms", "ok_share": "share", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

class Runner:
    """Starts child processes one at a time, inside one run's time budget."""

    def __init__(self, workdir, budget_s):
        self.workdir = workdir
        self.stop_at = time.monotonic() + budget_s
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.n = 0

    def spawn(self, spec):
        """Run child.py on `spec`; returns (its result dict, its stdout)."""
        self.n += 1
        spec = dict(spec, out=str(self.workdir / f"out{self.n}.json"))
        spec_path = self.workdir / f"spec{self.n}.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        timeout = self.stop_at - time.monotonic()
        if timeout <= 0:
            raise BenchError("run budget exhausted")
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), str(spec_path)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                cwd=str(ROOT), env=self.env)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{spec['mode']} child overran the run budget")
        if proc.returncode != 0:
            raise BenchError(f"{spec['mode']} child exited {proc.returncode}: "
                             f"{err.decode(errors='replace')[-2000:]}")
        with open(spec["out"], encoding="utf-8") as fh:
            return json.load(fh), out

    def setup_s(self):
        """Median over fresh interpreters of import plus `registry()`, scaled."""
        return statistics.median(self.spawn({"mode": "setup"})[0]["setup_s"]
                                 for _ in range(SETUP_REPS))


def units(seconds, unit_s):
    return max(1, round(seconds / unit_s))


def percentile(values, q, half_width=0.05):
    """Mean of the values ranked within q +- half_width, and at least the nearest-rank one.

    A kernel estimate of the q-quantile: the latencies near the 90th
    percentile of a query mix spread by a factor of three, and one order
    statistic of them moves by a quarter from seed to seed.  A failed
    operation counts as +inf.
    """
    ordered = sorted(values)
    n = len(ordered)
    nearest = max(1, math.ceil(q * n))
    lo = min(nearest, math.floor((q - half_width) * n) + 1)
    hi = max(nearest, math.floor((q + half_width) * n))
    return statistics.fmean(ordered[lo - 1:hi])


def in_process(argv):
    """(exit code, stdout) of the program's CLI run in this process."""
    from skewtor.cli import main
    return child.run_cli(main, argv)


def _layer_metrics(traced, suites):
    """Per-layer metrics and report lines of a traced child's result."""
    cpu, overhead = traced["cpu_s"], traced["trace_overhead_s"]
    layer = dict(traced["trace"], **suites)
    layer["trace.overhead_share"] = overhead / (cpu - overhead)
    lines = [f"trace: self times sum to {traced['trace_self_s']:.3f} s, wrappers "
             f"took {overhead:.3f} s, of {cpu:.3f} CPU s traced"]
    return layer, lines


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------

def _expected_report():
    with open(BENCH / "verify_all_expected.json", encoding="utf-8") as fh:
        return json.load(fh)


def verify_all(args, runner):
    expected = _expected_report()
    if args.trace:
        traced = runner.spawn({"mode": "verify", "suites": SUITES, "trace": True})[0]
        checks = [c for s in traced["suites"] for c in (s["report"] or {"checks": []})["checks"]]
        failed = (check.report_failures(checks, expected["statuses"])
                  + sum(1 for s in traced["suites"] if s["code"] != 0))
        suites = {f"suites.{s['suite']}.s": s["s"] for s in traced["suites"]}
        return (len(checks), failed) + _layer_metrics(traced, suites)

    setup = runner.setup_s()
    latencies, raw, rss, digests = [], [], [], set()
    attempted = failed = fails = 0
    for _ in range(units(args.seconds, VERIFY_REP_S)):
        res, out = runner.spawn({"mode": "cli", "argv": ["verify", "all", "--json"]})
        latencies.append(res["s"])
        raw.append(res["cpu_s"])
        rss.append(res["peak_rss_mb"])
        try:
            report = json.loads(out)
        except ValueError:
            raise BenchError(f"verify all printed no JSON report (exit {res['code']})")
        digests.add(hashlib.sha256(out).hexdigest())
        attempted += len(report["checks"])
        failed += check.report_failures(report["checks"], expected["statuses"]) + (res["code"] != 0)
        fails += report["counts"]["FAIL"]
    digest = digests.pop() if len(digests) == 1 else "differs between repetitions"
    lines = [f"verify all --json sha256 {digest} "
             f"({'same as' if digest == expected['sha256'] else 'differs from'} "
             f"the recorded {expected['sha256'][:12]}...)",
             f"failed_share {fails / attempted:.6f} share (FAIL checks over all checks)",
             f"unscaled CPU s per report {statistics.median(raw):.3f}"]
    metrics = {
        "setup_s": setup,
        "report_s": statistics.median(latencies),
        "queries_per_s": len(latencies) / sum(latencies),
        "query_p50_ms": 1000 * percentile(latencies, 0.5),
        "query_p90_ms": 1000 * percentile(latencies, 0.9),
        "ok_share": 1 - fails / attempted,
        "peak_rss_mb": max(rss),
    }
    return attempted, failed, metrics, lines


# ---------------------------------------------------------------------------
# query workloads
# ---------------------------------------------------------------------------

def _base_docs():
    from skewtor.registry import registry
    docs = {}
    for name in sorted(registry()):
        if name in SESSION_SKIP:
            continue
        code, text = in_process(["models", "show", name])
        if code != 0:
            raise BenchError(f"models show {name} exited {code}")
        docs[name] = json.loads(text)
    return docs


def model_sessions_inputs(args, workdir):
    """[(group, argv)] plus a checker for one record, from the seed."""
    docs = _base_docs()
    answers = check.base_answers(docs, in_process)
    rng = random.Random(args.seed)
    models = gen.session_models(rng, docs, units(args.seconds, SESSION_CYCLE_S) * len(docs),
                                gen.g2_stabilizer())
    model_dir = workdir / "models"
    model_dir.mkdir()
    queries, meta = [], []
    for k, model in enumerate(models):
        doc = model[3]
        (model_dir / f"{doc['name']}.json").write_text(json.dumps(doc), encoding="utf-8")
        for argv, kind, code in check.session_argvs(model, answers[model[0]]):
            # a report is one session on a new transform of every base model
            queries.append((k // len(docs), argv))
            meta.append((kind, model, answers[model[0]], code))

    def verdict(i, record):
        kind, model, answer, code = meta[i]
        if record["code"] != code:
            return False
        return check.check_session_step(kind, model, answer, queries[i][1], record["out"])

    return queries, verdict, {"model_path": str(model_dir), "deadline": None}


def spinor_spectra_inputs(args, workdir):
    rounds = gen.spin_queries(args.seed, units(args.seconds, SPIN_ROUND_S))
    queries, forms = [], []
    for r, batch in enumerate(rounds):
        for n, terms in batch:
            queries.append((r, ["spin-eig", str(n), "--", gen.render(terms)]))
            forms.append((n, terms))

    def verdict(i, record):
        n, terms = forms[i]
        return record["code"] == 0 and check.check_spectrum(n, terms, record["out"])

    return queries, verdict, {"deadline": SPIN_DEADLINE_S}


def _judge(records, verdict):
    """(answered, wrong, missed): misses are queries abandoned at the deadline."""
    answered = wrong = missed = 0
    for i, rec in enumerate(records):
        if rec["code"] is None:
            missed += 1
            rec["ok"] = False
            continue
        try:
            rec["ok"] = verdict(i, rec)
        except (ValueError, KeyError, IndexError) as exc:
            print(f"query {i}: unreadable answer ({exc})", file=sys.stderr)
            rec["ok"] = False
        answered += rec["ok"]
        wrong += not rec["ok"]
    return answered, wrong, missed


def query_workload(make_inputs):
    def run(args, runner):
        queries, verdict, extra = make_inputs(args, runner.workdir)
        spec = dict(extra, mode="queries", queries=queries)
        if args.trace:
            traced = runner.spawn(dict(spec, trace=True))[0]
            _, wrong, _ = _judge(traced["records"], verdict)
            suites = {f"suites.{s}.s": 0.0 for s in SUITES}
            return (len(traced["records"]), wrong) + _layer_metrics(traced, suites)

        setup = runner.setup_s()
        res = runner.spawn(spec)[0]
        records = res["records"]
        answered, wrong, missed = _judge(records, verdict)
        # a query abandoned at the deadline counts with the time it ran, the
        # deadline, which ranks it above every answered query
        lat = [1000 * r["s"] if r["ok"] or r["code"] is None else math.inf for r in records]
        groups = {}
        for r in records:
            groups[r["group"]] = groups.get(r["group"], 0.0) + r["s"]
        whole = list(groups.values())
        attempted = len(records)
        summary = f"{wrong} wrong or unexpected exit, {missed} missed the deadline, of {attempted}"
        if wrong + missed > attempted / 10:
            raise BenchError(f"more than a tenth of the queries failed ({summary})")
        p50, p90 = percentile(lat, 0.5), percentile(lat, 0.9)
        lines = [f"failed_share {(wrong + missed) / attempted:.6f} share ({summary})",
                 f"{len(whole)} reports, {len(records)} queries",
                 f"scaled CPU s {res['s']:.3f}, unscaled {res['cpu_s']:.3f}"]
        metrics = {
            "setup_s": setup,
            "report_s": statistics.median(whole),
            "queries_per_s": answered / res["s"],
            "query_p50_ms": p50,
            "query_p90_ms": p90,
            "ok_share": answered / attempted,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        return attempted, wrong, metrics, lines
    return run


WORKLOADS = {
    "verify-all": verify_all,
    "model-sessions": query_workload(model_sessions_inputs),
    "spinor-spectra": query_workload(spinor_spectra_inputs),
}


def layer_names():
    """Names of the per-layer metrics, in report order."""
    names = list(spans.Tracer().metrics())
    names += [f"suites.{s}.s" for s in SUITES]
    return names + ["trace.overhead_share"]


def layer_unit(name):
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_share"):
        return "share"
    return "s"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "skewtor" / "cli.py").is_file():
        print(f"error: no program sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        runner = Runner(workdir, RUN_BUDGET_S)
        attempted, failed, metrics, lines = WORKLOADS[args.workload](args, runner)
    except (BenchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in lines:
        print(f"{args.workload}: {line}")
    names = layer_names() if args.trace else E2E
    for name in names:
        unit = layer_unit(name) if args.trace else UNITS[name]
        print(f"{args.workload}: {name} = {metrics[name]:.6g} {unit}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name],
                                 "unit": layer_unit(name) if args.trace else UNITS[name]}
                          for name in names}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
