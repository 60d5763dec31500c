import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_pairs  # noqa: E402
from bench_pairs import summarize  # noqa: E402

SPECS = [{"name": "report_s", "better": "lower", "bound": 0.25},
         {"name": "ok_share", "better": "higher", "bound": 0.05}]


def _run(side, seed, report_s, ok_share, workload="verify-all", trace=0):
    metrics = {"report_s": {"value": report_s, "unit": "s"},
               "ok_share": {"value": ok_share, "unit": "share"}}
    return {"side": side, "workload": workload, "seed": seed, "seconds": 20, "trace": trace,
            "exit": 0, "wall_s": 1.0, "result": {"correct": True, "metrics": metrics}}


def test_summary_of_canned_pairs():
    runs = []
    for seed, (parent, change) in enumerate([(3.0, 2.0), (3.2, 2.1), (2.9, 3.0),
                                              (3.1, 2.2), (3.0, 2.4)], start=21):
        order = [("parent", parent), ("change", change)]
        for side, value in order if seed % 2 else order[::-1]:
            runs.append(_run(side, seed, value, 1.0 if side == "parent" else 0.9))
    # a traced run, an unpaired run and a run without a result are left out
    runs.append(_run("change", 3, 0.1, 1.0, trace=1))
    runs.append(_run("change", 99, 0.1, 1.0))
    runs.append(dict(_run("parent", 21, 0.1, 1.0), seed=98, result=None))

    summary = summarize(runs, SPECS)
    report = summary["verify-all"]["report_s"]
    assert report["pairs"] == 5
    assert report["parent_median"] == 3.0 and report["change_median"] == 2.2
    assert report["parent_q1_q3"] == [3.0, 3.1]
    assert report["change_q1_q3"] == [2.1, 2.4]
    assert report["change_wins"] == 4 and report["ties"] == 0
    assert report["relative_change"] == round((2.2 - 3.0) / 3.0, 4)
    assert report["worse_than_bound"] is False

    ok = summary["verify-all"]["ok_share"]
    assert ok["change_wins"] == 0 and ok["relative_change"] == -0.1
    assert ok["worse_than_bound"] is True   # higher is better: a 10% fall exceeds 5%
    # the parent's spread (3.0 to 3.1) is within the bound
    assert report["unresolved"] is False and ok["unresolved"] is False


def test_workload_without_a_complete_pair_reads_zero_pairs():
    # every parent run printed no result: the summary says so instead of
    # raising on an empty median
    runs = [dict(_run("parent", seed, 1.0, 1.0), result=None) for seed in (21, 22)]
    runs += [_run("change", seed, 1.0, 1.0) for seed in (21, 22)]
    report = summarize(runs, SPECS)["verify-all"]["report_s"]
    assert report["pairs"] == 0
    assert report["parent_median"] is None and report["change_median"] is None
    assert report["unresolved"] is None and report["worse_than_bound"] is None


def test_traced_metrics_per_workload_and_side():
    # every workload has a traced run per side, so a claim on any workload
    # comes with its per-layer metrics; untraced runs are left out
    runs = [_run(side, 3, value, 1.0, workload=workload, trace=1)
            for workload, value in (("verify-all", 0.5), ("model-sessions", 0.1))
            for side in ("parent", "change")]
    runs.append(dict(_run("change", 3, 0.2, 1.0, workload="spinor-spectra", trace=1),
                     result=None))
    runs.append(_run("parent", 21, 9.0, 1.0, workload="spinor-spectra"))
    traced = bench_pairs.traced_metrics(runs)
    assert traced == {
        "verify-all": {"parent": {"report_s": 0.5, "ok_share": 1.0},
                       "change": {"report_s": 0.5, "ok_share": 1.0}},
        "model-sessions": {"parent": {"report_s": 0.1, "ok_share": 1.0},
                           "change": {"report_s": 0.1, "ok_share": 1.0}},
        "spinor-spectra": {"change": None}}


def _pairs(parent, change):
    return [_run(side, seed, value, 1.0) for seed, values in enumerate(zip(parent, change), 21)
            for side, value in zip(("parent", "change"), values)]


def test_unresolved_when_the_parent_spreads_wider_than_the_bound():
    # parent quartiles 1.0 and 2.0 around a median of 1.5: a spread of 67%,
    # past the 25% bound of report_s
    parent = [0.9, 1.0, 1.5, 2.0, 2.1]
    overlapping = summarize(_pairs(parent, [0.8, 1.2, 1.4, 1.9, 1.0]), SPECS)
    assert overlapping["verify-all"]["report_s"]["unresolved"] is True
    # unless every change run beats every parent run
    separated = summarize(_pairs(parent, [0.5, 0.6, 0.7, 0.8, 0.85]), SPECS)
    assert separated["verify-all"]["report_s"]["unresolved"] is False


def test_change_side_is_a_copy_of_the_working_tree(tmp_path, monkeypatch):
    # the change side runs from its own copy, like the parent's export, and
    # that copy holds the uncommitted edits of tracked files, but not a file
    # git does not track
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "mod.py").write_text("VALUE = 1\n")
    (repo / "gone.py").write_text("")
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@localhost"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "parent"]):
        subprocess.run(git + args, cwd=repo, check=True, capture_output=True)
    (repo / "src" / "mod.py").write_text("VALUE = 2\n")
    (repo / "gone.py").unlink()
    (repo / "untracked.py").write_text("")
    monkeypatch.setattr(bench_pairs, "ROOT", repo)

    copy = tmp_path / "copy"
    bench_pairs.export_worktree(copy)
    assert (copy / "src" / "mod.py").read_text() == "VALUE = 2\n"
    assert sorted(p.name for p in copy.rglob("*")) == ["mod.py", "src"]
    parent = tmp_path / "parent"
    bench_pairs.export("HEAD", parent)
    assert (parent / "src" / "mod.py").read_text() == "VALUE = 1\n"
