"""Tests of the benchmark itself: inputs, exactness checks and tracing.

Run with `python3 -m pytest bench/tests` from the root of a source checkout.
"""

from __future__ import annotations

import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


@pytest.fixture(scope="module")
def base():
    docs = run._base_docs()
    return docs, check.base_answers(docs, run.in_process)


@pytest.fixture(scope="module")
def stabilizer():
    return gen.g2_stabilizer()


def test_g2_stabilizer_is_the_whole_group(stabilizer):
    assert len(stabilizer) == 1344
    assert len({tuple(sorted(g.items())) for g in stabilizer}) == 1344
    for g in stabilizer[:50]:
        assert gen.push_form(gen.OMEGA3, g) == gen.OMEGA3


def test_same_seed_gives_same_inputs(base, stabilizer):
    docs, _ = base
    assert gen.spin_queries(7, 3) == gen.spin_queries(7, 3)
    assert gen.spin_queries(7, 3) != gen.spin_queries(8, 3)
    one = gen.session_models(random.Random(7), docs, 30, stabilizer)
    two = gen.session_models(random.Random(7), docs, 30, stabilizer)
    other = gen.session_models(random.Random(8), docs, 30, stabilizer)
    assert [m[3] for m in one] == [m[3] for m in two]
    assert [m[3] for m in one] != [m[3] for m in other]


def test_spin_rounds_cover_every_stratum():
    (batch,) = gen.spin_queries(3, 1)
    assert len(batch) == len(gen.SPIN_DIMS) * len(gen.SPIN_DEGREES) * len(gen.SPIN_BLADES)
    strata = {(n, len(next(iter(t)))) for n, t in batch}
    assert len(strata) == len(gen.SPIN_DIMS) * len(gen.SPIN_DEGREES)
    assert {len(t) for n, t in batch if n == 8} == {1, 3, 6, 28, 56, 70}
    assert all(0 < abs(c) <= 3 for _, t in batch for c in t.values())


def test_generated_models_load_and_match_transformed_answers(base, stabilizer, tmp_path,
                                                             monkeypatch):
    docs, answers = base
    models = gen.session_models(random.Random(5), docs, 2 * len(docs), stabilizer)
    assert len({gen.doc_key(m[3]) for m in models}) == len(models)
    for m in models:
        (tmp_path / f"{m[3]['name']}.json").write_text(json.dumps(m[3]))
    monkeypatch.setenv("SKEWTOR_MODEL_PATH", str(tmp_path))
    kinds = set()
    for m in models:
        for argv, kind, code in check.session_argvs(m, answers[m[0]]):
            got_code, out = run.in_process(argv)
            assert got_code == code, argv
            assert check.check_session_step(kind, m, answers[m[0]], argv, out), argv
            kinds.add((kind, code))
    assert {("show", 0), ("torsion", 0), ("torsion", 1), ("ricci", 0), ("ricci", 1),
            ("spin", 0), ("decompose", 0)} <= kinds


def test_transformed_answers_catch_a_wrong_torsion(base, stabilizer):
    docs, answers = base
    m = next(m for m in gen.session_models(random.Random(2), docs, 20, stabilizer)
             if m[0] == "heis7")
    t = gen.push_form(answers["heis7"]["torsion"], m[1], m[2])
    blade = next(iter(t))
    wrong = {**t, blade: t[blade] + 1}
    out = f"T = {gen.render(wrong)}\n"
    assert not check.check_session_step("torsion", m, answers["heis7"], [], out)


def test_spectrum_check_is_independent_and_exact():
    terms = {(1, 2, 3): Fraction(2)}
    code, out = run.in_process(["spin-eig", "7", "--", gen.render(terms)])
    assert code == 0 and check.check_spectrum(7, terms, out)
    assert not check.check_spectrum(7, terms, out.replace("x4", "x3", 1))
    assert not check.check_spectrum(7, {(1, 2, 3): Fraction(3)}, out)
    terms = {(1, 2): Fraction(1)}
    code, out = run.in_process(["spin-eig", "8", "--", gen.render(terms)])
    assert "residual" in out and check.check_spectrum(8, terms, out)


def test_odd_gammas_follow_the_volume_normalization():
    for n, target in ((5, 3), (7, 0)):
        gs = check.gammas(n)
        size = len(gs[0][0])
        vol = gs[0]
        for g in gs[1:]:
            vol = check._mono_mul(vol, g)
        assert vol == check._mono(range(size), [target] * size)
        for g in gs:
            assert check._mono_mul(g, g) == check._mono(range(size), [2] * size)


def test_self_times_never_exceed_wall_time(base, stabilizer, tmp_path, monkeypatch):
    docs, answers = base
    models = gen.session_models(random.Random(3), docs, len(docs), stabilizer)
    for m in models:
        (tmp_path / f"{m[3]['name']}.json").write_text(json.dumps(m[3]))
    monkeypatch.setenv("SKEWTOR_MODEL_PATH", str(tmp_path))
    import skewtor.cli
    import skewtor.liegeom
    original = skewtor.liegeom.curvature
    tracer = spans.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        for m in models:
            for argv, _, _ in check.session_argvs(m, answers[m[0]]):
                skewtor.cli.main(argv)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert skewtor.liegeom.curvature is original
    metrics = tracer.metrics()
    assert 0 < tracer.total_self_s() <= wall
    assert metrics["liegeom.curvature.calls"] > 0
    assert metrics["cli.calls"] > 0
    assert metrics["modelfile.find_model.distinct_share"] < 1
    assert sum(metrics[f"{m}.self_s"] for m in spans.MODULES) <= wall


def test_benchmark_json_names_the_metrics_printed():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == list(run.E2E)
    assert [m["name"] for m in doc["per_layer"]] == run.layer_names()
    assert {w["name"] for w in doc["workloads"]} == set(run.WORKLOADS)
    for m in doc["end_to_end"]:
        assert m["unit"] == run.UNITS[m["name"]]
    for m in doc["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])


def test_refuses_to_run_without_program_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "verify-all", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_percentile_counts_failures_as_unbounded():
    assert run.percentile([1, 2, 3, 4], 0.5) == 2
    assert run.percentile([1, 2, float("inf")], 0.9) == float("inf")


def test_clock_scales_work_by_the_probed_host_speed(monkeypatch):
    import calib
    monkeypatch.setattr(calib, "probe", lambda: 2 * calib.REFERENCE_S)
    clock = calib.Clock()
    clock.sample()
    t0 = time.thread_time()
    while time.thread_time() - t0 < 0.05:
        pass
    clock.sample()
    assert clock.raw >= 0.05
    assert clock.scaled == pytest.approx(clock.raw / 2)
    assert clock.factors == [0.5]
    assert clock.speed() == 0.5
