import contextlib
import copy
import hashlib
import io
import json
import os
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skewtor import cli
from skewtor.cli import main
from skewtor.errors import FormParseError, SkewtorError
from skewtor.formexpr import parse_form, parse_homogeneous, render_form
from skewtor.forms import Form
from skewtor.modelfile import entry_from_dict, entry_to_dict, find_model
from skewtor.registry import registry
from skewtor.reporting import Report, check, skip
from skewtor.suites import run_suite


def test_parse_simple_terms():
    (f,) = parse_form("2*e1^e2^e5 + 2*e3^e4^e5", 5)
    assert f == Form(5, 3, {(1, 2, 5): 2, (3, 4, 5): 2})
    (g,) = parse_form("-e5^e6^e7 + e1^e3^e5 - e3^e4^e7 - e1^e4^e6", 7)
    assert g.degree == 3 and g.coeff(5, 6, 7) == -1
    from fractions import Fraction
    (h,) = parse_form("1/2 * e1 ^ e2", 4)
    assert h.coeff(1, 2) == Fraction(1, 2)
    (s,) = parse_form("3", 4)
    assert s == Form.scalar(4, 3)


def test_parse_mixed_degrees():
    parts = parse_form("3 + e1^e2^e3^e4", 6)
    assert [p.degree for p in parts] == [0, 4]
    with pytest.raises(FormParseError):
        parse_homogeneous("3 + e1^e2", 6)


def test_parse_errors_carry_position():
    with pytest.raises(FormParseError) as err:
        parse_form("2*e1^^e2", 5)
    assert err.value.position >= 0
    with pytest.raises(FormParseError):
        parse_form("e9", 5)
    with pytest.raises(FormParseError):
        parse_form("", 5)
    with pytest.raises(FormParseError):
        parse_form("2 2", 5)


def test_render_round_trip():
    f = Form(5, 2, {(1, 2): 2, (3, 4): -1})
    (g,) = parse_form(render_form(f), 5)
    assert f == g


def test_model_file_round_trip(tmp_path):
    for name in ("heis7", "heis5", "solv6"):
        doc = entry_to_dict(registry()[name])
        text = json.dumps(doc)
        entry = entry_from_dict(json.loads(text))
        assert entry.model.d_coframe == registry()[name].model.d_coframe
        assert entry.kind == registry()[name].kind


def test_model_file_rejects_invalid_structure():
    from skewtor.errors import StructureError
    doc = entry_to_dict(registry()["heis5"])
    doc["structure"]["phi"][0][1] = "7"
    with pytest.raises(StructureError):
        entry_from_dict(doc)


def test_model_path_env(tmp_path, monkeypatch):
    doc = entry_to_dict(registry()["heis5"])
    doc["name"] = "custom5"
    path = tmp_path / "custom5.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setenv("SKEWTOR_MODEL_PATH", str(tmp_path))
    entry = find_model("custom5")
    assert entry.model.n == 5
    with pytest.raises(Exception):
        find_model("missing-model")


def test_report_json_round_trip():
    report = Report("demo", [check("a", "anchor", True, value=1, expected=1),
                             skip("b", "anchor2", "out of scope")])
    doc = json.loads(report.to_json())
    assert doc["suite"] == "demo"
    assert doc["counts"] == {"PASS": 1, "FAIL": 0, "SKIP": 1}
    assert doc["checks"][0]["status"] == "PASS"
    assert report.ok


def test_cli_verify_exit_codes(capsys):
    assert main(["verify", "exterior"]) == 0
    assert main(["verify", "nosuch"]) == 2
    out = capsys.readouterr()
    assert "unknown suite" in out.err


def test_cli_verify_json(capsys):
    assert main(["verify", "exterior", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["suite"] == "exterior"
    assert doc["counts"]["FAIL"] == 0


def test_cli_models(capsys):
    assert main(["models", "list"]) == 0
    out = capsys.readouterr().out
    assert "heis7" in out and "solv7" in out and "heis5" in out
    assert main(["models", "show", "heis7"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim"] == 7 and doc["structure"]["kind"] == "g2"


def test_cli_torsion_and_ricci(capsys):
    assert main(["torsion", "heis7"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "T = e1^e3^e5 - e1^e4^e6 - e3^e4^e7 - e5^e6^e7"
    assert main(["ricci", "heis7"]) == 0
    out = capsys.readouterr().out
    assert "Scal = -8" in out
    assert main(["torsion", "cm5twist"]) == 1
    assert "nijenhuis-not-skew" in capsys.readouterr().err


def test_cli_spin_eig(capsys):
    assert main(["spin-eig", "5", "2*e1^e2^e5 + 2*e3^e4^e5"]) == 0
    out = capsys.readouterr().out
    assert "-4 x1, 0 x2, 4 x1" in out
    assert main(["spin-eig", "5", "2*e1^%e2"]) == 2


@pytest.mark.parametrize("coeff", ["100", "1000"])
def test_cli_spin_eig_large_coefficients_finish(capsys, coeff):
    # a divisor search up to the square root of the constant term (10^16 and
    # 10^24 here) took 17.6 s for 100 and did not finish for 1000
    start = time.process_time()
    assert main(["spin-eig", "7", f"{coeff}*e1^e2^e3"]) == 0
    assert time.process_time() - start < 5
    assert capsys.readouterr().out == (f"eigenvalues: -{coeff} x4, {coeff} x4\n"
                                       "hermitian: True\n")


@pytest.mark.parametrize("dim, expr, out", [
    ("7", "1/2*e1^e2^e3 + 1/3*e4^e5^e6",
     "eigenvalues: \n"
     "residual factor (highest first): "
     "[1, 0, -13/9, 0, 169/216, 0, -2197/11664, 0, 28561/1679616]\n"
     "hermitian: True\n"),
    ("5", "12/9*e1^e2^e3^e5 + 5*e4 + 1/9*e2^e3^e4 + 5*e5",
     "eigenvalues: \n"
     "residual factor (highest first): "
     "[1, 0, (7810/81-80/3i), 0, (14090149/6561-312560/243i)]\n"
     "hermitian: False\n"),
    ("5", "3*e1^e4^e5 - 1/3",
     "eigenvalues: -10/3 x2, 8/3 x2\n"
     "hermitian: True\n"),
    ("3", "e1 + 1/2*e1^e2^e3",
     "eigenvalues: \n"
     "residual factor (highest first): [1, -1, 5/4]\n"
     "hermitian: False\n"),
    ("7", "1/1000*e1^e2^e3 + e4^e5^e6^e7",
     "eigenvalues: -1001/1000 x4, 1001/1000 x4\n"
     "hermitian: True\n"),
], ids=["real-residual-7", "gaussian-residual-5", "fractional-roots-5", "real-residual-3",
        "scale-1000-7"])
def test_cli_spin_eig_fractional_residual(capsys, dim, expr, out):
    # pinned spectra of forms with fractional coefficients: real and Gaussian
    # residuals, fractional roots, and a scale of 1000
    assert main(["spin-eig", dim, expr]) == 0
    assert capsys.readouterr().out == out


def test_cli_decompose(capsys):
    w3 = ("e1^e2^e7 + e1^e3^e5 - e1^e4^e6 - e2^e3^e6 - e2^e4^e5 "
          "+ e3^e4^e7 + e5^e6^e7")
    assert main(["decompose", "heis7", w3]) == 0
    out = capsys.readouterr().out
    assert "part27 = 0" in out and "part7  = 0" in out


def test_cli_convention_ledger(capsys):
    assert main(["--convention-ledger"]) == 0
    out = capsys.readouterr().out
    assert "hodge-orientation" in out and "ricci-index-order" in out


def test_suite_output_is_deterministic():
    a = run_suite("examples").to_json()
    b = run_suite("examples").to_json()
    assert a == b


def test_cli_verify_reports_failure_exit(monkeypatch, capsys):
    import skewtor.cli as cli_mod
    failing = Report("demo", [check("x", "anchor", False, value=1, expected=2)])
    monkeypatch.setattr(cli_mod, "run_suite", lambda name: failing)
    assert main(["verify", "demo"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_out_of_scope_statements_are_skip_listed(all_report):
    report = all_report
    skips = {c.anchor for c in report.checks if c.status == "SKIP"}
    for anchor in ("Thm 3.4", "Thm 5.3", "Thm 5.6", "Thm 10.8",
                   "Cor 6.3", "Cor 6.6"):
        assert anchor in skips, anchor


def test_lemma_10_7_is_computed_once_for_both_suites(monkeypatch):
    from skewtor import acskit, suites
    calls = []
    spectrum = acskit.half_module_endomorphism_spectrum
    monkeypatch.setattr(acskit, "half_module_endomorphism_spectrum",
                        lambda a: calls.append(a) or spectrum(a))
    suites._lemma_10_7.cache_clear()
    checks = {c.id: c.status for name in ("clifford", "hermitian")
              for c in run_suite(name).checks}
    assert calls == [1]
    assert checks["clifford.half-module-spectrum"] == "PASS"
    assert checks["hermitian.half-module-spectrum"] == "PASS"


def test_run_suite_all_builds_each_connection_once(monkeypatch):
    # on a fresh registry, `verify all` computes each structure's torsion, each
    # model's Levi-Civita connection and each connection's curvature at most once
    import importlib
    from collections import Counter
    from skewtor import acskit, g2, liegeom
    model_key = lambda model: (model.n, tuple(model.d_coframe))
    counts = Counter()

    def count(module, name, key):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda arg: counts.update([(name, key(arg))]) or fn(arg))

    torsion_functions = ((g2, "torsion_form"), (acskit, "contact_torsion"),
                         (acskit, "hermitian_torsion"))
    for module, name in torsion_functions:
        count(module, name, lambda s: s)
    count(liegeom, "levi_civita", model_key)
    count(liegeom, "curvature", lambda conn: (model_key(conn.model), conn.torsion))
    registry_module = importlib.import_module("skewtor.registry")
    monkeypatch.setattr(registry_module, "_REGISTRY", None)
    assert run_suite("all").ok
    entries = registry_module._REGISTRY.values()
    assert max(counts.values()) == 1, [key[0] for key, n in counts.items() if n > 1]
    # the 14 registry structures and the Tanno deformation of heis5
    names = {name for _, name in torsion_functions}
    assert sum(n for (name, _), n in counts.items() if name in names) == 15
    monkeypatch.undo()
    # every cached table equals a fresh one: no reader wrote into a shared array
    fresh = 0
    for entry in entries:
        cached = [entry.model.__dict__.get("levi_civita"),
                  getattr(entry.structure, "__dict__", {}).get("connection")]
        for conn in cached:
            if conn is None or "curvature" not in conn.__dict__:
                continue
            rebuilt = (liegeom.levi_civita(entry.model) if conn.torsion is None
                       else liegeom.with_torsion(entry.model, conn.torsion))
            table = liegeom.curvature(rebuilt)
            assert conn.omega == rebuilt.omega, entry.name
            assert (conn.curvature.r, conn.curvature.ric, conn.curvature.scal) \
                == (table.r, table.ric, table.scal), entry.name
            fresh += 1
    assert fresh >= 20


def test_run_suite_all_builds_each_spinor_side_once(monkeypatch):
    # on a fresh registry, `verify all` computes the spin connection and the
    # parallel-spinor basis of each torsion connection at most once
    import importlib
    from collections import Counter
    from skewtor import clifford, liegeom
    from skewtor.suites import admissible_models
    built, kernels = [], Counter()
    init, kernel = liegeom.SpinorData.__init__, liegeom.common_kernel
    key = lambda endos: tuple((m.den, m.num.shape, tuple(m.num.flat)) for m in endos)

    def counting_init(self, conn, *rest):
        built.append(conn)
        init(self, conn, *rest)

    def counting_kernel(endos, *rest, **options):
        endos = list(endos)
        kernels[key(endos)] += 1
        return kernel(endos, *rest, **options)

    monkeypatch.setattr(liegeom.SpinorData, "__init__", counting_init)
    for module in (clifford, liegeom):
        monkeypatch.setattr(module, "common_kernel", counting_kernel)
    monkeypatch.setattr(importlib.import_module("skewtor.registry"), "_REGISTRY", None)
    assert run_suite("all").ok
    # one spinor side per admissible structure, and one kernel per spinor side:
    # structures with equal spin connections share a kernel input
    conns = [s.connection for _, s in admissible_models()]
    assert [sum(c is conn for c in built) for conn in conns] == [1] * len(conns)
    assert len(built) == len(conns)
    expected = Counter(key(conn.spinors.lams) for conn in conns)
    assert {k: kernels[k] for k in expected} == expected


def test_calibration_table_is_built_once_per_spaces(monkeypatch):
    # casimir_decompose reads it once per module and isotypic_basis_r7_m once
    # per label: the two eigenvector probes run once for the whole suite
    from skewtor import equivar
    calls = []
    scalar = equivar._eigen_scalar
    monkeypatch.setattr(equivar, "_eigen_scalar",
                        lambda matrix, vec: calls.append(vec) or scalar(matrix, vec))
    monkeypatch.setattr(equivar, "_SPACES", equivar.Spaces())
    statuses = {c.status for c in run_suite("equivariant").checks}
    assert len(calls) == 2
    assert "FAIL" not in statuses
    table = equivar.spaces().calibration
    assert equivar.spaces().calibration is table and len(calls) == 2


def test_verify_all_json_is_byte_identical(all_report):
    # the SHA-256 of `skewtor verify all --json`; a change to any check id,
    # status or value string changes it
    digest = hashlib.sha256((all_report.to_json() + "\n").encode()).hexdigest()
    assert digest == "05bf1ab9a788902e2ff9207d31b634d209d1b2be7179990819cbf039314b427f"


def test_check_values_are_python_scalars(all_run):
    # fmt renders a numpy.bool_ as "True" where a bool gives "true", and a
    # numpy integer is no Fraction: values reach a Check as Python objects
    def leaves(value):
        if isinstance(value, dict):
            return [x for v in value.values() for x in leaves(v)]
        if isinstance(value, (list, tuple)):
            return [x for v in value for x in leaves(v)]
        return [value]

    _, raw = all_run
    assert len(raw) == 259
    for check_id, value, expected in raw:
        for leaf in leaves(value) + leaves(expected):
            assert type(leaf) in (bool, int, Fraction, str, Form), (check_id, leaf)


def _write_model(tmp_path, monkeypatch, name, structure):
    doc = entry_to_dict(registry()["abelian5"])
    doc["name"] = name
    doc["structure"] = structure
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setenv("SKEWTOR_MODEL_PATH", str(tmp_path))
    return path


def test_cli_unknown_structure_kind_is_an_input_error(tmp_path, monkeypatch, capsys):
    path = _write_model(tmp_path, monkeypatch, "fruit5", {"kind": "banana"})
    assert main(["models", "show", "fruit5"]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "structure.kind" in err and "banana" in err


def test_cli_structureless_model_has_no_torsion(tmp_path, monkeypatch, capsys):
    _write_model(tmp_path, monkeypatch, "bare5", {"kind": "none"})
    assert main(["models", "show", "bare5"]) == 0
    assert json.loads(capsys.readouterr().out)["structure"] == {"kind": "none"}
    for command in ("torsion", "ricci"):
        assert main([command, "bare5"]) == 2
        assert "carries no structure" in capsys.readouterr().err


def test_model_file_rejects_a_non_canonical_g2_form(tmp_path, monkeypatch, capsys):
    doc = entry_to_dict(registry()["abelian7"])
    doc["name"] = "scaled7"
    doc["structure"]["omega3"] = [[blade, str(2 * Fraction(c))]
                                  for blade, c in doc["structure"]["omega3"]]
    path = tmp_path / "scaled7.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setenv("SKEWTOR_MODEL_PATH", str(tmp_path))
    for command in (["models", "show"], ["torsion"]):
        assert main(command + ["scaled7"]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "field structure" in err and "omega3" in err


@pytest.mark.parametrize("field, value, words", [
    ("eta", [[[5], "2"]], ("field structure", "eta", "e5")),
    ("eta", [[[4], "1"]], ("field structure", "eta", "e5")),
    ("eta", [[[5], "-1"]], ("field structure", "eta", "e5")),
    ("xi", 6, ("Reeb index 6", "outside 1..5")),
], ids=["scaled-eta", "other-eta", "negated-eta", "xi-outside-frame"])
def test_model_file_eta_must_be_the_dual_of_the_reeb_vector(tmp_path, monkeypatch, capsys,
                                                            field, value, words):
    doc = entry_to_dict(registry()["heis5"])
    assert doc["structure"]["eta"] == [[[5], "1"]]
    doc["name"] = "custom5"
    doc["structure"][field] = value
    path = tmp_path / "custom5.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setenv("SKEWTOR_MODEL_PATH", str(tmp_path))
    for command in (["models", "show"], ["torsion"]):
        assert main(command + ["custom5"]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and all(w in err for w in words), err


@pytest.mark.parametrize("make", [
    lambda path: path.mkdir(),                              # a directory
    lambda path: path.write_text("[" * 100_000),            # nested past the stack
], ids=["directory", "deep-nesting"])
def test_unreadable_model_file_is_an_input_error(tmp_path, monkeypatch, capsys, make):
    path = tmp_path / "broken5.json"
    make(path)
    monkeypatch.setenv("SKEWTOR_MODEL_PATH", str(tmp_path))
    for command in (["models", "show"], ["torsion"]):
        assert main(command + ["broken5"]) == 2
        assert str(path) in capsys.readouterr().err


# SHA-256 of stdout + stderr, with the exit code, of each command on every
# registry model; pinned when the structures became validated objects
_REGISTRY_OUTPUTS = {
    "models list": (0, "e8ac528bce3a228e9003d70dccb58bb04cea6faaf288ca14d02ce4b74674891d"),
    "models show abelian5": (0, "46ba85c63c2d7ccc022b2cb50816d78f96215551ef651f956066cef905e06f74"),
    "torsion abelian5": (0, "6785a9f06455b59268a74360a9ccc7b5bf8462c41d02160b1d9ecad42d59b511"),
    "ricci abelian5": (0, "ecf0f6689b56fecf9fbc3b0f90fbf050459fbc9793d7cdca2db2b173ffc9a693"),
    "models show abelian6": (0, "545595aae4d46bbed51996e73e47ae47f14149d29a535a21fb119d1c265cbce7"),
    "torsion abelian6": (0, "6785a9f06455b59268a74360a9ccc7b5bf8462c41d02160b1d9ecad42d59b511"),
    "ricci abelian6": (0, "038e1523b135e33da6cc8c5e3e2543516009da6e6630dbd943c3c58e48116491"),
    "models show abelian7": (0, "efd7e4287385a4bea6bdd992b8d6d267bd5222084b0aee14a59c5fa16a0e3d56"),
    "torsion abelian7": (0, "6785a9f06455b59268a74360a9ccc7b5bf8462c41d02160b1d9ecad42d59b511"),
    "ricci abelian7": (0, "7b140cf2477350eaee768029ab21037e9a1d56157cb78f42d1118e3ed7414a96"),
    "models show cm5twist": (0, "ecba5e89a5a8f836423bf1eb481366a27e356c9f8f130252ce1c8475449ada11"),
    "torsion cm5twist": (1, "13c5530dcd89767936b8560b59518c9545fe960f7099d194e535e36b77eef212"),
    "ricci cm5twist": (1, "13c5530dcd89767936b8560b59518c9545fe960f7099d194e535e36b77eef212"),
    "models show heis3x2": (0, "5695ca75a150e9d4a85c0b1b1082e77e016f0a50e96d67bd59abc6bef5dbdbd9"),
    "torsion heis3x2": (0, "db2f3ca617f4847d52fa8d0d307435b5fbd066693d5aade4e5114418e1694b0a"),
    "ricci heis3x2": (0, "60e70d5ee058882432846ab867f2316f44d1df395458f28fb6c973b81e4cc372"),
    "models show heis5": (0, "f4abace1ba39dc19851bcfa566fa8006733eca307f36d93c8da8d512e665ca01"),
    "torsion heis5": (0, "31456d384a265c7c02cea1c2c0202d8aa7b584ea63cf70188711c74ba8862e4d"),
    "ricci heis5": (0, "ce67ea964ff437a05ca2ca972f6a4423be621456eda5a8d026d52a52578a0951"),
    "models show heis7": (0, "53e0e284b56aaf7290e26bd4a305a5ae2579145b3ec4ccd05d87805703851852"),
    "torsion heis7": (0, "b709633dffc95093df6aa1d2bc3bfa01dd7c69814399f3531f28fa825a7925a3"),
    "ricci heis7": (0, "adfd38b0ab374c8979c843c88f786f361b8dbf5173667d8fbb81680166a2d92e"),
    "models show hyper7": (0, "398c1a3c9aca5e8b5c739b55955b170f74d748be2414181786941cc954fb9387"),
    "torsion hyper7": (0, "6f2aee329b9f0793fa88295b7695c75921a0ddd2938ce9ea4f610941ba10dbf6"),
    "ricci hyper7": (0, "680f568228f282367a264ae1ee769ab00f3bbc20d07d3255b31a5c552a760b21"),
    "models show kt4": (0, "e061a3d03a4511102b51d4c98e903ddb3d2cc5f014a093d65768f2b7b318bea1"),
    "torsion kt4": (1, "13c5530dcd89767936b8560b59518c9545fe960f7099d194e535e36b77eef212"),
    "ricci kt4": (1, "13c5530dcd89767936b8560b59518c9545fe960f7099d194e535e36b77eef212"),
    "models show solv6": (0, "2a97555404aa51e07a998866cf773fa5849967c24ac6442bc9844e193f62b3fa"),
    "torsion solv6": (0, "3a7d1052c96187c45f97d98399e2aeb672932d40b0358650b4540e5fd4b64d1a"),
    "ricci solv6": (0, "d6bc28a77365901a682dfc7064bba63634c60d9f1347fd93889f2b04d9443133"),
    "models show solv7": (0, "54bedc7058b9c32908bc03bca6da66bc58405ce16826fa62af173181d95a2294"),
    "torsion solv7": (0, "3a7d1052c96187c45f97d98399e2aeb672932d40b0358650b4540e5fd4b64d1a"),
    "ricci solv7": (0, "b8fdefb265f4187d8233995391c91bdc7eb8768c6de6411dcc67d0635f352b15"),
    "models show su2su2": (0, "24b1ac38fe00dcaabf8ab3576124cd0d7ede2c4e2c11e8436a66d571ab75576b"),
    "torsion su2su2": (0, "86c70c2a17f42a766dda4c392f285a9aeadd484d807055e54cc29b6d56db4950"),
    "ricci su2su2": (0, "038e1523b135e33da6cc8c5e3e2543516009da6e6630dbd943c3c58e48116491"),
    "models show su2su2xr": (0, "3b0ff03425094b130fcb5889973eaec2d69b81f868a06199a9a669e2fdca1cfa"),
    "torsion su2su2xr": (0, "86c70c2a17f42a766dda4c392f285a9aeadd484d807055e54cc29b6d56db4950"),
    "ricci su2su2xr": (0, "7b140cf2477350eaee768029ab21037e9a1d56157cb78f42d1118e3ed7414a96"),
    "models show twist5": (0, "e2d50b4030ac2ff02e5bd0a08d242497f562c419b843e9341f9a6025a3c752fb"),
    "torsion twist5": (0, "eff348f87144207cda3324947eff7c34633333061ac42f3709565f3adfd1e5b9"),
    "ricci twist5": (0, "d12daae502c71f6b37d06212ca1fe0ae2248fff44e809eb48854f4719fff1564"),
}


def test_registry_model_outputs_are_pinned(capsys):
    commands = [["models", "list"]] + [
        command + [name] for name in sorted(registry())
        for command in (["models", "show"], ["torsion"], ["ricci"])]
    assert len(commands) == len(_REGISTRY_OUTPUTS)
    for command in commands:
        code = main(command)
        out = capsys.readouterr()
        digest = hashlib.sha256((out.out + out.err).encode()).hexdigest()
        assert (code, digest) == _REGISTRY_OUTPUTS[" ".join(command)], command


def _model_text(name, edit):
    doc = entry_to_dict(registry()[name])
    edit(doc)
    return json.dumps(doc)


def _abelian5_text(edit):
    return _model_text("abelian5", edit)


@pytest.mark.parametrize("text, field", [
    (_abelian5_text(lambda d: d.pop("dim")), "field dim: missing"),
    (_abelian5_text(lambda d: d["coframe_d"].append([5, [[[2, 1], "1"]]])),
     "field coframe_d: blade (2, 1) not ascending"),
    (_abelian5_text(lambda d: d["coframe_d"].append([5, [[[1, 2], "2/0"]]])),
     "field coframe_d"),
    ("{\"dim\": 5, \"coframe_d\": [", "not a JSON document"),
    (_abelian5_text(lambda d: d.update(dim=9)), "field dim: 9 is outside"),
    (_abelian5_text(lambda d: d.update(dim=5.5)), "field dim: 5.5 is not an integer"),
    (_abelian5_text(lambda d: d.update(dim=True)), "field dim: True is not an integer"),
    (_abelian5_text(lambda d: d.update(name=["x"])), "field name: ['x'] is not a string"),
    (_abelian5_text(lambda d: d["coframe_d"].append([5, [[[1, 2], float("inf")]]])),
     "field coframe_d: cannot convert Infinity"),
    (_abelian5_text(lambda d: d["coframe_d"].append([5, [[[1, 2], 0.1]]])),
     "field coframe_d: coefficient 0.1 is not exact"),
    (_abelian5_text(lambda d: d["coframe_d"].append([5, [[[1, 2], "1"], [[1, 2], "2"]]])),
     "field coframe_d: blade (1, 2) appears twice"),
    (_abelian5_text(lambda d: d.update(coframe_d=[[3, [[[True, 2], "1"]]]])),
     "field coframe_d: True is not an integer"),
    (_abelian5_text(lambda d: d.update(coframe_d=[[3, [[[1.0, 2], "1"]]]])),
     "field coframe_d: 1.0 is not an integer"),
    (_abelian5_text(lambda d: d["structure"]["phi"][0].__setitem__(1, True)),
     "field structure: coefficient True is not exact"),
    (_abelian5_text(lambda d: d["structure"]["phi"][0].__setitem__(1, 1.0)),
     "field structure: coefficient 1.0 is not exact"),
    (_model_text("abelian6", lambda d: d["structure"]["J"][0].__setitem__(1, True)),
     "field structure: coefficient True is not exact"),
    (_model_text("abelian6", lambda d: d["structure"]["J"][0].__setitem__(1, 1.0)),
     "field structure: coefficient 1.0 is not exact"),
    (_abelian5_text(lambda d: d.update(coframe_d=[[3, [[[1, 2], "1"]]], [3, []]])),
     "field coframe_d: coframe index 3 is listed twice"),
], ids=["missing-dim", "descending-blade", "zero-denominator", "invalid-json", "dim-9",
        "float-dim", "bool-dim", "list-name", "infinite-coefficient", "float-coefficient",
        "duplicate-blade", "bool-blade-index", "float-blade-index", "bool-phi-entry",
        "float-phi-entry", "bool-j-entry", "float-j-entry", "repeated-coframe-index"])
def test_cli_malformed_model_file_is_an_input_error(tmp_path, monkeypatch, capsys,
                                                    text, field):
    path = tmp_path / "broken5.json"
    path.write_text(text)
    monkeypatch.setenv("SKEWTOR_MODEL_PATH", str(tmp_path))
    assert main(["models", "show", "broken5"]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and field in err, err


@pytest.mark.parametrize("argv, position", [
    (["spin-eig", "7", "--", "1/0*e1^e2"], 0),
    (["decompose", "heis7", "--", "1/0*e1^e2"], 0),
    (["spin-eig", "7", "e1^e2+"], 5),
    (["spin-eig", "7", "e1^e2 - "], 6),
    (["spin-eig", "7", "2*+e1"], 1),
], ids=["zero-denominator-spin-eig", "zero-denominator-decompose", "trailing-sign",
        "trailing-sign-space", "dangling-star"])
def test_cli_form_parse_errors_exit_2(capsys, argv, position):
    assert main(argv) == 2
    assert f"(at position {position})" in capsys.readouterr().err
    with pytest.raises(FormParseError) as err:
        parse_form(argv[-1], 7)
    assert err.value.position == position


def test_cli_builds_its_parser_once(capsys):
    cli.build_parser.cache_clear()
    outputs = []
    for argv in (["spin-eig", "5", "2*e1^e2^e5 + 2*e3^e4^e5"], ["torsion", "heis5"]) * 2:
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[:2] == outputs[2:]
    assert cli.build_parser.cache_info().misses == 1


# ---------------------------------------------------------------------------
# fuzzed model documents: mutations of `skewtor models show <name>` output
# ---------------------------------------------------------------------------

_SHOWN = {name: entry_to_dict(entry) for name, entry in registry().items()}

_json_scalars = (st.none() | st.booleans() | st.integers(-3, 12)
                 | st.floats(-10, 10) | st.floats(allow_nan=True, allow_infinity=True)
                 | st.sampled_from(["1/0", "0", "-1/2", "x", "", "2", "e1", "g2", "contact",
                                    "hermitian", "none"]))
_rationals = st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/4", "1/0", "7/3"])
_json_values = st.recursive(
    _json_scalars,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(
        st.sampled_from(["kind", "dim", "xi", "eta", "phi", "J", "omega3", "name"]),
        kids, max_size=3),
    max_leaves=8)


def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, prefix + (index,))


@st.composite
def fuzzed_model_docs(draw):
    """A shown model document with one to three fields, blades, coefficients or
    matrix entries dropped or replaced by other JSON values."""
    doc = copy.deepcopy(_SHOWN[draw(st.sampled_from(sorted(_SHOWN)))])
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        path = draw(st.sampled_from(paths[1:] + paths[:1]))   # the whole document last
        if not path:
            doc = draw(_json_values)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]]
        if draw(st.integers(0, 2)) == 0:
            del parent[path[-1]]
        elif isinstance(old, int) and not isinstance(old, bool) and draw(st.booleans()):
            parent[path[-1]] = draw(st.integers(-1, 9))   # another index or dimension
        elif isinstance(old, str) and draw(st.booleans()):
            parent[path[-1]] = draw(_rationals)            # another coefficient
        else:
            parent[path[-1]] = draw(_json_values)
    return doc


@settings(max_examples=200, deadline=None)
@given(doc=fuzzed_model_docs())
def test_fuzzed_model_documents_raise_only_skewtor_errors(doc):
    try:
        entry_from_dict(doc)
    except SkewtorError:
        pass


@settings(max_examples=60, deadline=None)
@given(doc=fuzzed_model_docs())
def test_cli_models_show_on_fuzzed_files_exits_0_or_2(doc):
    with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as mp:
        with open(os.path.join(directory, "fuzzed.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        mp.setenv("SKEWTOR_MODEL_PATH", directory)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["models", "show", "fuzzed"]) in (0, 2)
