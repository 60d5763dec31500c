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


def test_run_suite_all_certifies_each_frame_once(monkeypatch):
    # on a fresh registry, `verify all` builds the torsion-uniqueness response
    # matrix once per frame (phi, and xi for contact input): the certified
    # structures share 4 frames
    import importlib
    from skewtor import acskit
    built = []
    response = acskit._uniqueness_response
    monkeypatch.setattr(acskit, "_uniqueness_response", lambda s: built.append(s) or response(s))
    monkeypatch.setattr(acskit, "_CERTIFICATES", {}, raising=False)
    monkeypatch.setattr(importlib.import_module("skewtor.registry"), "_REGISTRY", None)
    assert run_suite("all").ok
    frames = {(tuple(s.phi.num.flat), s.phi.den, getattr(s, "xi_index", None)) for s in built}
    assert len(frames) == 4
    assert len(built) == 4


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


# SHA-256 of stdout + stderr, with the exit code, of the form paths: `decompose`
# on the four G2 registry models (rational 2- and 3-forms, and the exit-2 cases
# of degree 1, degree 4 and a 5-dimensional model), and `spin-eig` on a seeded
# family of 100 forms (n = 2..8, degree 0-4, 1-6 blades, some out of order,
# integer and small rational coefficients; each under 10 ms when pinned)
_FORM_OUTPUTS = {
    ("decompose", "abelian7", "1/2*e1^e2 - 3*e3^e4 + 2/3*e5^e6 + e1^e7"):
        (0, "48ea275c1ae997a3b84491337bd32a8acc0e1bb64f98146cee254eb5a4ded00b"),
    ("decompose", "abelian7", "e1^e2 + e3^e4 + e5^e6"):
        (0, "2138ba1189fc7a3bd4fa587c7758730d2eba7a73ad94f5c1d6fb9e68faaa4a73"),
    ("decompose", "abelian7", "-5/4*e2^e7 + 1/3*e1^e4"):
        (0, "867930a383137cfa7759f04c7852f01fdb24d32986062e31ba4d7771c0cfd7a3"),
    ("decompose", "abelian7", "e1^e2^e7 + e1^e3^e5 - e1^e4^e6 - 1/2*e2^e3^e4 + 3/5*e2^e5^e6"):
        (0, "8b5e24b9bfc88dcc9e6241259a0c5a436c47be7b6259a5a55ab2e4d99ee2a493"),
    ("decompose", "abelian7", "2/3*e1^e2^e3 - e4^e5^e6 + 7*e3^e6^e7"):
        (0, "a33dc8fcef0be9d37475340c89edb0338f94c9da48b53179290d21e4f8111926"),
    ("decompose", "abelian7", "1/7*e2^e4^e7"):
        (0, "ff0cd037b730689e844bd07a312ef9fa9f68798ec5115d8afa9925cf60590377"),
    ("decompose", "abelian7", "e1"):
        (2, "410e9a64334ad1f60293f1f481ae6d2fa885fe6539fbd40958792c2b19729c97"),
    ("decompose", "abelian7", "1/2*e1^e2^e3^e4"):
        (2, "410e9a64334ad1f60293f1f481ae6d2fa885fe6539fbd40958792c2b19729c97"),
    ("decompose", "heis7", "1/2*e1^e2 - 3*e3^e4 + 2/3*e5^e6 + e1^e7"):
        (0, "48ea275c1ae997a3b84491337bd32a8acc0e1bb64f98146cee254eb5a4ded00b"),
    ("decompose", "heis7", "e1^e2 + e3^e4 + e5^e6"):
        (0, "2138ba1189fc7a3bd4fa587c7758730d2eba7a73ad94f5c1d6fb9e68faaa4a73"),
    ("decompose", "heis7", "-5/4*e2^e7 + 1/3*e1^e4"):
        (0, "867930a383137cfa7759f04c7852f01fdb24d32986062e31ba4d7771c0cfd7a3"),
    ("decompose", "heis7", "e1^e2^e7 + e1^e3^e5 - e1^e4^e6 - 1/2*e2^e3^e4 + 3/5*e2^e5^e6"):
        (0, "8b5e24b9bfc88dcc9e6241259a0c5a436c47be7b6259a5a55ab2e4d99ee2a493"),
    ("decompose", "heis7", "2/3*e1^e2^e3 - e4^e5^e6 + 7*e3^e6^e7"):
        (0, "a33dc8fcef0be9d37475340c89edb0338f94c9da48b53179290d21e4f8111926"),
    ("decompose", "heis7", "1/7*e2^e4^e7"):
        (0, "ff0cd037b730689e844bd07a312ef9fa9f68798ec5115d8afa9925cf60590377"),
    ("decompose", "heis7", "e1"):
        (2, "410e9a64334ad1f60293f1f481ae6d2fa885fe6539fbd40958792c2b19729c97"),
    ("decompose", "heis7", "1/2*e1^e2^e3^e4"):
        (2, "410e9a64334ad1f60293f1f481ae6d2fa885fe6539fbd40958792c2b19729c97"),
    ("decompose", "hyper7", "1/2*e1^e2 - 3*e3^e4 + 2/3*e5^e6 + e1^e7"):
        (0, "48ea275c1ae997a3b84491337bd32a8acc0e1bb64f98146cee254eb5a4ded00b"),
    ("decompose", "hyper7", "e1^e2 + e3^e4 + e5^e6"):
        (0, "2138ba1189fc7a3bd4fa587c7758730d2eba7a73ad94f5c1d6fb9e68faaa4a73"),
    ("decompose", "hyper7", "-5/4*e2^e7 + 1/3*e1^e4"):
        (0, "867930a383137cfa7759f04c7852f01fdb24d32986062e31ba4d7771c0cfd7a3"),
    ("decompose", "hyper7", "e1^e2^e7 + e1^e3^e5 - e1^e4^e6 - 1/2*e2^e3^e4 + 3/5*e2^e5^e6"):
        (0, "8b5e24b9bfc88dcc9e6241259a0c5a436c47be7b6259a5a55ab2e4d99ee2a493"),
    ("decompose", "hyper7", "2/3*e1^e2^e3 - e4^e5^e6 + 7*e3^e6^e7"):
        (0, "a33dc8fcef0be9d37475340c89edb0338f94c9da48b53179290d21e4f8111926"),
    ("decompose", "hyper7", "1/7*e2^e4^e7"):
        (0, "ff0cd037b730689e844bd07a312ef9fa9f68798ec5115d8afa9925cf60590377"),
    ("decompose", "hyper7", "e1"):
        (2, "410e9a64334ad1f60293f1f481ae6d2fa885fe6539fbd40958792c2b19729c97"),
    ("decompose", "hyper7", "1/2*e1^e2^e3^e4"):
        (2, "410e9a64334ad1f60293f1f481ae6d2fa885fe6539fbd40958792c2b19729c97"),
    ("decompose", "solv7", "1/2*e1^e2 - 3*e3^e4 + 2/3*e5^e6 + e1^e7"):
        (0, "48ea275c1ae997a3b84491337bd32a8acc0e1bb64f98146cee254eb5a4ded00b"),
    ("decompose", "solv7", "e1^e2 + e3^e4 + e5^e6"):
        (0, "2138ba1189fc7a3bd4fa587c7758730d2eba7a73ad94f5c1d6fb9e68faaa4a73"),
    ("decompose", "solv7", "-5/4*e2^e7 + 1/3*e1^e4"):
        (0, "867930a383137cfa7759f04c7852f01fdb24d32986062e31ba4d7771c0cfd7a3"),
    ("decompose", "solv7", "e1^e2^e7 + e1^e3^e5 - e1^e4^e6 - 1/2*e2^e3^e4 + 3/5*e2^e5^e6"):
        (0, "8b5e24b9bfc88dcc9e6241259a0c5a436c47be7b6259a5a55ab2e4d99ee2a493"),
    ("decompose", "solv7", "2/3*e1^e2^e3 - e4^e5^e6 + 7*e3^e6^e7"):
        (0, "a33dc8fcef0be9d37475340c89edb0338f94c9da48b53179290d21e4f8111926"),
    ("decompose", "solv7", "1/7*e2^e4^e7"):
        (0, "ff0cd037b730689e844bd07a312ef9fa9f68798ec5115d8afa9925cf60590377"),
    ("decompose", "solv7", "e1"):
        (2, "410e9a64334ad1f60293f1f481ae6d2fa885fe6539fbd40958792c2b19729c97"),
    ("decompose", "solv7", "1/2*e1^e2^e3^e4"):
        (2, "410e9a64334ad1f60293f1f481ae6d2fa885fe6539fbd40958792c2b19729c97"),
    ("decompose", "heis5", "e1^e2"):
        (2, "97a51fb3de278284d2a85e33fd6426493f888594e0a0f8db28c81f9ff77b060d"),
    ("spin-eig", "2", "3*e2 - 7*e1"):
        (0, "97b4afba1c3f23dfaea290d6ea53348ccb125a6997587aa4dc9e162bbdf72683"),
    ("spin-eig", "3", "2*e1 + 5/4*e3 + 5/4*e2"):
        (0, "ab5b94b55f55d6f7ca6bd0871209a2518e09a89d076450140de10cd1798b2af1"),
    ("spin-eig", "4", "7*e4"):
        (0, "c87f1f998fa542e9beaee25a8fe78bd080ff0241e629bf6df140caab7d07f196"),
    ("spin-eig", "5", "3/5*e3 - 2/6*e5 + 3/2*e2"):
        (0, "e3478e9fb8eae75518028bcc45dbcdc99ae83157e8626a6d5b9942feef1bb131"),
    ("spin-eig", "6", "3*e1^e2^e4^e5 - e3^e1^e4^e6 + 3*e1^e2^e3^e6"):
        (0, "940f9b22f3e86d725a6bc5b947f24b9161f0ba637b25d1e5bd649a26b6c5898d"),
    ("spin-eig", "7", "1/6*e1^e3^e4 - 2*e4^e5^e6 - 1/3*e1^e2^e4 + e4^e1^e5 - 1/2*e6^e1^e7"):
        (0, "feb5fb9c314615a10e0240b49aee1fbf49f0345acba3c41c89cfc3aaa0fc3b2d"),
    ("spin-eig", "8", "1/2*e5 + 3*e2 - 7*e7 + e8 - e1 + 5/5*e4"):
        (0, "3b4864c8556268e8e9a59a5b19a70a87ce1e0f4034e37b8e48ff17976a206304"),
    ("spin-eig", "2", "3/2"):
        (0, "88c43a741c9264b84edd1ff2e168fc50e33b240601056efab1b2ae0ab51d1652"),
    ("spin-eig", "3", "4/5*e1^e2^e3"):
        (0, "6ec8f2b29224b81f13789520363bb7e83641cbc12b547dda382262196a6cb705"),
    ("spin-eig", "4", "3*e1^e3^e4 - 4/4*e2^e3^e4"):
        (0, "13386c9ff620cecf190f45846c3549c1b5ad26d307000cae8ef92257aed95606"),
    ("spin-eig", "5", "2/6"):
        (0, "a46e3b76cf3e7b86542c23ddd585391cd963e2d83f034eca9a04f89f41c3dc42"),
    ("spin-eig", "6", "1/4*e4 + 3*e5 + 5/3*e2 - 4/4*e6 - e1"):
        (0, "382f58bddfeebf6df97d109b931e299471871144a938fbe6a0000407a873a6ba"),
    ("spin-eig", "7", "2/2*e1 + 1/5*e6 + 5*e7 - 7*e2 + 5/6*e4 - 3*e3"):
        (0, "81624645d0628041e206c2e8c9582431fc7fb403607e1292ca3f6d02e7b17986"),
    ("spin-eig", "8", "2*e8 + 1/3*e6 + 5*e7 + 2/4*e2 + 1/3*e1 + e4"):
        (0, "a7f68c7e3827a4d0469102fc8a809feedb3d43d9ee416465a453389973f81cd6"),
    ("spin-eig", "2", "2"):
        (0, "f7c8c5d23aa79dc90fff9edb028e336d80091261b82400caed784908a85dcf73"),
    ("spin-eig", "3", "e2^e1^e3"):
        (0, "c5c0fa181a90db9907658cd9f82c4a3588aa5cc95ac1e25315be5116c737e6ff"),
    ("spin-eig", "4", "3*e3^e2^e4 - e1^e2^e3 - 3/2*e1^e2^e4"):
        (0, "3eec3a74d14aea0929804c51cbe3fb2b16658244a718c962d08370027fa404ec"),
    ("spin-eig", "5", "2/5*e1^e4"):
        (0, "df802638b7d06a2662d682d470c3cd611b568e5dadc967336f2c463ca639d1de"),
    ("spin-eig", "6", "1/3*e2^e3^e6"):
        (0, "a6d5bf4a0e82c6dbaf8b67b9c7224851a0c134a8c94cef545c9699a5ede7b6a9"),
    ("spin-eig", "7", "1/2*e2 + 5/6*e6 + 3/6*e5 + 3/5*e3 - 3/6*e4 + 2/6*e7"):
        (0, "a34de7e7ae2a255e5bd3340bb058812495b878f4d93e956a5caeba05f4123405"),
    ("spin-eig", "8", "1/4*e2^e5 + 5/5*e4^e7 - 3*e6^e5"):
        (0, "dc7964c6817543b0e7730c85c9bfecd256f1ceff946751a9163fd6c4107e4c6b"),
    ("spin-eig", "2", "4/2*e1 + 4/3*e2"):
        (0, "cf1feb1795da2161e7f71d8ae8549fa0236c64639890ce8cede072a31fbc67c5"),
    ("spin-eig", "3", "1/4*e2^e3 + 3/3*e1^e2"):
        (0, "6998bc872fb27ebc4455e5aea63509a1e9a6bd2883aa834e1a11f1275c7f7927"),
    ("spin-eig", "4", "7*e1"):
        (0, "c87f1f998fa542e9beaee25a8fe78bd080ff0241e629bf6df140caab7d07f196"),
    ("spin-eig", "5", "3*e2^e1^e4^e5"):
        (0, "b30b2b259fcac74512e11c703f666299a2a12d2480c2d6c1d49252032be54116"),
    ("spin-eig", "6", "4/2"):
        (0, "73f206ec0002fba94f3ce1f5a547f0bb6683f8c97c2ea417cc21c362a393c16f"),
    ("spin-eig", "7", "2/5*e6^e3^e7 + 7*e2^e6^e7 - 4/2*e2^e3^e4 - 3/5*e1^e5^e6 + 3*e2^e4^e5"):
        (0, "9b60bed773b7e1b2169f2238b355beeaee2f0bcb184df2cc6e470efa49cf181c"),
    ("spin-eig", "8", "e3^e5 + 3*e1^e2"):
        (0, "04a21b3d08cfa6cafa67d412c1421669705d7b56182b1a3a949a5ba3ae01468d"),
    ("spin-eig", "2", "e1^e2"):
        (0, "c67c0a77b7b76b25af28d9484b871ed9b9ffd7ccd1bc10e228e6e7b43daaceba"),
    ("spin-eig", "3", "e1^e3"):
        (0, "c67c0a77b7b76b25af28d9484b871ed9b9ffd7ccd1bc10e228e6e7b43daaceba"),
    ("spin-eig", "4", "4/2*e2^e3 + 2/2*e1^e4 + 5/3*e2^e4 + 2/6*e1^e2"):
        (0, "e1caeb0fe064e91d425fb303977244c608204484be473421f291747ed75af8c7"),
    ("spin-eig", "5", "3/4*e1^e2^e3 - 3/3*e2^e3^e5 + e3^e4^e5"):
        (0, "ad5b31d92eba2bfcfdac2c91801eed67559832ec08485b33593b77b29b51422b"),
    ("spin-eig", "6", "2*e1^e5^e6"):
        (0, "478923a9b3fbea5edbae0ed393b912b97519cce1463de4778eb790d1a4a5bfb9"),
    ("spin-eig", "7", "e4^e1^e6^e7 - 3/4*e3^e4^e6^e7"):
        (0, "b4f30548160e077f9c52ef245777d45e25fdd601bb49032ca27f28d9844f7352"),
    ("spin-eig", "8", "1/6*e1^e5^e6^e7 + e1^e2^e7^e8 - e3^e1^e7^e8"):
        (0, "d0285d26304bf23f3877ad3c3fb9b47cfbe295f931521a465d5fd088bc0f73c1"),
    ("spin-eig", "2", "1/2*e2^e1"):
        (0, "31ac53e974d9e33201b60bffd6aa0cfc355d24766f5f56873717082f069c78bb"),
    ("spin-eig", "3", "7*e1^e3 - e2^e1 + 5*e2^e3"):
        (0, "420432960880c0ffc7be814974101cb92d9a5edbc969c77f3381234e67edaa3e"),
    ("spin-eig", "4", "5/5*e3 - 4/3*e4 - 4/5*e2"):
        (0, "139939d1c78d6eb3665eceac693930e15f83c3ba8eeefef4767708c95475bd8c"),
    ("spin-eig", "5", "4/6*e2^e5 - 1/6*e5^e1"):
        (0, "3066643c0a1a68dd18f853d91219cfbeb87c22031798042468014c524338719c"),
    ("spin-eig", "6", "3/5*e1^e2^e3^e5 + 2/4*e1^e2^e3^e4 - 2*e3^e1^e5^e6 - 4/2*e1^e4^e5^e6"):
        (0, "38a5d5ddab1ba2284040cee400d3dc4eeb9638b48cc38fc6399b79f86fe3612f"),
    ("spin-eig", "7", "e6^e5^e7 - 2*e2^e4^e6"):
        (0, "5e21ca7202928527af3e994c5f11eac7dc5c79e14114ece79ff8d28d32f04833"),
    ("spin-eig", "8", "2/2*e1^e5^e6^e7"):
        (0, "2dcd38225cebfde66090edd19235890fa25de923f3694c5fdeb0602346432b1d"),
    ("spin-eig", "2", "1/5*e1 + 4/3*e2"):
        (0, "b0e93a2ccea3ee67b8ffa6ecc0b762c294f22862285c581709a0f36926ad01aa"),
    ("spin-eig", "3", "3/6"):
        (0, "3ef2e530c475592c7e4d35b543bbc429ae72462e5de1d536407e6bfcc11d71d0"),
    ("spin-eig", "4", "3/3"):
        (0, "5d1d8529fa48f0ec7c5d10007c618f657369513e1451505c8e0e69d6b17e20ba"),
    ("spin-eig", "5", "1/4*e1^e2^e4^e5 - 4/4*e1^e2^e3^e5 - 5/4*e1^e3^e4^e5"):
        (0, "6c4f75ddcf71c0391656f837426fc51a34c04474926fe195e12e090b7f983a05"),
    ("spin-eig", "6", "2*e1^e2^e3^e4 + 3*e2^e3^e5^e6 - 4/5*e2^e4^e5^e6"):
        (0, "a582e3b3b7a3ee8d8ae49ff539a1ab637ff8167b6b067306ff8849f4b55cacff"),
    ("spin-eig", "7", "2*e2^e4^e5 - e3^e4^e5"):
        (0, "df94f64261bda4d91033cb7f83fd5f006aabeb41fc650ba771f91cd163fb76fe"),
    ("spin-eig", "8", "7*e5^e1 + 3*e3^e7"):
        (0, "0306b71b08cf55ccae97751ff59200612a87a140cc7345552a1b3edebbec3edf"),
    ("spin-eig", "2", "e1 + 3/6*e2"):
        (0, "bd5649e2cb5ac2bc9911b154319063693228de4e6a50178b1d367e3a31ed1568"),
    ("spin-eig", "3", "e1^e2^e3"):
        (0, "2373f7d6fe3b15b1b5402452c3d377aa5f6a3ef4123f44ad702235cde558637c"),
    ("spin-eig", "4", "5"):
        (0, "c7f9b20cf1c1f49b082e999a1d1c3d972e99d9729e1798635479c4442a4e0d4c"),
    ("spin-eig", "5", "7*e3^e4^e5"):
        (0, "a89ffae42d8e26991ddacd04611b6649b08ccd13a8811949c84f91d46aaa50b0"),
    ("spin-eig", "6", "4/3*e2^e3 + 7*e1^e6 + e6^e3 + e1^e3 + 5*e5^e2"):
        (0, "39a1e89df48d81778262291680cfe866991ea13be9bd94a9227673bec5168c3e"),
    ("spin-eig", "7", "1/5"):
        (0, "4f9a68e527e12c3f93eb4b8099c73bd7f8d36cbe71cc6d56d38ce38c625171b3"),
    ("spin-eig", "8", "1/6"):
        (0, "a4a3303d150487be4cb156b31024454e272647a4449a0aa11559f30423029a9b"),
    ("spin-eig", "2", "1"):
        (0, "2373f7d6fe3b15b1b5402452c3d377aa5f6a3ef4123f44ad702235cde558637c"),
    ("spin-eig", "3", "5*e3^e1 + e1^e2 - 5*e2^e3"):
        (0, "edfbca07a3b6ae67b51a435fee021e144d71a6b8c0b1248ea58175cd87199904"),
    ("spin-eig", "4", "3/5*e3^e2^e4 - 5/3*e1^e2^e4 - 3*e1^e2^e3"):
        (0, "25dfde98778155d11f3c701c51d83f2c08fdb39a20cabcebc612228900b78ae5"),
    ("spin-eig", "5", "2*e5 - 3*e2 - 3/6*e4"):
        (0, "c783f6f297653f0fe52532ccd069ade1992db25ca57752c9be5931b866f722f9"),
    ("spin-eig", "6", "e1^e3^e4^e6 - 1/4*e2^e4^e5^e6"):
        (0, "3c4c726a66001650fbe21a2c6ed8610ed4dfe046628110e50668de891349dac0"),
    ("spin-eig", "7", "3/2*e4^e5 + 3/3*e1^e5"):
        (0, "6143fe7771917fc092d04542dcb5ffd5ddf02a4ea3ba995e7e9b6de2a2f6ff47"),
    ("spin-eig", "8",
     "7*e1^e4^e6^e7 + 2*e1^e2^e4^e7 + 3/3*e3^e5^e6^e7 + e1^e3^e4^e8 - 1/6*e2^e3^e6^e8"):
        (0, "f68ae655394551dd83aa182ab8b47ae2a27e298eed138469ebf592934fc29c85"),
    ("spin-eig", "2", "5*e2^e1"):
        (0, "c8604824d23de3b1d6e5e4eb0562113c34b3687b8646733af79ecb08f80770f0"),
    ("spin-eig", "3", "3*e1^e3 - 5*e1^e2 + 3/6*e2^e3"):
        (0, "a0d35d1c6ae2660ff85a33b258c29e4da0291e599153129c768803bfb88278e2"),
    ("spin-eig", "4", "3/3*e2^e3^e4"):
        (0, "8103a0a90d709fa1fc957b49b72aeb7ea38927c1b2ea954f080689a23d18ae89"),
    ("spin-eig", "5",
     "e1^e2^e3^e4 + 3*e1^e2^e4^e5 - 5/2*e3^e1^e4^e5 + 3/2*e2^e3^e4^e5 + 2*e1^e2^e3^e5"):
        (0, "76969c89a234048fe3b7a5419b31e00247f44b26389d132d88ed733e27e9484d"),
    ("spin-eig", "6", "5*e4^e5"):
        (0, "f902e516f71da9e361a0ab939f2db5106f20b7d4fc87661522dd1d3397a67dd2"),
    ("spin-eig", "7", "3*e3^e7 - 3/5*e2^e7"):
        (0, "cf2f24a11f16ee4c72202a1668e690b7365dbe1d554ab3320eac7bcab6ccf707"),
    ("spin-eig", "8", "2/4*e4 - 7*e8 + 1/5*e6"):
        (0, "f23a15e839378076c923626fcc0f34a4aa1f0276e6beb80cb6a864409df14db3"),
    ("spin-eig", "2", "3/4*e2 - 5/4*e1"):
        (0, "5edde1143daf78610f851c76b6ab948b2838c1cfe053e997eae0c8a1c18e2e8c"),
    ("spin-eig", "3", "3*e1^e2^e3"):
        (0, "4d3270c3950a37a2d66ca6525ff4a0fa873e94dd85b86e824ac85329376d0588"),
    ("spin-eig", "4", "4/3"):
        (0, "45a952dfa653f5ebbd0b18d573a53bc18910e56076f9733b09ac0a49d5338be4"),
    ("spin-eig", "5", "3*e1^e2^e3^e5"):
        (0, "b30b2b259fcac74512e11c703f666299a2a12d2480c2d6c1d49252032be54116"),
    ("spin-eig", "6", "2*e2^e1 - 4/3*e1^e3 + e4^e6"):
        (0, "5b01862c87bfcaa5aaf2af38639af85bbe0abfa5b1899c217af323b5c03b7543"),
    ("spin-eig", "7", "2"):
        (0, "73f206ec0002fba94f3ce1f5a547f0bb6683f8c97c2ea417cc21c362a393c16f"),
    ("spin-eig", "8", "3*e4^e5^e8 + 3*e4^e2^e8 - e2^e1^e8 + e1^e6^e8 + e1^e2^e4"):
        (0, "8d6e517169e2cd09e0450d5e8a1b96b2efcf50b064c0afa8f3333349329f0722"),
    ("spin-eig", "2", "e2 - 7*e1"):
        (0, "8e84c85d119549ed9773481351091c4c3a866a64e3578112df53ad0cb7d6721b"),
    ("spin-eig", "3", "1/5"):
        (0, "96dfbe23e04b85709369c730834658d03b8474f0db16d1272d53c55ab15adb6d"),
    ("spin-eig", "4", "3*e3 + 5/5*e2"):
        (0, "ff72bc34ce6381b9839e7fd3ea0f06cb66593d2afbf88ff62102a13e3081298c"),
    ("spin-eig", "5", "3/2"):
        (0, "157e16761a990361350aa0017cbfdb51f1a9380eccfbb5a2f4ea6337da12ff5e"),
    ("spin-eig", "6", "1/5*e1^e2^e3^e5 + e1^e4^e5^e6"):
        (0, "e12506e23e4e9d3c2f9b35cd06a1ca75a3cbddc139d3b23a8e2d375bceb61b4d"),
    ("spin-eig", "7", "e5^e2 + 2*e1^e3"):
        (0, "bc049e7b33dc4f956eb5b21716269f4bda08ba53f072fddd2930b3051cc79725"),
    ("spin-eig", "8", "1/4*e8"):
        (0, "776ee5099d3e5cb3e1c815ebc35d0d5f6c5c7b0a7687fb5b2d90c7b054cda314"),
    ("spin-eig", "2", "2/6*e1^e2"):
        (0, "805e00fbb4d73617a2b755d4003f8352b51e24400f0753eee31c49d8ebcb2f4c"),
    ("spin-eig", "3", "2*e1^e3 + 3*e1^e2 - e2^e3"):
        (0, "f7a0c9e388e68e37fc48e47bbcad0a11186c0f15d400b650d85ab77716795411"),
    ("spin-eig", "4", "2"):
        (0, "5dec80caed2d55624bf25624ce1fc5243b0db6945bcb67f126acb1d35c753703"),
    ("spin-eig", "5", "5*e1^e3^e4^e5 + 7*e1^e2^e3^e5"):
        (0, "318dc3ba13ee9d6a21cd5053884e2a4f16599aeec2acf75a4dc2037c246148d3"),
    ("spin-eig", "6", "7*e1^e2^e4"):
        (0, "fb8cf68b71ba84a6d828eaa15600f099829a83c27b211ffa2d04c22da8b5e997"),
    ("spin-eig", "7", "1/4*e7"):
        (0, "06f732d8d2044f6ae672d746f2ccbe2ed1ad2bc295821755791b142a981f760a"),
    ("spin-eig", "8",
     "5/2*e2^e5^e6^e7 + 4/6*e1^e3^e6^e8 + 2/3*e4^e6^e7^e8 - 1/6*e1^e2^e4^e8 + 2/3*e4^e5^e6^e8"):
        (0, "a4e3e372fd8cbb6c4c87acdff48a83151b394580720c6bcf7031f556d0ef2ca2"),
    ("spin-eig", "2", "3/5*e1^e2"):
        (0, "758323a53b2e40863780b8f0e3e12a4d2820c0c3ed900455d2939d0ea936bc95"),
    ("spin-eig", "3", "2/3"):
        (0, "02a142c24a77efd335234d23b6b3def31231b95228553229b2a4500c8158ac77"),
    ("spin-eig", "4", "1/4"):
        (0, "8780a5373dd70327acde4bc67e9b039e74513dc8940d9fd4cba5c22c335a05fb"),
    ("spin-eig", "5", "4/2"):
        (0, "5dec80caed2d55624bf25624ce1fc5243b0db6945bcb67f126acb1d35c753703"),
    ("spin-eig", "6", "e3^e4^e6 - 7*e1^e5^e6 - 1/2*e1^e4^e6 + 4/6*e3^e1^e6 + 5/3*e2^e3^e5"):
        (0, "48a42ea2cd39d3491dd3d1221a8814fcbf1fe56e5c6d890882b5a83b0591582a"),
    ("spin-eig", "7", "1/2*e3^e6^e7 - 2*e4^e6^e7 - 7*e2^e6^e7 + 5/6*e3^e5^e7"):
        (0, "00692eaf2dc54e8b6d6cb03c0486aaa4d94e887554e600b7d6ff16f6cd939909"),
    ("spin-eig", "8", "3"):
        (0, "2e52e093d0071514960354fb39195fce08877fb2d4339b4ee6a985878ef72563"),
    ("spin-eig", "2", "e2"):
        (0, "c67c0a77b7b76b25af28d9484b871ed9b9ffd7ccd1bc10e228e6e7b43daaceba"),
    ("spin-eig", "3", "e1^e2"):
        (0, "c67c0a77b7b76b25af28d9484b871ed9b9ffd7ccd1bc10e228e6e7b43daaceba"),
}


def test_form_outputs_are_pinned(capsys):
    for command, pinned in _FORM_OUTPUTS.items():
        code = main(list(command))
        out = capsys.readouterr()
        digest = hashlib.sha256((out.out + out.err).encode()).hexdigest()
        assert (code, digest) == pinned, command


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
