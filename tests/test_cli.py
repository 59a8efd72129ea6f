import json

import braidhom as bh
from braidhom.cli import main

from conftest import s3_with_order_elements


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--braiding", "minmax:3")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and {c["check"] for c in payload["checks"]} == {"ybe", "idempotent"}


def test_verify_idempotency_failure(capsys):
    code, out, _ = run(capsys, "verify", "--braiding", "flip:2", "--idempotent")
    assert code == 1
    payload = json.loads(out)
    assert not payload["ok"]
    assert payload["checks"][0]["witness"] == [0, 1]


def test_verify_size2_and_semigroup(capsys):
    code, out, _ = run(capsys, "verify", "--braiding", "size2:maxmax", "--ybe", "--idempotent")
    assert code == 0
    code, out, _ = run(capsys, "verify", "--braiding", "minmax:2", "--semigroup", "--maxlen", "3")
    assert code == 0


def test_verify_bad_input(capsys):
    code, _, err = run(capsys, "verify", "--braiding", "nonsense:3")
    assert code == 2 and "unknown braiding spec" in err
    code, _, err = run(capsys, "verify", "--braiding", "/no/such/file.json")
    assert code == 2


def test_classify(capsys, tmp_path):
    code, out, _ = run(capsys, "classify", "--size", "1")
    assert code == 0 and json.loads(out)["class_count"] == 1
    target = tmp_path / "classes.json"
    code, _, _ = run(capsys, "classify", "--size", "2", "--out", str(target))
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["class_count"] == 16
    # every representative re-verifies through the pipeline
    for entry in payload["classes"]:
        rep_file = tmp_path / "rep.json"
        rep_file.write_text(json.dumps(entry["representative"]))
        code, out, _ = run(capsys, "verify", "--braiding", str(rep_file))
        assert code == 0 and json.loads(out)["ok"]


def test_homology_critical(capsys):
    code, out, _ = run(
        capsys, "homology", "--braiding", "identity:1", "--critical", "--coeff", "trivial:1", "--maxdeg", "5"
    )
    assert code == 0
    groups = [d["group"] for d in json.loads(out)["homology"]]
    assert groups == ["Z", "Z", "0", "0", "0", "0"]


def test_homology_minmax_betti(capsys):
    code, out, _ = run(capsys, "homology", "--braiding", "minmax:3", "--critical", "--maxdeg", "4")
    assert code == 0
    betti = [d["betti"] for d in json.loads(out)["homology"]]
    assert betti == [1, 3, 3, 1, 0]


def test_homology_full_variant(capsys):
    code, out, _ = run(capsys, "homology", "--braiding", "minmax:2", "--full", "--maxdeg", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["ranks"] == [1, 2, 4, 8]
    # degree zero of the full complex has the same homology as the critical one
    assert payload["homology"][0]["group"] == "Z"
    # the top degree is homology, not the cycle group ker d_3 = Z^6
    assert payload["homology"][3]["group"] == "Z^2"


def test_homology_bar(capsys, tmp_path):
    c2 = tmp_path / "c2.json"
    c2.write_text(json.dumps(bh.cyclic_group(2).to_json()))
    code, out, _ = run(capsys, "homology", "--monoid", str(c2), "--bar", "--maxdeg", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["homology"][1]["torsion"] == [2]


def test_homology_double(capsys, tmp_path):
    g, c, t = s3_with_order_elements()
    spec = {"monoid": g.to_json(), "H": [g.unit, c, g.mul(c, c)], "K": [g.unit, t]}
    f = tmp_path / "s3.json"
    f.write_text(json.dumps(spec))
    code, out, _ = run(
        capsys, "homology", "--braiding", f"factorization:{f}", "--double", "--maxdeg", "3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["homology"][1]["torsion"] == [2]


def test_compare_exit_codes(capsys, tmp_path):
    g, c, t = s3_with_order_elements()
    spec = {"monoid": g.to_json(), "H": [g.unit, c, g.mul(c, c)], "K": [g.unit, t]}
    f = tmp_path / "s3.json"
    f.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "compare", "--braiding", f"factorization:{f}", "--maxdeg", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["degrees"][1]["bar"]["torsion"] == [2]
    # infinite structure monoid: resource-bound exit
    code, _, err = run(capsys, "compare", "--braiding", "identity:2", "--maxdeg", "3", "--bound", "40")
    assert code == 3 and "critical homology" in err


def test_products_roundtrip(capsys, tmp_path):
    f_file = tmp_path / "f.json"
    g_file = tmp_path / "g.json"
    f = bh.Cochain(1, bh.CoeffRing(), {(0,): 1, (1,): 2})
    g = bh.Cochain(1, bh.CoeffRing(), {(0,): -1, (1,): 1})
    f_file.write_text(json.dumps(f.to_json()))
    g_file.write_text(json.dumps(g.to_json()))
    code, out, _ = run(
        capsys, "products", "--op", "cup", "--braiding", "minmax:2",
        "--cochain", str(f_file), "--cochain2", str(g_file),
    )
    assert code == 0
    table = bh.Cochain.from_json(json.loads(out))
    assert table == bh.cup_product(bh.minmax_braiding(2), f, g)
    code, out, _ = run(
        capsys, "products", "--op", "homotopy", "--braiding", "minmax:2",
        "--cochain", str(f_file), "--cochain2", str(g_file),
    )
    assert code == 0 and json.loads(out)["holds"]
    code, out, _ = run(
        capsys, "products", "--op", "circle", "--braiding", "minmax:2",
        "--cochain", str(f_file), "--cochain2", str(g_file),
    )
    assert code == 0
    code, out, _ = run(
        capsys, "products", "--op", "cupsplit", "--braiding", "minmax:2",
        "--cochain", str(f_file), "--cochain2", str(g_file),
    )
    payload = json.loads(out)
    assert set(payload) == {"left", "right"}


def test_products_qs(capsys):
    code, out, _ = run(capsys, "products", "--op", "qs", "--braiding", "minmax:2", "--word", "1,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == {"1,0": 1, "0,1": -1}


def test_export_braiding_and_complex(capsys, tmp_path):
    code, out, _ = run(capsys, "export", "--braiding", "size2:maxmax")
    assert code == 0
    assert bh.BraidedSet.from_json(json.loads(out)) == bh.size2_family("maxmax")
    code, out, _ = run(capsys, "export", "--braiding", "minmax:2", "--what", "critical", "--maxdeg", "3")
    assert code == 0
    assert json.loads(out)["ranks"] == [1, 2, 1, 0]


def test_deterministic_output_files(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        code, _, _ = run(capsys, "classify", "--size", "2", "--out", str(target))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_text_format(capsys):
    code, out, _ = run(capsys, "verify", "--braiding", "minmax:2", "--format", "text")
    assert code == 0
    assert "ok: True" in out


def test_classify_bound(capsys):
    code, _, err = run(capsys, "classify", "--size", "5")
    assert code == 3 and "enumeration bound" in err


def test_maxdeg_guard(capsys):
    code, _, err = run(capsys, "homology", "--braiding", "minmax:2", "--critical", "--maxdeg", "9")
    assert code == 2 and "maxdeg" in err
    code, _, err = run(capsys, "compare", "--braiding", "minmax:2", "--maxdeg", "12")
    assert code == 2


def test_pseudo_unit_flag_requires_one(capsys):
    code, _, err = run(capsys, "verify", "--braiding", "minmax:2", "--pseudo-unit")
    assert code == 2 and "no pseudo-unit" in err


def test_bad_cochain_degree_key(capsys, tmp_path):
    f_file = tmp_path / "f.json"
    f_file.write_text(json.dumps({"degree": 2, "ring": "Z", "values": {"0": 1}}))
    code, _, err = run(
        capsys, "products", "--op", "cup", "--braiding", "minmax:2",
        "--cochain", str(f_file), "--cochain2", str(f_file),
    )
    assert code == 2 and "length" in err
