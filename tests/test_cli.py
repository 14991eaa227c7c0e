"""The pfc command line and the PFC interchange format."""

import hashlib
import io
import json
import math
import os
from pathlib import Path

import pytest

from pfcomplex import PfcError, build_complex, euler_characteristic, flat_torus3
from pfcomplex.cli import run_command
from pfcomplex.metric import MetricComplex
from pfcomplex.pfcio import PfcSyntaxError, parse, serialize

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def run(argv):
    out = io.StringIO()
    code = run_command(argv, out)
    return code, out.getvalue()


# --- serialization -----------------------------------------------------------

def test_serialize_solid_triangle_is_seven_lines():
    c = build_complex([(0, 1, 2)])
    mc = MetricComplex(c, {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0})
    text = serialize(mc)
    assert len(text.splitlines()) == 7
    assert text.splitlines()[0] == "pfc 1"
    assert "s 0 1 2" in text


def test_serialize_empty_complex():
    text = serialize(MetricComplex(build_complex([]), {}))
    assert text.splitlines() == ["pfc 1", "dim 0", "vertices 0"]


def test_round_trip_torus3_byte_identical():
    text = serialize(flat_torus3(3))
    assert serialize(parse(text)) == text


@pytest.mark.parametrize("name", ["a#b", "a  b", "x\ns 5 6", " a", "a\tb"])
def test_serialize_rejects_names_parse_cannot_carry(name):
    mc = MetricComplex(build_complex([(0, 1)], name=name), {(0, 1): 1.0})
    with pytest.raises(PfcError, match=r"cannot be written"):
        serialize(mc)


def test_parse_applies_face_closure():
    mc = parse("pfc 1\ndim 2\nvertices 3\ns 0 1 2\n")
    assert len(mc.complex) == 7


def test_parse_partial_metric_rejected():
    doc = "pfc 1\ndim 1\nvertices 3\ns 0 1\ns 1 2\nl 0 1 1.0\n"
    with pytest.raises(PfcError, match=r"partial metric: 1 edges lack "
                                       r"lengths, first \(1, 2\)"):
        parse(doc)


def test_parse_unknown_directive_reports_line():
    with pytest.raises(PfcSyntaxError) as err:
        parse("pfc 1\ndim 1\nwibble 3\n")
    assert err.value.line == 3


def test_parse_rejects_bad_header():
    with pytest.raises(PfcSyntaxError):
        parse("pfc 99\ndim 1\n")


def test_parse_validates_realizability():
    from pfcomplex.metric import MetricError

    doc = ("pfc 1\ndim 2\nvertices 3\ns 0 1 2\n"
           "l 0 1 1.0\nl 0 2 1.0\nl 1 2 5.0\n")
    with pytest.raises(MetricError):
        parse(doc)
    assert parse(doc, validate=False).length(1, 2) == 5.0


@pytest.mark.parametrize("lines, bad_line", [
    (["l 0 1 nan"], 5),
    (["l 0 1 inf"], 5),
    (["l 0 1 1.0", "l 1 2 1.0"], 6),
    (["l 0 1 1.0", "l 0 1 2.0"], 6),
], ids=["nan", "inf", "edge-outside-complex", "duplicate"])
def test_parse_rejects_bad_length_records(lines, bad_line):
    doc = "pfc 1\ndim 1\nvertices 3\ns 0 1\n" + "\n".join(lines) + "\n"
    with pytest.raises(PfcSyntaxError) as err:
        parse(doc)
    assert err.value.line == bad_line


@pytest.mark.parametrize("record", ["s -1 0", "s 0 0",
                                    "s 0 99999999999999999999"],
                         ids=["negative", "repeated", "huge"])
def test_parse_rejects_bad_simplex_records(record):
    doc = "pfc 1\ndim 1\nvertices 3\ns 1 2\n" + record + "\n"
    with pytest.raises(PfcSyntaxError) as err:
        parse(doc)
    assert err.value.line == 5


def test_fixture_example1_euler():
    mc = parse(Path(fixture("example1.pfc")).read_text(encoding="utf-8"))
    assert euler_characteristic(mc.complex) == -5


# --- commands ----------------------------------------------------------------

def test_build_torus3_to_stdout():
    code, out = run(["build", "torus3", "3"])
    assert code == 0
    assert out.splitlines()[0] == "pfc 1"


def test_build_deterministic(tmp_path):
    f1, f2 = tmp_path / "a.pfc", tmp_path / "b.pfc"
    assert run(["build", "house", "-o", str(f1)])[0] == 0
    assert run(["build", "house", "-o", str(f2)])[0] == 0
    assert f1.read_text() == f2.read_text()


def test_check_link_cat0_fails_on_interface_fixture():
    code, out = run(["check", "link-cat0", fixture("example1_interfaces.pfc")])
    assert code == 1
    assert "fail" in out
    assert f"{math.pi:.11f}"[:8] in out  # the witness cycle length pi


def test_check_free_faces_house_passes():
    code, out = run(["check", "free-faces", fixture("house.pfc")])
    assert code == 0
    assert "pass" in out


def test_check_gauss_bonnet_requires_surface():
    code, _ = run(["check", "gauss-bonnet", fixture("house.pfc")])
    assert code == 2


def test_check_link_cat0_3dim_is_necessary_only(tmp_path):
    code, out = run(["check", "link-cat0", fixture("torus3.pfc")])
    assert code == 3  # necessary conditions hold; full certification is open
    assert "inconclusive" in out


def test_homology_torus_fixture():
    code, out = run(["homology", fixture("torus3.pfc"), "--ring", "z"])
    assert code == 0
    assert out.strip().splitlines()[0] == "b: 1 3 3 1"


def test_homology_json_fields():
    code, out = run(["homology", fixture("house.pfc"), "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ranks"] == [1, 0, 0]
    assert payload["ring"] == "z"
    assert payload["reduced"] is False


def test_homology_local():
    code, out = run(["homology", fixture("torus3.pfc"), "--local", "0"])
    assert code == 0
    assert out.strip() == "reduced b: 0 0 1"


def test_lemma13_command(tmp_path):
    jpath = tmp_path / "j.pfc"
    bpath = tmp_path / "b.pfc"
    tet = MetricComplex(build_complex([(0, 1, 2, 3)]),
                        {tuple(e): 1.0 for e in
                         build_complex([(0, 1, 2, 3)]).k_simplices(1)})
    boundary = tet.restrict([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    jpath.write_text(serialize(tet))
    bpath.write_text(serialize(boundary))
    code, out = run(["lemma13", str(jpath), "--b", str(bpath)])
    assert code == 0
    assert "pass" in out

    faces_at_v = tet.restrict([(0, 1, 2), (0, 1, 3), (0, 2, 3)])
    bpath.write_text(serialize(faces_at_v))
    code, out = run(["lemma13", str(jpath), "--b", str(bpath)])
    assert code == 1
    assert "contradiction" in out


def test_report_example1_deterministic():
    code1, out1 = run(["report", "example1"])
    code2, out2 = run(["report", "example1"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert "obstruction reproduced: yes" in out1


def test_report_example1_json():
    code, out = run(["report", "example1", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "497e4ca4c281c07caed07132d9ef0a8b92daeaf13ade8b57e3c9f8a4247519e0"
    assert payload["obstruction_reproduced"] is True
    assert payload["intrinsic_link_verdict"] == "fail"
    assert payload["override_link_verdict"] == "pass"
    assert payload["intrinsic_shortest_link_cycle"] == pytest.approx(math.pi)


def test_report_example2():
    code, out = run(["report", "example2", "--json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "e5062d84e28503faf4076f38b8d1787cc5e9bc48dd6fb4aff8e9992b684bdf0a"
    payload = json.loads(out)
    assert payload["obstruction_reproduced"] is True
    assert payload["house_free_faces"] == 0
    assert payload["house_betti_z"] == [1, 0, 0]
    assert payload["solid_chain_verdict"] == "contradiction"
    assert payload["glued_b3_z"] == payload["expected_b3"] == \
        2 * payload["house_triangles"]


@pytest.fixture(scope="module")
def pfc_files(tmp_path_factory):
    built = tmp_path_factory.mktemp("built") / "freegroup20.pfc"
    assert run(["build", "freegroup", "20", "-o", str(built)])[0] == 0
    return {"example1": fixture("example1.pfc"), "freegroup20": str(built)}


@pytest.mark.parametrize("check, target, code, digest", [
    ("link-cat0", "example1", 3,
     "9d6cc45f6edb281a259075b447843041e8e3c8674910f406bc68c3d1a258d835"),
    ("extendability", "freegroup20", 0,
     "69882cfabc4c6be63eaddf30ba2e323d7d0c1d7f6c9a2a5e7d0c508cbaf46da6"),
    ("link-cat0", "freegroup20", 0,
     "98d387f5fa5117ac05915a278daa710537816956eff4cd9d9883ccac44627459"),
], ids=["link-cat0-example1", "extendability-freegroup20",
        "link-cat0-freegroup20"])
def test_check_json_bytes_are_pinned(check, target, code, digest, pfc_files):
    """Link-condition and extendability reports keep their exact bytes: the
    sha256 of `--json` stdout as captured before links were memoised."""
    got, out = run(["check", check, pfc_files[target], "--json"])
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("target, digest", [
    ("example1",
     "c59f83e3dd510989f4b9eeaafe21d8a0dc1ba318d6aadaf2ba7234a46035b24c"),
    ("house",
     "89b5ad1cc04509b79cc51a1500fd72d3685cb9df0f88b3825fb4ad18219a10e3"),
    ("torus3",
     "1202eec67f41bf0ee27988acd486495042a3c8536a5d6f0ad46e65c86dff02e8"),
    ("torus3 4",
     "48c237d7610b6e6526140b9ecc76d34f11f379f2caab3d450687ed7554acb2ed"),
    ("freegroup 2",
     "6e372172cdeb9aa526f5e09f671509e69523eb0095ace4167329538d14a5e6f4"),
    ("freegroup 3",
     "2bd6adac1681aea11dcc76a1fea1ed951c5ba8e6f9401e7b7ae15cc5430d99e7"),
    ("freegroup 16",
     "26a54e89133e19a6d0e27881765915abff2b8b914534de4ac1b61fe3a3da3db2"),
    ("genus 2",
     "b42d9867b951b2c9099f8aa0530407fd36c8950117944b4b577f42b5b5ce805c"),
    ("genus 6",
     "780c41d1c4043841a7ea3d4b51046ed63e3b02a7491f96dec490fa49d2cfdcc2"),
    ("gcify example1.pfc",
     "849fe9244a794c807f3e62c5ca59e5d68f7e75b50e64f280c12133c2e2b33c1d"),
])
def test_build_bytes_are_pinned(target, digest):
    """Every built complex keeps its exact bytes: the sha256 of `pfc build`
    stdout as captured before the builders shared one Freudenthal grid (and,
    for gcify, before a complex became one row array per dimension)."""
    argv = [fixture(w) if w.endswith(".pfc") else w for w in target.split()]
    code, out = run(["build", *argv])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_all_fixtures_round_trip():
    for name in ("example1.pfc", "example1_interfaces.pfc",
                 "house.pfc", "torus3.pfc"):
        text = Path(fixture(name)).read_text(encoding="utf-8")
        assert serialize(parse(text)) == text


def test_usage_errors_exit_2():
    assert run(["build"])[0] == 2
    assert run(["check", "nonsense", "x"])[0] == 2
    assert run(["homology", "/nonexistent/file.pfc"])[0] == 2
    assert run(["build", "freegroup"])[0] == 2


@pytest.mark.parametrize("argv, doc", [
    # no l records: the link checks need lengths the file does not give
    (["check", "link-cat0", "{}"], "pfc 1\ndim 2\nvertices 3\ns 0 1 2\n"),
    (["check", "extendability", "{}"],
     "pfc 1\ndim 2\nvertices 3\ns 0 1 2\n"),
    (["check", "free-faces", "{}"], "pfc 1\ndim 1\nvertices 2\ns -1 0\n"),
    (["homology", fixture("house.pfc"), "--local", "999"], None),
    # no vertices record, so only the id range check stands in the way
    (["homology", "{}"], "pfc 1\ndim 1\ns 0 99999999999999999999\n"),
    (["homology", "{}"], b"\xff\xfe"),
    (["build", "freegroup", "x"], None),
    (["build", "torus3", "x"], None),
    # every face passes on its own, the tetrahedron does not
    (["check", "link-cat0", "{}"],
     "pfc 1\ndim 3\nvertices 4\ns 0 1 2 3\nl 0 1 1.0\nl 0 2 0.500001\n"
     "l 0 3 8.021221852\nl 1 2 0.500001\nl 1 3 8.046117076\n"
     "l 2 3 8.018042217\n"),
], ids=["link-cat0-no-lengths", "extendability-no-lengths",
        "negative-vertex", "local-missing-vertex", "huge-vertex", "not-utf8",
        "freegroup-non-integer", "torus3-non-integer",
        "thin-face-tetrahedron"])
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, argv, doc):
    if doc is not None:
        path = tmp_path / "in.pfc"
        path.write_bytes(doc if isinstance(doc, bytes) else doc.encode())
        argv = [str(path) if a == "{}" else a for a in argv]
    code, out = run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert out == ""
    # a bad build argument is a usage error, bad file content an input error
    prefix = "usage error: " if argv[0] == "build" else "error: "
    assert err.startswith(prefix) and err.count("\n") == 1


def test_gcify_placement_failure_exits_2_with_one_line(monkeypatch, capsys):
    from pfcomplex import builders

    def exhausted(mc):
        raise PfcError("no admissible pair left")

    monkeypatch.setattr(builders, "gcify", exhausted)
    code, out = run(["build", "gcify", fixture("house.pfc")])
    err = capsys.readouterr().err
    assert code == 2
    assert out == ""
    assert err == "error: no admissible pair left\n"


def test_library_bug_exits_4_with_traceback(monkeypatch, capsys):
    from pfcomplex import cli

    def broken(mc):
        raise RuntimeError("internal fault")

    monkeypatch.setitem(cli._CHECKS, "free-faces", broken)
    monkeypatch.setattr("sys.argv", ["pfc", "check", "free-faces",
                                     fixture("house.pfc")])
    with pytest.raises(SystemExit) as exit_info:
        cli.main()
    err = capsys.readouterr().err
    assert exit_info.value.code == 4
    assert err.startswith("Traceback") and "RuntimeError: internal fault" in err
