"""The command line's refusals and failure witnesses, each driven through
``main(..., "--machine")``: its exit code, its ``error_kind`` (for an
error) and the witness lines of its report."""

import json
from dataclasses import replace
from pathlib import Path

from gpdkit import cli
from gpdkit.cli import main
from gpdkit.core import interval_groupoid, trivial_group
from gpdkit.dblgpd import CUBE_EDGES, CubeReport
from gpdkit.documents import Document
from gpdkit.presentations import presentation, pushout, verify_pushout_universal, word
from gpdkit.xmod import crossed_module

DATA = Path(__file__).parent / "data"
# ``squares-c2.sq`` up to its squares: the kind and the crossed module
SQUARES_HEAD = (DATA / "squares-c2.sq").read_text(encoding="utf-8").split("squares:\n")[0]


def _p(name):
    return str(DATA / name)


def _run(capsys, argv, code):
    """Run ``argv`` with ``--machine``; return its report."""
    assert main([*argv, "--machine"]) == code
    report = json.loads(capsys.readouterr().out)
    assert report["exit_code"] == code
    return report


def _input_error(capsys, argv, message, witness=None):
    report = _run(capsys, argv, 2)
    assert report["verdict"] == "error"
    assert report["data"] == {"error_kind": "validation-error"}
    want = [message] if witness is None else [message, f"witness: {witness!r}"]
    assert report["witnesses"] == want


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_pushout_refuses_a_shared_part_with_a_vertex_the_piece_lacks(tmp_path, capsys):
    w = _write(tmp_path, "w.pres", "kind: presentation\nvertices: 0 9\nedges:\n")
    u = _p("wedge-u.pres")
    _input_error(
        capsys, ["pushout", u, _p("wedge-v.pres"), w], f"{u} is missing shared vertices", ("9",)
    )


def test_pushout_refuses_a_shared_part_with_an_edge_the_piece_lacks(tmp_path, capsys):
    w = _write(tmp_path, "w.pres", "kind: presentation\nvertices: 0\nedges:\n  z: 0 0\n")
    u = _p("wedge-u.pres")
    _input_error(
        capsys, ["pushout", u, _p("wedge-v.pres"), w], f"{u} is missing the shared edge 'z'", "z"
    )


def test_a_pushout_target_that_fails_names_its_witness(monkeypatch, capsys):
    """A lawful span always has its pushout, so the apex is broken by hand:
    identifying the wedge's two loops leaves most compatible pairs without
    a mediator, and the report names the first."""
    broken = {}

    def identified(f, g):
        square = pushout(f, g)
        q = square.apex.quiver
        x, y = q.edges
        broken["square"] = replace(
            square, apex=presentation(q, [(word(q, [(x, 1)]), word(q, [(y, 1)]))])
        )
        return broken["square"]

    monkeypatch.setattr(cli, "pushout", identified)
    argv = ["pushout", _p("wedge-u.pres"), _p("wedge-v.pres"), _p("wedge-w.pres")]
    report = _run(capsys, [*argv, "--targets", "c2"], 1)
    (t,) = verify_pushout_universal(broken["square"], {"c2": cli.battery()["c2"]}).per_target
    assert not t.ok and t.witness[2] == 0
    assert report["verdict"] == "fail"
    assert report["witnesses"] == [f"c2: {t.witness!r}"]
    assert report["data"]["per_target"]["c2"]["ok"] is False


def test_a_pair_without_an_equals_sign_is_refused(capsys):
    _input_error(
        capsys,
        ["xmod", "free", _p("c2.grp"), "--gens", "r", "--boundary", "r"],
        "expected comma separated key=value pairs",
        "r",
    )


def test_induction_refuses_a_crossed_module_with_several_objects(monkeypatch, capsys):
    """No document spells a crossed module over several objects, so the
    loader hands one over for the file named."""
    p = interval_groupoid()
    one = trivial_group()
    (e,) = one.elements
    several = crossed_module(
        p,
        {x: one for x in p.objects},
        {x: {e: p.id_of[x]} for x in p.objects},
        {(e, a): e for a in p.arrows},
    )
    real = cli.load_document

    def load(path):
        doc = real(path)
        return Document("xmod", several, doc.source) if doc.kind == "xmod" else doc

    monkeypatch.setattr(cli, "load_document", load)
    argv = ["xmod", "induced", _p("c4c2.xm"), "--to", _p("c2.grp"), "--map", "0=0,1=1"]
    _input_error(capsys, argv, "a one-object crossed module is required", (0, 1))


def test_free_refuses_a_boundary_that_is_not_on_the_generators(capsys):
    _input_error(
        capsys,
        ["xmod", "free", _p("c2.grp"), "--gens", "r,s", "--boundary", "s=1,t=0"],
        "boundary must cover exactly the generators",
        ("r", "t"),
    )


def test_compose_refuses_a_document_without_squares(tmp_path, capsys):
    path = _write(tmp_path, "none.sq", SQUARES_HEAD + "squares:\n")
    _input_error(capsys, ["dgpd", "compose", path, "--dir", "h"], "document lists no squares")


def test_array_refuses_a_document_without_an_array_block(tmp_path, capsys):
    path = _write(tmp_path, "flat.sq", SQUARES_HEAD + "squares:\n  z: 0 0 0 0 0\n")
    _input_error(capsys, ["dgpd", "array", path], "document has no array block")


def test_a_cube_whose_fold_misses_the_top_names_the_composite(monkeypatch, capsys):
    """Five commuting faces force the sixth over a lawful group, so the
    report is handed over: every face commutes, the fold does not."""
    composite, top = ("1", "0", "0", "1"), ("0", "4", "0", "1")

    def folded_apart(group, c):
        return CubeReport(ok=False, failing_faces=(), composite=composite, top_face=top)

    monkeypatch.setattr(cli, "commutative_cube_check", folded_apart)
    report = _run(capsys, ["cube", "check", _p("cube-z5.cube")], 1)
    assert report["verdict"] == "fail"
    assert report["witnesses"] == [f"folded composite {composite!r} != top face {top!r}"]


def test_compose_refuses_cubes_over_different_groups(tmp_path, capsys):
    group = "group:\n  elements: 0 1\n  unit: 0\n  table:\n    0: 0 1\n    1: 1 0\n"
    edges = "edges:\n" + "".join(f"  {name}: 0\n" for name in CUBE_EDGES)
    flat = _write(tmp_path, "c2.cube", "kind: cube\n" + group + edges)
    _input_error(
        capsys,
        ["cube", "compose", _p("cube-z5.cube"), flat, "--dir", "v"],
        "cubes live over different groups",
    )


def test_compose_names_each_cube_that_fails(capsys):
    argv = ["cube", "compose", _p("cube-z5-broken.cube"), _p("cube-z5-below.cube"), "--dir", "v"]
    report = _run(capsys, argv, 1)
    assert report["verdict"] == "fail"
    assert report["witnesses"] == [
        "first cube fails: faces ('back', 'left')",
        "glued cube fails: faces ('back', 'left')",
    ]
