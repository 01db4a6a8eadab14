"""End-to-end command line behavior on the document corpus in tests/data."""

import builtins
import hashlib
import json
import random
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

from gpdkit import cli, xmod
from gpdkit.cli import build_parser, main
from gpdkit.core import cyclic_group, finite_group
from gpdkit.documents import Document, load_document, render_document
from gpdkit.xmod import automorphism_group
from test_golden import COMMANDS, GOLDEN, ROOT, _name, _report

DATA = Path(__file__).parent / "data"


def _p(name):
    return str(DATA / name)


# Every corpus invocation with its contracted exit code: 0 pass, 1 verdict
# or hypothesis failure (including pasting mismatches), 2 input error.
CORPUS = [
    (("pi1", _p("circle.cx"), "--base", "0,1", "--vertex", "0"), 0),
    (("pi1", _p("disc.cx"), "--base", "0", "--vertex", "0"), 0),
    (("vkt", _p("circle.cov"), "--base", "0,1"), 0),
    (("vkt", _p("circle.cov"), "--base", "0"), 1),
    (("vkt", _p("wedge.cov"), "--base", "0"), 0),
    (
        ("pushout", _p("wedge-u.pres"), _p("wedge-v.pres"), _p("wedge-w.pres")),
        0,
    ),
    (("xmod", "check", _p("c4c2.xm")), 0),
    (("xmod", "check", _p("bad.xm")), 1),
    (("xmod", "aut", _p("s3.grp")), 0),
    (("xmod", "aut", _p("z7.grp")), 0),
    (("xmod", "normal", _p("s3.grp"), "--subgroup", "e,r,rr"), 0),
    (("xmod", "normal", _p("s3.grp"), "--subgroup", "e,a"), 1),
    (
        (
            "xmod", "free", _p("c2.grp"),
            "--gens", "r",
            "--boundary", "r=1",
            "--verify-against", _p("c4c2.xm"),
        ),
        0,
    ),
    (
        (
            "xmod", "induced", _p("c4c2.xm"),
            "--to", _p("c2.grp"),
            "--map", "0=0,1=1",
            "--verify-against", _p("c4c2.xm"),
        ),
        0,
    ),
    (("dgpd", "compose", _p("squares-c2.sq"), "--dir", "h"), 0),
    (("dgpd", "compose", _p("squares-c2.sq"), "--dir", "v"), 1),
    (("dgpd", "array", _p("squares-c2.sq")), 1),
    (("dgpd", "array", _p("array-c2.sq")), 0),
    (("dgpd", "roundtrip", _p("c2c2.xm")), 0),
    (("cube", "check", _p("cube-z5.cube")), 0),
    (("cube", "check", _p("cube-z5-broken.cube")), 1),
    (
        ("cube", "compose", _p("cube-z5.cube"), _p("cube-z5-below.cube"), "--dir", "v"),
        0,
    ),
    (("eh", "check", _p("eh-c2.eh")), 0),
    (("eh", "check", _p("eh-s3.eh")), 1),
    # No command takes a groupoid document, but loading one runs the
    # groupoid reader and validator before the kind is checked.
    (("xmod", "check", _p("interval.gpd")), 2),
]

_IDS = [" ".join(Path(a).name if "/" in a else a for a in argv) for argv, _ in CORPUS]


@pytest.mark.parametrize("argv,expected", CORPUS, ids=_IDS)
def test_corpus_exit_codes(argv, expected, capsys):
    assert main(list(argv)) == expected
    capsys.readouterr()


@pytest.mark.parametrize("argv,expected", CORPUS, ids=_IDS)
def test_machine_reports_are_deterministic(argv, expected, capsys):
    arglist = list(argv) + ["--machine"]
    code1 = main(arglist)
    first = capsys.readouterr().out
    code2 = main(arglist)
    second = capsys.readouterr().out
    assert code1 == code2 == expected
    assert first == second
    report = json.loads(first)
    assert report["exit_code"] == expected
    assert set(report) == {
        "command", "arguments", "inputs", "verdict", "exit_code",
        "counts", "witnesses", "data",
    }
    assert ("pass" if expected == 0 else report["verdict"] != "pass")


def test_pi1_reports_free_loop_counts(capsys):
    code = main(["pi1", _p("circle.cx"), "--base", "0,1", "--vertex", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[1, 3, 5, 7, 9, 11, 13]" in out
    assert "generators: 2" in out


def test_pi1_prints_a_repeated_base_point_once(capsys):
    assert main(["pi1", _p("circle.cx"), "--base", "0,0,1,0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["fundamental groupoid on base {0, 1}:", "  base points: 2"]
    report = json.loads(_report(["pi1", _p("circle.cx"), "--base", "0,0"]))
    assert report["counts"]["base_points"] == 1
    assert report["arguments"]["base"] == "0,0"


@pytest.mark.parametrize(
    "vertex, message",
    [("1", "vertex is not a base point"), ("zz", "no such vertex")],
)
def test_pi1_vertex_outside_the_base_is_named_apart_from_an_unknown_one(
    vertex, message, capsys
):
    argv = ["pi1", _p("circle.cx"), "--base", "0", "--vertex", vertex]
    report, err = _machine_error(capsys, argv, 2)
    assert report["data"] == {"error_kind": "validation-error"}
    assert report["witnesses"] == [message, f"witness: {vertex!r}"]
    assert err == [f"error: {message}"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_vkt_single_base_point_names_missed_component(capsys):
    code = main(["vkt", _p("circle.cov"), "--base", "0"])
    err = capsys.readouterr().err
    assert code == 1
    assert "W" in err
    assert "'1'" in err


def test_machine_report_hashes_inputs(capsys):
    main(["xmod", "check", _p("c4c2.xm"), "--machine"])
    report = json.loads(capsys.readouterr().out)
    digest = report["inputs"][_p("c4c2.xm")]
    assert len(digest) == 64
    assert report["counts"]["fibre_order"] == 4
    assert report["verdict"] == "pass"


def test_report_file_matches_machine_output(tmp_path, capsys):
    path = tmp_path / "report.json"
    main(["cube", "check", _p("cube-z5.cube"), "--machine", "--report", str(path)])
    out = capsys.readouterr().out
    assert path.read_text() == out


def test_missing_file_is_an_input_error(capsys):
    code = main(["xmod", "check", _p("no-such-file.xm")])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


def test_wrong_document_kind_is_an_input_error(capsys):
    code = main(["xmod", "check", _p("c2.grp")])
    err = capsys.readouterr().err
    assert code == 2
    assert "expected xmod" in err


def test_malformed_document_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.grp"
    bad.write_text("kind: group\nelements: 0 1\nunit: 2\ntable:\n  0: 0 1\n  1: 1 0\n")
    code = main(["xmod", "aut", str(bad)])
    capsys.readouterr()
    assert code == 2


def test_size_guard_exit_code(capsys):
    gens = ",".join(f"g{i}" for i in range(30))
    boundary = ",".join(f"g{i}=1" for i in range(30))
    code = main(
        [
            "xmod", "free", _p("c2.grp"),
            "--gens", gens,
            "--boundary", boundary,
            "--verify-against", _p("c4c2.xm"),
        ]
    )
    err = capsys.readouterr().err
    assert code == 3
    assert "error:" in err


def test_size_guard_report_carries_the_count_and_the_guard(capsys):
    gens = ",".join(f"g{i}" for i in range(30))
    boundary = ",".join(f"g{i}=1" for i in range(30))
    code = main(
        [
            "xmod", "free", _p("c2.grp"),
            "--gens", gens,
            "--boundary", boundary,
            "--verify-against", _p("c4c2.xm"),
            "--machine",
        ]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 3
    assert report["data"] == {
        "error_kind": "size-guard", "needed": 2**30, "allowed": 10**6,
    }
    assert report["witnesses"] == [f"{2**30} assignments exceed the guard"]


def test_missing_required_option_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["vkt", _p("circle.cov")])
    assert exc.value.code == 2


def test_eh_failure_prints_witness(capsys):
    code = main(["eh", "check", _p("eh-s3.eh")])
    out = capsys.readouterr().out
    assert code == 1
    assert "interchange" in out


def test_normality_failure_names_conjugation_witness(capsys):
    code = main(["xmod", "normal", _p("s3.grp"), "--subgroup", "e,a"])
    out = capsys.readouterr().out
    assert code == 1
    assert "conjugating" in out


def test_error_report_written_with_machine_flag(capsys):
    code = main(["dgpd", "array", _p("squares-c2.sq"), "--machine"])
    captured = capsys.readouterr()
    assert code == 1
    report = json.loads(captured.out)
    assert report["verdict"] == "fail"
    assert report["data"]["error_kind"] == "composition-mismatch"


@pytest.mark.parametrize("name", ["z7.grp", "s3.grp"])
def test_xmod_aut_reports_the_automorphism_group_order(name, capsys):
    assert main(["xmod", "aut", _p(name), "--machine"]) == 0
    counts = json.loads(capsys.readouterr().out)["counts"]
    g = load_document(_p(name)).payload
    assert counts == {"group_order": len(g), "aut_order": len(automorphism_group(g))}


def test_xmod_aut_handles_order_twelve(tmp_path, capsys):
    path = tmp_path / "c12.grp"
    path.write_text(render_document(Document(kind="group", payload=cyclic_group(12))))
    assert main(["xmod", "aut", str(path), "--machine"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["counts"] == {"group_order": 12, "aut_order": 4}


def test_xmod_aut_handles_the_elementary_abelian_group_of_order_eight(tmp_path, capsys):
    elements = tuple("".join(map(str, bits)) for bits in product(range(2), repeat=3))
    table = {
        (x, y): "".join(str((int(a) + int(b)) % 2) for a, b in zip(x, y))
        for x in elements
        for y in elements
    }
    c2_3 = finite_group(elements, table, unit="000", name="c2c2c2")
    path = tmp_path / "c2c2c2.grp"
    path.write_text(render_document(Document(kind="group", payload=c2_3)))
    assert main(["xmod", "aut", str(path), "--machine"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["counts"] == {"group_order": 8, "aut_order": 168}


def test_the_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


@pytest.mark.parametrize("seed", [1, 2])
def test_goldens_hold_for_every_command_run_twice_in_shuffled_order(seed, monkeypatch):
    monkeypatch.chdir(ROOT)
    order = COMMANDS * 2
    random.Random(seed).shuffle(order)
    for argv in order:
        want = (GOLDEN / f"{_name(argv)}.json").read_text(encoding="utf-8")
        assert _report(argv) == want, argv


@pytest.mark.parametrize(
    "first,second,option",
    [
        (
            ("pi1", _p("circle.cx"), "--base", "0,1", "--vertex", "0"),
            ("pi1", _p("circle.cx"), "--base", "0,1"),
            "vertex",
        ),
        (
            ("vkt", _p("circle.cov"), "--base", "0,1", "--targets", "c2"),
            ("vkt", _p("circle.cov"), "--base", "0,1"),
            "targets",
        ),
    ],
)
def test_an_option_does_not_carry_over_to_the_next_call(first, second, option, capsys):
    main([*first, "--machine"])
    assert option in json.loads(capsys.readouterr().out)["arguments"]
    main([*second, "--machine"])
    assert option not in json.loads(capsys.readouterr().out)["arguments"]


def test_a_report_path_does_not_carry_over_to_the_next_call(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["xmod", "check", _p("c4c2.xm"), "--report", str(path)]) == 0
    path.unlink()
    assert main(["xmod", "check", _p("c4c2.xm")]) == 0
    capsys.readouterr()
    assert not path.exists()


def test_a_usage_error_between_calls_leaves_the_parser_working(capsys):
    assert main(["cube", "check", _p("cube-z5.cube")]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["dgpd", "compose", _p("squares-c2.sq"), "--dir", "x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: gpdkit dgpd compose")
    assert "invalid choice: 'x'" in err
    assert main(["dgpd", "compose", _p("squares-c2.sq"), "--dir", "h"]) == 0


def _machine_error(capsys, argv, code):
    """Run a failing command; return its one report and its stderr lines."""
    assert main([*argv, "--machine"]) == code
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["exit_code"] == code
    return report, captured.err.splitlines()


def test_invalid_utf8_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.grp"
    bad.write_bytes(b"kind: group\nelements: 0 1\xff\n")
    report, err = _machine_error(capsys, ["xmod", "aut", str(bad)], 2)
    assert report["data"] == {"error_kind": "parse-error"}
    assert report["witnesses"] == ["line 2: byte 0xff is not valid UTF-8"]
    assert err == ["error: line 2: byte 0xff is not valid UTF-8"]


def test_a_validation_error_report_carries_its_witness(tmp_path, capsys):
    bad = tmp_path / "bad.grp"
    bad.write_text("kind: group\nname: c2\nelements: 0 1\nunit: 0\n"
                   "table:\n  0: 0 1\n  1: 1 1\n")
    report, err = _machine_error(capsys, ["xmod", "aut", str(bad)], 2)
    assert report["data"] == {"error_kind": "validation-error"}
    assert report["witnesses"] == ["no two-sided inverse", "witness: '1'"]
    assert err == ["error: no two-sided inverse"]
    # An error without a witness reports its message alone.
    report, _ = _machine_error(capsys, ["dgpd", "compose", _p("squares-c2.sq"), "--dir", "v"], 1)
    assert report["witnesses"] == ["squares do not compose vertically: '0' vs '1'"]


def test_a_document_that_fails_validation_while_loading_is_digested(tmp_path, capsys):
    bad = tmp_path / "bad.grp"
    bad.write_text("kind: group\nname: c2\nelements: 0 1\nunit: 0\n"
                   "table:\n  0: 0 1\n  1: 1 1\n")
    report, _ = _machine_error(capsys, ["xmod", "aut", str(bad)], 2)
    assert report["witnesses"] == ["no two-sided inverse", "witness: '1'"]
    assert report["inputs"] == {str(bad): hashlib.sha256(bad.read_bytes()).hexdigest()}
    # A file that cannot be read has no bytes to digest.
    report, _ = _machine_error(capsys, ["xmod", "aut", str(tmp_path / "missing.grp")], 2)
    assert report["data"] == {"error_kind": "io-error"}
    assert report["inputs"] == {}


def test_an_error_report_digests_the_documents_read_before_the_error(tmp_path, capsys):
    bad = tmp_path / "bad.pres"
    bad.write_bytes(b"kind: presentation\nvertices: 0\xff\n")
    u, v = _p("wedge-u.pres"), _p("wedge-v.pres")
    report, _ = _machine_error(capsys, ["pushout", u, v, str(bad)], 2)
    assert report["data"] == {"error_kind": "parse-error"}
    digest = {p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in (u, v)}
    # The document that failed to parse is digested too, and nothing after it.
    bad_digest = {str(bad): hashlib.sha256(bad.read_bytes()).hexdigest()}
    assert report["inputs"] == {**digest, **bad_digest}
    report, _ = _machine_error(capsys, ["pushout", str(bad), u, v], 2)
    assert report["inputs"] == bad_digest
    report, _ = _machine_error(capsys, ["pushout", u, v, _p("c2.grp")], 2)
    assert report["data"] == {"error_kind": "validation-error"}
    c2 = _p("c2.grp")
    assert report["inputs"] == {**digest, c2: hashlib.sha256(Path(c2).read_bytes()).hexdigest()}


@pytest.mark.parametrize(
    "argv,code",
    [
        (("xmod", "aut", _p("c2.grp")), 0),
        (("xmod", "check", _p("c2.grp")), 2),  # the error report fails to write
        (("eh", "check", _p("eh-s3.eh")), 1),
    ],
)
def test_an_unwritable_report_path_is_an_io_error(tmp_path, argv, code, capsys):
    path = tmp_path / "missing" / "report.json"
    report, err = _machine_error(capsys, [*argv, "--report", str(path)], 2)
    assert report["data"] == {"error_kind": "io-error"}
    assert report["witnesses"] == [err[-1].removeprefix("error: ")]
    assert str(path) in err[-1]
    # One failed write: the io-error report does not try again.
    assert len(err) == (2 if code == 2 else 1)
    assert not path.parent.exists()


def test_an_unexpected_exception_is_an_internal_error(monkeypatch, capsys):
    def broken(xm):
        raise RuntimeError("boom")

    monkeypatch.setattr("gpdkit.cli.check_axioms", broken)
    report, err = _machine_error(capsys, ["xmod", "check", _p("c4c2.xm")], 4)
    assert report["verdict"] == "error"
    assert report["witnesses"] == ["internal error: RuntimeError('boom')"]
    assert report["data"]["error_kind"] == "internal-error"
    assert "RuntimeError: boom" in report["data"]["traceback"][-1]
    assert err == ["error: internal error: RuntimeError('boom')"]
    # Without --machine the human output is the one stderr line.
    assert main(["xmod", "check", _p("c4c2.xm")]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal error: RuntimeError('boom')\n"


def test_a_map_from_outside_the_source_group_is_rejected(capsys):
    argv = [
        "xmod", "induced", _p("c4c2.xm"),
        "--to", _p("c2.grp"),
        "--map", "0=0,1=1,5=1",
    ]
    report, _ = _machine_error(capsys, argv, 2)
    assert report["data"] == {"error_kind": "validation-error"}
    assert "'5'" in report["witnesses"][0]


def test_each_input_is_opened_once_per_call(tmp_path, monkeypatch, capsys):
    names = ("wedge-u.pres", "wedge-v.pres", "wedge-w.pres")
    paths = [str(tmp_path / n) for n in names]
    for n, p in zip(names, paths):
        Path(p).write_bytes((DATA / n).read_bytes())
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    for _ in range(2):
        opened.clear()
        assert main(["pushout", *paths, "--machine"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert sorted(opened) == sorted(paths)
        assert set(report["inputs"]) == set(paths)


def test_the_digest_is_of_the_bytes_that_were_parsed(tmp_path, monkeypatch, capsys):
    path = tmp_path / "c4c2.xm"
    parsed = (DATA / "c4c2.xm").read_bytes()
    path.write_bytes(parsed)
    real_load = cli.load_document

    def load_then_edit(p):
        doc = real_load(p)
        Path(p).write_bytes(parsed + b"# edited after parsing\n")
        return doc

    monkeypatch.setattr(cli, "load_document", load_then_edit)
    assert main(["xmod", "check", str(path), "--machine"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["inputs"] == {str(path): hashlib.sha256(parsed).hexdigest()}


def _damage_images(iso, kind):
    """``iso`` with its arrow map broken at the first arrow (``arrow``), or
    every fibre sent to the image of its unit (``collapse``)."""
    if kind == "arrow":
        first, last = list(iso.amap)[0], list(iso.amap)[-1]
        return replace(iso, amap={**iso.amap, first: iso.amap[last]})
    if kind == "collapse":
        src = iso.source
        mmap = {x: dict.fromkeys(t, t[src.m[x].unit]) for x, t in iso.mmap.items()}
        return replace(iso, mmap=mmap)
    return iso


@pytest.mark.parametrize("kind", ["none", "arrow", "collapse"])
@pytest.mark.parametrize("name", ["c2c2.xm", "c4c2.xm"])
def test_dgpd_roundtrip_reads_the_morphism_laws_again_only_on_a_failure(
    name, kind, monkeypatch, capsys
):
    real_iso, real_check = cli.round_trip_isomorphism, xmod.check_xmod_morphism
    seen, calls = {}, []

    def damaged_iso(xm, recovered):
        seen["iso"], seen["recovered"] = _damage_images(real_iso(xm, recovered), kind), recovered
        return seen["iso"]

    def spy(f):
        calls.append(f)
        return real_check(f)

    monkeypatch.setattr(cli, "round_trip_isomorphism", damaged_iso)
    monkeypatch.setattr(cli, "check_xmod_morphism", spy)
    monkeypatch.setattr(xmod, "check_xmod_morphism", spy)
    code = main(["dgpd", "roundtrip", _p(name), "--machine"])
    report = json.loads(capsys.readouterr().out)
    checks = len(calls)
    # The former body: the laws, then is_xmod_isomorphism, then the axioms.
    iso = seen["iso"]
    rep = real_check(iso)
    iso_ok = xmod.is_xmod_isomorphism(iso)
    ok = rep.ok and iso_ok and xmod.check_axioms(seen["recovered"]).ok
    assert (code, report["verdict"]) == ((0, "pass") if ok else (1, "fail"))
    assert report["witnesses"] == [f"{family}: {w!r}" for family, w in rep.failures]
    assert checks == (1 if iso_ok else 2)
    assert ok == (kind == "none")
    # a lawful map that is not onto fails with no law witness
    assert (not rep.ok) == (kind == "arrow" or (name == "c4c2.xm" and kind == "collapse"))
