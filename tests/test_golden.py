"""Machine reports pinned byte for byte against committed golden files.

Each command runs from the repository root with relative ``tests/data``
paths, because a report records its arguments as typed.  After a change
that is meant to alter a report, rewrite the golden files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import hashlib
import json
import re
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from gpdkit.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
D = "tests/data/"

COMMANDS = [
    ("pi1", D + "circle.cx", "--base", "0,1", "--vertex", "0"),
    ("pi1", D + "disc.cx", "--base", "0", "--vertex", "0"),
    ("vkt", D + "circle.cov", "--base", "0,1"),
    ("vkt", D + "circle.cov", "--base", "0"),
    ("vkt", D + "wedge.cov", "--base", "0"),
    ("pushout", D + "wedge-u.pres", D + "wedge-v.pres", D + "wedge-w.pres"),
    ("xmod", "check", D + "c4c2.xm"),
    ("xmod", "check", D + "bad.xm"),
    ("xmod", "aut", D + "s3.grp"),
    ("xmod", "aut", D + "z7.grp"),
    ("xmod", "normal", D + "s3.grp", "--subgroup", "e,r,rr"),
    ("xmod", "normal", D + "s3.grp", "--subgroup", "e,a"),
    ("xmod", "free", D + "c2.grp", "--gens", "r", "--boundary", "r=1",
     "--verify-against", D + "c4c2.xm"),
    ("xmod", "induced", D + "c4c2.xm", "--to", D + "c2.grp", "--map", "0=0,1=1",
     "--verify-against", D + "c4c2.xm"),
    ("dgpd", "compose", D + "squares-c2.sq", "--dir", "h"),
    ("dgpd", "compose", D + "squares-c2.sq", "--dir", "v"),
    ("dgpd", "array", D + "squares-c2.sq"),
    ("dgpd", "array", D + "array-c2.sq"),
    ("dgpd", "roundtrip", D + "c2c2.xm"),
    ("cube", "check", D + "cube-z5.cube"),
    ("cube", "check", D + "cube-z5-broken.cube"),
    ("cube", "compose", D + "cube-z5.cube", D + "cube-z5-below.cube", "--dir", "v"),
    ("eh", "check", D + "eh-c2.eh"),
    ("eh", "check", D + "eh-s3.eh"),
    ("xmod", "check", D + "c2.grp"),
    # Shuffled edges and two base points on one band: the report pins the
    # spanning forest order, and the vertex group is taken at a base point
    # that is not the first of its component.
    ("pi1", D + "torus-bands.cx", "--base", "v1_2_3,v0_1_1,v1_0_0",
     "--vertex", "v1_0_0"),
]


def _name(argv):
    return re.sub(r"[^A-Za-z0-9.]+", "-", " ".join(Path(a).name for a in argv))


def _report(argv):
    out = StringIO()
    with redirect_stdout(out):
        main([*argv, "--machine"])
    return out.getvalue()


@pytest.mark.parametrize("argv", COMMANDS, ids=[_name(a) for a in COMMANDS])
def test_machine_report_matches_golden(argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    want = (GOLDEN / f"{_name(argv)}.json").read_text(encoding="utf-8")
    assert _report(argv) == want


# Error reports that carry their input digests, each with the SHA-256 of
# its golden as it read when error reports had ``"inputs": {}``.
UNDIGESTED = {
    "vkt-circle.cov-base-0":
        "f4a14e35876e6879daac5d630fa4f3d2794831d061f68cedfe95c5f0c7d0d1e6",
    "xmod-check-c2.grp":
        "e2b9f6da856c3578d7e429010656d5c654e36a9efae801f08589700259958b5d",
    "dgpd-array-squares-c2.sq":
        "c5672fc20f4f0e6616afc5ccb0f32ae7932aa31553253c0639aaee2a75162f7d",
    "dgpd-compose-squares-c2.sq-dir-v":
        "3d2b422d2ff885c23e4ff1e61c6e113591ec330cbd8a4b43ddf7ca7877a8bac4",
}


@pytest.mark.parametrize("name", sorted(UNDIGESTED))
def test_error_goldens_differ_from_their_undigested_versions_only_in_inputs(name):
    report = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert report["verdict"] in ("fail", "error") and report["data"]["error_kind"]
    assert report["inputs"] == {
        p: hashlib.sha256((ROOT / p).read_bytes()).hexdigest() for p in report["inputs"]
    }
    assert len(report["inputs"]) == 1
    old = json.dumps({**report, "inputs": {}}, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(old.encode("utf-8")).hexdigest() == UNDIGESTED[name]


def test_golden_names_are_unique():
    assert len({_name(a) for a in COMMANDS}) == len(COMMANDS)


if __name__ == "__main__":
    import os

    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for argv in COMMANDS:
        (GOLDEN / f"{_name(argv)}.json").write_text(_report(argv), encoding="utf-8")
