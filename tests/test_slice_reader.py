"""Differential tests for the slice reader of ``documents``.

``_tree`` keeps the flat ``key: value`` rows under a block header as one
``_Rows``, and ``_quiver_of`` and ``_complex_of`` read a slice's rows in
bulk: edge ends by ``str.split``, face words through one token table and
chained on the flat letter list.  ``line_reader`` keeps the line-by-line
reader they replaced.  On every ``tests/data`` document, on seeded torus
grids and covers up to 20 x 20 with one to three bands, on the mutants of
``test_fuzz.py`` and the whitespace-padded documents of ``test_tree.py``,
on long documents after the same edits, on the broken complexes of
``test_int_complexes.py``, and on hand-written blocks with comments,
blank lines, CRLF, ``\\x0c``, tabs and nesting (as written, and widened
past ``_SHORT`` rows), the two must give equal payloads and views, or
raise the same ``ParseError`` (message and line) or ``ValidationError``
(message and witness).  Blocks shorter than ``_SHORT`` rows are read line
by line, so each long case checks the slices.

Two refusals are new, and the line-by-line reader does not make them: an
edge key that breaks the rule for names (it declared an edge no word can
reach), and a row of the wrong form in a block (it was dropped without a
word).  Where the two readers part, the slice reader must have made one of
those, at a line where the old tree holds such a row.
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import line_reader
from gpdkit.core import ValidationError
from gpdkit.documents import _FORBIDDEN, _SHORT, ParseError, _Rows, _tree, parse_document
from test_fuzz import _byte_edit, _line_edit, mutants
from test_int_complexes import BROKEN, torus_bands
from test_tree import EXTRA, PADS, padded

DATA = Path(__file__).parent / "data"
WRONG_FORM = ("a raw line among 'key: value' entries", "an entry among raw lines")


def _views(kind, payload):
    """The kept integer views of a parsed value, next to the value."""
    if kind == "quiver":
        return payload._view
    if kind == "presentation":
        return payload._view, payload.quiver._view
    if kind == "complex":
        return payload._view[1:], payload._view[0]._view
    if kind == "cover":
        return payload._view, _views("complex", payload.x)
    return None


def _outcome(parse, text):
    try:
        doc = parse(text)
    except ParseError as exc:
        return ("parse-error", str(exc), exc.line)
    except ValidationError as exc:
        return ("invalid", str(exc), exc.witness)
    return ("parsed", doc.kind, doc.payload, _views(doc.kind, doc.payload))


def _old_rows(text):
    """Each node of the line-by-line tree by line, with its parent."""
    nodes = {}

    def walk(node):
        for child in node[4]:
            nodes[child[0]] = (child, node)
            walk(child)

    walk(line_reader._tree(text))
    return nodes


def _new_refusal(got, text):
    """Whether ``got`` is one of the two new refusals, at a line where the
    line-by-line tree holds a row it applies to."""
    if got[0] != "parse-error":
        return False
    message, line = got[1].partition(": ")[2], got[2]
    node, parent = _old_rows(text).get(line, (None, None))
    if node is None:
        return False
    if message in WRONG_FORM:  # relations and arrays hold raw lines
        raw = parent[1] in ("relations", "array")
        return (node[1] is None) is not raw and message == WRONG_FORM[raw]
    if message.startswith("bad name ") and parent[1] == "edges":
        key = node[1]
        return message == f"bad name {key!r}" and (
            key.split() != [key] or not _FORBIDDEN.isdisjoint(key)
        )
    return False


def _assert_same(text):
    got = _outcome(parse_document, text)
    want = _outcome(line_reader.parse_document, text)
    if got != want:
        assert _new_refusal(got, text), (got, want)
    return got


def _slices(text):
    """The keys of the headers whose rows ``_tree`` keeps as a ``_Rows``."""
    found = []

    def walk(node):
        for child in node[4] if not isinstance(node[4], _Rows) else ():
            if isinstance(child[4], _Rows):
                found.append(child[1])
            walk(child)

    walk(_tree(text))
    return found


# ---------------------------------------------------------------- documents

CORPUS = sorted(DATA.iterdir())


@pytest.mark.parametrize("path", CORPUS, ids=[p.name for p in CORPUS])
def test_corpus_documents_read_as_line_by_line(path):
    got = _assert_same(path.read_text(encoding="utf-8"))
    assert got[0] == "parsed" or path.name == "unknown-arrow.gpd"


def _cover(text, rng):
    """``text``, a complex document, as a cover by the closures of two
    seeded halves of its faces."""
    lines = text.splitlines()[1:]
    faces = [line.split(":")[0].strip() for line in lines[lines.index("faces:") + 1:]]
    rng.shuffle(faces)
    vertices = lines[0].split()[1:]
    half = len(faces) // 2
    u = " ".join(faces[:half] + vertices)
    v = " ".join(faces[half:] + vertices)
    body = ["  " + line for line in lines]
    return "\n".join(["kind: cover", "complex:", *body, f"u: {u}", f"v: {v}"]) + "\n"


GRIDS = [(n, c) for n in (6, 9, 12, 16, 20) for c in (1, 2, 3) if n >= 3 * c]


@pytest.mark.parametrize("n, components", GRIDS, ids=[f"n{n}-c{c}" for n, c in GRIDS])
def test_seeded_grids_and_covers_read_as_line_by_line(n, components):
    rng = random.Random(100 * n + components)
    text = torus_bands(rng, n, components)
    got = _assert_same(text)
    assert got[0] == "parsed" and got[2].faces
    long = [k for k, rows in (("edges", got[2].edges), ("faces", got[2].faces)) if len(rows) >= _SHORT]
    assert _slices(text) == long and "edges" in long
    cov = _cover(text, rng)
    assert _slices(cov) == long
    assert _assert_same(cov)[0] == "parsed"


@settings(max_examples=300, deadline=None)
@given(case=mutants())
def test_fuzz_mutants_read_as_line_by_line(case):
    _, _, data = case
    _assert_same(data.decode("utf-8", errors="replace"))


@settings(max_examples=300, deadline=None)
@given(text=padded())
def test_whitespace_padded_documents_read_as_line_by_line(text):
    _assert_same(text)


def _long_documents():
    """A complex and a cover whose edge and face blocks are long enough to
    be slices, and the commented grid of ``tests/data``."""
    text = torus_bands(random.Random(5), 7, 1)
    grid = (DATA / "grid-commented.cx").read_text(encoding="utf-8")
    return [text, _cover(text, random.Random(5)), grid]


LONG = _long_documents()


@st.composite
def long_mutants(draw):
    """A long document after one to three line, byte or whitespace edits:
    the edits of ``test_fuzz.py``, and the pads and inserted lines of
    ``test_tree.py``."""
    text = draw(st.sampled_from(LONG))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["line", "byte", "prefix", "suffix", "insert"]))
        if op in ("line", "byte"):
            edit = _line_edit if op == "line" else _byte_edit
            text = edit(draw, text.encode("utf-8")).decode("utf-8", errors="replace")
            continue
        lines = text.split("\n")
        i = draw(st.integers(0, len(lines) - 1))
        if op == "insert":
            lines.insert(i, draw(st.sampled_from(EXTRA)))
        elif op == "prefix":
            lines[i] = draw(st.sampled_from(PADS)) + lines[i]
        else:
            lines[i] += draw(st.sampled_from(PADS))
        text = "\n".join(lines)
    return text


def test_the_long_documents_hold_slices():
    assert [_slices(text) for text in LONG] == [["edges", "faces"]] * 3


@settings(max_examples=400, deadline=None)
@given(text=long_mutants())
def test_edited_long_documents_read_as_line_by_line(text):
    _assert_same(text)


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_broken_complexes_fail_as_line_by_line(name):
    text = "kind: complex\n" + BROKEN[name]
    got = _assert_same(text)
    assert got[0] != "parsed"
    if name == "edge-named-with-caret":
        assert got == ("parse-error", "line 4: bad name 'p^-1'", 4)


# ------------------------------------------------------------ hand-written

DISC = "kind: complex\nvertices: 0 1\n"

BLOCKS = {
    "comment-lines": DISC + "edges:\n  # the two arcs\n  p: 0 1\n# between\n  q: 0 1\n"
    "faces:\n  f: p q^-1\n",
    "blank-lines": DISC + "edges:\n  p: 0 1\n\n  q: 0 1\n  \nfaces:\n\n  f: p q^-1\n \n",
    "deeper-blank-line": DISC + "edges:\n  p: 0 1\n   \n  q: 0 1\nfaces:\n  f: p q^-1\n",
    "trailing-comments": DISC + "edges:\n  p: 0 1  # first\n  q: 0 1# second\n"
    "faces:\n  f: p q^-1 # the disc\n",
    "comment-only-block": DISC + "edges:\n  # none yet\nfaces:\n",
    "crlf": DISC.replace("\n", "\r\n") + "edges:\r\n  p: 0 1\r\n  q: 0 1\r\nfaces:\r\n  f: p q^-1\r\n",
    "form-feed": DISC + "edges:\n  p: 0 1\x0c  q: 0 1\nfaces:\n\x0c  f: p q^-1\n",
    "carriage-return-in-row": DISC + "edges:\n  p: 0 1\r  q: 0 1\nfaces:\n  f: p q^-1\n",
    "tab-in-indentation": DISC + "edges:\n  p: 0 1\n  \tq: 0 1\n",
    "tab-at-line-start": DISC + "edges:\n  p: 0 1\n\tq: 0 1\n",
    "tab-after-colon": DISC + "edges:\n  p:\t0 1\n  q: 0\t1\nfaces:\n  f:\tp q^-1\n",
    "deeper-line": DISC + "edges:\n  p: 0 1\n    q: 0 1\n",
    "deeper-comment": DISC + "edges:\n  p: 0 1\n    # aside\n  q: 0 1\nfaces:\n  f: p q^-1\n",
    "nested-header": DISC + "edges:\n  p:\n    q: 0 1\n",
    "shallower-line": "kind: complex\nvertices: 0 1\nedges:\n    p: 0 1\n  q: 0 1\n",
    "empty-key": DISC + "edges:\n  p: 0 1\n  : 0 1\n",
    "nbsp-indent": DISC + "edges:\n  p: 0 1\n  \u00a0q: 0 1\n",
    "unicode-names": "kind: complex\nvertices: α β\nedges:\n  p: α β\n  q: α β\n"
    "faces:\n  f: p q^-1\n",
    "empty-face": DISC + "edges:\n  p: 0 1\nfaces:\n  f:\n",
    "empty-boundary": DISC + "edges:\n  p: 0 1\nfaces:\n  f: 1 0\n  g: p p^-1\n",
    "empty-boundary-bad-vertex": DISC + "edges:\n  p: 0 1\nfaces:\n  f: 1 v\n",
    "face-not-closed": DISC + "edges:\n  p: 0 1\n  q: 0 1\nfaces:\n  f: p q^-1\n  g: q\n",
    "face-not-chained-then-unknown": DISC + "edges:\n  p: 0 1\nfaces:\n  f: p p\n  g: zz\n",
    "edge-block-with-value": DISC + "edges: p\n  p: 0 1\n",
    "rows-after-block": DISC + "edges:\n  p: 0 1\nfaces:\n  f: p p^-1\nextra: 1\n",
    "cover": "kind: cover\ncomplex:\n  vertices: 0 1\n  edges:\n    p: 0 1  # arc\n\n"
    "    q: 0 1\n  faces:\n    f: p q^-1\nu: f\nv: p\n",
    "quiver": "kind: quiver\nvertices: a b\nedges:\n  x: a b\n  # loop\n  y: b b\n",
    "presentation": "kind: presentation\nvertices: a\nedges:\n  x: a a\n\n  y: a a\n"
    "relations:\n  x y = y x\n  x x = 1\n",
    "group-table": "kind: group\nelements: e a\nunit: e\ntable:\n  e: e a # row e\n\n  a: a e\n",
}


def _widened(text):
    """``text`` with ``_SHORT`` more rows under each ``edges:`` and
    ``faces:`` header, on the header's indent plus two, so that the
    blocks are long enough to be read as slices."""
    out = []
    for line in text.splitlines(keepends=True):
        out.append(line)
        head = line.rstrip("\r\n")
        pad = " " * (len(head) - len(head.lstrip(" ")) + 2)
        if head.strip() == "edges:":
            out += [f"{pad}z{k}: 0 1\n" for k in range(_SHORT)]
        elif head.strip() == "faces:":
            out += [f"{pad}g{k}: z{k} z{k}^-1\n" for k in range(_SHORT)]
    return "".join(out)


@pytest.mark.parametrize("widen", [False, True], ids=["as-written", "widened"])
@pytest.mark.parametrize("name", sorted(BLOCKS))
def test_hand_written_blocks_read_as_line_by_line(name, widen):
    _assert_same(_widened(BLOCKS[name]) if widen else BLOCKS[name])


def test_short_blocks_are_read_line_by_line():
    assert _slices(BLOCKS["comment-lines"]) == []
    assert _slices(_widened(BLOCKS["comment-lines"])) == ["edges", "faces"]


def test_commented_and_blank_blocks_are_still_slices():
    # a deeper comment-only or blank line is skipped, as the line reader skips it
    for name in (
        "comment-lines", "blank-lines", "trailing-comments", "crlf", "form-feed", "cover",
        "deeper-comment", "deeper-blank-line",
    ):
        assert _slices(_widened(BLOCKS[name])) == ["edges", "faces"], name


@pytest.mark.parametrize(
    "at, line, slices",
    [
        (31, "", ["edges"]),  # a blank line where the rows would run out
        (31, "# an aside", ["edges"]),
        (5, "   \t ", ["edges"]),  # deeper, and only whitespace
        (5, "    \x1f", ["edges"]),
        (5, "      # deeper", ["edges"]),
        (5, "   \tz: 0 1", []),  # deeper text: the line reader refuses the tab
        (5, "    z: 0 1", []),
    ],
)
def test_skipped_lines_do_not_turn_a_slice_off(at, line, slices):
    rows = [f"  e{k}: 0 1" for k in range(_SHORT + 2)]
    rows.insert(at, line)
    text = "\n".join(["kind: quiver", "vertices: 0 1", "edges:", *rows]) + "\n"
    got = _assert_same(text)
    assert (got[0] == "parsed") is bool(slices)
    if slices:
        assert _slices(text) == slices


def test_a_slice_keeps_the_line_of_each_row():
    rows = [f"  e{k}: 0 1" for k in range(_SHORT)]
    rows[3:3] = ["  # a comment", ""]
    text = "\n".join(["kind: quiver", "vertices: 0 1", "edges:", "# first", *rows]) + "\n"
    block = _tree(text)[4][2][4]
    assert isinstance(block, _Rows) and block.indent == 2
    assert list(block.lines) == [5, 6, 7, *range(10, 10 + _SHORT - 3)]
    assert block.keys == tuple(f"e{k}" for k in range(_SHORT))
    with pytest.raises(ParseError) as info:
        parse_document(text.replace("e3: 0 1", "e3: 0 1 1"))
    assert (str(info.value), info.value.line) == ("line 10: edge rows are 'id: src tgt'", 10)


# --------------------------------------------------------- the new refusals


@pytest.mark.parametrize(
    "text, line",
    [
        ("kind: complex\nvertices: 0 1\nedges:\n  p^-1: 0 1\n  p: 1 0\n", 4),
        ("kind: cover\ncomplex:\n  vertices: 0 1\n  edges:\n    p: 0 1\n    p^-1: 1 0\nu: 0\nv: 1\n", 6),
        ("kind: quiver\nvertices: 0 1\nedges:\n  p: 0 1\n\n  p^-1: 1 0\n", 6),
        ("kind: presentation\nvertices: 0\nedges:\n  p^-1: 0 0\nrelations:\n  p = p\n", 4),
    ],
    ids=["complex", "cover", "quiver", "presentation"],
)
def test_an_edge_key_with_a_caret_is_a_bad_name_at_its_line(text, line):
    with pytest.raises(ParseError) as info:
        parse_document(text)
    assert (str(info.value), info.value.line) == (f"line {line}: bad name 'p^-1'", line)
    assert _new_refusal(_outcome(parse_document, text), text)


@pytest.mark.parametrize("key", ["a=b", "a b", "a\u00a0b", "a^"])
def test_an_edge_key_must_be_a_name(key):
    text = f"kind: quiver\nvertices: 0 1\nedges:\n  p: 0 1\n  {key}: 0 1\n"
    with pytest.raises(ParseError) as info:
        parse_document(text)
    assert (str(info.value), info.value.line) == (f"line 5: bad name {key!r}", 5)


@pytest.mark.parametrize(
    "text, message, line",
    [
        # the old reader dropped the raw line, and with it edge ``c``
        ("kind: complex\nvertices: 0 1\nedges:\n  a: 0 1\n  c 0 1\n  b: 1 0\n", WRONG_FORM[0], 5),
        ("kind: complex\nvertices: 0 1\nedges:\n  a: 0 1\n  junk words here\n  b: 1 0\n", WRONG_FORM[0], 5),
        ("kind: complex\nvertices: 0\nedges:\n  a: 0 0\nfaces:\n  f: a\n  a a\n", WRONG_FORM[0], 7),
        # the old reader kept one relation of two
        ("kind: presentation\nvertices: 0\nedges:\n  a: 0 0\nrelations:\n  a a = 1\n  x: a = 1\n",
         WRONG_FORM[1], 7),
        ("kind: presentation\nvertices: 0\nedges:\n  a: 0 0\nrelations:\n  x: a = 1\n", WRONG_FORM[1], 6),
        ("kind: group\nelements: e a\nunit: e\ntable:\n  e: e a\n  a e\n  a: a e\n", WRONG_FORM[0], 6),
        ("kind: group\ndegree: 2\nperms:\n  e: 0 1\n  1 0\n", WRONG_FORM[0], 5),
    ],
    ids=["missing-colon", "junk-row", "face-row", "relations", "relations-only-entries",
         "group-table", "perms"],
)
def test_a_row_of_the_wrong_form_is_refused_at_its_line(text, message, line):
    with pytest.raises(ParseError) as info:
        parse_document(text)
    assert (str(info.value), info.value.line) == (f"line {line}: {message}", line)
    assert _new_refusal(_outcome(parse_document, text), text)
