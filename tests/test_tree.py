"""Differential tests for the one-pass indentation tree of ``documents``.

The original ``_tree`` built a dataclass node per line, set its indent as
an attribute after construction, and checked a parent on every child.  It
is kept here verbatim as ``tree_oracle``.  On every ``tests/data``
document, on seeded torus-grid complexes and covers, on the mutants of
``test_fuzz.py``, and on documents with lines indented or padded with
tabs, ``\\r``, ``\\x0c`` and Unicode whitespace, the library's ``_tree``
must give the same ``(line, key, value, children)`` tree or raise a
``ParseError`` with the same message and line.

The library keeps the flat rows under a block header as one ``_Rows``
(the rows' line numbers, their indent, their keys, and their values as
the rows have them after the colon) in place of its children.  ``_shape``
turns such a slice back into one node per row, the value stripped as the
oracle strips it, so the two trees compare node for node.
"""

import random
from dataclasses import dataclass, field
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpdkit.documents import ParseError, _Rows, _tree
from test_fuzz import mutants

DATA = Path(__file__).parent / "data"

# ------------------------------------------------------------------- oracle


@dataclass
class _Node:
    line: int
    key: object  # str for entries, None for raw lines
    value: str
    children: list = field(default_factory=list)


def tree_oracle(text):
    """Indentation tree of entry and raw nodes."""
    root = _Node(line=0, key=None, value="")
    stack = [(-1, root)]
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        content = rawline.split("#", 1)[0].rstrip()
        if not content.strip():
            continue
        if "\t" in rawline[: len(rawline) - len(rawline.lstrip())]:
            raise ParseError("tabs are not allowed in indentation", lineno)
        indent = len(content) - len(content.lstrip(" "))
        body = content.strip()
        if ":" in body:
            key, _, value = body.partition(":")
            node = _Node(line=lineno, key=key.strip(), value=value.strip())
            if not node.key:
                raise ParseError("empty key", lineno)
        else:
            node = _Node(line=lineno, key=None, value=body)
        while stack and indent <= stack[-1][0]:
            stack.pop()
        parent = stack[-1][1]
        if parent.children:
            expected = parent.children[0].line_indent
            if indent != expected:
                raise ParseError("inconsistent indentation", lineno)
        node.line_indent = indent
        if parent is not root and parent.key is not None and parent.value:
            raise ParseError(
                f"entry {parent.key!r} has both a value and nested lines", lineno
            )
        if parent is not root and parent.key is None:
            raise ParseError("raw lines cannot have nested lines", lineno)
        parent.children.append(node)
        stack.append((indent, node))
    return root


def _shape(node):
    """``(line, key, value, children)`` of an oracle node, or of a library
    node, the tuple ``(line, key, value, indent, children)`` whose
    children may be a ``_Rows``."""
    if isinstance(node, tuple):
        line, key, value, _, children = node
        if isinstance(children, _Rows):
            rows = zip(children.lines, children.keys, children.values)
            children = [(no, k, v.strip(), children.indent, []) for no, k, v in rows]
    else:
        line, key, value, children = node.line, node.key, node.value, node.children
    return (line, key, value, [_shape(c) for c in children])


def _outcome(tree, text):
    try:
        return ("tree", _shape(tree(text)))
    except ParseError as exc:
        return ("error", str(exc), exc.line)


def _assert_same(text):
    want = _outcome(tree_oracle, text)
    assert _outcome(_tree, text) == want
    return want


# ---------------------------------------------------------------- documents

CORPUS = sorted(DATA.iterdir())


def _torus_lines(rng, n, indent=""):
    """A seeded n x n torus grid complex with shuffled edges and a tenth of
    its faces removed."""
    v = [f"v{i}_{j}" for i in range(n) for j in range(n)]
    edges, faces = [], []
    for i in range(n):
        for j in range(n):
            a, b = (i + 1) % n, (j + 1) % n
            edges.append(f"h{i}_{j}: v{i}_{j} v{i}_{b}")
            edges.append(f"u{i}_{j}: v{i}_{j} v{a}_{j}")
            faces.append(f"f{i}_{j}: h{i}_{j} u{i}_{b} h{a}_{j}^-1 u{i}_{j}^-1")
    rng.shuffle(v)
    rng.shuffle(edges)
    faces = [f for f in faces if rng.random() > 0.1]
    return (
        [f"{indent}vertices: " + " ".join(v), f"{indent}edges:"]
        + [f"{indent}  {e}" for e in edges]
        + [f"{indent}faces:"]
        + [f"{indent}  {f}" for f in faces]
    )


def _grids():
    rng = random.Random(11)
    out = []
    for n in (3, 5, 8):
        out.append("\n".join(["kind: complex", *_torus_lines(rng, n)]) + "\n")
        out.append(
            "\n".join(
                ["# a cover", "kind: cover", "complex:", *_torus_lines(rng, n, "  "),
                 "u: v0_0", "v: v0_0"]
            )
            + "\n"
        )
    return out


@pytest.mark.parametrize("path", CORPUS, ids=[p.name for p in CORPUS])
def test_corpus_documents_give_the_same_tree(path):
    assert _assert_same(path.read_text(encoding="utf-8"))[0] == "tree"


@pytest.mark.parametrize("text", _grids(), ids=lambda t: f"{len(t)}-chars")
def test_torus_grid_documents_give_the_same_tree(text):
    assert _assert_same(text)[0] == "tree"


@settings(max_examples=300, deadline=None)
@given(case=mutants())
def test_fuzz_mutants_give_the_same_tree_or_error(case):
    _, _, data = case
    _assert_same(data.decode("utf-8", errors="replace"))


# Whitespace that ``str.splitlines`` breaks lines at or that ``str.strip``
# removes, and comment fragments.
PADS = [
    " ", "  ", "\t", " \t", "\r", "\x0c", "\x0b", "\u00a0", "\u2003", "\u3000",
    "\u2028", "# c", "#\tc", " # \t", ":", "\t#",
]
# Lines to insert: blank, comment-only (with tabs), and tab-indented ones.
EXTRA = [
    "", "\t", " \t ", "\t# tabbed comment", "  #\t", "\x0c", "\u00a0",
    "\tkey: value", "  \tx", "\u3000raw", "\r", "k:", ":v",
]


@st.composite
def padded(draw):
    path = draw(st.sampled_from(CORPUS))
    lines = path.read_text(encoding="utf-8").split("\n")
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["prefix", "suffix", "insert"]))
        if op == "insert":
            lines.insert(i, draw(st.sampled_from(EXTRA)))
        elif op == "prefix":
            lines[i] = draw(st.sampled_from(PADS)) + lines[i]
        else:
            lines[i] = lines[i] + draw(st.sampled_from(PADS))
    return "\n".join(lines)


@settings(max_examples=400, deadline=None)
@given(text=padded())
def test_whitespace_padded_documents_give_the_same_tree_or_error(text):
    _assert_same(text)


@pytest.mark.parametrize(
    "text",
    [
        "kind: group\n\t# a comment after a tab\n",
        "kind: group\n \t \n",
        "kind: group\n\tname: x\n",
        "kind: group\ntable:\n  \u00a0a: b\n",
        "kind: group\ntable:\n\x0c  a: b\n",
        "kind: group\ntable:\n  a: b\r   c: d\n",
        "kind: group\ntable: v\n  a: b\n",
        "kind: group\nraw\n  a: b\n",
        "kind: group\nt:\n  a: b\n    c: d\n   e: f\n",
        "kind: group\n : x\n",
    ],
)
def test_hand_picked_whitespace_gives_the_same_tree_or_error(text):
    _assert_same(text)


def test_blank_and_comment_only_lines_may_hold_tabs():
    text = "kind: group\n\t\n\t# comment\ntable:\n \t# also fine\n  a: b\n"
    kind, shape = _assert_same(text)
    assert kind == "tree"
    assert shape[3][1] == (4, "table", "", [(6, "a", "b", [])])
