"""Mutation fuzz of the corpus documents through the command line.

Each example takes one corpus command from ``test_cli.CORPUS``, mutates
one of its ``tests/data`` documents by line edits (drop a line; drop,
insert or replace a token) or byte edits (including bytes that are not
valid UTF-8), and runs the command in process with ``--machine``.  Every
mutant must end with exit code 0-3 and exactly one JSON report on stdout:
exit 4 (an internal error) or an exception escaping ``main`` is a defect.
"""

import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpdkit.cli import main
from test_cli import CORPUS, DATA

# Tokens that the corpus documents give special meaning to, offered next
# to each document's own tokens.
SPECIAL = (b"", b":", b"#", b"=", b"^-1", b"1", b"0", b"x", b"kind:", b"99")
# Bytes that break UTF-8 or the line structure.
BYTES = st.one_of(
    st.sampled_from(b"\xff\x80\xc3\n\r\t :#"), st.integers(0, 255)
)

_CASES = [
    (argv, i)
    for argv, _ in CORPUS
    for i, arg in enumerate(argv)
    if arg.startswith(str(DATA))
]


def _line_edit(draw, data):
    lines = data.split(b"\n")
    n = draw(st.integers(0, len(lines) - 1))
    op = draw(st.sampled_from(["drop-line", "drop", "insert", "replace"]))
    if op == "drop-line":
        del lines[n]
        return b"\n".join(lines)
    tokens = lines[n].split(b" ")
    vocab = st.sampled_from(sorted(set(data.split())) + list(SPECIAL))
    k = draw(st.integers(0, len(tokens) - (op != "insert")))
    if op == "drop":
        del tokens[k]
    elif op == "insert":
        tokens.insert(k, draw(vocab))
    else:
        tokens[k] = draw(vocab)
    lines[n] = b" ".join(tokens)
    return b"\n".join(lines)


def _byte_edit(draw, data):
    op = draw(st.sampled_from(["drop", "insert", "replace"]))
    k = draw(st.integers(0, len(data) - (op != "insert")))
    if op == "drop":
        return data[:k] + data[k + 1 :]
    byte = bytes([draw(BYTES)])
    return data[:k] + byte + data[k + (op == "replace") :]


@st.composite
def mutants(draw):
    argv, i = draw(st.sampled_from(_CASES))
    data = Path(argv[i]).read_bytes()
    for _ in range(draw(st.integers(1, 3))):
        data = draw(st.sampled_from([_line_edit, _byte_edit]))(draw, data)
    return argv, i, data


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants")


@settings(max_examples=400, deadline=None)
@given(case=mutants())
def test_mutated_documents_end_in_one_report_and_a_contracted_exit(case, workdir):
    argv, i, data = case
    path = workdir / Path(argv[i]).name
    path.write_bytes(data)
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*argv[:i], str(path), *argv[i + 1 :], "--machine"])
    report = json.loads(out.getvalue())
    assert report["exit_code"] == code
    assert code in (0, 1, 2, 3), report["data"].get("traceback")
