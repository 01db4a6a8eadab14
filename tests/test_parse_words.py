"""Differential tests for words that are built and checked once.

The parser used to turn a face or relation side into letters with
``_letters_of`` and then build the word through ``presentations.word``;
``_word_of`` then looked up and chained the tokens in one pass, and
``_row_of`` now does so into signed edge indexes, named here by
``_read_word`` for the comparison.  ``_word_of`` (in ``name_keyed``), its
list version, which kept each letter's ends and compared them after the
last token, and ``_names`` as it scanned every name of a row, are kept too.
A parsed complex used to walk every face word again in
``Complex2.validate``; the fundamental groupoid's relations used to be
filtered, then freely reduced into a second ``Word``, then walked again by
``presentation``; and ``vertex_group_presentation`` built
``lhs.concat(rhs.inverse())`` for each relation, and found the component
of its vertex through ``skeleton_components`` before it walked it.  The
originals are kept here verbatim as oracles.  On hypothesis token lists
and complexes, and on the seeded torus-band complexes the benchmark runs,
the new code must give equal words, complexes and presentations, or raise
the same error with the same message and line or witness.
"""

import random
import sys
from dataclasses import replace
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpdkit import presentations, vankampen
from gpdkit.core import ValidationError, skeleton_components
from gpdkit.documents import (
    _FORBIDDEN,
    ParseError,
    _names,
    _row_of,
    parse_document,
    render_document,
)
from gpdkit.presentations import (
    GroupPresentation,
    Word,
    count_reduced_words,
    empty_word,
    free_loop_counts,
    presentation,
    quiver,
    vertex_group_presentation,
    word,
)
from gpdkit.vankampen import _fundamental, complex2, fundamental_groupoid
from name_keyed import named_forest, retracted, spanning_tree, word_of

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import Grid  # noqa: E402

# ------------------------------------------------------------------ oracles


def _letters_of(tokens, q, line):
    letters = []
    for t in tokens:
        if t.endswith("^-1"):
            e, s = t[:-3], -1
        else:
            e, s = t, 1
        if e not in q.esrc:
            raise ParseError(f"unknown edge {e!r}", line)
        letters.append((e, s))
    return letters


def word_of_oracle(tokens, q, line, at=None):
    if tokens == ["1"]:
        if at is None:
            raise ParseError(
                "an empty word is only allowed opposite a nonempty side", line
            )
        return word(q, (), at=at)
    try:
        return word(q, _letters_of(tokens, q, line))
    except ValidationError as exc:
        raise ParseError(f"word does not chain: {exc}", line)


def word_of_lists_oracle(tokens, q, line, at=None):
    """``_word_of`` as it kept the ends of each letter in two lists."""
    if tokens == ["1"]:
        if at is None:
            raise ParseError(
                "an empty word is only allowed opposite a nonempty side", line
            )
        return empty_word(at)
    esrc, etgt = q.esrc, q.etgt
    letters, starts, ends = [], [], []
    for t in tokens:
        if t.endswith("^-1"):
            e = t[:-3]
            if e not in esrc:
                raise ParseError(f"unknown edge {e!r}", line)
            letters.append((e, -1))
            starts.append(etgt[e])
            ends.append(esrc[e])
        else:
            if t not in esrc:
                raise ParseError(f"unknown edge {t!r}", line)
            letters.append((t, 1))
            starts.append(esrc[t])
            ends.append(etgt[t])
    if not letters:
        raise ParseError("word does not chain: empty word needs a vertex", line)
    if starts[1:] != ends[:-1]:
        raise ParseError("word does not chain: letters do not chain", line)
    return Word(src=starts[0], tgt=ends[-1], letters=tuple(letters))


def names_oracle(text, line):
    """``_names`` as it scanned every name of a row."""
    names = text.split()
    for n in names:
        if not _FORBIDDEN.isdisjoint(n):
            raise ParseError(f"bad name {n!r}", line)
    return names


def free_reduce_oracle(w):
    """Unique normal form: cancel adjacent ``(e,s)(e,-s)`` pairs."""
    stack = []
    for letter in w.letters:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return Word(src=w.src, tgt=w.tgt, letters=tuple(stack))


def _read_word(tokens, q, line, at=None):
    """``_row_of`` read back as a word: ``at`` and the ends as vertex
    names, the signed edge indexes as letters."""
    vpos = q.validate()._view[0]
    src, tgt, row = _row_of(tokens, q, line, None if at is None else vpos[at])
    letters = tuple((q.edges[j], 1) if j >= 0 else (q.edges[~j], -1) for j in row)
    return Word(q.vertices[src], q.vertices[tgt], letters)


def apply_oracle(q, forest, w):
    """``ForestRetraction.apply`` as it was, on the forest of ``q`` read by
    name."""
    _, root_of, tree_edges = named_forest(q, forest)
    letters = tuple((e, s) for e, s in w.letters if e not in tree_edges)
    return free_reduce_oracle(
        Word(src=root_of[w.src], tgt=root_of[w.tgt], letters=letters)
    )


def fundamental_oracle(x, forest, pq):
    """The presentation ``_fundamental`` built on ``forest`` over the
    quiver ``pq``: relations retracted by the old ``apply`` and walked
    again by ``presentation``."""
    relations = []
    for f in x.faces:
        w = apply_oracle(x.edge_quiver(), forest, x.fboundary[f])
        relations.append((w, empty_word(w.src)))
    return presentation(pq, relations)


def vertex_group_oracle(p, x):
    q = p.quiver
    if x not in q.vertices:
        raise ValidationError("no such vertex", witness=x)
    block = next(
        b for b in skeleton_components(q.vertices, q.edges, q.esrc, q.etgt) if x in b
    )
    comp = set(block)
    paths, _, tree_edges = spanning_tree(q, [block[0]])
    generators = tuple(
        e for e in q.edges if e not in tree_edges and q.esrc[e] in comp
    )

    def rewrite(w):
        out = []
        for e, s in w.letters:
            if e in tree_edges:
                continue
            if out and out[-1] == (e, -s):
                out.pop()
            else:
                out.append((e, s))
        return tuple(out)

    relators = []
    dropped = []
    for lhs, rhs in p.relations:
        if lhs.src not in comp:
            dropped.append((lhs, rhs))
            continue
        rel = rewrite(lhs.concat(rhs.inverse()))
        if rel:
            relators.append(rel)
    return GroupPresentation(
        generators=generators,
        relators=tuple(relators),
        dropped_relations=tuple(dropped),
    )


def vertex_group_components_oracle(p, x):
    """``vertex_group_presentation`` as it found the component of ``x``
    through ``skeleton_components`` and then walked it from its least
    vertex."""
    q = p.quiver
    if x not in q.vertices:
        raise ValidationError("no such vertex", witness=x)
    block = next(
        b for b in skeleton_components(q.vertices, q.edges, q.esrc, q.etgt) if x in b
    )
    comp = set(block)
    paths, _, tree_edges = spanning_tree(q, [block[0]])
    generators = tuple(
        e for e in q.edges if e not in tree_edges and q.esrc[e] in comp
    )

    relators = []
    dropped = []
    for lhs, rhs in p.relations:
        if lhs.src not in comp:
            dropped.append((lhs, rhs))
            continue
        if lhs.tgt != rhs.tgt:
            raise ValidationError(
                "words do not concatenate", witness=(lhs.tgt, rhs.tgt)
            )
        # lhs . rhs^-1, read straight off the two letter tuples
        inverse = ((e, -s) for e, s in reversed(rhs.letters))
        rel = retracted(chain(lhs.letters, inverse), tree_edges)
        if rel:
            relators.append(rel)
    return GroupPresentation(
        generators=generators,
        relators=tuple(relators),
        dropped_relations=tuple(dropped),
    )


def _vertex_groups_agree(p, v):
    """The vertex group at ``v`` equals both oracles' (a raised error
    alike)."""
    got = _outcome(vertex_group_presentation, p, v)
    assert got == _outcome(vertex_group_components_oracle, p, v)
    assert got == _outcome(vertex_group_oracle, p, v)
    return got


def _outcome(f, *args):
    """What a call did: its value, or the error's type, message, line and
    witness."""
    try:
        return ("returned", f(*args))
    except (ParseError, ValidationError) as exc:
        return (
            "raised", type(exc), str(exc),
            getattr(exc, "line", None), getattr(exc, "witness", None),
        )


# ------------------------------------------------------------- token lists

VERTICES = ("v0", "v1", "v2")


@st.composite
def edge_quivers(draw):
    n = draw(st.integers(0, 5))
    return quiver(
        VERTICES,
        [(f"e{i}", draw(st.sampled_from(VERTICES)), draw(st.sampled_from(VERTICES)))
         for i in range(n)],
    )


@st.composite
def token_cases(draw):
    """A quiver, a token list, and the vertex ``at`` that places ``1``: a
    walk's tokens, then up to three damages (unknown edges, ``^-1`` on an
    unknown edge, ``1``, letters that do not chain)."""
    q = draw(edge_quivers())
    here = draw(st.sampled_from(VERTICES))
    tokens = []
    for _ in range(draw(st.integers(0, 6))):
        out = [
            (e, s) for e in q.edges for s in (1, -1)
            if (q.esrc[e] if s > 0 else q.etgt[e]) == here
        ]
        if not out:
            break
        e, s = draw(st.sampled_from(out))
        tokens.append(e if s > 0 else f"{e}^-1")
        here = q.etgt[e] if s > 0 else q.esrc[e]
    junk = st.sampled_from(
        [*q.edges, *(f"{e}^-1" for e in q.edges),
         "zz", "zz^-1", "1", "1^-1", "^-1", "e0^-1^-1", "v0", "e0:e1", "e1=", "#"]
    )
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(tokens)))
        if draw(st.booleans()) or not tokens:
            tokens.insert(i, draw(junk))
        else:
            del tokens[i - 1]
    if draw(st.integers(0, 4)) == 0:
        tokens = ["1"]
    at = draw(st.sampled_from((None,) + VERTICES))
    return q, tokens, at


@settings(max_examples=600, deadline=None)
@given(case=token_cases(), line=st.integers(1, 40))
def test_word_of_matches_the_two_pass_oracle(case, line):
    q, tokens, at = case
    got = _outcome(_read_word, tokens, q, line, at)
    assert got == _outcome(word_of, tokens, q, line, at)
    assert got == _outcome(word_of_oracle, tokens, q, line, at)
    assert got == _outcome(word_of_lists_oracle, tokens, q, line, at)


NAME_TOKENS = [
    "a", "e0", "v1_2_3", "1", "e0^-1", "a:b", "a=b", "x#y", "^", ":", "=", "é", "名",
]
GAPS = [" ", "  ", "\t", " \t ", "\u00a0", "\u3000", "\x0c"]


@st.composite
def name_rows(draw):
    """A row value: names, some with forbidden characters anywhere in the
    row, joined by spaces, tabs or Unicode whitespace."""
    tokens = draw(st.lists(st.sampled_from(NAME_TOKENS), max_size=6))
    text = draw(st.sampled_from(["", " "]))
    for t in tokens:
        text += t + draw(st.sampled_from(GAPS))
    return text


@settings(max_examples=600, deadline=None)
@given(text=name_rows(), line=st.integers(1, 40))
def test_names_match_the_per_name_oracle(text, line):
    assert _outcome(_names, text, line) == _outcome(names_oracle, text, line)


@pytest.mark.parametrize(
    "text, bad",
    [("a b c:d e=f", "c:d"), ("a\tb^-1", "b^-1"), ("x\u3000y=z", "y=z"), ("a b", None)],
)
def test_a_bad_name_is_the_first_one_in_the_row(text, bad):
    want = _outcome(names_oracle, text, 3)
    assert _outcome(_names, text, 3) == want
    if bad is None:
        assert want == ("returned", text.split())
    else:
        assert want[2:4] == (f"line 3: bad name {bad!r}", 3)


CHAIN = quiver(VERTICES, [("a", "v0", "v1"), ("b", "v1", "v2"), ("c", "v2", "v0")])


@pytest.mark.parametrize(
    "tokens, at, expected",
    [
        # an unknown edge after a chain break is reported first
        (["a", "c", "zz"], None, ("unknown edge 'zz'",)),
        (["a", "a", "b", "zz^-1"], None, ("unknown edge 'zz'",)),
        (["zz^-1"], None, ("unknown edge 'zz'",)),
        (["1^-1"], None, ("unknown edge '1'",)),
        (["a", "1"], None, ("unknown edge '1'",)),
        (["a", "c"], None, ("word does not chain: letters do not chain",)),
        (["1"], None, ("an empty word is only allowed opposite a nonempty side",)),
        ([], None, ("word does not chain: empty word needs a vertex",)),
        (["1"], "v1", Word("v1", "v1", ())),
        (["a", "b", "c"], None, Word("v0", "v0", (("a", 1), ("b", 1), ("c", 1)))),
        (["c^-1", "b^-1"], None, Word("v0", "v1", (("c", -1), ("b", -1)))),
    ],
)
def test_hand_picked_token_lists(tokens, at, expected):
    want = _outcome(word_of_oracle, tokens, CHAIN, 7, at)
    assert _outcome(_read_word, tokens, CHAIN, 7, at) == want
    assert _outcome(word_of, tokens, CHAIN, 7, at) == want
    assert _outcome(word_of_lists_oracle, tokens, CHAIN, 7, at) == want
    if isinstance(expected, Word):
        assert want == ("returned", expected)
    else:
        assert want[:4] == ("raised", ParseError, f"line 7: {expected[0]}", 7)


# --------------------------------------------------------------- complexes


@st.composite
def complexes(draw):
    """Vertices, edge triples and ``(face, letters)`` pairs whose letters
    are closed walks; an empty walk is given as the empty ``Word``."""
    nv = draw(st.integers(1, 5))
    vertices = draw(st.permutations([f"p{i}" for i in range(nv)]))
    edges = [
        (f"e{i}", draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices)))
        for i in range(draw(st.integers(0, 7)))
    ]
    faces = []
    for k in range(draw(st.integers(0, 4))):
        start = here = draw(st.sampled_from(vertices))
        walk, closed = [], 0
        for _ in range(draw(st.integers(0, 8))):
            out = [
                (e, s) for e, a, b in edges for s in (1, -1)
                if (a if s > 0 else b) == here
            ]
            if not out:
                break
            e, s = draw(st.sampled_from(out))
            walk.append((e, s))
            here = next(b if s > 0 else a for name, a, b in edges if name == e)
            if here == start:
                closed = len(walk)
        letters = walk[:closed]
        faces.append((f"f{k}", letters or empty_word(start)))
    return vertices, edges, faces


def _text(vertices, edges, faces):
    lines = ["kind: complex", "vertices: " + " ".join(vertices), "edges:"]
    lines += [f"  {e}: {a} {b}" for e, a, b in edges]
    if faces:
        lines.append("faces:")
    for f, letters in faces:
        if isinstance(letters, Word):
            lines.append(f"  {f}: 1 {letters.src}")
        else:
            lines.append(
                f"  {f}: " + " ".join(e if s > 0 else f"{e}^-1" for e, s in letters)
            )
    return "\n".join(lines) + "\n"


def _bases(x, draw_extra):
    """One base point per component (its first vertex), plus extras."""
    base = [b[0] for b in skeleton_components(x.vertices, x.edges, x.esrc, x.etgt)]
    return base + [v for v in draw_extra if v not in base]


def _check_pipeline(x, base):
    """``_fundamental`` on ``x`` against the oracles, and the vertex group
    at every base point against its oracle."""
    forest, pres, *_ = _fundamental(x, base)
    want = fundamental_oracle(x, forest, pres.quiver)
    assert pres == want
    assert pres.validate() is pres
    for v in pres.quiver.vertices:
        _vertex_groups_agree(pres, v)
    return pres


@settings(max_examples=300, deadline=None)
@given(cx=complexes(), extra=st.lists(st.sampled_from([f"p{i}" for i in range(5)])))
def test_parsed_complexes_equal_built_ones_and_present_the_same_groupoid(cx, extra):
    vertices, edges, faces = cx
    text = _text(vertices, edges, faces)
    parsed = parse_document(text).payload
    built = complex2(vertices, edges, faces)
    assert parsed == built
    assert parsed._view is not None and built._view is not None
    assert render_document(parse_document(text)) == text
    base = _bases(parsed, [v for v in extra if v in vertices])
    assert _check_pipeline(parsed, base) == _check_pipeline(built, base)


def _grid_complexes():
    rng = random.Random(23)
    out = []
    for n, components in ((8, 1), (10, 2), (12, 3), (16, 1)):
        grid = Grid(rng, n, components)
        base = [grid.v(c, rng.randrange(r), rng.randrange(n)) for c, r in enumerate(grid.rows)]
        out.append((grid, base))
    return out


@pytest.mark.parametrize(
    "grid, base", _grid_complexes(), ids=["n8", "n10-two-bands", "n12-three-bands", "n16"]
)
def test_seeded_grid_complexes_parse_and_present_as_built(grid, base):
    text = "\n".join(["kind: complex", *grid.complex_lines()]) + "\n"
    parsed = parse_document(text).payload
    faces = [(f, _letters_of(w.split(), parsed.edge_quiver(), 0)) for f, w in grid.faces]
    assert parsed == complex2(grid.vertices, grid.edges, faces)
    pres = _check_pipeline(parsed, base)
    assert len(pres.relations) == len(grid.faces)


@pytest.fixture
def word_walks(monkeypatch):
    """Record each word ``_check_word`` walks, in either module."""
    calls = []
    real = presentations._check_word

    def spy(q, w, message, witness):
        calls.append(w)
        return real(q, w, message, witness)

    monkeypatch.setattr(presentations, "_check_word", spy)
    monkeypatch.setattr(vankampen, "_check_word", spy)
    return calls


def test_a_parsed_complex_and_its_groupoid_walk_no_word_again(word_walks):
    grid, base = _grid_complexes()[1]
    text = "\n".join(["kind: complex", *grid.complex_lines()]) + "\n"
    x = parse_document(text).payload
    pres = fundamental_groupoid(x, base)
    vertex_group_presentation(pres, base[0])
    assert word_walks == []
    # A word handed to ``complex2`` is still walked.
    complex2(x.vertices, [(e, x.esrc[e], x.etgt[e]) for e in x.edges],
             [(f, x.fboundary[f]) for f in x.faces[:3]])
    assert word_walks == [x.fboundary[f] for f in x.faces[:3]]


DISC = """\
kind: complex
vertices: 0 1
edges:
  p: 0 1
  q: 0 1
faces:
  f: p q^-1
"""


@pytest.mark.parametrize(
    "boundary, message, witness",
    [
        (Word("0", "1", (("p", 1),)), "boundary word is not closed", None),
        (Word("0", "0", (("p", 1), ("p", 1))), "letters do not chain", (1, ("p", 1), "1")),
        (Word("0", "0", (("z", 1),)), "malformed letter", ("z", 1)),
        (Word("1", "1", (("p", 1), ("q", -1))), "malformed boundary word", None),
        (Word("0", "1", ()), "malformed boundary word", None),
        (Word("9", "9", ()), "empty word needs a vertex", "9"),
    ],
    ids=["open", "unchained", "unknown-edge", "wrong-ends", "empty-two-ends", "empty-off"],
)
def test_a_replaced_parsed_complex_is_rejected_with_the_old_witness(
    boundary, message, witness
):
    x = parse_document(DISC).payload
    broken = replace(x, fboundary={"f": boundary})
    for _ in range(2):
        with pytest.raises(ValidationError) as info:
            fundamental_groupoid(broken, ("0",))
        assert str(info.value) == message
        assert info.value.witness == (("f", boundary) if witness is None else witness)
    assert fundamental_groupoid(x, ("0",)).relations  # the original is untouched


@settings(max_examples=300, deadline=None)
@given(cx=complexes(), cuts=st.lists(st.integers(0, 8), min_size=4, max_size=4))
def test_vertex_groups_of_two_sided_relations_match_the_oracle(cx, cuts):
    """Each closed walk X Y becomes the relation X = Y^-1, so both sides
    are nonempty whenever the cut falls inside the walk."""
    vertices, edges, faces = cx
    q = quiver(vertices, edges)
    relations = []
    for (_, letters), cut in zip(faces, cuts):
        if isinstance(letters, Word) or not 0 < cut < len(letters):
            continue
        lhs = word(q, letters[:cut])
        rhs = word(q, letters[cut:]).inverse()
        relations.append((lhs, rhs))
    p = presentation(q, relations)
    for v in vertices:
        _vertex_groups_agree(p, v)


@pytest.fixture
def walks(monkeypatch):
    """Record the roots of each forest walk and the incidence lists built,
    check that each walk goes over the lists built last and that its forest
    is ``name_keyed``'s, and fail on a call to ``skeleton_components``, from
    ``presentations``."""
    calls, built = [], []
    real_incidence, real_forest = presentations._incidence, presentations._forest

    def incidence(q):
        built.append(real_incidence(q))
        return built[-1]

    def forest(q, incident, roots):
        calls.append(tuple(roots))
        assert incident is built[-1]
        got = real_forest(q, incident, roots)
        assert named_forest(q, got) == spanning_tree(q, roots)
        return got

    def unused(*args):
        raise AssertionError("skeleton_components was called")

    monkeypatch.setattr(presentations, "_incidence", incidence)
    monkeypatch.setattr(presentations, "_forest", forest)
    monkeypatch.setattr(presentations, "skeleton_components", unused)
    return calls, built


def test_torus_bands_vertex_groups_take_one_walk_per_least_vertex(walks):
    """Two bands, three base points: the vertex group at each base point
    matches the oracles, and the component is walked again only from a
    vertex that is not the least of it, over the incidence lists built once
    for the call."""
    x = parse_document(
        (Path(__file__).parent / "data" / "torus-bands.cx").read_text(encoding="utf-8")
    ).payload
    pres = fundamental_groupoid(x, ("v1_2_3", "v0_1_1", "v1_0_0"))
    q = pres.quiver
    blocks = skeleton_components(q.vertices, q.edges, q.esrc, q.etgt)
    assert len(blocks) == 2 and "v1_0_0" in q.vertices
    calls, built = walks
    for v in q.vertices:
        del calls[:], built[:]
        gp = vertex_group_presentation(pres, v)
        least = next(b[0] for b in blocks if v in b)
        assert len(built) == 1
        assert calls == ([(v,)] if v == least else [(v,), (least,)])
        assert gp == vertex_group_components_oracle(pres, v)
        assert gp == vertex_group_oracle(pres, v)
        assert gp.dropped_relations  # the other band's faces


PRESENTATIONS = [
    Path(__file__).parent / "data" / f"wedge-{piece}.pres" for piece in "uvw"
] + [
    "kind: presentation\nvertices: a b\nedges:\n  x: a b\n  y: b a\n"
    "relations:\n  x y = 1\n  1 = y^-1 x^-1\n  x y x = x\n"
]


@pytest.mark.parametrize("source", PRESENTATIONS, ids=["u", "v", "w", "two-vertex"])
def test_parsed_presentations_are_the_validated_ones(source):
    text = source if isinstance(source, str) else source.read_text(encoding="utf-8")
    p = parse_document(text).payload
    assert p == presentation(p.quiver, p.relations)
    assert p.validate() is p


def test_duplicate_faces_are_rejected_parsed_or_built():
    text = DISC + "  f: q p^-1\n"
    with pytest.raises(ValidationError) as parsed:
        parse_document(text)
    with pytest.raises(ValidationError) as built:
        complex2((0, 1), [("p", 0, 1), ("q", 0, 1)],
                 [("f", [("p", 1), ("q", -1)]), ("f", [("q", 1), ("p", -1)])])
    for info in (parsed, built):
        assert (str(info.value), info.value.witness) == ("duplicate faces", ("f", "f"))


def test_a_raw_relation_that_does_not_close_keeps_its_error():
    """The oracles read the raw relation as given and fail in the rewrite;
    the library validates the presentation first, so the error is
    ``validate``'s, on every call."""
    lhs, rhs = Word("v0", "v1", (("a", 1),)), empty_word("v0")
    raw = presentations.GroupoidPresentation(quiver=CHAIN, relations=((lhs, rhs),))
    for oracle in (vertex_group_oracle, vertex_group_components_oracle):
        got = _outcome(oracle, raw, "v0")
        assert got[:3] == ("raised", ValidationError, "words do not concatenate")
    want = ("raised", ValidationError, "relation sides are not coterminal", None, (lhs, rhs))
    for _ in range(2):
        assert _outcome(vertex_group_presentation, raw, "v0") == want
        assert _outcome(lambda: raw.validate()) == want
        assert raw._view is None


# ------------------------------------------------------ faces on the empty word


def test_an_empty_face_names_a_vertex_of_the_complex():
    text = "kind: complex\nvertices: v\nedges:\nfaces:\n  f: 1 w\n"
    with pytest.raises(ParseError) as info:
        parse_document(text)
    assert (str(info.value), info.value.line) == ("line 5: unknown vertex 'w'", 5)
    with pytest.raises(ParseError) as info:
        parse_document(text.replace("1 w", "1"))
    assert str(info.value) == (
        "line 5: an empty word is only allowed opposite a nonempty side"
    )


# ------------------------------------------------------------ loop counts


@pytest.mark.parametrize("rank", range(9))
def test_free_loop_counts_match_the_reduced_word_count(rank):
    gens = tuple(f"g{i}" for i in range(rank))
    q = quiver(("*",), [(g, "*", "*") for g in gens])
    want = [count_reduced_words(q, "*", k) for k in range(7)]
    assert free_loop_counts(GroupPresentation(generators=gens, relators=()), 6) == want
    for kmax in range(7):
        assert free_loop_counts(
            GroupPresentation(generators=gens, relators=()), kmax
        ) == want[: kmax + 1]


def test_free_loop_counts_on_a_large_rank_are_immediate():
    gens = tuple(f"g{i}" for i in range(400))
    counts = free_loop_counts(GroupPresentation(generators=gens, relators=()), 6)
    assert counts[1] == 801 and counts[2] == 801 + 800 * 799
