"""Complexes on integers against the name-keyed bodies they replaced.

A checked complex keeps its edge quiver's int rows and its face words as
tuples of signed edge indexes; the parser writes them straight from the
line tree, and the spanning forest, the retraction and the vertex group
run on them.  ``name_keyed`` keeps the old parser, forest, ``_fundamental``
and ``vertex_group_presentation``.  On every ``tests/data`` complex and
cover, on seeded torus grids up to 20 x 20 with one to three bands, and on
hypothesis complexes with loops, several components and empty boundaries,
the two must give equal complexes, forests, presentations and vertex
groups, or raise the same error with the same message, line and witness.
"""

import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import name_keyed
from gpdkit import presentations
from gpdkit.core import (
    HypothesisError,
    ValidationError,
    battery,
    cyclic_group,
    from_group,
    index_view,
    skeleton_components,
)
from gpdkit.documents import ParseError, _tree, parse_document, render_document
from gpdkit.presentations import (
    _restricted,
    _restriction,
    enumerate_pres_morphisms,
    identity_morphism,
    presentation,
    pushout,
    quiver,
    spanning_tree,
    vertex_group_presentation,
    verify_pushout_universal,
    word,
    words_equal,
)
from gpdkit.vankampen import (
    Subcomplex,
    SubcomplexCover,
    _fundamental,
    complex2,
    cover,
    fundamental_groupoid,
    restrict,
    vkt_square,
)

DATA = Path(__file__).parent / "data"


def _outcome(f, *args):
    """A call's value, or its error's type, message, line and witness."""
    try:
        return ("returned", f(*args))
    except (ParseError, ValidationError, HypothesisError) as exc:
        return (
            "raised", type(exc), str(exc),
            getattr(exc, "line", None), getattr(exc, "witness", None),
        )


def _parse_complex(text):
    return parse_document(text).payload


def _old_parse_complex(text):
    return name_keyed.complex_of(_tree(text))


def _bases(x):
    """Base-point sets meeting every component: the first vertex of each,
    and that plus the last vertex of the first."""
    blocks = skeleton_components(x.vertices, x.edges, x.esrc, x.etgt)
    first = [b[0] for b in blocks]
    return [first, first + [v for v in blocks[0][-1:] if v not in first]] if blocks else []


def _agrees(x, base):
    """``_fundamental`` and each vertex group on ``x`` against the oracles;
    the forest read by name against the old one."""
    got = _outcome(_fundamental, x, base)
    want = _outcome(name_keyed.fundamental, x, base)
    if got[0] == "raised":
        assert got == want
        return None
    (forest, pres, *_), (old_pres, old_forest) = got[1], want[1]
    assert pres == old_pres and pres.validate() is pres
    assert name_keyed.named_forest(x.edge_quiver(), forest) == old_forest
    for v in pres.quiver.vertices:
        assert vertex_group_presentation(pres, v) == name_keyed.vertex_group_presentation(pres, v)
    return pres


# ------------------------------------------------------------ the test data


def _data(kind):
    return sorted(p for p in DATA.iterdir() if p.suffix == {"complex": ".cx", "cover": ".cov"}[kind])


@pytest.mark.parametrize("path", _data("complex"), ids=lambda p: p.name)
def test_data_complexes_parse_and_present_as_the_name_keyed_code(path):
    text = path.read_text(encoding="utf-8")
    x = _parse_complex(text)
    assert x == _old_parse_complex(text)
    for base in _bases(x):
        _agrees(x, base)


@pytest.mark.parametrize("path", _data("cover"), ids=lambda p: p.name)
def test_data_covers_restrict_and_present_as_the_name_keyed_code(path):
    c = parse_document(path.read_text(encoding="utf-8")).payload
    assert c.x == name_keyed.complex_of(_tree(path.read_text(encoding="utf-8"))[4][1])
    for sub in (c.u, c.v, c.w):
        piece = restrict(c.x, sub)
        raw = replace(piece, esrc=dict(piece.esrc), fboundary=dict(piece.fboundary))
        assert piece == raw and raw.validate()._view[1:] == piece._view[1:]
        for base in _bases(piece):
            _agrees(piece, base)
    base = c.x.vertices
    assert vkt_square(c, base).evidence_ok


# ---------------------------------------------------------------- the grids


def torus_bands(rng, n, components):
    """Torus bands, as text lines: band c has ``rows[c]`` rows of ``n``
    vertices wrapped both ways, one square face per vertex but every
    seventh, and vertices and edges in a seeded order."""
    rows = [3] * components
    for _ in range(n - 3 * components):
        rows[rng.randrange(components)] += 1
    vertices, edges, faces = [], [], []
    for c, r in enumerate(rows):
        for i in range(r):
            for j in range(n):
                v = f"v{c}_{i}_{j}"
                vertices.append(v)
                edges.append(f"h{c}_{i}_{j}: {v} v{c}_{i}_{(j + 1) % n}")
                edges.append(f"u{c}_{i}_{j}: {v} v{c}_{(i + 1) % r}_{j}")
                faces.append(
                    f"f{c}_{i}_{j}: h{c}_{i}_{j} u{c}_{i}_{(j + 1) % n} "
                    f"h{c}_{(i + 1) % r}_{j}^-1 u{c}_{i}_{j}^-1"
                )
    faces = [f for k, f in enumerate(faces) if k % 7]
    rng.shuffle(vertices)
    rng.shuffle(edges)
    lines = ["kind: complex", "vertices: " + " ".join(vertices), "edges:"]
    lines += [f"  {e}" for e in edges] + ["faces:"] + [f"  {f}" for f in faces]
    return "\n".join(lines) + "\n"


GRIDS = [(n, components) for n in (6, 9, 12, 16, 20) for components in (1, 2, 3) if n >= 3 * components]


@pytest.mark.parametrize("n, components", GRIDS, ids=[f"n{n}-c{c}" for n, c in GRIDS])
def test_seeded_grids_parse_and_present_as_the_name_keyed_code(n, components):
    rng = random.Random(n * 10 + components)
    text = torus_bands(rng, n, components)
    x = _parse_complex(text)
    assert x == _old_parse_complex(text)
    blocks = skeleton_components(x.vertices, x.edges, x.esrc, x.etgt)
    assert len(blocks) == components
    base = [rng.choice(b) for b in blocks] + rng.sample(x.vertices, 2)
    _agrees(x, base)
    q = x.edge_quiver()
    for roots in ([], base[:1], base):
        assert name_keyed.named_forest(q, spanning_tree(q, roots)) == name_keyed.spanning_tree(q, roots)


def _wholes():
    """Each ``tests/data`` complex and each seeded grid, as ``(id, text)``."""
    cases = [(p.name, p.read_text(encoding="utf-8")) for p in _data("complex")]
    cases += [(f"n{n}-c{c}", torus_bands(random.Random(n * 10 + c), n, c)) for n, c in GRIDS]
    return cases


@pytest.mark.parametrize("text", [t for _, t in _wholes()], ids=[i for i, _ in _wholes()])
def test_the_whole_complex_is_presented_on_its_spanning_tree(text):
    """``_fundamental``'s forest is ``spanning_tree``'s on the edge quiver,
    and its presentation, view and all, is ``fundamental_groupoid``'s."""
    x = _parse_complex(text)
    for base in _bases(x):
        forest, pres, *_ = _fundamental(x, base)
        assert forest == spanning_tree(x.edge_quiver(), base)
        direct = fundamental_groupoid(x, base)
        assert (pres, pres._view) == (direct, direct._view)


# --------------------------------------------------------------- hypothesis


@st.composite
def complex_texts(draw):
    """A complex document whose edges may be loops or parallel, whose
    faces are closed walks or ``1 v``, on vertices that fall into several
    components."""
    nv = draw(st.integers(1, 6))
    vertices = draw(st.permutations([f"p{i}" for i in range(nv)]))
    edges = [
        (f"e{i}", draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices)))
        for i in range(draw(st.integers(0, 8)))
    ]
    faces = []
    for k in range(draw(st.integers(0, 5))):
        start = here = draw(st.sampled_from(vertices))
        walk, closed = [], 0
        for _ in range(draw(st.integers(0, 8))):
            out = [(e, s) for e, a, b in edges for s in (1, -1) if (a if s > 0 else b) == here]
            if not out:
                break
            e, s = draw(st.sampled_from(out))
            walk.append(e if s > 0 else f"{e}^-1")
            here = next(b if s > 0 else a for name, a, b in edges if name == e)
            if here == start:
                closed = len(walk)
        faces.append(f"f{k}: " + (" ".join(walk[:closed]) or f"1 {start}"))
    lines = ["kind: complex", "vertices: " + " ".join(vertices), "edges:"]
    lines += [f"  {e}: {a} {b}" for e, a, b in edges]
    if faces:
        lines += ["faces:"] + [f"  {f}" for f in faces]
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(text=complex_texts(), extra=st.lists(st.integers(0, 5), max_size=3))
def test_hypothesis_complexes_parse_and_present_as_the_name_keyed_code(text, extra):
    x = _parse_complex(text)
    assert x == _old_parse_complex(text)
    assert parse_document(render_document(parse_document(text))).payload == x
    for base in _bases(x):
        _agrees(x, base + [v for v in (f"p{i}" for i in extra) if v in x.vertices])
    # a base set that misses a component fails alike
    _agrees(x, x.vertices[:1])


BROKEN = {
    "unknown-edge": "vertices: 0 1\nedges:\n  p: 0 1\nfaces:\n  f: p zz^-1\n",
    "unknown-vertex": "vertices: 0 1\nedges:\n  p: 0 1\nfaces:\n  f: 1 7\n",
    "not-chaining": "vertices: 0 1\nedges:\n  p: 0 1\n  q: 0 1\nfaces:\n  f: p q\n",
    "not-closed": "vertices: 0 1\nedges:\n  p: 0 1\n  q: 0 1\nfaces:\n  f: p\n",
    "empty-face": "vertices: 0 1\nedges:\n  p: 0 1\nfaces:\n  f:\n",
    "bare-one": "vertices: 0 1\nedges:\n  p: 0 1\nfaces:\n  f: 1\n",
    "bad-endpoints": "vertices: 0 1\nedges:\n  p: 0 1\n  q: 0 2\n",
    "missing-end": "vertices: 0 1\nedges:\n  p: 0\n",
    "reserved-edge": "vertices: 0 1\nedges:\n  1: 0 1\n",
    "bad-name": "vertices: 0 1\nedges:\n  p: 0 1=\n",
    "duplicate-vertex": "vertices: 0 1 0\nedges:\n  p: 0 1\n",
    "duplicate-edge": "vertices: 0 1\nedges:\n  p: 0 1\n  p: 1 0\n",
    "duplicate-face": "vertices: 0 1\nedges:\n  p: 0 1\n  q: 0 1\nfaces:\n  f: p q^-1\n  f: q p^-1\n",
    "duplicate-face-not-closed": (
        "vertices: 0 1\nedges:\n  p: 0 1\nfaces:\n  g: p\n  f: p p^-1\n  f: 1 0\n"
    ),
    "second-face-not-closed": (
        "vertices: 0 1\nedges:\n  p: 0 1\n  q: 0 1\nfaces:\n  f: p q^-1\n  g: q\n"
    ),
    "edge-named-with-caret": "vertices: 0 1\nedges:\n  p^-1: 0 1\n  p: 1 0\nfaces:\n  f: p^-1 p\n",
}


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_broken_documents_fail_as_the_name_keyed_parser_fails(name):
    text = "kind: complex\n" + BROKEN[name]
    got = _outcome(_parse_complex, text)
    if name == "edge-named-with-caret":
        # The name-keyed parser declared an edge ``p^-1`` that no word can
        # reach; an edge name is now held to the rule for names.
        assert got == ("raised", ParseError, "line 4: bad name 'p^-1'", 4, None)
        return
    assert got == _outcome(_old_parse_complex, text)
    assert got[0] == "raised"


# ---------------------------------------------------------------- documents


def _documents():
    docs = [(p.name, p.read_text(encoding="utf-8")) for p in _data("complex") + _data("cover")]
    rng = random.Random(7)
    for n, components in ((8, 1), (14, 2), (20, 3)):
        docs.append((f"grid-n{n}", torus_bands(rng, n, components)))
    return docs


DOCUMENTS = _documents()


@pytest.mark.parametrize("name, text", DOCUMENTS, ids=[d[0] for d in DOCUMENTS])
def test_complexes_and_covers_round_trip(name, text):
    doc = parse_document(text)
    rendered = render_document(doc)
    again = parse_document(rendered)
    assert again == doc and render_document(again) == rendered
    # the derived read-outs compare as the named values they stand for
    x, y = (d.payload if d.kind == "complex" else d.payload.x for d in (doc, again))
    assert dict(y.fboundary) == dict(x.fboundary) and list(y.fboundary) == list(x.faces)
    assert (y.esrc, y.etgt) == (x.esrc, x.etgt)


def test_a_parsed_boundary_is_a_read_only_mapping_equal_to_the_built_one():
    x = _parse_complex((DATA / "disc.cx").read_text(encoding="utf-8"))
    built = complex2(("0", "1"), [("p", "0", "1"), ("q", "0", "1")], [("f", [("p", 1), ("q", -1)])])
    assert x == built and x.fboundary == built.fboundary == {"f": built.fboundary["f"]}
    assert list(x.fboundary) == ["f"] and len(x.fboundary) == 1 and "g" not in x.fboundary
    assert repr(x.fboundary) == repr(built.fboundary)
    with pytest.raises(TypeError):
        x.fboundary["f"] = built.fboundary["f"]
    with pytest.raises(KeyError):
        x.fboundary["g"]
    # ``complex2`` keeps the same read-only mapping, equal to the dict of
    # words it used to keep
    assert type(built.fboundary) is type(x.fboundary) and built.fboundary == {"f": built.fboundary["f"]}
    with pytest.raises(TypeError):
        built.fboundary["f"] = x.fboundary["f"]
    with pytest.raises(TypeError):
        del built.fboundary["f"]


def test_the_pi1_path_shares_one_letter_table():
    """Every letter of the presentation and of its vertex group is an
    entry of one table: equal letters are the same tuple."""
    x = _parse_complex(torus_bands(random.Random(3), 12, 1))
    pres = _fundamental(x, x.vertices[:1])[1]
    gp = vertex_group_presentation(pres, x.vertices[0])
    letters = [a for lhs, _ in pres.relations for a in lhs.letters]
    letters += [a for rel in gp.relators for a in rel]
    table = {}
    assert all(table.setdefault(a, a) is a for a in letters)
    assert len(table) <= 2 * len(pres.quiver.edges) and gp.relators


# ------------------------------------------------------------------- covers


def _disc():
    """The disc ``a, b: 0 -> 1``, ``f = a b^-1``."""
    return complex2((0, 1), [("a", 0, 1), ("b", 0, 1)], [("f", [("a", 1), ("b", -1)])])


@pytest.mark.parametrize(
    "u, v, message, witness",
    [
        # cells the complex lacks, in either piece, named together
        (Subcomplex((0, 1, 7), ("a",), ()), Subcomplex((0, 1), ("b", "zz"), ("f",)),
         "cells not in the complex", (7, "zz")),
        # U holds the face but not its edge b
        (Subcomplex((0, 1), ("a",), ("f",)), Subcomplex((0, 1), ("b",), ()),
         "cover piece is not incidence-closed", ("U", "f", "b")),
        # V holds the edge b but not its end 1
        (Subcomplex((0, 1), ("a", "b"), ("f",)), Subcomplex((0,), ("b",), ()),
         "cover piece is not incidence-closed", ("V", "b", 1)),
        (Subcomplex((0, 1), ("a",), ()), Subcomplex((0, 1), ("b",), ()),
         "cover misses faces", ("f",)),
    ],
    ids=["strays", "face-without-edge", "edge-without-end", "misses"],
)
def test_a_hand_built_disc_cover_is_refused_with_its_witness(u, v, message, witness):
    c = SubcomplexCover(x=_disc(), u=u, v=v)
    for _ in range(2):
        with pytest.raises(ValidationError) as info:
            c.validate()
        assert (str(info.value), info.value.witness) == (message, witness)
        assert c._view is None
    if message == "cells not in the complex":  # as ``restrict`` names them
        with pytest.raises(ValidationError) as info:
            restrict(_disc(), Subcomplex((0, 7), ("zz",), ()))
        assert info.value.witness == (7, "zz")


def test_a_hand_built_closed_cover_keeps_the_w_cover_builds():
    x = _disc()
    c = SubcomplexCover(x=x, u=Subcomplex((0, 1), ("a", "b"), ("f",)), v=Subcomplex((0, 1), ("b",), ()))
    assert c.validate() is c and c.w == cover(x, ["f"], ["b"]).w == Subcomplex((0, 1), ("b",), ())


# ------------------------------------------------------- lawless targets


def _bad_c2():
    """c2 with ``1 1`` sent to ``1``: ``1`` then has no inverse."""
    t = from_group(cyclic_group(2))
    return replace(t, comp={**t.comp, (1, 1): 1})


def _loop():
    q = quiver(("x",), [("a", "x", "x")])
    return presentation(q, [(word(q, [("a", 1), ("a", 1)]), word(q, [], at="x"))])


@pytest.mark.parametrize(
    "read",
    [
        lambda p, t: enumerate_pres_morphisms(p, t),
        lambda p, t: _restricted(_restriction(identity_morphism(p)), t, []),
        lambda p, t: words_equal(p, word(p.quiver, [("a", 1)]), word(p.quiver, [], at="x"), {"bad": t}),
        lambda p, t: verify_pushout_universal(
            pushout(identity_morphism(p), identity_morphism(p)), {"bad": t}
        ),
    ],
    ids=["enumerate", "restricted", "words_equal", "universality"],
)
def test_a_lawless_target_is_refused_by_the_presentation_searches(read):
    t = _bad_c2()
    with pytest.raises(ValidationError) as want:
        index_view(_bad_c2())
    assert (str(want.value), want.value.witness) == ("arrow with no inverse", 1)
    for _ in range(2):
        with pytest.raises(ValidationError) as info:
            read(_loop(), t)
        assert (str(info.value), info.value.witness) == ("arrow with no inverse", 1)
        assert t._view is None


def test_the_battery_targets_keep_their_views():
    for t in battery().values():
        assert t._view is not None and index_view(t) is t._view
    assert len(enumerate_pres_morphisms(_loop(), battery()["c2"])) == 2


def test_spanning_tree_is_an_int_forest():
    q = quiver(("a", "b", "c"), [("x", "a", "b"), ("y", "c", "b"), ("z", "a", "a")])
    parent, root_of, tree = spanning_tree(q, ["a"])
    assert parent == [None, 0, ~1] and root_of == [0, 0, 0] and list(tree) == [1, 1, 0]
    assert presentations.spanning_tree(q, []) == ([None] * 3, [-1] * 3, bytearray(3))


def test_restrict_refuses_a_face_that_leaves_the_subcomplex_when_called():
    torn = Subcomplex(vertices=(0, 1), edges=("a",), faces=("f",))
    with pytest.raises(ValidationError) as info:
        restrict(_disc(), torn)
    assert (str(info.value), info.value.witness) == ("malformed letter", ("b", -1))
