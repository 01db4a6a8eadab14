"""Differential tests for one boundary form and one cell-selection path.

``complex2`` now reads its words once into rows and builds through
``_complex_on``, and a selection of cells of a complex takes one path
(``_flags``, ``_close``, ``_subcomplex``, ``_covering``) behind
``close_cells``, ``cover``, ``restrict`` and ``SubcomplexCover.validate``.
The bodies they replaced are kept in ``cell_selection``.  On small
complexes every cell selection, and every pair of selections, must give
the same subcomplex, complex or cover, or the same error and witness; on
every complex of ``tests/data``, ``complex2`` must build what the
hand-built ``Complex2(...).validate()`` and the old body build.
"""

from dataclasses import replace
from itertools import chain, combinations, product
from pathlib import Path

import pytest

import cell_selection as old
from gpdkit.core import ValidationError
from gpdkit.documents import load_document
from gpdkit.presentations import Quiver, Word, quiver
from gpdkit.vankampen import (
    Complex2,
    Subcomplex,
    SubcomplexCover,
    close_cells,
    complex2,
    cover,
    restrict,
)

DATA = Path(__file__).resolve().parent / "data"


def _letters(text):
    return [(t[:-3], -1) if t.endswith("^-1") else (t, 1) for t in text.split()]


def _complex(vertices, edges, faces):
    """A complex of edge triples and ``(face, word text)`` pairs, the empty
    boundary at vertex v written ``1 v``."""
    return complex2(vertices, edges, [
        (f, Word(w[2:], w[2:], ()) if w.startswith("1 ") else _letters(w)) for f, w in faces
    ])


COMPLEXES = {
    "circle-3": ((0, 1, 2), [("a", 0, 1), ("b", 1, 2), ("c", 2, 0)], []),
    "torus-1x1": (("v",), [("h", "v", "v"), ("w", "v", "v")], [("f", "h w h^-1 w^-1")]),
    "torus-1x2": (
        ("v0", "v1"),
        [("h0", "v0", "v1"), ("h1", "v1", "v0"), ("w0", "v0", "v0"), ("w1", "v1", "v1")],
        [("f0", "h0 w1 h0^-1 w0^-1"), ("f1", "h1 w0 h1^-1 w1^-1")],
    ),
    "projective-plane": ((0, 1), [("a", 0, 1), ("b", 1, 0)], [("f", "a b a b")]),
    # a face with an empty boundary brings its vertex when closed
    "pinched": (("p", "s"), [("e", "p", "s")], [("d", "1 s")]),
}


def _cells(x):
    return [*x.vertices, *x.edges, *x.faces]


def _selections(x):
    cells = _cells(x)
    return [list(c) for k in range(len(cells) + 1) for c in combinations(cells, k)]


def _typed(x, cells):
    """The cells as a ``Subcomplex`` in the ambient order, names that are no
    cell kept with the vertices."""
    kinds = set(x.edges), set(x.faces)
    return Subcomplex(
        vertices=tuple(c for c in cells if c not in kinds[0] and c not in kinds[1]),
        edges=tuple(c for c in cells if c in kinds[0]),
        faces=tuple(c for c in cells if c in kinds[1]),
    )


def _shape(value):
    if isinstance(value, Complex2):
        return value, value._view, dict(value.fboundary)
    if isinstance(value, SubcomplexCover):
        return value.u, value.v, value._view
    return value


def _outcome(f, *args):
    """What a call did: its value, read as plain data, or the error's
    message and witness."""
    try:
        return ("returned", _shape(f(*args)))
    except ValidationError as exc:
        return ("raised", str(exc), exc.witness)


@pytest.fixture(scope="module", params=sorted(COMPLEXES))
def built(request):
    x = _complex(*COMPLEXES[request.param])
    return x, _selections(x)


def test_every_selection_closes_and_restricts_as_before(built):
    x, selections = built
    for cells in selections + [s + ["zz"] for s in selections[:8]]:
        assert _outcome(close_cells, x, cells) == _outcome(old.close_cells, x, cells)
        sub = _typed(x, cells)
        assert _outcome(restrict, x, sub) == _outcome(old.restrict, x, sub)


def test_every_pair_of_selections_covers_as_before(built):
    x, selections = built
    strays = [["zz"], ["zz", "yy"]]
    for a, b in chain(product(selections, repeat=2), product(strays, selections[:4])):
        assert _outcome(cover, x, a, b) == _outcome(old.cover, x, a, b)
        raw = SubcomplexCover(x=x, u=_typed(x, a), v=_typed(x, b))
        assert _outcome(SubcomplexCover.validate, raw) == _outcome(
            old.validate_cover, replace(raw)
        )


# ----------------------------------------------------------------- complex2


DATA_COMPLEXES = {
    path.name: doc.payload if doc.kind == "complex" else doc.payload.x
    for path, doc in ((p, load_document(p)) for p in sorted(DATA.glob("*.c[xo]*")))
}


@pytest.mark.parametrize("name", sorted(DATA_COMPLEXES))
def test_complex2_builds_what_the_hand_built_complex_validates(name):
    x = DATA_COMPLEXES[name]
    edges = [(e, x.esrc[e], x.etgt[e]) for e in x.edges]
    for form in (lambda w: w, lambda w: list(w.letters) if w.letters else w):
        faces = [(f, form(x.fboundary[f])) for f in x.faces]
        built = complex2(x.vertices, edges, faces)
        was = old.complex2(x.vertices, edges, faces)
        hand = Complex2(
            vertices=x.vertices, edges=x.edges, esrc=dict(x.esrc), etgt=dict(x.etgt),
            faces=x.faces, fboundary={f: x.fboundary[f] for f in x.faces},
        ).validate()
        assert built == was == hand == x
        assert built._view == was._view == hand._view == x._view


DISC = ((0, 1), [("p", 0, 1), ("q", 0, 1)])
BOUNDARIES = [
    [("p", 1), ("q", -1)],  # closed
    [("p", 1)],  # not closed
    [("z", 1)],  # unknown edge
    [("p", 1), ("p", 1)],  # does not chain
    [],  # empty, at no vertex
    Word(0, 0, (("p", 1), ("q", -1))),
    Word(0, 1, (("p", 1),)),
    Word(0, 0, (("z", 1),)),
    Word(1, 1, (("p", 1), ("q", -1))),  # wrong ends
    Word(0, 0, ()),
    Word(9, 9, ()),
]


def _face_lists():
    yield []
    for n in (1, 2):
        for names in product("fg", repeat=n):
            for boundaries in product(BOUNDARIES, repeat=n):
                yield list(zip(names, boundaries))


def test_complex2_and_validate_refuse_as_before():
    """Every list of up to two faces on the disc's quiver, named f or g
    (so twice the same face too), each boundary closed or broken in one
    way, as a letter list or a ``Word``: ``complex2`` and the hand-built
    complex's ``validate`` give the old result or the old error, in the
    old order."""
    for faces in _face_lists():
        assert _outcome(complex2, *DISC, faces) == _outcome(old.complex2, *DISC, faces)
        words = [(f, w) for f, w in faces if isinstance(w, Word)]
        q = quiver(*DISC)
        raw = Complex2(
            vertices=q.vertices, edges=q.edges, esrc=q.esrc, etgt=q.etgt,
            faces=tuple(f for f, _ in faces), fboundary=dict(words),
        )
        assert _outcome(Complex2.validate, raw) == _outcome(
            lambda x: old._read_faces(x, Quiver(x.vertices, x.edges, x.esrc, x.etgt).validate()),
            replace(raw),
        )


# ------------------------------------------------------- unhashable names


def test_an_unhashable_edge_end_is_a_bad_endpoint():
    raw = Quiver(vertices=("a",), edges=("e",), esrc={"e": ["a"]}, etgt={"e": "a"})
    for build in (
        raw.validate,
        lambda: quiver(("a",), [("e", "a", ["a"])]),
        lambda: complex2(("a",), [("e", ["a"], "a")]),
        lambda: Complex2(("a",), ("e",), {"e": "a"}, {"e": {"a"}}, (), {}).validate(),
    ):
        with pytest.raises(ValidationError) as info:
            build()
        assert (str(info.value), info.value.witness) == ("edge with bad endpoints", "e")


def test_an_unhashable_cell_is_no_cell_of_the_complex():
    x = _complex(*COMPLEXES["torus-1x1"])
    all_cells = _cells(x)
    whole = Subcomplex(vertices=x.vertices, edges=x.edges, faces=x.faces)
    for stray in (["h"], {"v": 1}, ("h", ["w"])):
        calls = [
            lambda: close_cells(x, ["h", stray]),
            lambda: cover(x, [stray], all_cells),
            lambda: cover(x, all_cells, ["h", stray]),
            lambda: restrict(x, replace(whole, edges=(stray, "h"))),
            lambda: restrict(x, replace(whole, faces=(stray,))),
            lambda: SubcomplexCover(x=x, u=replace(whole, vertices=(stray,)), v=whole).validate(),
        ]
        for call in calls:
            with pytest.raises(ValidationError) as info:
                call()
            assert (str(info.value), info.value.witness) == ("cells not in the complex", (stray,))
    # with hashable strays, each is named once, as before
    with pytest.raises(ValidationError) as info:
        u, v = replace(whole, vertices=("v", "zz", "h")), replace(whole, edges=("h", "w", "zz"))
        SubcomplexCover(x=x, u=u, v=v).validate()
    assert info.value.witness == ("h", "zz")
