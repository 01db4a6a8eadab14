"""The cover enumerator of ``every_cover`` against the brute force it
replaced, and the sizes it finds.

``subcomplexes`` used to close every selection of cells with
``close_cells`` and keep each distinct result, in the order its first
selection closed to it; that body is kept here as the oracle.  On the five
small complexes, whose selections number at most 2^8, the grown
subcomplexes and the covers paired from them must be the same lists.  The
2 x 2 torus (2^16 selections) is only counted.
"""

from itertools import combinations

import pytest

import every_cover
from gpdkit.vankampen import close_cells

SIZES = {  # subcomplexes, covers
    "circle-3": (18, 27),
    "circle-4": (47, 98),
    "projective-plane": (8, 8),
    "torus-1x1": (6, 6),
    "torus-1x2": (26, 30),
    "torus-2x2": (430, 569),
}


def _closing_every_selection(x):
    cells = every_cover._cells(x)
    found = {}
    for k in range(len(cells) + 1):
        for chosen in combinations(cells, k):
            sub = close_cells(x, list(chosen))
            found.setdefault(sub, None)
    return list(found)


def _build(name):
    return every_cover.torus_2x2() if name == "torus-2x2" else every_cover.SMALL[name]()


@pytest.mark.parametrize("name", sorted(SIZES))
def test_the_subcomplexes_and_covers_are_counted(name):
    x = _build(name)
    assert (len(every_cover.subcomplexes(x)), len(every_cover.covers(x))) == SIZES[name]


@pytest.mark.parametrize("name", sorted(every_cover.SMALL))
def test_growing_finds_what_closing_every_selection_found(name):
    x = every_cover.SMALL[name]()
    subs = _closing_every_selection(x)
    assert every_cover.subcomplexes(x) == subs
    every = set(every_cover._cells(x))
    want = [
        (u, v) for i, u in enumerate(subs) for v in subs[i:]
        if set(every_cover._cells(u)) | set(every_cover._cells(v)) == every
    ]
    assert [(c.u, c.v) for c in every_cover.covers(x)] == want


def test_the_2x2_torus_is_a_closed_grid():
    x = every_cover.torus_2x2()
    assert (len(x.vertices), len(x.edges), len(x.faces)) == (4, 8, 4)
    for f in x.faces:
        assert close_cells(x, [f]).vertices == x.vertices
