"""Every cover of a small complex, by brute force (this module holds no
tests itself).

``subcomplexes`` closes every selection of cells with ``close_cells`` and
keeps each distinct result; ``covers`` pairs them, unordered, wherever the
two pieces hold every cell between them.  ``greedy_base`` picks a base set
that meets every component of U, V and W.  ``SMALL`` holds the five small
complexes whose covers are counted in ROADMAP item 17: 27, 98, 8, 6 and
30 covers, 169 in all.
"""

from itertools import combinations, combinations_with_replacement

from gpdkit.vankampen import check_cover, close_cells, complex2, cover


def _circle(n):
    return complex2(range(n), [(f"e{i}", i, (i + 1) % n) for i in range(n)])


def _torus(n):
    """The 1 x n torus grid: vertices ``v0 .. v(n-1)``, a horizontal edge
    ``h{i}`` from each vertex to the next, a vertical loop ``u{i}`` at each,
    and the square face ``f{i}`` between ``u{i}`` and ``u{i+1}``."""
    vs = [f"v{i}" for i in range(n)]
    edges = [(f"h{i}", vs[i], vs[(i + 1) % n]) for i in range(n)]
    edges += [(f"u{i}", vs[i], vs[i]) for i in range(n)]
    faces = [
        (f"f{i}", [(f"h{i}", 1), (f"u{(i + 1) % n}", 1), (f"h{i}", -1), (f"u{i}", -1)])
        for i in range(n)
    ]
    return complex2(vs, edges, faces)


SMALL = {
    "circle-3": lambda: _circle(3),
    "circle-4": lambda: _circle(4),
    "projective-plane": lambda: complex2(
        (0, 1), [("a", 0, 1), ("b", 1, 0)], [("f", [("a", 1), ("b", 1), ("a", 1), ("b", 1)])]
    ),
    "torus-1x1": lambda: _torus(1),
    "torus-1x2": lambda: _torus(2),
}


def _cells(x):
    return [*x.vertices, *x.edges, *x.faces]


def subcomplexes(x):
    """Every incidence-closed subcomplex of ``x``, each once, in the order
    its first selection of cells closes to it."""
    cells = _cells(x)
    found = {}
    for k in range(len(cells) + 1):
        for chosen in combinations(cells, k):
            sub = close_cells(x, list(chosen))
            found.setdefault(sub, None)
    return list(found)


def covers(x):
    """Every unordered pair of subcomplexes U, V of ``x`` with U ∪ V = X, as
    covers built by ``cover``."""
    every = set(_cells(x))
    subs = subcomplexes(x)
    return [
        cover(x, _cells(u), _cells(v))
        for u, v in combinations_with_replacement(subs, 2)
        if set(_cells(u)) | set(_cells(v)) == every
    ]


def greedy_base(c):
    """A base set meeting every component of U, V and W: the first vertex
    of the first component missed, added until none is."""
    base = []
    while not (report := check_cover(c, base)).ok:
        base.append(report.missed[0][1][0])
    return tuple(base)
