"""Every cover of a small complex (this module holds no tests itself).

``subcomplexes`` grows the incidence-closed subcomplexes from the empty
one, a cell at a time, adding a cell once its boundary cells are in;
``covers`` pairs them, unordered, wherever the two pieces hold every cell
between them.  ``greedy_base`` picks a base set that meets every component
of U, V and W.  ``SMALL`` holds the five small complexes whose covers are
counted in ROADMAP item 17: 27, 98, 8, 6 and 30 covers, 169 in all;
``torus_2x2`` is the sixth, with 569.
"""

from itertools import combinations_with_replacement

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


def torus_2x2():
    """The 2 x 2 torus grid: vertices ``v{i}{j}``, an edge ``h{i}{j}`` to
    the next vertex of its row and ``u{i}{j}`` to the next of its column,
    both wrapping, and the square face ``f{i}{j}`` they start."""
    at = [(i, j) for i in range(2) for j in range(2)]

    def v(i, j):
        return f"v{i % 2}{j % 2}"

    edges = [(f"h{i}{j}", v(i, j), v(i, j + 1)) for i, j in at]
    edges += [(f"u{i}{j}", v(i, j), v(i + 1, j)) for i, j in at]
    faces = [
        (f"f{i}{j}", [(f"h{i}{j}", 1), (f"u{i}{(j + 1) % 2}", 1),
                      (f"h{(i + 1) % 2}{j}", -1), (f"u{i}{j}", -1)])
        for i, j in at
    ]
    return complex2([v(i, j) for i, j in at], edges, faces)


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
    """Every incidence-closed subcomplex of ``x``, each once, grown a cell
    at a time from the empty one.  They come in the order that closing
    every selection of cells, smallest first, would find them: the least
    selection that closes to a subcomplex is its maximal cells, so they are
    sorted by how many those are, then by their positions."""
    cells = _cells(x)
    pos = {c: i for i, c in enumerate(cells)}
    below = {c: frozenset(_cells(close_cells(x, [c]))) - {c} for c in cells}
    level, every = [frozenset()], [frozenset()]
    while level:
        level = list(dict.fromkeys(
            s | {c} for s in level for c in cells if c not in s and below[c] <= s
        ))
        every += level

    def first_selection(s):
        top = s.difference(*(below[c] for c in s))
        return len(top), sorted(map(pos.__getitem__, top))

    return [close_cells(x, s) for s in sorted(every, key=first_selection)]


def covers(x):
    """Every unordered pair of subcomplexes U, V of ``x`` with U ∪ V = X, as
    covers built by ``cover``."""
    every = set(_cells(x))
    subs = [(sub, set(_cells(sub))) for sub in subcomplexes(x)]
    return [
        cover(x, _cells(u), _cells(v))
        for (u, held_u), (v, held_v) in combinations_with_replacement(subs, 2)
        if held_u | held_v == every
    ]


def greedy_base(c):
    """A base set meeting every component of U, V and W: the first vertex
    of the first component missed, added until none is."""
    base = []
    while not (report := check_cover(c, base)).ok:
        base.append(report.missed[0][1][0])
    return tuple(base)
