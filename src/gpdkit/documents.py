"""Plain-text documents for the objects the command line works with.

The format is line oriented and UTF-8 encoded.  ``#`` starts a comment,
blank lines are ignored, and nesting is by indentation (spaces only,
consistent within a block).  A line ``key: value`` is an entry; a line
``key:`` opens a nested block; a line without a colon is raw content
(relation equations, array rows); the rows of one table are all of one
form.  Keys may contain spaces where a table is keyed by several names,
as in ``a b: c``.

Every document starts with ``kind: <kind>``.  The kinds:

  group          elements/unit/table, or degree/perms (as permutation images)
  groupoid       objects, arrows ``id: src tgt``, comp ``a b: c``
  quiver         vertices, edges ``id: src tgt``
  presentation   a quiver plus relations ``word = word`` (``1`` is empty)
  complex        a quiver plus faces ``f: closed word``, or ``f: 1 v`` for
                 a face whose boundary is the empty word at vertex ``v``
  cover          a nested complex plus ``u:``/``v:`` cell lists
  xmod           nested ``p:``/``m:`` groups, ``mu`` rows ``m: p``,
                 ``action`` rows ``m p: m2``
  squares        a nested xmod, squares ``s: label top left right bottom``,
                 and an optional ``array:`` of name rows
  cube           a nested group and the twelve named edges
  eh             elements, unit1, unit2, and two operation tables

Words use ``e`` for an edge and ``e^-1`` for its reverse.  Names, edge
ids among them, may not contain whitespace, ``:``, ``#``, ``=``, or ``^``.

A ``ParseError`` names the line of the entry at fault: a bad name or
``degree`` at the line of its entry, a missing entry or section at the line
of the section it belongs to, or line 1 at the top of a document.

The flat ``key: value`` rows under a block header are kept as one slice
of lines (``_Rows``), split with string methods over the whole block.
Quivers, complexes and presentations read them into the integer rows
their checked values keep (see ``presentations`` and ``vankampen``): edge
rows in bulk, each word token by token into signed edge indexes.  A
complex builds no ``Word``; a presentation names its relation words from
one letter table.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass, field, replace
from itertools import chain, compress, islice, repeat
from operator import indexOf

from .core import ValidationError, build_groupoid, finite_group, from_group
from .core import perm_mul
from .dblgpd import CUBE_EDGES, Cube, LabeledSquare, make_square
from .dblgpd import cube as build_cube
from .presentations import (
    GroupoidPresentation,
    Quiver,
    _identity,
    _letter_table,
    _named,
    _retracted,
)
from .vankampen import _complex_on, _distinct, cover
from .xmod import CrossedModule, crossed_module


class ParseError(Exception):
    """A document could not be read; carries the 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


KINDS = (
    "group",
    "groupoid",
    "quiver",
    "presentation",
    "complex",
    "cover",
    "xmod",
    "squares",
    "cube",
    "eh",
)

_FORBIDDEN = frozenset(" \t:#=^")


def _tree(text):
    """Indentation tree of entry and raw nodes, each the tuple ``(line, key,
    value, indent, children)``: ``key`` is None for a raw line and
    ``indent`` the column its text starts in.  Blank and comment-only
    lines are skipped before the indentation is looked at.  A header's flat
    rows are kept as one ``_Rows`` (``_flat``), other lines one by one."""
    root = (0, None, "", -1, [])
    stack = [root]
    lines = text.splitlines()
    numbered = enumerate(lines, start=1)
    for i, content in numbered:
        if "#" in content:
            content = content.partition("#")[0]
        content = content.rstrip()
        if not content:
            continue
        body = content.lstrip()
        indent = len(content) - len(body)
        if indent:
            rest = content[:indent].lstrip(" ")
            if rest:  # whitespace other than spaces after the leading ones
                if "\t" in rest:
                    raise ParseError("tabs are not allowed in indentation", i)
                indent -= len(rest)
        key, colon, value = body.partition(":")
        if colon:
            key = key.strip()
            if not key:
                raise ParseError("empty key", i)
            node = (i, key, value.strip(), indent, [])
        else:
            node = (i, None, body, indent, [])
        while indent <= stack[-1][3]:
            stack.pop()
        parent = stack[-1]
        siblings = parent[4]
        if siblings:
            if indent != siblings[0][3]:
                raise ParseError("inconsistent indentation", i)
        elif parent is not root:
            # The first child checks its parent once for all its siblings.
            if parent[1] is None:
                raise ParseError("raw lines cannot have nested lines", i)
            if parent[2]:
                raise ParseError(
                    f"entry {parent[1]!r} has both a value and nested lines", i
                )
        flat = colon and not node[2] and len(lines) >= i + _SHORT and _flat(lines, i, indent)
        if flat:
            # Kept off the stack: a later line deeper than the header but
            # shallower than its rows is refused against its siblings.
            siblings.append((*node[:4], flat[0]))
            next(islice(numbered, flat[1] - i - 1, None))  # past its rows
            continue
        siblings.append(node)
        stack.append(node)
    return root


# Flat ``key: value`` rows at one indent under a block header, as ``_tree``
# keeps them: the rows' line numbers, indent, keys, and unstripped values.
_Rows = namedtuple("_Rows", "lines indent keys values")
# Fewer rows than this are read line by line: a slice would cost more.
_SHORT = 32


def _flat(lines, i, header):
    """The rows from index ``i`` of ``lines`` on that a header at indent
    ``header`` holds, up to the first line neither on the first row's
    indent nor blank or comment-only, as ``(_Rows, index past them)``.
    They are found, checked and split with string methods over the whole
    slice.  None if they are few (``_SHORT``), a line is deeper (even a
    blank one), or a row has no key or starts with other whitespace:
    ``_tree`` then reads them one by one."""
    n = len(lines)
    if not lines[i + _SHORT - 1].startswith(" ", header):
        return None
    while i < n and not lines[i].partition("#")[0].strip():
        i += 1
    indent = len(lines[i]) - len(lines[i].lstrip(" ")) if i < n else 0
    pad, end = " " * indent, i
    if indent <= header or any(map(str.startswith, lines[i:i + _SHORT], repeat(pad + " "))):
        return None  # a nested block shows a deeper line early
    while True:  # runs of lines on ``pad``, maybe with blank lines between
        end += indexOf(map(str.startswith, chain(islice(lines, end, None), [""]), repeat(pad)), False)
        k = end
        while k < n and not lines[k].partition("#")[0].strip():
            k += 1
        if k == n or not lines[k].startswith(pad):
            break
        end = k
    if end - i < _SHORT:
        return None
    text = "\n".join(lines[i:end])
    if "#" in text:
        text = re.sub("#.*", "", text)
    if "\n" + pad + " " in text:  # a deeper line (the first row is not)
        return None
    numbers = range(i + 1, end + 1)
    rows = text.replace("\n" + pad, "\n")[indent:].split("\n")
    if not all(map(str.strip, rows)):  # blank rows go
        keep = list(map(str.strip, rows))
        numbers, rows = list(compress(numbers, keep)), list(compress(rows, keep))
    if (not text.isascii() or "\t" in text or "\x1f" in text) and any(
        row[0].isspace() for row in rows  # whitespace other than spaces
    ):
        return None
    keys, colons, values = zip(*map(str.partition, rows, repeat(":")))
    keys = tuple(map(str.strip, keys))
    if "" in colons or "" in keys:  # a raw line, or an empty key
        return None
    return _Rows(numbers, indent, keys, values), end


def _kids(node):
    """The children of ``node``, those of a ``_Rows`` as nodes (with no
    children, ``()``)."""
    k = node[4]
    if type(k) is _Rows:
        return list(zip(k.lines, k.keys, map(str.strip, k.values), repeat(k.indent), repeat(())))
    return k


def _rows(node):
    """The line numbers, keys and values of the entries of ``node``, in
    bulk from a ``_Rows``; a value may still need stripping."""
    kids = node[4]
    if type(kids) is _Rows:
        return kids.lines, kids.keys, kids.values
    return (*zip(*_entries(node)),)[:3] or ((), (), ())


def _entries(node, raw=False):
    """The children of ``node``: entries, or raw lines with ``raw``.  A
    child of the other form is refused at its line."""
    kids = _kids(node)
    for c in kids:
        if (c[1] is None) is not raw:
            wrong = "an entry among raw lines" if raw else "a raw line among 'key: value' entries"
            raise ParseError(wrong, c[0])
    return kids


def _raws(node):
    return _entries(node, raw=True)


def _find(node, key):
    kids = node[4] if type(node[4]) is not _Rows else _kids(node)
    hits = [c for c in kids if c[1] == key]
    if len(hits) > 1:
        raise ParseError(f"duplicate section {key!r}", hits[1][0])
    return hits[0] if hits else None


def _need(node, key):
    """The section ``key`` of ``node``.  A missing one is reported at the
    line of ``node``: line 1 at the top of a document."""
    hit = _find(node, key)
    if hit is None:
        raise ParseError(f"missing section {key!r}", node[0] or 1)
    return hit


def _value_of(node, key, required=True):
    """The value of the one-line entry ``key`` of ``node`` and the entry's
    line, or ``(None, None)`` when it is absent and not required.  A
    missing one is reported as ``_need`` reports a section."""
    hit = _find(node, key)
    if hit is None:
        if required:
            raise ParseError(f"missing entry {key!r}", node[0] or 1)
        return None, None
    if hit[4]:
        raise ParseError(f"entry {key!r} must be a single line", hit[0])
    return hit[2], hit[0]


def _names(text, line):
    names = text.split()
    # The split leaves no whitespace, so only these can make a name bad.
    if ":" in text or "=" in text or "^" in text or "#" in text:
        for n in names:
            if not _FORBIDDEN.isdisjoint(n):
                raise ParseError(f"bad name {n!r}", line)
    return names


def _block(node):
    if node[2]:
        raise ParseError(f"section {node[1]!r} must not carry a value", node[0])
    return node


def _group_of(node):
    name = _value_of(node, "name", required=False)[0] or ""
    perms = _find(node, "perms")
    if perms is not None:
        _block(perms)
        degree_text, degree_line = _value_of(node, "degree")
        try:
            degree = int(degree_text)
        except ValueError:
            raise ParseError(
                f"degree must be an integer, got {degree_text!r}", degree_line
            )
        elements = []
        images, lookup = {}, {}
        for line, key, value, _, kids in _entries(perms):
            if kids:
                raise ParseError("permutation rows take no nested lines", line)
            if key in images:
                raise ParseError(f"duplicate element {key!r}", line)
            try:
                perm = tuple(int(t) for t in value.split())
            except ValueError:
                raise ParseError("permutation images must be integers", line)
            if sorted(perm) != list(range(degree)):
                raise ParseError(f"row is not a permutation of 0..{degree - 1}", line)
            if perm in lookup:
                raise ParseError(
                    f"rows {lookup[perm]!r} and {key!r} list the same permutation", line
                )
            elements.append(key)
            images[key] = perm
            lookup[perm] = key
        if not elements:
            raise ParseError("perms section is empty", perms[0])
        table = {}
        for a in elements:
            for b in elements:
                prod = perm_mul(images[a], images[b])
                if prod not in lookup:
                    raise ParseError(
                        f"product of {a!r} and {b!r} is not listed", perms[0]
                    )
                table[(a, b)] = lookup[prod]
        unit = lookup.get(tuple(range(degree)))
        if unit is None:
            raise ParseError("identity permutation is not listed", perms[0])
        return finite_group(tuple(elements), table, unit=unit, name=name)
    elements = tuple(_names(*_value_of(node, "elements")))
    unit = _value_of(node, "unit", required=False)[0]
    tbl = _block(_need(node, "table"))
    table = {}
    for line, x, value, _, kids in _entries(tbl):
        if kids:
            raise ParseError("table rows take no nested lines", line)
        if x not in elements:
            raise ParseError(f"unknown element {x!r}", line)
        products = _names(value, line)
        if len(products) != len(elements):
            raise ParseError(f"row for {x!r} needs {len(elements)} products", line)
        for y, p in zip(elements, products):
            if (x, y) in table:
                raise ParseError(f"duplicate row for {x!r}", line)
            table[(x, y)] = p
    return finite_group(elements, table, unit=unit, name=name)


def _groupoid_of(node):
    name = _value_of(node, "name", required=False)[0] or ""
    objects = tuple(_names(*_value_of(node, "objects")))
    arrows, src, tgt = [], {}, {}
    for line, key, value, _, _ in _entries(_block(_need(node, "arrows"))):
        ends = _names(value, line)
        if len(ends) != 2:
            raise ParseError("arrow rows are 'id: src tgt'", line)
        arrows.append(key)
        src[key], tgt[key] = ends
    comp = {}
    for line, key, value, _, _ in _entries(_block(_need(node, "comp"))):
        pair = _names(key, line)
        if len(pair) != 2:
            raise ParseError("composition rows are 'a b: c'", line)
        if tuple(pair) in comp:
            raise ParseError(f"duplicate row for {' '.join(pair)!r}", line)
        comp[tuple(pair)] = value.strip()
    return build_groupoid(objects, tuple(arrows), src, tgt, comp, name=name)


def _quiver_of(node):
    """The checked quiver a document spells.  The edge rows are read in
    bulk; only when some row is bad are they read again one by one, so
    the first bad row is reported as that reading finds it."""
    vertices = tuple(_names(*_value_of(node, "vertices")))
    lines, edges, values = _rows(_block(_need(node, "edges")))
    ends = list(map(str.split, values))
    text, keys = "".join(values), " ".join(edges)
    if (
        {*map(len, ends)} - {2} or "1" in edges
        or ":" in text or "=" in text or "^" in text or "#" in text
        or "=" in keys or "^" in keys or len(keys.split()) != len(edges)
    ):
        for line, key, value in zip(lines, edges, values):
            if [key] != key.split() or not _FORBIDDEN.isdisjoint(key):
                raise ParseError(f"bad name {key!r}", line)
            if len(_names(value, line)) != 2:
                raise ParseError("edge rows are 'id: src tgt'", line)
            if key == "1":
                raise ParseError("edge name '1' is reserved for the empty word", line)
    src, tgt = zip(*ends) if ends else ((), ())
    q = Quiver(vertices=vertices, edges=edges, esrc=dict(zip(edges, src)), etgt=dict(zip(edges, tgt)))
    return q.validate()


def _row_of(tokens, q, line, at=None):
    """The word ``tokens`` spell over the checked quiver ``q``, read in one
    pass over the tokens into ``(src, tgt, row)``: vertex indexes and the
    signed edge indexes of its letters (see ``presentations``).  Each token
    is split off its ``^-1``, looked up, and chained to the letter before
    it.  A break in the chain is reported only after the last token, so an
    unknown edge anywhere in the word comes first.  ``at``, a vertex
    index, places the empty word ``1``."""
    if tokens == ["1"]:
        if at is None:
            raise ParseError(
                "an empty word is only allowed opposite a nonempty side", line
            )
        return at, at, ()
    _, epos, src, tgt = q._view
    row = []
    chained = True
    for t in tokens:
        if t.endswith("^-1"):
            j = epos.get(t[:-3])
            if j is None:
                raise ParseError(f"unknown edge {t[:-3]!r}", line)
            if row and tgt[j] != here:
                chained = False
            here = src[j]
            row.append(~j)
        else:
            j = epos.get(t)
            if j is None:
                raise ParseError(f"unknown edge {t!r}", line)
            if row and src[j] != here:
                chained = False
            here = tgt[j]
            row.append(j)
    if not row:
        raise ParseError("word does not chain: empty word needs a vertex", line)
    if not chained:
        raise ParseError("word does not chain: letters do not chain", line)
    j = row[0]
    return (src[j] if j >= 0 else tgt[~j]), here, tuple(row)


def _presentation_of(node):
    q = _quiver_of(node)
    letters = _letter_table(q.edges)
    identity = _identity(len(q.edges))
    relations, rows = [], []
    rel_node = _find(node, "relations")
    if rel_node is not None:
        for line, _, value, _, _ in _raws(_block(rel_node)):
            if "=" not in value:
                raise ParseError("relations are 'word = word'", line)
            lhs_text, rhs_text = value.split("=", 1)
            lhs_tokens, rhs_tokens = lhs_text.split(), rhs_text.split()
            if lhs_tokens == ["1"] and rhs_tokens == ["1"]:
                raise ParseError("a relation needs a nonempty side", line)
            if lhs_tokens == ["1"]:
                rhs = _row_of(rhs_tokens, q, line)
                lhs = _row_of(lhs_tokens, q, line, at=rhs[0])
            else:
                lhs = _row_of(lhs_tokens, q, line)
                rhs = _row_of(rhs_tokens, q, line, at=lhs[0])
            if lhs[:2] != rhs[:2]:
                raise ParseError("relation sides are not coterminal", line)
            relations.append(tuple(_named(q, *side, letters) for side in (lhs, rhs)))
            relator = lhs[2] + tuple(~j for j in reversed(rhs[2]))
            rows.append((lhs[0], _retracted(relator, identity)))
    # Each side was read over ``q`` as it was built, and the sides are
    # coterminal, so the presentation keeps its relator rows at once.
    p = GroupoidPresentation(quiver=q, relations=tuple(relations))
    object.__setattr__(p, "_view", tuple(rows))
    return p


def _complex_of(node):
    """The complex a document spells, its faces read straight into int
    rows over the checked edge quiver: no word is named."""
    q = _quiver_of(node)
    vpos = q._view[0]
    faces, fbase, frows = (), [], []
    faces_node = _find(node, "faces")
    if faces_node is not None:
        lines, faces, values = _rows(_block(faces_node))
        for line, value in zip(lines, values):
            tokens = value.split()
            if len(tokens) == 2 and tokens[0] == "1":  # an empty boundary
                b = vpos.get(tokens[1])
                if b is None:
                    raise ParseError(f"unknown vertex {tokens[1]!r}", line)
                row = ()
            else:
                b, _, row = _row_of(tokens, q, line)
            fbase.append(b)
            frows.append(row)
    _distinct(tuple(faces))
    return _complex_on(q, faces, fbase, frows)


def _cover_of(node):
    cx = _complex_of(_block(_need(node, "complex")))
    return cover(cx, _names(*_value_of(node, "u")), _names(*_value_of(node, "v")))


def _xmod_of(node):
    name = _value_of(node, "name", required=False)[0] or ""
    pg = _group_of(_block(_need(node, "p")))
    mg = _group_of(_block(_need(node, "m")))
    p = from_group(pg, name=pg.name)
    mu_node = _block(_need(node, "mu"))
    mu = {}
    for line, key, value, _, _ in _entries(mu_node):
        if key not in mg.elements:
            raise ParseError(f"unknown fibre element {key!r}", line)
        if key in mu:
            raise ParseError(f"duplicate row for {key!r}", line)
        if value not in pg.elements:
            raise ParseError(f"unknown base element {value!r}", line)
        mu[key] = value
    action_node = _block(_need(node, "action"))
    action = {}
    for line, key, value, _, _ in _entries(action_node):
        pair = _names(key, line)
        if len(pair) != 2:
            raise ParseError("action rows are 'm p: m2'", line)
        m, q = pair
        if m not in mg.elements or q not in pg.elements:
            raise ParseError(f"unknown pair {key!r}", line)
        if (m, q) in action:
            raise ParseError(f"duplicate row for {' '.join(pair)!r}", line)
        if value not in mg.elements:
            raise ParseError(f"unknown fibre element {value!r}", line)
        action[(m, q)] = value
    for m in mg.elements:
        if m not in mu:
            raise ParseError(f"mu is missing a row for {m!r}", mu_node[0])
        for q in pg.elements:
            if (m, q) not in action:
                raise ParseError(
                    f"action is missing a row for {m!r} {q!r}", action_node[0]
                )
    return crossed_module(p, {"*": mg}, {"*": mu}, action, name=name)


@dataclass(frozen=True)
class SquaresDoc:
    xm: CrossedModule
    squares: dict
    array: tuple  # rows of names, or () when absent

    def grid(self):
        return [[self.squares[n] for n in row] for row in self.array]

    def listed(self):
        return tuple(self.squares.values())


def _squares_of(node):
    xm = _xmod_of(_block(_need(node, "xmod")))
    squares = {}
    for line, key, value, _, _ in _entries(_block(_need(node, "squares"))):
        parts = _names(value, line)
        if len(parts) != 5:
            raise ParseError("square rows are 's: label top left right bottom'", line)
        if key in squares:
            raise ParseError(f"duplicate square {key!r}", line)
        label, top, left, right, bottom = parts
        try:
            squares[key] = make_square(
                xm, label, top=top, left=left, right=right, bottom=bottom
            )
        except ValidationError as exc:
            raise ParseError(f"square {key!r}: {exc}", line)
    array = []
    array_node = _find(node, "array")
    if array_node is not None:
        for line, _, value, _, _ in _raws(_block(array_node)):
            names = value.split()
            for n in names:
                if n not in squares:
                    raise ParseError(f"unknown square {n!r}", line)
            array.append(tuple(names))
    return SquaresDoc(xm=xm, squares=squares, array=tuple(array))


@dataclass(frozen=True)
class CubeDoc:
    group: object
    cube: Cube


def _cube_of(node):
    group = _group_of(_block(_need(node, "group")))
    edges_node = _block(_need(node, "edges"))
    edges = {}
    for line, key, value, _, _ in _entries(edges_node):
        if key not in CUBE_EDGES:
            raise ParseError(f"unknown cube edge {key!r}", line)
        if key in edges:
            raise ParseError(f"duplicate cube edge {key!r}", line)
        edges[key] = value.strip()
    try:
        return CubeDoc(group=group, cube=build_cube(group, **edges))
    except ValidationError as exc:
        raise ParseError(str(exc), edges_node[0])


@dataclass(frozen=True)
class EHDoc:
    elements: tuple
    op1: dict
    op2: dict
    unit1: object
    unit2: object


def _eh_of(node):
    elements = tuple(_names(*_value_of(node, "elements")))
    unit1 = _value_of(node, "unit1")[0]
    unit2 = _value_of(node, "unit2")[0]
    ops = {}
    for op in ("op1", "op2"):
        table = {}
        for line, key, value, _, _ in _entries(_block(_need(node, op))):
            pair = _names(key, line)
            if len(pair) != 2:
                raise ParseError(f"{op} rows are 'a b: c'", line)
            if tuple(pair) in table:
                raise ParseError(f"duplicate row for {' '.join(pair)!r}", line)
            table[tuple(pair)] = value.strip()
        ops[op] = table
    return EHDoc(
        elements=elements, op1=ops["op1"], op2=ops["op2"], unit1=unit1, unit2=unit2
    )


@dataclass(frozen=True)
class Document:
    kind: str
    payload: object
    source: bytes = field(default=b"", compare=False, repr=False)  # bytes parsed


_INTERPRETERS = {
    "group": _group_of,
    "groupoid": _groupoid_of,
    "quiver": _quiver_of,
    "presentation": _presentation_of,
    "complex": _complex_of,
    "cover": _cover_of,
    "xmod": _xmod_of,
    "squares": _squares_of,
    "cube": _cube_of,
    "eh": _eh_of,
}


def parse_document(text):
    root = _tree(text)
    kind = _value_of(root, "kind")[0]
    if kind not in KINDS:
        raise ParseError(f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}", 1)
    return Document(kind=kind, payload=_INTERPRETERS[kind](root))


def load_document(path):
    """Read and parse the document at ``path``, keeping the bytes read as
    its ``source``.  An error raised once the bytes are read (bad UTF-8, a
    parse or validation failure) carries them as ``exc.source`` too, so a
    failed load can still be digested."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return replace(parse_document(_decoded(data)), source=data)
    except Exception as exc:
        exc.source = data
        raise


def _decoded(data):
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Number the line as ``_tree`` does: the bad byte ends the valid prefix.
        line = len((data[: exc.start].decode("utf-8") + "?").splitlines())
        raise ParseError(
            f"byte {data[exc.start]:#04x} is not valid UTF-8", line
        ) from None


def _render_group(g, indent=""):
    return _render_table(g.name, g.elements, g.unit, g.table, indent)


def _render_table(name, elements, unit, table, pad):
    lines = []
    if name:
        lines.append(f"{pad}name: {name}")
    lines.append(f"{pad}elements: {' '.join(str(e) for e in elements)}")
    lines.append(f"{pad}unit: {unit}")
    lines.append(f"{pad}table:")
    for x in elements:
        row = " ".join(str(table[(x, y)]) for y in elements)
        lines.append(f"{pad}  {x}: {row}")
    return lines


def _render_word(w):
    if not w.letters:
        return f"1 {w.src}"
    return " ".join(e if s > 0 else f"{e}^-1" for e, s in w.letters)


def _render_complex(x, indent=""):
    pad = indent
    lines = [
        f"{pad}vertices: {' '.join(str(v) for v in x.vertices)}",
        f"{pad}edges:",
    ]
    for e in x.edges:
        lines.append(f"{pad}  {e}: {x.esrc[e]} {x.etgt[e]}")
    if x.faces:
        lines.append(f"{pad}faces:")
        for f in x.faces:
            lines.append(f"{pad}  {f}: {_render_word(x.fboundary[f])}")
    return lines


def _render_xmod(xm, indent=""):
    pad = indent
    p, mg = xm.p, xm.m["*"]
    lines = []
    if xm.name:
        lines.append(f"{pad}name: {xm.name}")
    lines.append(f"{pad}p:")
    lines.extend(_render_table(p.name, p.arrows, p.id_of["*"], p.comp, pad + "  "))
    lines.append(f"{pad}m:")
    lines.extend(_render_group(mg, pad + "  "))
    lines.append(f"{pad}mu:")
    for m in mg.elements:
        lines.append(f"{pad}  {m}: {xm.mu['*'][m]}")
    lines.append(f"{pad}action:")
    for m in mg.elements:
        for q in p.arrows:
            lines.append(f"{pad}  {m} {q}: {xm.action[(m, q)]}")
    return lines


def render_document(doc):
    """Canonical text for a document; parsing it back gives equal payload."""
    kind = doc.kind
    lines = [f"kind: {kind}"]
    if kind == "group":
        lines.extend(_render_group(doc.payload))
    elif kind == "complex":
        lines.extend(_render_complex(doc.payload))
    elif kind == "cover":
        c = doc.payload
        lines.append("complex:")
        lines.extend(_render_complex(c.x, "  "))
        u_cells = tuple(c.u.vertices) + tuple(c.u.edges) + tuple(c.u.faces)
        v_cells = tuple(c.v.vertices) + tuple(c.v.edges) + tuple(c.v.faces)
        lines.append(f"u: {' '.join(str(a) for a in u_cells)}")
        lines.append(f"v: {' '.join(str(a) for a in v_cells)}")
    elif kind == "xmod":
        lines.extend(_render_xmod(doc.payload))
    elif kind == "squares":
        d = doc.payload
        lines.append("xmod:")
        lines.extend(_render_xmod(d.xm, "  "))
        lines.append("squares:")
        for name, s in d.squares.items():
            lines.append(
                f"  {name}: {s.label} {s.top} {s.left} {s.right} {s.bottom}"
            )
        if d.array:
            lines.append("array:")
            for row in d.array:
                lines.append(f"  {' '.join(row)}")
    elif kind == "cube":
        d = doc.payload
        lines.append("group:")
        lines.extend(_render_group(d.group, "  "))
        lines.append("edges:")
        for e in CUBE_EDGES:
            lines.append(f"  {e}: {getattr(d.cube, e)}")
    elif kind == "eh":
        d = doc.payload
        lines.append(f"elements: {' '.join(str(e) for e in d.elements)}")
        lines.append(f"unit1: {d.unit1}")
        lines.append(f"unit2: {d.unit2}")
        for key, op in (("op1", d.op1), ("op2", d.op2)):
            lines.append(f"{key}:")
            for a in d.elements:
                for b in d.elements:
                    lines.append(f"  {a} {b}: {op[(a, b)]}")
    else:
        raise ValidationError(f"no renderer for kind {kind!r}", witness=kind)
    return "\n".join(lines) + "\n"
