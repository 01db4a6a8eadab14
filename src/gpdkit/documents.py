"""Plain-text documents for the objects the command line works with.

The format is line oriented and UTF-8 encoded.  ``#`` starts a comment,
blank lines are ignored, and nesting is by indentation (spaces only,
consistent within a block).  A line ``key: value`` is an entry; a line
``key:`` opens a nested block; a line without a colon is raw content
(relation equations, array rows).  Keys may contain spaces where a table
is keyed by several names, as in ``a b: c``.

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

Words use ``e`` for an edge and ``e^-1`` for its reverse.  Names may not
contain whitespace, ``:``, ``#``, ``=``, or ``^``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .core import ValidationError, build_groupoid, finite_group, from_group, perm_mul
from .dblgpd import CUBE_EDGES, Cube, LabeledSquare, make_square
from .dblgpd import cube as build_cube
from .presentations import GroupoidPresentation, Quiver, Word, empty_word, quiver
from .vankampen import _complex_on, cover
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


@dataclass(slots=True)
class _Node:
    line: int
    key: object  # str for entries, None for raw lines
    value: str
    indent: int  # the column the line's text starts in
    children: list = field(default_factory=list)


def _tree(text):
    """Indentation tree of entry and raw nodes.  Blank and comment-only
    lines are skipped before the indentation is looked at."""
    root = _Node(0, None, "", -1)
    stack = [root]
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        content = rawline.split("#", 1)[0].rstrip()
        if not content:
            continue
        body = content.lstrip()
        lead = content[: len(content) - len(body)]
        if "\t" in lead:
            raise ParseError("tabs are not allowed in indentation", lineno)
        indent = len(lead) - len(lead.lstrip(" "))
        if ":" in body:
            key, _, value = body.partition(":")
            key = key.strip()
            if not key:
                raise ParseError("empty key", lineno)
            node = _Node(lineno, key, value.strip(), indent)
        else:
            node = _Node(lineno, None, body, indent)
        while indent <= stack[-1].indent:
            stack.pop()
        parent = stack[-1]
        siblings = parent.children
        if siblings:
            if indent != siblings[0].indent:
                raise ParseError("inconsistent indentation", lineno)
        elif parent is not root:
            # The first child checks its parent once for all its siblings.
            if parent.key is None:
                raise ParseError("raw lines cannot have nested lines", lineno)
            if parent.value:
                raise ParseError(
                    f"entry {parent.key!r} has both a value and nested lines", lineno
                )
        siblings.append(node)
        stack.append(node)
    return root


def _entries(node):
    return [c for c in node.children if c.key is not None]


def _raws(node):
    return [c for c in node.children if c.key is None]


def _find(node, key):
    hits = [c for c in node.children if c.key == key]
    if len(hits) > 1:
        raise ParseError(f"duplicate section {key!r}", hits[1].line)
    return hits[0] if hits else None


def _need(node, key, line):
    hit = _find(node, key)
    if hit is None:
        raise ParseError(f"missing section {key!r}", line)
    return hit


def _value_of(node, key, line, required=True):
    hit = _find(node, key)
    if hit is None:
        if required:
            raise ParseError(f"missing entry {key!r}", line)
        return None
    if hit.children:
        raise ParseError(f"entry {key!r} must be a single line", hit.line)
    return hit.value


def _names(text, line):
    names = text.split()
    for n in names:
        if not _FORBIDDEN.isdisjoint(n):
            raise ParseError(f"bad name {n!r}", line)
    return names


def _block(node):
    if node.value:
        raise ParseError(f"section {node.key!r} must not carry a value", node.line)
    return node


def _group_of(node):
    name = _value_of(node, "name", node.line, required=False) or ""
    perms = _find(node, "perms")
    if perms is not None:
        _block(perms)
        degree_text = _value_of(node, "degree", node.line)
        try:
            degree = int(degree_text)
        except ValueError:
            raise ParseError(f"degree must be an integer, got {degree_text!r}", node.line)
        elements = []
        images = {}
        for row in _entries(perms):
            if row.children:
                raise ParseError("permutation rows take no nested lines", row.line)
            if row.key in images:
                raise ParseError(f"duplicate element {row.key!r}", row.line)
            try:
                perm = tuple(int(t) for t in row.value.split())
            except ValueError:
                raise ParseError("permutation images must be integers", row.line)
            if sorted(perm) != list(range(degree)):
                raise ParseError(
                    f"row is not a permutation of 0..{degree - 1}", row.line
                )
            elements.append(row.key)
            images[row.key] = perm
        if not elements:
            raise ParseError("perms section is empty", perms.line)
        lookup = {v: k for k, v in images.items()}
        table = {}
        for a in elements:
            for b in elements:
                prod = perm_mul(images[a], images[b])
                if prod not in lookup:
                    raise ParseError(
                        f"product of {a!r} and {b!r} is not listed", perms.line
                    )
                table[(a, b)] = lookup[prod]
        unit = lookup.get(tuple(range(degree)))
        if unit is None:
            raise ParseError("identity permutation is not listed", perms.line)
        return finite_group(tuple(elements), table, unit=unit, name=name)
    elements = tuple(_names(_value_of(node, "elements", node.line), node.line))
    unit = _value_of(node, "unit", node.line, required=False)
    tbl = _need(node, "table", node.line)
    _block(tbl)
    table = {}
    for row in _entries(tbl):
        if row.children:
            raise ParseError("table rows take no nested lines", row.line)
        x = row.key
        if x not in elements:
            raise ParseError(f"unknown element {x!r}", row.line)
        products = _names(row.value, row.line)
        if len(products) != len(elements):
            raise ParseError(
                f"row for {x!r} needs {len(elements)} products", row.line
            )
        for y, p in zip(elements, products):
            if (x, y) in table:
                raise ParseError(f"duplicate row for {x!r}", row.line)
            table[(x, y)] = p
    return finite_group(elements, table, unit=unit, name=name)


def _groupoid_of(node):
    name = _value_of(node, "name", node.line, required=False) or ""
    objects = tuple(_names(_value_of(node, "objects", node.line), node.line))
    arrows_node = _block(_need(node, "arrows", node.line))
    arrows, src, tgt = [], {}, {}
    for row in _entries(arrows_node):
        ends = _names(row.value, row.line)
        if len(ends) != 2:
            raise ParseError("arrow rows are 'id: src tgt'", row.line)
        arrows.append(row.key)
        src[row.key], tgt[row.key] = ends
    comp_node = _block(_need(node, "comp", node.line))
    comp = {}
    for row in _entries(comp_node):
        pair = _names(row.key, row.line)
        if len(pair) != 2:
            raise ParseError("composition rows are 'a b: c'", row.line)
        comp[(pair[0], pair[1])] = row.value.strip()
    return build_groupoid(objects, tuple(arrows), src, tgt, comp, name=name)


def _quiver_of(node):
    vertices = tuple(_names(_value_of(node, "vertices", node.line), node.line))
    edges_node = _block(_need(node, "edges", node.line))
    triples = []
    for row in _entries(edges_node):
        ends = _names(row.value, row.line)
        if len(ends) != 2:
            raise ParseError("edge rows are 'id: src tgt'", row.line)
        if row.key == "1":
            raise ParseError("edge name '1' is reserved for the empty word", row.line)
        triples.append((row.key, ends[0], ends[1]))
    return quiver(vertices, triples)


def _word_of(tokens, q, line, at=None):
    """The word ``tokens`` spell over ``q``, built and checked in one pass
    over the tokens: each is split off its ``^-1`` and looked up, and its
    ends are kept for the chain check at the end, so an unknown edge
    anywhere in the word is reported before a letter that does not chain.
    ``at`` places the empty word ``1``."""
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


def _presentation_of(node):
    q = _quiver_of(node)
    relations = []
    rel_node = _find(node, "relations")
    if rel_node is not None:
        _block(rel_node)
        for row in _raws(rel_node):
            if "=" not in row.value:
                raise ParseError("relations are 'word = word'", row.line)
            lhs_text, rhs_text = row.value.split("=", 1)
            lhs_tokens, rhs_tokens = lhs_text.split(), rhs_text.split()
            if lhs_tokens == ["1"] and rhs_tokens == ["1"]:
                raise ParseError("a relation needs a nonempty side", row.line)
            if lhs_tokens == ["1"]:
                rhs = _word_of(rhs_tokens, q, row.line)
                lhs = _word_of(lhs_tokens, q, row.line, at=rhs.src)
            else:
                lhs = _word_of(lhs_tokens, q, row.line)
                rhs = _word_of(rhs_tokens, q, row.line, at=lhs.src)
            if (lhs.src, lhs.tgt) != (rhs.src, rhs.tgt):
                raise ParseError("relation sides are not coterminal", row.line)
            relations.append((lhs, rhs))
    # Each side was checked over ``q`` as it was built, and the sides are
    # coterminal, so ``validate`` would only walk them again.
    return GroupoidPresentation(quiver=q, relations=tuple(relations))


def _complex_of(node):
    q = _quiver_of(node)
    faces = []
    faces_node = _find(node, "faces")
    if faces_node is not None:
        _block(faces_node)
        for row in _entries(faces_node):
            tokens = row.value.split()
            if len(tokens) == 2 and tokens[0] == "1":  # an empty boundary
                if tokens[1] not in q.vertex_set:
                    raise ParseError(f"unknown vertex {tokens[1]!r}", row.line)
                w = empty_word(tokens[1])
            else:
                w = _word_of(tokens, q, row.line)
            faces.append((row.key, w))
    return _complex_on(q, faces)


def _cover_of(node):
    cx = _complex_of(_block(_need(node, "complex", node.line)))
    u_cells = _names(_value_of(node, "u", node.line), node.line)
    v_cells = _names(_value_of(node, "v", node.line), node.line)
    return cover(cx, u_cells, v_cells)


def _xmod_of(node):
    name = _value_of(node, "name", node.line, required=False) or ""
    pg = _group_of(_block(_need(node, "p", node.line)))
    mg = _group_of(_block(_need(node, "m", node.line)))
    p = from_group(pg, name=pg.name)
    mu_node = _block(_need(node, "mu", node.line))
    mu = {}
    for row in _entries(mu_node):
        if row.key not in mg.elements:
            raise ParseError(f"unknown fibre element {row.key!r}", row.line)
        if row.value not in pg.elements:
            raise ParseError(f"unknown base element {row.value!r}", row.line)
        mu[row.key] = row.value
    action_node = _block(_need(node, "action", node.line))
    action = {}
    for row in _entries(action_node):
        pair = _names(row.key, row.line)
        if len(pair) != 2:
            raise ParseError("action rows are 'm p: m2'", row.line)
        m, q = pair
        if m not in mg.elements or q not in pg.elements:
            raise ParseError(f"unknown pair {row.key!r}", row.line)
        if row.value not in mg.elements:
            raise ParseError(f"unknown fibre element {row.value!r}", row.line)
        action[(m, q)] = row.value
    for m in mg.elements:
        if m not in mu:
            raise ParseError(f"mu is missing a row for {m!r}", mu_node.line)
        for q in pg.elements:
            if (m, q) not in action:
                raise ParseError(
                    f"action is missing a row for {m!r} {q!r}", action_node.line
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
    xm = _xmod_of(_block(_need(node, "xmod", node.line)))
    sq_node = _block(_need(node, "squares", node.line))
    squares = {}
    for row in _entries(sq_node):
        parts = _names(row.value, row.line)
        if len(parts) != 5:
            raise ParseError(
                "square rows are 's: label top left right bottom'", row.line
            )
        if row.key in squares:
            raise ParseError(f"duplicate square {row.key!r}", row.line)
        label, top, left, right, bottom = parts
        try:
            squares[row.key] = make_square(
                xm, label, top=top, left=left, right=right, bottom=bottom
            )
        except ValidationError as exc:
            raise ParseError(f"square {row.key!r}: {exc}", row.line)
    array = []
    array_node = _find(node, "array")
    if array_node is not None:
        _block(array_node)
        for row in _raws(array_node):
            names = row.value.split()
            for n in names:
                if n not in squares:
                    raise ParseError(f"unknown square {n!r}", row.line)
            array.append(tuple(names))
    return SquaresDoc(xm=xm, squares=squares, array=tuple(array))


@dataclass(frozen=True)
class CubeDoc:
    group: object
    cube: Cube


def _cube_of(node):
    group = _group_of(_block(_need(node, "group", node.line)))
    edges_node = _block(_need(node, "edges", node.line))
    edges = {}
    for row in _entries(edges_node):
        if row.key not in CUBE_EDGES:
            raise ParseError(f"unknown cube edge {row.key!r}", row.line)
        if row.key in edges:
            raise ParseError(f"duplicate cube edge {row.key!r}", row.line)
        edges[row.key] = row.value.strip()
    try:
        return CubeDoc(group=group, cube=build_cube(group, **edges))
    except ValidationError as exc:
        raise ParseError(str(exc), edges_node.line)


@dataclass(frozen=True)
class EHDoc:
    elements: tuple
    op1: dict
    op2: dict
    unit1: object
    unit2: object


def _eh_of(node):
    elements = tuple(_names(_value_of(node, "elements", node.line), node.line))
    unit1 = _value_of(node, "unit1", node.line)
    unit2 = _value_of(node, "unit2", node.line)
    ops = {}
    for key in ("op1", "op2"):
        op_node = _block(_need(node, key, node.line))
        table = {}
        for row in _entries(op_node):
            pair = _names(row.key, row.line)
            if len(pair) != 2:
                raise ParseError(f"{key} rows are 'a b: c'", row.line)
            table[(pair[0], pair[1])] = row.value.strip()
        ops[key] = table
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
    kind = _value_of(root, "kind", 1)
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
    pad = indent
    lines = []
    if g.name:
        lines.append(f"{pad}name: {g.name}")
    lines.append(f"{pad}elements: {' '.join(str(e) for e in g.elements)}")
    lines.append(f"{pad}unit: {g.unit}")
    lines.append(f"{pad}table:")
    for x in g.elements:
        row = " ".join(str(g.table[(x, y)]) for y in g.elements)
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
    pg = xm.p
    mg = xm.m["*"]
    group = finite_group(
        pg.arrows,
        {k: v for k, v in pg.comp.items()},
        unit=pg.id_of["*"],
        name=pg.name,
    )
    lines = []
    if xm.name:
        lines.append(f"{pad}name: {xm.name}")
    lines.append(f"{pad}p:")
    lines.extend(_render_group(group, pad + "  "))
    lines.append(f"{pad}m:")
    lines.extend(_render_group(mg, pad + "  "))
    lines.append(f"{pad}mu:")
    for m in mg.elements:
        lines.append(f"{pad}  {m}: {xm.mu['*'][m]}")
    lines.append(f"{pad}action:")
    for m in mg.elements:
        for q in group.elements:
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
