"""Where the library may keep or test a view (an IndexView, an XModView, a
quiver's int rows, a complex's edge quiver and face rows, a presentation's
relator rows, the checked quiver of a presentation morphism, or a cover's
W), read off the source's syntax tree.

Groups, groupoids, quivers, complexes, presentations, their morphisms and
covers are validated on first read, then kept: the view in ``_view`` is set
only by the code that validated the value or built it from checked parts
(the parser and ``_presented`` read each relation word as they build
it, ``complex2``, the parser and ``restrict`` build their complexes
through ``_complex_on``, and ``cover`` builds its pieces closed, so
``_covering`` keeps W for it and for ``SubcomplexCover.validate``), and
only the readers that
validate on first read ask whether it is set yet.  Any other writer would lend a view to a value
nobody checked, and any other test of ``_view`` would bring back a second
path for values without one.  Nothing else is written onto a frozen value
but the inverse map a group's validation reads off its table, so no side
cache rides along with the view.

The writers that build a value from checked parts, each on purpose:

- ``_presented`` retracts the face rows of a checked complex through a
  forest of its own edges, so each relator row is read off checked rows
  (``_fundamental`` calls it on the whole complex's ``spanning_tree``
  forest, ``_piece`` on a piece's).
- ``pushout`` renumbers the kept relator rows of its checked legs'
  targets and the legs' kept image rows, so the apex's rows are those
  ``GroupoidPresentation.validate`` would read off its relations, and
  each injection sends an edge to its own letter of the apex.
- ``_morphism_on`` keeps image rows built over a checked target to run
  between the images of each edge's ends: the inclusions and the bridge
  of ``vkt_square``, whose carriers are tree paths and edges of the
  checked complex, retracted through a forest.
"""

import ast
from pathlib import Path

import gpdkit

SOURCES = sorted(Path(gpdkit.__file__).parent.glob("*.py"))

WRITERS = {
    "FiniteGroup.validate", "build_groupoid", "index_view", "from_group", "xmod_view", "to_xmod",
    "Quiver.validate", "Complex2.validate", "_complex_on", "GroupoidPresentation.validate",
    "PresentationMorphism.validate", "_covering", "_presented", "_presentation_of",
    "pushout", "_morphism_on",
}
TESTERS = {
    "FiniteGroup.validate", "index_view", "xmod_view", "Quiver.validate", "Complex2.validate",
    "GroupoidPresentation.validate", "PresentationMorphism.validate",
    "SubcomplexCover.validate",
}
# every ``object.__setattr__`` of a field other than ``_view``
OTHER_SETS = {("FiniteGroup.validate", "inverse")}


def _is_view(node):
    return isinstance(node, ast.Attribute) and node.attr == "_view"


class _Scan(ast.NodeVisitor):
    """Collect the qualified name of the function around each ``_view``
    write (``object.__setattr__(x, "_view", v)``) and each test of whether
    ``_view`` is set (``x._view is None``, ``if x._view``, ...), and each
    ``object.__setattr__`` with the field it writes (None when the name is
    not a literal)."""

    def __init__(self):
        self.scope, self.writes, self.tests, self.sets = [], [], [], []

    def _nested(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _nested

    def _where(self):
        return ".".join(self.scope) or "<module>"

    def visit_Call(self, node):
        f = node.func
        if (
            isinstance(f, ast.Attribute) and f.attr == "__setattr__"
            and isinstance(f.value, ast.Name) and f.value.id == "object"
            and len(node.args) > 1
        ):
            name = node.args[1]
            name = name.value if isinstance(name, ast.Constant) else None
            self.sets.append((self._where(), name))
            if name == "_view":
                self.writes.append(self._where())
        self.generic_visit(node)

    def visit_Compare(self, node):
        if any(map(_is_view, (node.left, *node.comparators))):
            self.tests.append(self._where())
        self.generic_visit(node)

    def _truth(self, test):
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            test = test.operand
        if _is_view(test):
            self.tests.append(self._where())

    def visit_If(self, node):
        self._truth(node.test)
        self.generic_visit(node)

    visit_IfExp = visit_While = visit_If

    def visit_BoolOp(self, node):
        for value in node.values:
            self._truth(value)
        self.generic_visit(node)


def scan(source):
    found = _Scan()
    found.visit(ast.parse(source))
    return found


def _library():
    writes, tests = {}, {}
    for path in SOURCES:
        found = scan(path.read_text())
        for where in found.writes:
            writes.setdefault(where, []).append(path.name)
        for where in found.tests:
            tests.setdefault(where, []).append(path.name)
    return writes, tests


def test_only_the_validating_code_keeps_a_view():
    writes, _ = _library()
    assert set(writes) <= WRITERS, writes
    # each writer still writes, so the allowed set does not go stale
    assert set(writes) == WRITERS


def test_a_frozen_value_keeps_nothing_beside_its_view():
    sets = {hit for path in SOURCES for hit in scan(path.read_text()).sets}
    assert {hit for hit in sets if hit[1] != "_view"} == OTHER_SETS


def test_only_the_first_read_asks_whether_a_view_is_set():
    _, tests = _library()
    assert set(tests) <= TESTERS, tests
    assert set(tests) == TESTERS


def test_the_scan_sees_a_lent_view_and_each_kind_of_fork():
    source = '''
def lend(p, g):
    object.__setattr__(g, "_view", p._view)
    object.__setattr__(g, "_cache", p)
    object.__setattr__(g, p.name, p)

class Box:
    def fork(self, p):
        if p._view is not None:
            return 1
        return 2 if not p._view else 3

def either(p, q):
    return p._view or q
'''
    found = scan(source)
    assert found.writes == ["lend"]
    assert found.sets == [("lend", "_view"), ("lend", "_cache"), ("lend", None)]
    assert found.tests == ["Box.fork", "Box.fork", "either"]
