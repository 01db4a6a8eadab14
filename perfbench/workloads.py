"""The four workloads: seeded inputs, one round of operations, and an
oracle for every operation.

A workload function takes the freshly imported ``gpdkit`` package, a seeded
``random.Random`` and a scratch directory for generated documents, and
returns the list of ``Op`` objects that make up one round.  The seed only
chooses names, orders, removed faces, base points and sampled cubes or
grids; the multiset of operation classes in a round and the sizes of their
inputs are fixed, so rounds cost the same under every seed.

Operations look their gpdkit functions up at call time
(``gk.vkt_square``, not a name bound at build time), so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json

from corpus import COMMANDS

BATTERY_ORDERS = {"c2": 2, "c3": 3, "c4": 4, "s3": 6}


class Op:
    """One closed-loop operation: ``run()`` does the work and returns its
    result; ``check(result)`` returns None or a message naming the
    mismatch with the oracle."""

    __slots__ = ("cls", "run", "check")

    def __init__(self, cls, run, check):
        self.cls = cls
        self.run = run
        self.check = check


def _tokens(rng, k, prefix):
    """``k`` distinct names that start with ``prefix``, in seeded order."""
    names = set()
    while len(names) < k:
        names.add(f"{prefix}{rng.randrange(16 ** 6):06x}")
    names = sorted(names)
    rng.shuffle(names)
    return names


# ---------------------------------------------------------------- CLI ops


class CliCommand:
    """One in-process ``gpdkit`` invocation.  Every repeat must print the
    same bytes as the first run (the reproducibility contract)."""

    def __init__(self, gk, argv, oracle):
        self.gk = gk
        self.argv = list(argv) + ["--machine"]
        self.oracle = oracle
        self.first = None

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.gk.cli.main(list(self.argv))
        return code, out.getvalue()

    def check(self, result):
        code, stdout = result
        if self.first is None:
            self.first = stdout
        elif stdout != self.first:
            return "stdout differs from the first run of the same command"
        try:
            report = json.loads(stdout)
        except ValueError:
            return "stdout is not one JSON report"
        if report.get("exit_code") != code:
            return f"report exit_code {report.get('exit_code')} != returned {code}"
        return self.oracle(code, report)


def _expect(code, verdict, data):
    def oracle(got_code, report):
        got = (got_code, report["verdict"], report["data"])
        if got != (code, verdict, data):
            return f"expected {(code, verdict, data)!r}, got {got!r}"
        return None

    return oracle


def cli_corpus(gk, rng, workdir):
    """Round robin over the tests/data corpus, heavy commands twice."""
    ops = []
    for argv, weight, code, verdict, data in COMMANDS:
        cmd = CliCommand(gk, argv, _expect(code, verdict, data))
        cls = " ".join(a.rsplit("/", 1)[-1] for a in argv)
        ops += [Op(cls, cmd.run, cmd.check)] * weight
    return ops


# ------------------------------------------------------------ pushout-search

# class: (|U| loops, |V| loops, also verify universality, copies per round)
PUSHOUT_CLASSES = (
    ("bouquet-k2", 1, 1, False, 2),
    ("bouquet-k3", 1, 2, False, 2),
    ("bouquet-k4", 2, 2, False, 4),
    ("bouquet-k5", 2, 3, False, 2),
    ("wedge-1x1", 1, 1, True, 2),
    ("wedge-1x2", 1, 2, True, 3),
)


def _pushout_op(gk, rng, cls, a, b, universal):
    k = a + b
    edges = _tokens(rng, k, "e")
    (vertex,) = _tokens(rng, 1, "v")
    x = gk.complex2((vertex,), [(e, vertex, vertex) for e in edges])
    c = gk.cover(x, edges[:a], edges[a:])

    def run():
        res = gk.vkt_square(c, (vertex,))
        return res, (gk.verify_pushout_universal(res.square) if universal else None)

    def check(result):
        res, rep = result
        if not res.evidence_ok:
            return "vkt evidence mismatch"
        got = {t.target: (t.apex_morphisms, t.direct_morphisms) for t in res.evidence}
        want = {t: (n ** k, n ** k) for t, n in BATTERY_ORDERS.items()}
        if got != want:
            return f"vkt morphism counts {got!r} != {want!r}"
        if rep is not None:
            if not rep.ok:
                return "universality verdict fail"
            got = {t.target: (t.compatible_pairs, t.apex_morphisms) for t in rep.per_target}
            if got != want:
                return f"compatible pairs {got!r} != {want!r}"
        return None

    return Op(cls, run, check)


def pushout_search(gk, rng, workdir):
    ops = []
    for cls, a, b, universal, copies in PUSHOUT_CLASSES:
        ops += [_pushout_op(gk, rng, cls, a, b, universal) for _ in range(copies)]
    return ops


# ------------------------------------------------------------- xmod-squares

CUBES_PER_BATCH = 24
GRIDS_PER_BATCH = 12


def _order_is(n):
    return lambda g: None if len(g) == n else f"order {len(g)} != {n}"


def _cube_batch(gk, rng, cls, group):
    cubes = [gk.random_commutative_cube(group, rng) for _ in range(CUBES_PER_BATCH)]
    edge = rng.choice(gk.CUBE_EDGES)
    old = getattr(cubes[0], edge)
    broken = gk.perturb_cube(cubes[0], edge, rng.choice([x for x in group.elements if x != old]))
    direction = rng.choice(("v", "h", "d"))
    partner = gk.random_cube_sharing(group, rng, cubes[1], direction)

    def run():
        return (
            [gk.commutative_cube_check(group, c).ok for c in cubes],
            gk.commutative_cube_check(group, broken).ok,
            gk.cube_compose_check(group, cubes[1], partner, direction).ok,
        )

    def check(result):
        passes, broken_ok, glued_ok = result
        if not all(passes):
            return "a random commutative cube failed"
        if broken_ok:
            return "a perturbed cube passed"
        if not glued_ok:
            return f"glued cube ({direction}) failed"
        return None

    return Op(cls, run, check)


def _grid_batch(gk, rng, cls, xm, carrier):
    grids = [gk.sample_grid(carrier, rng, 3, 3) for _ in range(GRIDS_PER_BATCH)]

    def run():
        out = []
        for g in grids:
            rows = gk.compose_array(xm, g, order="rows")
            cols = gk.compose_array(xm, g, order="columns")
            inter = gk.interchange_check(xm, g[0][0], g[0][1], g[1][0], g[1][1])
            out.append(rows == cols and inter.ok)
        return out

    def check(result):
        return None if all(result) else "fold orders or interchange disagree"

    return Op(cls, run, check)


def _roundtrip(gk, cls, xm, squares):
    def run():
        d = gk.from_xmod(xm)
        iso = gk.round_trip_isomorphism(xm, gk.to_xmod(d))
        return len(d), gk.check_xmod_morphism(iso).ok and gk.is_xmod_isomorphism(iso)

    def check(result):
        if result != (squares, True):
            return f"round trip {result!r} != {(squares, True)!r}"
        return None

    return Op(cls, run, check)


def _automorphisms(gk, cls, group, order):
    def run():
        return len(gk.automorphism_xmod(group).p.arrows)

    def check(result):
        return None if result == order else f"|Aut| {result} != {order}"

    return Op(cls, run, check)


def xmod_squares(gk, rng, workdir):
    s3 = gk.symmetric_group(3)
    c2, c7, c8 = gk.cyclic_group(2), gk.cyclic_group(7), gk.cyclic_group(8)
    s4, a4 = gk.symmetric_group(4), gk.alternating_group(4)
    bundled = gk.bundled_xmods()
    a3s3, auts3, c4c2 = bundled["a3s3"], bundled["auts3"], bundled["c4c2"]
    aut_s3 = gk.automorphism_group(s3)
    gens = _tokens(rng, 3, "r")
    boundary = {r: rng.choice(c2.elements) for r in gens}

    def axioms_ok(xm):
        return gk.check_axioms(xm).ok and gk.kernel_central_check(xm).ok

    def free_and_over():
        free = gk.free_xmod(c2, gens, boundary)
        return (
            gk.morphisms_from_free(free, c4c2).count,
            len(gk.morphisms_over(c4c2, gk.identity_hom(c2), c4c2)),
        )

    ops = [
        Op("group-s4", lambda: gk.symmetric_group(4), _order_is(24)),
        Op("group-a4", lambda: gk.alternating_group(4), _order_is(12)),
        Op("group-battery",
           lambda: {n: len(g.arrows) for n, g in gk.battery().items()},
           lambda got: None if got == BATTERY_ORDERS else f"battery orders {got!r}"),
        Op("axioms-bundled",
           lambda: [name for name, xm in bundled.items() if not axioms_ok(xm)],
           lambda bad: f"axioms or centrality fail on {bad!r}" if bad else None),
        Op("axioms-a4s4",
           lambda: axioms_ok(gk.from_normal_subgroup(a4, s4)),
           lambda ok: None if ok else "axioms or centrality fail on a4<|s4"),
        # Each of c4's two boundary fibres over c2 has two elements; the only
        # maps over the identity are the two odd multiplications.
        Op("free-and-over", free_and_over,
           lambda got: None if got == (2 ** len(gens), 2) else f"counts {got!r}"),
        _automorphisms(gk, "aut-s3", s3, 6),
        _automorphisms(gk, "aut-c7", c7, 6),
        _automorphisms(gk, "aut-c8", c8, 4),
        _roundtrip(gk, "roundtrip-a3s3", a3s3, 648),
        _roundtrip(gk, "roundtrip-auts3", auts3, 1296),
        _grid_batch(gk, rng, "grids-a3s3", a3s3, gk.from_xmod(a3s3)),
        _grid_batch(gk, rng, "grids-auts3", auts3, gk.from_xmod(auts3)),
    ]
    for n in (8, 12, 16, 24):
        ops.append(Op(f"group-c{n}", lambda n=n: gk.cyclic_group(n), _order_is(n)))
    for _ in range(3):
        ops.append(_cube_batch(gk, rng, "cubes-c7", c7))
        ops.append(_cube_batch(gk, rng, "cubes-s3", s3))
    # S3 has trivial centre, so the identity is the only self-map of
    # s3<|aut over the identity of Aut(S3).
    over = Op("over-auts3",
              lambda: len(gk.morphisms_over(auts3, gk.identity_hom(aut_s3), auts3)),
              lambda got: None if got == 1 else f"{got} maps over the identity != 1")
    ops += [over] * 4
    return ops


# ------------------------------------------------------------ large-complex

# class: (grid side n, components, base points, copies per round)
PI1_CLASSES = (
    ("pi1-n8", 8, 1, 1, 1),
    ("pi1-n10", 10, 2, 2, 1),
    ("pi1-n12", 12, 1, 3, 1),
    ("pi1-n14", 14, 3, 3, 3),
    ("pi1-n16", 16, 2, 3, 1),
    ("pi1-n18", 18, 1, 2, 1),
    ("pi1-n20", 20, 1, 1, 3),
)
# class: (grid side n, copies per round)
MISS_CLASSES = (
    ("vkt-miss-n12", 12, 1),
    ("vkt-miss-n16", 16, 1),
)
REMOVED_FACES = 0.1


class Grid:
    """Torus bands: component ``c`` has ``rows[c]`` rows of ``n`` vertices,
    wrapped in both directions, with one square face per vertex except the
    seeded removed ones."""

    def __init__(self, rng, n, components):
        self.rows = [3] * components  # a band needs three rows to wrap
        for _ in range(n - 3 * components):
            self.rows[rng.randrange(components)] += 1
        self.vertices = []
        self.edges = []
        self.faces = []
        for c, r in enumerate(self.rows):
            for i in range(r):
                for j in range(n):
                    self.vertices.append(self.v(c, i, j))
                    self.edges.append((f"h{c}_{i}_{j}", self.v(c, i, j), self.v(c, i, (j + 1) % n)))
                    self.edges.append((f"u{c}_{i}_{j}", self.v(c, i, j), self.v(c, (i + 1) % r, j)))
                    self.faces.append((
                        f"f{c}_{i}_{j}",
                        f"h{c}_{i}_{j} u{c}_{i}_{(j + 1) % n} "
                        f"h{c}_{(i + 1) % r}_{j}^-1 u{c}_{i}_{j}^-1",
                    ))
        drop = set(rng.sample(range(len(self.faces)), round(REMOVED_FACES * len(self.faces))))
        self.faces = [f for k, f in enumerate(self.faces) if k not in drop]
        rng.shuffle(self.vertices)
        rng.shuffle(self.edges)

    @staticmethod
    def v(c, i, j):
        return f"v{c}_{i}_{j}"

    def complex_lines(self, indent=""):
        lines = [f"{indent}vertices: " + " ".join(self.vertices), f"{indent}edges:"]
        lines += [f"{indent}  {e}: {s} {t}" for e, s, t in self.edges]
        lines.append(f"{indent}faces:")
        lines += [f"{indent}  {f}: {w}" for f, w in self.faces]
        return lines


def _write(workdir, name, lines):
    """Write a generated document; ``workdir`` is relative to the
    repository root, so the command line names a relative path."""
    path = workdir / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _pi1_op(gk, rng, workdir, cls, n, components, bases):
    grid = Grid(rng, n, components)
    # one base point in every component, the rest anywhere
    base = [grid.v(c, rng.randrange(r), rng.randrange(n)) for c, r in enumerate(grid.rows)]
    while len(base) < bases:
        c = rng.randrange(components)
        b = grid.v(c, rng.randrange(grid.rows[c]), rng.randrange(n))
        if b not in base:
            base.append(b)
    vertex = rng.choice(base)
    comp = int(vertex[1:].split("_")[0])
    path = _write(workdir, f"{cls}.cx",
                  ["kind: complex"] + grid.complex_lines())
    want = {
        "base_points": len(base),
        "generators": len(grid.edges) - len(grid.vertices) + len(base),
        "relations": len(grid.faces),
        # every component is a torus band with 2 n r edges and n r vertices
        "vertex_generators": n * grid.rows[comp] + 1,
    }

    def oracle(code, report):
        if (code, report["verdict"]) != (0, "pass"):
            return f"exit {code}, verdict {report['verdict']}"
        got = {k: report["counts"].get(k) for k in want}
        return None if got == want else f"counts {got!r} != {want!r}"

    cmd = CliCommand(gk, ["pi1", path, "--base", ",".join(base), "--vertex", vertex], oracle)
    return Op(cls, cmd.run, cmd.check)


def _miss_op(gk, rng, workdir, cls, n):
    """A cover of one torus by two bands whose intersection is two circles;
    the single base point lies on one of them, so the hypothesis check must
    name the other component of W."""
    grid = Grid(rng, n, 1)
    h = n // 2
    u_rows, v_rows = range(0, h + 1), list(range(h, n)) + [0]
    u_cells = [f"{kind}0_{i}_{j}" for i in u_rows for j in range(n) for kind in ("v", "h")]
    u_cells += [f"u0_{i}_{j}" for i in range(h) for j in range(n)]
    v_cells = [f"{kind}0_{i}_{j}" for i in v_rows for j in range(n) for kind in ("v", "h")]
    v_cells += [f"u0_{i}_{j}" for i in range(h, n) for j in range(n)]
    present = {f for f, _ in grid.faces}
    u_cells += [f for f in (f"f0_{i}_{j}" for i in range(h) for j in range(n)) if f in present]
    v_cells += [f for f in (f"f0_{i}_{j}" for i in range(h, n) for j in range(n)) if f in present]
    path = _write(workdir, f"{cls}.cov",
                  ["kind: cover", "complex:"] + grid.complex_lines("  ")
                  + ["u: " + " ".join(u_cells), "v: " + " ".join(v_cells)])
    base = grid.v(0, 0, rng.randrange(n))

    def oracle(code, report):
        got = (code, report["verdict"], report["data"])
        want = (1, "fail", {"error_kind": "hypothesis-unmet"})
        if got != want:
            return f"expected {want!r}, got {got!r}"
        if not report["witnesses"][0].startswith("base points miss a component of W"):
            return f"witness {report['witnesses'][0][:60]!r} does not name W"
        return None

    cmd = CliCommand(gk, ["vkt", path, "--base", base, "--targets", "c2"], oracle)
    return Op(cls, cmd.run, cmd.check)


def large_complex(gk, rng, workdir):
    ops = []
    for cls, n, components, bases, copies in PI1_CLASSES:
        op = _pi1_op(gk, rng, workdir, cls, n, components, bases)
        ops += [op] * copies
    for cls, n, copies in MISS_CLASSES:
        ops += [_miss_op(gk, rng, workdir, cls, n)] * copies
    return ops


WORKLOADS = {
    "cli-corpus": cli_corpus,
    "pushout-search": pushout_search,
    "xmod-squares": xmod_squares,
    "large-complex": large_complex,
}
