"""Acceptance battery: one test per contracted criterion.

Each test computes its verdict, prints one ``ACCEPTANCE n: PASS/FAIL``
line straight to the terminal (capture suspended so the line shows in
any run), and then asserts.
"""

import random
from itertools import product
from pathlib import Path

from gpdkit.cli import main
from gpdkit.core import (
    alternating_group,
    cyclic_group,
    from_group,
    symmetric_group,
)
from gpdkit.dblgpd import (
    CUBE_EDGES,
    commutative_cube_check,
    compose_array,
    cube_compose_check,
    eckmann_hilton_check,
    eh_instance_from_squares,
    from_xmod,
    hcompose,
    interchange_check,
    is_thin,
    make_square,
    perturb_cube,
    random_commutative_cube,
    random_cube_sharing,
    round_trip_isomorphism,
    row_uniqueness,
    sample_grid,
    to_xmod,
    vcompose,
)
from gpdkit.presentations import (
    free_loop_counts,
    verify_pushout_universal,
    vertex_group_presentation,
)
from gpdkit.vankampen import complex2, cover, fundamental_groupoid, vkt_square
from gpdkit.xmod import (
    automorphism_xmod,
    bundled_xmods,
    check_axioms,
    check_xmod_morphism,
    crossed_module,
    free_xmod,
    from_normal_subgroup,
    is_xmod_isomorphism,
    kernel_central_check,
    morphisms_from_free,
    trivial_xmod,
)

DATA = Path(__file__).parent / "data"


def _announce(capsys, n, ok):
    with capsys.disabled():
        print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}", flush=True)


def _circle():
    return complex2((0, 1), [("p", 0, 1), ("q", 0, 1)])


def test_acceptance_01_circle_vertex_group_is_free_of_rank_one(capsys):
    pres = fundamental_groupoid(_circle(), (0, 1))
    gp = vertex_group_presentation(pres, 0)
    counts = free_loop_counts(gp, 6)
    ok = (
        len(gp.generators) == 1
        and gp.relators == ()
        and counts == [2 * k + 1 for k in range(7)]
    )
    _announce(capsys, 1, ok)
    assert ok, (gp, counts)


def test_acceptance_02_base_point_hypothesis_is_enforced(capsys):
    code = main(["vkt", str(DATA / "circle.cov"), "--base", "0"])
    err = capsys.readouterr().err
    ok = code == 1 and "W" in err and "'1'" in err
    _announce(capsys, 2, ok)
    assert ok, (code, err)


def test_acceptance_03_pushout_universal_property_over_the_battery(capsys):
    res_c = vkt_square(cover(_circle(), ["p"], ["q"]), (0, 1))
    rep_c = verify_pushout_universal(res_c.square)
    pairs_c = {t.target: t.compatible_pairs for t in rep_c.per_target}
    wedge = complex2((0,), [("x", 0, 0), ("y", 0, 0)])
    res_w = vkt_square(cover(wedge, ["x"], ["y"]), (0,))
    rep_w = verify_pushout_universal(res_w.square)
    pairs_w = {t.target: t.compatible_pairs for t in rep_w.per_target}
    ok = rep_c.ok and rep_w.ok and pairs_c["c2"] == 4 and pairs_w["s3"] == 36
    _announce(capsys, 3, ok)
    assert ok, (pairs_c, pairs_w)


def test_acceptance_04_axiom_checks_accept_and_reject(capsys):
    s3 = symmetric_group(3)
    good1 = check_axioms(from_normal_subgroup(alternating_group(3).elements, s3))
    aut = automorphism_xmod(s3)
    good2 = check_axioms(aut)
    p = from_group(cyclic_group(2))
    bad = crossed_module(
        p,
        {"*": s3},
        {"*": {m: 0 for m in s3.elements}},
        {(m, a): m for m in s3.elements for a in p.arrows},
        name="s3-over-c2",
    )
    law = check_axioms(bad)
    ok = (
        good1.ok
        and good2.ok
        and len(aut.p.arrows) == 6
        and not law.ok
        and law.family("peiffer") is not None
    )
    _announce(capsys, 4, ok)
    assert ok, (good1.failures, good2.failures, law.failures)


def test_acceptance_05_boundary_kernels_are_central(capsys):
    bundle = bundled_xmods()
    reports = {name: kernel_central_check(xm) for name, xm in bundle.items()}
    ok = len(reports) >= 5 and all(r.ok for r in reports.values())
    _announce(capsys, 5, ok)
    assert ok, {n: r.witness for n, r in reports.items() if not r.ok}


def test_acceptance_06_interchange_exhaustive_and_sampled(capsys):
    bundle = bundled_xmods()
    d = from_xmod(bundle["c2"])
    xm = d.xm
    grids = 0
    ok = True
    for s11 in d.squares:
        for s12 in d.by_left.get(s11.right, ()):
            for s21 in d.by_top.get(s11.bottom, ()):
                for s22 in d.by_left_top.get((s21.right, s12.bottom), ()):
                    grids += 1
                    rep = interchange_check(xm, s11, s12, s21, s22)
                    folded = compose_array(xm, [[s11, s12], [s21, s22]])
                    ok = ok and rep.ok and d.contains(folded)
    ok = ok and grids == 4096
    big = from_xmod(bundle["a3s3"])
    rng = random.Random(2311)
    for _ in range(10_000):
        (s11, s12), (s21, s22) = sample_grid(big, rng, 2, 2)
        ok = ok and interchange_check(big.xm, s11, s12, s21, s22).ok
    _announce(capsys, 6, ok)
    assert ok, grids


def test_acceptance_07_thin_squares_close_under_pasting(capsys):
    d = from_xmod(bundled_xmods()["c2"])
    xm = d.xm
    thins = [s for s in d.squares if is_thin(xm, s)]
    ok = len(thins) == 8
    for s in thins:
        for t in thins:
            if s.right == t.left:
                ok = ok and is_thin(xm, hcompose(xm, s, t))
            if s.bottom == t.top:
                ok = ok and is_thin(xm, vcompose(xm, s, t))
    _announce(capsys, 7, ok)
    assert ok, len(thins)


def test_acceptance_08_triple_arrays_fold_either_way(capsys):
    bundle = bundled_xmods()
    ok = True
    for name, seed in (("c2", 431), ("a3s3", 433)):
        d = from_xmod(bundle[name])
        rng = random.Random(seed)
        for _ in range(1000):
            grid = sample_grid(d, rng, 3, 3)
            rows = compose_array(d.xm, grid, order="rows")
            columns = compose_array(d.xm, grid, order="columns")
            ok = ok and rows == columns
    _announce(capsys, 8, ok)
    assert ok


def test_acceptance_09_row_composites_are_unique(capsys):
    ok = True
    for g, seed in ((cyclic_group(6), 541), (symmetric_group(3), 547)):
        xm = trivial_xmod(g)
        rng = random.Random(seed)
        for _ in range(200):
            n = rng.randrange(2, 6)
            verticals = (
                [g.unit]
                + [rng.choice(g.elements) for _ in range(n - 1)]
                + [g.unit]
            )
            tops = [rng.choice(g.elements) for _ in range(n)]
            squares = []
            for i in range(n):
                bottom = g.mul(
                    g.mul(g.inv(verticals[i]), tops[i]), verticals[i + 1]
                )
                squares.append(
                    make_square(
                        xm,
                        xm.m["*"].unit,
                        left=verticals[i],
                        top=tops[i],
                        bottom=bottom,
                        right=verticals[i + 1],
                    )
                )
            expected = tops[0]
            for t in tops[1:]:
                expected = g.mul(expected, t)
            ok = ok and row_uniqueness(xm, squares) == expected
    _announce(capsys, 9, ok)
    assert ok


def test_acceptance_10_round_trip_recovers_the_crossed_module(capsys):
    bundle = bundled_xmods()
    ok = "c2" in bundle and "a3s3" in bundle
    for xm in bundle.values():
        recovered = to_xmod(from_xmod(xm))
        iso = round_trip_isomorphism(xm, recovered)
        rep = check_xmod_morphism(iso)
        ok = (
            ok
            and rep.ok
            and is_xmod_isomorphism(iso)
            and check_axioms(recovered).ok
        )
    _announce(capsys, 10, ok)
    assert ok


def test_acceptance_11_cubes_commute_perturb_and_glue(capsys):
    ok = True
    for n, seed in ((5, 613), (7, 617)):
        g = cyclic_group(n)
        rng = random.Random(seed)
        cubes = [random_commutative_cube(g, rng) for _ in range(1000)]
        ok = ok and all(commutative_cube_check(g, c).ok for c in cubes)
        for c in cubes[:50]:
            for e in CUBE_EDGES:
                bumped = perturb_cube(c, e, (getattr(c, e) + 1) % n)
                rep = commutative_cube_check(g, bumped)
                ok = ok and not rep.ok and bool(rep.failing_faces)
        for direction in ("v", "h", "d"):
            for i in range(1000):
                c1 = cubes[i % len(cubes)]
                c2 = random_cube_sharing(g, rng, c1, direction)
                ok = ok and cube_compose_check(g, c1, c2, direction).ok
    _announce(capsys, 11, ok)
    assert ok


def test_acceptance_12_unit_collapse_and_interchange_failure(capsys):
    d = from_xmod(bundled_xmods()["c2"])
    elements, op1, op2, u1, u2 = eh_instance_from_squares(d, "*")
    rep = eckmann_hilton_check(elements, op1, op2, u1, u2)
    ok = (
        rep.ok
        and rep.units_equal
        and rep.ops_equal
        and rep.commutative
        and len(elements) == 2
    )
    s3 = symmetric_group(3)
    table = dict(s3.table)
    rep2 = eckmann_hilton_check(s3.elements, table, table, s3.unit, s3.unit)
    ok = ok and not rep2.ok and rep2.witness[0] == "interchange"
    _announce(capsys, 12, ok)
    with capsys.disabled():
        print(
            f"  interchange witness for group multiplication: {rep2.witness[1]!r}",
            flush=True,
        )
    assert ok, (rep, rep2)


def test_acceptance_13_fiber_formula_counts_exactly(capsys):
    c2g = cyclic_group(2)
    free = free_xmod(c2g, ("r", "s"), {"r": 1, "s": 1})
    bundle = bundled_xmods()
    ok = True
    for name in ("c4c2", "c2"):
        xm = bundle[name]
        fr = morphisms_from_free(free, xm)
        gm = xm.m["*"]
        brute = [
            dict(zip(("r", "s"), images))
            for images in product(gm.elements, repeat=2)
            if xm.mu["*"][images[0]] == 1 and xm.mu["*"][images[1]] == 1
        ]
        formula = 1
        for _, fiber in fr.fibers:
            formula *= len(fiber)
        ok = (
            ok
            and fr.count == formula == len(brute)
            and list(fr.assignments) == brute
        )
    _announce(capsys, 13, ok)
    assert ok


def test_acceptance_14_corpus_machine_reports_are_reproducible(capsys):
    from test_cli import CORPUS

    ok = bool(CORPUS)
    for argv, expected in CORPUS:
        arglist = list(argv) + ["--machine"]
        code1 = main(arglist)
        out1 = capsys.readouterr().out
        code2 = main(arglist)
        out2 = capsys.readouterr().out
        ok = ok and code1 == code2 == expected and out1 == out2 and bool(out1)
    _announce(capsys, 14, ok)
    assert ok
