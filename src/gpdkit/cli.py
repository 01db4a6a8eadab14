"""Command line front end.

Every subcommand reads the text documents described in ``documents`` and
prints a short human summary, or a machine report with ``--machine``.
Machine reports are JSON with sorted keys and carry no timing, so a rerun
of the same command on the same inputs is byte identical.

Exit codes: 0 the check passed (or the computation succeeded), 1 a
verdict failed or a theorem hypothesis was not met (including pasting
mismatches between well-formed squares or cubes), 2 the input could not
be read or validated, 3 a size guard tripped, 4 an internal error (a
defect in gpdkit, never a verdict on the input).

The argument parser is built once per process (``build_parser`` is
cached); ``main`` looks up the ``cmd_*`` handler by command name on every
call, so rebinding a handler on this module still takes effect.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
import traceback
from json import JSONEncoder
from json.encoder import encode_basestring_ascii

from .core import (
    CompositionError,
    HypothesisError,
    SizeGuardExceeded,
    ValidationError,
    battery,
    one_object_group,
    subgroup,
)
from .dblgpd import (
    commutative_cube_check,
    compose_array,
    cube_compose_check,
    eckmann_hilton_check,
    from_xmod,
    round_trip_isomorphism,
    to_xmod,
)
from .documents import ParseError, load_document
from .presentations import (
    PresentationMorphism,
    free_loop_counts,
    pushout,
    verify_pushout_universal,
    vertex_group_presentation,
    word,
)
from .vankampen import fundamental_groupoid, vkt_square
from .xmod import (
    automorphism_xmod,
    check_axioms,
    check_xmod_morphism,
    free_xmod,
    from_normal_subgroup,
    group_hom,
    induced_xmod_presentation,
    is_xmod_isomorphism,
    kernel_central_check,
    morphisms_from_free,
    morphisms_over,
)


def _csv(text):
    return tuple(t for t in (s.strip() for s in text.split(",")) if t)


def _pairs(text):
    out = {}
    for item in _csv(text):
        if "=" not in item:
            raise ValidationError(
                "expected comma separated key=value pairs", witness=item
            )
        k, _, v = item.partition("=")
        k = k.strip()
        if k in out:
            raise ValidationError("repeated key", witness=k)
        out[k] = v.strip()
    return out


def _battery_subset(names):
    """The battery targets ``--targets`` names, all of them when the flag
    is absent; a value that names none is an input error."""
    full = battery()
    if names is None:
        return full
    out = {}
    for n in _csv(names):
        if n not in full:
            raise ValidationError(f"unknown battery target {n!r}", witness=n)
        out[n] = full[n]
    if not out:
        raise ValidationError("--targets names no battery target", witness=names)
    return out


def _load(args, path, kind):
    try:
        doc = load_document(path)
    except Exception as exc:
        # A document that fails to load is digested all the same, from the
        # bytes the error carries.
        source = getattr(exc, "source", None)
        if source is not None:
            args.sources[path] = source
        raise
    args.sources[path] = doc.source
    if doc.kind != kind:
        raise ValidationError(
            f"{path} holds a {doc.kind} document, expected {kind}",
            witness=doc.kind,
        )
    return doc.payload


def _base_group(xm):
    """The base group of a one-object crossed module, as a FiniteGroup."""
    if tuple(xm.p.objects) != ("*",):
        raise ValidationError(
            "a one-object crossed module is required", witness=xm.p.objects
        )
    return one_object_group(xm.p)


def _command_name(args):
    parts = [args.command]
    sub = getattr(args, "subcommand", None)
    if sub:
        parts.append(sub)
    return " ".join(parts)


_PRIVATE_ARGS = ("machine", "report", "command", "subcommand", "sources")


_scalar = JSONEncoder().encode


def _json(value):
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte, from
    pieces joined once: strings and keys are escaped by the C encoder, and
    other scalars go through a compact encoder.  One value differs: an empty
    ``Word`` is empty by ``len`` (it counts letters) but not by iteration,
    so it is written ``["v", "v", []]`` where ``json.dumps`` writes ``[]``."""
    pieces = []
    put = pieces.append

    def write(value, pad):
        if isinstance(value, str):
            put(encode_basestring_ascii(value))
        elif isinstance(value, (list, tuple)) and value:
            inner = pad + "  "
            sep = "[" + inner
            for v in value:
                put(sep)
                write(v, inner)
                sep = "," + inner
            put(pad + "]")
        elif isinstance(value, dict) and value:
            inner = pad + "  "
            sep = "{" + inner
            for k, v in sorted(value.items()):
                put(sep + _json_key(k) + ": ")
                write(v, inner)
                sep = "," + inner
            put(pad + "}")
        else:  # other scalars, and empty lists and dicts
            put(_scalar(value))

    write(value, "\n")
    return "".join(pieces)


def _json_key(key):
    """A dict key as ``json.dumps`` writes it."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return encode_basestring_ascii(_scalar(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _report(args, verdict, exit_code, inputs=None, counts=None, witnesses=(),
            data=None, lines=None):
    """Build the machine report, digesting ``inputs`` (path -> bytes parsed);
    print it with ``--machine``, else print ``lines`` and the verdict
    (nothing when ``lines`` is None); write it to ``--report`` first, so a
    failed write prints nothing.  Returns the exit code."""
    report = {
        "command": _command_name(args),
        "arguments": {
            k: v
            for k, v in vars(args).items()
            if k not in _PRIVATE_ARGS and v is not None
        },
        "inputs": {p: hashlib.sha256(b).hexdigest() for p, b in (inputs or {}).items()},
        "verdict": verdict,
        "exit_code": exit_code,
        "counts": dict(counts or {}),
        "witnesses": [str(w) for w in witnesses],
        "data": data or {},
    }
    text = _json(report)
    if args.report:
        # Take the path off ``args`` before writing: if the write fails, the
        # io-error report that follows must not try the same write again.
        path, args.report = args.report, None
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if args.machine:
        print(text)
    elif lines is not None:
        for ln in lines:
            print(ln)
        print(f"verdict: {verdict}")
    return exit_code


def _finish(args, ok, counts=None, witnesses=(), data=None, lines=()):
    """Report a completed check on every document the command parsed: pass
    and exit 0, or fail and exit 1."""
    return _report(
        args, "pass" if ok else "fail", 0 if ok else 1, args.sources,
        counts, witnesses, data, lines,
    )


def cmd_pi1(args):
    x = _load(args, args.complex_file, "complex")
    base = tuple(dict.fromkeys(_csv(args.base)))  # a repeated point counts once
    pres = fundamental_groupoid(x, base)
    counts = {
        "base_points": len(pres.quiver.vertices),
        "generators": len(pres.quiver.edges),
        "relations": len(pres.relations),
    }
    lines = [
        f"fundamental groupoid on base {{{', '.join(base)}}}:",
        f"  base points: {counts['base_points']}",
        f"  generators: {counts['generators']}",
        f"  relations: {counts['relations']}",
    ]
    data = {
        "generators": {
            e: [str(pres.quiver.esrc[e]), str(pres.quiver.etgt[e])]
            for e in pres.quiver.edges
        }
    }
    if args.vertex is not None:
        if args.vertex in x.vertices and args.vertex not in base:
            raise ValidationError("vertex is not a base point", witness=args.vertex)
        gp = vertex_group_presentation(pres, args.vertex)
        counts["vertex_generators"] = len(gp.generators)
        counts["vertex_relators"] = len(gp.relators)
        data["vertex_group"] = rendered = gp.render()
        lines.append(f"vertex group at {args.vertex}: {rendered}")
        if not gp.relators:
            data["free_loop_counts"] = free_loop_counts(gp, 6)
            lines.append(
                f"  reduced loop counts, lengths 0..6: {data['free_loop_counts']}"
            )
    return _finish(args, True, counts=counts, data=data, lines=lines)


def cmd_vkt(args):
    c = _load(args, args.cover_file, "cover")
    base = _csv(args.base)
    targets = _battery_subset(args.targets)
    result = vkt_square(c, base, targets=targets)
    counts = {
        "apex_generators": len(result.square.apex.quiver.edges),
        "apex_relations": len(result.square.apex.relations),
        "direct_generators": len(result.direct.quiver.edges),
        "direct_relations": len(result.direct.relations),
    }
    pieces = " ".join(f"{name}={n}" for name, n in result.cover_report.pieces)
    lines = [f"cover components: {pieces}"]
    evidence = {}
    for t in result.evidence:
        counts[f"morphisms_{t.target}"] = t.direct_morphisms
        evidence[t.target] = {
            "apex_morphisms": t.apex_morphisms,
            "direct_morphisms": t.direct_morphisms,
            "ok": t.ok,
        }
        state = "ok" if t.ok else "MISMATCH"
        lines.append(
            f"target {t.target}: apex={t.apex_morphisms} "
            f"direct={t.direct_morphisms} {state}"
        )
    witnesses = [t.target for t in result.evidence if not t.ok]
    ok = result.evidence_ok
    return _finish(
        args,
        ok,
        counts=counts,
        witnesses=witnesses,
        data={"evidence": evidence},
        lines=lines,
    )


def _name_inclusion(src, dst, label):
    missing = [v for v in src.quiver.vertices if v not in dst.quiver.vertices]
    if missing:
        raise ValidationError(
            f"{label} is missing shared vertices", witness=tuple(missing)
        )
    emap = {}
    for e in src.quiver.edges:
        if e not in dst.quiver.esrc:
            raise ValidationError(f"{label} is missing the shared edge {e!r}", witness=e)
        emap[e] = word(dst.quiver, [(e, 1)])
    return PresentationMorphism(
        source=src,
        target=dst,
        vmap={v: v for v in src.quiver.vertices},
        emap=emap,
    ).validate()


def cmd_pushout(args):
    pu = _load(args, args.u_file, "presentation")
    pv = _load(args, args.v_file, "presentation")
    pw = _load(args, args.w_file, "presentation")
    f = _name_inclusion(pw, pu, args.u_file)
    g = _name_inclusion(pw, pv, args.v_file)
    square = pushout(f, g)
    rep = verify_pushout_universal(square, targets=_battery_subset(args.targets))
    counts = {
        "apex_vertices": len(square.apex.quiver.vertices),
        "apex_edges": len(square.apex.quiver.edges),
        "apex_relations": len(square.apex.relations),
    }
    lines = [
        f"apex: {counts['apex_vertices']} vertices, "
        f"{counts['apex_edges']} edges, {counts['apex_relations']} relations"
    ]
    per_target = {}
    witnesses = []
    for t in rep.per_target:
        counts[f"pairs_{t.target}"] = t.compatible_pairs
        per_target[t.target] = {
            "compatible_pairs": t.compatible_pairs,
            "apex_morphisms": t.apex_morphisms,
            "ok": t.ok,
        }
        state = "ok" if t.ok else "MISMATCH"
        lines.append(
            f"target {t.target}: pairs={t.compatible_pairs} "
            f"apex={t.apex_morphisms} {state}"
        )
        if not t.ok:
            witnesses.append(f"{t.target}: {t.witness!r}")
    return _finish(
        args,
        rep.ok,
        counts=counts,
        witnesses=witnesses,
        data={"per_target": per_target},
        lines=lines,
    )


def cmd_xmod_check(args):
    xm = _load(args, args.xmod_file, "xmod")
    law = check_axioms(xm)
    cent = kernel_central_check(xm)
    witnesses = [f"{family}: {w!r}" for family, w in law.failures]
    if not cent.ok:
        witnesses.append(f"centrality: {cent.witness!r}")
    ok = law.ok and cent.ok
    counts = {
        "base_arrows": len(xm.p.arrows),
        "fibre_order": xm.total_elements(),
    }
    lines = [
        f"fibre order {counts['fibre_order']} over {counts['base_arrows']} arrows",
        "axioms: "
        + ("all hold" if law.ok else ", ".join(f for f, _ in law.failures) + " fail"),
        "boundary kernel central: " + ("yes" if cent.ok else f"no, {cent.witness!r}"),
    ]
    data = {"kernel_sizes": {str(x): n for x, n in cent.kernel_sizes}}
    return _finish(
        args,
        ok,
        counts=counts,
        witnesses=witnesses,
        data=data,
        lines=lines,
    )


def cmd_xmod_aut(args):
    g = _load(args, args.group_file, "group")
    xm = automorphism_xmod(g)
    law = check_axioms(xm)
    counts = {"group_order": len(g), "aut_order": len(xm.p.arrows)}
    lines = [
        f"automorphism group order: {counts['aut_order']}",
        "crossed module axioms: " + ("all hold" if law.ok else "FAIL"),
    ]
    witnesses = [f"{family}: {w!r}" for family, w in law.failures]
    return _finish(
        args,
        law.ok,
        counts=counts,
        witnesses=witnesses,
        lines=lines,
    )


def cmd_xmod_normal(args):
    g = _load(args, args.group_file, "group")
    sub = subgroup(g, _csv(args.subgroup))
    counts = {"group_order": len(g), "subgroup_order": len(sub.elements)}
    try:
        xm = from_normal_subgroup(sub, g)
    except ValidationError as exc:
        # ``sub`` is already a subgroup, so normality is what failed.
        m, a, out = exc.witness
        witness = f"conjugating {m} by {a} gives {out}, outside the subgroup"
        return _finish(
            args,
            False,
            counts=counts,
            witnesses=[witness],
            lines=["subgroup is not normal", f"  {witness}"],
        )
    law = check_axioms(xm)
    lines = [
        "subgroup is normal; conjugation crossed module built",
        "axioms: " + ("all hold" if law.ok else "FAIL"),
    ]
    return _finish(
        args,
        law.ok,
        counts=counts,
        witnesses=[f"{family}: {w!r}" for family, w in law.failures],
        lines=lines,
    )


def cmd_xmod_free(args):
    g = _load(args, args.group_file, "group")
    gens = _csv(args.gens)
    boundary = _pairs(args.boundary)
    if set(boundary) != set(gens):
        raise ValidationError(
            "boundary must cover exactly the generators",
            witness=tuple(sorted(set(boundary) ^ set(gens))),
        )
    free = free_xmod(g, gens, boundary)
    counts = {"generators": len(gens)}
    data = {"presentation": free.render()}
    lines = free.render().splitlines()
    if args.verify_against:
        xm = _load(args, args.verify_against, "xmod")
        fr = morphisms_from_free(free, xm)
        counts["morphisms"] = fr.count
        data["fibers"] = {r: list(images) for r, images in fr.fibers}
        lines.append(f"morphisms into the target: {fr.count}")
        for r, images in fr.fibers:
            lines.append(f"  fiber of {r}: {{{', '.join(images)}}}")
    return _finish(args, True, counts=counts, data=data, lines=lines)


def cmd_xmod_induced(args):
    xm = _load(args, args.xmod_file, "xmod")
    gq = _load(args, args.to_file, "group")
    hom = group_hom(_base_group(xm), gq, _pairs(args.mapping))
    ind = induced_xmod_presentation(xm, hom)
    counts = {
        "source_fibre": len(xm.m["*"].elements),
        "target_group": len(gq.elements),
    }
    data = {"presentation": ind.render()}
    lines = ind.render().splitlines()
    if args.verify_against:
        target = _load(args, args.verify_against, "xmod")
        mors = morphisms_over(xm, hom, target)
        counts["morphisms_over"] = len(mors)
        lines.append(
            f"maps over the homomorphism into the target: {len(mors)}"
        )
    return _finish(args, True, counts=counts, data=data, lines=lines)


def _square_data(s):
    return {
        "label": str(s.label),
        "top": str(s.top),
        "left": str(s.left),
        "right": str(s.right),
        "bottom": str(s.bottom),
    }


def cmd_dgpd_compose(args):
    d = _load(args, args.squares_file, "squares")
    seq = d.listed()
    if not seq:
        raise ValidationError("document lists no squares")
    grid = [seq] if args.dir == "h" else [[s] for s in seq]
    out = compose_array(d.xm, grid)
    way = "horizontally" if args.dir == "h" else "vertically"
    lines = [
        f"pasted {len(seq)} squares {way}",
        f"  label: {out.label}",
        f"  top: {out.top}  left: {out.left}  right: {out.right}  bottom: {out.bottom}",
    ]
    return _finish(
        args,
        True,
        counts={"squares": len(seq)},
        data={"result": _square_data(out)},
        lines=lines,
    )


def cmd_dgpd_array(args):
    d = _load(args, args.squares_file, "squares")
    if not d.array:
        raise ValidationError("document has no array block")
    grid = d.grid()
    rows_first = compose_array(d.xm, grid, order="rows")
    columns_first = compose_array(d.xm, grid, order="columns")
    ok = rows_first == columns_first
    counts = {"rows": len(grid), "columns": len(grid[0])}
    lines = [
        f"array of {counts['rows']}x{counts['columns']} squares",
        f"  rows first:    label {rows_first.label}",
        f"  columns first: label {columns_first.label}",
        "fold orders agree" if ok else "FOLD ORDERS DISAGREE",
    ]
    witnesses = [] if ok else [f"{rows_first!r} vs {columns_first!r}"]
    return _finish(
        args,
        ok,
        counts=counts,
        witnesses=witnesses,
        data={
            "rows_first": _square_data(rows_first),
            "columns_first": _square_data(columns_first),
        },
        lines=lines,
    )


def cmd_dgpd_roundtrip(args):
    xm = _load(args, args.xmod_file, "xmod")
    d = from_xmod(xm)
    recovered = to_xmod(d)
    iso = round_trip_isomorphism(xm, recovered)
    iso_ok = is_xmod_isomorphism(iso)
    ok = iso_ok and check_axioms(recovered).ok
    # is_xmod_isomorphism checked the laws; they are read again for witnesses only
    failures = () if iso_ok else check_xmod_morphism(iso).failures
    counts = {
        "carrier_squares": len(d),
        "fibre_order": xm.total_elements(),
    }
    lines = [
        f"carrier: {counts['carrier_squares']} squares",
        "label map is an isomorphism onto the recovered crossed module"
        if ok
        else "ROUND TRIP FAILED",
    ]
    return _finish(
        args,
        ok,
        counts=counts,
        witnesses=[f"{family}: {w!r}" for family, w in failures],
        lines=lines,
    )


def cmd_cube_check(args):
    doc = _load(args, args.cube_file, "cube")
    rep = commutative_cube_check(doc.group, doc.cube)
    witnesses = [f"face {name} does not commute" for name in rep.failing_faces]
    if not rep.ok and not rep.failing_faces:
        witnesses.append(
            f"folded composite {rep.composite!r} != top face {rep.top_face!r}"
        )
    lines = (
        ["all six faces commute; five forced the sixth"]
        if rep.ok
        else [f"cube does not commute: {'; '.join(witnesses)}"]
    )
    return _finish(
        args,
        rep.ok,
        counts={"group_order": len(doc.group)},
        witnesses=witnesses,
        lines=lines,
    )


def cmd_cube_compose(args):
    first = _load(args, args.cube_file, "cube")
    second = _load(args, args.cube_file2, "cube")
    g = first.group
    h = second.group
    if g.elements != h.elements or g.table != h.table or g.unit != h.unit:
        raise ValidationError("cubes live over different groups")
    rep = cube_compose_check(g, first.cube, second.cube, args.dir)
    witnesses = []
    for name, part in (("first", rep.first), ("second", rep.second), ("glued", rep.glued)):
        if not part.ok:
            witnesses.append(f"{name} cube fails: faces {part.failing_faces}")
    lines = [
        f"glued along direction {args.dir!r}",
        "both cubes and their composite commute" if rep.ok else "COMPOSITE FAILED",
    ]
    return _finish(
        args,
        rep.ok,
        counts={"group_order": len(g)},
        witnesses=witnesses,
        lines=lines,
    )


def cmd_eh_check(args):
    d = _load(args, args.eh_file, "eh")
    rep = eckmann_hilton_check(d.elements, d.op1, d.op2, d.unit1, d.unit2)
    if rep.ok:
        lines = [
            "both operations are unital and satisfy interchange",
            "conclusion: units coincide, operations agree, and the operation "
            "is commutative",
        ]
        data = {
            "units_equal": rep.units_equal,
            "ops_equal": rep.ops_equal,
            "commutative": rep.commutative,
        }
        witnesses = []
    else:
        lines = [f"hypotheses fail, witness: {rep.witness!r}"]
        data = None
        witnesses = [repr(rep.witness)]
    return _finish(
        args,
        rep.ok,
        counts={"elements": len(d.elements)},
        witnesses=witnesses,
        data=data,
        lines=lines,
    )


def _common(p):
    p.add_argument(
        "--machine", action="store_true", help="print the JSON report to stdout"
    )
    p.add_argument("--report", metavar="PATH", help="write the JSON report to PATH")


@functools.cache
def build_parser():
    """The ``gpdkit`` parser, built on the first call; every later call
    returns the same object, so callers must not modify it."""
    ap = argparse.ArgumentParser(
        prog="gpdkit",
        description=(
            "presented groupoids, covers and their pushout squares, crossed "
            "modules, and labeled square pastings"
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("pi1", help="present the fundamental groupoid of a complex")
    p.add_argument("complex_file")
    p.add_argument("--base", required=True, help="comma separated base vertices")
    p.add_argument("--vertex", help="also present the vertex group here")
    _common(p)

    p = sub.add_parser(
        "vkt", help="verify the pushout square induced by a two-piece cover"
    )
    p.add_argument("cover_file")
    p.add_argument("--base", required=True, help="comma separated base vertices")
    p.add_argument("--targets", help="comma separated battery targets (default all)")
    _common(p)

    p = sub.add_parser(
        "pushout", help="push out a span of presentations given by shared names"
    )
    p.add_argument("u_file")
    p.add_argument("v_file")
    p.add_argument("w_file")
    p.add_argument("--targets", help="comma separated battery targets (default all)")
    _common(p)

    px = sub.add_parser("xmod", help="crossed module commands")
    sx = px.add_subparsers(dest="subcommand", required=True, metavar="action")
    p = sx.add_parser("check", help="check the axioms and kernel centrality")
    p.add_argument("xmod_file")
    _common(p)
    p = sx.add_parser("aut", help="the automorphism crossed module of a group")
    p.add_argument("group_file")
    _common(p)
    p = sx.add_parser("normal", help="the conjugation crossed module of a subgroup")
    p.add_argument("group_file")
    p.add_argument("--subgroup", required=True, help="comma separated elements")
    _common(p)
    p = sx.add_parser("free", help="present a free crossed module over a group")
    p.add_argument("group_file")
    p.add_argument("--gens", required=True, help="comma separated generator names")
    p.add_argument(
        "--boundary", required=True, help="gen=element pairs, comma separated"
    )
    p.add_argument(
        "--verify-against",
        dest="verify_against",
        metavar="XMOD_FILE",
        help="count morphisms into this crossed module",
    )
    _common(p)
    p = sx.add_parser(
        "induced", help="present the crossed module induced along a homomorphism"
    )
    p.add_argument("xmod_file")
    p.add_argument("--to", required=True, dest="to_file", metavar="GROUP_FILE")
    p.add_argument(
        "--map", required=True, dest="mapping", help="element=image pairs"
    )
    p.add_argument(
        "--verify-against",
        dest="verify_against",
        metavar="XMOD_FILE",
        help="count maps over the homomorphism into this crossed module",
    )
    _common(p)

    pd = sub.add_parser("dgpd", help="labeled square commands")
    sd = pd.add_subparsers(dest="subcommand", required=True, metavar="action")
    p = sd.add_parser("compose", help="paste the listed squares in order")
    p.add_argument("squares_file")
    p.add_argument("--dir", required=True, choices=("h", "v"))
    _common(p)
    p = sd.add_parser("array", help="fold the array rows-first and columns-first")
    p.add_argument("squares_file")
    _common(p)
    p = sd.add_parser(
        "roundtrip", help="rebuild a crossed module from its square carrier"
    )
    p.add_argument("xmod_file")
    _common(p)

    pc = sub.add_parser("cube", help="edge-labeled cube commands")
    sc = pc.add_subparsers(dest="subcommand", required=True, metavar="action")
    p = sc.add_parser("check", help="five commuting faces force the sixth")
    p.add_argument("cube_file")
    _common(p)
    p = sc.add_parser("compose", help="glue two cubes along a shared face")
    p.add_argument("cube_file")
    p.add_argument("cube_file2")
    p.add_argument("--dir", required=True, choices=("v", "h", "d"))
    _common(p)

    pe = sub.add_parser("eh", help="two-operation unit collapse commands")
    se = pe.add_subparsers(dest="subcommand", required=True, metavar="action")
    p = se.add_parser("check", help="check interchange and its consequences")
    p.add_argument("eh_file")
    _common(p)

    return ap


_ERROR_KINDS = (
    (ParseError, "parse-error", 2),
    (OSError, "io-error", 2),
    (ValidationError, "validation-error", 2),
    (HypothesisError, "hypothesis-unmet", 1),
    (CompositionError, "composition-mismatch", 1),
    (SizeGuardExceeded, "size-guard", 3),
)


def _error_exit(args, exc):
    kind, code = next(
        ((k, c) for t, k, c in _ERROR_KINDS if isinstance(exc, t)),
        ("internal-error", 4),
    )
    data = {"error_kind": kind}
    if code == 4:
        # A defect, not a verdict: the traceback goes in the report, and
        # the exit code is never 1 (check failed).
        message = f"internal error: {exc!r}"
        data["traceback"] = traceback.format_exception(exc)
    else:
        message = str(exc)
    if isinstance(exc, SizeGuardExceeded):
        data.update(needed=exc.needed, allowed=exc.allowed)
    witnesses = [message]
    if getattr(exc, "witness", None) is not None:
        witnesses.append(f"witness: {exc.witness!r}")
    print(f"error: {message}", file=sys.stderr)
    return _report(
        args, "fail" if code == 1 else "error", code, args.sources,
        witnesses=witnesses, data=data,
    )


def main(argv=None):
    args = build_parser().parse_args(argv)
    args.sources = {}  # path -> the bytes parsed, hashed into the report
    handler = globals()["cmd_" + _command_name(args).replace(" ", "_")]
    try:
        return handler(args)
    except Exception as exc:
        try:
            return _error_exit(args, exc)
        except OSError as write_error:
            # The --report write failed; ``_report`` has cleared the path,
            # so this report goes to stdout only.
            return _error_exit(args, write_error)


def entry():
    sys.exit(main())
