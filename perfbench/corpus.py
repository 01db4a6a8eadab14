"""The cli-corpus workload's commands and their oracles.

Each entry is ``(argv, weight, exit_code, verdict, data)``: the command as
a user types it from the repository root (``--machine`` is appended when it
runs), how many times it appears in one round, and the exit code, verdict
and ``data`` section its machine report must carry.  Whole reports are not
pinned: digests and counters in them may grow without changing the answer.

The two slowest commands appear twice per round so that the 90th
percentile of a round falls inside their block rather than on the edge
between them and the next-slowest command.  No command trips a size guard
(exit 3), because a faster search may legitimately turn those into passes.
"""

BATTERY_EVIDENCE = {
    "c2": {"apex_morphisms": 4, "direct_morphisms": 4, "ok": True},
    "c3": {"apex_morphisms": 9, "direct_morphisms": 9, "ok": True},
    "c4": {"apex_morphisms": 16, "direct_morphisms": 16, "ok": True},
    "s3": {"apex_morphisms": 36, "direct_morphisms": 36, "ok": True},
}

FREE_PRESENTATION = (
    "free crossed module over c2 on 1 generator(s)\n"
    "  d(r) = 1\n"
    "  elements: products of pairs (r, q), q in the group\n"
    "  d(r, q) = q^-1 d(r) q;  (r, q)^u = (r, q u)\n"
    "  peiffer: s^-1 t s = t^{d(s)} for formal elements s, t"
)

INDUCED_PRESENTATION = (
    "induced crossed module along P -> c2\n"
    "  generators: pairs (m, q), m in M (4 elements), q in the target group "
    "(2 elements)\n"
    "  relations:\n"
    "    (m, q) (n, q) = (m n, q)\n"
    "    (m, f(p) q) = (m^p, q)\n"
    "    d(m, q) = q^-1 f(d m) q\n"
    "    peiffer: s^-1 t s = t^{d(s)}"
)

TRIVIAL_SQUARE = {"bottom": "0", "label": "0", "left": "0", "right": "0", "top": "0"}

D = "tests/data/"

COMMANDS = (
    (("pi1", D + "circle.cx", "--base", "0,1", "--vertex", "0"), 1, 0, "pass",
     {"free_loop_counts": [1, 3, 5, 7, 9, 11, 13],
      "generators": {"p": ["0", "1"], "q": ["0", "1"]},
      "vertex_group": "<q | >"}),
    (("pi1", D + "disc.cx", "--base", "0", "--vertex", "0"), 1, 0, "pass",
     {"generators": {"q": ["0", "0"]}, "vertex_group": "<q | q^-1>"}),
    (("vkt", D + "circle.cov", "--base", "0,1"), 1, 0, "pass",
     {"evidence": BATTERY_EVIDENCE}),
    (("vkt", D + "circle.cov", "--base", "0"), 1, 1, "fail",
     {"error_kind": "hypothesis-unmet"}),
    (("vkt", D + "wedge.cov", "--base", "0"), 1, 0, "pass",
     {"evidence": BATTERY_EVIDENCE}),
    (("pushout", D + "wedge-u.pres", D + "wedge-v.pres", D + "wedge-w.pres"),
     2, 0, "pass",
     {"per_target": {
         t: {"apex_morphisms": n, "compatible_pairs": n, "ok": True}
         for t, n in (("c2", 4), ("c3", 9), ("c4", 16), ("s3", 36))}}),
    (("xmod", "check", D + "c4c2.xm"), 1, 0, "pass", {"kernel_sizes": {"*": 2}}),
    (("xmod", "check", D + "bad.xm"), 1, 1, "fail", {"kernel_sizes": {"*": 6}}),
    (("xmod", "aut", D + "s3.grp"), 1, 0, "pass", {}),
    (("xmod", "aut", D + "z7.grp"), 2, 0, "pass", {}),
    (("xmod", "normal", D + "s3.grp", "--subgroup", "e,r,rr"), 1, 0, "pass", {}),
    (("xmod", "normal", D + "s3.grp", "--subgroup", "e,a"), 1, 1, "fail", {}),
    (("xmod", "free", D + "c2.grp", "--gens", "r", "--boundary", "r=1",
      "--verify-against", D + "c4c2.xm"), 1, 0, "pass",
     {"fibers": {"r": ["1", "3"]}, "presentation": FREE_PRESENTATION}),
    (("xmod", "induced", D + "c4c2.xm", "--to", D + "c2.grp", "--map", "0=0,1=1",
      "--verify-against", D + "c4c2.xm"), 1, 0, "pass",
     {"presentation": INDUCED_PRESENTATION}),
    (("dgpd", "compose", D + "squares-c2.sq", "--dir", "h"), 1, 0, "pass",
     {"result": {"bottom": "1", "label": "0", "left": "1", "right": "0", "top": "0"}}),
    (("dgpd", "compose", D + "squares-c2.sq", "--dir", "v"), 1, 1, "fail",
     {"error_kind": "composition-mismatch"}),
    (("dgpd", "array", D + "squares-c2.sq"), 1, 1, "fail",
     {"error_kind": "composition-mismatch"}),
    (("dgpd", "array", D + "array-c2.sq"), 1, 0, "pass",
     {"columns_first": TRIVIAL_SQUARE, "rows_first": TRIVIAL_SQUARE}),
    (("dgpd", "roundtrip", D + "c2c2.xm"), 1, 0, "pass", {}),
    (("cube", "check", D + "cube-z5.cube"), 1, 0, "pass", {}),
    (("cube", "check", D + "cube-z5-broken.cube"), 1, 1, "fail", {}),
    (("cube", "compose", D + "cube-z5.cube", D + "cube-z5-below.cube", "--dir", "v"),
     1, 0, "pass", {}),
    (("eh", "check", D + "eh-c2.eh"), 1, 0, "pass",
     {"commutative": True, "ops_equal": True, "units_equal": True}),
    (("eh", "check", D + "eh-s3.eh"), 1, 1, "fail", {}),
    # A group document where a crossed module is expected: exit 2.
    (("xmod", "check", D + "c2.grp"), 1, 2, "error",
     {"error_kind": "validation-error"}),
)
