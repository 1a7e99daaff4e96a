"""The benchmark's workloads: seeded corpora of operations and the checks
that verify each operation's output.

An operation is one verdict a user waits for: one check_cone_theorem,
one run_mmp, one cohomology or Kodaira check, or one CLI command.  Each
operation rebuilds its inputs from plain data and calls tfm through the
module attribute, so a tracer that rebinds the attribute sees the call.
Checks run outside the timer and do not reuse the result under test:
they recompute a quantity by another route (wall pairings, lattice-point
counts) or compare two operations that must agree (a GL(Z)-sheared twin,
the Serre dual).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from tfm import cli, cohomology, mmp, moricone
from tfm.divisor import TorusDivisor, divisor_wall_pairing, toric_canonical
from tfm.fan import Fan, enumerate_walls, is_smooth, product, projective_space
from tfm.jsonio import dump_json, fan_to_json
from tfm.lattice import rational_rank

import corpus
from corpus import FanData, build_fan, build_pair


class Op(NamedTuple):
    kind: str        # the public tfm function the operation calls
    name: str        # names the input in failure reports
    data: object     # plain input data
    run: Callable    # data -> result; builds the tfm objects itself
    verify: Callable  # (data, result) -> (failure reason or None, summary)


class Group(NamedTuple):
    """Operations whose results are checked against each other."""

    ops: tuple
    check: Optional[Callable] = None  # summaries -> {op index: reason}


class Corpus(NamedTuple):
    groups: tuple
    cycle: int       # groups per cycle of the size schedule
    # groups that reproduce a known, open defect, the defective instance
    # last: run and reported once per run, outside the measured
    # operations and the correct verdict
    known_defects: tuple = ()


def _interleave(slots, cost):
    """Alternate cheap and expensive slots so that any prefix of a cycle
    holds a representative mix."""
    ordered = sorted(slots, key=lambda s: (cost(s), s))
    half = len(ordered) // 2
    lo, hi = ordered[:half], ordered[half:][::-1]
    out = []
    for i in range(len(hi)):
        out.append(hi[i])
        if i < len(lo):
            out.append(lo[i])
    return out


# ---------------------------------------------------------------------------
# cone_check and mmp: the Mori pipeline

# Slots are (dim, rays, rank), every rank in each dimension, 4-8 rays on
# surfaces and 5-6 on 3-folds.  The cost of a verdict grows steeply with
# the ray count and, for the MMP, varies with the number of steps.  With
# this mix a run holds a few hundred verdicts and p50 and p90 fall inside
# blocks of like instances (6-ray 3-folds hold p90); with 7 or more rays
# on 3-folds (0.1-2.3 s per verdict) a run holds too few verdicts, and
# the edge between two sizes sets p90, so neither is steady.
MORI_SLOTS = _interleave(
    [(2, nr, r) for nr in range(4, 9) for r in (1, 2)]
    + [(3, nr, r) for nr in (5, 6) for r in (1, 2, 3)],
    cost=lambda s: s[1] + 2 * (s[0] - 2),
)
MORI_CYCLES = 24  # cycles of distinct instances; a 50 s run repeats some


def _mori_corpus(tag: str, seed: int, make_op) -> Corpus:
    rng = random.Random("%s:%d" % (tag, seed))
    groups = []
    for cycle in range(MORI_CYCLES):
        for dim, nrays, rank in MORI_SLOTS:
            f = corpus.simplicial_fan(rng, dim, nrays)
            data = corpus.pair_data(corpus.random_pair(rng, f, rank))
            name = "%s/%dd-%dr-rank%d#%d" % (tag, dim, nrays, rank, cycle)
            groups.append(Group((make_op(name, data),)))
    return Corpus(tuple(groups), len(MORI_SLOTS))


def _in_span(basis, v) -> bool:
    return rational_rank(list(basis) + [v]) == rational_rank(basis)


def _length(f: Fan, d: TorusDivisor, walls) -> Fraction:
    """min over the walls of -(d . V(wall)), by wall pairings."""
    return min(-divisor_wall_pairing(f, d, w) for w in walls)


def _verify_cone(data, report):
    pair = build_pair(data)
    f, r = pair.fan, pair.rank
    if not report.ok:
        return "report not ok", None
    if not report.rays:
        return "no extremal rays", None
    full_rank = r == f.dim
    classical = toric_canonical(f) + pair.delta
    for entry in report.rays:
        walls = entry.ray.member_walls
        if entry.length != _length(f, pair.k_plus_delta, walls):
            return "length of ray %s disagrees with wall pairings" % (entry.ray.generator,), None
        if entry.length > r + 1:
            return "length %s exceeds r+1 = %d" % (entry.length, r + 1), None
        if full_rank and entry.length != _length(f, classical, walls):
            return "rank-n length differs from the classical toric length", None
        if entry.length > r:
            b = entry.bundle
            if b is None:
                return "long ray without a bundle certificate", None
            fiber = list(b.fiber_rays)
            if f.dim - b.base_fan.dim != r:
                return "bundle fiber dimension differs from rank", None
            if rational_rank(fiber) != r or not all(_in_span(fiber, v) for v in data.basis):
                return "V is not the span of the fiber rays", None
            if not sum(data.delta) < 1:
                return "long ray with boundary sum >= 1", None
    return None, None


def _cone_op(name, data):
    return Op("check_cone_theorem", name, data,
              lambda d: moricone.check_cone_theorem(build_pair(d)), _verify_cone)


def _log_canonical(f_rays, basis, delta) -> bool:
    return all(
        b <= 1 and (b == 0 or _in_span(basis, ray)) for ray, b in zip(f_rays, delta)
    )


def _verify_mmp(data, trace):
    steps = trace.steps
    for s in steps[:-1] if trace.terminal == "mori_fiber_space" else steps:
        if s.kind == "divisorial" and s.rays_after != s.rays_before - 1:
            return "divisorial step did not drop one ray", None
        if s.kind == "flip" and s.rays_after != s.rays_before:
            return "flip changed the ray count", None
        if s.kind not in ("divisorial", "flip"):
            return "step of kind %s before the end" % s.kind, None
    last = data
    if steps and steps[-1].pair_after is not None:
        p = steps[-1].pair_after
        last = corpus.pair_data(p)
    elif len(steps) > 1:
        last = corpus.pair_data(steps[-2].pair_after)
    final = build_pair(last)
    if not _log_canonical(final.fan.rays, last.basis, last.delta):
        return "final pair is not log canonical", None
    if trace.terminal == "mori_fiber_space":
        if not steps or steps[-1].kind != "fiber" or not steps[-1].length > 0:
            return "Mori fiber space without a K-negative fiber contraction", None
    elif trace.terminal == "minimal_model":
        f = final.fan
        if any(divisor_wall_pairing(f, final.k_plus_delta, w) < 0 for w in enumerate_walls(f)):
            return "minimal model with K_F+Delta not nef", None
    else:
        return "illegal terminal state %r" % trace.terminal, None
    return None, None


def _mmp_op(name, data):
    return Op("run_mmp", name, data,
              lambda d: mmp.run_mmp(build_pair(d), max_steps=20), _verify_mmp)


def cone_check_corpus(seed: int) -> Corpus:
    return _mori_corpus("cone_check", seed, _cone_op)


def mmp_corpus(seed: int) -> Corpus:
    return _mori_corpus("mmp", seed, _mmp_op)


# ---------------------------------------------------------------------------
# cohomology: the weight scan and Betti ranks

SURFACES = {
    "P2": corpus.fan_data(projective_space(2)),
    "F1": FanData(2, ((1, 0), (1, 1), (0, 1), (-1, -1)), ((0, 1), (1, 2), (2, 3), (0, 3))),
    "P1xP1": corpus.fan_data(product(projective_space(1), projective_space(1))),
    "P112": FanData(2, ((1, 0), (0, 1), (-1, -2)), ((0, 1), (1, 2), (0, 2))),
}

# A valid, complete, simplicial, projective 3-fold on which the default
# box undercounts h^1 (6, 53 instead of 6, 54), and an unsheared twin
# with small coordinates whose default box is large enough: the open
# defect of ROADMAP item 2.  It is a known defect, not a measured
# operation; once it is fixed it can join COH_CYCLE.
BOX_UNDERCOUNT = FanData(
    3,
    ((0, -1, -1), (0, 1, 1), (1, 3, 0), (-1, -3, 0), (1, 3, 1), (-1, -3, -1),
     (0, 1, 0), (0, -1, -3)),
    ((1, 3, 5), (1, 3, 4), (1, 2, 6), (1, 5, 6), (2, 5, 6), (1, 2, 4), (0, 3, 5),
     (0, 3, 4), (0, 2, 7), (0, 5, 7), (2, 5, 7), (0, 2, 4)),
)
BOX_UNDERCOUNT_TWIN = corpus.shear_fan(BOX_UNDERCOUNT, ((1, 0, 0), (-3, 1, 0), (4, -2, 1)))
BOX_UNDERCOUNT_DIVISOR = (0, 1, 3, 0, 1, 2, 3, 0)

# The default box, and so the cost of a scan, grows with the largest
# coordinate and coefficient; fixing both per slot gives every seed the
# same mix of scan sizes.
SHEAR_HEIGHT = 5      # largest coordinate of a sheared twin
TWIN_HEIGHT = 2       # largest coordinate of an unsheared 3-fold
# 3-fold slots: (rays, smooth); smooth ones also get the Serre dual.  One
# ray count, so the sheared scans, which set p90, are of one size.
COH3_SLOTS = ((7, True), (7, False), (7, False))
# One cycle: two Kodaira groups per surface and three 3-fold groups,
# spread so each prefix holds every kind.  The sheared Kodaira checks
# then make up the middle of the latency distribution, so p50 falls
# inside one block of similar operations.
COH_CYCLE = ("K", "K", "C", "K", "K", "C", "K", "K", "C", "K", "K")
COH_CYCLES = 8


def _h0_failure(fan: FanData, coeffs, h) -> Optional[str]:
    expect = cohomology.h0_lattice_count(build_fan(fan), TorusDivisor(coeffs))
    if h[0] != expect:
        return "h^0 = %d but the section polytope has %d lattice points" % (h[0], expect)
    return None


def _verify_weil(data, report):
    fan, coeffs = data
    return _h0_failure(fan, coeffs, report.h), report.h


def _weil_op(name, fan: FanData, coeffs):
    return Op("weil_cohomology", name, (fan, coeffs),
              lambda d: cohomology.weil_cohomology(build_fan(d[0]), TorusDivisor(d[1])),
              _verify_weil)


def _verify_kodaira(data, report):
    pair, coeffs = data
    if not report.hypothesis_ok or report.cohomology is None:
        return "Kodaira hypothesis rejected: %s" % report.hypothesis_reason, None
    h = report.cohomology.h
    if any(h[1:]):
        return "h^i != 0 for some i >= 1: %s" % (h,), None
    return _h0_failure(pair.fan, coeffs, h), h


def _kodaira_op(name, pair, coeffs):
    return Op("kodaira_check", name, (pair, coeffs),
              lambda d: cohomology.kodaira_check(build_pair(d[0]), TorusDivisor(d[1])),
              _verify_kodaira)


def _twin_check(summaries):
    """summaries[0] is the instance's h, summaries[1] its sheared twin's
    and summaries[2], when present, that of the Serre dual K_X - L on the
    same smooth fan.  Returns {op index: reason}."""
    bad = {}
    h, h_sheared = summaries[0], summaries[1]
    if h is not None and h_sheared is not None and h != h_sheared:
        bad[1] = "GL(Z) shear changed h: %s vs %s" % (h_sheared, h)
    if len(summaries) == 3 and h is not None and summaries[2] is not None:
        if tuple(reversed(summaries[2])) != h:
            bad[2] = "Serre duality fails: h(L) = %s, h(K-L) = %s" % (h, summaries[2])
    return bad


def _kodaira_group(rng, label, surface: FanData, t: int) -> Group:
    f = build_fan(surface)
    pair, l = corpus.kodaira_instance(rng, f, t)
    data = corpus.pair_data(pair)
    m = corpus.shear_to_height(rng, f.rays, SHEAR_HEIGHT)
    ops = (
        _kodaira_op(label, data, l.coeffs),
        _kodaira_op(label + "/sheared", corpus.shear_pair(data, m), l.coeffs),
    )
    return Group(ops, _twin_check)


def _threefold_group(rng, label, nrays: int, serre: bool) -> Group:
    for _ in range(1000):
        f = corpus.simplicial_fan(rng, 3, nrays)
        fan = corpus.fan_data(f)
        if max(abs(x) for r in f.rays for x in r) <= TWIN_HEIGHT and is_smooth(f) == serre:
            break
    else:
        raise RuntimeError("no %d-ray 3-fold of height <= %d found" % (nrays, TWIN_HEIGHT))
    coeffs = tuple(rng.randint(-1, 1) for _ in f.rays)
    m = corpus.shear_to_height(rng, f.rays, SHEAR_HEIGHT)
    ops = [
        _weil_op(label, fan, coeffs),
        _weil_op(label + "/sheared", corpus.shear_fan(fan, m), coeffs),
    ]
    if serre:
        ops.append(_weil_op(label + "/serre-dual", fan,
                            (toric_canonical(f) - TorusDivisor(coeffs)).coeffs))
    return Group(tuple(ops), _twin_check)


def _box_undercount_group() -> Group:
    ops = (
        _weil_op("box-undercount/twin", BOX_UNDERCOUNT_TWIN, BOX_UNDERCOUNT_DIVISOR),
        _weil_op("box-undercount", BOX_UNDERCOUNT, BOX_UNDERCOUNT_DIVISOR),
    )
    return Group(ops, _twin_check)


def cohomology_corpus(seed: int) -> Corpus:
    rng = random.Random("cohomology:%d" % seed)
    groups = []
    names = list(SURFACES)
    for cycle in range(COH_CYCLES):
        k = c = 0
        for kind in COH_CYCLE:
            if kind == "K":
                label = names[k % len(names)]
                t = 1 + (k + cycle) % 3
                groups.append(_kodaira_group(
                    rng, "kodaira/%s-t%d#%d" % (label, t, cycle), SURFACES[label], t))
                k += 1
            else:
                nrays, serre = COH3_SLOTS[c]
                groups.append(_threefold_group(
                    rng, "weil/3d-%dr#%d" % (nrays, cycle), nrays, serre))
                c += 1
    return Corpus(tuple(groups), len(COH_CYCLE), (_box_undercount_group(),))


# ---------------------------------------------------------------------------
# cli: in-process tfm.cli.main with --json

def _cli_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv) + ["--json"])
    return code, out.getvalue()


def _cli_op(name, argv, golden):
    def verify(data, result):
        code, text = result
        if code != 0:
            return "exit code %d" % code, None
        try:
            payload = json.loads(text)
        except ValueError as exc:
            return "output is not JSON: %s" % exc, None
        return (None if golden(payload) else "golden value mismatch"), None

    return Op("cli." + argv[0], name, tuple(argv), _cli_run, verify)


def _lengths(payload):
    return sorted(Fraction(r["length"]) for r in payload["rays"])


def _is_simplicial_fan(fan_json, rays) -> bool:
    return fan_json["rays"] == [list(r) for r in rays] and all(
        len(c) == fan_json["dim"]
        and rational_rank([fan_json["rays"][i] for i in c]) == fan_json["dim"]
        for c in fan_json["cones"]
    )


def _readme_ops(root: str, work: str):
    data = lambda name: os.path.join(root, "data", name)  # noqa: E731
    cube = corpus.cube_fan()
    return [
        (["validate", "--fan", data("f1.fan.json")], lambda p: p["ok"] is True),
        (["info", "--fan", data("cube.fan.json")],
         lambda p: (p["complete"], p["simplicial"], p["projective"], p["rays"], p["walls"])
         == (True, False, True, 8, 12)),
        (["qfact", "--fan", data("cube.fan.json"), "--out", os.path.join(work, "cube-simp.fan.json")],
         lambda p: _is_simplicial_fan(p["fan"], cube.rays) and len(p["fan"]["cones"]) == 12),
        # Hirzebruch golden values: -K_F of V = <(1,1)> pairs 2 with the
        # fiber ray and -1 with the (-1)-curve
        (["mori", "--fan", data("f1.fan.json"), "--pair", data("fv.pair.json")],
         lambda p: _lengths(p) == [-1, 2] and p["bound_ok"] is True),
        (["cone-check", "--fan", data("f1.fan.json"), "--pair", data("fv.pair.json")],
         lambda p: p["ok"] is True and _lengths(p) == [-1, 2]),
        (["bundle", "--fan", data("f1.fan.json"), "--ray", "0"],
         lambda p: p["bundle"] is not None and p["bundle"]["line_degrees"] == [1]),
        (["fujita", "--fan", data("p2.fan.json"), "--pair", data("fw.pair.json"),
          "--ample", data("d3.div.json")], lambda p: p["ok"] is True),
        (["cohomology", "--fan", data("p2.fan.json"), "--divisor", data("d3.div.json")],
         lambda p: p["h"] == [3, 0, 0]),
        (["kodaira", "--fan", data("p112.fan.json"), "--pair", data("full2.pair.json"),
          "--divisor", data("d3.div.json")],
         lambda p: p["h"] == [2, 0, 0] and p["vanishing_ok"] is True),
        (["discrepancy", "--fan", data("p2.fan.json"), "--pair", data("full2.pair.json"),
          "--w", "1,1"], lambda p: p["a"] == "1"),
        (["mmp", "--fan", data("f1.fan.json"), "--pair", data("fw.pair.json")],
         lambda p: [s["kind"] for s in p["steps"]] == ["divisorial", "fiber"]
         and p["terminal"] == "mori_fiber_space"),
        (["build-bundle", "--base", data("p1.fan.json"), "--degrees", "1"],
         lambda p: (p["dim"], len(p["rays"]), len(p["cones"])) == (2, 4, 4)),
    ]


def _face_fan_ops(label: str, path: str, fan: FanData):
    return [
        (label + "/validate", ["validate", "--fan", path], lambda p: p["ok"] is True),
        (label + "/info", ["info", "--fan", path],
         lambda p: (p["complete"], p["simplicial"], p["projective"], p["rays"])
         == (True, False, True, len(fan.rays))),
        (label + "/qfact", ["qfact", "--fan", path],
         lambda p: _is_simplicial_fan(p["fan"], fan.rays) and not p["already_simplicial"]),
    ]


CLI_CYCLES = 4


def cli_corpus(seed: int, root: str, work: str) -> Corpus:
    """README commands on data/, then validate/info/qfact on cube and
    prism face fans and their shears, written as JSON into `work`."""
    rng = random.Random("cli:%d" % seed)
    bases = [("cube", corpus.cube_fan())] + [
        ("prism%d" % k, corpus.prism_fan(k)) for k in (3, 4, 5)
    ]
    groups = []
    per_cycle = 0
    for cycle in range(CLI_CYCLES):
        ops = [_cli_op("readme/%s#%d" % (argv[0], cycle), argv, golden)
               for argv, golden in _readme_ops(root, work)]
        for label, fan in bases:
            sheared = corpus.shear_fan(fan, corpus.shear_matrix(rng, 3))
            for variant, data in ((label, fan), (label + "-sheared", sheared)):
                path = os.path.join(work, "%s-%d.fan.json" % (variant, cycle))
                with open(path, "w") as handle:
                    handle.write(dump_json(fan_to_json(build_fan(data))))
                ops += [_cli_op("%s#%d" % (name, cycle), argv, golden)
                        for name, argv, golden in _face_fan_ops(variant, path, data)]
        groups += [Group((op,)) for op in ops]
        per_cycle = len(ops)
    return Corpus(tuple(groups), per_cycle)
