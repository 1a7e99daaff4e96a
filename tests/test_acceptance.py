"""Acceptance suite: one test per criterion, exact checks only.

Run with `pytest tests/test_acceptance.py -s` to see the PASS line per
criterion.  Randomized instances are seeded and shared module-wide.
"""

import random
import time
from fractions import Fraction

import pytest

import _corpus
from tests_helpers import assert_convexity_certificates
from tfm.cohomology import kodaira_check, serre_duality_check, weil_cohomology
from tfm.divisor import (
    TorusDivisor,
    curve_class_space,
    divisor_wall_pairing,
    is_ample,
    is_cartier,
    pullback,
    qcartier_data,
    ray_divisor,
    toric_canonical,
    zero_divisor,
)
from tfm.fan import (
    Fan,
    enumerate_walls,
    is_complete,
    is_simplicial,
    is_smooth,
    product,
    projective_space,
    qfactorialize,
    refines,
    validate_fan,
)
from tfm.foliation import FoliatedPair, FoliationSubspace, full_space, is_log_canonical
from tfm.lattice import vec_add, vec_scale
from tfm.mmp import run_mmp
from tfm.moricone import check_cone_theorem, mori_cone, ray_length

SEED = 20250809


def _passline(n, text):
    print("\n[criterion %2d] PASS: %s" % (n, text))


@pytest.fixture(scope="module")
def corpus():
    """>= 200 seeded instances: complete projective simplicial fans with
    n in {2,3}, <= 12 rays, from star subdivisions of P^n and products;
    random rational V of every rank; random boundary in [0,1] supported
    inside V."""
    rng = random.Random(SEED)
    instances = []
    while len(instances) < 200:
        dim = 2 if len(instances) % 2 == 0 else 3
        f = _corpus.random_simplicial_fan(rng, dim)
        pair = _corpus.random_pair(rng, f)
        instances.append(pair)
    return instances


@pytest.fixture(scope="module")
def cone_reports(corpus):
    t0 = time.perf_counter_ns()
    reports = [check_cone_theorem(pair) for pair in corpus]
    elapsed_ms = (time.perf_counter_ns() - t0) // 10**6
    return reports, elapsed_ms


def hirzebruch_fan():
    return Fan(2, [(1, 0), (1, 1), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)])


def test_criterion_1_golden_example():
    t0 = time.perf_counter_ns()
    f = hirzebruch_fan()
    v = FoliationSubspace([(1, 1)])
    w = FoliationSubspace([(1, 0)])
    pair_v = FoliatedPair(f, v, zero_divisor(f))
    pair_w = FoliatedPair(f, w, zero_divisor(f))
    walls = enumerate_walls(f)
    by_ray = {wl.rays[0]: wl for wl in walls}
    minus_kv = -pair_v.k_foliation
    minus_kw = -pair_w.k_foliation
    assert divisor_wall_pairing(f, minus_kv, by_ray[1]) == -1
    assert divisor_wall_pairing(f, minus_kv, by_ray[2]) == 2
    assert divisor_wall_pairing(f, minus_kw, by_ray[1]) == 1
    assert divisor_wall_pairing(f, minus_kw, by_ray[2]) == 0
    rays = mori_cone(f)
    assert len(rays) == 2
    gens = {r.generator for r in rays}
    space = curve_class_space(f)
    d1_class = space.wall_classes[walls.index(by_ray[0])]
    d2_class = space.wall_classes[walls.index(by_ray[1])]
    d3_class = space.wall_classes[walls.index(by_ray[2])]
    assert d1_class == d3_class  # [D_1] = [D_3]
    from tfm.lattice import primitivize

    assert gens == {primitivize(d2_class), primitivize(d3_class)}
    elapsed_ms = (time.perf_counter_ns() - t0) // 10**6
    assert elapsed_ms < 1000
    _passline(1, "Hirzebruch golden values, exact, %d ms" % elapsed_ms)


def test_criterion_2_cone_theorem_lengths(corpus, cone_reports):
    reports, elapsed_ms = cone_reports
    assert len(corpus) >= 200
    ranks_seen = {2: set(), 3: set()}
    for pair, report in zip(corpus, reports):
        r = pair.rank
        ranks_seen[pair.fan.dim].add(r)
        for entry in report.rays:
            assert entry.length <= r + 1, (pair.fan, entry.ray.generator)
    # every rank occurs for each ambient dimension
    assert ranks_seen[2] == {1, 2} and ranks_seen[3] == {1, 2, 3}
    assert elapsed_ms < 300_000
    total_rays = sum(len(rep.rays) for rep in reports)
    _passline(
        2,
        "length <= r+1 on %d instances (%d extremal rays), %d ms"
        % (len(corpus), total_rays, elapsed_ms),
    )


def test_criterion_3_bundle_dichotomy(corpus, cone_reports):
    reports, _ = cone_reports
    long_rays = 0
    for pair, report in zip(corpus, reports):
        assert report.ok
        for entry in report.rays:
            if entry.needs_bundle:
                long_rays += 1
                assert entry.bundle is not None, entry.bundle_failure
                assert entry.tangent_ok
                assert entry.delta_sum_ok
    assert long_rays > 0
    _passline(3, "all %d long rays carry verified bundle certificates" % long_rays)


def test_criterion_4_full_rank_specialization():
    rng = random.Random(SEED + 4)
    checked = 0
    while checked < 50:
        dim = 2 if checked % 2 == 0 else 3
        f = _corpus.random_simplicial_fan(rng, dim)
        sub = full_space(dim)
        delta = _corpus.random_lc_delta(rng, f, sub)
        pair = FoliatedPair(f, sub, delta)
        classical = toric_canonical(f) + delta
        assert pair.k_plus_delta == classical
        walls = enumerate_walls(f)
        for ray in mori_cone(f):
            foliated = ray_length(pair, ray)
            classical_len = min(
                -divisor_wall_pairing(f, classical, walls[wi])
                for wi in ray.member_wall_indices
            )
            assert foliated == classical_len
            assert foliated <= dim + 1
        checked += 1
    _passline(4, "rank-n lengths equal the classical toric lengths on 50 instances")


def test_criterion_5_fujita(corpus):
    from tfm.moricone import fujita_report

    rng = random.Random(SEED + 5)
    smooth_instances = []
    while len(smooth_instances) < 12:
        dim = 2 if len(smooth_instances) % 2 == 0 else 3
        f = _corpus.random_simplicial_fan(rng, dim, max_subdivisions=3)
        if not is_smooth(f):
            continue
        smooth_instances.append(_corpus.random_pair(rng, f))
    # also take every smooth instance already in the shared corpus
    smooth_instances += [pair for pair in corpus if is_smooth(pair.fan)]
    exceptions_seen = 0
    for pair in smooth_instances:
        f = pair.fan
        r = pair.rank
        for a in _corpus.ample_cartier_samples(rng, f, count=5):
            report = fujita_report(pair, a)
            assert report.freeness_nef, (f, a.coeffs)
            if not report.improved_nef:
                assert report.improved_exception is not None
                exceptions_seen += 1
            assert report.ok
    _passline(
        5,
        "freeness nef on %d smooth instances x 5 ample divisors; "
        "%d exception certificates verified" % (len(smooth_instances), exceptions_seen),
    )


def _kodaira_instances(rng, f, count=10, force_non_cartier=False):
    """Random (pair, L) with L integral and L-(K_F+Delta) ample."""
    out = []
    guard = 0
    while len(out) < count and guard < 400:
        guard += 1
        pair = _corpus.random_pair(rng, f)
        amp = _corpus.ample_cartier(f)
        t = rng.randint(1, 3)
        target = pair.k_plus_delta + t * amp
        coeffs = tuple(c.__ceil__() + rng.randint(0, 1) for c in target.coeffs)
        l = TorusDivisor(coeffs)
        if qcartier_data(f, l) is None:
            continue
        if not is_ample(f, l - pair.k_plus_delta):
            continue
        if force_non_cartier and len(out) < 3 and is_cartier(f, l):
            continue
        out.append((pair, l))
    assert len(out) == count
    return out


def test_criterion_6_kodaira_vanishing(p112):
    t0 = time.perf_counter_ns()
    rng = random.Random(SEED + 6)
    fans = {
        "P2": projective_space(2),
        "F1": hirzebruch_fan(),
        "P1xP1": product(projective_space(1), projective_space(1)),
        "P112": p112,
    }
    total = 0
    non_cartier_seen = 0
    for name, f in fans.items():
        force = name == "P112"
        for pair, l in _kodaira_instances(rng, f, 10, force_non_cartier=force):
            report = kodaira_check(pair, l)
            assert report.hypothesis_ok, (name, l.coeffs)
            assert report.perturbation is not None
            assert all(c < 1 for c in report.perturbation.coeffs)
            assert report.vanishing_ok, (name, l.coeffs, report.cohomology.h)
            doubled = weil_cohomology(f, l, 2 * report.cohomology.box)
            assert doubled.h == report.cohomology.h  # box stability
            if not is_cartier(f, l):
                non_cartier_seen += 1
            total += 1
    elapsed_ms = (time.perf_counter_ns() - t0) // 10**6
    assert elapsed_ms < 120_000
    assert non_cartier_seen >= 3
    _passline(
        6,
        "h^i=0 (i>=1) on %d hypothesis-satisfying instances "
        "(%d with non-Cartier L), box-stable, %d ms"
        % (total, non_cartier_seen, elapsed_ms),
    )


def test_criterion_7_cohomology_oracle():
    p2 = projective_space(2)
    for d in range(0, 6):
        div = d * ray_divisor(p2, 2)
        report = weil_cohomology(p2, div)
        assert report.h[0] == (d + 1) * (d + 2) // 2
    p1 = projective_space(1)
    assert weil_cohomology(p1, TorusDivisor((-2, 0))).h == (0, 1)
    rng = random.Random(SEED + 7)
    checked = 0
    while checked < 20:
        dim = 2 if checked % 2 == 0 else 3
        f = _corpus.random_simplicial_fan(rng, dim, max_subdivisions=2)
        if not is_smooth(f):
            continue
        d = TorusDivisor(tuple(rng.randint(-2, 2) for _ in f.rays))
        assert serre_duality_check(f, d)
        checked += 1
    _passline(7, "h^0 oracle, h^1(P^1,O(-2))=1, Serre duality on 20 smooth instances")


def test_criterion_8_intersection_consistency(corpus):
    for pair in corpus:
        f = pair.fan
        space = curve_class_space(f)
        walls = enumerate_walls(f)
        for wi, (wall, cls) in enumerate(zip(walls, space.wall_classes)):
            total = (Fraction(0),) * f.dim
            for b, u in zip(cls, f.rays):
                total = vec_add(total, vec_scale(b, u))
            assert all(x == 0 for x in total)
        d = pair.k_plus_delta
        for wi, wall in enumerate(walls):
            assert divisor_wall_pairing(f, d, wall) == space.pair(d, wi)
    _passline(8, "wall relations and quotient-vs-class pairings agree on the corpus")


def test_criterion_9_qfactorialization(cube_fan):
    rng = random.Random(SEED + 9)
    fans = [cube_fan] + _corpus.nonsimplicial_corpus(rng, 10)
    subdivided = 0
    for f in fans:
        assert validate_fan(f).ok
        assert is_complete(f) and not is_simplicial(f)
        result = qfactorialize(f)
        out = result.fan
        assert out.rays == f.rays
        assert is_simplicial(out) and is_complete(out)
        assert validate_fan(out).ok
        assert refines(out, f)
        assert result.certificates  # strict convexity over the input
        assert_convexity_certificates(result)
        subdivided += len(result.certificates)
        # crepancy: pulled-back K_F+Delta kills every contracted wall class
        half_boundary = TorusDivisor(
            tuple(Fraction(1, 2) for _ in f.rays)
        )
        pairs = [
            FoliatedPair(f, full_space(3), zero_divisor(f)),
            FoliatedPair(f, full_space(3), half_boundary),
        ]
        for pair in pairs:
            assert is_log_canonical(pair).ok
            pulled = pullback(f, out, pair.cartier_data)
            space = curve_class_space(out)
            walls = enumerate_walls(out)
            contracted = 0
            for wi, wall in enumerate(walls):
                src_a = result.cone_map[wall.side_a]
                src_b = result.cone_map[wall.side_b]
                if src_a == src_b:
                    contracted += 1
                    assert space.pair(pulled, wi) == 0
            assert contracted > 0
    _passline(
        9,
        "11 non-simplicial fans Q-factorialized with certificates "
        "(%d subdivided cones), crepant on contracted walls" % subdivided,
    )


def test_criterion_10_mmp(corpus):
    f1 = hirzebruch_fan()
    trace_v = run_mmp(FoliatedPair(f1, FoliationSubspace([(1, 1)]), zero_divisor(f1)))
    assert [s.kind for s in trace_v.steps] == ["fiber"]
    assert trace_v.terminal == "mori_fiber_space"
    trace_w = run_mmp(FoliatedPair(f1, FoliationSubspace([(1, 0)]), zero_divisor(f1)))
    assert [s.kind for s in trace_w.steps] == ["divisorial", "fiber"]
    assert trace_w.terminal == "mori_fiber_space"

    kinds = {"divisorial": 0, "flip": 0, "fiber": 0}
    for pair in corpus:
        trace = run_mmp(pair, max_steps=20)  # raises beyond 20 steps
        assert trace.terminal in ("minimal_model", "mori_fiber_space")
        for step in trace.steps:
            kinds[step.kind] += 1
        # log canonicity after every step is asserted inside run_mmp;
        # re-check the final pair when one exists
        if trace.steps and trace.steps[-1].pair_after is not None:
            assert is_log_canonical(trace.steps[-1].pair_after).ok
    _passline(
        10,
        "MMP terminated within 20 steps on all %d instances "
        "(%d divisorial, %d flips, %d fiber)"
        % (len(corpus), kinds["divisorial"], kinds["flip"], kinds["fiber"]),
    )
