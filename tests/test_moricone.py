import random
from fractions import Fraction

import _corpus
import pytest

from tfm import moricone, polyhedra
from tfm.divisor import (
    TorusDivisor,
    curve_class_space,
    is_ample,
    is_nef,
    ray_divisor,
    toric_canonical,
    zero_divisor,
)
from tfm.fan import (
    Fan,
    enumerate_walls,
    fans_unimodular_equivalent,
    is_projective,
    projective_space,
)
from tfm.foliation import FoliatedPair, FoliationSubspace, full_space
from tfm.moricone import (
    BundleDetectionFailure,
    check_cone_theorem,
    contraction,
    detect_pr_bundle,
    fujita_report,
    mori_cone,
    pair_with_ray_generator,
    ray_length,
    relative_tangent_check,
    supporting_divisor,
    verify_split_bundle_over_p1,
    wall_curve_class,
)


def test_wall_curve_class_p2(p2):
    for wall in enumerate_walls(p2):
        cls = wall_curve_class(p2, wall)
        assert cls.vector == (1, 1, 1)


def test_wall_curve_class_p112(p112):
    walls = enumerate_walls(p112)
    wall0 = next(w for w in walls if w.rays == (0,))
    cls = wall_curve_class(p112, wall0)
    assert cls.vector == (Fraction(1, 2), 1, Fraction(1, 2))


def test_wall_curve_class_hirzebruch_pairing(hirzebruch1):
    walls = enumerate_walls(hirzebruch1)
    wall3 = next(w for w in walls if w.rays == (2,))
    cls = wall_curve_class(hirzebruch1, wall3)
    minus_kv = TorusDivisor((0, 1, 0, 1))
    assert sum(b * c for b, c in zip(cls.vector, minus_kv.coeffs)) == 2


def test_mori_cone_counts(p2, hirzebruch1, p1xp1):
    assert len(mori_cone(p2)) == 1
    assert len(mori_cone(hirzebruch1)) == 2
    assert len(mori_cone(p1xp1)) == 2


def test_mori_cone_golden(hirzebruch1):
    rays = mori_cone(hirzebruch1)
    gens = {r.generator for r in rays}
    assert gens == {(0, 1, 0, 1), (1, -1, 1, 0)}
    fiber_ray = next(r for r in rays if r.generator == (0, 1, 0, 1))
    # [D_1] = [D_3]: both vertical walls lie on the ray
    assert {w.rays for w in fiber_ray.member_walls} == {(0,), (2,)}


def test_mori_cone_requires_projectivity(nonprojective_fan):
    with pytest.raises(ValueError, match="projectivity"):
        mori_cone(nonprojective_fan)


def test_mori_cone_order_independent(hirzebruch1):
    # canonical generators do not depend on cone listing order
    shuffled = Fan(
        hirzebruch1.dim,
        hirzebruch1.rays,
        list(reversed(hirzebruch1.max_cones)),
    )
    assert {r.generator for r in mori_cone(shuffled)} == {
        r.generator for r in mori_cone(hirzebruch1)
    }


def test_ray_length_golden(p2, hirzebruch1):
    pair = FoliatedPair(p2, full_space(2), zero_divisor(p2))
    (ray,) = mori_cone(p2)
    assert ray_length(pair, ray) == 3  # r+1 at r = 2

    v = FoliationSubspace([(1, 1)])
    w = FoliationSubspace([(1, 0)])
    pair_v = FoliatedPair(hirzebruch1, v, zero_divisor(hirzebruch1))
    pair_w = FoliatedPair(hirzebruch1, w, zero_divisor(hirzebruch1))
    rays = mori_cone(hirzebruch1)
    d3_ray = next(r for r in rays if r.generator == (0, 1, 0, 1))
    assert ray_length(pair_v, d3_ray) == 2
    assert ray_length(pair_w, d3_ray) == 0


BATCH_SEED = 20241018


def test_supporting_divisor_duality(p2, p3, hirzebruch1, p112, p1xp1, cube_fan):
    fans = [p2, p3, hirzebruch1, p112, p1xp1, cube_fan]
    for f in fans + _corpus.projective_batch(BATCH_SEED):
        space = curve_class_space(f)
        for ray in mori_cone(f):
            d = supporting_divisor(f, ray)
            assert is_nef(f, d)
            member = set(ray.member_wall_indices)
            for wi in range(len(space.wall_classes)):
                value = space.pair(d, wi)
                if wi in member:
                    assert value == 0
                else:
                    assert value > 0


def test_supporting_divisor_p2_contracts_everything(p2):
    (ray,) = mori_cone(p2)
    d = supporting_divisor(p2, ray)
    # numerically trivial: pairs to zero with the generating class
    assert pair_with_ray_generator(p2, d, ray) == 0


def test_contraction_golden(hirzebruch1, p2):
    rays = mori_cone(hirzebruch1)
    d3_ray = next(r for r in rays if r.generator == (0, 1, 0, 1))
    d2_ray = next(r for r in rays if r.generator == (1, -1, 1, 0))

    fiber = contraction(hirzebruch1, d3_ray)
    assert fiber.kind == "fiber"
    assert fiber.target.dim == 1
    assert sorted(fiber.target.rays) == [(-1,), (1,)]

    blowdown = contraction(hirzebruch1, d2_ray)
    assert blowdown.kind == "divisorial"
    assert blowdown.target == Fan(
        2, [(-1, -1), (0, 1), (1, 0)], [(0, 1), (0, 2), (1, 2)]
    )
    assert fans_unimodular_equivalent(blowdown.target, p2) is not None

    (p2_ray,) = mori_cone(p2)
    to_point = contraction(p2, p2_ray)
    assert to_point.kind == "fiber"
    assert to_point.target.dim == 0


def test_mori_pipeline_solves_no_lp(
    monkeypatch, p1, p2, p3, hirzebruch1, p112, p1xp1, cube_fan,
    quadric_cone_resolution, nonprojective_fan,
):
    fans = [p1, p2, p3, hirzebruch1, p112, p1xp1, cube_fan, quadric_cone_resolution]
    fans += _corpus.projective_batch(BATCH_SEED)

    def no_lp(*args, **kwargs):
        raise AssertionError("the Mori pipeline solved an LP")

    monkeypatch.setattr(polyhedra, "lp_feasible", no_lp)
    assert not is_projective(nonprojective_fan)
    for f in fans:
        assert is_projective(f)
        for ray in mori_cone(f):
            supporting_divisor(f, ray)
            contraction(f, ray)


def _copy(f):
    return Fan(f.dim, f.rays, f.max_cones)


def test_contraction_with_rescaled_supporting_divisor(
    monkeypatch, p2, hirzebruch1, quadric_cone_resolution
):
    """Scaling the supporting divisor by 3/11 puts 3/11-type entries
    into the polytope's vertex differences; the contraction (kind,
    target, projection) must not change, and Smith normal form only
    sees independent integer rows."""
    from tfm.lattice import rational_rank
    fans = [p2, hirzebruch1, quadric_cone_resolution]
    fans += _corpus.projective_batch(BATCH_SEED)[-3:]
    golden = []
    for f in fans:
        for ray in mori_cone(f):
            c = contraction(f, ray)
            golden.append((c.kind, c.target, c.projection))
    unscaled = moricone.supporting_divisor
    monkeypatch.setattr(
        moricone,
        "supporting_divisor",
        lambda f, ray: Fraction(3, 11) * unscaled(f, ray),
    )
    kernel_inputs = []
    recorded = moricone.integer_kernel

    def recording(rows):
        kernel_inputs.append([tuple(r) for r in rows])
        return recorded(rows)

    monkeypatch.setattr(moricone, "integer_kernel", recording)
    scaled = []
    for f in map(_copy, fans):
        for ray in mori_cone(f):
            c = contraction(f, ray)
            assert any(x.denominator == 11 for x in c.supporting.coeffs) or all(
                x == 0 for x in c.supporting.coeffs
            )
            scaled.append((c.kind, c.target, c.projection))
    assert scaled == golden
    assert len(kernel_inputs) >= 5
    for rows in kernel_inputs:
        assert all(type(x) is int for row in rows for x in row)
        assert rational_rank(rows) == len(rows)
    kinds = [k for k, _, _ in golden]
    # P2 -> point, the Hirzebruch fibration and blow-down, the flop
    assert kinds[:4] == ["fiber", "fiber", "divisorial", "small"]
    assert golden[2][1] == Fan(2, [(-1, -1), (0, 1), (1, 0)], [(0, 1), (0, 2), (1, 2)])


def test_cone_theorem_contracts_each_ray_once(monkeypatch):
    """check_cone_theorem and then fujita_report on long-ray pairs find
    one supporting divisor per extremal ray: every later contraction
    (bundle detection, exception certificates) reuses the cached one."""
    from tfm.fan import product

    x = product(projective_space(1), projective_space(2))
    pair = FoliatedPair(x, FoliationSubspace([(0, 1, 0), (0, 0, 1)]), zero_divisor(x))
    calls = []
    counted = moricone.supporting_divisor

    def counting(f, ray):
        calls.append(ray.generator)
        return counted(f, ray)

    monkeypatch.setattr(moricone, "supporting_divisor", counting)
    report = check_cone_theorem(pair)
    assert report.ok
    assert any(e.needs_bundle and e.bundle is not None for e in report.rays)
    generators = sorted(r.generator for r in mori_cone(x))
    assert sorted(calls) == generators
    assert fujita_report(pair, TorusDivisor((1, 0, 1, 0, 0))).improved_exception
    assert sorted(calls) == generators
    ray = mori_cone(x)[0]
    assert contraction(x, ray) is contraction(x, ray)


def test_contraction_small(quadric_cone_resolution):
    f = quadric_cone_resolution
    flop_ray = next(
        r for r in mori_cone(f) if r.generator == (-1, 1, -1, 1, 0)
    )
    c = contraction(f, flop_ray)
    assert c.kind == "small"
    assert len(c.target.rays) == len(f.rays)
    assert sorted(c.target.rays) == sorted(f.rays)


def test_detect_bundle_p1xp1(p1xp1):
    rays = mori_cone(p1xp1)
    for ray in rays:
        b = detect_pr_bundle(p1xp1, ray)
        assert not isinstance(b, BundleDetectionFailure)
        assert b.line_degrees == (0,)
        assert b.base_fan.dim == 1


def test_detect_bundle_hirzebruch(hirzebruch1):
    rays = mori_cone(hirzebruch1)
    d3_ray = next(r for r in rays if r.generator == (0, 1, 0, 1))
    b = detect_pr_bundle(hirzebruch1, d3_ray)
    assert not isinstance(b, BundleDetectionFailure)
    assert b.line_degrees == (1,)
    assert set(b.fiber_ray_indices) == {1, 3}

    d2_ray = next(r for r in rays if r.generator == (1, -1, 1, 0))
    with pytest.raises(ValueError, match="fiber-type"):
        detect_pr_bundle(hirzebruch1, d2_ray)


def test_detect_bundle_p2_over_point(p2):
    (ray,) = mori_cone(p2)
    b = detect_pr_bundle(p2, ray)
    assert not isinstance(b, BundleDetectionFailure)
    assert b.base_fan.dim == 0
    assert len(b.fiber_ray_indices) == 3


def test_detect_bundle_failure_p112(p112):
    # P(1,1,2) -> point is a fiber contraction but not a P^2-bundle
    (ray,) = mori_cone(p112)
    c = contraction(p112, ray)
    assert c.kind == "fiber"
    result = detect_pr_bundle(p112, ray)
    assert isinstance(result, BundleDetectionFailure)


def test_relative_tangent_check(p1xp1, p2):
    rays = mori_cone(p1xp1)
    # fiber curves of the second projection are the walls on the e2 axis
    for ray in rays:
        b = detect_pr_bundle(p1xp1, ray)
        fiber_span = b.fiber_rays[0]
        v_good = FoliationSubspace([fiber_span])
        v_bad = FoliationSubspace(
            [(0, 1) if fiber_span[1] == 0 else (1, 0)]
        )
        assert relative_tangent_check(v_good, b).ok
        check = relative_tangent_check(v_bad, b)
        assert not check.ok and "span mismatch" in check.reason

    (p2_ray,) = mori_cone(p2)
    b = detect_pr_bundle(p2, p2_ray)
    assert relative_tangent_check(full_space(2), b).ok
    rank_check = relative_tangent_check(FoliationSubspace([(1, 0)]), b)
    assert not rank_check.ok and "rank mismatch" in rank_check.reason


def test_check_cone_theorem_p1xp1():
    f = projective_space(1)
    from tfm.fan import product

    x = product(f, f)
    v = FoliationSubspace([(1, 0)])
    pair = FoliatedPair(x, v, zero_divisor(x))
    report = check_cone_theorem(pair)
    assert report.ok
    long_rays = [e for e in report.rays if e.needs_bundle]
    assert len(long_rays) == 1
    entry = long_rays[0]
    assert entry.length == 2  # > r = 1
    assert entry.bundle is not None
    assert entry.tangent_ok and entry.delta_sum_ok


def test_check_cone_theorem_p2_full(p2):
    pair = FoliatedPair(p2, full_space(2), zero_divisor(p2))
    report = check_cone_theorem(pair)
    assert report.ok
    (entry,) = report.rays
    assert entry.length == 3 and entry.needs_bundle
    assert entry.bundle is not None and entry.tangent_ok


def test_check_cone_theorem_hirzebruch_with_boundary(hirzebruch1):
    v = FoliationSubspace([(1, 1)])
    pair = FoliatedPair(
        hirzebruch1, v, TorusDivisor((0, Fraction(1, 2), 0, 0))
    )
    report = check_cone_theorem(pair)
    assert report.ok
    for entry in report.rays:
        assert entry.length <= 2
        # lengths shifted by Delta: -(K+D).D_2 = -1-1/2... no bundle needed
        if entry.ray.generator == (0, 1, 0, 1):
            assert entry.length == Fraction(3, 2)
            assert entry.needs_bundle  # 3/2 > r = 1
            assert entry.bundle is not None and entry.tangent_ok


def test_fujita_p2_rank1():
    p2 = projective_space(2)
    v = FoliationSubspace([(1, 0)])
    pair = FoliatedPair(p2, v, zero_divisor(p2))
    a = ray_divisor(p2, 0)
    report = fujita_report(pair, a)
    # K_F + 2A has degree 1: nef, and no exception needed at rA since
    # K_F + A has degree 0
    assert report.freeness_nef
    assert report.improved_nef
    assert report.ok


def test_fujita_p1xp1_exception(p1xp1):
    v = FoliationSubspace([(1, 0)])
    pair = FoliatedPair(p1xp1, v, zero_divisor(p1xp1))
    # ample of type (1,1)
    a = TorusDivisor((1, 0, 1, 0))
    assert is_ample(p1xp1, a)
    report = fujita_report(pair, a)
    assert report.freeness_nef
    assert not report.improved_nef
    assert report.improved_exception is not None
    assert report.improved_exception["line_degree_of_A"] == 1
    assert report.ok


def test_fujita_hirzebruch_w(hirzebruch1):
    from tests_helpers import ample_for

    v = FoliationSubspace([(1, 0)])
    pair = FoliatedPair(hirzebruch1, v, zero_divisor(hirzebruch1))
    amp = ample_for(hirzebruch1)
    scale = 1
    for c in amp.coeffs:
        scale = max(scale, c.denominator)
    from tfm.divisor import qcartier_data

    a = scale * amp
    data = qcartier_data(hirzebruch1, a)
    assert data.is_cartier() and is_ample(hirzebruch1, a)
    report = fujita_report(pair, a)
    assert report.freeness_nef
    assert report.ok


def test_fujita_rejects_non_ample(p2):
    pair = FoliatedPair(p2, full_space(2), zero_divisor(p2))
    with pytest.raises(ValueError, match="ample Cartier"):
        fujita_report(pair, toric_canonical(p2))


def test_split_bundle_dichotomy_product():
    report = verify_split_bundle_over_p1([0], [0, 0])
    assert report.zero_pairing_ray_exists
    assert report.all_degrees_zero
    assert report.consistent


def test_split_bundle_dichotomy_hirzebruch():
    report = verify_split_bundle_over_p1([1], [0, 0])
    assert not report.zero_pairing_ray_exists
    assert report.consistent


def test_split_bundle_dichotomy_rank2():
    report = verify_split_bundle_over_p1([0, 2], [0, 0, 0])
    assert not report.zero_pairing_ray_exists
    assert report.consistent


def test_split_bundle_dichotomy_with_boundary():
    rng = random.Random(17)
    for degrees in ([0], [1], [2], [0, 0], [0, 1], [1, 3], [0, 0, 0], [1, 2, 3]):
        coeffs = [Fraction(rng.randint(0, 7), 8) for _ in range(len(degrees) + 1)]
        report = verify_split_bundle_over_p1(degrees, coeffs)
        assert report.consistent, (degrees, coeffs, report.pairings)


def test_split_bundle_dichotomy_rejects_bad_coefficients():
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        verify_split_bundle_over_p1([1], [0, 1])


def test_mori_cone_non_qfactorial(cube_fan):
    """On a non-simplicial fan the classes are functionals on the
    Q-Cartier coefficient space; the cube-fan variety has Picard rank 1."""
    space = curve_class_space(cube_fan)
    assert space.dim == 4  # three principal directions plus one class
    rays = mori_cone(cube_fan)
    assert len(rays) == 1
    assert len(rays[0].member_walls) == 12
    d = supporting_divisor(cube_fan, rays[0])
    assert pair_with_ray_generator(cube_fan, d, rays[0]) == 0
    c = contraction(cube_fan, rays[0])
    assert c.kind == "fiber" and c.target.dim == 0


def test_wall_curve_class_non_qfactorial(cube_fan):
    from tfm.fan import enumerate_walls as walls_of

    wall = walls_of(cube_fan)[0]
    cls = wall_curve_class(cube_fan, wall)
    assert len(cls.vector) == curve_class_space(cube_fan).dim


def test_bundle_round_trip_over_p2():
    """Build the projectivization of O + O(1) over P^2, then recover the
    structure from its fiber-type extremal ray."""
    from tfm.divisor import qcartier_data
    from tfm.fan import SupportFunctionSpec, build_split_bundle, is_smooth

    p2 = projective_space(2)
    d0 = ray_divisor(p2, 0)
    data = qcartier_data(p2, d0)
    # h with h(u) = coefficient of D_0, so the summand is O(D_0)
    spec = SupportFunctionSpec(tuple(tuple(-x for x in m) for m in data.m))
    built = build_split_bundle(p2, [spec])
    assert is_smooth(built)
    rays = mori_cone(built)
    assert len(rays) == 2
    kinds = {}
    for ray in rays:
        kinds[contraction(built, ray).kind] = ray
    # the negative section blows down (to P^3), the fibration is a bundle
    assert set(kinds) == {"divisorial", "fiber"}
    b = detect_pr_bundle(built, kinds["fiber"])
    assert not isinstance(b, BundleDetectionFailure)
    assert b.base_fan.dim == 2
    assert sorted(b.base_fan.rays) == sorted(p2.rays)
    assert len(b.fiber_ray_indices) == 2
    # recovered summand has degree 1 on the base, matching O(D_0)
    (coeffs,) = b.line_bundle_coeffs
    base_cls = curve_class_space(b.base_fan).wall_classes[0]
    degree = sum(c * b_ for c, b_ in zip(coeffs, base_cls))
    assert abs(degree) == 1


def test_fujita_rank2_exception():
    """P^1 x P^2 with the foliation along the P^2 factor: K_F+2A fails
    nefness on the fiber-line ray and the exception certificate holds."""
    from tfm.fan import product

    x = product(projective_space(1), projective_space(2))
    v = FoliationSubspace([(0, 1, 0), (0, 0, 1)])
    pair = FoliatedPair(x, v, zero_divisor(x))
    assert pair.rank == 2
    a = TorusDivisor((1, 0, 1, 0, 0))  # O(1,1)
    assert is_ample(x, a)
    report = fujita_report(pair, a)
    assert report.freeness_nef          # K_F + 3A is nef
    assert not report.improved_nef      # K_F + 2A pairs -1 with fiber lines
    assert report.improved_exception is not None
    assert report.improved_exception["base_dim"] == 1
    assert report.ok


def test_detect_bundle_failure_fake_plane():
    """Fake projective plane (all cone multiplicities 3): the fiber rays
    sum to zero yet no pair is a lattice basis, so detection fails on
    the basis condition."""
    from tfm.fan import multiplicity

    f = Fan(2, [(2, 1), (-1, 1), (-1, -2)], [(0, 1), (1, 2), (2, 0)])
    assert all(multiplicity(f, c) == 3 for c in f.max_cones)
    (ray,) = mori_cone(f)
    result = detect_pr_bundle(f, ray)
    assert isinstance(result, BundleDetectionFailure)
    assert "lattice basis" in result.reason
