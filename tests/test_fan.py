import random

import pytest

from tests_helpers import assert_convexity_certificates
from tfm.fan import (
    Fan,
    build_split_bundle,
    enumerate_walls,
    fans_unimodular_equivalent,
    is_complete,
    is_projective,
    is_simplicial,
    is_smooth,
    multiplicity,
    p1_degree_specs,
    product,
    projective_space,
    qfactorialize,
    refines,
    star_subdivision,
    validate_fan,
)
from tfm.lattice import det


def test_validate_p2(p2):
    assert validate_fan(p2).ok


def test_validate_runs_one_dd_per_cone(cube_fan, monkeypatch):
    """One H-representation per cone, shared by the pointedness and
    extreme-ray checks (separation runs its own DD per pair of cones)."""
    from tfm import polyhedra

    calls = []
    real = polyhedra.cone_hrep
    monkeypatch.setattr(polyhedra, "cone_hrep", lambda *a: calls.append(a) or real(*a))
    assert validate_fan(cube_fan).ok
    assert len(calls) == len(cube_fan.max_cones) == 6


def test_validate_duplicate_ray():
    f = Fan(2, [(1, 0), (0, 1), (1, 0)], [(0, 1), (1, 2)])
    report = validate_fan(f)
    assert not report.ok
    assert any("duplicate ray" in v for v in report.violations)


def test_validate_non_primitive_ray():
    f = Fan(2, [(2, 0), (0, 1)], [(0, 1)])
    report = validate_fan(f)
    assert not report.ok
    assert any("not primitive" in v for v in report.violations)


def test_validate_overlapping_interiors():
    # cone(e1, e1+e2) and cone(e2, 2e1+e2) overlap without a common face
    f = Fan(2, [(1, 0), (1, 1), (0, 1), (2, 1)], [(0, 1), (2, 3)])
    report = validate_fan(f)
    assert not report.ok
    assert any("common face" in v for v in report.violations)


def test_validate_unused_ray():
    f = Fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1)])
    report = validate_fan(f)
    assert not report.ok
    assert any("no maximal cone" in v for v in report.violations)


def test_validate_redundant_generator():
    # (1,1) is interior to cone(e1, e2)
    f = Fan(2, [(1, 0), (1, 1), (0, 1)], [(0, 1, 2)])
    report = validate_fan(f)
    assert not report.ok
    assert any("non-extreme" in v for v in report.violations)


def test_validate_nested_cones():
    f = Fan(2, [(1, 0), (1, 1), (0, 1)], [(0, 2), (0, 1, 2)])
    report = validate_fan(f)
    assert not report.ok


def test_validate_not_strongly_convex():
    f = Fan(2, [(1, 0), (-1, 0), (0, 1)], [(0, 1, 2)])
    report = validate_fan(f)
    assert not report.ok
    assert any("strongly convex" in v for v in report.violations)


def test_is_complete(p2, hirzebruch1):
    assert is_complete(p2)
    assert is_complete(hirzebruch1)
    half = Fan(2, [(1, 0), (0, 1)], [(0, 1)])
    assert not is_complete(half)


def test_simplicial_smooth(hirzebruch1, p112, cube_fan):
    assert is_simplicial(hirzebruch1) and is_smooth(hirzebruch1)
    assert is_simplicial(p112) and not is_smooth(p112)
    assert not is_simplicial(cube_fan)


def test_multiplicity(p112):
    assert multiplicity(p112, (0, 1)) == 1
    # |det| oracle on cone((1,0),(-1,-2)) and cone((1,0),(1,2))
    assert multiplicity(p112, (0, 2)) == abs(det(((1, 0), (-1, -2))))
    f = Fan(2, [(1, 0), (1, 2)], [(0, 1)])
    assert multiplicity(f, (0, 1)) == abs(det(((1, 0), (1, 2))))


def test_multiplicity_requires_simplicial(cube_fan):
    with pytest.raises(ValueError, match="simplicial"):
        multiplicity(cube_fan, cube_fan.max_cones[0])


def test_enumerate_walls_counts(p2, hirzebruch1, p1xp1):
    assert len(enumerate_walls(p2)) == 3
    assert len(enumerate_walls(hirzebruch1)) == 4
    assert len(enumerate_walls(p1xp1)) == 4


def test_enumerate_walls_requires_complete():
    half = Fan(2, [(1, 0), (0, 1)], [(0, 1)])
    with pytest.raises(ValueError, match="complete"):
        enumerate_walls(half)


def test_wall_double_counting(p3, hirzebruch1):
    # complete simplicial n-fan: each maximal cone has n facets
    for f in (p3, hirzebruch1):
        walls = enumerate_walls(f)
        assert 2 * len(walls) == f.dim * len(f.max_cones)


def test_star_subdivision_blowup(p2, hirzebruch1):
    blown = star_subdivision(p2, (1, 1))
    assert validate_fan(blown).ok
    assert len(blown.rays) == 4
    assert is_smooth(blown)
    assert fans_unimodular_equivalent(blown, hirzebruch1) is not None


def test_star_subdivision_single_cone():
    f = Fan(2, [(1, 0), (0, 1)], [(0, 1)])
    sub = star_subdivision(f, (1, 1))
    assert sorted(sub.max_cones) == [(0, 2), (1, 2)]
    assert validate_fan(sub).ok


def test_star_subdivision_errors(p2):
    with pytest.raises(ValueError, match="already a ray"):
        star_subdivision(p2, (1, 0))
    half = Fan(2, [(1, 0), (0, 1)], [(0, 1)])
    with pytest.raises(ValueError, match="outside"):
        star_subdivision(half, (-1, -1))
    with pytest.raises(ValueError, match="primitive"):
        star_subdivision(p2, (2, 2))


def test_star_subdivision_multiplicity_divides(p2):
    # subdividing a smooth cone at the sum of two generators keeps it smooth
    blown = star_subdivision(p2, (1, 1))
    for cone in blown.max_cones:
        assert multiplicity(blown, cone) == 1


def test_qfactorialize_identity(p2, hirzebruch1):
    for f in (p2, hirzebruch1):
        result = qfactorialize(f)
        assert result.fan == f
        assert not result.certificates


def test_qfactorialize_cube(cube_fan):
    result = qfactorialize(cube_fan)
    out = result.fan
    assert out.rays == cube_fan.rays
    assert len(out.max_cones) == 12
    assert is_simplicial(out) and is_complete(out)
    assert validate_fan(out).ok
    assert refines(out, cube_fan)
    # every subdivided square cone carries a certificate
    assert sorted(result.certificates) == list(range(6))
    assert all(len(cert) == 2 for cert in result.certificates.values())
    assert_convexity_certificates(result)


def test_qfactorialize_cone_map(cube_fan):
    result = qfactorialize(cube_fan)
    for out_idx, in_idx in enumerate(result.cone_map):
        hrep = cube_fan.cone_hrep(cube_fan.max_cones[in_idx])
        for i in result.fan.max_cones[out_idx]:
            assert hrep.contains(result.fan.rays[i])


def test_is_projective(p2, hirzebruch1, nonprojective_fan):
    assert is_projective(p2)
    assert is_projective(hirzebruch1)
    assert validate_fan(nonprojective_fan).ok
    assert is_complete(nonprojective_fan)
    assert is_simplicial(nonprojective_fan)
    assert not is_projective(nonprojective_fan)


def test_is_projective_matches_lp_oracle(nonprojective_fan):
    """The pointedness test agrees with the LP it replaced: some divisor
    pairs >= 1 with every wall class."""
    import _corpus

    from tfm import polyhedra
    from tfm.divisor import curve_class_space
    from tfm.lattice import mat_vec

    def projective_via_lp(f):
        space = curve_class_space(f)
        ineqs = [(cls, 1) for cls in space.wall_classes]
        return polyhedra.lp_feasible(space.dim, ineqs=ineqs) is not None

    rng = random.Random(11)
    f = nonprojective_fan
    sheared = [
        Fan(3, [mat_vec(m, r) for r in f.rays], f.max_cones)
        for m in (_corpus.shear_matrix(rng, 3) for _ in range(3))
    ]
    subdivided = [star_subdivision(f, w) for w in ((1, 0, 0), (0, 1, 0), (1, 1, 0))]
    fans = (
        _corpus.projective_batch(20241018)
        + _corpus.nonsimplicial_corpus(rng, 6)
        + [f]
        + sheared
        + subdivided
    )
    verdicts = [is_projective(g) for g in fans]
    assert verdicts == [projective_via_lp(g) for g in fans]
    # the non-projective fan's relatives exercise both verdicts
    assert not verdicts[-7] and set(verdicts[-7:]) == {True, False}


def test_nonprojective_qfactorialization_of_its_coarsening():
    # sanity: projectivity is decided, not assumed, for random shears
    rng = random.Random(7)
    import _corpus

    for f in _corpus.nonsimplicial_corpus(rng, 4):
        assert is_projective(f)


def test_build_split_bundle_product(p1, p1xp1):
    built = build_split_bundle(p1, p1_degree_specs(p1, [0]))
    assert fans_unimodular_equivalent(built, p1xp1) is not None


def test_build_split_bundle_hirzebruch(p1, hirzebruch1):
    built = build_split_bundle(p1, p1_degree_specs(p1, [1]))
    assert validate_fan(built).ok
    assert fans_unimodular_equivalent(built, hirzebruch1) is not None


def test_build_split_bundle_p2_product(p2):
    from tfm.fan import SupportFunctionSpec

    zero = SupportFunctionSpec(tuple((0, 0) for _ in p2.max_cones))
    built = build_split_bundle(p2, [zero, zero])
    assert fans_unimodular_equivalent(built, product(p2, p2)) is not None


def test_build_split_bundle_over_p2(p2):
    from tfm.fan import SupportFunctionSpec

    # globally linear functional: the bundle is a twisted product
    spec = SupportFunctionSpec(tuple((1, 0) for _ in p2.max_cones))
    built = build_split_bundle(p2, [spec])
    assert is_complete(built) and is_smooth(built)
    assert len(built.rays) == len(p2.rays) + 2
    assert validate_fan(built).ok


def test_build_split_bundle_structure(p1):
    built = build_split_bundle(p1, p1_degree_specs(p1, [2, 5]))
    assert built.dim == 3
    assert len(built.rays) == len(p1.rays) + 3
    assert is_complete(built)
    assert is_simplicial(built) and is_smooth(built)
    assert validate_fan(built).ok


def test_build_split_bundle_rejects_non_integral(p1):
    from fractions import Fraction

    from tfm.fan import SupportFunctionSpec

    bad = SupportFunctionSpec(((Fraction(1, 2),), (0,)))
    with pytest.raises(ValueError, match="integral"):
        build_split_bundle(p1, [bad])


def test_build_split_bundle_rejects_inconsistent():
    from tfm.fan import SupportFunctionSpec

    base = projective_space(2)
    # functional jumps across a shared ray: not a support function
    values = [(0, 0), (1, 0), (0, 0)]
    with pytest.raises(ValueError, match="disagrees"):
        build_split_bundle(base, [SupportFunctionSpec(tuple(values))])


def test_unimodular_equivalence_negative(p2, p1xp1):
    assert fans_unimodular_equivalent(p2, p1xp1) is None


def test_nonprojective_cross_check_support_system(nonprojective_fan, p2):
    """Independent route: the per-cone support-function system with a
    unit margin across every wall must be infeasible exactly when the
    divisor-side test says non-projective."""
    from fractions import Fraction

    from tfm import polyhedra

    def projective_via_support(f):
        n = f.dim
        walls = enumerate_walls(f)
        nv = n * len(f.max_cones)

        def row(ci, vec, sign):
            out = [Fraction(0)] * nv
            for c in range(n):
                out[ci * n + c] = sign * Fraction(vec[c])
            return out

        eqs, ineqs = [], []
        for w in walls:
            for i in w.rays:
                u = f.rays[i]
                combo = tuple(
                    a + b for a, b in zip(row(w.side_a, u, 1), row(w.side_b, u, -1))
                )
                eqs.append((combo, 0))
            for far, near in ((w.side_b, w.side_a), (w.side_a, w.side_b)):
                for i in f.max_cones[far]:
                    if i in w.rays:
                        continue
                    u = f.rays[i]
                    combo = tuple(
                        a + b for a, b in zip(row(near, u, 1), row(far, u, -1))
                    )
                    ineqs.append((combo, 1))
        return polyhedra.lp_feasible(nv, eqs=eqs, ineqs=ineqs) is not None

    assert not projective_via_support(nonprojective_fan)
    assert not is_projective(nonprojective_fan)
    assert projective_via_support(p2)
    assert is_projective(p2)


def test_build_split_bundle_simpliciality_heredity(p112, cube_fan):
    from tfm.fan import SupportFunctionSpec

    spec112 = SupportFunctionSpec(tuple((0, 0) for _ in p112.max_cones))
    over_112 = build_split_bundle(p112, [spec112])
    assert is_complete(over_112)
    assert is_simplicial(over_112) and not is_smooth(over_112)
    assert len(over_112.rays) == len(p112.rays) + 2

    spec_cube = SupportFunctionSpec(tuple((0, 0, 0) for _ in cube_fan.max_cones))
    over_cube = build_split_bundle(cube_fan, [spec_cube])
    assert is_complete(over_cube)
    assert not is_simplicial(over_cube)


def test_star_subdivision_non_simplicial(cube_fan):
    # interior of a square cone: that cone fans out into 4 triangles
    sub = star_subdivision(cube_fan, (1, 0, 0))
    assert validate_fan(sub).ok and is_complete(sub)
    assert len(sub.max_cones) == 5 + 4
    # on a wall between two square cones: both sides are subdivided
    sub2 = star_subdivision(cube_fan, (1, 1, 0))
    assert validate_fan(sub2).ok and is_complete(sub2)
    assert len(sub2.max_cones) == 4 + 3 + 3


def test_qfactorialize_dim4_shared_nonsimplicial_facets(cube_fan):
    """Adjacent maximal cones of cube x P^1 share the square 3-cones as
    facets; lexicographic pulling must triangulate both sides the same
    way or validation fails."""
    x4 = product(cube_fan, projective_space(1))
    assert not is_simplicial(x4)
    result = qfactorialize(x4)
    out = result.fan
    assert len(out.max_cones) == 24
    assert out.rays == x4.rays
    assert is_simplicial(out) and is_complete(out)
    assert validate_fan(out).ok
    assert refines(out, x4)
    assert len(result.certificates) == 12
    assert_convexity_certificates(result)
