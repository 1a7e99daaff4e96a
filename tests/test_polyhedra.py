import contextlib
import io
import os
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from tfm import lattice, polyhedra


def brute_force_rays(ineqs, dim):
    """Extreme rays of {x : Ax >= 0} by subset enumeration (test oracle)."""
    rays = set()
    for subset in combinations(range(len(ineqs)), dim - 1):
        rows = [ineqs[i] for i in subset]
        kernel = lattice.rational_kernel(rows, ncols=dim)
        if len(kernel) != 1:
            continue
        for cand in (kernel[0], lattice.vec_neg(kernel[0])):
            if all(lattice.dot(a, cand) >= 0 for a in ineqs):
                active = [a for a in ineqs if lattice.dot(a, cand) == 0]
                if lattice.rational_rank(active) == dim - 1:
                    rays.add(lattice.primitivize(cand))
    return rays


def test_dd_quadrant():
    res = polyhedra.dd_vrep([(1, 0), (0, 1)], 2)
    assert not res.lineality
    assert set(res.rays) == {(1, 0), (0, 1)}


def test_dd_halfplane_has_lineality():
    res = polyhedra.dd_vrep([(1, 0)], 2)
    assert len(res.lineality) == 1
    assert res.lineality[0][0] == 0
    assert len(res.rays) == 1
    assert res.rays[0][0] > 0


def test_dd_empty_interior():
    # x >= 0 and -x >= 0 collapses to the y-axis line
    res = polyhedra.dd_vrep([(1, 0), (-1, 0)], 2)
    assert not res.rays
    assert len(res.lineality) == 1


def test_dd_with_equations():
    res = polyhedra.dd_vrep([(1, 0, 0), (0, 1, 0)], 3, eqs=[(1, 1, 1)])
    assert not res.lineality
    assert set(res.rays) == {
        lattice.primitivize((1, 0, -1)),
        lattice.primitivize((0, 1, -1)),
    }


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 4), st.data())
def test_dd_matches_brute_force(dim, data):
    n_ineq = data.draw(st.integers(dim, 7))
    ineqs = []
    for _ in range(n_ineq):
        v = tuple(data.draw(st.integers(-3, 3)) for _ in range(dim))
        if any(v):
            ineqs.append(v)
    if not ineqs:
        return
    res = polyhedra.dd_vrep(ineqs, dim)
    if res.lineality:
        # brute force oracle below only covers pointed outputs
        for l in res.lineality:
            assert all(lattice.dot(a, l) == 0 for a in ineqs)
        return
    assert set(res.rays) == brute_force_rays(ineqs, dim)
    for r in res.rays:
        assert all(lattice.dot(a, r) >= 0 for a in ineqs)


def test_cone_hrep_simplicial():
    hrep = polyhedra.cone_hrep([(1, 0), (1, 2)], 2)
    assert not hrep.span_eqs
    assert len(hrep.facets) == 2
    assert hrep.contains((1, 1))
    assert not hrep.contains((-1, 0))
    assert hrep.contains((2, 4))


def test_cone_hrep_lower_dimensional():
    hrep = polyhedra.cone_hrep([(1, 1, 0)], 3)
    assert len(hrep.span_eqs) == 2
    assert hrep.contains((2, 2, 0))
    assert not hrep.contains((1, 1, 1))
    assert not hrep.contains((-1, -1, 0))


def test_cone_is_pointed():
    assert polyhedra.cone_is_pointed([(1, 0), (0, 1)], 2)
    assert not polyhedra.cone_is_pointed([(1, 0), (-1, 0)], 2)
    # the zero cone is pointed
    assert polyhedra.cone_is_pointed([], 2)
    assert polyhedra.cone_is_pointed([], 0)


def test_extreme_generator_indices():
    # (1,1) is interior to the quadrant
    idx = polyhedra.extreme_generator_indices([(1, 0), (1, 1), (0, 1)], 2)
    assert idx == [0, 2]
    # duplicates collapse to the first representative
    idx = polyhedra.extreme_generator_indices([(1, 0), (2, 0), (0, 1)], 2)
    assert idx == [0, 2]


def test_facet_ray_sets():
    facets = polyhedra.facet_ray_sets([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    members = sorted(m for _, m in facets)
    assert members == [(0, 1), (0, 2), (1, 2)]


def test_strictly_positive_point_basic():
    # x > 0, y > 0 on x + y = 0 is empty; without the equation it is not
    assert polyhedra.strictly_positive_point([(1, 0), (0, 1)], 2, [(1, 1)]) is None
    point = polyhedra.strictly_positive_point([(1, 0), (0, 1)], 2)
    assert point is not None and min(point) > 0
    # a zero row is never strictly positive; no rows at all always is
    assert polyhedra.strictly_positive_point([(0, 0)], 2) is None
    assert polyhedra.strictly_positive_point([], 3, [(1, 1, 1)]) == (0, 0, 0)
    # the only point with x >= 0 and -x >= 0 is strict on neither
    assert polyhedra.strictly_positive_point([(1,), (-1,)], 1) is None


@seed(20261018)
@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.data())
def test_strictly_positive_point_matches_lp(dim, data):
    """Gordan's alternative on the DD agrees with the phase-1 simplex on
    the inhomogeneous system <e,x> = 0, <a,x> >= 1."""
    vec = st.tuples(*[st.integers(-3, 3)] * dim)
    ineqs = data.draw(st.lists(vec, max_size=7))
    eqs = data.draw(st.lists(vec, max_size=2))
    point = polyhedra.strictly_positive_point(ineqs, dim, eqs)
    lp = polyhedra.lp_feasible(dim, eqs=[(e, 0) for e in eqs], ineqs=[(a, 1) for a in ineqs])
    assert (point is None) == (lp is None)
    if point is not None:
        assert len(point) == dim and all(type(x) is int for x in point)
        assert all(lattice.dot(e, point) == 0 for e in eqs)
        assert all(lattice.dot(a, point) > 0 for a in ineqs)


def test_library_solves_no_lp(monkeypatch, cube_fan, nonprojective_fan):
    """Fan validation, Q-factorialization certificates, section
    polytopes, the cohomology of a non-simplicial fan and the CLI run
    on double descriptions alone."""
    from tfm import cli
    from tfm.cohomology import weil_cohomology
    from tfm.divisor import TorusDivisor, divisor_polytope, zero_divisor
    from tfm.fan import Fan, product, projective_space, qfactorialize, validate_fan

    def no_lp(*args, **kwargs):
        raise AssertionError("a library function solved an LP")

    monkeypatch.setattr(polyhedra, "lp_feasible", no_lp)
    assert validate_fan(cube_fan).ok
    assert validate_fan(nonprojective_fan).ok
    nested = Fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (0,), (1, 2)])
    assert validate_fan(nested).violations == ("maximal cones 0 and 1 are nested",)
    overlapping = Fan(2, [(1, 0), (1, 1), (0, 1), (2, 1)], [(0, 1), (2, 3)])
    assert validate_fan(overlapping).violations == (
        "cones 0 and 1 do not intersect in a common face",
    )

    assert len(qfactorialize(cube_fan).certificates) == 6
    assert len(qfactorialize(product(cube_fan, projective_space(1))).certificates) == 12

    p2 = projective_space(2)
    assert len(divisor_polytope(p2, TorusDivisor((0, 0, 2))).vertices) == 3
    assert divisor_polytope(p2, TorusDivisor((-1, 0, 0))).vertices == ()
    line = Fan(2, [(1, 0), (-1, 0)], [(0,), (1,)])
    with pytest.raises(RuntimeError, match="unbounded"):
        divisor_polytope(line, TorusDivisor((1, 1)))

    assert weil_cohomology(cube_fan, zero_divisor(cube_fan)).h == (1, 0, 0, 0)

    here = os.path.dirname(os.path.abspath(__file__))
    cube = os.path.join(here, os.pardir, "data", "cube.fan.json")
    for argv in (["validate", "--fan", cube], ["info", "--fan", cube], ["qfact", "--fan", cube]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv + ["--json"]) == 0


def test_lp_feasible_basic():
    # x >= 1, y >= 1, x + y = 3
    sol = polyhedra.lp_feasible(
        2, eqs=[((1, 1), 3)], ineqs=[((1, 0), 1), ((0, 1), 1)]
    )
    assert sol is not None
    assert sol[0] + sol[1] == 3
    assert sol[0] >= 1 and sol[1] >= 1


def test_lp_infeasible():
    sol = polyhedra.lp_feasible(1, ineqs=[((1,), 1), ((-1,), 0)])
    assert sol is None


def test_lp_exact_fractions():
    sol = polyhedra.lp_feasible(1, eqs=[((3,), 1)])
    assert sol == (Fraction(1, 3),)


def test_lp_unconstrained():
    assert polyhedra.lp_feasible(2) == (0, 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.data())
def test_lp_random_consistency(nvars, data):
    n_ineq = data.draw(st.integers(1, 6))
    ineqs = []
    for _ in range(n_ineq):
        a = tuple(data.draw(st.integers(-3, 3)) for _ in range(nvars))
        b = data.draw(st.integers(-3, 3))
        ineqs.append((a, b))
    sol = polyhedra.lp_feasible(nvars, ineqs=ineqs)
    if sol is not None:
        for a, b in ineqs:
            assert lattice.dot(a, sol) >= b


def test_dd_matches_brute_force_higher_dims():
    """Heavier seeded comparison at the dimensions the Mori cone uses."""
    import random

    rng = random.Random(424242)
    cases = 0
    while cases < 12:
        dim = rng.choice([5, 6])
        n_ineq = rng.randint(dim + 1, 12)
        ineqs = []
        for _ in range(n_ineq):
            v = tuple(rng.randint(-2, 2) for _ in range(dim))
            if any(v):
                ineqs.append(v)
        if len(ineqs) < dim:
            continue
        res = polyhedra.dd_vrep(ineqs, dim)
        for r in res.rays:
            assert all(lattice.dot(a, r) >= 0 for a in ineqs)
        for l in res.lineality:
            assert all(lattice.dot(a, l) == 0 for a in ineqs)
        if res.lineality:
            continue
        assert set(res.rays) == brute_force_rays(ineqs, dim)
        cases += 1
