import random
from fractions import Fraction
from itertools import combinations

import pytest

import _corpus
from tfm import polyhedra
from tfm.divisor import (
    TorusDivisor,
    curve_class_space,
    divisor_polytope,
    divisor_wall_pairing,
    is_ample,
    is_nef,
    lattice_points,
    principal_divisor,
    pullback,
    qcartier_data,
    ray_divisor,
    toric_canonical,
    zero_divisor,
)
from tfm.fan import enumerate_walls, multiplicity, star_subdivision
from tfm.fan import Fan
from tfm.lattice import dot, rational_rank, solve_linear, sublattice_index, vec_add, vec_scale


def test_qcartier_p2(p2):
    d3 = ray_divisor(p2, 2)
    data = qcartier_data(p2, d3)
    assert data is not None and data.is_cartier()
    # m on cone(e1, e2) solves <m, e1> = <m, e2> = 0
    assert data.m[p2.max_cones.index((0, 1))] == (0, 0)


def test_qcartier_p112(p112):
    d3 = ray_divisor(p112, 2)
    data = qcartier_data(p112, d3)
    assert data is not None and not data.is_cartier()
    # exact solve: m = (1,0) on cone(u2,u3), m = (0,1/2) on cone(u1,u3)
    assert data.m[p112.max_cones.index((1, 2))] == (1, 0)
    assert data.m[p112.max_cones.index((0, 2))] == (0, Fraction(1, 2))


def test_not_qcartier_on_cube(cube_fan):
    # four ray conditions on a 3-dim functional are inconsistent
    assert qcartier_data(cube_fan, ray_divisor(cube_fan, 0)) is None


def test_intersect_wall_golden(hirzebruch1):
    walls = enumerate_walls(hirzebruch1)
    by_ray = {w.rays[0]: w for w in walls}
    minus_kv = TorusDivisor((0, 1, 0, 1))   # D_2 + D_4
    minus_kw = TorusDivisor((1, 0, 0, 0))   # D_1
    assert divisor_wall_pairing(hirzebruch1, minus_kv, by_ray[1]) == -1
    assert divisor_wall_pairing(hirzebruch1, minus_kv, by_ray[2]) == 2
    assert divisor_wall_pairing(hirzebruch1, minus_kw, by_ray[1]) == 1
    assert divisor_wall_pairing(hirzebruch1, minus_kw, by_ray[2]) == 0


def test_wall_quotient_vector_computed_once_per_wall(hirzebruch1, monkeypatch):
    from tfm import divisor

    walls = enumerate_walls(hirzebruch1)
    expected = [divisor._wall_quotient_vector(hirzebruch1, w) for w in walls]
    calls = []
    real = divisor.integer_kernel
    monkeypatch.setattr(divisor, "integer_kernel", lambda rows: calls.append(rows) or real(rows))
    for d in (TorusDivisor((0, 1, 0, 1)), TorusDivisor((1, 0, 0, 0)), ray_divisor(hirzebruch1, 2)):
        for w in walls:
            divisor_wall_pairing(hirzebruch1, d, w)
    assert len(calls) == len(walls)
    assert [divisor.wall_quotient_vector(hirzebruch1, w) for w in walls] == expected


def test_intersect_wall_p112(p112):
    walls = enumerate_walls(p112)
    wall0 = next(w for w in walls if w.rays == (0,))
    assert divisor_wall_pairing(p112, ray_divisor(p112, 1), wall0) == 1


def test_nef_ample(p2, hirzebruch1, p112):
    assert is_nef(p2, ray_divisor(p2, 0))
    assert is_ample(p2, ray_divisor(p2, 0))
    d2 = ray_divisor(hirzebruch1, 1)
    assert not is_nef(hirzebruch1, d2)  # D_2 . D_2 = -1
    assert is_ample(p112, ray_divisor(p112, 2))


def test_nef_requires_qcartier(cube_fan):
    with pytest.raises(ValueError, match="not Q-Cartier"):
        is_nef(cube_fan, ray_divisor(cube_fan, 0))


def test_polytope_p2(p2):
    d = 2 * ray_divisor(p2, 2)
    p = divisor_polytope(p2, d)
    # dilated standard simplex: (d+1)(d+2)/2 points for d = 2
    assert len(lattice_points(p)) == 6
    assert len(p.vertices) == 3


def test_polytope_p112(p112):
    p = divisor_polytope(p112, ray_divisor(p112, 2))
    assert sorted(lattice_points(p)) == [(0, 0), (1, 0)]


def test_polytope_zero_divisor(p2, hirzebruch1):
    for f in (p2, hirzebruch1):
        p = divisor_polytope(f, zero_divisor(f))
        assert p.vertices == ((Fraction(0), Fraction(0)),)
        assert lattice_points(p) == [(0, 0)]


def test_polytope_ample_normal_fan(p2, hirzebruch1, p112):
    # ample divisor: vertices biject with maximal cones and the active
    # ray sets recover the fan (normal fan statement)
    for f in (p2, hirzebruch1, p112):
        from tests_helpers import ample_for

        d = ample_for(f)
        p = divisor_polytope(f, d)
        assert p.dim() == f.dim
        actives = set()
        for v in p.vertices:
            active = tuple(
                i
                for i, (row, rhs) in enumerate(zip(p.ineq_rows, p.ineq_rhs))
                if dot(row, v) == rhs
            )
            actives.add(active)
        assert actives == set(f.max_cones)


def reference_vertices(f, d):
    """Vertices of the section polytope by brute force over n-subsets of
    its inequalities, and an LP to tell an empty polytope from one with
    no vertex (test oracle)."""
    n = f.dim
    rows = f.rays
    rhs = [-c for c in d.coeffs]
    vertices = set()
    for subset in combinations(range(len(rows)), n):
        sys_rows = [rows[i] for i in subset]
        if rational_rank(sys_rows) != n:
            continue
        sol = solve_linear(sys_rows, [rhs[i] for i in subset])
        if sol is None:
            continue
        if all(dot(row, sol) >= b for row, b in zip(rows, rhs)):
            vertices.add(tuple(Fraction(x) for x in sol))
    if not vertices and polyhedra.lp_feasible(n, ineqs=list(zip(rows, rhs))) is not None:
        raise RuntimeError("divisor polytope is unbounded; fan not complete?")
    return tuple(sorted(vertices))


def test_divisor_polytope_matches_reference():
    rng = random.Random(20261018)
    fans = _corpus.projective_batch(20261018) + _corpus.nonsimplicial_corpus(rng, 6)
    fans += [_corpus._apply_matrix(f, _corpus.shear_matrix(rng, f.dim)) for f in fans]
    sizes = []
    for f in fans:
        for _ in range(4):
            d = TorusDivisor(
                [Fraction(rng.randint(-1, 6), rng.choice([1, 2, 3])) for _ in f.rays]
            )
            vertices = divisor_polytope(f, d).vertices
            assert vertices == reference_vertices(f, d)
            assert all(type(x) is Fraction for v in vertices for x in v)
            sizes.append(len(vertices))
    assert 0 in sizes and max(sizes) > 4  # empty polytopes and many vertices
    # unbounded with a vertex: the rays of a quadrant
    quadrant = Fan(2, [(1, 0), (0, 1)], [(0, 1)])
    d = TorusDivisor((1, Fraction(1, 2)))
    assert divisor_polytope(quadrant, d).vertices == reference_vertices(quadrant, d)
    # no vertex but nonempty: the rays of a line in the plane
    line = Fan(2, [(1, 0), (-1, 0)], [(0,), (1,)])
    for polytope in (divisor_polytope, reference_vertices):
        with pytest.raises(RuntimeError, match="unbounded"):
            polytope(line, TorusDivisor((1, 1)))
    assert divisor_polytope(line, TorusDivisor((-1, 0))).vertices == ()
    assert reference_vertices(line, TorusDivisor((-1, 0))) == ()


def test_pullback_identity(p2):
    d = ray_divisor(p2, 0)
    data = qcartier_data(p2, d)
    assert pullback(p2, p2, data) == d


def test_pullback_blowup(p2):
    blown = star_subdivision(p2, (1, 1))
    kx = toric_canonical(p2)
    pulled = pullback(p2, blown, qcartier_data(p2, kx))
    # support function of K_X evaluates to 2 at (1,1)
    assert pulled.coeffs == (-1, -1, -1, -2)


def test_pullback_zero(p2):
    blown = star_subdivision(p2, (1, 2))
    data = qcartier_data(p2, zero_divisor(p2))
    assert pullback(p2, blown, data) == zero_divisor(blown)


def test_wall_class_relation_invariant(p2, hirzebruch1, p112, p1xp1):
    # sum_rho (D_rho . V(tau)) u_rho = 0 for every wall on Q-factorial fans
    for f in (p2, hirzebruch1, p112, p1xp1):
        space = curve_class_space(f)
        assert space.basis == tuple(
            tuple(Fraction(int(i == j)) for j in range(len(f.rays)))
            for i in range(len(f.rays))
        )
        for cls in space.wall_classes:
            total = (Fraction(0),) * f.dim
            for b, u in zip(cls, f.rays):
                total = vec_add(total, vec_scale(b, u))
            assert all(x == 0 for x in total)


def test_wall_class_supported_on_adjacent_cones(hirzebruch1):
    space = curve_class_space(hirzebruch1)
    walls = enumerate_walls(hirzebruch1)
    for w, cls in zip(walls, space.wall_classes):
        allowed = set(hirzebruch1.max_cones[w.side_a]) | set(
            hirzebruch1.max_cones[w.side_b]
        )
        for i, b in enumerate(cls):
            if b != 0:
                assert i in allowed


def test_linearity_and_principal(p2, hirzebruch1, p112):
    for f in (p2, hirzebruch1, p112):
        walls = enumerate_walls(f)
        d1 = ray_divisor(f, 0)
        d2 = ray_divisor(f, 1)
        for w in walls:
            lhs = divisor_wall_pairing(f, d1 + d2, w)
            assert lhs == divisor_wall_pairing(f, d1, w) + divisor_wall_pairing(f, d2, w)
        for m in [(1, 0), (0, 1), (2, -3)]:
            pd = principal_divisor(f, m)
            for w in walls:
                assert divisor_wall_pairing(f, pd, w) == 0


def test_quotient_formula_matches_multiplicity_formula(p2, hirzebruch1, p112, p1xp1):
    """Cross-check: on simplicial fans the lattice-quotient intersection
    numbers agree with the mult(tau)/mult(sigma) normalization of the
    wall relation."""
    for f in (p2, hirzebruch1, p112, p1xp1):
        space = curve_class_space(f)
        walls = enumerate_walls(f)
        for w, cls in zip(walls, space.wall_classes):
            ca = f.max_cones[w.side_a]
            cb = f.max_cones[w.side_b]
            opp_a = next(i for i in ca if i not in w.rays)
            opp_b = next(i for i in cb if i not in w.rays)
            mult_tau = sublattice_index([f.rays[i] for i in w.rays]) if w.rays else 1
            assert cls[opp_a] == Fraction(mult_tau, multiplicity(f, ca))
            assert cls[opp_b] == Fraction(mult_tau, multiplicity(f, cb))


def test_two_routes_agree_via_class_vector(p2, hirzebruch1, p112):
    rng = random.Random(11)
    for f in (p2, hirzebruch1, p112):
        space = curve_class_space(f)
        walls = enumerate_walls(f)
        for _ in range(5):
            d = TorusDivisor(
                tuple(Fraction(rng.randint(-4, 4), rng.choice([1, 2])) for _ in f.rays)
            )
            for wi, w in enumerate(walls):
                direct = divisor_wall_pairing(f, d, w)
                via_class = sum(
                    b * c for b, c in zip(space.wall_classes[wi], d.coeffs)
                )
                assert direct == via_class
