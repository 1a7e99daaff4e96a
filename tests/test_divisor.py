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
    is_qcartier,
    lattice_points,
    principal_divisor,
    pullback,
    qcartier_coefficient_basis,
    qcartier_data,
    ray_divisor,
    toric_canonical,
    wall_relation,
    zero_divisor,
)
from tfm.fan import Fan, enumerate_walls, is_projective, multiplicity, star_subdivision
from tfm.lattice import (
    dot,
    identity,
    integer_kernel,
    integer_solve,
    mat_mul,
    mat_vec,
    rational_rank,
    solve_linear,
    sublattice_index,
    vec_add,
    vec_scale,
    vec_sub,
)


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


def test_wall_relation_computed_once_per_wall(hirzebruch1, monkeypatch):
    from tfm import divisor

    walls = enumerate_walls(hirzebruch1)
    calls = []
    real = divisor.solve_linear
    monkeypatch.setattr(
        divisor, "solve_linear", lambda rows, rhs: calls.append(rows) or real(rows, rhs)
    )
    for d in (TorusDivisor((0, 1, 0, 1)), TorusDivisor((1, 0, 0, 0)), ray_divisor(hirzebruch1, 2)):
        for w in walls:
            divisor_wall_pairing(hirzebruch1, d, w)
    assert is_ample(hirzebruch1, TorusDivisor((1, 1, 1, 1)))
    curve_class_space(hirzebruch1)
    assert len(calls) == len(walls)
    # simplicial walls: the relation is unique, entry rho is D_rho . V(wall)
    for w in walls:
        assert wall_relation(hirzebruch1, w) == tuple(
            reference_wall_pairing(hirzebruch1, ray_divisor(hirzebruch1, i), w)
            for i in range(len(hirzebruch1.rays))
        )


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
    # unbounded with a vertex: the rays of a quadrant; the DD exposes the
    # recession rays, which the vertex enumeration does not see
    quadrant = Fan(2, [(1, 0), (0, 1)], [(0, 1)])
    d = TorusDivisor((1, Fraction(1, 2)))
    assert reference_vertices(quadrant, d) == ((Fraction(-1), Fraction(-1, 2)),)
    with pytest.raises(RuntimeError, match="unbounded"):
        divisor_polytope(quadrant, d)
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
    """Cross-check: on simplicial fans the intersection numbers read off
    the wall relation agree with its mult(tau)/mult(sigma)
    normalization."""
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


def reference_wall_pairing(f, d, wall):
    """D . V(wall) by the lattice-quotient formula (test oracle):
    <m_a - m_b, w> for local Cartier data m and an integral w lifting the
    primitive generator of N / (N ∩ span(wall)), oriented towards side_b."""
    data = qcartier_data(f, d)
    if data is None:
        raise ValueError("divisor is not Q-Cartier")
    span_rows = [f.rays[i] for i in wall.rays]
    kernel = integer_kernel(span_rows) if span_rows else list(identity(f.dim))
    assert len(kernel) == 1
    ell = kernel[0]
    far = next(i for i in f.max_cones[wall.side_b] if i not in wall.rays)
    if dot(ell, f.rays[far]) < 0:
        ell = tuple(-x for x in ell)
    w = integer_solve([ell], (1,))
    return Fraction(dot(vec_sub(data.m[wall.side_a], data.m[wall.side_b]), w))


def _oracle_fans(rng):
    fans = _corpus.projective_batch(20261018) + _corpus.nonsimplicial_corpus(rng, 6)
    return fans + [_corpus._apply_matrix(f, _corpus.shear_matrix(rng, f.dim)) for f in fans]


def test_wall_pairing_matches_reference():
    rng = random.Random(20261018)
    nef_verdicts, ample_verdicts, non_qcartier = set(), set(), 0
    for f in _oracle_fans(rng):
        space = curve_class_space(f)
        walls = enumerate_walls(f)
        for w, cls in zip(walls, space.wall_classes):
            expected = tuple(reference_wall_pairing(f, TorusDivisor(b), w) for b in space.basis)
            assert cls == expected
            assert all(type(x) is Fraction for x in cls)
        ample = _corpus.ample_cartier(f)
        divisors = [zero_divisor(f), ample, ample - ray_divisor(f, 0)]
        for _ in range(3):
            coords = [Fraction(rng.randint(-4, 6), rng.choice([1, 2, 3])) for _ in range(space.dim)]
            divisors.append(space.divisor_from_coordinates(coords))
            divisors.append(TorusDivisor([rng.randint(-2, 3) for _ in f.rays]))
        for d in divisors:
            assert is_qcartier(f, d) == (qcartier_data(f, d) is not None)
            if not is_qcartier(f, d):
                non_qcartier += 1
                for check in (
                    lambda: divisor_wall_pairing(f, d, walls[0]),
                    lambda: reference_wall_pairing(f, d, walls[0]),
                    lambda: is_nef(f, d),
                    lambda: is_ample(f, d),
                ):
                    with pytest.raises(ValueError, match="not Q-Cartier"):
                        check()
                continue
            pairings = [divisor_wall_pairing(f, d, w) for w in walls]
            assert pairings == [reference_wall_pairing(f, d, w) for w in walls]
            assert all(type(x) is Fraction for x in pairings)
            assert is_nef(f, d) == all(x >= 0 for x in pairings)
            assert is_ample(f, d) == all(x > 0 for x in pairings)
            nef_verdicts.add(is_nef(f, d))
            ample_verdicts.add(is_ample(f, d))
    assert nef_verdicts == ample_verdicts == {True, False}
    assert non_qcartier > 0


def test_intersection_numbers_need_no_smith_normal_form(
    p1, p2, p3, hirzebruch1, p1xp1, p112, cube_fan, nonprojective_fan,
    quadric_cone_resolution, monkeypatch,
):
    import tfm.lattice

    def no_snf(*args, **kwargs):
        raise AssertionError("smith_normal_form called")

    monkeypatch.setattr(tfm.lattice, "smith_normal_form", no_snf)
    fans = (p1, p2, p3, hirzebruch1, p1xp1, p112, cube_fan, nonprojective_fan,
            quadric_cone_resolution)
    for f in fans:
        space = curve_class_space(f)
        d = space.divisor_from_coordinates(range(1, space.dim + 1))
        is_nef(f, d)
        is_ample(f, d)
        for w in enumerate_walls(f):
            divisor_wall_pairing(f, d, w)
        is_projective(f)
    assert is_ample(cube_fan, TorusDivisor((1,) * 8))


def _shear_to_height(rng, f, height=5, tries=2000):
    """A unimodular product of elementary shears taking the fan's rays to
    largest absolute coordinate exactly `height`."""
    n = f.dim
    for _ in range(tries):
        m = identity(n)
        for _ in range(rng.randint(1, 6)):
            i, j = rng.sample(range(n), 2)
            e = [list(r) for r in identity(n)]
            e[i][j] = rng.choice([-3, -2, -1, 1, 2, 3])
            m = mat_mul(m, e)
        if max(abs(x) for r in f.rays for x in mat_vec(m, r)) == height:
            return m
    raise RuntimeError("no shear of height %d found" % height)


def test_intersection_numbers_are_gl_z_invariant():
    """A lattice automorphism moves the rays but keeps the cones, so the
    Q-Cartier coefficient space, the wall classes and the nef and ample
    verdicts of every divisor stay the same."""
    rng = random.Random(20261019)
    fans = _corpus.projective_batch(20261019) + _corpus.nonsimplicial_corpus(rng, 4)
    verdicts = set()
    for f in fans:
        space = curve_class_space(f)
        ample = _corpus.ample_cartier(f)
        divisors = [ample, zero_divisor(f), ray_divisor(f, 0)] + [
            space.divisor_from_coordinates(
                [Fraction(rng.randint(-3, 5), rng.choice([1, 2])) for _ in range(space.dim)]
            )
            for _ in range(3)
        ]
        for _ in range(2):
            m = _shear_to_height(rng, f)
            g = Fan(f.dim, [mat_vec(m, r) for r in f.rays], f.max_cones)
            assert max(abs(x) for r in g.rays for x in r) == 5
            assert qcartier_coefficient_basis(g) == qcartier_coefficient_basis(f)
            assert curve_class_space(g).wall_classes == space.wall_classes
            for d in divisors:
                assert _verdict(is_nef, g, d) == _verdict(is_nef, f, d)
                assert _verdict(is_ample, g, d) == _verdict(is_ample, f, d)
                verdicts.add((_verdict(is_nef, f, d), _verdict(is_ample, f, d)))
    assert verdicts >= {(True, True), (True, False), (False, False)}


def _verdict(check, f, d):
    try:
        return check(f, d)
    except ValueError as exc:
        return str(exc)
