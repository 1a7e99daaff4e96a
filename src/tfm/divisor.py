"""Torus-invariant divisors: Cartier data, wall intersections, nef/ample
tests, polytopes, and pullback along refinements.

Divisors are stored as one rational coefficient per fan ray.  Every
intersection number D . V(wall) is the dot product of the coefficients
with one cached wall relation (Reid, "Decomposition of toric morphisms";
Cox-Little-Schenck 6.4), which works on walls of non-simplicial fans as
well; agreement with the multiplicity formula on simplicial fans is a
test invariant.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor
from typing import NamedTuple, Optional, Sequence

from tfm import polyhedra
from tfm.fan import Fan, Wall, enumerate_walls, is_complete, refines
from tfm.lattice import (
    dot,
    primitivize,
    rational_kernel,
    rational_rank,
    solve_linear,
    vec_sub,
)


class TorusDivisor:
    """Divisor sum a_rho D_rho, coefficients aligned with fan.rays."""

    def __init__(self, coeffs: Sequence):
        self.coeffs = tuple(Fraction(c) for c in coeffs)

    def __repr__(self):
        return "TorusDivisor(%s)" % (self.coeffs,)

    def __eq__(self, other):
        return isinstance(other, TorusDivisor) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        return TorusDivisor(
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        return TorusDivisor(
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        return TorusDivisor(tuple(-a for a in self.coeffs))

    def __rmul__(self, scalar):
        return TorusDivisor(tuple(Fraction(scalar) * a for a in self.coeffs))

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def is_effective(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def support(self):
        return tuple(i for i, c in enumerate(self.coeffs) if c != 0)


def zero_divisor(f: Fan) -> TorusDivisor:
    return TorusDivisor((0,) * len(f.rays))


def ray_divisor(f: Fan, i: int) -> TorusDivisor:
    return TorusDivisor(tuple(1 if j == i else 0 for j in range(len(f.rays))))


def toric_canonical(f: Fan) -> TorusDivisor:
    """K_X = -sum of all prime invariant divisors."""
    return TorusDivisor((-1,) * len(f.rays))


def principal_divisor(f: Fan, m: Sequence) -> TorusDivisor:
    """div(chi^m) = sum <m, u_rho> D_rho."""
    return TorusDivisor(tuple(dot(m, r) for r in f.rays))


class CartierData(NamedTuple):
    """Per-maximal-cone local functionals m_sigma with
    <m_sigma, u_rho> = -a_rho on the cone's rays."""

    m: tuple

    def is_cartier(self) -> bool:
        return all(
            Fraction(x).denominator == 1 for vec in self.m for x in vec
        )


def qcartier_data(f: Fan, d: TorusDivisor) -> Optional[CartierData]:
    """Exact local data for a Q-Cartier divisor, None when some cone
    admits no linear functional matching the coefficients."""
    ms = []
    for cone in f.max_cones:
        rows = [f.rays[i] for i in cone]
        rhs = [-d.coeffs[i] for i in cone]
        sol = solve_linear(rows, rhs)
        if sol is None:
            return None
        ms.append(sol)
    return CartierData(tuple(ms))


def is_cartier(f: Fan, d: TorusDivisor) -> bool:
    data = qcartier_data(f, d)
    return data is not None and data.is_cartier()


def _qcartier_conditions(f: Fan) -> tuple:
    """The linear relations among the rays of each maximal cone, as
    vectors with one entry per fan ray; cached per fan."""
    if "qcartier_conditions" not in f._cache:
        nrays = len(f.rays)
        conditions = []
        for cone in f.max_cones:
            rows = [f.rays[i] for i in cone]
            for rel in rational_kernel(list(zip(*rows)), ncols=len(cone)):
                cond = [Fraction(0)] * nrays
                for pos, i in enumerate(cone):
                    cond[i] = rel[pos]
                conditions.append(tuple(cond))
        f._cache["qcartier_conditions"] = tuple(conditions)
    return f._cache["qcartier_conditions"]


def is_qcartier(f: Fan, d: TorusDivisor) -> bool:
    """True iff the divisor is Q-Cartier: on every maximal cone some
    functional m has <m, u_rho> = -a_rho, which holds exactly when the
    coefficients are orthogonal to each linear relation among the cone's
    rays.  Same verdict as `qcartier_data(f, d) is not None`, without
    solving for m."""
    return all(dot(c, d.coeffs) == 0 for c in _qcartier_conditions(f))


def wall_relation(f: Fan, wall: Wall) -> tuple:
    """Coefficients c, one per fan ray, with D_a . V(wall) = sum c_rho a_rho
    for every Q-Cartier a; cached per wall.

    With far the ray of side_b off the wall, ell the primitive wall normal
    and u_far = sum lambda_i u_i over the rays of side_a:
    c_far = 1/|<ell, u_far>| and c_i = -lambda_i/|<ell, u_far>|.  This is
    <m_a - m_b, w> for a lattice w with <ell, w> = 1 towards side_b, since
    m_a - m_b is a multiple of ell; on a non-simplicial side_a any
    solution lambda gives the same pairing with Q-Cartier divisors.
    """
    key = ("wall_relation", wall)
    if key not in f._cache:
        kernel = rational_kernel([f.rays[i] for i in wall.rays], ncols=f.dim)
        if len(kernel) != 1:
            raise ValueError("wall rays do not span a codimension-1 subspace")
        ell = primitivize(kernel[0])
        far = next(i for i in f.max_cones[wall.side_b] if i not in wall.rays)
        height = abs(dot(ell, f.rays[far]))
        if height == 0:
            raise ValueError("wall is not a facet of its adjacent cone")
        side_a = f.max_cones[wall.side_a]
        lam = solve_linear(list(zip(*(f.rays[i] for i in side_a))), f.rays[far])
        c = [Fraction(0)] * len(f.rays)
        c[far] = Fraction(1, height)
        for i, x in zip(side_a, lam):
            c[i] = -x / height
        f._cache[key] = tuple(c)
    return f._cache[key]


def _wall_pairings(f: Fan, d: TorusDivisor, walls):
    """D . V(wall) for each wall, lazily; raises at once unless D is
    Q-Cartier."""
    if not is_qcartier(f, d):
        raise ValueError("divisor is not Q-Cartier")
    return (Fraction(dot(d.coeffs, wall_relation(f, w))) for w in walls)


def divisor_wall_pairing(f: Fan, d: TorusDivisor, wall: Wall) -> Fraction:
    return next(_wall_pairings(f, d, (wall,)))


def is_nef(f: Fan, d: TorusDivisor) -> bool:
    if not is_complete(f):
        raise ValueError("nefness is decided on complete fans")
    return all(x >= 0 for x in _wall_pairings(f, d, enumerate_walls(f)))


def is_ample(f: Fan, d: TorusDivisor) -> bool:
    if not is_complete(f):
        raise ValueError("ampleness is decided on complete fans")
    return all(x > 0 for x in _wall_pairings(f, d, enumerate_walls(f)))


class Polytope(NamedTuple):
    """{m : <m, u_rho> >= -a_rho}; vertices computed exactly."""

    ineq_rows: tuple   # the u_rho
    ineq_rhs: tuple    # the -a_rho
    vertices: tuple

    def dim(self) -> int:
        if not self.vertices:
            return -1
        v0 = self.vertices[0]
        return rational_rank([vec_sub(v, v0) for v in self.vertices[1:]]) if len(self.vertices) > 1 else 0

    def contains(self, m) -> bool:
        return all(dot(row, m) >= rhs for row, rhs in zip(self.ineq_rows, self.ineq_rhs))


def divisor_polytope(f: Fan, d: TorusDivisor) -> Polytope:
    """Section polytope of the divisor.  Its vertices are the extreme
    rays with t > 0 of one double description of the homogenization
    {(m, t) : <m, u_rho> + a_rho t >= 0, t >= 0}, scaled to t = 1; none
    means the polytope is empty.  A nonempty polytope whose DD also has
    a ray with t = 0 or a lineality space is unbounded, which complete
    fans exclude (the rays positively span the lattice)."""
    n = f.dim
    rows = tuple(f.rays)
    rhs = tuple(-c for c in d.coeffs)
    if n == 0:
        return Polytope(rows, rhs, ((),))
    homogenized = [tuple(row) + (c,) for row, c in zip(rows, d.coeffs)]
    homogenized.append((0,) * n + (1,))
    cone = polyhedra.dd_vrep(homogenized, n + 1)
    vertices = [r for r in cone.rays if r[n] > 0]
    if vertices and (cone.lineality or len(vertices) < len(cone.rays)):
        raise RuntimeError("divisor polytope is unbounded; fan not complete?")
    vertices = sorted(tuple(Fraction(x, r[n]) for x in r[:n]) for r in vertices)
    return Polytope(rows, rhs, tuple(vertices))


def lattice_points(p: Polytope):
    """All integer points of the polytope by bounding-box scan."""
    if not p.vertices:
        return []
    n = len(p.vertices[0])
    if n == 0:
        return [()]
    lo = [min(v[i] for v in p.vertices) for i in range(n)]
    hi = [max(v[i] for v in p.vertices) for i in range(n)]
    lo = [ceil(x) for x in lo]
    hi = [floor(x) for x in hi]
    pts = []

    def walk(prefix):
        k = len(prefix)
        if k == n:
            if p.contains(prefix):
                pts.append(tuple(prefix))
            return
        for v in range(lo[k], hi[k] + 1):
            walk(prefix + [v])

    walk([])
    return pts


def pullback(f: Fan, refined: Fan, data: CartierData) -> TorusDivisor:
    """Pull a Q-Cartier divisor back along a refinement: the support
    function is evaluated on every ray of the refined fan."""
    if not refines(refined, f):
        raise ValueError("second fan does not refine the first")
    coeffs = []
    for ray in refined.rays:
        ci = f.containing_max_cone(ray)
        assert ci is not None
        coeffs.append(-Fraction(dot(data.m[ci], ray)))
    return TorusDivisor(coeffs)


class CurveClassSpace(NamedTuple):
    """Numerical curve classes as functionals on the Q-Cartier
    coefficient space.

    basis: Q-Cartier divisor coefficient vectors spanning the space;
    wall_classes[i]: pairing of each wall curve with the basis divisors,
    in the order of enumerate_walls(f).
    """

    fan: Fan
    basis: tuple
    wall_classes: tuple
    dim: int

    def divisor_coordinates(self, d: TorusDivisor):
        """Coordinates of a Q-Cartier divisor in the chosen basis."""
        cols = list(zip(*self.basis))
        sol = solve_linear(cols, d.coeffs)
        if sol is None:
            raise ValueError("divisor is not Q-Cartier")
        return sol

    def divisor_from_coordinates(self, coords) -> TorusDivisor:
        total = [Fraction(0)] * len(self.fan.rays)
        for c, b in zip(coords, self.basis):
            for i, x in enumerate(b):
                total[i] += Fraction(c) * x
        return TorusDivisor(total)

    def pair(self, d: TorusDivisor, wall_index: int) -> Fraction:
        coords = self.divisor_coordinates(d)
        return Fraction(dot(coords, self.wall_classes[wall_index]))


def qcartier_coefficient_basis(f: Fan):
    """Basis of {a : sum a_rho D_rho is Q-Cartier} inside Q^#rays.

    A coefficient vector is Q-Cartier iff for every maximal cone it is
    orthogonal to all linear relations among the cone's rays.
    """
    nrays = len(f.rays)
    conditions = _qcartier_conditions(f)
    if not conditions:
        return [
            tuple(Fraction(int(i == j)) for j in range(nrays))
            for i in range(nrays)
        ]
    return rational_kernel(list(conditions), ncols=nrays)


def curve_class_space(f: Fan) -> CurveClassSpace:
    if "curve_class_space" in f._cache:
        return f._cache["curve_class_space"]
    basis = qcartier_coefficient_basis(f)
    classes = tuple(
        tuple(Fraction(dot(b, wall_relation(f, w))) for b in basis)
        for w in enumerate_walls(f)
    )
    space = CurveClassSpace(f, tuple(basis), classes, len(basis))
    f._cache["curve_class_space"] = space
    return space


def nef_cone_hrep(f: Fan) -> polyhedra.ConeHRep:
    """H-representation of the cone spanned by the wall curve classes.

    Its facet normals generate the nef cone (the dual cone) modulo the
    span equations, which cut out the numerically trivial directions.
    One double description per fan, cached on the fan.
    """
    if "nef_cone_hrep" not in f._cache:
        space = curve_class_space(f)
        f._cache["nef_cone_hrep"] = polyhedra.cone_hrep(space.wall_classes, space.dim)
    return f._cache["nef_cone_hrep"]
