"""Seeded input generators for the benchmark workloads.

The generators follow the recipe of the acceptance suite: complete
projective simplicial fans from star subdivisions of P^n and products of
projective spaces, random rational foliations of every rank, boundaries
in [0, 1] supported inside V, Kodaira instances L with L-(K_F+Delta)
ample, and unimodular shears.  They call tfm to build and check what
they generate, but export only plain data (ints, Fractions, tuples):
every operation rebuilds its Fan, FoliationSubspace and TorusDivisor, so
no per-object cache carries from one operation to the next.

Sizes are drawn from fixed strata (ray count, rank, shear height) rather
than at random, so that two seeds give the same mix of instance sizes
and their timings are comparable.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, gcd
from typing import NamedTuple

from tfm import polyhedra
from tfm.divisor import TorusDivisor, curve_class_space, is_ample, qcartier_data
from tfm.fan import Fan, product, projective_space, star_subdivision
from tfm.foliation import FoliatedPair, FoliationSubspace
from tfm.lattice import identity, mat_mul, mat_vec, primitive_vector, rational_rank


class FanData(NamedTuple):
    dim: int
    rays: tuple
    cones: tuple


class PairData(NamedTuple):
    fan: FanData
    basis: tuple   # rows of Fractions spanning V
    delta: tuple   # boundary coefficients (Fractions), one per ray


def fan_data(f: Fan) -> FanData:
    return FanData(f.dim, f.rays, f.max_cones)


def build_fan(d: FanData) -> Fan:
    return Fan(d.dim, d.rays, d.cones)


def build_pair(p: PairData) -> FoliatedPair:
    return FoliatedPair(
        build_fan(p.fan), FoliationSubspace(p.basis), TorusDivisor(p.delta)
    )


def _base_fans(dim: int):
    p1 = projective_space(1)
    if dim == 2:
        return [projective_space(2), product(p1, p1)]
    return [
        projective_space(3),
        product(p1, projective_space(2)),
        product(p1, product(p1, p1)),
    ]


def simplicial_fan(rng, dim: int, nrays: int) -> Fan:
    """A fan with exactly `nrays` rays: a random base with at most four
    rays fewer, star-subdivided at primitive (1|2)-weighted sums of the
    rays of random maximal cones."""
    bases = [b for b in _base_fans(dim) if 0 <= nrays - len(b.rays) <= 4]
    f = rng.choice(bases)
    for _ in range(200):
        if len(f.rays) == nrays:
            return f
        cone = f.max_cones[rng.randrange(len(f.max_cones))]
        coeffs = [rng.randint(1, 2) for _ in cone]
        w = tuple(
            sum(c * f.rays[i][k] for c, i in zip(coeffs, cone)) for k in range(dim)
        )
        w = primitive_vector(w)
        if w not in f.rays:
            f = star_subdivision(f, w)
    raise RuntimeError("could not reach %d rays in dimension %d" % (nrays, dim))


def random_subspace(rng, f: Fan, rank: int) -> FoliationSubspace:
    """Random rational V of the given rank, biased towards spans of
    rays so that K_F is usually nonzero."""
    n = f.dim
    for _ in range(200):
        basis: list = []
        pool = list(f.rays)
        rng.shuffle(pool)
        for cand in pool:
            if len(basis) == rank:
                break
            if rng.random() < 0.8:
                vec = cand
            else:
                vec = tuple(rng.randint(-2, 2) for _ in range(n))
                if not any(vec):
                    continue
            if rational_rank(basis + [vec]) == len(basis) + 1:
                basis.append(vec)
        if len(basis) == rank:
            return FoliationSubspace(basis)
    raise RuntimeError("could not sample an independent basis")


def random_pair(rng, f: Fan, rank: int) -> FoliatedPair:
    """Pair with boundary coefficients in [0, 1] (denominator 8) on rays
    inside V, so the pair is log canonical."""
    sub = random_subspace(rng, f, rank)
    inside = sub.ray_mask(f)
    coeffs = [Fraction(0)] * len(f.rays)
    for i in inside:
        if rng.random() < 0.5:
            coeffs[i] = Fraction(rng.randint(0, 8), 8)
    return FoliatedPair(f, sub, TorusDivisor(coeffs))


def pair_data(pair: FoliatedPair) -> PairData:
    return PairData(fan_data(pair.fan), pair.subspace.basis, pair.delta.coeffs)


def ample_cartier(f: Fan) -> TorusDivisor:
    """An ample Cartier divisor: an exact feasible point among
    wall-positive classes, scaled until its local data are integral."""
    space = curve_class_space(f)
    sol = polyhedra.lp_feasible(
        space.dim, ineqs=[(cls, 1) for cls in space.wall_classes]
    )
    if sol is None:
        raise ValueError("fan is not projective")
    d = space.divisor_from_coordinates(sol)
    scale = 1
    for c in d.coeffs:
        scale = scale * c.denominator // gcd(scale, c.denominator)
    data = qcartier_data(f, scale * d)
    for vec in data.m:
        for x in vec:
            den = Fraction(x).denominator
            scale = scale * den // gcd(scale, den)
    return TorusDivisor(tuple(int(scale * c) for c in d.coeffs))


def kodaira_instance(rng, f: Fan, t: int, tries: int = 400):
    """(pair, L) with L integral, Q-Cartier and L-(K_F+Delta) ample: L is
    K_F+Delta plus t times an ample Cartier divisor, rounded up."""
    amp = ample_cartier(f)
    for _ in range(tries):
        pair = random_pair(rng, f, rng.randint(1, f.dim))
        target = pair.k_plus_delta + t * amp
        l = TorusDivisor(tuple(ceil(c) + rng.randint(0, 1) for c in target.coeffs))
        if qcartier_data(f, l) is None:
            continue
        if is_ample(f, l - pair.k_plus_delta):
            return pair, l
    raise RuntimeError("no Kodaira instance found")


def shear_matrix(rng, n: int):
    """Unimodular matrix as a short product of elementary shears."""
    m = identity(n)
    for _ in range(rng.randint(1, 4)):
        i, j = rng.sample(range(n), 2)
        e = [list(r) for r in identity(n)]
        e[i][j] = rng.choice([-2, -1, 1, 2])
        m = mat_mul(m, e)
    return tuple(tuple(r) for r in m)


def shear_to_height(rng, rays, height: int, tries: int = 2000):
    """A unimodular matrix whose image of the rays has largest absolute
    coordinate exactly `height`; the height fixes the default cohomology
    box and so the scan size."""
    n = len(rays[0])
    for _ in range(tries):
        m = shear_matrix(rng, n)
        if max(abs(x) for r in rays for x in mat_vec(m, r)) == height:
            return m
    raise RuntimeError("no shear of height %d found" % height)


def shear_fan(d: FanData, m) -> FanData:
    return FanData(d.dim, tuple(tuple(mat_vec(m, r)) for r in d.rays), d.cones)


def shear_pair(p: PairData, m) -> PairData:
    """The same pair after the lattice automorphism m: rays and V move,
    boundary coefficients stay with their rays."""
    basis = tuple(tuple(mat_vec(m, b)) for b in p.basis)
    return PairData(shear_fan(p.fan, m), basis, p.delta)


def prism_fan(k: int) -> FanData:
    """Face fan of a prism over a k-gon; side faces are quadrilaterals."""
    polygons = {
        3: [(1, 0), (0, 1), (-1, -1)],
        4: [(1, 0), (0, 1), (-1, 0), (0, -1)],
        5: [(1, 0), (0, 1), (-1, 1), (-1, -1), (1, -1)],
    }
    poly = polygons[k]
    rays = tuple((x, y, 1) for x, y in poly) + tuple((x, y, -1) for x, y in poly)
    cones = [tuple(range(k)), tuple(range(k, 2 * k))]
    for i in range(k):
        j = (i + 1) % k
        cones.append((i, j, k + i, k + j))
    return FanData(3, rays, tuple(cones))


def cube_fan() -> FanData:
    rays = tuple((x, y, z) for x in (1, -1) for y in (1, -1) for z in (1, -1))
    cones = []
    for axis in range(3):
        for sgn in (1, -1):
            cones.append(tuple(i for i, r in enumerate(rays) if r[axis] == sgn))
    return FanData(3, rays, tuple(cones))
