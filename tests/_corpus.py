"""Seeded random instance generation for the property and acceptance
suites: complete projective simplicial fans from star subdivisions of
projective spaces and their products, random rational foliations, log
canonical boundaries, ample Cartier divisors, and non-simplicial fans.
"""

import random
from fractions import Fraction
from math import gcd

from tfm import polyhedra
from tfm.divisor import TorusDivisor, curve_class_space, is_ample, qcartier_data
from tfm.fan import Fan, product, projective_space, star_subdivision
from tfm.foliation import FoliatedPair, FoliationSubspace
from tfm.lattice import primitive_vector, rational_rank


def random_simplicial_fan(rng, dim, max_subdivisions=4):
    """Star subdivisions of P^n or a product of projective spaces."""
    if dim == 2:
        seed_fan = rng.choice(
            [
                projective_space(2),
                product(projective_space(1), projective_space(1)),
            ]
        )
    elif dim == 3:
        seed_fan = rng.choice(
            [
                projective_space(3),
                product(projective_space(1), projective_space(2)),
                product(
                    projective_space(1),
                    product(projective_space(1), projective_space(1)),
                ),
            ]
        )
    else:
        seed_fan = projective_space(dim)
    f = seed_fan
    for _ in range(rng.randint(0, max_subdivisions)):
        if len(f.rays) >= 12:
            break
        cone = f.max_cones[rng.randrange(len(f.max_cones))]
        coeffs = [rng.randint(1, 2) for _ in cone]
        w = tuple(
            sum(c * f.rays[i][k] for c, i in zip(coeffs, cone))
            for k in range(dim)
        )
        w = primitive_vector(w)
        if w in f.rays:
            continue
        f = star_subdivision(f, w)
    return f


def projective_batch(seed, surfaces=6, threefolds=4):
    """Seeded complete projective simplicial surfaces and 3-folds."""
    rng = random.Random(seed)
    return [random_simplicial_fan(rng, 2) for _ in range(surfaces)] + [
        random_simplicial_fan(rng, 3, max_subdivisions=3)
        for _ in range(threefolds)
    ]


def random_subspace(rng, f, rank=None):
    """Random rational subspace, biased towards spans of actual rays so
    the foliation canonical divisor is usually nonzero."""
    n = f.dim
    if rank is None:
        rank = rng.randint(1, n)
    for _ in range(200):
        basis = []
        pool = list(f.rays)
        rng.shuffle(pool)
        for cand in pool:
            if len(basis) == rank:
                break
            if rng.random() < 0.8:
                vec = cand
            else:
                vec = tuple(rng.randint(-2, 2) for _ in range(n))
                if all(x == 0 for x in vec):
                    continue
            if rational_rank(basis + [vec]) == len(basis) + 1:
                basis.append(vec)
        if len(basis) == rank:
            return FoliationSubspace(basis)
    raise RuntimeError("could not sample an independent basis")


def random_lc_delta(rng, f, subspace):
    """Effective boundary supported on rays inside V, coefficients in
    [0, 1] with denominator 8."""
    inside = subspace.ray_mask(f)
    coeffs = [Fraction(0)] * len(f.rays)
    for i in inside:
        if rng.random() < 0.5:
            coeffs[i] = Fraction(rng.randint(0, 8), 8)
    return TorusDivisor(coeffs)


def random_pair(rng, f, rank=None):
    sub = random_subspace(rng, f, rank)
    return FoliatedPair(f, sub, random_lc_delta(rng, f, sub))


def ample_cartier(f):
    """A canonical ample Cartier divisor, via exact feasibility among
    wall-positive divisor classes, scaled until the local data are
    integral."""
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
            scale_x = Fraction(x).denominator
            scale = scale * scale_x // gcd(scale, scale_x)
    return TorusDivisor(tuple(int(scale * c) for c in d.coeffs))


def ample_cartier_samples(rng, f, count=5, tries=60):
    """Distinct ample Cartier divisors: one canonical plus perturbations."""
    base = ample_cartier(f)
    out = [base]
    for _ in range(tries):
        if len(out) >= count:
            break
        cand = TorusDivisor(
            tuple(c + rng.randint(-1, 1) for c in base.coeffs)
        )
        data = qcartier_data(f, cand)
        if data is None or not data.is_cartier():
            continue
        if not is_ample(f, cand):
            continue
        if cand not in out:
            out.append(cand)
    while len(out) < count:
        out.append((len(out) + 1) * base)
    return out[:count]


def shear_matrix(rng, n):
    """Random unimodular matrix as a short product of elementary shears."""
    from tfm.lattice import identity, mat_mul

    m = [list(r) for r in identity(n)]
    for _ in range(rng.randint(1, 4)):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        e = [list(r) for r in identity(n)]
        e[i][j] = c
        m = [list(r) for r in mat_mul(m, e)]
    return tuple(tuple(r) for r in m)


def _apply_matrix(f, m):
    from tfm.lattice import mat_vec

    return Fan(f.dim, [mat_vec(m, r) for r in f.rays], f.max_cones)


def _prism_fan(k):
    """Face fan of a prism over a k-gon; side faces are quadrilaterals."""
    polygons = {
        3: [(1, 0), (0, 1), (-1, -1)],
        4: [(1, 0), (0, 1), (-1, 0), (0, -1)],
        5: [(1, 0), (0, 1), (-1, 1), (-1, -1), (1, -1)],
    }
    poly = polygons[k]
    rays = [(x, y, 1) for x, y in poly] + [(x, y, -1) for x, y in poly]
    cones = [tuple(range(k)), tuple(range(k, 2 * k))]
    for i in range(k):
        j = (i + 1) % k
        cones.append((i, j, k + i, k + j))
    return Fan(3, rays, cones)


def _cube_fan():
    rays = [(x, y, z) for x in (1, -1) for y in (1, -1) for z in (1, -1)]
    cones = []
    for axis in range(3):
        for sgn in (1, -1):
            cones.append(tuple(i for i, r in enumerate(rays) if r[axis] == sgn))
    return Fan(3, rays, cones)


def nonsimplicial_corpus(rng, count=10):
    """Cube and prism face fans, then unimodular shears of them."""
    base = [_cube_fan(), _prism_fan(3), _prism_fan(4), _prism_fan(5)]
    out = []
    k = 0
    while len(out) < count:
        f = base[k % len(base)]
        if k < len(base):
            out.append(f)
        else:
            out.append(_apply_matrix(f, shear_matrix(rng, 3)))
        k += 1
    return out
