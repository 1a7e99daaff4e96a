"""Fans: validation, invariants, walls, subdivisions, Q-factorialization,
projectivity, and the split projective-bundle fan builder.

A Fan stores primitive integer ray generators and maximal cones as
ray-index sets.  Fans are immutable after construction; derived data
(facets, walls, completeness, ...) is cached on the instance.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from typing import NamedTuple, Optional, Sequence

from tfm import polyhedra
from tfm.lattice import (
    dot,
    is_zero,
    mat_vec,
    primitive_vector,
    rational_rank,
    row_basis,
    solve_linear,
    sublattice_index,
)


class Fan:
    """A fan in Z^dim given by rays and maximal cones (ray index sets)."""

    def __init__(self, dim: int, rays: Sequence, max_cones: Sequence):
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        self.dim = dim
        self.rays = tuple(tuple(int(x) for x in r) for r in rays)
        for r in self.rays:
            if len(r) != dim:
                raise ValueError("ray length does not match fan dimension")
        cones = []
        for cone in max_cones:
            idxs = tuple(sorted(set(int(i) for i in cone)))
            if len(idxs) != len(tuple(cone)):
                raise ValueError("repeated ray index inside a cone")
            if any(i < 0 or i >= len(self.rays) for i in idxs):
                raise ValueError("cone refers to a ray index out of range")
            cones.append(idxs)
        self.max_cones = tuple(cones)
        self._cache: dict = {}

    def __repr__(self):
        return "Fan(dim=%d, rays=%d, max_cones=%d)" % (
            self.dim,
            len(self.rays),
            len(self.max_cones),
        )

    def __eq__(self, other):
        return (
            isinstance(other, Fan)
            and self.dim == other.dim
            and self.rays == other.rays
            and sorted(self.max_cones) == sorted(other.max_cones)
        )

    def __hash__(self):
        return hash((self.dim, self.rays, tuple(sorted(self.max_cones))))

    def cone_vectors(self, cone: Sequence[int]):
        return tuple(self.rays[i] for i in cone)

    def cone_hrep(self, cone: Sequence[int]) -> polyhedra.ConeHRep:
        key = ("hrep", tuple(sorted(cone)))
        if key not in self._cache:
            self._cache[key] = polyhedra.cone_hrep(self.cone_vectors(cone), self.dim)
        return self._cache[key]

    def cone_contains(self, cone: Sequence[int], v) -> bool:
        return self.cone_hrep(cone).contains(v)

    def cone_dim(self, cone: Sequence[int]) -> int:
        return rational_rank(self.cone_vectors(cone)) if cone else 0

    def is_cone_simplicial(self, cone: Sequence[int]) -> bool:
        return self.cone_dim(cone) == len(cone)

    def facet_index_sets(self, cone: Sequence[int]):
        """Facets of a maximal cone as sorted tuples of fan ray indices."""
        key = ("facets", tuple(sorted(cone)))
        if key not in self._cache:
            cone = tuple(sorted(cone))
            if self.is_cone_simplicial(cone) and len(cone) == self.dim:
                facets = [tuple(c for c in cone if c != drop) for drop in cone]
            else:
                vecs = self.cone_vectors(cone)
                hrep = self.cone_hrep(cone)
                facets = []
                for _, members in polyhedra.facet_ray_sets(vecs, self.dim, hrep):
                    facets.append(tuple(cone[i] for i in members))
            self._cache[key] = sorted(facets)
        return self._cache[key]

    def containing_max_cone(self, v) -> Optional[int]:
        for ci, cone in enumerate(self.max_cones):
            if self.cone_contains(cone, v):
                return ci
        return None


class Wall(NamedTuple):
    """Codimension-1 cone shared by exactly two maximal cones."""

    rays: tuple       # sorted fan ray indices spanning the wall
    side_a: int       # indices into fan.max_cones, side_a < side_b
    side_b: int


class FanValidation(NamedTuple):
    ok: bool
    violations: tuple


def validate_fan(f: Fan) -> FanValidation:
    """Check the Fan invariants; every violation is reported."""
    bad: list[str] = []
    seen = {}
    for i, r in enumerate(f.rays):
        if is_zero(r):
            bad.append("ray %d is zero" % i)
            continue
        if primitive_vector(r) != r:
            bad.append("ray %d = %s is not primitive" % (i, (r,)))
        if r in seen:
            bad.append("duplicate ray %s at indices %d and %d" % ((r,), seen[r], i))
        else:
            seen[r] = i
    used = set()
    for cone in f.max_cones:
        used.update(cone)
    for i in range(len(f.rays)):
        if i not in used:
            bad.append("ray %d appears in no maximal cone" % i)
    if bad:
        return FanValidation(False, tuple(bad))

    for ci, cone in enumerate(f.max_cones):
        vecs = f.cone_vectors(cone)
        hrep = f.cone_hrep(cone)
        if not polyhedra.cone_is_pointed(vecs, f.dim, hrep):
            bad.append("cone %d is not strongly convex" % ci)
            continue
        extreme = polyhedra.extreme_generator_indices(vecs, f.dim, hrep)
        if len(extreme) != len(cone):
            bad.append("cone %d lists a non-extreme (redundant) ray" % ci)
    if bad:
        return FanValidation(False, tuple(bad))

    for ai in range(len(f.max_cones)):
        for bi in range(ai + 1, len(f.max_cones)):
            ca, cb = f.max_cones[ai], f.max_cones[bi]
            shared = sorted(set(ca) & set(cb))
            if set(ca) <= set(cb) or set(cb) <= set(ca):
                bad.append("maximal cones %d and %d are nested" % (ai, bi))
                continue
            if not _separable_along_common_face(f, ca, cb, shared):
                bad.append(
                    "cones %d and %d do not intersect in a common face" % (ai, bi)
                )
    return FanValidation(not bad, tuple(bad))


def _separable_along_common_face(f: Fan, ca, cb, shared) -> bool:
    """Separation test: a functional vanishing on the shared rays,
    > 0 on the rest of ca and < 0 on the rest of cb, exists iff the
    intersection is the common face spanned by the shared rays.  One
    double description per pair of cones (`strictly_positive_point`)."""
    eqs = [f.rays[i] for i in shared]
    ineqs = [f.rays[i] for i in ca if i not in shared]
    ineqs += [tuple(-x for x in f.rays[i]) for i in cb if i not in shared]
    return polyhedra.strictly_positive_point(ineqs, f.dim, eqs) is not None


def is_complete(f: Fan) -> bool:
    """Complete iff every facet of every (full-dimensional) maximal cone
    is shared with exactly one other maximal cone."""
    if "complete" in f._cache:
        return f._cache["complete"]
    result = _compute_complete(f)
    f._cache["complete"] = result
    return result


def _compute_complete(f: Fan) -> bool:
    if f.dim == 0:
        return len(f.max_cones) == 1 and f.max_cones[0] == ()
    if not f.max_cones:
        return False
    incidence: dict = {}
    for ci, cone in enumerate(f.max_cones):
        if f.cone_dim(cone) != f.dim:
            return False
        for facet in f.facet_index_sets(cone):
            incidence.setdefault(facet, []).append(ci)
    return all(len(v) == 2 for v in incidence.values())


def is_simplicial(f: Fan) -> bool:
    if "simplicial" not in f._cache:
        f._cache["simplicial"] = all(
            f.is_cone_simplicial(c) for c in f.max_cones
        )
    return f._cache["simplicial"]


def is_smooth(f: Fan) -> bool:
    return is_simplicial(f) and all(
        multiplicity(f, c) == 1 for c in f.max_cones
    )


def multiplicity(f: Fan, cone: Sequence[int]) -> int:
    """Index of the sublattice spanned by the cone's primitive generators."""
    cone = tuple(sorted(cone))
    if not f.is_cone_simplicial(cone):
        raise ValueError("multiplicity defined only for simplicial cones")
    if not cone:
        return 1
    return sublattice_index(f.cone_vectors(cone))


def enumerate_walls(f: Fan):
    """All walls of a complete fan, sorted by ray tuple then side pair."""
    if "walls" in f._cache:
        return f._cache["walls"]
    if not is_complete(f):
        raise ValueError("wall enumeration requires a complete fan")
    incidence: dict = {}
    for ci, cone in enumerate(f.max_cones):
        for facet in f.facet_index_sets(cone):
            incidence.setdefault(facet, []).append(ci)
    walls = []
    for facet, sides in sorted(incidence.items()):
        a, b = sorted(sides)
        walls.append(Wall(facet, a, b))
    walls = tuple(walls)
    f._cache["walls"] = walls
    return walls


def star_subdivision(f: Fan, w: Sequence[int]) -> Fan:
    """Star subdivision of the fan at a new primitive ray w."""
    w = tuple(int(x) for x in w)
    if is_zero(w) or primitive_vector(w) != w:
        raise ValueError("subdivision point must be a primitive vector")
    if w in f.rays:
        raise ValueError("subdivision point is already a ray of the fan")
    containing = [ci for ci, c in enumerate(f.max_cones) if f.cone_contains(c, w)]
    if not containing:
        raise ValueError("subdivision point lies outside the fan's support")
    w_index = len(f.rays)
    new_cones = []
    for ci, cone in enumerate(f.max_cones):
        if ci not in containing:
            new_cones.append(cone)
            continue
        for facet in f.facet_index_sets(cone):
            if facet and f.cone_contains(facet, w):
                continue
            new_cones.append(tuple(sorted(facet + (w_index,))))
    return Fan(f.dim, f.rays + (w,), new_cones)


class SupportFunctionSpec(NamedTuple):
    """Per-maximal-cone linear functionals, aligned with fan.max_cones.

    Represents a function linear on each cone; consistency on shared
    faces is checked by `check_support_function`.
    """

    values: tuple  # tuple of dual vectors (tuples of Fraction/int)

    def on_cone(self, ci: int):
        return self.values[ci]


def check_support_function(f: Fan, spec: SupportFunctionSpec, integral: bool = False) -> None:
    if len(spec.values) != len(f.max_cones):
        raise ValueError("support function needs one functional per maximal cone")
    for m in spec.values:
        if len(m) != f.dim:
            raise ValueError("support functional has wrong dimension")
        if integral and any(Fraction(x).denominator != 1 for x in m):
            raise ValueError("support function is not integral")
    for ai in range(len(f.max_cones)):
        for bi in range(ai + 1, len(f.max_cones)):
            shared = set(f.max_cones[ai]) & set(f.max_cones[bi])
            for i in shared:
                if dot(spec.values[ai], f.rays[i]) != dot(spec.values[bi], f.rays[i]):
                    raise ValueError(
                        "support function disagrees on the shared ray %d" % i
                    )


class QFactorialization(NamedTuple):
    fan: Fan
    cone_map: tuple      # output max-cone index -> input max-cone index
    certificates: dict   # input cone index -> per-piece functionals


def qfactorialize(f: Fan) -> QFactorialization:
    """Small projective Q-factorialization by lexicographic pulling.

    Triangulates every non-simplicial maximal cone using only its own
    rays (lowest ray index pulled first).  Each subdivided input cone
    carries a strict-convexity certificate, so the refinement is
    projective over the input fan.
    """
    if not is_complete(f):
        raise ValueError("Q-factorialization requires a complete fan")
    new_cones: list = []
    cone_map: list = []
    for ci, cone in enumerate(f.max_cones):
        for simplex in _pull_triangulate(f, cone):
            new_cones.append(tuple(sorted(simplex)))
            cone_map.append(ci)
    out = Fan(f.dim, f.rays, new_cones)
    certificates = {}
    for ci in range(len(f.max_cones)):
        pieces = [new_cones[i] for i in range(len(new_cones)) if cone_map[i] == ci]
        if len(pieces) > 1:
            certificates[ci] = _relative_convexity_certificate(out, pieces)
    return QFactorialization(out, tuple(cone_map), certificates)


def _pull_triangulate(f: Fan, cone):
    cone = tuple(sorted(cone))
    if f.is_cone_simplicial(cone):
        return [cone]
    r = cone[0]
    vecs = f.cone_vectors(cone)
    out = []
    for _, members in polyhedra.facet_ray_sets(vecs, f.dim, f.cone_hrep(cone)):
        facet = tuple(cone[i] for i in members)
        if r in facet:
            continue
        for sub in _pull_triangulate(f, facet):
            out.append(tuple(sorted(sub + (r,))))
    return out


def _relative_convexity_certificate(out: Fan, pieces):
    """Functionals m_T, one per simplex, strictly convex across the
    internal walls of a subdivided cone: adjacent pieces agree on their
    shared rays, and on each far ray the near piece's functional exceeds
    the far piece's by at least 1, with equality somewhere.  Raises if
    none exists."""
    n = out.dim
    index = {piece: k for k, piece in enumerate(pieces)}
    incidence: dict = {}
    for piece in pieces:
        for facet in (tuple(c for c in piece if c != d) for d in piece):
            incidence.setdefault(facet, []).append(piece)

    def difference(k_plus, k_minus, ray):
        # <m_plus - m_minus, ray> on the stacked functionals
        row = [0] * (n * len(pieces))
        row[k_plus * n:(k_plus + 1) * n] = ray
        row[k_minus * n:(k_minus + 1) * n] = [-x for x in ray]
        return row

    eqs = []
    ineqs = []
    for facet, touching in incidence.items():
        if len(touching) != 2:
            continue
        pa, pb = touching
        ka, kb = index[pa], index[pb]
        eqs += [difference(ka, kb, out.rays[i]) for i in facet]
        for piece_far, k_near, k_far in ((pb, ka, kb), (pa, kb, ka)):
            ineqs += [
                difference(k_near, k_far, out.rays[i]) for i in piece_far if i not in facet
            ]
    sol = polyhedra.strictly_positive_point(ineqs, n * len(pieces), eqs)
    if sol is None:
        raise RuntimeError(
            "pulling triangulation produced a non-regular refinement"
        )
    scale = min(dot(a, sol) for a in ineqs)
    return {
        piece: tuple(Fraction(sol[index[piece] * n + c], scale) for c in range(n))
        for piece in pieces
    }


def is_projective(f: Fan) -> bool:
    """Existence of a strictly convex rational support function.

    Decided on the Q-Cartier divisor side: the fan is projective iff
    some Q-Cartier divisor pairs strictly positively with every wall
    curve.  By Gordan's alternative that holds iff no wall class is zero
    and the cone of wall classes is pointed, which is read off the
    cached double description of that cone (`divisor.nef_cone_hrep`).
    """
    if "projective" in f._cache:
        return f._cache["projective"]
    if not is_complete(f):
        raise ValueError("projectivity test requires a complete fan")
    if f.dim == 0:
        f._cache["projective"] = True
        return True
    from tfm import divisor as _divisor

    space = _divisor.curve_class_space(f)
    classes = space.wall_classes
    f._cache["projective"] = not any(is_zero(c) for c in classes) and (
        polyhedra.cone_is_pointed(classes, space.dim, _divisor.nef_cone_hrep(f))
    )
    return f._cache["projective"]


def build_split_bundle(base: Fan, specs: Sequence[SupportFunctionSpec]) -> Fan:
    """Fan of the projectivized split bundle over a complete base fan.

    Each spec is an integral support function picking one line-bundle
    summand; the trivial summand is implicit.  Fiber rays come first,
    base cones are lifted through y |-> (h_1(y), ..., h_r(y), y).
    """
    if not is_complete(base):
        raise ValueError("split bundles require a complete base fan")
    r = len(specs)
    if r < 1:
        raise ValueError("need at least one summand spec")
    for spec in specs:
        check_support_function(base, spec, integral=True)
    nb = base.dim
    n = r + nb

    def fiber_ray(i: int):  # i in 0..r, ray 0 is minus the sum of the others
        if i == 0:
            return tuple([-1] * r + [0] * nb)
        return tuple(1 if c == i - 1 else 0 for c in range(r)) + (0,) * nb

    rays = [fiber_ray(i) for i in range(r + 1)]
    lift = {}
    for bi, u in enumerate(base.rays):
        ci = next(
            k for k, cone in enumerate(base.max_cones) if bi in cone
        )
        coords = tuple(int(dot(specs[j].values[ci], u)) for j in range(r)) + tuple(u)
        lift[bi] = len(rays)
        rays.append(coords)
    cones = []
    for ci, cone in enumerate(base.max_cones):
        lifted = tuple(lift[bi] for bi in cone)
        for omit in range(r + 1):
            fiber_part = tuple(i for i in range(r + 1) if i != omit)
            cones.append(tuple(sorted(fiber_part + lifted)))
    return Fan(n, rays, cones)


def p1_degree_specs(base: Fan, degrees: Sequence[int]):
    """Support-function specs for summands O(d_i) on a P^1-like base."""
    if base.dim != 1 or len(base.rays) != 2:
        raise ValueError("degree shortcut needs a one-dimensional base")
    plus = next(i for i, r in enumerate(base.rays) if r[0] > 0)
    specs = []
    for d in degrees:
        values = []
        for cone in base.max_cones:
            (bi,) = cone
            values.append((d,) if bi == plus else (0,))
        specs.append(SupportFunctionSpec(tuple(values)))
    return specs


def projective_space(n: int) -> Fan:
    """The fan of P^n."""
    if n < 1:
        raise ValueError("projective space needs positive dimension")
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rays.append(tuple([-1] * n))
    cones = [tuple(j for j in range(n + 1) if j != skip) for skip in range(n + 1)]
    return Fan(n, rays, cones)


def product(f1: Fan, f2: Fan) -> Fan:
    """Product fan (rays of the factors embedded in the two blocks)."""
    n = f1.dim + f2.dim
    rays = [tuple(r) + (0,) * f2.dim for r in f1.rays]
    rays += [(0,) * f1.dim + tuple(r) for r in f2.rays]
    shift = len(f1.rays)
    cones = []
    for c1 in f1.max_cones:
        for c2 in f2.max_cones:
            cones.append(tuple(c1) + tuple(shift + i for i in c2))
    return Fan(n, rays, cones)


def refines(fine: Fan, coarse: Fan) -> bool:
    """True when every maximal cone of `fine` sits inside a maximal cone
    of `coarse` and both fans are complete (equal support)."""
    if fine.dim != coarse.dim:
        return False
    if not (is_complete(fine) and is_complete(coarse)):
        return False
    for cone in fine.max_cones:
        target = None
        for cc in coarse.max_cones:
            hrep = coarse.cone_hrep(cc)
            if all(hrep.contains(fine.rays[i]) for i in cone):
                target = cc
                break
        if target is None:
            return False
    return True


def fans_unimodular_equivalent(f1: Fan, f2: Fan):
    """A unimodular map sending f1 onto f2 (rays to rays, cones to
    cones), or None.  Brute force over ray assignments; desk scale."""
    if f1.dim != f2.dim or len(f1.rays) != len(f2.rays):
        return None
    if sorted(map(len, f1.max_cones)) != sorted(map(len, f2.max_cones)):
        return None
    n = f1.dim
    basis = row_basis(f1.rays)
    if len(basis) < n:
        return None
    cones2 = set(map(tuple, (sorted(c) for c in f2.max_cones)))
    for images in permutations(range(len(f2.rays)), n):
        target = [f2.rays[i] for i in images]
        # row `coord` of M solves <row, basis_k> = target_k[coord]
        rows = []
        ok = True
        for coord in range(n):
            sol = solve_linear(basis, [t[coord] for t in target])
            if sol is None:
                ok = False
                break
            rows.append(sol)
        if not ok:
            continue
        m = tuple(tuple(x) for x in rows)
        if any(x.denominator != 1 for row in m for x in map(Fraction, row)):
            continue
        mi = tuple(tuple(int(x) for x in row) for row in m)
        from tfm.lattice import det as _det

        if abs(_det(mi)) != 1:
            continue
        image_map = {}
        ok = True
        for i, r in enumerate(f1.rays):
            img = mat_vec(mi, r)
            if img not in f2.rays:
                ok = False
                break
            image_map[i] = f2.rays.index(img)
        if not ok or len(set(image_map.values())) != len(f1.rays):
            continue
        mapped = set(
            tuple(sorted(image_map[i] for i in cone)) for cone in f1.max_cones
        )
        if mapped == cones2:
            return mi
    return None
