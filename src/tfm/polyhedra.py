"""Exact rational polyhedral cone computations.

One algorithm, the double description (incremental insertion with
adjacency pruning), answers every polyhedral question of the library:
V/H conversions, pointedness, extreme rays, and strict feasibility of
homogeneous systems by Gordan's alternative (`strictly_positive_point`).
The phase-1 simplex at the end has no library caller.  Scales are small
throughout: dimension <= ~12, at most a few dozen constraints.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from tfm.lattice import (
    dot,
    identity,
    is_zero,
    primitivize,
    rational_rank,
    vec_scale,
    vec_sub,
)


class ConeVRep(NamedTuple):
    rays: tuple          # primitive integer generators, pairwise non-proportional
    lineality: tuple     # integer basis of the lineality space


def dd_vrep(ineqs: Sequence, dim: int, eqs: Sequence = ()) -> ConeVRep:
    """Minimal V-representation of {x : <a,x> >= 0, <e,x> = 0}.

    Incremental double description.  Every constraint is normalized to a
    primitive integer vector; outputs are primitive integer vectors.
    """
    constraints = []
    for e in eqs:
        if not is_zero(e):
            p = primitivize(e)
            constraints.append(p)
            constraints.append(tuple(-x for x in p))
    for a in ineqs:
        if not is_zero(a):
            constraints.append(primitivize(a))

    lineality = [tuple(row) for row in identity(dim)]
    rays: list[tuple] = []
    tight: list[set] = []

    for idx, a in enumerate(constraints):
        lvals = [dot(a, l) for l in lineality]
        if any(v != 0 for v in lvals):
            # cut the lineality space: one direction becomes a ray
            k = next(i for i, v in enumerate(lvals) if v != 0)
            l0 = lineality[k]
            v0 = lvals[k]
            if v0 < 0:
                l0 = tuple(-x for x in l0)
                v0 = -v0
            new_lin = []
            for i, l in enumerate(lineality):
                if i == k:
                    continue
                if lvals[i] == 0:
                    new_lin.append(l)
                else:
                    new_lin.append(primitivize(vec_sub(vec_scale(v0, l), vec_scale(lvals[i], l0))))
            new_rays = []
            new_tight = []
            for r, t in zip(rays, tight):
                rv = dot(a, r)
                if rv == 0:
                    new_rays.append(r)
                    new_tight.append(t | {idx})
                else:
                    new_rays.append(primitivize(vec_sub(vec_scale(v0, r), vec_scale(rv, l0))))
                    new_tight.append(t | {idx})
            new_rays.append(l0)
            new_tight.append(set(range(idx)))
            lineality = new_lin
            rays = new_rays
            tight = new_tight
            continue

        vals = [dot(a, r) for r in rays]
        if all(v >= 0 for v in vals):
            for t, v in zip(tight, vals):
                if v == 0:
                    t.add(idx)
            continue

        pos = [i for i, v in enumerate(vals) if v > 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        new_rays = [rays[i] for i in pos + zero]
        new_tight = [set(tight[i]) for i in pos] + [tight[i] | {idx} for i in zero]
        for p in pos:
            for q in neg:
                common = tight[p] & tight[q]
                adjacent = True
                for o in range(len(rays)):
                    if o in (p, q):
                        continue
                    if common <= tight[o]:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                w = vec_sub(vec_scale(vals[p], rays[q]), vec_scale(vals[q], rays[p]))
                new_rays.append(primitivize(w))
                new_tight.append(common | {idx})
        rays = new_rays
        tight = new_tight

    return ConeVRep(tuple(rays), tuple(lineality))


class ConeHRep(NamedTuple):
    facets: tuple     # primitive integer facet normals (within the span)
    span_eqs: tuple   # equations cutting out the linear span

    def contains(self, x) -> bool:
        return all(dot(e, x) == 0 for e in self.span_eqs) and all(
            dot(f, x) >= 0 for f in self.facets
        )


def cone_hrep(generators: Sequence, dim: int) -> ConeHRep:
    """H-representation of cone(generators): facets plus span equations.

    The dual cone {y : <g,y> >= 0} has the facet normals as extreme rays
    and the orthogonal complement of the span as lineality.
    """
    gens = [g for g in generators if not is_zero(g)]
    dual = dd_vrep(gens, dim)
    return ConeHRep(dual.rays, dual.lineality)


def cone_is_pointed(generators: Sequence, dim: int, hrep: Optional[ConeHRep] = None) -> bool:
    """A cone is pointed iff its dual is full-dimensional."""
    if hrep is None:
        hrep = cone_hrep(generators, dim)
    rows = list(hrep.facets) + list(hrep.span_eqs)
    if not rows:
        return dim == 0
    return rational_rank(rows) == dim


def extreme_generator_indices(
    generators: Sequence, dim: int, hrep: Optional[ConeHRep] = None
) -> list:
    """Indices of generators spanning extreme rays of a pointed cone.

    One index per extreme ray (the first generator on it).  Raises when
    the cone is not pointed.
    """
    gens = [tuple(g) for g in generators]
    if hrep is None:
        hrep = cone_hrep(gens, dim)
    if not cone_is_pointed(gens, dim, hrep):
        raise ValueError("extreme rays are defined only for pointed cones")
    seen = set()
    out = []
    for i, g in enumerate(gens):
        if is_zero(g):
            continue
        key = primitivize(g)
        if key in seen:
            continue
        seen.add(key)
        active = [f for f in hrep.facets if dot(f, g) == 0]
        if rational_rank(list(active) + list(hrep.span_eqs)) == dim - 1:
            out.append(i)
    return out


def strictly_positive_point(ineqs: Sequence, dim: int, eqs: Sequence = ()) -> Optional[tuple]:
    """An integer x with <e,x> = 0 for e in eqs and <a,x> > 0 for a in
    ineqs, or None.  Gordan's alternative: a row is positive somewhere
    on C = {<a,x> >= 0, <e,x> = 0} iff it is positive on an extreme ray
    of C, so the sum of the extreme rays is strict wherever C is.  The
    system is homogeneous: x exists iff <a,x> >= 1 is feasible on it."""
    rays = dd_vrep(ineqs, dim, eqs).rays
    point = tuple(sum(column) for column in zip(*rays)) if rays else (0,) * dim
    if all(dot(a, point) > 0 for a in ineqs):
        return point
    return None


def facet_ray_sets(generators: Sequence, dim: int, hrep: Optional[ConeHRep] = None):
    """For each facet of cone(generators): the generators lying on it.

    Returns a list of (facet_normal, tuple of generator positions).
    """
    gens = [tuple(g) for g in generators]
    if hrep is None:
        hrep = cone_hrep(gens, dim)
    out = []
    for f in hrep.facets:
        members = tuple(i for i, g in enumerate(gens) if dot(f, g) == 0)
        out.append((f, members))
    return out


# ---------------------------------------------------------------------------
# Exact linear programming (feasibility via phase-1 simplex, Bland's rule)
# kept for the test corpora and the benchmark, which draw ample divisors
# from the exact vertex it returns, and as the oracle of the DD tests


def lp_feasible(
    nvars: int,
    eqs: Sequence = (),
    ineqs: Sequence = (),
) -> Optional[tuple]:
    """Find x with <a,x> = b for (a,b) in eqs and <a,x> >= b in ineqs.

    Variables are free rationals.  Returns one feasible point or None.
    """
    constraints = [(a, b, True) for a, b in eqs] + [(a, b, False) for a, b in ineqs]
    if not constraints:
        return tuple(Fraction(0) for _ in range(nvars))
    # columns: x+ (nvars), x- (nvars), one surplus slot per inequality row
    ncols = 2 * nvars + len(constraints)
    tableau = []
    for i, (a, b, is_eq) in enumerate(constraints):
        line = [Fraction(0)] * ncols
        for j in range(nvars):
            line[j] = Fraction(a[j])
            line[nvars + j] = -Fraction(a[j])
        if not is_eq:
            line[2 * nvars + i] = Fraction(-1)
        b = Fraction(b)
        if b < 0:
            line = [-v for v in line]
            b = -b
        tableau.append((line, b))
    sol = _phase1(tableau, ncols)
    if sol is None:
        return None
    return tuple(sol[j] - sol[nvars + j] for j in range(nvars))


def _phase1(tableau, ncols: int) -> Optional[list]:
    """Min sum of artificials for rows (line, b>=0); None if infeasible."""
    m = len(tableau)
    width = ncols + m + 1
    rows = []
    for i, (line, b) in enumerate(tableau):
        r = list(line) + [Fraction(0)] * m + [b]
        r[ncols + i] = Fraction(1)
        rows.append(r)
    basis = [ncols + i for i in range(m)]
    # objective: minimize sum of artificials; reduced cost row
    obj = [Fraction(0)] * width
    for r in rows:
        for j in range(width):
            obj[j] -= r[j]
    for i in range(m):
        obj[ncols + i] = Fraction(0)

    while True:
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            break
        pivot_row = None
        best = None
        for i in range(m):
            a = rows[i][enter]
            if a > 0:
                ratio = rows[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[pivot_row]):
                    best = ratio
                    pivot_row = i
        if pivot_row is None:
            raise RuntimeError("phase-1 objective unbounded; input bug")
        _pivot(rows, obj, basis, pivot_row, enter)

    if obj[-1] != 0:
        return None
    values = [Fraction(0)] * ncols
    for i, bv in enumerate(basis):
        if bv < ncols:
            values[bv] = rows[i][-1]
    return values


def _pivot(rows, obj, basis, pr: int, pc: int) -> None:
    piv = rows[pr][pc]
    rows[pr] = [v / piv for v in rows[pr]]
    for i in range(len(rows)):
        if i != pr and rows[i][pc] != 0:
            f = rows[i][pc]
            rows[i] = [v - f * w for v, w in zip(rows[i], rows[pr])]
    if obj[pc] != 0:
        f = obj[pc]
        for j in range(len(obj)):
            obj[j] -= f * rows[pr][j]
    basis[pr] = pc
