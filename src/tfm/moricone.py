"""Kleiman-Mori cone machinery: wall curve classes, extremal rays,
lengths, contractions, projective-bundle detection, and the freeness /
very-ampleness reporters.

Curve classes live in the dual of the Q-Cartier coefficient space; on a
Q-factorial fan that space has the ray divisors as basis and the class
of a wall curve is literally its intersection vector (D_rho . V(tau)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from tfm import polyhedra
from tfm.divisor import (
    Polytope,
    TorusDivisor,
    curve_class_space,
    divisor_polytope,
    is_ample,
    is_cartier,
    is_nef,
    nef_cone_hrep,
)
from tfm.fan import (
    Fan,
    SupportFunctionSpec,
    Wall,
    build_split_bundle,
    check_support_function,
    enumerate_walls,
    is_projective,
    p1_degree_specs,
    projective_space,
)
from tfm.foliation import FoliatedPair, FoliationSubspace, is_log_canonical
from tfm.lattice import (
    det,
    dot,
    identity,
    integer_kernel,
    integer_solve,
    is_zero,
    mat_vec,
    primitivize,
    quotient_map,
    rational_rank,
    row_basis,
    solve_linear,
    subspaces_equal,
    vec_add,
    vec_sub,
)


class CurveClass(NamedTuple):
    """Numerical class of a wall curve.

    `vector` holds the pairings with the Q-Cartier basis divisors; on a
    Q-factorial fan that basis is the ray divisors, so the entries are
    the intersection numbers D_rho . V(wall).
    """

    wall: Wall
    vector: tuple


def wall_curve_class(f: Fan, wall: Wall) -> CurveClass:
    space = curve_class_space(f)
    walls = enumerate_walls(f)
    idx = walls.index(wall)
    return CurveClass(wall, space.wall_classes[idx])


@dataclass
class ExtremalRayData:
    generator: tuple                  # primitive integer class direction
    member_walls: tuple               # walls whose class lies on the ray
    member_wall_indices: tuple
    length: Optional[Fraction] = None
    contraction_kind: Optional[str] = None


def mori_cone(f: Fan):
    """Extremal rays of the cone spanned by all wall curve classes."""
    if "mori_cone" in f._cache:
        return f._cache["mori_cone"]
    if not is_projective(f):
        raise ValueError("Kleiman-Mori cone requires projectivity")
    space = curve_class_space(f)
    walls = enumerate_walls(f)
    classes = space.wall_classes
    extreme = polyhedra.extreme_generator_indices(classes, space.dim, nef_cone_hrep(f))
    rays = []
    for i in extreme:
        gen = primitivize(classes[i])
        members = tuple(
            wi
            for wi, cls in enumerate(classes)
            if primitivize(cls) == gen
        )
        rays.append(
            ExtremalRayData(
                generator=gen,
                member_walls=tuple(walls[wi] for wi in members),
                member_wall_indices=members,
            )
        )
    rays.sort(key=lambda r: r.generator)
    rays = tuple(rays)
    f._cache["mori_cone"] = rays
    return rays


def pair_with_ray_generator(f: Fan, d: TorusDivisor, ray: ExtremalRayData) -> Fraction:
    space = curve_class_space(f)
    coords = space.divisor_coordinates(d)
    return Fraction(dot(coords, ray.generator))


def ray_length(pair: FoliatedPair, ray: ExtremalRayData) -> Fraction:
    """min over the ray's wall curves of -(K_F+Delta) . V(tau)."""
    space = curve_class_space(pair.fan)
    values = [
        -space.pair(pair.k_plus_delta, wi) for wi in ray.member_wall_indices
    ]
    return min(values)


def supporting_divisor(f: Fan, ray: ExtremalRayData) -> TorusDivisor:
    """Nef Q-Cartier divisor vanishing exactly on the given extremal ray.

    The sum of the nef-cone generators (facet normals of the cached
    Mori cone H-representation) that vanish on the ray: the facets
    through an extremal ray of a pointed cone meet in that ray, so the
    sum is positive on every wall class off it.  At Picard rank one no
    facet passes through the ray and the zero divisor is returned.
    """
    space = curve_class_space(f)
    coords = (0,) * space.dim
    for facet in nef_cone_hrep(f).facets:
        if dot(facet, ray.generator) == 0:
            coords = vec_add(coords, facet)
    member = set(ray.member_wall_indices)
    for wi, cls in enumerate(space.wall_classes):
        if wi not in member and dot(coords, cls) <= 0:
            raise ValueError("no supporting divisor; ray is not extremal")
    return space.divisor_from_coordinates(coords)


class Contraction(NamedTuple):
    target: Fan
    projection: tuple     # rows of the lattice quotient map N -> N'
    kind: str             # "fiber" | "divisorial" | "small"
    supporting: TorusDivisor
    polytope: Polytope


def contraction(f: Fan, ray: ExtremalRayData) -> Contraction:
    """Contraction of an extremal ray, realized as the normal fan of the
    polytope of a supporting divisor inside the quotient lattice.

    Computed once per ray and fan: cached on the fan, keyed by the ray
    generator."""
    key = ("contraction", ray.generator)
    if key not in f._cache:
        f._cache[key] = _contract(f, ray)
    return f._cache[key]


def _contract(f: Fan, ray: ExtremalRayData) -> Contraction:
    d = supporting_divisor(f, ray)
    p = divisor_polytope(f, d)
    n = f.dim
    if not p.vertices:
        raise RuntimeError("supporting divisor has an empty polytope")
    pdim = p.dim()
    v0 = p.vertices[0]
    # integer rows spanning the polytope's directions: Smith normal form
    # needs integer input and stays small on a basis
    directions = [primitivize(vec_sub(v, v0)) for v in p.vertices[1:]]
    if directions:
        kernel = integer_kernel(row_basis(directions))
    else:
        kernel = [tuple(row) for row in identity(n)]
    proj = quotient_map(kernel, n)
    target = _normal_fan_in_quotient(f, p, proj, pdim)
    if pdim < n:
        kind = "fiber"
    elif len(target.rays) == len(f.rays) - 1:
        kind = "divisorial"
    elif len(target.rays) == len(f.rays):
        kind = "small"
    else:
        raise RuntimeError(
            "extremal contraction dropped %d rays"
            % (len(f.rays) - len(target.rays))
        )
    return Contraction(target, proj, kind, d, p)


def _normal_fan_in_quotient(f: Fan, p: Polytope, proj, pdim: int) -> Fan:
    if pdim == 0:
        return Fan(0, [], [()])
    ray_list: list = []
    ray_pos: dict = {}
    cones = set()
    for v in p.vertices:
        active = [
            i
            for i, (row, rhs) in enumerate(zip(p.ineq_rows, p.ineq_rhs))
            if dot(row, v) == rhs
        ]
        gens = []
        for i in active:
            img = mat_vec(proj, f.rays[i])
            if not is_zero(img):
                gens.append(img)
        extreme = polyhedra.extreme_generator_indices(gens, pdim)
        cone = []
        for gi in extreme:
            prim = primitivize(gens[gi])
            if prim not in ray_pos:
                ray_pos[prim] = len(ray_list)
                ray_list.append(prim)
            cone.append(ray_pos[prim])
        cones.add(tuple(sorted(set(cone))))
    # canonical ray order for deterministic output
    order = sorted(range(len(ray_list)), key=lambda i: ray_list[i])
    relabel = {old: new for new, old in enumerate(order)}
    rays = [ray_list[i] for i in order]
    new_cones = sorted(tuple(sorted(relabel[i] for i in cone)) for cone in cones)
    return Fan(pdim, rays, new_cones)


class BundleStructure(NamedTuple):
    """Split projective-bundle structure of a fiber-type contraction."""

    fiber_ray_indices: tuple    # indices into fan.rays; first one plays O
    fiber_rays: tuple           # the corresponding primitive vectors
    base_fan: Fan
    projection: tuple
    lift_functions: tuple       # one SupportFunctionSpec per summand h_i
    line_degrees: Optional[tuple]   # normalized degrees on a P^1 base
    line_bundle_coeffs: tuple   # divisor coefficients of each summand


class BundleDetectionFailure(NamedTuple):
    reason: str


def detect_pr_bundle(f: Fan, ray: ExtremalRayData):
    """Check the split-bundle structure of a fiber-type contraction.

    Succeeds iff exactly s+1 rays die in the quotient, they sum to zero
    with every s-subset a lattice basis of the kernel summand, and each
    base cone lifts linearly and integrally; s is the fiber dimension.
    """
    contr = contraction(f, ray)
    if contr.kind != "fiber":
        raise ValueError("bundle detection requires a fiber-type contraction")
    proj = contr.projection
    target = contr.target
    n = f.dim
    s = n - target.dim
    fiber_idx = [
        i for i, u in enumerate(f.rays) if is_zero(mat_vec(proj, u))
    ]
    if len(fiber_idx) != s + 1:
        return BundleDetectionFailure(
            "expected %d fiber rays, found %d" % (s + 1, len(fiber_idx))
        )
    total = f.rays[fiber_idx[0]]
    for i in fiber_idx[1:]:
        total = vec_add(total, f.rays[i])
    if not is_zero(total):
        return BundleDetectionFailure("fiber rays do not sum to zero")
    if proj:
        kernel_basis = integer_kernel(proj)
    else:
        kernel_basis = [tuple(row) for row in identity(n)]
    coords = []
    for i in fiber_idx:
        c = solve_linear(list(zip(*kernel_basis)), f.rays[i])
        assert c is not None
        coords.append(tuple(c))
    from itertools import combinations

    for subset in combinations(range(s + 1), s):
        sub = [[coords[i][j] for j in range(s)] for i in subset]
        if s and abs(det([[int(x) for x in row] for row in sub])) != 1:
            return BundleDetectionFailure(
                "a fiber ray subset is not a lattice basis of the kernel"
            )
    basis_rays = fiber_idx[1:]

    # section of the projection, for splitting off fiber components
    nprime = target.dim
    section_cols = []
    for i in range(nprime):
        e = tuple(1 if j == i else 0 for j in range(nprime))
        col = integer_solve(proj, e)
        assert col is not None
        section_cols.append(col)

    def fiber_component_coords(v):
        w = list(v)
        img = mat_vec(proj, v)
        for i in range(nprime):
            w = [x - img[i] * section_cols[i][k] for k, x in enumerate(w)]
        c = solve_linear(
            list(zip(*[f.rays[j] for j in basis_rays])) if s else [],
            w,
        )
        assert c is not None or not s
        return tuple(c) if s else ()

    groups: dict = {}
    fiber_set = set(fiber_idx)
    for ci, cone in enumerate(f.max_cones):
        in_fiber = sorted(set(cone) & fiber_set)
        lifted = tuple(sorted(set(cone) - fiber_set))
        if len(in_fiber) != s:
            return BundleDetectionFailure(
                "maximal cone %d holds %d fiber rays, expected %d"
                % (ci, len(in_fiber), s)
            )
        omitted = (fiber_set - set(in_fiber)).pop()
        groups.setdefault(lifted, []).append(omitted)
    if len(groups) != len(target.max_cones):
        return BundleDetectionFailure(
            "cone groups do not match the base fan's maximal cones"
        )
    target_cone_sets = {
        tuple(sorted(c)): k for k, c in enumerate(target.max_cones)
    }
    lift_values: list = [[None] * len(target.max_cones) for _ in range(s)]
    coeff_vectors = [[None] * len(target.rays) for _ in range(s)]
    for lifted, omitted in groups.items():
        if sorted(omitted) != sorted(fiber_idx):
            return BundleDetectionFailure(
                "a base cone misses some fiber-ray omission"
            )
        images = []
        for i in lifted:
            img = mat_vec(proj, f.rays[i])
            if is_zero(img) or primitivize(img) != tuple(img):
                return BundleDetectionFailure(
                    "lifted ray %d does not project to a primitive ray" % i
                )
            if tuple(img) not in target.rays:
                return BundleDetectionFailure(
                    "lifted ray %d projects outside the base ray set" % i
                )
            images.append(tuple(img))
        cone_key = tuple(sorted(target.rays.index(im) for im in images))
        if cone_key not in target_cone_sets:
            return BundleDetectionFailure(
                "lifted cone does not match a base maximal cone"
            )
        k = target_cone_sets[cone_key]
        rows = images
        comps = [fiber_component_coords(f.rays[i]) for i in lifted]
        for j in range(s):
            rhs = [c[j] for c in comps]
            h = solve_linear(rows, rhs) if rows else ()
            if h is None:
                return BundleDetectionFailure(
                    "no linear lift over a base cone"
                )
            if any(Fraction(x).denominator != 1 for x in h):
                return BundleDetectionFailure(
                    "lift over a base cone is not integral"
                )
            lift_values[j][k] = tuple(h)
            for i, im in zip(lifted, images):
                coeff_vectors[j][target.rays.index(im)] = Fraction(dot(h, im))
    specs = []
    for j in range(s):
        if any(v is None for v in lift_values[j]):
            return BundleDetectionFailure("a base cone carries no lift data")
        spec = SupportFunctionSpec(tuple(lift_values[j]))
        check_support_function(target, spec, integral=True)
        specs.append(spec)
    degrees: Optional[tuple] = None
    if target.dim == 1:
        ds = [0] + [
            int(sum(v for v in vec if v is not None)) for vec in coeff_vectors
        ]
        base = min(ds)
        degrees = tuple(sorted(d - base for d in ds)[1:])
    elif target.dim == 0:
        degrees = (0,) * s
    return BundleStructure(
        fiber_ray_indices=tuple(fiber_idx),
        fiber_rays=tuple(f.rays[i] for i in fiber_idx),
        base_fan=target,
        projection=proj,
        lift_functions=tuple(specs),
        line_degrees=degrees,
        line_bundle_coeffs=tuple(
            tuple(x if x is not None else Fraction(0) for x in vec)
            for vec in coeff_vectors
        ),
    )


class TangentCheck(NamedTuple):
    ok: bool
    reason: str


def relative_tangent_check(v: FoliationSubspace, b: BundleStructure) -> TangentCheck:
    """True iff V equals the rational span of the fiber rays."""
    span_rank = rational_rank(b.fiber_rays)
    if v.rank != span_rank:
        return TangentCheck(
            False,
            "rank mismatch: foliation has rank %d, fiber span %d"
            % (v.rank, span_rank),
        )
    if subspaces_equal(v.basis, b.fiber_rays):
        return TangentCheck(True, "foliation equals the relative tangent space")
    return TangentCheck(False, "span mismatch at equal rank")


@dataclass
class RayAssessment:
    ray: ExtremalRayData
    length: Fraction
    bound_ok: bool
    needs_bundle: bool
    bundle: Optional[BundleStructure] = None
    bundle_failure: Optional[str] = None
    tangent_ok: Optional[bool] = None
    delta_sum_ok: Optional[bool] = None
    kind: Optional[str] = None


@dataclass
class ConeTheoremReport:
    rays: tuple
    ok: bool
    note: str = (
        "lengths taken over torus-invariant wall curves in each ray"
    )


def check_cone_theorem(pair: FoliatedPair) -> ConeTheoremReport:
    """Verify the length bound and the long-ray bundle dichotomy on
    every extremal ray of the pair's fan."""
    f = pair.fan
    lc = is_log_canonical(pair)
    if not lc.ok:
        raise ValueError("cone theorem check needs a log canonical pair: " + lc.reason)
    r = pair.rank
    out = []
    all_ok = True
    for ray in mori_cone(f):
        length = ray_length(pair, ray)
        entry = RayAssessment(
            ray=ray,
            length=length,
            bound_ok=length <= r + 1,
            needs_bundle=length > r,
        )
        contr = contraction(f, ray)
        entry.kind = contr.kind
        if entry.needs_bundle:
            if contr.kind != "fiber":
                entry.bundle_failure = "long ray contracts with kind " + contr.kind
            else:
                result = detect_pr_bundle(f, ray)
                if isinstance(result, BundleDetectionFailure):
                    entry.bundle_failure = result.reason
                else:
                    fiber_dim = f.dim - result.base_fan.dim
                    if fiber_dim != r:
                        entry.bundle_failure = (
                            "fiber dimension %d differs from rank %d"
                            % (fiber_dim, r)
                        )
                    else:
                        entry.bundle = result
                        entry.tangent_ok = relative_tangent_check(
                            pair.subspace, result
                        ).ok
            entry.delta_sum_ok = sum(pair.delta.coeffs) < 1
            if not (
                entry.bundle is not None
                and entry.bundle_failure is None
                and entry.tangent_ok
                and entry.delta_sum_ok
            ):
                all_ok = False
        if not entry.bound_ok:
            all_ok = False
        out.append(entry)
    return ConeTheoremReport(rays=tuple(out), ok=all_ok)


@dataclass
class FujitaReport:
    rank: int
    freeness_nef: bool                  # K_F+Delta+(r+1)A nef
    improved_nef: bool                  # K_F+rA nef
    improved_exception: Optional[dict]  # certificate when improved_nef fails
    very_ample: Optional[bool]          # smooth only: K_F+(r+2)A ample
    improved_very_ample: Optional[bool] # smooth only: K_F+(r+1)A ample
    improved_very_ample_exception: Optional[dict]
    ok: bool


def _bundle_exception_certificate(
    pair: FoliatedPair, a: TorusDivisor, ray: ExtremalRayData
) -> Optional[dict]:
    """Certificate for the freeness exception: the ray contracts to a
    rank-matching projective bundle with F the relative tangent sheaf
    and A of degree one on the fiber lines."""
    f = pair.fan
    space = curve_class_space(f)
    contr = contraction(f, ray)
    if contr.kind != "fiber":
        return None
    result = detect_pr_bundle(f, ray)
    if isinstance(result, BundleDetectionFailure):
        return None
    if f.dim - result.base_fan.dim != pair.rank:
        return None
    tangent = relative_tangent_check(pair.subspace, result)
    if not tangent.ok:
        return None
    line_values = {
        space.pair(a, wi) for wi in ray.member_wall_indices
    }
    if line_values != {Fraction(1)}:
        return None
    return {
        "fiber_rays": result.fiber_ray_indices,
        "base_dim": result.base_fan.dim,
        "line_degree_of_A": 1,
        "delta_sum_lt_1": sum(pair.delta.coeffs) < 1,
    }


def fujita_report(pair: FoliatedPair, a: TorusDivisor) -> FujitaReport:
    """Freeness and very-ampleness checks for an ample Cartier divisor.

    (i)  K_F+Delta+(r+1)A is nef (freeness via the length bound);
    (ii) K_F+rA nef, otherwise a verified bundle exception;
    (iii) on smooth fans, ampleness of K_F+(r+2)A resp. K_F+(r+1)A
          (ample Cartier divisors on smooth complete toric varieties
          are very ample).
    """
    from tfm.fan import is_smooth

    f = pair.fan
    if not is_ample(f, a) or not is_cartier(f, a):
        raise ValueError("A must be an ample Cartier divisor")
    r = pair.rank
    kf = pair.k_foliation
    freeness_nef = is_nef(f, pair.k_plus_delta + (r + 1) * a)
    improved = kf + r * a
    improved_nef = is_nef(f, improved)
    improved_exc = None
    ok = freeness_nef
    if not improved_nef:
        cert = None
        for ray in mori_cone(f):
            if pair_with_ray_generator(f, improved, ray) < 0:
                cert = _bundle_exception_certificate(pair, a, ray)
                if cert is None:
                    break
        improved_exc = cert
        if cert is None:
            ok = False
    very_ample = None
    improved_va = None
    improved_va_exc = None
    if is_smooth(f):
        very_ample = is_ample(f, kf + (r + 2) * a)
        improved_va = is_ample(f, kf + (r + 1) * a)
        if not very_ample:
            ok = False
        if not improved_va:
            for ray in mori_cone(f):
                if pair_with_ray_generator(f, kf + (r + 1) * a, ray) <= 0:
                    improved_va_exc = _bundle_exception_certificate(pair, a, ray)
                    if improved_va_exc is None:
                        break
            if improved_va_exc is None:
                ok = False
    return FujitaReport(
        rank=r,
        freeness_nef=freeness_nef,
        improved_nef=improved_nef,
        improved_exception=improved_exc,
        very_ample=very_ample,
        improved_very_ample=improved_va,
        improved_very_ample_exception=improved_va_exc,
        ok=ok,
    )


@dataclass
class BundleDichotomyReport:
    degrees: tuple
    delta_coeffs: tuple
    zero_pairing_ray_exists: bool
    all_degrees_zero: bool
    consistent: bool
    pairings: tuple


def verify_split_bundle_over_p1(degrees: Sequence[int], delta_coeffs: Sequence) -> BundleDichotomyReport:
    """Dichotomy for split bundles over the projective line: an extremal
    ray pairing to zero with K_{X/Y}+Delta exists iff every summand
    degree vanishes (boundary coefficients all below one)."""
    degrees = tuple(int(d) for d in degrees)
    r = len(degrees)
    delta_coeffs = tuple(Fraction(c) for c in delta_coeffs)
    if len(delta_coeffs) != r + 1:
        raise ValueError("need one boundary coefficient per summand (r+1)")
    if any(c < 0 or c >= 1 for c in delta_coeffs):
        raise ValueError("boundary coefficients must lie in [0, 1)")
    base = projective_space(1)
    f = build_split_bundle(base, p1_degree_specs(base, degrees))
    # fiber rays are listed first; D_{fiber ray i} is the horizontal
    # divisor of the i-th summand (summand 0 is the trivial one)
    nrays = len(f.rays)
    k_rel = TorusDivisor(
        tuple(-1 if i <= r else 0 for i in range(nrays))
    )
    delta = TorusDivisor(
        tuple(delta_coeffs[i] if i <= r else 0 for i in range(nrays))
    )
    d = k_rel + delta
    pairings = []
    zero_exists = False
    for ray in mori_cone(f):
        v = pair_with_ray_generator(f, d, ray)
        pairings.append(v)
        if v == 0:
            zero_exists = True
    all_zero = all(x == 0 for x in degrees)
    return BundleDichotomyReport(
        degrees=degrees,
        delta_coeffs=delta_coeffs,
        zero_pairing_ray_exists=zero_exists,
        all_degrees_zero=all_zero,
        consistent=zero_exists == all_zero,
        pairings=tuple(pairings),
    )
