"""Minimal model program for foliated pairs on Q-factorial projective
fans: divisorial contractions, flips by circuit exchange, and fiber-type
termination, with log canonicity re-verified after every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from tfm.divisor import TorusDivisor, curve_class_space, wall_relation
from tfm.fan import Fan, is_complete, is_projective, is_simplicial, validate_fan
from tfm.foliation import FoliatedPair, is_log_canonical
from tfm.lattice import dot, primitivize
from tfm.moricone import (
    BundleDetectionFailure,
    ExtremalRayData,
    contraction,
    detect_pr_bundle,
    mori_cone,
    pair_with_ray_generator,
    ray_length,
)


@dataclass
class MMPStep:
    ray_generator: tuple
    length: Fraction
    kind: str                      # "divisorial" | "flip" | "fiber"
    rays_before: int
    rays_after: int
    pair_after: Optional[FoliatedPair]
    bundle_certificate: Optional[object] = None


@dataclass
class MMPTrace:
    steps: tuple
    terminal: str                  # "minimal_model" | "mori_fiber_space"
    note: str = "foliation subspace kept literally fixed across steps"


def _check_preconditions(pair: FoliatedPair) -> None:
    f = pair.fan
    if not is_simplicial(f):
        raise ValueError("MMP needs a Q-factorial (simplicial) fan")
    if not is_complete(f):
        raise ValueError("MMP needs a complete fan")
    if not is_projective(f):
        raise ValueError("MMP needs a projective fan")
    lc = is_log_canonical(pair)
    if not lc.ok:
        raise ValueError("MMP needs a log canonical pair: " + lc.reason)


def _negative_ray(pair: FoliatedPair) -> Optional[ExtremalRayData]:
    f = pair.fan
    negative = [
        ray
        for ray in mori_cone(f)
        if pair_with_ray_generator(f, pair.k_plus_delta, ray) < 0
    ]
    if not negative:
        return None
    return min(negative, key=lambda r: r.generator)


def mmp_step(pair: FoliatedPair):
    """One step of the program; returns (status, step or None).

    status "minimal_model" when no negative ray remains, "stepped" after
    a divisorial contraction or flip, and "mori_fiber_space" at a
    fiber-type contraction.
    """
    _check_preconditions(pair)
    ray = _negative_ray(pair)
    if ray is None:
        return "minimal_model", None
    f = pair.fan
    length = ray_length(pair, ray)
    contr = contraction(f, ray)
    if contr.kind == "fiber":
        bundle = detect_pr_bundle(f, ray)
        cert = None if isinstance(bundle, BundleDetectionFailure) else bundle
        step = MMPStep(
            ray_generator=ray.generator,
            length=length,
            kind="fiber",
            rays_before=len(f.rays),
            rays_after=len(contr.target.rays),
            pair_after=None,
            bundle_certificate=cert,
        )
        return "mori_fiber_space", step
    if contr.kind == "divisorial":
        new_pair = _transport_divisorial(pair, contr.target)
        step = MMPStep(
            ray_generator=ray.generator,
            length=length,
            kind="divisorial",
            rays_before=len(f.rays),
            rays_after=len(contr.target.rays),
            pair_after=new_pair,
        )
        return "stepped", step
    new_fan = _flip_fan(f, ray)
    new_pair = FoliatedPair(
        new_fan,
        pair.subspace,
        TorusDivisor(pair.delta.coeffs),
    )
    _check_flip(pair, new_pair, ray)
    step = MMPStep(
        ray_generator=ray.generator,
        length=length,
        kind="flip",
        rays_before=len(f.rays),
        rays_after=len(new_fan.rays),
        pair_after=new_pair,
    )
    return "stepped", step


def _transport_divisorial(pair: FoliatedPair, target: Fan) -> FoliatedPair:
    f = pair.fan
    if not is_simplicial(target):
        raise RuntimeError("divisorial contraction left a non-simplicial fan")
    kept = []
    for ray in target.rays:
        kept.append(f.rays.index(ray))
    assert len(kept) == len(f.rays) - 1
    delta = TorusDivisor(tuple(pair.delta.coeffs[i] for i in kept))
    return FoliatedPair(target, pair.subspace, delta)


def _flip_fan(f: Fan, ray: ExtremalRayData) -> Fan:
    """Bistellar exchange along the circuit of the contracted wall:
    cones triangulated over the negative part of the wall relation are
    reassembled over the positive part."""
    rel = wall_relation(f, ray.member_walls[0])
    neg = tuple(sorted(i for i, b in enumerate(rel) if b < 0))
    pos = tuple(sorted(i for i, b in enumerate(rel) if b > 0))
    if not neg:
        raise RuntimeError("flip requested on a ray with no negative circuit part")
    star = [c for c in f.max_cones if set(neg) <= set(c)]
    if not star:
        raise RuntimeError("flipping circuit has an empty star")
    links = set()
    for cone in star:
        rest = set(cone) - set(neg) - set(pos)
        omitted = set(pos) - set(cone)
        if len(omitted) != 1:
            raise RuntimeError("flipping star is not a circuit triangulation")
        links.add(tuple(sorted(rest)))
    expected = set()
    for link in links:
        for j in pos:
            expected.add(tuple(sorted(set(neg) | (set(pos) - {j}) | set(link))))
    if expected != set(map(tuple, star)):
        raise RuntimeError("flipping star does not match the circuit pattern")
    new_cones = [c for c in f.max_cones if c not in star]
    for link in links:
        for i in neg:
            new_cones.append(
                tuple(sorted((set(neg) - {i}) | set(pos) | set(link)))
            )
    return Fan(f.dim, f.rays, new_cones)


def _check_flip(pair: FoliatedPair, new_pair: FoliatedPair, ray: ExtremalRayData) -> None:
    old_fan, new_fan = pair.fan, new_pair.fan
    if new_fan.rays != old_fan.rays:
        raise RuntimeError("flip changed the ray set")
    report = validate_fan(new_fan)
    if not report.ok:
        raise RuntimeError("flip output invalid: %s" % (report.violations,))
    if not (is_complete(new_fan) and is_simplicial(new_fan) and is_projective(new_fan)):
        raise RuntimeError("flip output lost completeness/Q-factoriality/projectivity")
    if len(new_fan.max_cones) == len(old_fan.max_cones) and sorted(
        new_fan.max_cones
    ) == sorted(old_fan.max_cones):
        raise RuntimeError("flip did not change the fan")
    # the flipped circuit must now pair positively with K_F+Delta
    space = curve_class_space(new_fan)
    old_space = curve_class_space(old_fan)
    old_cls = old_space.wall_classes[ray.member_wall_indices[0]]
    flipped = tuple(-x for x in old_cls)
    found = None
    for cls in space.wall_classes:
        if _proportional(cls, flipped):
            found = cls
            break
    if found is None:
        raise RuntimeError("flipped curve class missing from the new fan")
    coords = space.divisor_coordinates(new_pair.k_plus_delta)
    if dot(coords, found) <= 0:
        raise RuntimeError("flipped circuit still pairs nonpositively")


def _proportional(a, b) -> bool:
    try:
        return primitivize(a) == primitivize(b)
    except ValueError:
        return False


def run_mmp(pair: FoliatedPair, max_steps: int = 20) -> MMPTrace:
    """Iterate mmp_step, re-asserting log canonicity after every step.

    Running out of `max_steps` raises ValueError: the cap is the
    caller's choice, not a failed certificate (those raise RuntimeError).
    """
    steps = []
    current = pair
    for _ in range(max_steps):
        status, step = mmp_step(current)
        if status == "minimal_model":
            return MMPTrace(tuple(steps), "minimal_model")
        assert step is not None
        steps.append(step)
        if status == "mori_fiber_space":
            return MMPTrace(tuple(steps), "mori_fiber_space")
        current = step.pair_after
        lc = is_log_canonical(current)
        if not lc.ok:
            raise RuntimeError(
                "log canonicity lost after a step: " + lc.reason
            )
        if step.kind == "divisorial" and step.rays_after != step.rays_before - 1:
            raise RuntimeError("divisorial step did not drop exactly one ray")
    raise ValueError(
        "MMP did not terminate within %d steps (partial trace: %d steps)"
        % (max_steps, len(steps))
    )
