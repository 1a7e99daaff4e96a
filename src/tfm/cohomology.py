"""Combinatorial sheaf cohomology of torus-invariant Weil divisors.

For each lattice weight m the rays violating <m, u_rho> >= -a_rho cut
out an induced subcomplex of the fan's boundary complex; the weight
contributes the reduced rational cohomology of that subcomplex, one
degree down.  The scan runs over a finite box of weights and groups
weights by violation bitmask, so each distinct subcomplex is measured
once (the hot loop lives in tfm.kernel).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Optional

from tfm import kernel
from tfm.divisor import (
    TorusDivisor,
    divisor_polytope,
    is_ample,
    lattice_points,
    is_qcartier,
    pullback,
    qcartier_data,
    toric_canonical,
)
from tfm.fan import Fan, is_complete, is_simplicial, is_smooth, qfactorialize
from tfm.foliation import FoliatedPair, is_log_canonical, klt_perturbation

DEFAULT_CELL_CAP = 10**7


def _cell_cap() -> int:
    env = os.environ.get("TFM_MAX_CELLS")
    return int(env) if env else DEFAULT_CELL_CAP


@dataclass
class DegreeSupportComplex:
    """Induced subcomplex of fan cones whose rays all violate the
    divisor inequality at some weight."""

    violating_rays: tuple
    facets: tuple

    def reduced_betti(self, top_dim: int):
        return _reduced_betti(self.facets, top_dim)


def degree_support_complex(f: Fan, d: TorusDivisor, m) -> DegreeSupportComplex:
    mask = tuple(
        i
        for i, (u, a) in enumerate(zip(f.rays, d.coeffs))
        if Fraction(sum(x * y for x, y in zip(m, u))) < -a
    )
    return DegreeSupportComplex(mask, _induced_facets(f, frozenset(mask)))


def _induced_facets(f: Fan, rays: frozenset):
    facets: set = set()
    for cone in f.max_cones:
        inter = tuple(sorted(set(cone) & rays))
        facets.add(inter)
    # drop faces of other faces
    out = [
        fa
        for fa in facets
        if not any(fa != fb and set(fa) <= set(fb) for fb in facets)
    ]
    return tuple(sorted(out))


def _reduced_betti(facets, top_dim: int):
    """Reduced rational Betti numbers b~_{-1}, b~_0, ..., b~_{top_dim-1}
    of the simplicial complex generated by the facets."""
    from itertools import combinations

    faces_by_dim: dict = {}
    for facet in facets:
        for size in range(1, len(facet) + 1):
            for face in combinations(facet, size):
                faces_by_dim.setdefault(size - 1, set()).add(face)
    betti = [0] * (top_dim + 1)  # index i holds b~_{i-1}
    if not faces_by_dim:
        betti[0] = 1  # empty complex: reduced H_(-1) is one-dimensional
        return betti
    max_dim = max(faces_by_dim)
    ordered = {
        k: sorted(faces_by_dim.get(k, ())) for k in range(max_dim + 1)
    }
    ranks = {}
    for k in range(max_dim + 1):
        if k == 0:
            # augmentation: every vertex maps to the empty simplex
            ranks[0] = 1 if ordered[0] else 0
            continue
        lower = {face: i for i, face in enumerate(ordered[k - 1])}
        rows = []
        for face in ordered[k]:
            row = [0] * len(lower)
            for drop in range(len(face)):
                sub = face[:drop] + face[drop + 1 :]
                row[lower[sub]] = (-1) ** drop
            rows.append(row)
        ranks[k] = kernel.bareiss_rank(rows) if rows else 0
    for k in range(max_dim + 1):
        nk = len(ordered[k])
        rk = ranks.get(k, 0)
        rk1 = ranks.get(k + 1, 0)
        bk = nk - rk - rk1
        if k + 1 <= top_dim:
            betti[k + 1] = bk
    # reduced H_(-1) vanishes as soon as there is a vertex
    betti[0] = 0
    return betti


@dataclass
class CohomologyReport:
    h: tuple
    box: int
    contributions: tuple  # (mask ray tuple, weight count, betti) triples

    def euler_characteristic(self) -> int:
        chi = 0
        sign = 1
        for x in self.h:
            chi += sign * x
            sign = -sign
        return chi


def default_box(f: Fan, d: TorusDivisor) -> int:
    max_a = max((abs(c) for c in d.coeffs), default=Fraction(0))
    max_coord = max(
        (abs(x) for r in f.rays for x in r), default=1
    )
    return f.dim * (1 + ceil(max_a)) * max_coord + 1


def weil_cohomology(
    f: Fan, d: TorusDivisor, box: Optional[int] = None
) -> CohomologyReport:
    """Dimensions of the cohomology of O(D) for a Weil divisor D on a
    complete simplicial fan, by exact weight scan."""
    if not is_complete(f):
        raise ValueError("cohomology scan requires a complete fan")
    if not is_simplicial(f):
        if not is_qcartier(f, d):
            raise ValueError(
                "non-simplicial fan and non-Q-Cartier divisor; cannot reduce"
            )
        qf = qfactorialize(f)
        pulled = pullback(f, qf.fan, qcartier_data(f, d))
        return weil_cohomology(qf.fan, pulled, box)
    if box is None:
        box = default_box(f, d)
    n = f.dim
    nums = []
    dens = []
    for c in d.coeffs:
        c = Fraction(c)
        nums.append(c.numerator)
        dens.append(c.denominator)
    rays_flat = [x for r in f.rays for x in r]
    counts = kernel.scan_weight_masks(rays_flat, n, nums, dens, box, _cell_cap())
    h = [0] * (n + 1)
    contributions = []
    for mask in sorted(counts):
        rays = frozenset(i for i in range(len(f.rays)) if mask >> i & 1)
        facets = _induced_facets(f, rays)
        betti = _reduced_betti(facets, n)
        if any(betti):
            count = counts[mask]
            for i in range(n + 1):
                h[i] += betti[i] * count
            contributions.append((tuple(sorted(rays)), count, tuple(betti)))
    return CohomologyReport(tuple(h), box, tuple(contributions))


@dataclass
class KodairaReport:
    hypothesis_ok: bool
    hypothesis_reason: str
    perturbation: Optional[TorusDivisor]
    cohomology: Optional[CohomologyReport]
    vanishing_ok: Optional[bool]


def kodaira_check(pair: FoliatedPair, l: TorusDivisor, box: Optional[int] = None) -> KodairaReport:
    """Vanishing of higher cohomology of O(L) when L-(K_F+Delta) is
    ample; the klt perturbation certificate mirrors the reduction to the
    classical toric vanishing statement."""
    f = pair.fan
    lc = is_log_canonical(pair)
    if not lc.ok:
        return KodairaReport(False, "pair is not log canonical: " + lc.reason, None, None, None)
    if not l.is_integral():
        raise ValueError("L must be a Weil divisor (integer coefficients)")
    if not is_qcartier(f, l):
        return KodairaReport(False, "L is not Q-Cartier", None, None, None)
    ample_part = l - pair.k_plus_delta
    if not is_ample(f, ample_part):
        return KodairaReport(
            False, "hypothesis not satisfied: L-(K_F+Delta) is not ample", None, None, None
        )
    perturbation = klt_perturbation(pair, l)
    report = weil_cohomology(f, l, box)
    vanishing = all(x == 0 for x in report.h[1:])
    return KodairaReport(True, "L-(K_F+Delta) ample", perturbation, report, vanishing)


def nonzero_weight_contributions(f: Fan, d: TorusDivisor, box: Optional[int] = None):
    """Per-weight contributions (weight, betti) for small scans; the
    main engine only keeps them grouped by violation pattern."""
    if not is_complete(f) or not is_simplicial(f):
        raise ValueError("per-weight listing runs on complete simplicial fans")
    if box is None:
        box = default_box(f, d)
    n = f.dim
    if (2 * box + 1) ** n > 10**5:
        raise ValueError("per-weight listing is for small boxes only")
    out = []

    def walk(prefix):
        if len(prefix) == n:
            complex_ = degree_support_complex(f, d, tuple(prefix))
            betti = complex_.reduced_betti(n)
            if any(betti):
                out.append((tuple(prefix), tuple(betti)))
            return
        for v in range(-box, box + 1):
            walk(prefix + [v])

    walk([])
    return out


def serre_duality_check(f: Fan, l: TorusDivisor, box: Optional[int] = None) -> bool:
    """h^i(L) = h^(n-i)(K_X - L) for Cartier L on a smooth complete fan."""
    if not is_smooth(f):
        raise ValueError("Serre duality oracle runs on smooth fans only")
    left = weil_cohomology(f, l, box)
    right = weil_cohomology(f, toric_canonical(f) - l, box)
    return left.h == tuple(reversed(right.h))


def h0_lattice_count(f: Fan, d: TorusDivisor) -> int:
    """Independent h^0 oracle: lattice points of the section polytope."""
    return len(lattice_points(divisor_polytope(f, d)))
