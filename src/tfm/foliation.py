"""Toric foliations from rational subspaces of the cocharacter space.

A foliation is encoded by a rational subspace V: its canonical divisor
is minus the sum of the ray divisors lying inside V, invariant prime
divisors are exactly the rays outside V, and log canonicity reduces to
a support-and-coefficient check on the boundary divisor.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from tfm.divisor import (
    CartierData,
    TorusDivisor,
    divisor_wall_pairing,
    is_ample,
    is_qcartier,
    qcartier_data,
    toric_canonical,
)
from tfm.fan import Fan, enumerate_walls, star_subdivision
from tfm.lattice import (
    is_zero,
    primitive_vector,
    rational_rank,
    subspace_contains,
)


class FoliationSubspace:
    """Rational subspace V of N_Q; defined over Q so that all membership
    questions are exactly decidable."""

    def __init__(self, basis: Sequence):
        basis = [tuple(Fraction(x) for x in b) for b in basis]
        if not basis:
            raise ValueError("foliation subspace needs a nonzero rank")
        if rational_rank(basis) != len(basis):
            raise ValueError("foliation basis must be linearly independent")
        self.basis = tuple(basis)
        self.rank = len(basis)
        self.dim = len(basis[0])

    def __repr__(self):
        return "FoliationSubspace(rank=%d, dim=%d)" % (self.rank, self.dim)

    def contains(self, v) -> bool:
        return subspace_contains(self.basis, v)

    def ray_mask(self, f: Fan):
        """Indices of fan rays lying inside V.

        Cached on the fan, keyed by the basis (by value, never by id()),
        so the entry dies with the fan and the subspace keeps no state.
        """
        key = ("ray_mask", self.basis)
        if key not in f._cache:
            f._cache[key] = tuple(
                i for i, r in enumerate(f.rays) if self.contains(r)
            )
        return f._cache[key]


def full_space(n: int) -> FoliationSubspace:
    return FoliationSubspace([tuple(int(i == j) for j in range(n)) for i in range(n)])


def canonical_divisor(f: Fan, v: FoliationSubspace) -> TorusDivisor:
    """K of the foliation: -1 on rays inside V, 0 elsewhere."""
    if v.dim != f.dim:
        raise ValueError("subspace lives in a different lattice")
    inside = set(v.ray_mask(f))
    return TorusDivisor(tuple(-1 if i in inside else 0 for i in range(len(f.rays))))


def is_invariant_divisor(v: FoliationSubspace, ray) -> bool:
    """D_rho is foliation-invariant exactly when its ray leaves V."""
    return not v.contains(ray)


class FoliatedPair:
    """Foliation subspace plus an effective boundary divisor; the sum
    K + Delta must be Q-Cartier (checked at construction)."""

    def __init__(self, f: Fan, subspace: FoliationSubspace, delta: TorusDivisor):
        if len(delta.coeffs) != len(f.rays):
            raise ValueError("boundary coefficients misaligned with rays")
        if not delta.is_effective():
            raise ValueError("boundary divisor must be effective")
        self.fan = f
        self.subspace = subspace
        self.delta = delta
        self.k_foliation = canonical_divisor(f, subspace)
        self.k_plus_delta = self.k_foliation + delta
        data = qcartier_data(f, self.k_plus_delta)
        if data is None:
            raise ValueError("pair requires Q-Cartier K_F+Delta")
        self.cartier_data: CartierData = data
        self.rank = subspace.rank

    def __repr__(self):
        return "FoliatedPair(rank=%d, fan=%r)" % (self.rank, self.fan)

    def support_value(self, w) -> Fraction:
        """phi(w) for the support function of K_F+Delta."""
        ci = self.fan.containing_max_cone(w)
        if ci is None:
            raise ValueError("vector outside the fan's support")
        from tfm.lattice import dot

        return Fraction(dot(self.cartier_data.m[ci], w))


class LogCanonicalReport(NamedTuple):
    ok: bool
    reason: str


def is_log_canonical(pair: FoliatedPair) -> LogCanonicalReport:
    """Support of Delta inside Supp K_F and all coefficients <= 1."""
    inside = set(pair.subspace.ray_mask(pair.fan))
    for i, b in enumerate(pair.delta.coeffs):
        if b > 0 and i not in inside:
            return LogCanonicalReport(
                False, "coefficient on ray %d outside Supp K_F" % i
            )
        if b > 1:
            return LogCanonicalReport(False, "coefficient on ray %d exceeds 1" % i)
    return LogCanonicalReport(True, "support and coefficient bounds hold")


def discrepancy(pair: FoliatedPair, w: Sequence[int]):
    """Discrepancy and invariance marker of the exceptional divisor of
    the star subdivision at w: a = phi(w) - [w in V], iota = [w in V]."""
    w = tuple(int(x) for x in w)
    if is_zero(w) or primitive_vector(w) != w:
        raise ValueError("exceptional direction must be primitive")
    if w in pair.fan.rays:
        raise ValueError("direction is already a ray; nothing exceptional")
    iota = 1 if pair.subspace.contains(w) else 0
    a = pair.support_value(w) - iota
    return a, iota


def discrepancy_via_subdivision(pair: FoliatedPair, w: Sequence[int]) -> Fraction:
    """Same discrepancy, recomputed through an explicit star subdivision
    and pullback (consistency oracle for `discrepancy`)."""
    from tfm.divisor import pullback

    w = tuple(int(x) for x in w)
    refined = star_subdivision(pair.fan, w)
    pulled = pullback(pair.fan, refined, pair.cartier_data)
    w_index = refined.rays.index(w)
    new_subspace = pair.subspace
    k_new = canonical_divisor(refined, new_subspace)
    strict_delta = TorusDivisor(tuple(pair.delta.coeffs) + (0,))
    lhs = k_new + strict_delta
    return lhs.coeffs[w_index] - pulled.coeffs[w_index]


def klt_perturbation(pair: FoliatedPair, l: TorusDivisor) -> TorusDivisor:
    """Boundary (1-eps)(sum of invariant ray divisors + Delta) with the
    largest dyadic eps making L-(K_X+Delta') ample; mirrors the
    perturbation used to reduce the vanishing statement to the
    classical toric one."""
    f = pair.fan
    if not is_qcartier(f, l):
        raise ValueError("L must be Q-Cartier")
    hypothesis = l - pair.k_plus_delta
    if not is_qcartier(f, hypothesis) or not is_ample(f, hypothesis):
        raise ValueError("L-(K_F+Delta) must be ample")
    inside = set(pair.subspace.ray_mask(f))
    base = TorusDivisor(
        tuple(
            (0 if i in inside else 1) + pair.delta.coeffs[i]
            for i in range(len(f.rays))
        )
    )
    kx = toric_canonical(f)
    eps = Fraction(1)
    failing = None
    for _ in range(40):
        eps /= 2
        candidate = (1 - eps) * base
        target = l - (kx + candidate)
        if not is_qcartier(f, target):
            failing = "K_X+Delta' not Q-Cartier at eps=%s" % eps
            continue
        if is_ample(f, target):
            assert candidate.support() == base.support()
            assert all(c < 1 for c in candidate.coeffs)
            return candidate
        failing = _first_failing_wall(f, target)
    raise ValueError(
        "no dyadic eps within depth 40 makes L-(K_X+Delta') ample; last: %s"
        % failing
    )


def _first_failing_wall(f: Fan, d: TorusDivisor) -> str:
    for w in enumerate_walls(f):
        if divisor_wall_pairing(f, d, w) <= 0:
            return "wall %s pairs nonpositively" % (w.rays,)
    return "no failing wall"
