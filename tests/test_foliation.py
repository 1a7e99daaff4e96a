import gc
import random
from fractions import Fraction

import pytest

from tfm.divisor import (
    TorusDivisor,
    is_ample,
    ray_divisor,
    toric_canonical,
    zero_divisor,
)
from tfm.fan import Fan
from tfm.foliation import (
    FoliatedPair,
    FoliationSubspace,
    canonical_divisor,
    discrepancy,
    discrepancy_via_subdivision,
    full_space,
    is_invariant_divisor,
    is_log_canonical,
    klt_perturbation,
)
from tfm.lattice import primitive_vector, vec_add


def test_canonical_divisor_golden(hirzebruch1):
    v = FoliationSubspace([(1, 1)])
    w = FoliationSubspace([(1, 0)])
    assert canonical_divisor(hirzebruch1, v) == TorusDivisor((0, -1, 0, -1))
    assert canonical_divisor(hirzebruch1, w) == TorusDivisor((-1, 0, 0, 0))
    assert v.rank == w.rank == 1


def test_canonical_divisor_full_space(p2, p112, cube_fan):
    for f in (p2, p112, cube_fan):
        assert canonical_divisor(f, full_space(f.dim)) == toric_canonical(f)


def test_ray_mask_not_stale_after_fan_is_freed():
    # a fan built after another is freed may reuse its id(); the mask
    # must follow the rays, not the object
    v = FoliationSubspace([(1, 0)])
    rays = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    permuted = [rays[i] for i in (1, 0, 3, 2)]
    cones = [(0, 1), (1, 2), (2, 3), (3, 0)]
    for _ in range(300):
        a = Fan(2, rays, cones)
        assert v.ray_mask(a) == (0, 2)
        del a
        gc.collect()
        b = Fan(2, permuted, cones)
        assert v.ray_mask(b) == (1, 3)


def test_kf_identity(p2, hirzebruch1, p112):
    # K_F = K_X + sum of invariant ray divisors, always
    rng = random.Random(3)
    import _corpus

    for f in (p2, hirzebruch1, p112):
        for _ in range(4):
            sub = _corpus.random_subspace(rng, f)
            kf = canonical_divisor(f, sub)
            inside = set(sub.ray_mask(f))
            invariant = TorusDivisor(
                tuple(0 if i in inside else 1 for i in range(len(f.rays)))
            )
            assert kf == toric_canonical(f) + invariant


def test_is_invariant_divisor(hirzebruch1):
    v = FoliationSubspace([(1, 1)])
    assert not is_invariant_divisor(v, (1, 1))
    assert is_invariant_divisor(v, (1, 0))
    full = full_space(2)
    for ray in hirzebruch1.rays:
        assert not is_invariant_divisor(full, ray)


def test_log_canonical_golden(hirzebruch1):
    v = FoliationSubspace([(1, 1)])
    ok_pair = FoliatedPair(
        hirzebruch1, v, TorusDivisor((0, Fraction(1, 2), 0, 0))
    )
    assert is_log_canonical(ok_pair).ok

    bad_support = FoliatedPair(
        hirzebruch1, v, TorusDivisor((Fraction(1, 2), 0, 0, 0))
    )
    report = is_log_canonical(bad_support)
    assert not report.ok and "outside Supp" in report.reason

    bad_coeff = FoliatedPair(
        hirzebruch1, v, TorusDivisor((0, Fraction(3, 2), 0, 0))
    )
    report = is_log_canonical(bad_coeff)
    assert not report.ok and "exceeds 1" in report.reason


def test_pair_requires_qcartier(cube_fan):
    # K_F = -D_rho for a single ray is not Q-Cartier on the cube fan
    v = FoliationSubspace([cube_fan.rays[0]])
    with pytest.raises(ValueError, match="Q-Cartier"):
        FoliatedPair(cube_fan, v, zero_divisor(cube_fan))


def test_discrepancy_examples(p2):
    full = full_space(2)
    pair = FoliatedPair(p2, full, zero_divisor(p2))
    # smooth surface point blow-up: a = 1 for K_X
    a, iota = discrepancy(pair, (1, 1))
    assert (a, iota) == (1, 1)

    pair2 = FoliatedPair(p2, full, TorusDivisor((1, 1, 0)))
    a, iota = discrepancy(pair2, (1, 1))
    assert (a, iota) == (-1, 1)

    v = FoliationSubspace([(1, 0)])
    pair3 = FoliatedPair(p2, v, zero_divisor(p2))
    a, iota = discrepancy(pair3, (1, 1))
    assert iota == 0
    # phi of -D_1 at (1,1): m solves <m,e1> = 1, <m,e2> = 0 on cone(e1,e2)
    assert a == 1


def test_discrepancy_matches_subdivision_route(p2, hirzebruch1):
    rng = random.Random(5)
    import _corpus

    for f in (p2, hirzebruch1):
        for _ in range(6):
            pair = _corpus.random_pair(rng, f)
            cone = f.max_cones[rng.randrange(len(f.max_cones))]
            w = primitive_vector(
                tuple(
                    sum(rng.randint(1, 2) * f.rays[i][k] for i in cone)
                    for k in range(f.dim)
                )
            )
            if w in f.rays:
                continue
            a, _ = discrepancy(pair, w)
            assert a == discrepancy_via_subdivision(pair, w)


def test_discrepancy_preconditions(p2):
    pair = FoliatedPair(p2, full_space(2), zero_divisor(p2))
    with pytest.raises(ValueError, match="primitive"):
        discrepancy(pair, (2, 2))
    with pytest.raises(ValueError, match="already a ray"):
        discrepancy(pair, (1, 0))
    with pytest.raises(ValueError, match="primitive"):
        discrepancy(pair, (0, 0))


def test_log_canonical_iff_discrepancy_bound(hirzebruch1):
    """Sampled form of the discrepancy criterion: lc pairs have
    a(E) >= -iota(E) at neighbor sums; a boundary coefficient above one
    on a ray inside V produces a witness below the bound."""
    f = hirzebruch1
    v = FoliationSubspace([(1, 1)])

    def witnesses(pair):
        out = []
        for wall in [(0, 1), (1, 2), (2, 3), (3, 0)]:
            w = primitive_vector(vec_add(f.rays[wall[0]], f.rays[wall[1]]))
            if w in f.rays:
                continue
            a, iota = discrepancy(pair, w)
            out.append((w, a, iota))
        return out

    lc_pair = FoliatedPair(f, v, TorusDivisor((0, 1, 0, 0)))
    assert is_log_canonical(lc_pair).ok
    assert all(a >= -iota for _, a, iota in witnesses(lc_pair))

    bad = FoliatedPair(f, v, TorusDivisor((0, Fraction(3, 2), 0, 0)))
    assert not is_log_canonical(bad).ok
    assert any(a < -iota for _, a, iota in witnesses(bad))


def test_klt_perturbation_trivial(p2):
    pair = FoliatedPair(p2, full_space(2), zero_divisor(p2))
    l = -2 * ray_divisor(p2, 0)
    # L - K_F has degree 1: ample
    result = klt_perturbation(pair, l)
    assert result == zero_divisor(p2)


def test_klt_perturbation_hirzebruch(hirzebruch1):
    f = hirzebruch1
    v = FoliationSubspace([(1, 1)])
    pair = FoliatedPair(f, v, zero_divisor(f))
    from tests_helpers import ample_for

    # choose L = K_F + (ample), scaled to integer coefficients
    amp = ample_for(f)
    scale = 1
    for c in (pair.k_foliation + amp).coeffs:
        scale = max(scale, c.denominator)
    l = scale * (pair.k_foliation + amp)
    result = klt_perturbation(pair, l)
    assert result.support() == (0, 2)  # (1-eps)(D_1 + D_3)
    assert all(c < 1 for c in result.coeffs)
    assert result.coeffs[0] == result.coeffs[2]
    assert is_ample(f, l - (toric_canonical(f) + result))


def test_klt_perturbation_hypothesis_failure(p2):
    pair = FoliatedPair(p2, full_space(2), zero_divisor(p2))
    with pytest.raises(ValueError, match="ample"):
        klt_perturbation(pair, 5 * toric_canonical(p2))
