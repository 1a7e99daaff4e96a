import random
from fractions import Fraction

import pytest

from tfm.cohomology import (
    default_box,
    h0_lattice_count,
    kodaira_check,
    serre_duality_check,
    weil_cohomology,
)
from tfm.divisor import (
    TorusDivisor,
    is_ample,
    ray_divisor,
    toric_canonical,
    zero_divisor,
)
from tfm.fan import Fan
from tfm.foliation import FoliatedPair, FoliationSubspace, full_space


def test_p1_negative_degree(p1):
    report = weil_cohomology(p1, TorusDivisor((-2, 0)))
    assert report.h == (0, 1)
    # the single contribution is the two-point complex at one weight
    assert len(report.contributions) == 1
    assert report.contributions[0][1] == 1


def test_p2_positive(p2):
    report = weil_cohomology(p2, 2 * ray_divisor(p2, 2))
    assert report.h == (6, 0, 0)


def test_p2_canonical(p2):
    report = weil_cohomology(p2, toric_canonical(p2))
    assert report.h == (0, 0, 1)


def test_h0_oracle_all_p2_degrees(p2):
    for d in range(0, 6):
        div = d * ray_divisor(p2, 2)
        report = weil_cohomology(p2, div)
        assert report.h[0] == (d + 1) * (d + 2) // 2
        assert report.h[0] == h0_lattice_count(p2, div)
        assert report.h[1] == report.h[2] == 0


def test_h0_matches_polytope_even_for_non_nef(hirzebruch1):
    rng = random.Random(23)
    for _ in range(8):
        d = TorusDivisor(tuple(rng.randint(-2, 2) for _ in hirzebruch1.rays))
        report = weil_cohomology(hirzebruch1, d)
        assert report.h[0] == h0_lattice_count(hirzebruch1, d)


def test_euler_characteristic_nef(p2, p1xp1, hirzebruch1):
    rng = random.Random(29)
    from tests_helpers import ample_for

    for f in (p2, p1xp1, hirzebruch1):
        a = ample_for(f)
        scale = max(c.denominator for c in a.coeffs)
        d = scale * a
        d = TorusDivisor(tuple(int(c) for c in d.coeffs))
        report = weil_cohomology(f, d)
        assert report.euler_characteristic() == h0_lattice_count(f, d)


def test_weil_on_non_cartier_divisor(p112):
    # D_3 is Weil, Q-Cartier, not Cartier
    report = weil_cohomology(p112, ray_divisor(p112, 2))
    assert report.h == (2, 0, 0)


def test_cube_fan_reduces_by_qfactorialization(cube_fan):
    report = weil_cohomology(cube_fan, zero_divisor(cube_fan))
    assert report.h[0] == 1
    assert all(x == 0 for x in report.h[1:])
    with pytest.raises(ValueError, match="cannot reduce"):
        weil_cohomology(cube_fan, ray_divisor(cube_fan, 0))


def test_box_stability(p2, p112, hirzebruch1):
    rng = random.Random(31)
    for f in (p2, p112, hirzebruch1):
        for _ in range(3):
            d = TorusDivisor(tuple(rng.randint(-2, 2) for _ in f.rays))
            base = weil_cohomology(f, d)
            doubled = weil_cohomology(f, d, 2 * base.box)
            assert base.h == doubled.h


def test_box_guard(p2):
    with pytest.raises(ValueError, match="cell cap"):
        weil_cohomology(p2, zero_divisor(p2), box=10**6)


def test_serre_duality(p2, p1xp1):
    assert serre_duality_check(p2, 2 * ray_divisor(p2, 2))
    assert serre_duality_check(p1xp1, ray_divisor(p1xp1, 0))
    assert serre_duality_check(p2, zero_divisor(p2))


def test_serre_duality_rejects_nonsmooth(p112):
    with pytest.raises(ValueError, match="smooth"):
        serre_duality_check(p112, ray_divisor(p112, 2))


def test_kodaira_p2(p2):
    pair = FoliatedPair(p2, full_space(2), zero_divisor(p2))
    l = -2 * ray_divisor(p2, 0)
    report = kodaira_check(pair, l)
    assert report.hypothesis_ok
    assert report.perturbation is not None
    assert report.vanishing_ok
    assert report.cohomology.h[1] == report.cohomology.h[2] == 0


def test_kodaira_p112(p112):
    pair = FoliatedPair(p112, full_space(2), zero_divisor(p112))
    l = ray_divisor(p112, 2)
    report = kodaira_check(pair, l)
    assert report.hypothesis_ok
    assert report.vanishing_ok
    assert report.cohomology.h == (2, 0, 0)


def test_kodaira_hirzebruch_with_boundary(hirzebruch1):
    f = hirzebruch1
    v = FoliationSubspace([(1, 1)])
    pair = FoliatedPair(f, v, TorusDivisor((0, Fraction(1, 2), 0, 0)))
    from tests_helpers import ample_for

    amp = ample_for(f)
    # L integral with L-(K_F+Delta) ample: start above K_F+Delta and climb
    for t in range(1, 8):
        cand = pair.k_plus_delta + t * amp
        coeffs = tuple(c.__ceil__() for c in cand.coeffs)
        l = TorusDivisor(coeffs)
        if is_ample(f, l - pair.k_plus_delta):
            break
    else:
        pytest.fail("no integral L found")
    report = kodaira_check(pair, l)
    assert report.hypothesis_ok and report.vanishing_ok


def test_kodaira_hypothesis_failure(p2):
    pair = FoliatedPair(p2, full_space(2), zero_divisor(p2))
    report = kodaira_check(pair, 3 * toric_canonical(p2))
    assert not report.hypothesis_ok
    assert report.vanishing_ok is None


def test_default_box_formula(p2):
    d = 2 * ray_divisor(p2, 2)
    # n=2, max|a|=2, max coord 1: 2*(1+2)*1+1
    assert default_box(p2, d) == 7


def test_cell_cap_env_override(p2, monkeypatch):
    from tfm.divisor import zero_divisor as zd

    monkeypatch.setenv("TFM_MAX_CELLS", "100")
    with pytest.raises(ValueError, match="cell cap"):
        weil_cohomology(p2, zd(p2), box=10)
    monkeypatch.setenv("TFM_MAX_CELLS", "10000000")
    report = weil_cohomology(p2, zd(p2), box=10)
    assert report.h[0] == 1


def test_degree_support_complex(p2):
    from tfm.cohomology import degree_support_complex
    from tfm.divisor import toric_canonical as kx

    complex_at_zero = degree_support_complex(p2, kx(p2), (0, 0))
    # K_X at weight 0 violates every ray: full boundary circle
    assert complex_at_zero.violating_rays == (0, 1, 2)
    assert complex_at_zero.facets == ((0, 1), (0, 2), (1, 2))
    betti = complex_at_zero.reduced_betti(2)
    assert betti == [0, 0, 1]  # reduced H_1 of the circle


def test_nonzero_weight_contributions(p1, p2):
    from tfm.cohomology import nonzero_weight_contributions

    listing = nonzero_weight_contributions(p1, TorusDivisor((-2, 0)))
    # single contributing weight carrying the h^1 class
    assert len(listing) == 1
    assert listing[0][1] == (0, 1)

    listing = nonzero_weight_contributions(p2, toric_canonical(p2))
    assert len(listing) == 1 and listing[0][1] == (0, 0, 1)
    # totals agree with the grouped engine
    report = weil_cohomology(p2, toric_canonical(p2))
    total = [0, 0, 0]
    for _, betti in listing:
        for i, b in enumerate(betti):
            total[i] += b
    assert tuple(total) == report.h


def test_h0_lattice_count_rejects_unbounded_polytope():
    # D_1 + D_2 on the quadrant cone: {m >= (-1, -1)} has infinitely many
    # lattice points, so no finite count may be returned
    quadrant = Fan(2, [(1, 0), (0, 1)], [(0, 1)])
    with pytest.raises(RuntimeError, match="unbounded"):
        h0_lattice_count(quadrant, TorusDivisor((1, 1)))
