import random

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from test_lattice import reference_rank
from tfm import kernel, lattice


def reference_scan(rays, nums, dens, box):
    """Naive per-weight re-scan (test oracle for the line-sweep kernel)."""
    n = len(rays[0]) if rays else 0
    counts = {}

    def walk(prefix):
        if len(prefix) == n:
            mask = 0
            for r, u in enumerate(rays):
                if dens[r] * lattice.dot(prefix, u) + nums[r] < 0:
                    mask |= 1 << r
            counts[mask] = counts.get(mask, 0) + 1
            return
        for v in range(-box, box + 1):
            walk(prefix + [v])

    walk([])
    return counts


def flat(rays):
    return [x for u in rays for x in u]


def test_scan_small_known():
    # P^1 with O(-2): rays +1/-1, coefficients (-2, 0); only m=1 violates both
    rays = [(1,), (-1,)]
    nums = [-2, 0]
    dens = [1, 1]
    got = kernel.scan_weight_masks(flat(rays), 1, nums, dens, 3, 10**7)
    assert got == reference_scan(rays, nums, dens, 3)
    assert got[0b11] == 1


def test_scan_matches_reference_randomized():
    rng = random.Random(20240817)
    for _ in range(25):
        n = rng.randint(1, 3)
        nrays = rng.randint(1, 6)
        rays = [
            tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(nrays)
        ]
        nums = [rng.randint(-4, 4) for _ in range(nrays)]
        dens = [rng.randint(1, 3) for _ in range(nrays)]
        box = rng.randint(0, 3)
        got = kernel.scan_weight_masks(flat(rays), n, nums, dens, box, 10**7)
        assert got == reference_scan(rays, nums, dens, box)


@seed(20240817)
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_scan_matches_reference_property(data):
    n = data.draw(st.integers(0, 3))
    nrays = data.draw(st.integers(1, 6))
    coord = st.integers(-5, 5)
    rays = [tuple(data.draw(coord) for _ in range(n)) for _ in range(nrays)]
    coeff = st.integers(-20, 20) | st.integers(-(10**20), 10**20)
    nums = [data.draw(coeff) for _ in range(nrays)]
    dens = [data.draw(st.integers(1, 5)) for _ in range(nrays)]
    box = data.draw(st.integers(0, 3))
    got = kernel.scan_weight_masks(flat(rays), n, nums, dens, box, 10**7)
    assert got == reference_scan(rays, nums, dens, box)
    assert all(count > 0 for count in got.values())


def test_scan_zero_dimensional():
    # n = 0: the box holds the single empty weight; ray r violates iff a_r < 0
    rays = [(), (), ()]
    nums, dens = [-1, 2, -3], [1, 1, 2]
    got = kernel.scan_weight_masks([], 0, nums, dens, 3, 10**7)
    assert got == {0b101: 1} == reference_scan(rays, nums, dens, 3)


def test_scan_box_zero():
    rays = [(1, 2), (-1, 0), (0, -3)]
    nums, dens = [-1, 1, 0], [1, 1, 1]
    got = kernel.scan_weight_masks(flat(rays), 2, nums, dens, 0, 10**7)
    assert got == {0b001: 1} == reference_scan(rays, nums, dens, 0)


def test_scan_last_coordinate_zero():
    # (1, 0) violates on whole lines (m_1 < 1) and nowhere on the others
    rays = [(1, 0)]
    got = kernel.scan_weight_masks(flat(rays), 2, [-1], [1], 2, 10**7)
    assert got == {1: 15, 0: 10} == reference_scan(rays, [-1], [1], 2)


def test_scan_negative_last_coordinate():
    # -2t + 3 < 0 iff t >= 2
    rays = [(-2,)]
    got = kernel.scan_weight_masks(flat(rays), 1, [3], [1], 3, 10**7)
    assert got == {1: 2, 0: 5} == reference_scan(rays, [3], [1], 3)


def test_scan_boundary_weight_is_not_a_violation():
    # a = -4/2 on u = (1,) and a = 6/3 on u = (-1,): both thresholds sit
    # exactly on t = 2, where <m, u> = -a holds and neither ray violates
    rays = [(1,), (-1,)]
    nums, dens = [-4, 6], [2, 3]
    got = kernel.scan_weight_masks(flat(rays), 1, nums, dens, 3, 10**7)
    assert got == {0b01: 5, 0b00: 1, 0b10: 1} == reference_scan(rays, nums, dens, 3)
    rays2 = [(1, 1), (2, -1), (0, 2)]
    nums2, dens2 = [-4, 6, -2], [2, 3, 2]
    got2 = kernel.scan_weight_masks(flat(rays2), 2, nums2, dens2, 3, 10**7)
    assert got2 == reference_scan(rays2, nums2, dens2, 3)


def test_scan_bignum_coefficients():
    # coefficients far beyond machine words: the scan stays exact
    rays = [(1, 0), (0, 1)]
    nums = [-(10**40), 10**39]
    dens = [1, 10**30]
    box = 2
    expected = reference_scan(rays, nums, dens, box)
    assert kernel.scan_weight_masks(flat(rays), 2, nums, dens, box, 10**7) == expected


def test_scan_limit_guard():
    import pytest

    with pytest.raises(ValueError, match="cell cap"):
        kernel.scan_weight_masks([1], 1, [0], [1], 10**8, 10**7)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_bareiss_rank_matches_reference(nr, nc, data):
    rows = [
        [data.draw(st.integers(-9, 9)) for _ in range(nc)] for _ in range(nr)
    ]
    assert kernel.bareiss_rank(rows) == reference_rank(rows)


def test_bareiss_rank_bigints():
    rows = [[10**30, 1], [10**30, 1], [0, 10**25]]
    assert kernel.bareiss_rank(rows) == reference_rank(rows) == 2
