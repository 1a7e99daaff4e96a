"""Exact integer kernels for the cohomology weight scan and boundary ranks.

Everything here is integer arithmetic, so arbitrarily large ray
coordinates and divisor coefficients give exact results.  Boundary ranks
come from the lattice layer's one elimination, `bareiss_echelon`.
"""

from __future__ import annotations

from tfm.lattice import bareiss_echelon

BACKEND = "python"


def bareiss_rank(rows) -> int:
    """Rank of an integer matrix: the pivots of its fraction-free echelon."""
    return len(bareiss_echelon(rows)[1])


def _line_offsets(q, head, box):
    """Yield, for each prefix (m_1..m_k) in [-box, box]^k in odometer
    order, the list q_r + sum_j m_j * head[j][r]."""
    if not head:
        yield q
        return
    col = head[0]
    q = [a - box * c for a, c in zip(q, col)]
    for _ in range(2 * box + 1):
        yield from _line_offsets(q, head[1:], box)
        q = [a + c for a, c in zip(q, col)]


def scan_weight_masks(rays_flat, n, nums, dens, box, limit):
    """Count lattice weights in [-box, box]^n by violated-ray bitmask.

    rays_flat: ray coordinates concatenated, ray r at [r*n:(r+1)*n].
    nums/dens: divisor coefficients a_r as num/den with den > 0.
    Bit r of a mask is set when <m, u_r> < -a_r, i.e.
    den_r * dot(m, u_r) + num_r < 0.

    Returns {mask: count} with every count positive.  Raises ValueError
    when the box holds more than `limit` weights.

    Line sweep: with the first n-1 coordinates fixed, ray r violates on
    a half-line of the last coordinate t (everywhere or nowhere when
    u_{r,n} = 0).  Its threshold is an exact floor division, and the
    sorted thresholds cut the line into segments of constant mask.
    """
    nrays = len(nums)
    width = 2 * box + 1
    total = width ** n
    if total > limit:
        raise ValueError(
            "weight scan over %d cells exceeds the %d cell cap; "
            "use a smaller instance or raise TFM_MAX_CELLS" % (total, limit)
        )
    if n == 0:
        return {sum(1 << r for r in range(nrays) if nums[r] < 0): 1}
    # on a line, ray r violates iff q_r + slope_r * t < 0, where
    # q_r = num_r + den_r * <prefix, u_r[:n-1]> and slope_r = den_r * u_{r,n}
    head = [
        [d * rays_flat[r * n + k] for r, d in enumerate(dens)] for k in range(n - 1)
    ]
    slopes = [d * rays_flat[r * n + n - 1] for r, d in enumerate(dens)]
    bits = [1 << r for r in range(nrays)]
    counts: dict[int, int] = {}
    for q in _line_offsets(nums, head, box):
        mask = 0  # the mask as t -> -infinity
        events = []  # (t, bit): bit flips at t
        for qr, a, bit in zip(q, slopes, bits):
            if a > 0:  # violated for t < -qr/a, i.e. t < ceil(-qr/a)
                mask |= bit
                events.append((-(qr // a), bit))
            elif a < 0:  # violated for t > -qr/a, i.e. t >= floor(-qr/a) + 1
                events.append(((-qr) // a + 1, bit))
            elif qr < 0:
                mask |= bit
        events.sort()
        start = -box
        for t, bit in events:
            if t > start:
                if t > box:
                    break
                counts[mask] = counts.get(mask, 0) + t - start
                start = t
            mask ^= bit
        counts[mask] = counts.get(mask, 0) + box + 1 - start
    return counts
