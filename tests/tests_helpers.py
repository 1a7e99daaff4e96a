"""Small shared helpers for the test modules."""

from tfm import polyhedra
from tfm.divisor import TorusDivisor, curve_class_space
from tfm.lattice import dot


def ample_for(f) -> TorusDivisor:
    """Some ample divisor on a projective fan (rational coefficients)."""
    space = curve_class_space(f)
    sol = polyhedra.lp_feasible(
        space.dim, ineqs=[(cls, 1) for cls in space.wall_classes]
    )
    assert sol is not None, "fan is not projective"
    return space.divisor_from_coordinates(sol)


def assert_convexity_certificates(result):
    """Each Q-factorialization certificate is strictly convex across the
    internal walls of its input cone: adjacent pieces' functionals agree
    on the shared rays, and on every far ray the near piece's functional
    minus the far piece's is at least 1."""
    rays = result.fan.rays
    for ci, cert in result.certificates.items():
        pieces = [p for p, c in zip(result.fan.max_cones, result.cone_map) if c == ci]
        assert sorted(cert) == sorted(pieces)
        walls = 0
        for pa in pieces:
            for pb in pieces:
                shared = set(pa) & set(pb)
                if pa == pb or len(shared) != len(pa) - 1:
                    continue
                walls += 1
                for i in shared:
                    assert dot(cert[pa], rays[i]) == dot(cert[pb], rays[i])
                (far,) = set(pb) - shared
                assert dot(cert[pa], rays[far]) - dot(cert[pb], rays[far]) >= 1
        assert walls > 0
