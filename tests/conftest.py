import pytest
from hypothesis import settings

from tfm.fan import Fan, projective_space, product

# Every property test draws the same examples on every run, so a tier-1
# failure reproduces; each test keeps its own max_examples.
settings.register_profile("tfm", derandomize=True)
settings.load_profile("tfm")


@pytest.fixture
def p1():
    return projective_space(1)


@pytest.fixture
def p2():
    return projective_space(2)


@pytest.fixture
def p3():
    return projective_space(3)


@pytest.fixture
def hirzebruch1():
    """P(O+O(1)) over P^1: rays (1,0),(1,1),(0,1),(-1,-1), cones in a cycle."""
    return Fan(2, [(1, 0), (1, 1), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)])


@pytest.fixture
def p1xp1():
    return product(projective_space(1), projective_space(1))


@pytest.fixture
def p112():
    """Weighted projective plane P(1,1,2)."""
    return Fan(2, [(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (2, 0)])


def make_cube_fan():
    rays = [(x, y, z) for x in (1, -1) for y in (1, -1) for z in (1, -1)]
    cones = []
    for axis in range(3):
        for sgn in (1, -1):
            cones.append(tuple(i for i, r in enumerate(rays) if r[axis] == sgn))
    return Fan(3, rays, cones)


@pytest.fixture
def cube_fan():
    """Face fan of the 3-cube: complete, non-simplicial, projective."""
    return make_cube_fan()


@pytest.fixture
def nonprojective_fan():
    """Complete simplicial non-projective 3-fold: cube triangulated with
    a twisted diagonal pattern."""
    rays = [(x, y, z) for x in (1, -1) for y in (1, -1) for z in (1, -1)]
    cones = [
        (3, 2, 0), (3, 0, 1), (7, 6, 4), (7, 4, 5), (5, 4, 0), (5, 0, 1),
        (6, 2, 3), (7, 6, 3), (4, 0, 2), (6, 4, 2), (7, 5, 1), (7, 1, 3),
    ]
    return Fan(3, rays, cones)


@pytest.fixture
def quadric_cone_resolution():
    """Small resolution of the projective cone over a quadric surface;
    its diagonal wall is a flipping ray for suitable foliations."""
    rays = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (0, 0, -1)]
    cones = [(0, 1, 2), (0, 2, 3), (0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)]
    return Fan(3, rays, cones)
