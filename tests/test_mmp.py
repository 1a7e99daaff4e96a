import pytest

from tfm.divisor import TorusDivisor, zero_divisor
from tfm.fan import is_complete, is_projective, is_simplicial, validate_fan
from tfm.foliation import FoliatedPair, FoliationSubspace, full_space, is_log_canonical
from tfm.mmp import mmp_step, run_mmp


def _pair(f, basis, delta=None):
    return FoliatedPair(
        f,
        FoliationSubspace(basis),
        zero_divisor(f) if delta is None else TorusDivisor(delta),
    )


def test_step_hirzebruch_v(hirzebruch1):
    pair = _pair(hirzebruch1, [(1, 1)])
    status, step = mmp_step(pair)
    assert status == "mori_fiber_space"
    assert step.kind == "fiber"
    assert step.ray_generator == (0, 1, 0, 1)
    assert step.length == 2
    assert step.bundle_certificate is not None
    assert step.bundle_certificate.line_degrees == (1,)


def test_step_hirzebruch_w(hirzebruch1):
    pair = _pair(hirzebruch1, [(1, 0)])
    status, step = mmp_step(pair)
    assert status == "stepped"
    assert step.kind == "divisorial"
    assert step.ray_generator == (1, -1, 1, 0)
    assert step.rays_after == 3
    target = step.pair_after.fan
    assert sorted(target.rays) == [(-1, -1), (0, 1), (1, 0)]
    assert step.pair_after.subspace.basis == ((1, 0),)


def test_step_p2_fiber(p2):
    pair = _pair(p2, [(1, 0)])
    status, step = mmp_step(pair)
    assert status == "mori_fiber_space"
    assert step.kind == "fiber"


def test_run_mmp_traces(hirzebruch1, p1xp1):
    trace_v = run_mmp(_pair(hirzebruch1, [(1, 1)]))
    assert [s.kind for s in trace_v.steps] == ["fiber"]
    assert trace_v.terminal == "mori_fiber_space"

    trace_w = run_mmp(_pair(hirzebruch1, [(1, 0)]))
    assert [s.kind for s in trace_w.steps] == ["divisorial", "fiber"]
    assert trace_w.terminal == "mori_fiber_space"

    trace_p = run_mmp(_pair(p1xp1, [(1, 0)]))
    assert [s.kind for s in trace_p.steps] == ["fiber"]
    assert trace_p.terminal == "mori_fiber_space"


def test_run_mmp_minimal_model(hirzebruch1):
    # K_F + Delta nef: zero steps
    v = FoliationSubspace([(1, 1)])
    pair = FoliatedPair(hirzebruch1, v, TorusDivisor((0, 1, 0, 1)))
    # K_F+Delta = 0: nef
    trace = run_mmp(pair)
    assert trace.steps == ()
    assert trace.terminal == "minimal_model"


def test_flip(quadric_cone_resolution):
    f = quadric_cone_resolution
    pair = _pair(f, [(0, 1, 1)])
    status, step = mmp_step(pair)
    assert status == "stepped"
    assert step.kind == "flip"
    assert step.ray_generator == (-1, 1, -1, 1, 0)
    new_fan = step.pair_after.fan
    assert new_fan.rays == f.rays
    assert len(new_fan.max_cones) == len(f.max_cones)
    assert validate_fan(new_fan).ok
    assert is_complete(new_fan) and is_simplicial(new_fan) and is_projective(new_fan)
    # the two triangulations of the square cone differ
    assert sorted(new_fan.max_cones) != sorted(f.max_cones)
    assert (0, 1, 3) in new_fan.max_cones and (1, 2, 3) in new_fan.max_cones
    assert is_log_canonical(step.pair_after).ok

    trace = run_mmp(pair)
    assert [s.kind for s in trace.steps] == ["flip", "fiber"]
    assert trace.terminal == "mori_fiber_space"


def test_flip_picard_rank_preserved(quadric_cone_resolution):
    f = quadric_cone_resolution
    pair = _pair(f, [(0, 1, 1)])
    _, step = mmp_step(pair)
    new_fan = step.pair_after.fan
    assert len(new_fan.rays) == len(f.rays)
    assert len(new_fan.max_cones) == len(f.max_cones)


def test_mmp_requires_simplicial(cube_fan):
    pair = FoliatedPair(cube_fan, full_space(3), zero_divisor(cube_fan))
    with pytest.raises(ValueError, match="simplicial"):
        mmp_step(pair)


def test_mmp_requires_log_canonical(hirzebruch1):
    v = FoliationSubspace([(1, 1)])
    pair = FoliatedPair(hirzebruch1, v, TorusDivisor((0, 2, 0, 0)))
    with pytest.raises(ValueError, match="log canonical"):
        mmp_step(pair)


def test_subspace_keeps_no_per_fan_state(hirzebruch1):
    """Ray masks are cached on the fans the MMP builds, not on the
    foliation subspace, so the subspace is unchanged by a run."""
    import copy
    import random

    import _corpus

    rng = random.Random(5)
    pairs = [_pair(hirzebruch1, [(1, 0)])]
    pairs += [
        _corpus.random_pair(rng, _corpus.random_simplicial_fan(rng, 3, 3))
        for _ in range(4)
    ]
    for pair in pairs:
        state = copy.deepcopy(vars(pair.subspace))
        trace = run_mmp(pair)
        assert trace.steps
        assert vars(pair.subspace) == state
        assert set(state) == {"basis", "rank", "dim"}
        for step in trace.steps:
            if step.pair_after is not None:
                assert step.pair_after.subspace is pair.subspace
