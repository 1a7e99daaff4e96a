from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfm import lattice


def test_primitive_vector():
    assert lattice.primitive_vector((2, 4)) == (1, 2)
    assert lattice.primitive_vector((1, 0)) == (1, 0)
    # gcd = 3 by Euclid: gcd(3, 6) = 3, gcd(3, 9) = 3
    assert lattice.primitive_vector((-3, -6, 9)) == (-1, -2, 3)
    with pytest.raises(ValueError, match="zero vector"):
        lattice.primitive_vector((0, 0))


def test_primitive_vector_idempotent_and_direction():
    v = (-4, 6, -10)
    p = lattice.primitive_vector(v)
    assert lattice.primitive_vector(p) == p
    # output is a positive rational multiple of the input
    assert p == tuple(x // 2 for x in v)


def test_primitivize_rational():
    assert lattice.primitivize((Fraction(1, 2), Fraction(3, 4))) == (2, 3)
    assert lattice.primitivize((Fraction(-2), Fraction(4))) == (-1, 2)


def _check_snf(a):
    snf = lattice.smith_normal_form(a)
    d = lattice.mat_mul(lattice.mat_mul(snf.left, a), snf.right)
    assert d == snf.diagonal_matrix((len(a), len(a[0])))
    assert abs(lattice.det(snf.left)) == 1
    assert abs(lattice.det(snf.right)) == 1
    diag = snf.diag
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        if y != 0:
            assert x != 0 and y % x == 0
        # product of the first k invariants is the gcd of k x k minors
    prod = 1
    for k, x in enumerate(diag, start=1):
        prod *= x
        assert prod == lattice.minor_gcd(a, k)
    return diag


def test_snf_examples():
    # oracle: elementary reduction / gcd-of-minors; diag(2,3) has minor
    # gcds 1 and 6, so the invariants are (1, 6)
    assert _check_snf(((2, 0), (0, 3))) == (1, 6)
    assert _check_snf(((1, 0, 0), (0, 1, 0), (0, 0, 1))) == (1, 1, 1)
    # determinant 2, gcd of entries 1
    assert _check_snf(((1, 0), (1, 2))) == (1, 2)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_snf_random(nr, nc, data):
    a = tuple(
        tuple(data.draw(st.integers(-9, 9)) for _ in range(nc)) for _ in range(nr)
    )
    _check_snf(a)


def test_sublattice_index():
    assert lattice.sublattice_index([(1, 0), (0, 1)]) == 1
    # |det| oracle
    assert lattice.sublattice_index([(1, 0), (1, 2)]) == abs(lattice.det(((1, 0), (1, 2))))
    # SNF of the 2x3 matrix is (1, 1): 2x2 minor (1,0),(0,1) has det 1
    assert lattice.sublattice_index([(1, 0, 1), (0, 1, 1)]) == 1
    with pytest.raises(ValueError, match="independent"):
        lattice.sublattice_index([(1, 0), (2, 0)])


def test_sublattice_index_unimodular_invariance():
    gens = [(2, 1, 0), (0, 3, 1)]
    idx = lattice.sublattice_index(gens)
    # change generators by a unimodular map on the left
    changed = [
        lattice.vec_add(gens[0], lattice.vec_scale(3, gens[1])),
        lattice.vec_neg(gens[1]),
    ]
    assert lattice.sublattice_index(changed) == idx


def test_rational_kernel():
    basis = lattice.rational_kernel([(1, 1, 1)])
    assert len(basis) == 2
    for v in basis:
        assert sum(v) == 0
    assert lattice.rational_kernel(lattice.identity(3)) == []
    # rays of P^2 as columns: e1 + e2 + (-e1-e2) = 0
    cols = [(1, 0), (0, 1), (-1, -1)]
    rows = list(zip(*cols))
    basis = lattice.rational_kernel(rows)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == v[1] == v[2] != 0


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_rank_nullity(nr, nc, data):
    a = [
        tuple(data.draw(st.integers(-5, 5)) for _ in range(nc)) for _ in range(nr)
    ]
    basis = lattice.rational_kernel(a)
    assert lattice.rational_rank(a) + len(basis) == nc
    for v in basis:
        assert all(x == 0 for x in lattice.mat_vec(a, v))


def test_subspace_contains():
    assert lattice.subspace_contains([(1, 1)], (1, 1))
    assert not lattice.subspace_contains([(1, 1)], (1, 0))
    assert lattice.subspace_contains([(1, 0, 0), (0, 1, 0)], (2, -3, 0))
    with pytest.raises(ValueError, match="dimension mismatch"):
        lattice.subspace_contains([(1, 1)], (1, 0, 0))


def test_solve_linear():
    assert lattice.solve_linear([(2, 0), (0, 4)], (1, 1)) == (
        Fraction(1, 2),
        Fraction(1, 4),
    )
    assert lattice.solve_linear([(1, 1), (1, 1)], (0, 1)) is None


def test_integer_kernel_saturated():
    rows = [(1, 1, 1)]
    basis = lattice.integer_kernel(rows)
    assert len(basis) == 2
    for v in basis:
        assert sum(v) == 0
    # saturated: SNF invariants of the kernel basis are all 1
    assert lattice.smith_normal_form(basis).diag == (1, 1)


def test_integer_kernel_rejects_non_integer_entries():
    with pytest.raises(ValueError, match="integer entries"):
        lattice.integer_kernel([(Fraction(1, 3), 1, 0)])
    # integral Fractions are integers
    assert lattice.integer_kernel([(Fraction(2), 0)]) == lattice.integer_kernel([(2, 0)])


def test_row_basis_keeps_first_independent_rows():
    rows = [(1, 2, 0), (2, 4, 0), (0, 0, 1), (1, 2, 1), (0, 1, 0)]
    assert lattice.row_basis(rows) == [(1, 2, 0), (0, 0, 1), (0, 1, 0)]
    assert lattice.row_basis([]) == []


def test_integer_solve():
    sol = lattice.integer_solve([(2, 1)], (5,))
    assert sol is not None and 2 * sol[0] + sol[1] == 5
    assert lattice.integer_solve([(2, 0), (0, 2)], (1, 0)) is None


def test_quotient_map():
    # quotient of Z^2 by span((1,1)) is Z, e.g. via x - y
    q = lattice.quotient_map([(1, 1)], 2)
    assert len(q) == 1
    assert lattice.mat_vec(q, (1, 1)) == (0,)
    img = {lattice.mat_vec(q, v)[0] for v in [(1, 0), (0, 1), (5, 3)]}
    assert gcd(*sorted(abs(x) for x in img if x != 0)[:2]) == 1
    with pytest.raises(ValueError, match="saturated"):
        lattice.quotient_map([(2, 0)], 2)


def test_quotient_map_surjective_with_exact_kernel():
    q = lattice.quotient_map([(1, 2, 3)], 3)
    assert len(q) == 2
    assert lattice.mat_vec(q, (1, 2, 3)) == (0, 0)
    # surjectivity: an integer solution exists for both unit targets
    assert lattice.integer_solve(q, (1, 0)) is not None
    assert lattice.integer_solve(q, (0, 1)) is not None


def test_det():
    assert lattice.det(((1, 2), (3, 4))) == -2
    assert lattice.det(((2, 0, 0), (0, 3, 0), (0, 0, 4))) == 24
    assert lattice.det(((0, 1), (1, 0))) == -1
