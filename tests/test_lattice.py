from fractions import Fraction
from itertools import permutations
from math import gcd, prod

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from tfm import lattice


def reference_rref(rows):
    """Gauss-Jordan over Fraction: (reduced rows, pivot columns).  Test
    oracle for the fraction-free echelon."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


def reference_rank(rows):
    return len(reference_rref(rows)[1])


def reference_kernel(rows, ncols):
    red, pivots = reference_rref(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][free]
        basis.append(tuple(v))
    return basis


def reference_solve(rows, rhs):
    ncols = len(rows[0])
    red, pivots = reference_rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, p in enumerate(pivots):
        x[p] = red[r][ncols]
    return tuple(x)


def reference_det(rows):
    """Leibniz formula: a signed sum over permutations."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(n))
    return total


def reference_row_basis(rows):
    kept = []
    for row in rows:
        if reference_rank(kept + [row]) > len(kept):
            kept.append(row)
    return kept


def assert_fraction_vectors(got, expected):
    assert got == expected
    assert all(type(x) is Fraction for v in got for x in v)


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


INTS = st.one_of(st.sampled_from([0, 0, 1, -1, 2, -3]), st.integers(-10**30, 10**30))
ENTRIES = st.one_of(
    INTS, st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
)


@seed(20261018)
@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5), st.integers(1, 5), st.data())
def test_elimination_matches_reference(nr, nc, data):
    rows = [tuple(data.draw(ENTRIES) for _ in range(nc)) for _ in range(nr)]
    if nr and data.draw(st.booleans()):  # a row in the span of two others
        i, j = data.draw(st.integers(0, nr - 1)), data.draw(st.integers(0, nr - 1))
        c = data.draw(ENTRIES)
        rows.append(tuple(c * x + y for x, y in zip(rows[i], rows[j])))
    assert lattice.rational_rank(rows) == reference_rank(rows)
    assert lattice.row_basis(rows) == reference_row_basis(rows)
    if rows:
        assert_fraction_vectors(lattice.rational_kernel(rows), reference_kernel(rows, nc))
        x0 = [data.draw(ENTRIES) for _ in range(nc)]
        consistent = tuple(lattice.dot(row, x0) for row in rows)
        arbitrary = tuple(data.draw(ENTRIES) for _ in rows)
        for rhs in (consistent, arbitrary):
            got = lattice.solve_linear(rows, rhs)
            assert got == reference_solve(rows, rhs)
            assert got is None or all(type(x) is Fraction for x in got)
    else:
        assert_fraction_vectors(lattice.rational_kernel(rows, ncols=nc), reference_kernel(rows, nc))
    square = [[data.draw(INTS) for _ in range(nr)] for _ in range(nr)]
    if nr >= 2 and data.draw(st.booleans()):
        square[-1] = [x + y for x, y in zip(square[0], square[1])]
    got = lattice.det(square)
    assert got == reference_det(square) and type(got) is int


def test_elimination_edge_cases():
    # no rows
    assert lattice.rational_rank([]) == 0
    assert lattice.row_basis([]) == []
    assert lattice.solve_linear([], []) == ()
    assert lattice.det([]) == 1
    assert_fraction_vectors(lattice.rational_kernel([], ncols=2), [(1, 0), (0, 1)])
    # zero rows among nonzero ones
    rows = [(0, 0, 0), (1, 2, 3), (0, 0, 0)]
    assert lattice.rational_rank(rows) == 1
    assert lattice.row_basis(rows) == [(1, 2, 3)]
    assert_fraction_vectors(lattice.rational_kernel(rows), reference_kernel(rows, 3))
    assert lattice.solve_linear(rows, (0, 6, 0)) == (6, 0, 0)
    assert lattice.solve_linear(rows, (1, 6, 0)) is None
    # the all-zero matrix
    zero = [(0, 0), (0, 0)]
    assert lattice.rational_rank(zero) == 0
    assert lattice.row_basis(zero) == []
    assert_fraction_vectors(lattice.rational_kernel(zero), [(1, 0), (0, 1)])
    assert_fraction_vectors([lattice.solve_linear(zero, (0, 0))], [(0, 0)])
    assert lattice.solve_linear(zero, (0, 1)) is None
    assert lattice.det(zero) == 0
    # singular square matrices
    assert lattice.det([(1, 2), (2, 4)]) == 0
    assert lattice.det([(1, 2, 3), (4, 5, 6), (7, 8, 9)]) == 0
    # the second pivot needs a row swap, which flips the sign
    m = [(1, 2, 3), (2, 4, 5), (3, 5, 6)]
    assert lattice.det(m) == reference_det(m) == -1
    assert lattice.det([m[0], m[2], m[1]]) == 1
    with pytest.raises(ValueError, match="square"):
        lattice.det([(1, 2)])
    # an inconsistent augmented system
    assert lattice.solve_linear([(1, 2), (2, 4)], (1, 3)) is None
    assert lattice.solve_linear([(1, 0, 1), (0, 1, 1), (1, 1, 2)], (1, 1, 3)) is None
    # a Fraction row only scales by the lcm of its denominators, 6 here
    frac = (Fraction(1, 2), Fraction(1, 3), Fraction(5, 6))
    assert lattice.primitivize(frac) == (3, 2, 5)
    assert lattice.rational_rank([frac, (3, 2, 5)]) == 1
    assert lattice.row_basis([frac, (3, 2, 5), (1, 0, 0)]) == [frac, (1, 0, 0)]
    assert_fraction_vectors(lattice.rational_kernel([frac]), lattice.rational_kernel([(3, 2, 5)]))
    assert lattice.solve_linear([frac], (1,)) == (2, 0, 0)
