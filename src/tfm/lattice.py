"""Exact integer and rational linear algebra.

Everything here works over arbitrary-precision ints and fractions.Fraction;
no floating point appears anywhere in the package.  Vectors are tuples,
matrices are sequences of row tuples.

One elimination answers every rank, kernel, solve, determinant and
row-basis question: `bareiss_echelon`, forward fraction-free Gaussian
elimination on rows scaled to integers.  Smith normal form stays
separate, because it needs the unimodular transforms.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Optional, Sequence

Vec = tuple
Q = Fraction


def dot(a: Sequence, b: Sequence):
    return sum(x * y for x, y in zip(a, b))


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c, a):
    return tuple(c * x for x in a)


def vec_neg(a):
    return tuple(-x for x in a)


def is_zero(a) -> bool:
    return all(x == 0 for x in a)


def mat_vec(m, v):
    return tuple(dot(row, v) for row in m)


def mat_mul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def transpose(m):
    return tuple(zip(*m))


def identity(n: int):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def primitive_vector(v: Sequence[int]) -> Vec:
    """Divide an integer vector by the gcd of its entries."""
    if all(x == 0 for x in v):
        raise ValueError("zero vector has no primitive representative")
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v)


def _integer_row(row):
    """The row scaled to integers by the lcm of its denominators; all-int rows pass."""
    if all(type(x) is int for x in row):
        return row
    fracs = [Fraction(x) for x in row]
    den = lcm(*(x.denominator for x in fracs))
    return [x.numerator * (den // x.denominator) for x in fracs]


def primitivize(v: Sequence) -> Vec:
    """Primitive integer vector spanning the same ray as a rational vector."""
    return primitive_vector(_integer_row(v))


def bareiss_echelon(rows):
    """Fraction-free row echelon form of an integer matrix (Bareiss, 1968):
    (nonzero echelon rows, their pivot columns, sign of the row swaps).

    Entry j of echelon row r is the minor of the row-swapped matrix on
    its first r + 1 rows and the columns pivots[:r] + [j], so every
    division is exact and the last pivot is the pivot-block minor.
    """
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots = []
    sign = 1
    prev = 1
    for col in range(nc):
        rank = len(pivots)
        if rank == nr:
            break
        pr = next((i for i in range(rank, nr) if m[i][col]), None)
        if pr is None:
            continue
        if pr != rank:
            m[rank], m[pr] = m[pr], m[rank]
            sign = -sign
        top = m[rank]
        piv = top[col]
        for i in range(rank + 1, nr):
            row = m[i]
            f = row[col]
            for j in range(col + 1, nc):
                row[j] = (row[j] * piv - f * top[j]) // prev
            row[col] = 0
        pivots.append(col)
        prev = piv
    return m[: len(pivots)], pivots, sign


def _rref_column(echelon, pivots, col):
    """Column col of the reduced row echelon form.  By Cramer's rule the
    last pivot d times each entry is an integer, so the back-substitution
    stays in integers and divides exactly."""
    d = echelon[-1][pivots[-1]] if pivots else 1
    k = len(pivots)
    nums = [0] * k
    for i in range(k - 1, -1, -1):
        row = echelon[i]
        s = d * row[col]
        for j in range(i + 1, k):
            s -= row[pivots[j]] * nums[j]
        nums[i] = s // row[pivots[i]]
    return [Fraction(x, d) for x in nums]


def rational_rank(rows) -> int:
    return len(bareiss_echelon([_integer_row(r) for r in rows])[1])


def rational_kernel(rows, ncols: Optional[int] = None):
    """Basis of the right kernel of a matrix over Q: one vector per
    non-pivot column, read off the reduced row echelon form."""
    if rows:
        ncols = len(rows[0])
    elif ncols is None:
        raise ValueError("empty matrix needs an explicit column count")
    echelon, pivots, _ = bareiss_echelon([_integer_row(r) for r in rows])
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for p, x in zip(pivots, _rref_column(echelon, pivots, free)):
            v[p] = -x
        basis.append(tuple(v))
    return basis


def solve_linear(rows, rhs):
    """One exact solution of A x = b, or None when inconsistent."""
    if not rows:
        return tuple()
    ncols = len(rows[0])
    aug = [_integer_row(list(row) + [b]) for row, b in zip(rows, rhs)]
    echelon, pivots, _ = bareiss_echelon(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for p, value in zip(pivots, _rref_column(echelon, pivots, ncols)):
        x[p] = value
    return tuple(x)


def subspace_contains(basis, v) -> bool:
    """True iff v lies in the rational span of the basis vectors."""
    basis = list(basis)
    if not basis:
        return is_zero(v)
    if any(len(b) != len(v) for b in basis):
        raise ValueError("dimension mismatch between basis and vector")
    return solve_linear(list(zip(*basis)), v) is not None


def subspaces_equal(basis_a, basis_b) -> bool:
    return all(subspace_contains(basis_b, v) for v in basis_a) and all(
        subspace_contains(basis_a, v) for v in basis_b
    )


class SmithNormalForm(NamedTuple):
    diag: tuple
    left: tuple   # unimodular, rows transform
    right: tuple  # unimodular, column transform; left @ A @ right is diagonal

    def diagonal_matrix(self, shape):
        m, n = shape
        return tuple(
            tuple(self.diag[i] if i == j and i < len(self.diag) else 0 for j in range(n))
            for i in range(m)
        )


def smith_normal_form(a) -> SmithNormalForm:
    """Smith normal form with transforms: left @ a @ right diagonal.

    Diagonal entries are nonnegative and satisfy d1 | d2 | ... .
    """
    m = [list(row) for row in a]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    left = [list(row) for row in identity(nr)]
    right = [list(row) for row in identity(nc)]

    def row_op(i, j, q):  # row_i -= q * row_j
        m[i] = [x - q * y for x, y in zip(m[i], m[j])]
        left[i] = [x - q * y for x, y in zip(left[i], left[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in m:
            row[i] -= q * row[j]
        for row in right:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in right:
            row[i], row[j] = row[j], row[i]

    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < best):
                    best = abs(m[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        clean = False
        while not clean:
            clean = True
            for i in range(t + 1, nr):
                if m[i][t] != 0:
                    row_op(i, t, m[i][t] // m[t][t])
                    if m[i][t] != 0:
                        swap_rows(t, i)
                        clean = False
            for j in range(t + 1, nc):
                if m[t][j] != 0:
                    col_op(j, t, m[t][j] // m[t][t])
                    if m[t][j] != 0:
                        swap_cols(t, j)
                        clean = False
        # pivot must divide the remaining block for the divisibility chain
        fixed = True
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if m[i][j] % m[t][t] != 0:
                    row_op(t, i, -1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            t += 1

    for i in range(min(nr, nc)):
        if m[i][i] < 0:
            m[i] = [-x for x in m[i]]
            left[i] = [-x for x in left[i]]
    diag = tuple(m[i][i] for i in range(min(nr, nc)))
    return SmithNormalForm(diag, tuple(map(tuple, left)), tuple(map(tuple, right)))


def sublattice_index(generators) -> int:
    """Index of the sublattice spanned by the generators inside the
    saturation of their rational span (product of SNF invariants)."""
    gens = [tuple(g) for g in generators]
    if not gens:
        return 1
    snf = smith_normal_form(gens)
    diag = [d for d in snf.diag if d != 0]
    if len(diag) < len(gens):
        raise ValueError("sublattice_index requires independent generators")
    idx = 1
    for d in diag:
        idx *= d
    return idx


def row_basis(rows):
    """The rows that raise the rational rank of the rows kept before
    them: a basis of the row space, in input order.  These are the pivot
    columns of the echelon of the transposed rows."""
    rows = list(rows)
    cols = transpose([_integer_row(r) for r in rows])
    return [rows[j] for j in bareiss_echelon(cols)[1]]


def integer_kernel(rows):
    """Lattice basis of {x in Z^n : A x = 0}; the kernel is saturated.

    The entries must be integers: Smith normal form over rational
    entries is not defined and can stall, so callers primitivize first.
    """
    rows = [tuple(r) for r in rows]
    if not rows:
        raise ValueError("empty matrix needs explicit handling")
    if any(Fraction(x).denominator != 1 for row in rows for x in row):
        raise ValueError("integer_kernel needs integer entries")
    rows = [tuple(int(x) for x in row) for row in rows]
    n = len(rows[0])
    snf = smith_normal_form(rows)
    rank = sum(1 for d in snf.diag if d != 0)
    cols = transpose(snf.right)
    return [cols[j] for j in range(rank, n)]


def integer_solve(rows, rhs):
    """One integer solution of A x = b, or None."""
    snf = smith_normal_form(rows)
    c = mat_vec(snf.left, rhs)
    n = len(rows[0])
    y = [0] * n
    for i, ci in enumerate(c):
        d = snf.diag[i] if i < len(snf.diag) else 0
        if d == 0:
            if ci != 0:
                return None
        else:
            if ci % d != 0:
                return None
            y[i] = ci // d
    return mat_vec(snf.right, y)


def quotient_map(sublattice_basis, n: int):
    """Projection matrix Z^n -> Z^(n-k) with kernel the given saturated
    rank-k sublattice.  Rows of the result are the quotient coordinates."""
    basis = [tuple(b) for b in sublattice_basis]
    k = len(basis)
    if k == 0:
        return identity(n)
    snf = smith_normal_form(basis)
    if any(d != 1 for d in snf.diag):
        raise ValueError("quotient_map requires a saturated sublattice")
    # rowspan(basis) = span_Z of the first k rows of right^-1, so the last
    # n-k columns of right give the quotient coordinates.
    cols = transpose(snf.right)
    return tuple(cols[j] for j in range(k, n))


def minor_gcd(rows, k: int) -> int:
    """Gcd of all k x k minors (0 when there are none); test oracle helper."""
    from itertools import combinations

    rows = [tuple(r) for r in rows]
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    g = 0
    for ris in combinations(range(nr), k):
        for cis in combinations(range(nc), k):
            g = gcd(g, det([[rows[i][j] for j in cis] for i in ris]))
    return abs(g)


def det(rows):
    """Exact integer determinant: the sign of the row swaps times the
    last pivot of the fraction-free echelon."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("det needs a square matrix")
    echelon, pivots, sign = bareiss_echelon(rows)
    if len(pivots) < n:
        return 0
    return sign * echelon[-1][-1] if n else 1
