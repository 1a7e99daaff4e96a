"""Exact integer and rational linear algebra.

Everything here works over arbitrary-precision ints and fractions.Fraction;
no floating point appears anywhere in the package.  Vectors are tuples,
matrices are sequences of row tuples.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
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


def primitivize(v: Sequence) -> Vec:
    """Primitive integer vector spanning the same ray as a rational vector."""
    fracs = [Fraction(x) for x in v]
    if all(x == 0 for x in fracs):
        raise ValueError("zero vector has no primitive representative")
    den = 1
    for x in fracs:
        den = den * x.denominator // gcd(den, x.denominator)
    return primitive_vector([int(x * den) for x in fracs])


def _rref(rows):
    """Reduced row echelon form over Q.  Returns (rows, pivot columns)."""
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


def rational_rank(rows) -> int:
    if not rows:
        return 0
    _, pivots = _rref(rows)
    return len(pivots)


def rational_kernel(rows, ncols: Optional[int] = None):
    """Basis of the right kernel of a matrix over Q."""
    if not rows:
        if ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return [tuple(Fraction(int(i == j)) for j in range(ncols)) for i in range(ncols)]
    ncols = len(rows[0])
    red, pivots = _rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][free]
        basis.append(tuple(v))
    return basis


def solve_linear(rows, rhs):
    """One exact solution of A x = b, or None when inconsistent."""
    if not rows:
        return tuple()
    ncols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    red, pivots = _rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, p in enumerate(pivots):
        x[p] = red[r][ncols]
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
    them: a basis of the row space, in input order."""
    kept = []
    for row in rows:
        if rational_rank(kept + [row]) > len(kept):
            kept.append(row)
    return kept


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
    """Exact integer determinant (fraction-free Bareiss)."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pr = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pr is None:
                return 0
            m[k], m[pr] = m[pr], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
