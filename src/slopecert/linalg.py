"""Exact integer linear algebra over Z.

Provides arbitrary-precision integer matrices, Smith normal form with
the unimodular change-of-basis matrices, and finitely presented abelian
groups as cokernels of integer relation matrices.  Everything is exact:
entries are Python ints, and rational coordinates (where they occur) are
exact rationals such as rational.Rational.  On the command line only
`snf` loads this module.

Smith normal form has one elimination, a row Hermite form, run in turn
on the rows and on the columns until the matrix is diagonal (Kannan and
Bachem); a 2x2 step per diagonal pair then makes the divisibility chain.
The transforms stay within a small multiple of the size of D.  Every
pivot rule is fixed, so identical inputs produce identical (U, D, V)
triples on every run.
"""

import operator
from math import gcd

from .record import InvariantError, Record, _store


class IntMatrix(Record):
    """An immutable integer matrix, row-major."""

    def __init__(self, rows, cols, entries):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        for e in entries:
            if isinstance(e, bool) or not isinstance(e, int):
                raise TypeError("matrix must be integral")
        _store(self, locals())

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        m = len(rows)
        n = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != n:
                raise ValueError("ragged rows")
        return cls(m, n, tuple(e for r in rows for e in r))

    @classmethod
    def identity(cls, n):
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def entry(self, i, j):
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self):
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self.entry(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        cols = [other.entries[j :: other.cols] for j in range(other.cols)]
        return IntMatrix(
            self.rows,
            other.cols,
            tuple(
                sum(map(operator.mul, row, col))
                for row in map(self.row, range(self.rows))
                for col in cols
            ),
        )

    def apply(self, vec):
        """Matrix-vector product; vector entries may be ints or exact rationals."""
        vec = list(vec)
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(
            sum(self.entry(i, k) * vec[k] for k in range(self.cols))
            for i in range(self.rows)
        )


def det(mat):
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    if mat.rows != mat.cols:
        raise ValueError("determinant of a non-square matrix")
    n = mat.rows
    if n == 0:
        return 1
    a = mat.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


class SNFResult(Record):
    """Smith normal form data: U * A * V = D with U, V unimodular.

    D is diagonal with nonnegative entries forming a divisibility chain
    (every nonzero d_i divides d_{i+1}; zeros come last).
    """

    def __init__(self, U, D, V):
        _store(self, locals())

    def diagonal(self):
        return tuple(
            self.D.entry(i, i) for i in range(min(self.D.rows, self.D.cols))
        )


def _is_row_echelon(rows):
    """Whether each nonzero row starts, positive, right of the rows above it, zero rows last."""
    lead = -1
    for r in rows:
        j = next((j for j, x in enumerate(r) if x), len(r))
        if j < len(r) and (j <= lead or r[j] < 0):
            return False
        lead = j
    return True


def _row_hermite(rows, top, width):
    """Put rows[top:] in row Hermite form on its first `width` columns, in place.

    Echelon form first, by sweeps under the smallest nonzero |entry| p of
    each column (first such row), each pivot made positive.  A sweep
    subtracts f times the pivot row from every row below it, f the
    nearest integer to row[c] / p, so each remainder is at most |p|/2
    and the sweeps make about a third fewer row operations than with
    floor quotients.  Then every row above a pivot, rows[:top] included,
    is reduced modulo it into [0, pivot) with floor quotients, bottom row
    first, which makes the form unique: reducing during the sweeps would
    add unreduced pivot rows to the rows above, column after column, and
    their entries would grow by thousands of bits.  Columns from `width`
    on only follow the row operations, so a transform can ride along.  A
    row added is zero left of the column it clears, so only the tail of
    the changed row is rewritten.
    """
    m = len(rows)
    cols = []  # the pivot column of rows[top], rows[top + 1], ...
    r = top
    for c in range(width):
        if r == m:
            break
        while True:
            piv = None
            for i in range(r, m):
                e = rows[i][c]
                if e and (piv is None or abs(e) < best):
                    piv, best = i, abs(e)
            if piv is None:
                break
            rows[r], rows[piv] = rows[piv], rows[r]
            p = rows[r][c]
            tail = rows[r][c:]
            clear = True
            for i in range(r + 1, m):
                row = rows[i]
                if row[c]:
                    f = (2 * row[c] + p) // (2 * p)
                    row[c:] = [x - f * y for x, y in zip(row[c:], tail)]
                    if row[c]:
                        clear = False
            if clear:
                break
        if piv is None:
            continue
        if rows[r][c] < 0:
            rows[r][c:] = [-x for x in rows[r][c:]]
        cols.append(c)
        r += 1
    for i in reversed(range(r)):
        row = rows[i]
        for k in range(max(i + 1, top), r):
            c = cols[k - top]
            f = row[c] // rows[k][c]
            if f:
                row[c:] = [x - f * y for x, y in zip(row[c:], rows[k][c:])]


def _reduce_left_kernel(a, d, u):
    """Shrink the rows of u that annihilate a, if they have grown.

    Those rows (from the rank of d on) are put in row Hermite form among
    themselves and the other rows reduced modulo them; d does not change.
    It runs only when some |entry| of u exceeds the product of the norms
    of a's nonzero rows (a Hadamard bound on a Cramer-rule kernel basis),
    so a U that has not grown is kept as the elimination left it: the
    U `snf` prints, say for a row (q, -p, -q), whose entries are at most
    max(|p|, q).
    """
    rank = sum(1 for i in range(min(a.rows, a.cols)) if d[i][i])
    if rank == a.rows:
        return
    bound = 1
    for i in range(a.rows):
        norm2 = sum(x * x for x in a.row(i))
        if norm2:
            bound *= norm2
    if any(x * x > bound for row in u for x in row):
        _row_hermite(u, rank, a.rows)


def _hermite_phase(d, t, width):
    """Row Hermite form of d, t's rows following; None if d is echelon with positive pivots."""
    if _is_row_echelon(d):
        return None
    rows = [x + y for x, y in zip(d, t)]
    _row_hermite(rows, 0, width)
    return [r[:width] for r in rows], [r[width:] for r in rows]


def _transpose(rows, cols):
    return [[r[j] for r in rows] for j in range(cols)]


def smith_normal_form(a):
    """Smith normal form of an integer matrix.

    Returns SNFResult(U, D, V) with U * a * V = D, det(U) and det(V) in
    {+1, -1}, D diagonal with d_i >= 0 and d_1 | d_2 | ... , checked by
    check_smith_normal_form: for a square `a` with no zero d_i, by the
    integrality of U's and V's inverses, otherwise by det(U) and det(V).

    One elimination, _row_hermite, alternates between the rows (a row
    phase on [D | U]) and the columns (a column phase on [D^T | V^T])
    until D is diagonal (Kannan and Bachem).  Its sweeps use
    nearest-integer quotients, and its reduction above each pivot uses
    floor quotients into [0, pivot), so every phase ends in the unique
    Hermite form of its input: a nonsingular square input has one
    (U, D, V) whatever the sweeps do, and only the transforms of a
    rank-deficient input depend on them.  D is unique for every input.
    A phase whose input is already in row echelon form with positive
    pivots is skipped, which keeps the U of such inputs as `snf` has
    always printed it.  Then each diagonal pair (x, y), i < j in order,
    with x not dividing y becomes (g, x*y/g) in one 2x2 step,
    g = gcd(x, y) = s*x + t*y with 0 <= s < y/g; no elimination runs
    again.  Last, _reduce_left_kernel shrinks grown rows of U.  Every
    choice is fixed, so repeated runs agree entry for entry.
    """
    m, n = a.rows, a.cols
    d = a.to_rows()
    u = IntMatrix.identity(m).to_rows()
    vt = IntMatrix.identity(n).to_rows()
    while True:
        row = _hermite_phase(d, u, n)
        if row:
            d, u = row
        # d is now in echelon form; if its transpose is too, d is diagonal.
        col = _hermite_phase(_transpose(d, n), vt, m)
        if col is None:
            break
        dt, vt = col
        d = _transpose(dt, m)

    rank = sum(1 for i in range(min(m, n)) if d[i][i])
    for i in range(rank):
        for j in range(i + 1, rank):
            x, y = d[i][i], d[j][j]
            if y % x:
                g = gcd(x, y)
                s = pow(x // g, -1, y // g)
                t = (g - s * x) // y
                d[i][i], d[j][j] = g, x // g * y
                ui, uj = u[i], u[j]
                u[i] = [s * p + t * q for p, q in zip(ui, uj)]
                u[j] = [x // g * q - y // g * p for p, q in zip(ui, uj)]
                vi, vj = vt[i], vt[j]
                vt[i] = [p + q for p, q in zip(vi, vj)]
                vt[j] = [s * x // g * q - t * y // g * p for p, q in zip(vi, vj)]
    _reduce_left_kernel(a, d, u)

    # Explicit shapes: from_rows would lose the column count of a
    # zero-row matrix.
    result = SNFResult(
        IntMatrix(m, m, tuple(e for r in u for e in r)),
        IntMatrix(m, n, tuple(e for r in d for e in r)),
        IntMatrix(n, n, tuple(e for r in _transpose(vt, n) for e in r)),
    )
    check_smith_normal_form(a, result)
    return result


def check_smith_normal_form(a, result):
    """Raise InvariantError unless `result` is a Smith normal form of `a`.

    Exact post-conditions, in this order: U * a * V == D, D diagonal, U
    and V unimodular, and D's diagonal a nonnegative divisibility chain,
    zeros last.  For a square `a` with no zero on D's diagonal, U and V
    are unimodular exactly when D^-1 (U a) and (a V) D^-1, their inverses,
    are integral: d_i divides row i of U a and column i of a V.  Neither
    inverse is built.  For a rank-deficient or non-square `a`, a and D
    determine no inverse for U's kernel rows or V's kernel columns, so
    det(U) and det(V) are computed by Bareiss elimination.
    """
    ua = result.U.mul(a)
    if ua.mul(result.V) != result.D:
        raise InvariantError("smith normal form: U * A * V differs from D")
    d = result.D
    if any(d.entry(i, j) for i in range(d.rows) for j in range(d.cols) if i != j):
        raise InvariantError("smith normal form: D is not diagonal")
    diag = result.diagonal()
    n = a.cols
    if a.rows == n and all(diag):
        av = a.mul(result.V).entries
        unimodular = not any(
            x % di for i, di in enumerate(diag) for x in ua.row(i)
        ) and not any(x % dj for j, dj in enumerate(diag) for x in av[j::n])
    else:
        unimodular = det(result.U) in (1, -1) and det(result.V) in (1, -1)
    if not unimodular:
        raise InvariantError("smith normal form: U or V is not unimodular")
    if any(x < 0 for x in diag) or not all(
        diag[i + 1] % diag[i] == 0 if diag[i] else diag[i + 1] == 0
        for i in range(len(diag) - 1)
    ):
        raise InvariantError(
            "smith normal form: the diagonal of D is not a nonnegative divisibility chain"
        )


class FPAbelianGroup(Record):
    """A finitely presented abelian group, diagonalized.

    Presented as Z^n modulo the subgroup spanned by relation vectors,
    and stored in coordinates where the relations are diagonal: an
    element given by a generator-coordinate vector x is read off via
    y = coordinate_map * x, whose i-th component lives in Z/diag[i]
    (diag[i] = 0 meaning a free Z factor, diag[i] = 1 a trivial one).

    ``diag`` keeps the full length-n diagonal including ones;
    ``invariant_factors`` drops the ones, so () is the trivial group,
    (0, 0) is Z^2, and (5, 0) is Z/5 + Z.
    """

    def __init__(self, n_generators, diag, coordinate_map):
        if len(diag) != n_generators:
            raise ValueError("diagonal length must equal generator count")
        if coordinate_map.rows != n_generators or coordinate_map.cols != n_generators:
            raise ValueError("coordinate map must be square of generator size")
        if det(coordinate_map) not in (1, -1):
            raise ValueError("coordinate map must be unimodular")
        prev = None
        seen_zero = False
        for x in diag:
            if x < 0:
                raise ValueError("invariant factors must be nonnegative")
            if x == 0:
                seen_zero = True
            elif seen_zero:
                raise ValueError("free factors must come last")
            elif prev not in (None, 0) and x % prev != 0:
                raise ValueError("invariant factors must form a divisibility chain")
            prev = x
        _store(self, locals())

    @property
    def invariant_factors(self):
        return tuple(x for x in self.diag if x != 1)

    @property
    def rank(self):
        return sum(1 for x in self.diag if x == 0)

    @property
    def is_cyclic(self):
        return len(self.invariant_factors) <= 1

    def order(self):
        """Group order as an int, or None for an infinite group."""
        if self.rank > 0:
            return None
        n = 1
        for x in self.diag:
            n *= x
        return n

    def normal_form(self, x):
        """Canonical coordinates of an element, aligned with invariant_factors."""
        y = self.coordinate_map.apply(x)
        out = []
        for yi, di in zip(y, self.diag):
            if di == 1:
                continue
            out.append(yi % di if di else yi)
        return tuple(out)

    def is_zero(self, x):
        return all(c == 0 for c in self.normal_form(x))

    def rational_coords(self, x):
        """Coordinates of the image in the rationalized group (a Q-vector space).

        Torsion dies rationally, so only the free positions survive; the
        input vector may have exact rational entries (rational.Rational).
        """
        y = self.coordinate_map.apply(x)
        return tuple(yi for yi, di in zip(y, self.diag) if di == 0)


def group_from_presentation(a):
    """The abelian group with one generator per column and one relation per row.

    The cokernel Z^n / (row space of a), diagonalized by the Smith
    normal form of the transpose; the resulting unimodular map sends
    generator coordinates to invariant-factor coordinates.
    """
    n = a.cols
    s = smith_normal_form(a.transpose())
    k = min(n, a.rows)
    diag = tuple(s.D.entry(i, i) for i in range(k)) + (0,) * (n - k)
    return FPAbelianGroup(n_generators=n, diag=diag, coordinate_map=s.U)
