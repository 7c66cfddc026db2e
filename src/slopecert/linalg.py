"""Exact integer linear algebra over Z.

Provides arbitrary-precision integer matrices, Smith normal form with
the unimodular change-of-basis matrices, and finitely presented abelian
groups as cokernels of integer relation matrices.  Everything is exact:
entries are Python ints, and rational coordinates (where they occur) are
fractions.Fraction.

The Smith normal form routine is deterministic: the pivot is always the
entry of smallest nonzero absolute value in the working submatrix, first
occurrence in row-major order, so identical inputs produce identical
(U, D, V) triples on every run.
"""

from .slopes import InvariantError, Record, _set


class IntMatrix(Record):
    """An immutable integer matrix, row-major."""

    _fields = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        for e in entries:
            if isinstance(e, bool) or not isinstance(e, int):
                raise TypeError("matrix must be integral")
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "entries", entries)

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
        rows = []
        for i in range(self.rows):
            left = self.row(i)
            rows.append(
                [
                    sum(left[k] * other.entry(k, j) for k in range(self.cols))
                    for j in range(other.cols)
                ]
            )
        return IntMatrix(
            self.rows, other.cols, tuple(e for r in rows for e in r)
        )

    def apply(self, vec):
        """Matrix-vector product; vector entries may be ints or Fractions."""
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

    _fields = ("U", "D", "V")

    def __init__(self, U, D, V):
        _set(self, "U", U)
        _set(self, "D", D)
        _set(self, "V", V)

    def diagonal(self):
        return tuple(
            self.D.entry(i, i) for i in range(min(self.D.rows, self.D.cols))
        )


def _find_pivot(d, t, m, n):
    """Smallest nonzero |entry| in the submatrix from (t, t), first in row-major order."""
    best = None
    best_abs = None
    for i in range(t, m):
        for j in range(t, n):
            e = d[i][j]
            if e != 0 and (best is None or abs(e) < best_abs):
                best = (i, j)
                best_abs = abs(e)
    return best


def smith_normal_form(a):
    """Smith normal form of an integer matrix.

    Returns SNFResult(U, D, V) with U * a * V = D, det(U) and det(V) in
    {+1, -1}, D diagonal with d_i >= 0 and d_1 | d_2 | ... .  The
    reduction is fully deterministic (fixed pivot rule), so repeated
    runs on the same matrix agree entry for entry.
    """
    m, n = a.rows, a.cols
    d = a.to_rows()
    u = IntMatrix.identity(m).to_rows()
    v = IntMatrix.identity(n).to_rows()

    def swap_rows(i, k):
        d[i], d[k] = d[k], d[i]
        u[i], u[k] = u[k], u[i]

    def swap_cols(j, k):
        for r in d:
            r[j], r[k] = r[k], r[j]
        for r in v:
            r[j], r[k] = r[k], r[j]

    def add_row(i, k, c):
        # row_i += c * row_k
        d[i] = [x + c * y for x, y in zip(d[i], d[k])]
        u[i] = [x + c * y for x, y in zip(u[i], u[k])]

    def add_col(j, k, c):
        # col_j += c * col_k
        for r in d:
            r[j] += c * r[k]
        for r in v:
            r[j] += c * r[k]

    t = 0
    while t < min(m, n):
        piv = _find_pivot(d, t, m, n)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        # One Euclidean sweep down the column and across the row.  Any
        # leftover remainder is smaller than the pivot, so re-picking
        # the pivot makes strict progress and the loop terminates.
        for i in range(t + 1, m):
            if d[i][t] != 0:
                add_row(i, t, -(d[i][t] // d[t][t]))
        if any(d[i][t] for i in range(t + 1, m)):
            continue
        for j in range(t + 1, n):
            if d[t][j] != 0:
                add_col(j, t, -(d[t][j] // d[t][t]))
        if any(d[t][j] for j in range(t + 1, n)):
            continue
        # Divisibility: the pivot must divide the rest of the submatrix.
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if d[i][j] % d[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(t, bad, 1)
            continue
        t += 1

    for i in range(min(m, n)):
        if d[i][i] < 0:
            d[i] = [-x for x in d[i]]
            u[i] = [-x for x in u[i]]

    # Explicit shapes: from_rows would lose the column count of a
    # zero-row matrix.
    result = SNFResult(
        IntMatrix(m, m, tuple(e for r in u for e in r)),
        IntMatrix(m, n, tuple(e for r in d for e in r)),
        IntMatrix(n, n, tuple(e for r in v for e in r)),
    )
    check_smith_normal_form(a, result)
    return result


def check_smith_normal_form(a, result):
    """Raise InvariantError unless `result` is a Smith normal form of `a`.

    Exact post-conditions, cheap at the sizes this library handles:
    U * a * V == D, det(U) and det(V) in {+1, -1}, and D diagonal with
    nonnegative entries forming a divisibility chain, zeros last.
    """
    if result.U.mul(a).mul(result.V) != result.D:
        raise InvariantError("smith normal form: U * A * V differs from D")
    if det(result.U) not in (1, -1) or det(result.V) not in (1, -1):
        raise InvariantError("smith normal form: U or V is not unimodular")
    d = result.D
    if any(d.entry(i, j) for i in range(d.rows) for j in range(d.cols) if i != j):
        raise InvariantError("smith normal form: D is not diagonal")
    diag = result.diagonal()
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

    _fields = ("n_generators", "diag", "coordinate_map")

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
        _set(self, "n_generators", n_generators)
        _set(self, "diag", diag)
        _set(self, "coordinate_map", coordinate_map)

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
        input vector may have Fraction entries.
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
