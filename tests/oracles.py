"""Reference implementations the tests compare the package against."""

from fractions import Fraction
from math import gcd

from slopecert import IntMatrix, PrimitiveClass, Slope, group_from_presentation
from slopecert.cablespace import _cross
from slopecert.linalg import SNFResult


def grid_slopes(bound):
    """All canonical primitive pairs (a, b) with |a|, |b| <= bound, in the
    order (1, 0), then b = 1, 2, ... with a increasing; made one at a time."""
    yield (1, 0)
    for b in range(1, bound + 1):
        for a in range(-bound, bound + 1):
            if gcd(a, b) == 1:
                yield (a, b)


def phi_by_search(model, s, bound=20):
    """Brute-force oracle for phi: enumerate and test parallelism directly.

    Scans every canonical primitive pair (a2, b2) with coefficients up
    to the bound and keeps those whose inner image a2*iota2(E1') +
    b2*iota2(E2') is parallel to the outer image of s.  Returns the
    unique match as a Slope, or None when the true image lies outside
    the search box; two distinct matches would contradict bijectivity
    and raise.
    """
    w = model.rational_outer(s.a, s.b)
    v1 = model.rational_inner(1, 0)
    v2 = model.rational_inner(0, 1)
    c1 = _cross(v1, w)
    c2 = _cross(v2, w)
    found = None
    for a2, b2 in grid_slopes(bound):
        if a2 * c1 + b2 * c2 == 0:
            if found is not None:
                raise ValueError("inconsistent cable space model")
            found = (a2, b2)
    if found is None:
        return None
    return Slope(PrimitiveClass(*found))


def presented_h1(p, q):
    """H1 of the (p, q) cable space, Z<c, m, l> / (q*c - p*m - q*l), as the
    cokernel of its relation by Smith normal form."""
    return group_from_presentation(IntMatrix.from_rows([[q, -p, -q]]))


def gluing_h1(a, b):
    """H1 of two solid tori glued along the reference torus, one filled
    along the standard meridian (1, 0) and the other along (a, b): the
    cokernel of the relation rows [[1, 0], [a, b]] by Smith normal form."""
    return group_from_presentation(IntMatrix.from_rows([[1, 0], [a, b]]))


def iota_outer(a, b):
    """Generator coordinates (c, m, l) of the image of a*E1 + b*E2 from T1:
    E1 |-> m and E2 |-> l."""
    return (0, a, b)


def iota_inner(p, q, orientation, a, b):
    """Generator coordinates of the image of a*E1' + b*E2' from T2, times
    orientation: E2' |-> p*m + q*l, and E1' |-> the class x with q*x = m,
    which is (k, (1 - k*p)/q, -k) for k the inverse of p mod q."""
    k = pow(p, -1, q)
    return (
        orientation * a * k,
        orientation * (a * (1 - k * p) // q + b * p),
        orientation * (-a * k + b * q),
    )


def presented_basis_images(p, q, orientation):
    """The free coordinates, in presented_h1(p, q), of the images of E1,
    E2, E1' and E2'."""
    h1 = presented_h1(p, q)
    images = iota_outer(1, 0), iota_outer(0, 1)
    images += iota_inner(p, q, orientation, 1, 0), iota_inner(p, q, orientation, 0, 1)
    return [h1.rational_coords(x) for x in images]


def presented_change_of_basis(model):
    """The matrix M in GL2(Z) that takes each of the model's four basis
    images to the oracle's (presented_basis_images), or None when there is
    none.  With such an M, every identity read in one coordinate system
    holds in the other, over Z.  M is read off the first two images, a
    basis of Q^2, and then held against all four."""
    images = model.basis_images
    presented = presented_basis_images(model.p, model.q, model.orientation)
    (a, c), (b, d) = images[0], images[1]  # the columns of C; M = P C^-1
    det = a * d - b * c
    inverse = ((d, -b), (-c, a))
    m = [
        [Fraction(presented[0][i] * inverse[0][j] + presented[1][i] * inverse[1][j], det)
         for j in range(2)]
        for i in range(2)
    ]
    if any(x.denominator != 1 for row in m for x in row):
        return None
    if m[0][0] * m[1][1] - m[0][1] * m[1][0] not in (1, -1):
        return None
    moved = [tuple(r[0] * v[0] + r[1] * v[1] for r in m) for v in images]
    return m if moved == presented else None


def law_reference(p, q, f_outer, f_inner):
    """The cabling law nu' = epsilon*q^2*nu + u of the (p, q) cable space
    in the given framings, as (epsilon, q, u), from integer 2x2 arithmetic
    on the framings' coordinates alone.

    In reference coordinates the standard law sends the outer class (a, b),
    of value -a/b, to the inner class L (a, b), L = [[q^2, -pq], [0, 1]], of
    value q^2*(-a/b) + pq.  In framing coordinates it is M = F_in^-1 L F_out,
    where F's columns are the framing's mu and lambda.  Both meridians are
    +-(1, 0), which L fixes, so M is upper triangular, and (x, y) ->
    (m11*x + m12*y, m22*y) sends the value -x/y to
    (m11/m22)*(-x/y) - m12/m22, with m22 = +-1 since det F = +-1.
    """

    def columns(f):
        return ((f.mu.a, f.lambda_.a), (f.mu.b, f.lambda_.b))

    def mul(m, n):
        return tuple(tuple(m[i][0] * n[0][j] + m[i][1] * n[1][j] for j in range(2))
                     for i in range(2))

    (a, b), (c, d) = columns(f_inner)
    det = a * d - b * c  # +-1, so the inverse is det * adj
    inverse = ((det * d, -det * b), (-det * c, det * a))
    (m11, m12), (m21, m22) = mul(inverse, mul(((q * q, -p * q), (0, 1)), columns(f_outer)))
    if m21 != 0 or m22 not in (1, -1) or abs(m11) != q * q:
        raise ValueError("framings are not meridian-based")
    return m11 * m22 // (q * q), q, -m12 * m22


def matmul(a, b):
    """The product of two IntMatrix values, entry by entry.  The library
    forms no product matrix: its Smith normal form check sums each entry
    of (U*A)*V over V's nonzero entries."""
    return IntMatrix(a.rows, b.cols, tuple(
        sum(a.entry(i, k) * b.entry(k, j) for k in range(a.cols))
        for i in range(a.rows) for j in range(b.cols)))


def det_reference(mat):
    """Determinant of a square IntMatrix by Bareiss elimination, one entry
    at a time: the row with the first nonzero entry at or below the pivot
    swapped up, 0 when there is none.  The library updates whole rows."""
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


def _reference_row_hermite(rows, top, width):
    """Put rows[top:] in row Hermite form on its first `width` columns, in
    place; the columns from `width` on only follow the row operations.

    Sweeps under the smallest nonzero |entry| of each column (first such
    row) with nearest-integer quotients, each pivot made positive, then
    every row above a pivot, rows[:top] included, reduced modulo it into
    [0, pivot) with floor quotients, bottom row first."""
    m = len(rows)
    cols = []
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


def _reference_is_row_echelon(rows):
    lead = -1
    for r in rows:
        j = next((j for j, x in enumerate(r) if x), len(r))
        if j < len(r) and (j <= lead or r[j] < 0):
            return False
        lead = j
    return True


def _reference_phase(d, t, width):
    """Row Hermite form of d with t's rows as extra columns; None if d is
    already echelon with positive pivots."""
    if _reference_is_row_echelon(d):
        return None
    rows = [x + y for x, y in zip(d, t)]
    _reference_row_hermite(rows, 0, width)
    return [r[:width] for r in rows], [r[width:] for r in rows]


def _reference_transpose(rows, cols):
    return [[r[j] for r in rows] for j in range(cols)]


def snf_reference(a):
    """Smith normal form (U, D, V) of the IntMatrix `a` by the elimination
    that carries each transform as extra columns: row phases on [D | U]
    and column phases on [D^T | V^T] until D is diagonal, then a 2x2 step
    per diagonal pair for the divisibility chain, then U's kernel rows put
    in Hermite form if they outgrow a Hadamard bound.  The library replays
    recorded row operations instead, and must agree entry for entry."""
    m, n = a.rows, a.cols
    d = a.to_rows()
    u = IntMatrix.identity(m).to_rows()
    vt = IntMatrix.identity(n).to_rows()
    while True:
        row = _reference_phase(d, u, n)
        if row:
            d, u = row
        col = _reference_phase(_reference_transpose(d, n), vt, m)
        if col is None:
            break
        dt, vt = col
        d = _reference_transpose(dt, m)
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
    if rank < m:
        bound = 1
        for i in range(m):
            norm2 = sum(x * x for x in a.row(i))
            if norm2:
                bound *= norm2
        if any(x * x > bound for row in u for x in row):
            _reference_row_hermite(u, rank, m)
    return SNFResult(
        IntMatrix(m, m, tuple(e for r in u for e in r)),
        IntMatrix(m, n, tuple(e for r in d for e in r)),
        IntMatrix(n, n, tuple(e for r in _reference_transpose(vt, n) for e in r)),
    )
