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
The elimination runs on D alone and records its row operations; each
phase then replays them on its transform, U or V^T, as one packed
integer per row when the phase is long, and on lists when it is short.
A full-rank phase packs its digits as wide as a Hadamard bound on the
result, or, in a first phase, as a narrower width it then checks.  A
rank-deficient phase has no such bound: it replays its sweeps in
stretches, each packed under a bound its operations prove from the
entries at its start, and the reduction above its pivots on lists.  The
transforms stay within a small multiple of the size of D.
The exact check forms U A from packed columns of U, multiplies it by V
over V's nonzero entries, and forms A V only on the columns whose d_j
is not 1.  Determinants are Bareiss's, each row scaled only when it is
used.  Every pivot rule is fixed, so identical inputs produce identical
(U, D, V) triples on every run.
"""

import operator
from math import gcd, isqrt, prod

from .record import InvariantError, Record, _store


class IntMatrix(Record):
    """An immutable integer matrix, row-major."""

    def __init__(self, rows, cols, entries):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        for e in entries:
            if type(e) is not int and (isinstance(e, bool) or not isinstance(e, int)):
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
    """Exact determinant of a square integer matrix (Bareiss elimination).

    Bareiss's step k replaces each entry of a row below the pivot p_k by
    (x p_k - c y) / p_{k-1}, c the row's entry under the pivot; a row with
    c = 0 is only scaled by p_k / p_{k-1}.  Those quotients telescope, so
    such a row is carried unchanged with `at`, the pivot it was last
    scaled to, and its entries are x prev / at when it is next used:
    an update divides by `at` instead of prev, and a pivot row is scaled
    once.  Every quotient is exact.
    """
    if mat.rows != mat.cols:
        raise ValueError("determinant of a non-square matrix")
    n = mat.rows
    if n == 0:
        return 1
    # The rows not yet pivoted, each with its `at`; a row's last w entries
    # are the columns not yet pivoted, so its entry in the current one is
    # row[-w] however long the row is.
    a = [(1, r) for r in mat.to_rows()]
    sign = 1
    prev = 1
    for w in range(n, 1, -1):
        if not a[0][1][-w]:
            for i in range(1, len(a)):
                if a[i][1][-w]:
                    a[0], a[i] = a[i], a[0]
                    sign = -sign
                    break
            else:
                return 0
        at, row = a[0]
        tail = row[1 - w :]
        p = row[-w]
        if at != prev:
            tail = [x * prev // at for x in tail]
            p = p * prev // at
        rest = []
        for at, row in a[1:]:
            c = row[-w]
            if c:
                rest.append((p, [(x * p - c * y) // at for x, y in zip(row[1 - w :], tail)]))
            else:
                rest.append((at, row))
        a = rest
        prev = p
    at, row = a[0]
    return sign * row[-1] * prev // at


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


def _row_hermite(rows, top):
    """Put rows[top:] in row Hermite form, in place; return (ids, rank, ops, back).

    Echelon form first, by sweeps under the smallest nonzero |entry| p of
    each column (first such row), each pivot made positive.  A sweep
    subtracts f times the pivot row from every row below it, f the
    nearest integer to row[c] / p, so each remainder is at most |p|/2
    and the sweeps make about a third fewer row operations than with
    floor quotients.  Then every row above a pivot, rows[:top] included,
    is reduced modulo it into [0, pivot) with floor quotients, bottom row
    first, which makes the form unique: reducing during the sweeps would
    add unreduced pivot rows to the rows above, column after column, and
    their entries would grow by thousands of bits.  A row added is zero
    left of the column it clears, so only the tail of the changed row is
    rewritten.

    Each row is named by its index on entry.  ids[r] names the row that
    ends at position r, rank counts the rows that end with a pivot, and
    ops lists every row operation `row i -= f * row k` as the three ints
    i, k, f, in order; a negation is f = 2 with k = i, and a swap moves
    only ids.  The reduction above the pivots starts at ops[back].
    _replay_rows, _replay_packed and _replay_stretches apply them to a
    transform.  The lists of rows[top:] are replaced, never changed.
    """
    m = len(rows)
    n = len(rows[0]) if rows else 0
    ids = list(range(m))
    ops = []
    cols = []  # the pivot column of rows[top], rows[top + 1], ...
    r = top
    # rows[r:] are kept as their tails from the current column c, the
    # entries left of it being zero: a sweep rewrites a whole tail.
    for c in range(n):
        if r == m:
            break
        piv = None
        for i in range(r, m):
            e = rows[i][0]
            if e and (piv is None or abs(e) < best):
                piv, best = i, abs(e)
        if piv is None:
            rows[r:] = [row[1:] for row in rows[r:]]
            continue
        # Each sweep finds the next one's pivot among its remainders, all
        # smaller than |p|; none left nonzero ends the column.
        while piv is not None:
            rows[r], rows[piv] = rows[piv], rows[r]
            ids[r], ids[piv] = ids[piv], ids[r]
            tail = rows[r]
            p = tail[0]
            p2 = 2 * p
            source = ids[r]
            piv = None
            for i in range(r + 1, m):
                row = rows[i]
                e = row[0]
                if e:
                    f = (2 * e + p) // p2
                    rows[i] = row = [x - f * y for x, y in zip(row, tail)]
                    ops += ids[i], source, f
                    e = row[0]
                    if e and (piv is None or abs(e) < best):
                        piv, best = i, abs(e)
        tail = rows[r]
        if tail[0] < 0:
            tail = [-x for x in tail]
            ops += ids[r], ids[r], 2
        rows[r] = [0] * c + tail
        rows[r + 1 :] = [row[1:] for row in rows[r + 1 :]]
        cols.append(c)
        r += 1
    rows[r:] = [[0] * n for _ in rows[r:]]
    back = len(ops)
    for i in reversed(range(r)):
        row = rows[i]
        for k in range(max(i + 1, top), r):
            c = cols[k - top]
            f = row[c] // rows[k][c]
            if f:
                row[c:] = [x - f * y for x, y in zip(row[c:], rows[k][c:])]
                ops += ids[i], ids[k], f
    return ids, r, ops, back


def _packing(bound, count):
    """(pack, unpack) between `count` ints of |x| <= bound and one int.

    A vector x packs to the sum of x_j * 2**(w*j), w a multiple of 8 with
    2**(w-1) > bound: balanced digits, so an integer combination of
    packed vectors is the packed combination, and it unpacks exactly
    whenever every entry of the combination is at most bound, whatever
    the intermediate sums were.  unpack raises OverflowError when p lies
    outside the width, as when the last entry exceeds bound; an entry past
    bound elsewhere unpacks wrong without an error, so a caller packing
    under a bound it has not proved checks the result.
    """
    size = (bound.bit_length() + 8) // 8
    half = 1 << (8 * size - 1)
    bias = int.from_bytes(half.to_bytes(size, "little") * count, "little")
    width = size * count

    def pack(row):
        return int.from_bytes(
            b"".join([(x + half).to_bytes(size, "little") for x in row]), "little"
        ) - bias

    def unpack(p):
        b = (p + bias).to_bytes(width, "little")
        return [int.from_bytes(b[j : j + size], "little") - half for j in range(0, width, size)]

    return pack, unpack


def _replay_rows(ops, ids, t):
    """The rows of t after the row operations ops, in the order ids, on lists."""
    t = list(t)
    it = iter(ops)
    for i, k, f in zip(it, it, it):
        t[i] = [x - f * y for x, y in zip(t[i], t[k])]
    return [t[i] for i in ids]


def _replay_packed(ops, ids, t, bound):
    """_replay_rows on packed rows, for a result with every |entry| <= bound."""
    pack, unpack = _packing(bound, len(t[0]))
    packed = [pack(r) for r in t]
    it = iter(ops)
    for i, k, f in zip(it, it, it):
        packed[i] -= f * packed[k]
    return [unpack(packed[i]) for i in ids]


def _replay_stretches(ops, ids, t):
    """_replay_rows on packed rows, 4 * PACK_MIN_OPS * len(t) operations at
    a time, each stretch under a bound proved at its start.

    b[i] starts as the largest |entry| of row i; an operation
    `row i -= f * row k` adds |f| * b[k] to it (a negation, k = i, leaves
    it), so no entry of row i exceeds b[i] at any point of the stretch,
    and the stretch unpacks exactly under max(b).
    """
    m = len(t)
    step = 3 * 4 * PACK_MIN_OPS * m
    for start in range(0, len(ops), step):
        stretch = ops[start : start + step]
        b = [max(map(abs, r)) for r in t]
        it = iter(stretch)
        for i, k, f in zip(it, it, it):
            if i != k:
                b[i] += abs(f) * b[k]
        t = _replay_packed(stretch, range(m), t, max(b))
    return [t[i] for i in ids]


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
        _row_hermite(u, rank)


# A full-rank phase replays packed only with at least this many operations
# per row: packing and unpacking a row costs about as much as that many list
# operations on it.  Lists were faster below 4 to 6 operations per row on
# transforms of 10 to 60 columns with random 8- to 400-bit entries, and below
# 6 to 9 in the benchmark's phases, whose operations touch small entries.
PACK_MIN_OPS = 8


def _hermite_phase(d, t):
    """Row Hermite form of d, in place, and t after its row operations; None
    if d is echelon with positive pivots.

    If d (m rows) has full row rank, the transform taking d to its
    Hermite form H is H_S * d_S^-1, d_S the columns of d at H's pivots,
    and no other matrix E has E d = H.  Every entry of H_S is at most its
    column's pivot, so at most |det d_S|, and by Hadamard's bound every
    entry of adj(d_S) is at most the product of the norms of the rows of
    d but one.  So no entry of the new t exceeds m^2 * max|t| times the
    product of the norms of all rows of d but the shortest, and a phase
    of at least PACK_MIN_OPS * m operations replays t packed under that
    bound.  The bound is loose when H is small: a torsion input's first
    phase packs entries of 11 bits under 432.  So when t is the identity
    (a first phase of its kind) and m * max|H| has under half the bound's
    bits, t is replayed under m * max|H| first, and that result is kept
    if it unpacks and its product with d is H, which proves it; otherwise
    t is replayed under the bound.

    A rank-deficient d has no such bound: many matrices E give E d = H.
    Its phase, if as long, replays the sweeps' operations, ops[:back], in
    stretches of 4 * PACK_MIN_OPS * m operations, each packed under a
    bound proved from t's entries at the stretch's start (see
    _replay_stretches), so the unpacked rows are exact and need no check.
    The reduction above the pivots, ops[back:], replays on lists: it grows
    the pivot rows to hundreds of bits (1,323 on a low-rank 60x60), and
    packed in stretches it ran slower than on lists and held about four
    times the memory.  A shorter phase replays t on lists.
    """
    if _is_row_echelon(d):
        return None
    d_in = d[:]  # _row_hermite replaces d's rows and changes none of them
    ids, rank, ops, back = _row_hermite(d, 0)
    m = len(d)
    if len(ops) < 3 * PACK_MIN_OPS * m:
        return d, _replay_rows(ops, ids, t)
    if rank < m:
        t = _replay_stretches(ops[:back], range(m), t)
        return d, _replay_rows(ops[back:], ids, t)
    norms = [sum(map(operator.mul, r, r)) for r in d_in]
    norms.remove(min(norms))
    bound = m * m * (isqrt(prod(norms)) + 1) * _max_abs(t)
    tried = m * _max_abs(d)
    if 2 * tried.bit_length() < bound.bit_length() and t == IntMatrix.identity(m).to_rows():
        try:
            new = _replay_packed(ops, ids, t, tried)
        except OverflowError:
            pass
        else:
            most = m * _max_abs(new) * _max_abs(d_in)
            if _combinations(new, d_in, len(d[0]), most) == d:
                return d, new
    return d, _replay_packed(ops, ids, t, bound)


def _max_abs(rows):
    return max(max(map(abs, r)) for r in rows)


def _transpose(rows, cols):
    return [[r[j] for r in rows] for j in range(cols)]


def smith_normal_form(a):
    """Smith normal form of an integer matrix.

    Returns SNFResult(U, D, V) with U * a * V = D, det(U) and det(V) in
    {+1, -1}, D diagonal with d_i >= 0 and d_1 | d_2 | ... , checked by
    check_smith_normal_form: for a square `a` with no zero d_i, by the
    integrality of U's and V's inverses, otherwise by det(U) and det(V).

    One elimination, _row_hermite, alternates between the rows of D (a
    row phase) and its columns (a column phase, on D^T) until D is
    diagonal (Kannan and Bachem).  It runs on D alone and records its row
    operations, which are then replayed on the transform: U in a row
    phase, V^T in a column phase.  A phase with at least PACK_MIN_OPS
    operations per row replays them on packed rows, one integer per row:
    on a full-row-rank D under a Hadamard bound on the result or, first,
    under a narrower width it then checks; on a rank-deficient D in
    stretches, each under a bound proved at its start, with the
    reduction above the pivots on lists (see _hermite_phase).  A shorter
    phase replays on lists.  The sweeps use nearest-integer
    quotients, and the reduction above each pivot floor quotients into
    [0, pivot), so every phase ends in the unique Hermite form of its
    input: a nonsingular square input has one (U, D, V) whatever the
    sweeps do, and only the transforms of a rank-deficient input depend
    on them.  D is unique for every input.
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
        row = _hermite_phase(d, u)
        if row:
            d, u = row
        # d is now in echelon form; if its transpose is too, d is diagonal.
        col = _hermite_phase(_transpose(d, n), vt)
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


def _combinations(coeffs, vectors, count, bound):
    """[sum of c_j * vectors[j] for c in coeffs], each vector of `count`
    ints, on packed vectors; every entry of a sum is at most bound."""
    pack, unpack = _packing(bound, count)
    packed = [pack(v) for v in vectors]
    return [unpack(sum(map(operator.mul, c, packed))) for c in coeffs]


def _largest(m):
    return max(map(abs, m.entries), default=0)


def check_smith_normal_form(a, result):
    """Raise InvariantError unless `result` is a Smith normal form of `a`.

    Exact post-conditions, in this order: U, D and V of the shapes a
    fixes, U * a * V == D, D diagonal, U and V unimodular, and D's
    diagonal a nonnegative divisibility chain, zeros last.  U a is a sum
    of a's entries times packed columns of U (see _packing), every entry
    at most m max|U| max|a|.  Each row of (U a) V is the sum of the rows
    of V, kept as their nonzero entries, times the nonzero entries of
    that row of U a, and is compared with D's row; no product matrix is
    built.  For a square `a` with no zero on D's diagonal, U and V are
    unimodular exactly when D^-1 (U a) and (a V) D^-1, their inverses,
    are integral: d_i divides row i of U a and column i of a V.  A d_i
    of 1 divides anything, so only the other rows of U a are tested, and
    a V is formed only on the other columns, from packed rows of V,
    every entry at most n max|a| max|V|.  Neither inverse is built.  For
    a rank-deficient or non-square `a`, a and D determine no inverse for
    U's kernel rows or V's kernel columns, so det(U) and det(V) are
    computed by Bareiss elimination.
    """
    m, n = a.rows, a.cols
    for name, mat, rows, cols in (
        ("U", result.U, m, m), ("D", result.D, m, n), ("V", result.V, n, n)
    ):
        if (mat.rows, mat.cols) != (rows, cols):
            raise InvariantError(
                "smith normal form: %s is %dx%d, not %dx%d"
                % (name, mat.rows, mat.cols, rows, cols)
            )
    top = _largest(a)
    ua_cols = _combinations(
        [a.entries[j::n] for j in range(n)],
        [result.U.entries[i::m] for i in range(m)],
        m,
        m * _largest(result.U) * top,
    )
    ua = list(zip(*ua_cols))
    v = result.V
    v_rows = [[(j, y) for j, y in enumerate(v.row(k)) if y] for k in range(n)]
    d = result.D
    for i, r in enumerate(ua):
        uav = [0] * n
        for x, v_row in zip(r, v_rows):
            if x:
                for j, y in v_row:
                    uav[j] += x * y
        if tuple(uav) != d.row(i):
            raise InvariantError("smith normal form: U * A * V differs from D")
    if any(any(r[:i]) or any(r[i + 1 :]) for i, r in enumerate(map(d.row, range(m)))):
        raise InvariantError("smith normal form: D is not diagonal")
    diag = result.diagonal()
    if m == n and all(diag):
        # d_j = 1 divides anything: only the other rows and columns are tested.
        tested = [j for j, dj in enumerate(diag) if dj != 1]
        unimodular = not any(x % diag[i] for i in tested for x in ua[i])
        if unimodular and tested:
            av = _combinations(
                map(a.row, range(m)),
                [[row[j] for j in tested] for row in map(v.row, range(n))],
                len(tested),
                n * top * _largest(v),
            )
            unimodular = not any(x % diag[j] for r in av for x, j in zip(r, tested))
    else:
        unimodular = det(result.U) in (1, -1) and det(v) in (1, -1)
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
