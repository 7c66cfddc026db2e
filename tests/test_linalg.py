"""Tests for exact integer matrices, Smith normal form, and group invariants.

The Smith form is checked against an independent oracle: the k-th
determinantal divisor (gcd of all k x k minors) is invariant under
unimodular row/column operations, and the k-th diagonal entry of the
Smith form equals d_k / d_{k-1}.  Beyond 5 x 5, where the minors are
too many, sympy's Smith normal form is the oracle.  Determinants
themselves are checked against naive cofactor expansion.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from slopecert import (
    FPAbelianGroup,
    IntMatrix,
    InvariantError,
    group_from_presentation,
    smith_normal_form,
)
from slopecert import linalg
from slopecert.linalg import SNFResult, check_smith_normal_form, det

from oracles import det_reference, matmul, snf_reference


def cofactor_det(rows):
    if not rows:
        return 1
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * head * cofactor_det(minor)
    return total


def determinantal_divisor(m, k):
    """gcd of all k x k minors; 0 when every minor vanishes."""
    rows = m.to_rows()
    g = 0
    for ri in combinations(range(m.rows), k):
        for ci in combinations(range(m.cols), k):
            sub = [[rows[i][j] for j in ci] for i in ri]
            g = gcd(g, cofactor_det(sub))
    return g


def random_matrix(rng, rows, cols, bound=9):
    return IntMatrix.from_rows(
        [[rng.randrange(-bound, bound + 1) for _ in range(cols)] for _ in range(rows)]
    )


# --- IntMatrix ------------------------------------------------------------


def test_matrix_validation():
    with pytest.raises(ValueError, match="ragged"):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(TypeError, match="integral"):
        IntMatrix.from_rows([[Fraction(1, 2)]])
    with pytest.raises(TypeError, match="integral"):
        IntMatrix.from_rows([[1.0]])


def test_matrix_mul_and_apply():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert matmul(a, b).to_rows() == [[2, 1], [4, 3]]
    assert a.apply((1, 1)) == (3, 7)
    assert a.transpose().to_rows() == [[1, 3], [2, 4]]


def test_det_against_cofactor_expansion():
    rng = random.Random(3)
    assert det(IntMatrix.identity(0)) == 1
    for _ in range(150):
        n = rng.randrange(1, 5)
        m = random_matrix(rng, n, n)
        assert det(m) == cofactor_det(m.to_rows())


def det_inputs(rng):
    """Square matrices of 1 to 30 rows: dense; sparse, whose pivots are
    often zero and swapped for a row below; permutations, which swap at
    almost every step; singular ones, with a repeated row, a zero column
    or a rank below n; dense with entries up to 10^12; block-diagonal,
    banded and row-permuted triangular ones, whose rows keep zeros under
    several pivots in a row; and the U and V of seeded low-rank and
    torsion Smith forms, square and not, as check_smith_normal_form
    computes them for a rank-deficient or non-square input."""
    for n in range(1, 31):
        yield random_matrix(rng, n, n)
        yield IntMatrix.from_rows(
            [[rng.randint(-9, 9) if rng.random() < 0.3 else 0 for _ in range(n)]
             for _ in range(n)]
        )
        order = rng.sample(range(n), n)
        yield IntMatrix.from_rows([[int(j == order[i]) for j in range(n)] for i in range(n)])
        a = random_matrix(rng, n, n).to_rows()
        a[rng.randrange(n)] = a[rng.randrange(n)][:]
        yield IntMatrix.from_rows(a)
        j = rng.randrange(n)
        yield IntMatrix.from_rows([[0 if k == j else x for k, x in enumerate(r)] for r in a])
        k = max(1, n // 2)
        yield IntMatrix.from_rows(product(
            [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)],
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)],
        ))
        yield random_matrix(rng, n, n, bound=10**12)
    for n in range(1, 31):
        k = rng.randint(1, n)
        yield IntMatrix.from_rows(
            [[rng.randint(-9, 9) if (i < k) == (j < k) else 0 for j in range(n)]
             for i in range(n)]
        )
        band = rng.randint(1, 3)
        yield IntMatrix.from_rows(
            [[rng.randint(-9, 9) if abs(i - j) <= band else 0 for j in range(n)]
             for i in range(n)]
        )
        order = rng.sample(range(n), n)
        yield IntMatrix.from_rows(
            [[rng.choice((-3, -2, -1, 1, 2, 3)) if j == order[i] else
              rng.randint(-9, 9) if j > order[i] else 0 for j in range(n)]
             for i in range(n)]
        )
    for rows, cols in ((6, 6), (12, 9), (9, 12), (20, 20), (30, 30)):
        for kind in ("low-rank", "torsion"):
            result = smith_normal_form(
                IntMatrix.from_rows(seeded_snf_input(rng, kind, rows, cols)[0]))
            yield result.U
            yield result.V


def test_det_equals_the_entrywise_bareiss_elimination():
    # Past the sizes cofactor expansion reaches: the same pivots and swaps,
    # so the same value, with whole rows updated at a time and a row with a
    # zero under the pivot scaled only when it is next used.
    counts = Counter()
    for a in det_inputs(random.Random(31)):
        value = det(a)
        assert value == det_reference(a), a
        counts[value == 0] += 1
    assert counts[True] > 30 and counts[False] > 30


# --- Smith normal form ----------------------------------------------------


def assert_valid_snf(a, result):
    u, d, v = result.U, result.D, result.V
    assert matmul(matmul(u, a), v).to_rows() == d.to_rows()
    assert det(u) in (1, -1)
    assert det(v) in (1, -1)
    diag = result.diagonal()
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.entry(i, j) == 0
    for i, e in enumerate(diag):
        assert e >= 0
        if i + 1 < len(diag) and e != 0:
            assert diag[i + 1] % e == 0
        if e == 0 and i + 1 < len(diag):
            assert diag[i + 1] == 0


def test_snf_identity():
    result = smith_normal_form(IntMatrix.identity(3))
    assert result.D.to_rows() == IntMatrix.identity(3).to_rows()


def test_snf_classic_example():
    result = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert result.diagonal() == (1, 6)
    # Diagonal already, so no Hermite phase runs: one 2x2 step with
    # 1 = 2*2 - 1*3 gives these transforms.
    assert result.U.to_rows() == [[2, -1], [-3, 2]]
    assert result.V.to_rows() == [[1, 3], [1, 4]]


@pytest.mark.parametrize(
    "diag, expected",
    [((6, 3), (3, 6)), ((4, 6, 10), (2, 2, 60)), ((12, 8, 9, 0), (1, 12, 72, 0))],
)
def test_snf_divisibility_steps_on_a_diagonal(diag, expected):
    n = len(diag)
    a = IntMatrix(n, n, tuple(diag[i] if i == j else 0 for i in range(n) for j in range(n)))
    result = smith_normal_form(a)
    assert result.diagonal() == expected
    assert_valid_snf(a, result)


def test_snf_known_divisors():
    a = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    result = smith_normal_form(a)
    assert_valid_snf(a, result)
    assert result.diagonal() == (2, 2, 156)


def test_snf_zero_and_empty():
    z = IntMatrix.from_rows([[0, 0], [0, 0]])
    assert smith_normal_form(z).diagonal() == (0, 0)
    for rows, cols in ((0, 0), (0, 3), (3, 0)):
        m = IntMatrix(rows, cols, ())
        result = smith_normal_form(m)
        assert result.diagonal() == ()
        assert_valid_snf(m, result)


def divisor_diagonal(a):
    """The Smith diagonal of `a` from its determinantal divisors."""
    n = min(a.rows, a.cols)
    diag = []
    previous = 1
    for k in range(1, n + 1):
        dk = determinantal_divisor(a, k)
        if dk == 0:  # then every larger minor vanishes too
            return tuple(diag) + (0,) * (n - len(diag))
        diag.append(dk // previous)
        previous = dk
    return tuple(diag)


def test_snf_random_against_determinantal_divisors():
    rng = random.Random(41)
    for _ in range(120):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        a = random_matrix(rng, rows, cols)
        result = smith_normal_form(a)
        assert_valid_snf(a, result)
        assert result.diagonal() == divisor_diagonal(a)


def unimodular_rows(draw, st, n):
    """An n x n unimodular matrix: the identity after random row additions."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 2 * n)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.sampled_from((-2, -1, 1, 2)))
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return m


def product(x, y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]


def snf_inputs(st):
    """Matrices up to 12 x 12: dense, low-rank products, torsion L * diag * R,
    and dense with zero rows and columns; 1 x n and n x 1 shapes are drawn
    as often as the others."""
    size = st.integers(1, 12)
    shapes = st.tuples(st.just(1), size) | st.tuples(size, st.just(1)) | st.tuples(size, size)

    @st.composite
    def build(draw):
        rows, cols = draw(shapes)
        kind = draw(st.sampled_from(("dense", "low-rank", "torsion", "zero lines")))

        def block(r, c, bound):
            return [[draw(st.integers(-bound, bound)) for _ in range(c)] for _ in range(r)]

        if kind == "low-rank":
            k = draw(st.integers(0, min(rows, cols)))
            a = product(block(rows, k, 3), block(k, cols, 3)) if k else block(rows, cols, 0)
        elif kind == "torsion":
            factors = st.sampled_from((0, 1, 1, 2, 3, 4, 6, 12))
            diag = [[draw(factors) if i == j else 0 for j in range(cols)] for i in range(rows)]
            a = product(product(unimodular_rows(draw, st, rows), diag), unimodular_rows(draw, st, cols))
        else:
            a = block(rows, cols, 9)
            if kind == "zero lines":
                for i in draw(st.sets(st.integers(0, rows - 1))):
                    a[i] = [0] * cols
                for j in draw(st.sets(st.integers(0, cols - 1))):
                    for row in a:
                        row[j] = 0
        return IntMatrix.from_rows(a)

    return build()


def test_snf_property_against_oracles():
    hypothesis = pytest.importorskip("hypothesis")
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import ZZ, Matrix

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(snf_inputs(hypothesis.strategies))
    def check(a):
        result = smith_normal_form(a)
        check_smith_normal_form(a, result)
        if max(a.rows, a.cols) <= 5:
            expected = divisor_diagonal(a)
        else:
            factors = normalforms.invariant_factors(Matrix(a.to_rows()), domain=ZZ)
            expected = tuple(abs(int(x)) for x in factors)
        assert result.diagonal() == expected

    check()


def seeded_unimodular(rng, n):
    """An n x n unimodular matrix, n >= 2: the identity after 2n random row additions."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return m


def seeded_snf_input(rng, kind, rows, cols):
    """(a, b): a dense matrix, a product of rank min(rows, cols) // 2, or
    L * diag * R with unimodular L, R and zeros among the factors; b has
    the Smith form of a (a itself, or diag)."""
    if kind == "dense":
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        return a, a
    if kind == "low-rank":
        k = min(rows, cols) // 2
        b = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rows)]
        c = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(k)]
        a = product(b, c)
        return a, a
    factors = (0, 1, 1, 2, 3, 4, 6, 12)
    diag = [[rng.choice(factors) if i == j else 0 for j in range(cols)] for i in range(rows)]
    a = product(product(seeded_unimodular(rng, rows), diag), seeded_unimodular(rng, cols))
    return a, diag


def test_snf_against_sympy_from_20_to_40_rows():
    # Sizes past the property test's 12 x 12, where the sweeps run many
    # rounds per column; square and non-square, full rank and rank-deficient.
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import ZZ, Matrix

    # sympy's own elimination did not finish in minutes on the 40 x 40
    # L * diag * R, so a torsion input's factors are sympy's for its diag.
    rng = random.Random(47)
    shapes = ((20, 20), (31, 24), (23, 36), (40, 40))
    deficient = 0
    for rows, cols in shapes:
        for kind in ("dense", "low-rank", "torsion"):
            a, same_form = seeded_snf_input(rng, kind, rows, cols)
            factors = normalforms.invariant_factors(Matrix(same_form), domain=ZZ)
            expected = tuple(abs(int(x)) for x in factors)
            result = smith_normal_form(IntMatrix.from_rows(a))
            assert result.diagonal() == expected, (kind, rows, cols)
            deficient += expected[-1] == 0
    assert deficient >= len(shapes)


def transform_bits(result):
    return max(abs(e).bit_length() for e in result.U.entries + result.V.entries)


def test_snf_transforms_stay_small_on_a_dense_60x60():
    # Every transform entry stays near the size of D's entries: 280 bits
    # here, with floor or nearest-integer sweeps alike.  An elimination that
    # let them grow reached thousands.
    a = random_matrix(random.Random(1), 60, 60)
    assert transform_bits(smith_normal_form(a)) <= 300


def test_snf_transforms_stay_small_on_a_low_rank_60x60():
    # Rank 30: the 30 rows of U that annihilate the input are not unique,
    # so this is where the sweeps could let them grow.  Floor-quotient
    # sweeps gave 88 bits here.
    a = IntMatrix.from_rows(seeded_snf_input(random.Random(1), "low-rank", 60, 60)[0])
    result = smith_normal_form(a)
    assert result.diagonal()[29:31] == (1, 0)
    assert transform_bits(result) <= 100


def unit_triangular_product(rng, n):
    """L * R for unit lower-triangular L and unit upper-triangular R with
    entries in [-9, 9]: unimodular, with an inverse whose entries grow by
    about four bits per row."""
    lower = [[1 if i == j else rng.randint(-9, 9) if j < i else 0 for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else rng.randint(-9, 9) if j > i else 0 for j in range(n)] for i in range(n)]
    return product(lower, upper)


def reference_inputs():
    """Matrices of every kind the elimination meets, for snf_reference."""
    rng = random.Random(30)
    for rows, cols in ((3, 3), (7, 7), (12, 12), (25, 25), (5, 9), (9, 5)):
        yield random_matrix(rng, rows, cols)
        yield IntMatrix.from_rows(
            [[rng.randint(-9, 9) if rng.random() < 0.2 else 0 for _ in range(cols)]
             for _ in range(rows)]
        )
        for kind in ("low-rank", "torsion"):
            yield IntMatrix.from_rows(seeded_snf_input(rng, kind, rows, cols)[0])
        yield random_matrix(rng, rows, cols, bound=10**12)
    for rows, cols in ((0, 0), (0, 4), (4, 0), (1, 1), (3, 3), (2, 5)):
        yield IntMatrix(rows, cols, (0,) * (rows * cols))
    for n in (1, 2, 7, 30):
        yield random_matrix(rng, 1, n)
        yield random_matrix(rng, n, 1)
    for p, q in ((2, 3), (-5, 3), (1, 2), (7, 40), (-3, 2), (1001, 1000)):
        yield IntMatrix.from_rows([[q, -p, -q]])
    for n in (2, 5, 12, 20):
        yield IntMatrix.from_rows(unit_triangular_product(rng, n))


def test_snf_equals_the_reference_elimination(monkeypatch):
    # The elimination runs on D alone and replays its row operations on
    # the transforms: packed for a long full-rank phase, in packed stretches
    # for a long rank-deficient one, and on lists otherwise; snf_reference
    # carries each transform as extra columns instead.  U, D and V agree
    # entry for entry, and all three replays run.
    replays = Counter()
    for name in ("_replay_packed", "_replay_stretches", "_replay_rows"):
        real = getattr(linalg, name)

        def counted(*args, real=real, name=name):
            replays[name] += 1
            return real(*args)

        monkeypatch.setattr(linalg, name, counted)
    inputs = 0
    for a in reference_inputs():
        assert smith_normal_form(a) == snf_reference(a), a
        inputs += 1
    assert inputs == 54
    assert all(replays[name] > 0 for name in ("_replay_packed", "_replay_stretches", "_replay_rows"))


def low_rank(rng, rows, cols, rank, bound):
    """A rows x cols product of rank at most `rank`, entries of its factors in
    [-bound, bound]; rank 0 gives the zero matrix."""
    b = [[rng.randint(-bound, bound) for _ in range(rank)] for _ in range(rows)]
    c = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rank)]
    return [[sum(x * y for x, y in zip(r, col)) for col in zip(*c)] if rank else [0] * cols
            for r in b]


# (rows, cols, rank, bound): square and not, a single row or column, zero
# rows or columns, and products long enough to replay in several stretches.
LOW_RANK_SHAPES = [
    (30, 30, 15, 3), (40, 25, 12, 3), (25, 40, 10, 3), (45, 45, 22, 3),
    (24, 24, 8, 10**6), (12, 30, 5, 9), (1, 30, 1, 9), (30, 1, 1, 9),
    (1, 30, 0, 9), (30, 1, 0, 9), (0, 5, 0, 9), (5, 0, 0, 9), (0, 0, 0, 9),
]


def low_rank_inputs():
    rng = random.Random(35)
    for rows, cols, rank, bound in LOW_RANK_SHAPES:
        yield IntMatrix(rows, cols, tuple(e for r in low_rank(rng, rows, cols, rank, bound) for e in r))


def test_stretched_replay_equals_the_list_replay_on_low_rank_inputs():
    # Each phase's operations, on the rows and on the columns of each input,
    # replayed on a transform with entries up to 10^6: in stretches, on
    # packed rows, and on lists, the rows agree.  A phase with no rows makes
    # no operations and is left out.
    rng = random.Random(36)
    several = 0
    for a in low_rank_inputs():
        assert smith_normal_form(a) == snf_reference(a), a
        for rows in (a.to_rows(), a.transpose().to_rows()):
            m = len(rows)
            if not m:
                continue
            ids, rank, ops, back = linalg._row_hermite(rows, 0)
            t = [[rng.randint(-10**6, 10**6) for _ in range(m)] for _ in range(m)]
            for part in (ops[:back], ops):
                assert linalg._replay_stretches(part, ids, t) == linalg._replay_rows(part, ids, t)
            several += back > 3 * 4 * linalg.PACK_MIN_OPS * m
    assert several >= 4


def test_each_stretch_unpacks_within_the_bound_it_proved(monkeypatch):
    # Each stretch packs once, and every row it unpacks is within the bound
    # it packed under.  After each elimination of a phase (top 0), a long
    # rank-deficient phase replays its sweeps, ops[:back], in stretches and
    # its reduction above the pivots, ops[back:], on lists; a shorter phase
    # replays all of ops on lists, and a long full-rank one neither.
    events, bounds = [], []
    stretching = []
    real_packing, real_stretches = linalg._packing, linalg._replay_stretches
    real_rows, real_hermite = linalg._replay_rows, linalg._row_hermite

    def packing(bound, count):
        pack, unpack = real_packing(bound, count)
        if not stretching:
            return pack, unpack
        bounds.append(bound)

        def checked(p):
            row = unpack(p)
            assert max(map(abs, row)) <= bound
            return row

        return pack, checked

    def stretches(ops, ids, t):
        stretching.append(True)
        events.append(("stretches", ops, len(t)))
        try:
            return real_stretches(ops, ids, t)
        finally:
            stretching.pop()

    def on_lists(ops, ids, t):
        events.append(("lists", ops, len(t)))
        return real_rows(ops, ids, t)

    def hermite(rows, top):
        result = real_hermite(rows, top)
        if top == 0:
            events.append(("phase", len(rows), result))
        return result

    monkeypatch.setattr(linalg, "_packing", packing)
    monkeypatch.setattr(linalg, "_replay_stretches", stretches)
    monkeypatch.setattr(linalg, "_replay_rows", on_lists)
    monkeypatch.setattr(linalg, "_row_hermite", hermite)
    for a in low_rank_inputs():
        smith_normal_form(a)
    starts = [j for j, e in enumerate(events) if e[0] == "phase"] + [len(events)]
    shapes = Counter()
    for j, end in zip(starts, starts[1:]):
        _, m, (ids, rank, ops, back) = events[j]
        replays = [e[:2] for e in events[j + 1 : end]]
        if len(ops) < 3 * linalg.PACK_MIN_OPS * m:
            assert replays == [("lists", ops)]
            shapes["short"] += 1
        elif rank < m:
            assert replays == [("stretches", ops[:back]), ("lists", ops[back:])]
            shapes["stretched"] += 1
        else:
            assert replays == []
    step = 3 * 4 * linalg.PACK_MIN_OPS
    assert len(bounds) == sum(-(-len(ops) // (step * m)) for kind, ops, m in events
                              if kind == "stretches")
    assert shapes["short"] >= 4 and shapes["stretched"] >= 4


def elementary_product(n, ops):
    """(A, A^-1) for the product A of the row operations `row i += c * row j`,
    (i, j, c) in ops in order, on the n x n identity."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    inverse = [r[:] for r in a]
    for i, j, c in ops:
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    for i, j, c in reversed(ops):
        inverse[i] = [x - c * y for x, y in zip(inverse[i], inverse[j])]
    return a, inverse


def big_multipliers(rng, n):
    return elementary_product(
        n, [(*rng.sample(range(n), 2), rng.randint(-10**6, 10**6)) for _ in range(4 * n)])[0]


def unit_triangular_inverse_and_one(rng, n):
    """diag((L R)^-1, 1) for unit triangular L and R with entries in [-9, 9]:
    its inverse diag(L R, 1) has entries a little past 127, and 0 in its last
    column but one entry."""
    upper = [(i, j, rng.randint(-9, 9)) for i in range(n) for j in range(i + 1, n)]
    lower = [(i, j, rng.randint(-9, 9)) for i in reversed(range(n)) for j in range(i)]
    inverse = elementary_product(n, upper + lower)[1]
    return [r + [0] for r in inverse] + [[0] * n + [1]]


@pytest.mark.parametrize("rows, first", [
    # A unimodular input has H = I, so its first phase tries digits as wide
    # as m, and its transform is the input's inverse.  Here the inverse's
    # entries reach hundreds of bits: the top digit overflows, and unpack
    # raises OverflowError.
    (big_multipliers(random.Random(0), 10), "overflow"),
    # Entries a little past the width, none in the last column: each carries
    # one into the next digit, which unpacks without an error into a wrong
    # transform, and its product with the input is not H.
    (unit_triangular_inverse_and_one(random.Random(0), 7), "unpacked"),
])
def test_snf_replays_under_the_hadamard_bound_when_the_tried_width_fails(rows, first,
                                                                       monkeypatch):
    replays = []
    real = linalg._replay_packed

    def replay(ops, ids, t, bound):
        try:
            result = real(ops, ids, t, bound)
        except OverflowError:
            replays.append((bound, "overflow"))
            raise
        replays.append((bound, "unpacked"))
        return result

    monkeypatch.setattr(linalg, "_replay_packed", replay)
    a = IntMatrix.from_rows(rows)
    assert smith_normal_form(a) == snf_reference(a)
    assert replays[0] == (len(rows), first)
    assert replays[1][0] > len(rows) and replays[1][1] == "unpacked"


def test_snf_fixed_point():
    # running the algorithm on its own output changes nothing
    rng = random.Random(43)
    for _ in range(30):
        a = random_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5))
        d = smith_normal_form(a).D
        assert smith_normal_form(d).D.to_rows() == d.to_rows()


def doctored(a, u, d, v):
    """A claimed Smith form (U, D, V) of the matrix with rows `a`."""
    return IntMatrix.from_rows(a), SNFResult(
        IntMatrix.from_rows(u), IntMatrix.from_rows(d), IntMatrix.from_rows(v)
    )


def test_snf_check_requires_u_a_v_equal_to_d():
    a = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    good = smith_normal_form(a)
    check_smith_normal_form(a, good)
    wrong_d = IntMatrix.from_rows([[2, 0, 0], [0, 2, 0], [0, 0, 312]])
    with pytest.raises(InvariantError, match="U \\* A \\* V differs from D"):
        check_smith_normal_form(a, SNFResult(good.U, wrong_d, good.V))


def test_snf_check_requires_unimodular_u_and_v():
    # U * A * V == D and D is a chain, but det(U) = 2, then det(V) = 3
    for u, d, v in (([[2]], [[2]], [[1]]), ([[1]], [[3]], [[3]])):
        a, result = doctored([[1]], u, d, v)
        with pytest.raises(InvariantError, match="not unimodular"):
            check_smith_normal_form(a, result)


@pytest.mark.parametrize(
    "a, u, d, v",
    [
        # Square, no zero on D's diagonal: the inverse test.  Only U fails,
        # then only V.
        ([[1, 0], [0, 1]], [[1, 0], [0, 2]], [[1, 0], [0, 2]], [[1, 0], [0, 1]]),
        ([[1, 0], [0, 1]], [[1, 0], [0, 1]], [[1, 0], [0, 2]], [[1, 0], [0, 2]]),
        # Rank-deficient, then non-square: the determinants.
        ([[1, 0], [0, 0]], [[1, 0], [0, 2]], [[1, 0], [0, 0]], [[1, 0], [0, 1]]),
        (
            [[1, 0, 0], [0, 1, 0]],
            [[1, 0], [0, 1]],
            [[1, 0, 0], [0, 1, 0]],
            [[1, 0, 0], [0, 1, 0], [0, 0, 2]],
        ),
    ],
)
def test_snf_check_rejects_a_transform_that_is_not_unimodular(a, u, d, v):
    a, result = doctored(a, u, d, v)
    with pytest.raises(InvariantError, match="not unimodular"):
        check_smith_normal_form(a, result)


@pytest.mark.parametrize(
    "u, d, v, message",
    [
        (IntMatrix.identity(3), IntMatrix.identity(2), IntMatrix.identity(2), "U is 3x3, not 2x2"),
        (IntMatrix.identity(2), IntMatrix(2, 3, (1, 0, 0, 0, 1, 0)), IntMatrix.identity(2),
         "D is 2x3, not 2x2"),
        (IntMatrix.identity(2), IntMatrix.identity(2), IntMatrix.identity(1), "V is 1x1, not 2x2"),
    ],
    ids=("U", "D", "V"),
)
def test_snf_check_names_a_transform_of_the_wrong_shape(u, d, v, message):
    # Before any product, so a wrong shape is an invariant error rather
    # than IntMatrix.mul's dimension mismatch.
    a = IntMatrix.identity(2)
    with pytest.raises(InvariantError, match="smith normal form: " + message):
        check_smith_normal_form(a, SNFResult(u, d, v))


def test_snf_check_reads_the_diagonal_of_d_before_unimodularity():
    # D = U * A * V is not diagonal and det(U) = 2: D is named, since the
    # inverse test assumes a diagonal D.
    a, result = doctored([[1, 1], [0, 1]], [[2, 0], [0, 1]], [[2, 2], [0, 1]], [[1, 0], [0, 1]])
    with pytest.raises(InvariantError, match="D is not diagonal"):
        check_smith_normal_form(a, result)


def bareiss_check(a, result):
    """The reference: the check as it was before the inverse test, with
    det(U) and det(V) by Bareiss elimination ahead of D's diagonal."""
    u, d, v = result.U, result.D, result.V
    if matmul(matmul(u, a), v) != d:
        raise InvariantError("smith normal form: U * A * V differs from D")
    if det(u) not in (1, -1) or det(v) not in (1, -1):
        raise InvariantError("smith normal form: U or V is not unimodular")
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


def verdict(check, a, result):
    try:
        check(a, result)
    except InvariantError as e:
        return str(e)
    return None


def doctorings(rng, result):
    """The rows of (U, D, V), then of claims made from them: a row of U
    scaled with D's row, and a column of V scaled with D's column, each at
    an index where the true d is 1 and at one where it is not (where there
    are such), then both, two entries of U swapped, and a nonzero written
    into a zero entry of V."""
    u, d, v = result.U.to_rows(), result.D.to_rows(), result.V.to_rows()
    diag = result.diagonal()

    def indices(count):
        ones = [i for i in range(count) if i < len(diag) and diag[i] == 1]
        others = [i for i in range(count) if i not in ones]
        return [rng.choice(s) for s in (ones, others) if s]

    def scale_row(u, d, i):
        c = rng.choice((2, 3, -1))
        u, d = [r[:] for r in u], [r[:] for r in d]
        u[i] = [c * x for x in u[i]]
        d[i] = [c * x for x in d[i]]
        return u, d

    def scale_column(d, v, j):
        c = rng.choice((2, 3, -1))
        return ([[c * x if k == j else x for k, x in enumerate(r)] for r in m] for m in (d, v))

    def swap(u):
        u = [r[:] for r in u]
        (i, j), (k, l) = [(rng.randrange(len(u)), rng.randrange(len(u))) for _ in range(2)]
        u[i][j], u[k][l] = u[k][l], u[i][j]
        return u

    yield u, d, v
    for i in indices(len(u)):
        yield (*scale_row(u, d, i), v)
    for j in indices(len(v)):
        yield (u, *scale_column(d, v, j))
    u2, d2 = scale_row(u, d, rng.randrange(len(u)))
    yield (u2, *scale_column(d2, v, rng.randrange(len(v))))
    yield swap(u), d, v
    zeros = [(k, j) for k, r in enumerate(v) for j, x in enumerate(r) if not x]
    if zeros:
        k, j = rng.choice(zeros)
        v = [r[:] for r in v]
        v[k][j] = rng.choice((1, -1, 2))
        yield u, d, v


def bareiss_check_inputs(rng):
    """Inputs of 1-6 rows and columns, square and not, of full rank and
    not; then a dense 60 x 60, whose V is sparse and whose d_i are 1 but
    one, a unimodular 12 x 12, whose d_i are all 1, so that the inverse
    test forms no column of A V, and a 40 x 40 with entries up to 10^12,
    where the packed products' digits are widest."""
    for _ in range(300):
        rows = rng.randrange(1, 7)
        a = random_matrix(rng, rows, rng.choice((rows, rng.randrange(1, 7))))
        if rows > 1 and rng.random() < 0.4:
            # a repeated row: rank-deficient
            r = a.to_rows()
            r[-1] = r[0]
            a = IntMatrix.from_rows(r)
        yield a
    yield random_matrix(random.Random(1), 60, 60)
    yield IntMatrix.from_rows(unit_triangular_product(rng, 12))
    yield random_matrix(rng, 40, 40, bound=10**12)


def test_snf_check_agrees_with_the_bareiss_check():
    # Each true result and its doctored claims.  Every claim keeps D
    # diagonal, where the two checks' orders agree, so the messages agree.
    rng = random.Random(20)
    seen = set()
    for a in bareiss_check_inputs(rng):
        result = smith_normal_form(a)
        inverse_test = a.rows == a.cols and all(result.diagonal())
        for u, d, v in doctorings(rng, result):
            claim = SNFResult(*map(IntMatrix.from_rows, (u, d, v)))
            expected = verdict(bareiss_check, a, claim)
            assert verdict(check_smith_normal_form, a, claim) == expected, (a, claim)
            seen.add((inverse_test, expected and expected.split(": ")[1]))
    # Both paths accept, and reject with each of the three messages.
    outcomes = (
        None,
        "U * A * V differs from D",
        "U or V is not unimodular",
        "the diagonal of D is not a nonnegative divisibility chain",
    )
    assert seen == {(path, o) for path in (False, True) for o in outcomes}


def test_snf_check_requires_a_diagonal_divisibility_chain():
    identity = [[1, 0], [0, 1]]
    a, result = doctored([[1, 1], [0, 1]], identity, [[1, 1], [0, 1]], identity)
    with pytest.raises(InvariantError, match="D is not diagonal"):
        check_smith_normal_form(a, result)
    # 2 does not divide 3; -1 is negative; a zero comes before a nonzero entry
    for rows in ([[2, 0], [0, 3]], [[1, 0], [0, -1]], [[0, 0], [0, 1]]):
        a, result = doctored(rows, identity, rows, identity)
        with pytest.raises(InvariantError, match="not a nonnegative divisibility chain"):
            check_smith_normal_form(a, result)


# --- finitely presented abelian groups -------------------------------------


def test_group_from_presentation_examples():
    # one relation 5x = 0 on generators x, y: Z/5 + Z
    g = group_from_presentation(IntMatrix.from_rows([[5, 0]]))
    assert g.invariant_factors == (5, 0)
    assert g.rank == 1
    assert not g.is_cyclic
    assert g.order() is None

    # Z^2 / <(2,0), (0,3)> = Z/2 + Z/3 = Z/6: cyclic of order 6
    g = group_from_presentation(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert g.invariant_factors == (6,)
    assert g.is_cyclic
    assert g.order() == 6

    # no relations at all
    g = group_from_presentation(IntMatrix(0, 2, ()))
    assert g.invariant_factors == (0, 0)
    assert g.rank == 2

    # full-rank relations: trivial group
    g = group_from_presentation(IntMatrix.identity(3))
    assert g.invariant_factors == ()
    assert g.order() == 1
    assert g.is_cyclic


def test_group_relations_die():
    rng = random.Random(47)
    for _ in range(100):
        rows = rng.randrange(0, 5)
        cols = rng.randrange(1, 5)
        a = random_matrix(rng, rows, cols, bound=6)
        g = group_from_presentation(a)
        for row in a.to_rows():
            assert g.is_zero(tuple(row))
        # and the group is the right size: product of nonzero factors
        # equals the gcd-free part forced by the determinantal divisors
        if rows >= cols and g.order() is not None:
            d = determinantal_divisor(a, cols)
            assert g.order() == abs(d) or d == 0


def test_group_normal_form_is_additive():
    # normal_form maps generator coordinates to invariant-factor
    # coordinates: addition must commute with reduction mod the factors
    rng = random.Random(53)
    for _ in range(50):
        a = random_matrix(rng, rng.randrange(1, 4), rng.randrange(1, 4), bound=7)
        g = group_from_presentation(a)
        n = g.n_generators
        x = tuple(rng.randrange(-20, 21) for _ in range(n))
        y = tuple(rng.randrange(-20, 21) for _ in range(n))
        xy = tuple(x[i] + y[i] for i in range(n))
        summed = tuple(
            (cx + cy) % dk if dk else cx + cy
            for cx, cy, dk in zip(g.normal_form(x), g.normal_form(y), g.invariant_factors)
        )
        assert g.normal_form(xy) == summed


def test_rational_coords_are_linear_and_faithful():
    rng = random.Random(59)
    for _ in range(50):
        a = random_matrix(rng, rng.randrange(0, 3), 3, bound=5)
        g = group_from_presentation(a)
        if g.rank == 0:
            continue
        x = tuple(rng.randrange(-9, 10) for _ in range(3))
        y = tuple(rng.randrange(-9, 10) for _ in range(3))
        cx, cy = g.rational_coords(x), g.rational_coords(y)
        cxy = g.rational_coords(tuple(x[i] + y[i] for i in range(3)))
        assert cxy == tuple(cx[i] + cy[i] for i in range(g.rank))
        # coordinates vanish exactly on the torsion subgroup
        if g.invariant_factors and all(d != 0 for d in g.invariant_factors):
            pass  # no free part to test against
        if all(c == 0 for c in cx):
            # x is torsion: some multiple of x dies
            m = 1
            for dk in g.invariant_factors:
                if dk != 0:
                    m *= dk
            assert g.is_zero(tuple(m * e for e in x))


def test_group_validation():
    with pytest.raises(ValueError):
        FPAbelianGroup(2, (2, 3), IntMatrix.identity(2))  # chain broken
    with pytest.raises(ValueError):
        FPAbelianGroup(2, (0, 2), IntMatrix.identity(2))  # zeros not trailing
    with pytest.raises(ValueError):
        FPAbelianGroup(2, (1, 2), IntMatrix.from_rows([[2, 0], [0, 1]]))  # not unimodular
