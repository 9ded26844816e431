"""Linear algebra tests.  The oracle is an independent dense fraction-free
(Bareiss) elimination over Fractions, written here from scratch."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lps import linalg
from lps.errors import InternalError
from lps.linalg import RatMatrix, nullspace

P0 = linalg._PRIMES[0]  # the modular engine's first prime


def from_rows(rows, ncols):
    """RatMatrix of the given rows ({col: value} dicts or dense lists)."""
    entries = {}
    for i, row in enumerate(rows):
        items = row.items() if isinstance(row, dict) else enumerate(row)
        for j, v in items:
            v = Fraction(v)
            if v:
                entries[(i, j)] = v
    return RatMatrix(len(rows), ncols, entries)


def bareiss_rank(rows):
    """Dense fraction-free rank, independent of the package's engines."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return 0
    nr, nc = len(m), len(m[0])
    r = 0
    prev = Fraction(1)
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(nr):
            if i == r:
                continue
            for j in range(nc):
                if j == c:
                    continue
                m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) / prev
            m[i][c] = Fraction(0)
        prev = m[r][c]
        r += 1
        if r == nr:
            break
    return r


def rand_matrix(rng, nrows, ncols, density=0.5, big=False):
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            if rng.random() < density:
                if big:
                    row[j] = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 100))
                else:
                    row[j] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        rows.append(row)
    return from_rows(rows, ncols), rows


def dense_of(rows, ncols):
    return [[r.get(j, Fraction(0)) for j in range(ncols)] for r in rows]


def test_nullspace_rank_nullity_and_residual():
    rng = random.Random(42)
    for trial in range(150):
        nr = rng.randint(1, 8)
        nc = rng.randint(1, 8)
        mat, rows = rand_matrix(rng, nr, nc)
        basis = nullspace(mat)
        oracle_rank = bareiss_rank(dense_of(rows, nc))
        assert len(basis) == nc - oracle_rank
        for vec in basis:
            assert all(v == 0 for v in mat.apply(vec))


def rref_pivot_cols(rows):
    """Independent dense RREF over Fractions; returns pivot column list."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return []
    nr, nc = len(m), len(m[0])
    r = 0
    pivots = []
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(nr):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return pivots


def test_nullspace_canonical_structure():
    from math import gcd

    rng = random.Random(43)
    for trial in range(80):
        nc = rng.randint(2, 7)
        mat, rows = rand_matrix(rng, rng.randint(1, 6), nc)
        basis = nullspace(mat)
        pivots = set(rref_pivot_cols(dense_of(rows, nc)))
        frees = [c for c in range(nc) if c not in pivots]
        assert len(basis) == len(frees)
        # RREF form: vector k owns free column k (positive there, zero at
        # the other free columns), scaled integer-primitive.
        for k, vec in enumerate(basis):
            assert vec[frees[k]] > 0
            for l, f in enumerate(frees):
                if l != k:
                    assert vec[f] == 0
            g = 0
            for v in vec:
                assert v.denominator == 1
                g = gcd(g, v.numerator)
            assert g in (0, 1)


def test_engines_agree():
    rng = random.Random(44)
    for trial in range(40):
        nr = rng.randint(6, 14)
        nc = rng.randint(6, 12)
        mat, _ = rand_matrix(rng, nr, nc, density=0.45, big=(trial % 3 == 0))
        exact = linalg._nullspace_exact(mat)
        modular = linalg._nullspace_modular(mat)
        assert exact == modular


def test_zero_and_identity():
    z = from_rows([{}, {}], 3)
    basis = nullspace(z)
    assert len(basis) == 3
    assert basis[0] == (1, 0, 0) and basis[1] == (0, 1, 0) and basis[2] == (0, 0, 1)
    eye = from_rows([{0: 1}, {1: 1}, {2: 1}], 3)
    assert nullspace(eye) == []


def test_kernel_vectors_are_ints_and_particulars_canonical():
    """Kernel vectors come back as primitive ints (every engine).  With a
    consistent right-hand side b as one more column, exactly one kernel
    vector v is nonzero there, and -v[:n] / v[n] is the canonical
    particular solution of A x = b: zero at the free columns of A."""
    rng = random.Random(46)
    for trial in range(60):
        mat, rows = rand_matrix(rng, rng.randint(1, 6), rng.randint(2, 7), density=0.6)
        for engine in (linalg._nullspace_exact, linalg._nullspace_modular):
            for vec in engine(mat):
                assert all(type(v) is int for v in vec)
        n = mat.ncols
        x0 = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        rhs = mat.apply(tuple(x0))
        aug = RatMatrix(mat.nrows, n + 1, {**mat.entries, **{(i, n): v for i, v in enumerate(rhs) if v}})
        basis = nullspace(aug)
        carrying = [vec for vec in basis if vec[n]]
        assert len(carrying) == 1
        particular = [Fraction(-v, carrying[0][n]) for v in carrying[0][:n]]
        assert mat.apply(tuple(particular)) == rhs
        pivots = set(rref_pivot_cols(dense_of(rows, n)))
        assert all(particular[j] == 0 for j in range(n) if j not in pivots)
        assert [vec[:n] for vec in basis if not vec[n]] == nullspace(mat)


def test_big_aspect_ratio_modular():
    # tall sparse system, forced through the modular engine
    rng = random.Random(46)
    rows = []
    nc = 25
    for i in range(400):
        row = {}
        for j in rng.sample(range(nc), 4):
            row[j] = Fraction(rng.randint(-20, 20))
        rows.append(row)
    # plant a kernel vector: append column dependencies
    mat = from_rows(rows, nc)
    basis_mod = linalg._nullspace_modular(mat)
    basis_exact = linalg._nullspace_exact(mat)
    assert basis_mod == basis_exact


def matrix_of(cols):
    """RatMatrix with the given {row: value} columns, rows numbered in order
    of first appearance, so that the matrix of any prefix of cols is the
    leading block of the matrix of cols (as on the degree ladder)."""
    index, entries = {}, {}
    for j, col in enumerate(cols):
        for i, v in col.items():
            entries[(index.setdefault(i, len(index)), j)] = v
    return RatMatrix(len(index), len(cols), entries)


def no_exact_fallback():
    return mock.patch.object(linalg, "_nullspace_exact", side_effect=AssertionError("no convergence"))


def test_unlucky_first_prime_gives_the_exact_basis():
    # columns (1, 0), (1, p0), (0, 1): mod p0 the second column repeats the
    # first, so p0's pivot columns are {0, 2} while over Q they are {0, 1}
    cols = [{0: 1}, {0: 1, 1: P0}, {1: 1}]
    mat = matrix_of(cols)
    exact = linalg._nullspace_exact(mat)
    assert exact == [(1, -1, P0)]
    with no_exact_fallback():
        assert linalg._nullspace_modular(mat) == exact


def test_a_stored_zero_is_no_entry():
    # row 1 reads 0 x0 + x2 = 0 with its zero stored; the peel counts it as
    # no entry, so row 1 forces x2 to zero
    mat = RatMatrix(2, 3, {(0, 0): 1, (0, 1): 2, (1, 0): 0, (1, 2): 1})
    assert linalg._peel(mat) == [(2, 1)]
    assert nullspace(mat) == [(-2, 1, 0)]


def test_peel_is_closed_and_only_drops_forced_zeros():
    # after the peel no row has exactly one nonzero in a surviving column,
    # and every dropped column is zero in every kernel vector
    rng = random.Random(47)
    for trial in range(150):
        mat, rows = rand_matrix(rng, rng.randint(1, 8), rng.randint(1, 8), density=0.3)
        peeled = {j for j, _ in linalg._peel(mat)}
        for row in rows:
            assert sum(1 for j, v in row.items() if v and j not in peeled) != 1
        for vec in linalg._nullspace_exact(mat):
            assert all(vec[j] == 0 for j in peeled)


def test_a_forged_peel_order_is_refused(monkeypatch):
    # rows x0 + x1, x1, x2 + x3 and x0: x0 and x1 are forced to zero
    mat = from_rows([{0: 1, 1: 1}, {1: 1}, {2: 1, 3: 1}, {0: 1}], 4)
    assert {j for j, _ in linalg._peel(mat)} == {0, 1}
    assert nullspace(mat) == [(0, 0, -1, 1)]
    forged = [
        [(0, 0), (1, 1)],  # row 0 is nonzero at x1, listed after it
        [(1, 1), (0, 0), (2, 2)],  # row 2 is nonzero at x3, never listed
        [(1, 1), (0, 0), (2, 3)],  # row 3 is zero at x2
        [(1, 1), (0, 0), (7, 3)],  # no column 7
        [(1, 1), (0, 1)],  # row 1 twice
        [(1, 1), (1, 0)],  # column 1 twice
    ]
    for order in forged:
        with pytest.raises(InternalError):
            linalg._drop_peeled(mat, order)
        monkeypatch.setattr(linalg, "_peel", lambda mat, order=order: order)
        with pytest.raises(InternalError):
            nullspace(mat)


def test_modular_engine_falls_back_to_exact(monkeypatch):
    # with one 2-bit prime, 1/p0 never reconstructs
    monkeypatch.setattr(linalg, "_PRIMES", [3])
    mat = matrix_of([{0: 1}, {0: 1, 1: P0}, {1: 1}])
    assert linalg._nullspace_modular(mat) == [(1, -1, P0)]


def test_a_kernel_with_big_entries_needs_several_primes(monkeypatch):
    # 3x3 minors of entries near 10^4 are near 10^12, so the kernel's
    # numerators and denominators reconstruct only modulo several primes
    rng = random.Random(48)
    mat = from_rows([[rng.randint(-(10**4), 10**4) for _ in range(5)] for _ in range(3)], 5)
    exact = linalg._nullspace_exact(mat)
    assert len(exact) == 2
    primes = []
    kernel_mod_p = linalg._kernel_mod_p

    def recording(rows, ncols, p):
        primes.append(p)
        return kernel_mod_p(rows, ncols, p)

    monkeypatch.setattr(linalg, "_kernel_mod_p", recording)
    with no_exact_fallback():
        assert linalg._nullspace_modular(mat) == exact
    assert len(primes) > 1 and primes == linalg._PRIMES[: len(primes)]


@st.composite
def sparse_columns(draw):
    """Columns of a sparse rational matrix.  Some repeat an earlier column
    plus p0 times a sparse vector and some rows are multiplied by p0, so
    the matrix is often rank-deficient mod p0 but not over Q.  Some
    columns are divided by a small integer (non-integral Fraction
    entries), and some hold explicit zeros (int or Fraction), which are no
    entries: the peel must count values, not keys."""
    nrows = draw(st.integers(1, 8))

    def column():
        return {i: v for i in range(nrows) if (v := draw(st.integers(-5, 5))) and draw(st.booleans())}

    cols = [column() for _ in range(draw(st.integers(1, 8)))]
    for _ in range(draw(st.integers(0, 3))):
        twin = dict(cols[draw(st.integers(0, len(cols) - 1))])
        for i, v in column().items():
            twin[i] = twin.get(i, 0) + P0 * v
        cols.insert(draw(st.integers(0, len(cols))), {i: v for i, v in twin.items() if v})
    for i in draw(st.sets(st.integers(0, nrows - 1), max_size=2)):
        for col in cols:
            if i in col:
                col[i] *= P0
    for j in draw(st.sets(st.integers(0, len(cols) - 1), max_size=3)):
        d = draw(st.integers(2, 6))
        cols[j] = {i: Fraction(v, d) for i, v in cols[j].items()}
    for _ in range(draw(st.integers(0, 4))):
        col = cols[draw(st.integers(0, len(cols) - 1))]
        i = draw(st.integers(0, nrows - 1))
        if i not in col:
            col[i] = draw(st.sampled_from([0, Fraction(0)]))
    return cols


@settings(max_examples=200, deadline=None)
@given(sparse_columns())
def test_modular_and_ladder_match_exact(cols):
    mat = matrix_of(cols)
    exact = linalg._nullspace_exact(mat)
    with no_exact_fallback():
        assert linalg._nullspace_modular(mat) == exact
    # every prefix, as the ladder's rungs, continuing past nonempty kernels
    for k in range(1, len(cols) + 1):
        sub = matrix_of(cols[:k])
        assert nullspace(sub) == linalg._nullspace_exact(sub)
