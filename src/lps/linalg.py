"""Exact rational linear algebra: sparse matrices, kernels, affine solves.

`nullspace` first peels the forced-zero unknowns.  If a row's only nonzero
entry among the remaining columns is in column j, every kernel vector has
x_j = 0, so column j is dropped; that may leave more such rows, and the
peel repeats (the singleton-row presolve of sparse LP, Andersen & Andersen
1995; "structural pivots" in sparse elimination mod p, Bouillaguet &
Delaplace 2016).  Before it is trusted, the peel is re-checked as a
certificate: each forcing row has a nonzero in its own column and nonzeros
elsewhere only in columns dropped before it.  The surviving columns go to
one of two engines that produce the same canonical answer: a fraction-free
sparse elimination over the integers (used for small systems) and a modular
engine (one mod-p elimination per prime, CRT, rational reconstruction).
The canonical kernel basis is the reduced-row-echelon one: one vector per
free column (ascending), scaled integer-primitive with a positive entry at
its free column.  Every vector either engine emits is verified exactly
over Q before it is returned.

Why the peel cannot change the answer.  Column f is free iff some kernel
vector has its last nonzero at f, and the canonical vector of f is the
unique kernel vector with 1 at f and 0 at the other free columns (before
scaling).  So the free columns and the canonical basis depend only on the
kernel subspace and the column order.  The kernel of mat is the kernel of
the surviving columns, zero-extended: a dropped column is 0 in every
kernel vector, and mat ext(v) = sub v identically.  The reduced basis,
zero-extended, is therefore exactly mat's canonical basis, and it needs no
second verification.

The mod-p elimination is `_kernel_mod_p`, a sparse row elimination over
dict rows (Bouillaguet & Delaplace, Sparse Gaussian elimination modulo p,
2016).  The rows are scaled to primitive integers once per call, which
leaves the kernel unchanged, and reduced mod a prime p < 2^20.  The
columns are walked in order; a column that some remaining row holds
becomes a pivot, with the sparsest such row as pivot row, and is
eliminated from the others.  So column j becomes a pivot iff it is
independent mod p of the columns before it: the pivots are the RREF pivot
columns mod p.  Back-substitution then gives, for each dependent column f,
the canonical kernel vector mod p: 1 at f, 0 at the other dependent
columns and 0 after f, since a pivot row holds only its own column and
later ones.

Why a verified basis is the canonical one.  Let P and F be the pivot and
free columns over Q, and P' and F' those mod p.  The mod-p rank of every
leading set of columns is at most its rank over Q, so |P'| <= |P|, and
all columns independent mod p means an empty kernel.  Suppose P' != P and
every candidate verifies.  The |F'| >= |F| candidates are independent
kernel vectors, so |P'| = |P|, and the columns of P' are a basis of the
column space over Q.  Take f in P but not in P'.  Mod p, column f is a
combination of the columns of P' before f alone, so its candidate is 0 on
the columns of P' after f.  Over Q, f is independent of the columns
before it, so its coefficients on the columns of P' after f are not all
0: they are 0 mod p but nonzero, and the candidate fails verification at
every modulus accumulated with profile P'.  Hence a verified basis has
profile P, and it is the canonical one, since the kernel vector with 1 at
a free column, 0 at the other free columns and support on the pivots is
unique.  By the same prefix-rank bound, the true profile is the best one
any prime shows: highest rank, then lexicographically first pivot
columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalError
from .intarith import primes_below, rational_reconstruct
from .poly import rat

_PRIMES = primes_below(2**20, 48)

# Systems at most this big go through the fraction-free exact engine.
_EXACT_CELL_LIMIT = 5000


@dataclass
class RatMatrix:
    """Sparse matrix keyed by (row, col).  Entries are rationals: ints or
    Fractions, as polynomial coefficients are (the search's systems are
    integer).  Kernel vectors come back as tuples of ints."""

    nrows: int
    ncols: int
    entries: dict

    def row_dicts(self) -> list[dict[int, Fraction]]:
        rows: list[dict[int, Fraction]] = [dict() for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def apply(self, vec: tuple) -> list:
        """Exact matrix-vector product (ints where entries and vec are)."""
        out = [0] * self.nrows
        for (i, j), v in self.entries.items():
            if vec[j]:
                out[i] += v * vec[j]
        return out


@dataclass
class AffineSolutionSet:
    """Solutions of A x = b as particular + span(nullspace_basis).
    Every reported vector satisfies the defining system exactly."""

    particular: tuple
    nullspace_basis: list


def _integer_rows(mat: RatMatrix) -> list[dict[int, int]]:
    """Rows scaled to primitive integer form (nonzero scale per row keeps
    the kernel unchanged)."""
    rows = mat.row_dicts()
    out = []
    for row in rows:
        if not row:
            out.append({})
            continue
        den = 1
        for v in row.values():
            den = den * v.denominator // math.gcd(den, v.denominator)
        g = 0
        scaled = {}
        for j, v in row.items():
            n = int(v * den)
            scaled[j] = n
            g = math.gcd(g, n)
        if g > 1:
            scaled = {j: n // g for j, n in scaled.items()}
        out.append(scaled)
    return out


def _primitive_vector(vec: list, positive_at: int) -> tuple:
    """vec scaled to primitive integers (ints), positive at positive_at."""
    den = math.lcm(*(v.denominator for v in vec))
    ints = [v.numerator * (den // v.denominator) for v in vec]
    g = math.gcd(*ints)
    if g > 1:
        ints = [n // g for n in ints]
    if ints[positive_at] < 0:
        ints = [-n for n in ints]
    return tuple(ints)


# ---------------------------------------------------------------------------
# Exact fraction-free engine.
# ---------------------------------------------------------------------------


def _eliminate_exact(rows: list[dict[int, int]], ncols: int):
    """Forward fraction-free elimination.  Returns pivot list
    [(col, row_dict)] in ascending column order."""
    active = [r for r in rows if r]
    pivots: list[tuple[int, dict[int, int]]] = []
    for c in range(ncols):
        holders = [i for i, r in enumerate(active) if r.get(c)]
        if not holders:
            continue
        # Markowitz-flavored pick: sparsest row, ties by position.
        pi = min(holders, key=lambda i: (len(active[i]), i))
        prow = active.pop(pi)
        pval = prow[c]
        nxt = []
        for r in active:
            f = r.get(c)
            if not f:
                nxt.append(r)
                continue
            merged = {}
            for j, v in r.items():
                merged[j] = v * pval
            for j, v in prow.items():
                s = merged.get(j, 0) - f * v
                if s:
                    merged[j] = s
                else:
                    merged.pop(j, None)
            if merged:
                g = 0
                for v in merged.values():
                    g = math.gcd(g, v)
                if g > 1:
                    merged = {j: v // g for j, v in merged.items()}
                nxt.append(merged)
        active = nxt
        pivots.append((c, prow))
    return pivots


def _kernel_from_pivots(pivots, ncols: int) -> list[tuple]:
    pivot_cols = [c for c, _ in pivots]
    pivot_set = set(pivot_cols)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free_cols:
        x: dict[int, Fraction] = {f: Fraction(1)}
        for c, row in reversed(pivots):
            acc = Fraction(0)
            for j, v in row.items():
                if j == c:
                    continue
                xv = x.get(j)
                if xv:
                    acc += v * xv
            x[c] = -acc / row[c]
        vec = [x.get(j, Fraction(0)) for j in range(ncols)]
        basis.append(_primitive_vector(vec, f))
    return basis


def _nullspace_exact(mat: RatMatrix) -> list[tuple]:
    """Kernel by fraction-free elimination, verified exactly."""
    rows = _integer_rows(mat)
    pivots = _eliminate_exact(rows, mat.ncols)
    basis = _kernel_from_pivots(pivots, mat.ncols)
    if not _in_kernel(mat, basis):
        raise InternalError("kernel verification failed")
    return basis


# ---------------------------------------------------------------------------
# Modular engine.
# ---------------------------------------------------------------------------


def _kernel_mod_p(rows: list[dict[int, int]], ncols: int, p: int) -> dict[int, list[int]]:
    """Sparse Gaussian elimination mod p, walking the columns in order and
    pivoting on the sparsest row holding each one.  Returns, for every
    dependent column f, its canonical kernel vector mod p (1 at f, 0 at
    the other dependent columns), by back-substitution."""
    active = []
    for row in rows:
        reduced = {j: v % p for j, v in row.items() if v % p}
        if reduced:
            active.append(reduced)
    # pivots[c]: the pivot row of column c divided by its entry at c,
    # without that entry; it holds later columns only
    pivots: dict[int, dict[int, int]] = {}
    for c in range(ncols):
        holders = [r for r in active if c in r]
        if not holders:
            continue
        row = min(holders, key=len)
        inv = pow(row.pop(c), -1, p)
        prow = pivots[c] = {j: v * inv % p for j, v in row.items()}
        for r in holders:
            if r is not row:
                f = r.pop(c)
                for j, v in prow.items():
                    s = (r.get(j, 0) - f * v) % p
                    if s:
                        r[j] = s
                    else:
                        r.pop(j, None)
        active = [r for r in active if r and r is not row]
    # x[j] maps each dependent column f to entry j of f's kernel vector
    x: dict[int, dict[int, int]] = {}
    for c in reversed(range(ncols)):
        prow = pivots.get(c)
        if prow is None:
            x[c] = {c: 1}
            continue
        acc: dict[int, int] = {}
        for j, v in prow.items():
            for f, a in x[j].items():
                acc[f] = (acc.get(f, 0) - v * a) % p
        x[c] = {f: a for f, a in acc.items() if a}
    return {f: [x[j].get(f, 0) for j in range(ncols)] for f in range(ncols) if f not in pivots}


def _reconstruct(residues: dict[int, list[int]], modulus: int) -> list[tuple] | None:
    """Canonical kernel vectors from their residues mod `modulus`, or None
    if one does not reconstruct."""
    basis = []
    for f, vec in residues.items():
        x = []
        for a in vec:
            q = rational_reconstruct(a, modulus) if a else Fraction(0)
            if q is None:
                return None
            x.append(q)
        basis.append(_primitive_vector(x, f))
    return basis


def _in_kernel(mat: RatMatrix, basis: list[tuple]) -> bool:
    """Exact check of integer vectors (as `_primitive_vector` makes)."""
    return not any(any(mat.apply(vec)) for vec in basis)


def _nullspace_modular(mat: RatMatrix) -> list[tuple]:
    """Kernel by one `_kernel_mod_p` per prime, CRT across primes with the
    best pivot profile seen (highest rank, then lexicographically first
    pivot columns; the true profile is best, see the module docstring),
    rational reconstruction and exact verification.  Falls back to the
    exact engine if no number of primes gives a verified basis."""
    rows = _integer_rows(mat)
    best = None
    for p in _PRIMES:
        residues = _kernel_mod_p(rows, mat.ncols, p)
        if not residues:
            return []
        free = list(residues)
        profile = (-len(free), free)
        if best is None or profile > best:
            best, modulus = profile, 1
            acc = {f: [0] * mat.ncols for f in free}
        elif profile != best:
            continue
        inv_m = pow(modulus, -1, p)
        for f, vec in residues.items():
            a = acc[f]
            for j, rp in enumerate(vec):
                a[j] += modulus * ((rp - a[j]) * inv_m % p)
        modulus *= p
        basis = _reconstruct(acc, modulus)
        if basis is not None and _in_kernel(mat, basis):
            return basis
    return _nullspace_exact(mat)


def _peel(mat: RatMatrix) -> list[tuple[int, int]]:
    """The forced-zero columns of mat with their forcing rows, in peel
    order: [(column, row)], each row's only nonzero entry outside the
    columns listed before it being in its own column.  Entries count by
    value, not by key: a stored zero is no entry.  Each row keeps the
    number of its nonzeros in live columns and the XOR of those columns,
    which names the column when one is left."""
    count = [0] * mat.nrows
    xor = [0] * mat.nrows
    rows_of: list[list[int]] = [[] for _ in range(mat.ncols)]
    for (i, j), v in mat.entries.items():
        if v:
            count[i] += 1
            xor[i] ^= j
            rows_of[j].append(i)
    stack = [i for i, n in enumerate(count) if n == 1]
    order = []
    while stack:
        i = stack.pop()
        if count[i] != 1:
            continue
        j = xor[i]
        order.append((j, i))
        for r in rows_of[j]:
            count[r] -= 1
            xor[r] ^= j
            if count[r] == 1:
                stack.append(r)
    return order


def _drop_peeled(mat: RatMatrix, order: list[tuple[int, int]]) -> tuple[RatMatrix, list[int]]:
    """The surviving columns of mat and the matrix of their nonzero
    entries (rows renumbered in order of appearance, empty ones dropped),
    after checking in the same pass that `order` is a peel certificate:
    distinct columns and rows, each row with a nonzero in its own column
    and nonzeros elsewhere only in columns listed before it.  Raises
    InternalError otherwise; a wrongly dropped column would give a basis
    that verifies but spans too small a kernel."""
    position = {j: k for k, (j, _) in enumerate(order)}
    forcing = {i: k for k, (_, i) in enumerate(order)}
    if len(position) != len(order) or len(forcing) != len(order):
        raise InternalError("peel certificate repeats a column or row")
    keep = [j for j in range(mat.ncols) if j not in position]
    column = {j: t for t, j in enumerate(keep)}
    rows: dict[int, int] = {}
    entries = {}
    held = set()
    for (i, j), v in mat.entries.items():
        if not v:
            continue
        k = forcing.get(i)
        if k is None:
            t = column.get(j)
            if t is not None:
                entries[rows.setdefault(i, len(rows)), t] = v
        elif j == order[k][0]:
            held.add(k)
        elif position.get(j, k) >= k:
            raise InternalError("peel certificate: a forcing row has a later nonzero")
    if len(held) != len(order):
        raise InternalError("peel certificate: a forcing row is zero in its column")
    return RatMatrix(len(rows), len(keep), entries), keep


def nullspace(mat: RatMatrix) -> list[tuple]:
    """Canonical kernel basis of mat (RREF form, see module docstring).
    Deterministic: identical input gives bit-identical output.  The
    forced-zero columns are peeled first; the surviving ones go through
    the exact engine if they make at most _EXACT_CELL_LIMIT cells, through
    the modular engine otherwise, and either verifies what it returns.
    The basis is zero-extended over the peeled columns."""
    sub, keep = _drop_peeled(mat, _peel(mat))
    if not keep:
        return []
    if sub.nrows * sub.ncols <= _EXACT_CELL_LIMIT:
        basis = _nullspace_exact(sub)
    else:
        basis = _nullspace_modular(sub)
    if len(keep) == mat.ncols:
        return basis
    out = []
    for vec in basis:
        x = [0] * mat.ncols
        for j, v in zip(keep, vec):
            x[j] = v
        out.append(tuple(x))
    return out


def solve_affine(mat: RatMatrix, rhs: list) -> AffineSolutionSet | None:
    """Solve A x = rhs exactly.  Returns None when inconsistent; otherwise
    the canonical particular solution (free variables zero) plus the
    canonical kernel basis of A."""
    n = mat.ncols
    entries = dict(mat.entries)
    for i, v in enumerate(rhs):
        v = Fraction(v)
        if v:
            entries[(i, n)] = v
    aug = RatMatrix(mat.nrows, n + 1, entries)
    basis = nullspace(aug)
    particular = None
    kernel = []
    for vec in basis:
        if vec[n] == 0:
            kernel.append(vec[:n])
        else:
            s = vec[n]
            particular = tuple(rat(Fraction(-v, s)) for v in vec[:n])
    if particular is None:
        # the rhs column was a pivot column: no solution
        return None
    out = mat.apply(particular)
    if any(out[i] != Fraction(rhs[i]) for i in range(mat.nrows)):
        raise InternalError("affine solve verification failed")
    return AffineSolutionSet(particular, kernel)
