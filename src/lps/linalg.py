"""Exact rational linear algebra: sparse matrices (`RatMatrix`, stored by
columns) and their kernels.

`nullspace` first peels the forced-zero unknowns.  If a row's only nonzero
entry among the remaining columns is in column j, every kernel vector has
x_j = 0, so column j is dropped; that may leave more such rows, and the
peel repeats (the singleton-row presolve of sparse LP, Andersen & Andersen
1995; "structural pivots" in sparse elimination mod p, Bouillaguet &
Delaplace 2016).  Before it is trusted, the peel is re-checked as a
certificate (`_drop_peeled`).  The surviving columns go to the modular
engine: one mod-p elimination per prime, CRT and rational reconstruction,
with primes drawn until the basis verifies exactly over Q.  The canonical
kernel basis is the reduced-row-echelon one: one vector per free column
(ascending), scaled integer-primitive with a positive entry at its free
column.

Why the peel cannot change the answer.  Column f is free iff some kernel
vector has its last nonzero at f, and the canonical vector of f is the
unique kernel vector with 1 at f and 0 at the other free columns (before
scaling).  So the free columns and the canonical basis depend only on the
kernel subspace and the column order.  The kernel of mat is the kernel of
the surviving columns, zero-extended: a dropped column is 0 in every
kernel vector, and mat ext(v) = sub v identically.  The reduced basis,
zero-extended, is therefore exactly mat's canonical basis, and it needs no
second verification.

The mod-p elimination is `_kernel_mod_p` (Bouillaguet & Delaplace,
Sparse Gaussian elimination modulo p, 2016).  The surviving rows are
scaled to primitive integers, which leaves the kernel unchanged, and
reduced mod a prime p < 2^20.  Its answer is the canonical kernel basis
mod p: for each dependent column f (a column that depends mod p on the
columns before it), the kernel vector with 1 at f, 0 at the other
dependent columns and 0 after f.  That basis depends only on the row
space mod p, so any order of elimination gives the same residues.  The
rows go in sparsest first, each reduced by an echelon of rows keyed by
leading column; when it meets a longer echelon row at that row's leading
column, the two swap, so the sparser one stays.  Back-substitution from
the last column down gives the canonical basis of an echelon.  Once that
basis has at most _FEW vectors, the echelon is set aside and each further
row r updates the basis directly.  If r annihilates every vector, it is
in the span of the rows so far and changes nothing.  Otherwise let g be
the first dependent column whose vector has r.v_g != 0.  Column g turns
independent: v_g is dropped, and every other v_f with r.v_f != 0 becomes
v_f - (r.v_f / r.v_g) v_g, which r annihilates.  Such an f is after g,
and v_g is 0 at f, after it and at the other dependent columns, so the
new v_f keeps 1 at f and 0 there: the basis is canonical again.  The walk
stops when the basis is empty (rank ncols).

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

Why the prime loop ends.  The primes are `_PRIMES`, the 48 largest below
2^20 (the first settles every system the solver has been measured on),
then each smaller odd prime.  With M a nonzero |P| x |P| minor on the
columns of P, every prime not dividing M keeps those columns independent,
so every leading set of columns keeps its rank over Q and the prime shows
profile P; other primes show a worse profile and are skipped once P is
seen.  The canonical entries are ratios of minors (Cramer), so they
reconstruct once the product of the primes with profile P exceeds twice
the square of their Hadamard bound.  If the odd primes below 2^20 (about
1.5 million bits) run out first, the engine raises BudgetError.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from itertools import chain, islice
from operator import mul
from fractions import Fraction

from .errors import BudgetError, InternalError
from .intarith import primes_below, rational_reconstruct

_PRIMES = list(islice(primes_below(2**20), 48))

# `_kernel_mod_p` tests rows against the kernel once it has this few
# vectors.  From 4 to 12 it times alike on eq7's surviving rungs; on the
# plants' systems (at most 20 columns) a larger value was slower.
_FEW = 4

# Unused by lps; perfbench/tracing.py reads it, and at 0 labels every nonempty call "modular".
_EXACT_CELL_LIMIT = 0


class RatMatrix:
    """Sparse matrix of rationals (ints or Fractions; the search's systems
    are integer), stored by columns: column j holds the values `vals[j]`
    at the rows `rows[j]`, all nonzero.  Per row it keeps `count`, the
    number of its nonzero entries, and `xor`, the XOR of their columns,
    which the peel starts from.  Columns are only appended, so a copy
    taken between appends is a prefix of every later state.  It can be
    built from a {(row, col): value} dict, and `entries` reads it back as
    one; stored zeros are no entries.  Kernel vectors come back as tuples
    of ints."""

    def __init__(self, nrows: int = 0, ncols: int = 0, entries: dict | None = None):
        self.nrows = nrows
        self.rows: list[list[int]] = [[] for _ in range(ncols)]
        self.vals: list[list] = [[] for _ in range(ncols)]
        self.count = [0] * nrows
        self.xor = [0] * nrows
        for (i, j), v in (entries or {}).items():
            if v:
                self.rows[j].append(i)
                self.vals[j].append(v)
                self.count[i] += 1
                self.xor[i] ^= j

    @property
    def ncols(self) -> int:
        return len(self.rows)

    @property
    def entries(self) -> _Entries:
        return _Entries(self)

    def append(self, rows: list[list[int]], vals: list[list], nrows: int) -> None:
        """Append columns, column t with the nonzero values vals[t] at the
        rows rows[t], to a matrix that now has nrows rows."""
        self.count += [0] * (nrows - self.nrows)
        self.xor += [0] * (nrows - self.nrows)
        self.nrows = nrows
        count, xor = self.count, self.xor
        for j, col in enumerate(rows, len(self.rows)):
            for i in col:
                count[i] += 1
                xor[i] ^= j
        self.rows += rows
        self.vals += vals

    def copy(self) -> RatMatrix:
        """A copy that later appends to either side leave alone."""
        out = RatMatrix()
        out.nrows, out.rows, out.vals = self.nrows, self.rows[:], self.vals[:]
        out.count, out.xor = self.count[:], self.xor[:]
        return out


class _Entries(Mapping):
    """A RatMatrix's nonzero entries as a read-only {(row, col): value}
    mapping; its length is a sum over the rows, not a pass over the
    entries."""

    def __init__(self, mat: RatMatrix):
        self._mat = mat

    def __len__(self) -> int:
        return sum(self._mat.count)

    def __iter__(self):
        for j, rs in enumerate(self._mat.rows):
            for i in rs:
                yield i, j

    def __getitem__(self, key):
        i, j = key
        rs = self._mat.rows[j] if 0 <= j < len(self._mat.rows) else ()
        if i not in rs:
            raise KeyError(key)
        return self._mat.vals[j][rs.index(i)]


def _primitive_row(row: dict) -> dict[int, int]:
    """row scaled to primitive integers by a positive factor, which leaves
    the kernel unchanged."""
    if any(type(v) is not int for v in row.values()):
        den = math.lcm(*[v.denominator for v in row.values()])
        row = {j: int(v * den) for j, v in row.items()}
    g = math.gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def _primitive_vector(vec: list, positive_at: int) -> tuple:
    """vec scaled to primitive integers (ints), positive at positive_at."""
    den = math.lcm(*[v.denominator for v in vec])
    ints = [v.numerator * (den // v.denominator) for v in vec]
    g = math.gcd(*ints)
    if g > 1:
        ints = [n // g for n in ints]
    if ints[positive_at] < 0:
        ints = [-n for n in ints]
    return tuple(ints)


def _kernel_mod_p(rows: list[dict[int, int]], ncols: int, p: int) -> dict[int, list[int]]:
    """The canonical kernel vectors mod p of integer rows: for every
    dependent column f, 1 at f, 0 at the other dependent columns and 0
    after f.  The rows go sparsest first into an echelon keyed by leading
    column until the kernel of the rows so far has at most _FEW vectors;
    from there each row updates that kernel (see the module docstring),
    and the walk stops once it is empty."""
    reduced = [r for r in ({j: v % p for j, v in row.items() if v % p} for row in rows) if r]
    reduced.sort(key=len)
    # echelon[c]: a row leading at c, divided by its entry there and
    # without that entry; it holds later columns only
    echelon: dict[int, dict[int, int]] = {}
    kernel = None
    for row in reduced:
        if kernel is None:
            _insert(echelon, row, p)
            if ncols - len(echelon) <= _FEW:
                kernel = _back_substitute(echelon, ncols, p)
        else:
            cols, vals = list(row), list(row.values())
            dots = {f: sum(map(mul, vals, map(vec.__getitem__, cols))) % p for f, vec in kernel.items()}
            g = next((f for f, s in dots.items() if s), None)
            if g is None:
                continue
            # column g becomes a pivot; the other vectors lose their multiple of g's
            vg = kernel.pop(g)
            inv = pow(dots[g], -1, p)
            for f, vec in kernel.items():
                if dots[f]:
                    c = dots[f] * inv % p
                    kernel[f] = [(a - c * b) % p for a, b in zip(vec, vg)]
        if kernel == {}:
            return kernel
    return _back_substitute(echelon, ncols, p) if kernel is None else kernel


def _insert(echelon: dict[int, dict[int, int]], row: dict[int, int], p: int) -> None:
    """Reduce row (mod p, in place) by the echelon's rows and add what is
    left, if anything, under its leading column."""
    while row:
        c = min(row)
        f = row.pop(c)
        prow = echelon.get(c)
        if prow is None or len(prow) > len(row):
            # the sparser row leads at c, and the other one is reduced on
            inv = pow(f, -1, p)
            echelon[c] = {j: v * inv % p for j, v in row.items()}
            if prow is None:
                return
            row, prow, f = prow, echelon[c], 1
        for j, v in prow.items():
            s = (row.get(j, 0) - f * v) % p
            if s:
                row[j] = s
            else:
                row.pop(j, None)


def _back_substitute(echelon: dict[int, dict[int, int]], ncols: int, p: int) -> dict[int, list[int]]:
    """The canonical kernel vectors mod p of an echelon (see
    `_kernel_mod_p`): x_c for each leading column c from the last up,
    which makes each vector 0 after its own column."""
    # x[j] maps each dependent column f to entry j of f's kernel vector
    x: dict[int, dict[int, int]] = {}
    for c in reversed(range(ncols)):
        prow = echelon.get(c)
        if prow is None:
            x[c] = {c: 1}
            continue
        acc: dict[int, int] = {}
        for j, v in prow.items():
            for f, a in x[j].items():
                acc[f] = (acc.get(f, 0) - v * a) % p
        x[c] = {f: a for f, a in acc.items() if a}
    return {f: [x[j].get(f, 0) for j in range(ncols)] for f in range(ncols) if f not in echelon}


def _reconstruct(residues: dict[int, list[int]], modulus: int) -> list[tuple] | None:
    """Canonical kernel vectors from their residues mod `modulus`, or None
    if one does not reconstruct."""
    basis = []
    for f, vec in residues.items():
        x = [rational_reconstruct(a, modulus) if a else Fraction(0) for a in vec]
        if None in x:
            return None
        basis.append(_primitive_vector(x, f))
    return basis


def _in_kernel(rows: list[dict[int, int]], basis: list[tuple]) -> bool:
    """Exact check of integer vectors (as `_primitive_vector` makes)."""
    return not any(sum(v * vec[j] for j, v in row.items()) for vec in basis for row in rows)


def _nullspace_modular(rows: list[dict[int, int]], ncols: int) -> list[tuple]:
    """Kernel of integer rows: one `_kernel_mod_p` per prime, CRT over the
    primes with the best pivot profile seen (module docstring), rational
    reconstruction and exact verification after each prime.  The primes are
    `_PRIMES`, then each smaller odd prime; BudgetError if they run out."""
    best = None
    for p in chain(_PRIMES, primes_below(_PRIMES[-1])):
        residues = _kernel_mod_p(rows, ncols, p)
        if not residues:
            return []
        free = list(residues)
        profile = (-len(free), free)
        if best is None or profile > best:
            best, modulus = profile, 1
            acc = {f: [0] * ncols for f in free}
        elif profile != best:
            continue
        inv_m = pow(modulus, -1, p)
        for f, vec in residues.items():
            a = acc[f]
            for j, rp in enumerate(vec):
                a[j] += modulus * ((rp - a[j]) * inv_m % p)
        modulus *= p
        basis = _reconstruct(acc, modulus)
        if basis is not None and _in_kernel(rows, basis):
            return basis
    raise BudgetError(f"the kernel of a {len(rows)}x{ncols} system does not reconstruct modulo the primes below 2^20")


def _peel(mat: RatMatrix) -> list[tuple[int, int]]:
    """The forced-zero columns of mat with their forcing rows, in peel
    order: [(column, row)], each row's only nonzero entry outside the
    columns listed before it being in its own column.  It works on copies
    of mat's per-row counts and XORs of live columns; the XOR names the
    column when one is left."""
    count, xor, cols = mat.count[:], mat.xor[:], mat.rows
    stack = [i for i, n in enumerate(count) if n == 1]
    order = []
    while stack:
        i = stack.pop()
        if count[i] != 1:
            continue
        j = xor[i]
        order.append((j, i))
        for r in cols[j]:
            count[r] -= 1
            xor[r] ^= j
            if count[r] == 1:
                stack.append(r)
    return order


def _drop_peeled(mat: RatMatrix, order: list[tuple[int, int]]) -> tuple[list[dict[int, int]], list[int]]:
    """The surviving columns of mat and its rows that are nonzero on them,
    restricted to them (renumbered) and scaled to primitive integers,
    after checking in the same column-wise pass that `order` is a peel
    certificate: distinct columns and rows, each row with a nonzero in its
    own column and nonzeros elsewhere only in columns listed before it.
    Raises InternalError otherwise; a wrongly dropped column would give a
    basis that verifies but spans too small a kernel."""
    n, ncols, nrows, cols = len(order), mat.ncols, mat.nrows, mat.rows
    position = [n] * ncols  # a column's place in order; n if it survives
    forcing = [n] * nrows  # the same for a row
    for k, (j, i) in enumerate(order):
        if not (0 <= j < ncols and 0 <= i < nrows):
            raise InternalError("peel certificate names no such column or row")
        if position[j] < n or forcing[i] < n:
            raise InternalError("peel certificate repeats a column or row")
        if i not in cols[j]:
            raise InternalError("peel certificate: a forcing row is zero in its column")
        position[j] = forcing[i] = k
    keep = []
    survivors: dict[int, dict] = {}
    for j, (rs, vs) in enumerate(zip(cols, mat.vals)):
        # a forcing row listed before column j's own place is nonzero after its column
        if rs and min(map(forcing.__getitem__, rs)) < position[j]:
            raise InternalError("peel certificate: a forcing row has a later nonzero")
        if position[j] == n:
            t = len(keep)
            keep.append(j)
            for i, v in zip(rs, vs):
                row = survivors.get(i)
                if row is None:
                    survivors[i] = {t: v}
                else:
                    row[t] = v
    return [_primitive_row(row) for row in survivors.values()], keep


def nullspace(mat: RatMatrix) -> list[tuple]:
    """Canonical kernel basis of mat (RREF form, see module docstring).
    Deterministic: identical input gives bit-identical output.  The
    forced-zero columns are peeled first; the surviving ones go through
    the modular engine, which verifies what it returns.  The basis is
    zero-extended over the peeled columns."""
    rows, keep = _drop_peeled(mat, _peel(mat))
    if not keep:
        return []
    basis = _nullspace_modular(rows, len(keep))
    if len(keep) == mat.ncols:
        return basis
    out = []
    for vec in basis:
        x = [0] * mat.ncols
        for j, v in zip(keep, vec):
            x[j] = v
        out.append(tuple(x))
    return out
