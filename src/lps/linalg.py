"""Exact rational linear algebra: sparse matrices, kernels, affine solves.

Two engines produce the same canonical answer: a fraction-free sparse
elimination over the integers (used for small systems) and a dense
modular engine (row reduction mod several 31-bit primes, CRT, rational
reconstruction).  Every vector the modular engine emits is verified
exactly over Q before it is returned, and a mod-p rank argument shows the
verified set is a complete basis, so the optimization cannot change
results.  The canonical kernel basis is the reduced-row-echelon one:
one vector per free column (ascending), scaled integer-primitive with a
positive entry at its free column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InternalError
from .intarith import primes_below, rational_reconstruct

_PRIMES = primes_below(2**31, 48)

# Systems at most this big go through the fraction-free exact engine.
_EXACT_CELL_LIMIT = 5000


@dataclass
class RatMatrix:
    """Sparse matrix of Fractions keyed by (row, col)."""

    nrows: int
    ncols: int
    entries: dict

    @classmethod
    def from_rows(cls, rows: list, ncols: int) -> "RatMatrix":
        entries = {}
        for i, row in enumerate(rows):
            items = row.items() if isinstance(row, dict) else enumerate(row)
            for j, v in items:
                v = Fraction(v)
                if v:
                    entries[(i, j)] = v
        return cls(len(rows), ncols, entries)

    def row_dicts(self) -> list[dict[int, Fraction]]:
        rows: list[dict[int, Fraction]] = [dict() for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def apply(self, vec: tuple) -> list[Fraction]:
        """Exact matrix-vector product."""
        out = [Fraction(0)] * self.nrows
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


def _primitive_vector(vec: list[Fraction], positive_at: int) -> tuple:
    den = 1
    for v in vec:
        den = den * v.denominator // math.gcd(den, v.denominator)
    ints = [int(v * den) for v in vec]
    g = 0
    for n in ints:
        g = math.gcd(g, n)
    if g > 1:
        ints = [n // g for n in ints]
    if ints[positive_at] < 0:
        ints = [-n for n in ints]
    return tuple(Fraction(n) for n in ints)


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
    rows = _integer_rows(mat)
    pivots = _eliminate_exact(rows, mat.ncols)
    return _kernel_from_pivots(pivots, mat.ncols)


def _rank_exact(mat: RatMatrix) -> int:
    rows = _integer_rows(mat)
    return len(_eliminate_exact(rows, mat.ncols))


# ---------------------------------------------------------------------------
# Modular engine.
# ---------------------------------------------------------------------------


def _rref_mod_p(dense: np.ndarray, p: int):
    """In-place Gauss-Jordan mod p.  Returns (reduced pivot-row matrix,
    pivot column list)."""
    A = dense
    m, n = A.shape
    r = 0
    pivots = []
    for c in range(n):
        if r == m:
            break
        col = A[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        inv = pow(int(A[r, c]), p - 2, p)
        A[r] = A[r] * inv % p
        f = A[:, c].copy()
        f[r] = 0
        hit = np.nonzero(f)[0]
        if hit.size:
            A[hit] = (A[hit] - f[hit, None] * A[r][None, :]) % p
        pivots.append(c)
        r += 1
    return A[:r], pivots


def _dense_mod_p(int_rows: list[dict[int, int]], ncols: int, p: int) -> np.ndarray:
    A = np.zeros((len(int_rows), ncols), dtype=np.int64)
    for i, row in enumerate(int_rows):
        for j, v in row.items():
            A[i, j] = v % p
    return A


def _verify_kernel_vector(int_rows: list[dict[int, int]], vec: tuple) -> bool:
    for row in int_rows:
        s = 0
        for j, v in row.items():
            if vec[j]:
                s += v * vec[j]
        if s:
            return False
    return True


def _nullspace_modular(mat: RatMatrix) -> list[tuple]:
    int_rows = _integer_rows(mat)
    ncols = mat.ncols
    best_profile = None  # (rank, pivot tuple); true profile maximizes rank,
    # then has the lexicographically smallest pivot columns
    residues: list[list[int]] = []
    modulus = 1
    free_cols: list[int] = []
    for p in _PRIMES:
        dense = _dense_mod_p(int_rows, ncols, p)
        R, pivots = _rref_mod_p(dense, p)
        profile = (len(pivots), tuple(pivots))
        if len(pivots) == ncols:
            # full column rank mod p forces full rank over Q: empty kernel
            return []
        if best_profile is None or (profile[0], [-c for c in profile[1]]) > (
            best_profile[0],
            [-c for c in best_profile[1]],
        ):
            # strictly better profile: restart accumulation on it
            best_profile = profile
            pivot_set = set(pivots)
            free_cols = [c for c in range(ncols) if c not in pivot_set]
            residues = [[0] * ncols for _ in free_cols]
            modulus = 1
        elif profile != best_profile:
            continue  # unlucky prime, skip
        pivot_cols = best_profile[1]
        inv_m = pow(modulus % p, p - 2, p) if modulus > 1 else 1
        # kernel vector for free col f: 1 at f, -R[i, f] at pivot col i;
        # CRT-combine this prime's values into the accumulators
        for k, f in enumerate(free_cols):
            vals = {f: 1}
            for i, c in enumerate(pivot_cols):
                v = int(R[i, f])
                if v:
                    vals[c] = (-v) % p
            vec = residues[k]
            for j in range(ncols):
                rp = vals.get(j, 0)
                if modulus == 1:
                    vec[j] = rp
                else:
                    # x = vec[j] (mod modulus), x = rp (mod p)
                    delta = (rp - vec[j]) % p
                    vec[j] = vec[j] + modulus * (delta * inv_m % p)
        modulus *= p
        # try rational reconstruction + exact verification
        candidate = []
        ok = True
        for k, f in enumerate(free_cols):
            vec_q = []
            for j in range(ncols):
                q = rational_reconstruct(residues[k][j] % modulus, modulus)
                if q is None:
                    ok = False
                    break
                vec_q.append(q)
            if not ok:
                break
            cand = _primitive_vector(vec_q, f)
            if not _verify_kernel_vector(int_rows, cand):
                ok = False
                break
            candidate.append(cand)
        if ok:
            # rank argument: the rank-p lower bound plus len(candidate)
            # verified independent kernel vectors pin the dimension
            return candidate
    raise InternalError("modular nullspace did not converge")  # pragma: no cover


def nullspace(mat: RatMatrix, engine: str = "auto") -> list[tuple]:
    """Canonical kernel basis of mat (RREF form, see module docstring).
    Deterministic: identical input gives bit-identical output."""
    if mat.ncols == 0:
        return []
    if engine == "auto":
        engine = "exact" if mat.nrows * mat.ncols <= _EXACT_CELL_LIMIT else "modular"
    if engine == "exact":
        basis = _nullspace_exact(mat)
    elif engine == "modular":
        basis = _nullspace_modular(mat)
    else:
        raise ValueError(f"unknown engine {engine!r}")
    for vec in basis:
        if any(v for v in mat.apply(vec)):
            raise InternalError("kernel verification failed")
    return basis


def rank(mat: RatMatrix) -> int:
    """Exact rank over Q."""
    return _rank_exact(mat)


def solve_affine(mat: RatMatrix, rhs: list, engine: str = "auto") -> AffineSolutionSet | None:
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
    basis = nullspace(aug, engine=engine)
    particular = None
    kernel = []
    for vec in basis:
        if vec[n] == 0:
            kernel.append(vec[:n])
        else:
            s = vec[n]
            particular = tuple(-v / s for v in vec[:n])
    if particular is None:
        # the rhs column was a pivot column: no solution
        return None
    out = mat.apply(particular)
    if any(out[i] != Fraction(rhs[i]) for i in range(mat.nrows)):
        raise InternalError("affine solve verification failed")
    return AffineSolutionSet(particular, kernel)
