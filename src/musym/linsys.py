"""Exact rational linear algebra and the linear-system gist check.

A homogeneous F in K[r] is mu-symmetric exactly when it lies in the
span of the specialized basis elements of its degree.  Writing a
candidate gist with indeterminate coefficients and matching
coefficients monomial by monomial produces a linear system A k = b;
solvability decides symmetry and any solution assembles a gist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import symfun
from .gistresult import GistResult
from .polys import Polynomial, Term, is_homogeneous, rat, term_from_exps


def rref(matrix: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form (in place on a copy) and pivot columns."""
    m = [[rat(v) for v in row] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = rat(1) / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def _integer_rows(matrix: list[list]) -> list[list[int]]:
    """Each row scaled by the lcm of its denominators; the row space,
    and so every solution set, is unchanged."""
    out = []
    for row in matrix:
        scale = math.lcm(*(int(v.denominator) for v in row))
        out.append([int(v.numerator) * (scale // int(v.denominator)) for v in row])
    return out


def _bareiss(m: list[list[int]]) -> list[int]:
    """Fraction-free row echelon form, in place, and the pivot columns.

    Bareiss elimination (Math. Comp. 22, 1968): every entry stays an
    integer minor of the input, so each division below is exact and no
    rational arithmetic is needed.  The pivot columns are those of
    ``rref``, since both pick the first nonzero column at every step.
    Each pivot is the smallest candidate in its column, which keeps the
    minors that follow small in practice; below the pivot row, every
    entry left of the pivot column is already zero, so only the columns
    right of it are updated.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(cols):
        pivot = min((i for i in range(r, rows) if m[i][c]), key=lambda i: abs(m[i][c]), default=None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        a = m[r][c]
        tail = m[r][c + 1:]
        for i in range(r + 1, rows):
            row = m[i]
            f = row[c]
            if f:
                row[c:] = [0] + [(a * x - f * y) // prev for x, y in zip(row[c + 1:], tail)]
            elif a != prev:
                row[c + 1:] = [a * x // prev for x in row[c + 1:]]
        prev = a
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def matrix_rank(matrix: list[list]) -> int:
    if not matrix:
        return 0
    return len(_bareiss(_integer_rows(matrix)))


def solve_particular(A: list[list], b: list) -> list | None:
    """A solution of A x = b with free variables pinned to 0, or None.

    Repeated rows of [A | b] are dropped first: the row space, and so
    the pivots and the solution, stay the same.  The free variables fix
    the solution, so it is the one ``rref`` gives.  After Bareiss
    elimination the last pivot D is the determinant of the pivot
    subsystem, so D x is an integer vector (Cramer's rule): the
    back-substitution solves for it over ints, with exact divisions,
    and only the final D x / D are rational.
    """
    if not A:
        return []
    cols = len(A[0])
    rows = dict.fromkeys((*row, bv) for row, bv in zip(A, b))
    aug = _integer_rows([list(row) for row in rows])
    pivots = _bareiss(aug)
    if cols in pivots:
        return None  # pivot in the constants column: inconsistent
    det = aug[len(pivots) - 1][pivots[-1]] if pivots else 1
    dx = [0] * cols  # D x
    for r in range(len(pivots) - 1, -1, -1):
        row = aug[r]
        rhs = det * row[cols] - sum(row[c] * dx[c] for c in pivots[r + 1:])
        dx[pivots[r]] = rhs // row[pivots[r]]
    return [rat(v, det) for v in dx]


def nullspace(A: list[list]) -> list[list]:
    """Basis of the kernel, one vector per free column."""
    if not A:
        return []
    cols = len(A[0])
    red, pivots = rref(A)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [rat(0)] * cols
        v[fc] = rat(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


@dataclass(frozen=True)
class LinearSystem:
    """Coefficient matching for one degree: column j holds the
    r-coefficients of the j-th specialized basis element, b those of F."""

    A: list[list]
    b: list
    column_index: list[tuple[int, ...]]
    row_index: list[Term]


def degree_terms(m: int, delta: int) -> list[Term]:
    """All degree-delta terms in r1..rm, r1-dominant first.

    The ordering puts r1^delta first and r_m^delta last, matching how
    coefficient vectors are conventionally written out.
    """
    return [
        term_from_exps({("r", i + 1): e for i, e in enumerate(exps) if e})
        for exps in _compositions(delta, m)
    ]


def _compositions(total: int, parts: int):
    """Tuples of ``parts`` >= 1 nonnegative integers summing to
    ``total``, in descending lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def build_system(F: Polynomial, mu: symfun.Partition, kind: str = "e", delta: int | None = None) -> LinearSystem:
    """Set up A k = b for a homogeneous F.

    The degree is taken from F; the zero polynomial carries none, so it
    needs an explicit ``delta`` (and then b is the zero vector).
    """
    symfun.check_root_input(F, mu)
    if not is_homogeneous(F):
        raise ValueError("build_system expects a homogeneous polynomial")
    if delta is None:
        if F.is_zero:
            raise ValueError("build_system needs an explicit delta when F=0")
        delta = F.total_degree()
    elif not F.is_zero and F.total_degree() != delta:
        raise ValueError("delta does not match the degree of F")
    alphas, basis = symfun.spec_basis(kind, delta, mu)
    rows = degree_terms(mu.m, delta)
    ring = symfun._root_ring(mu.m)
    A = [[g.get(mon, 0) for g in basis] for mon in map(ring.pack_term, rows)]
    b = [F.coeff(t) for t in rows]
    return LinearSystem(A, b, alphas, rows)


def lsgist(F: Polynomial, mu: symfun.Partition, kind: str = "e") -> GistResult:
    """Check mu-symmetry of a homogeneous F by solving A k = b.

    Returns the gist built from the particular solution with free
    coefficients pinned to zero, or a negative verdict when the system
    is inconsistent.
    """
    if F.is_constant:
        return GistResult.constant(mu, kind, F)
    system = build_system(F, mu, kind)
    k = solve_particular(system.A, system.b)
    if k is None:
        return GistResult.not_symmetric(mu, kind)
    return GistResult.from_coeffs(mu, kind, system.column_index, k)
