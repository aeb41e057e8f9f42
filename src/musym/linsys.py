"""Exact linear algebra over the integers and the linear-system gist check.

A homogeneous F in K[r] is mu-symmetric exactly when it lies in the
span of the specialized basis elements of its degree.  Writing a
candidate gist with indeterminate coefficients and matching
coefficients monomial by monomial produces a linear system A k = b;
solvability decides symmetry and any solution assembles a gist.

A depends only on (mu, delta, kind); only b comes from F.  Every member
is S_mu-invariant, so A's row at a monomial is its row at the orbit's
representative.  ``lsgist`` keeps one layout per shape: the basis
indices, A's rows at the representatives (``symfun.system_basis``),
A's rank profile, the pivot rows R and pivot columns P, and an order
of A_RP's columns.  One routine, ``_solve``, serves every call.  The
first call for a shape eliminates [A | b] on every row and reads R and
P off that elimination; the second records the order, sparsest column
first as the elimination meets them, and it and every later call
eliminate only the square pivot subsystem [A_RP | b_R] with the
columns in that order, afresh.  Either way x is back-substituted over
ints and accepted only after checking A x = b exactly on every row and
that b is S_mu-invariant: the system is consistent exactly when both
hold, and then x, with the free variables 0, is the solution a full
elimination gives.

Elimination is fraction-free (Bareiss) on Python ints, with a lazy
level per row: a row the step's pivot column misses is left alone, not
rescaled.  Rationals appear only in the solutions handed out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress
from operator import mul

from . import symfun
from ._packed import FIELD
from .gistresult import GistResult
from .polys import Polynomial, Term, rat, term_from_exps


def _bareiss(m: list[list[int]], order: list | None = None) -> list[int]:
    """Fraction-free row echelon form, in place, and the pivot columns.

    Bareiss elimination (Math. Comp. 22, 1968): every entry stays an
    integer minor of the input, so each division is exact and no
    rational arithmetic is needed.  The pivot columns are those of the
    reduced row echelon form, since each step takes the first column
    with a nonzero entry at or below the current row; ``_step`` does the
    step.  A row is only ever combined with rows above it, so the input
    rows that end in the first k places span what the first k echelon
    rows span; ``order``, a tag per row, is permuted with the rows, and
    the tags in the first rank places name independent input rows.  ls
    reads its pivot rows R off them.
    """
    pivots: list[int] = []
    pivs, level = [1], [0] * len(m)
    for c in range(len(m[0]) if m else 0):
        if _step(m, level, pivs, c, order):
            pivots.append(c)
            if len(pivots) == len(m):
                break
    return pivots


def _step(m: list[list[int]], level: list[int], pivs: list[int], c: int, order: list | None = None) -> bool:
    """One Bareiss step on column c at row r = len(pivs) - 1, in place;
    False, and nothing done, when column c is 0 at and below row r.

    The pivot is the first row of least |true entry| in column c, which
    keeps the minors that follow small in practice; below the pivot row,
    every entry left of column c is already zero, so only the columns
    right of it are updated.  Levels are lazy, per row: a step whose
    entry in a row is 0 leaves that row alone, where the textbook loop
    would rescale it by pivot/previous pivot.  A row last updated at step
    k holds its entries over the pivot of that step, ``pivs[k]``; its true
    entry now is x * pivs[r] // pivs[k] (x itself when the two pivots are
    equal), and its next update divides by ``pivs[k]``, which telescopes
    the skipped rescales.  A row picked as pivot is brought up to level r
    first, so m and the pivots are the textbook loop's, and a zero row is
    never touched.
    """
    r = len(pivs) - 1
    prev = pivs[r]
    pivot, least = None, 0
    for i in range(r, len(m)):
        a = m[i][c]
        if a:
            q = pivs[level[i]]
            a = abs(a if q == prev else a * prev // q)
            if pivot is None or a < least:
                pivot, least = i, a
    if pivot is None:
        return False
    m[r], m[pivot] = m[pivot], m[r]
    level[r], level[pivot] = level[pivot], level[r]
    if order is not None:
        order[r], order[pivot] = order[pivot], order[r]
    top = m[r]
    q = pivs[level[r]]
    if q != prev:
        top[c:] = [x * prev // q for x in top[c:]]
    a = top[c]
    tail = top[c + 1:]
    for i in range(r + 1, len(m)):
        row = m[i]
        f = row[c]
        if f:
            d = pivs[level[i]]
            row[c] = 0
            row[c + 1:] = [(a * x - f * y) // d for x, y in zip(row[c + 1:], tail)]
            level[i] = r + 1
    pivs.append(a)
    return True


def _sparsest_first(a: list[list[int]]) -> list[int]:
    """The columns of the square nonsingular a, in the order Bareiss
    should take them: sparsest first (Markowitz, Management Science 3,
    1957).

    Runs ``_bareiss``'s elimination on a copy of a, except that each step
    takes the remaining column with the fewest nonzero entries in the
    remaining rows, then the one of smaller least |true entry| (each
    row's true entries taken once per step, where columns tie), then the
    earlier one, and moves it to the step's place before ``_step``
    eliminates it.  So ``_bareiss`` on a's columns in the returned order
    meets the same entries at every step, and pivots on every column.
    """
    m = [list(row) for row in a]
    cols = list(range(len(m)))
    pivs, level = [1], [0] * len(m)
    for r in range(len(m)):
        columns = list(zip(*m[r:]))[r:]  # the columns left, in the rows left
        counts = [len(col) - col.count(0) for col in columns]
        fewest = min(counts)
        tied = [j for j, count in enumerate(counts) if count == fewest]
        if len(tied) > 1:
            p = pivs[r]
            if any(pivs[k] != p for k in level[r:]):
                # each row's true entries, once per step: x, or x * p // q
                # in a row last updated at a step of pivot q
                true = (row[r:] if pivs[k] == p else [x * p // pivs[k] for x in row[r:]] for row, k in zip(m[r:], level[r:]))
                columns = list(zip(*true))
            tied = [min(tied, key=lambda j: min(map(abs, filter(None, columns[j]))))]
        j = r + tied[0]
        for row in m:  # the columns left keep their order
            row.insert(r, row.pop(j))
        cols.insert(r, cols.pop(j))
        _step(m, level, pivs, r)
    return cols


def _cramer(m: list[list[int]], pivots: list[int], det: int, col: int) -> list[int]:
    """D x, where x solves the pivot subsystem of the echelon form m with
    column col as right-hand side and every other entry 0.

    D is the determinant of the pivot subsystem, so D x is an integer
    vector (Cramer's rule): the back-substitution runs over ints, and
    every division in it is exact.
    """
    dx = [0] * len(m[0])
    for r in range(len(pivots) - 1, -1, -1):
        row = m[r]
        rhs = det * row[col] - sum(row[c] * dx[c] for c in pivots[r + 1:])
        dx[pivots[r]] = rhs // row[pivots[r]]
    return dx


def solve_particular(A: list[list], b: list) -> list | None:
    """A solution of A x = b with free variables pinned to 0, or None.

    Bareiss runs on the distinct rows of [A | b], each scaled by the lcm
    of its denominators: the row space, and so the solution set, is
    unchanged.  The free variables fix the solution, so it is the one
    the reduced row echelon form of [A | b] gives; only the final
    D x / D, with D the last pivot, are rational.
    """
    if not A:
        return []
    cols = len(A[0])
    m = []
    for row in dict.fromkeys((*row, bv) for row, bv in zip(A, b)):
        scale = math.lcm(*(v.denominator for v in row if type(v) is not int))
        m.append([v * scale if type(v) is int else v.numerator * (scale // v.denominator) for v in row])
    pivots = _bareiss(m)
    if cols in pivots:
        return None  # pivot in the constants column: inconsistent
    det = m[len(pivots) - 1][pivots[-1]] if pivots else 1
    return [rat(v, det) for v in _cramer(m, pivots, det, cols)[:cols]]


@dataclass(frozen=True)
class LinearSystem:
    """Coefficient matching for degree delta in m roots: row i matches the
    i-th term of ``degree_terms(m, delta)``, column j holds the
    r-coefficients of the j-th specialized basis element, b those of F.
    ``row_index`` lists those terms, built on first read."""

    A: list[list]
    b: list
    column_index: list[tuple[int, ...]]
    m: int
    delta: int

    @cached_property
    def row_index(self) -> list[Term]:
        return degree_terms(self.m, self.delta)


def degree_terms(m: int, delta: int) -> list[Term]:
    """All degree-delta terms in r1..rm, r1-dominant first.

    The ordering puts r1^delta first and r_m^delta last, matching how
    coefficient vectors are conventionally written out.
    """
    return [
        term_from_exps({("r", i + 1): e for i, e in enumerate(exps) if e})
        for exps in symfun._compositions(delta, (delta,) * m)
    ]


def build_system(F: Polynomial, mu: symfun.Partition, kind: str = "e") -> LinearSystem:
    """Set up A k = b in the degree of F, which must be homogeneous of
    degree 1 or more: a constant, zero included, has no system."""
    parts = symfun.root_parts(F, mu)
    if len(parts) != 1 or not parts[0][0]:
        raise ValueError("a linear system needs a homogeneous F of degree 1 or more")
    ((delta, f, den),) = parts
    layout = _layout(mu, delta, kind)
    ring, rep = symfun._root_ring(mu.m), symfun.orbit_tables(mu).rep
    # the terms of degree_terms(mu.m, delta), packed
    monomials = [ring.pack(exps[::-1]) for exps in symfun._compositions(delta, (delta,) * mu.m)]
    A = [list(layout.rows[rep(mon)]) for mon in monomials]
    return LinearSystem(A, [rat(f.get(mon, 0), den) for mon in monomials], list(layout.alphas), mu.m, delta)


@dataclass
class _Layout:
    """What every ls system of one (mu, delta, kind) shares.

    ``rows`` maps each degree-delta representative of mu's orbit tables
    to A's row there, in the order ``degree_terms`` meets the orbits;
    A's row at any monomial is its representative's.
    ``profile``, recorded by the first solve, is A's rank profile: the
    pivot rows R (their representatives) and the pivot columns P.
    ``plan``, recorded by the second, is what every later solve reads
    [A_RP | b_R] off: P in the order ``_sparsest_first`` gives A_RP's
    columns, A_RP's rows with their columns in that order, and R.
    """

    alphas: list[tuple[int, ...]]
    rows: dict[int, tuple[int, ...]]
    mu: symfun.Partition
    delta: int
    profile: tuple[list[int], list[int]] | None = None
    plan: tuple[list[int], list[list[int]], list[int]] | None = None


@lru_cache(maxsize=None)
def _layout(mu: symfun.Partition, delta: int, kind: str) -> _Layout:
    alphas, basis = symfun.system_basis(kind, delta, mu)
    tables = symfun.orbit_tables(mu)
    # in the order degree_terms meets the orbits: a block's fields, read from
    # the top, are the exponents of the orbit's first monomial there
    fields = [(tables.shifts[lo], (1 << FIELD * (hi - lo)) - 1) for lo, hi in tables.blocks]
    reps = sorted(tables.representatives(delta), key=lambda rep: [rep >> s & mask for s, mask in fields], reverse=True)
    return _Layout(alphas, {rep: tuple(g.get(rep, 0) for g in basis) for rep in reps}, mu, delta)


def lsgist(F: Polynomial, mu: symfun.Partition, kind: str = "e") -> GistResult:
    """Check mu-symmetry of each homogeneous part of F by solving A k = b.

    Returns the gist built from the particular solutions with free
    coefficients pinned to zero, or a negative verdict when a system is
    inconsistent.
    """
    return GistResult.from_parts(F, mu, kind, _lsgist_part)


def _lsgist_part(delta: int, b: dict, den: int, mu: symfun.Partition, kind: str) -> GistResult:
    layout = _layout(mu, delta, kind)
    solved = _solve(layout, b)  # the part's b, times den
    if solved is None:
        return GistResult.not_symmetric(mu, kind)
    dx, d = solved
    d *= den
    return GistResult.from_coeffs(mu, kind, compress(layout.alphas, dx), [rat(v, d) for v in dx if v])


def _solve(layout: _Layout, b: dict) -> tuple[list[int], int] | None:
    """(D x, D) for the solution x of A x = b with the free variables 0,
    or None when A x = b has no solution.

    The first call for a layout eliminates [A | b] on every row and
    records A's rank profile from that elimination: A's columns come
    first, so their pivots do not depend on b.  The second records the
    plan, A_RP's columns sparsest first; it and every later call
    eliminate only [A_RP | b_R] with the columns in that order, afresh.
    A_RP is nonsingular, so the order leaves x unchanged.  Either way x
    solves the pivot subsystem, and it is accepted only if A x = b holds
    exactly on every row and b is S_mu-invariant, as A x is.
    """
    profile = layout.profile
    if profile is None:
        P, rows, heads = range(len(layout.alphas)), layout.rows.values(), list(layout.rows)
    else:
        if layout.plan is None:
            R, P = profile
            a = [[layout.rows[rep][j] for j in P] for rep in R]
            cols = _sparsest_first(a)
            layout.plan = [P[c] for c in cols], [[row[c] for c in cols] for row in a], R
        P, rows, heads = layout.plan
    m = [[*row, b.get(head, 0)] for row, head in zip(rows, heads)]
    order = list(heads)
    pivots = [c for c in _bareiss(m, order) if c < len(P)]
    if profile is None:
        layout.profile = order[: len(pivots)], pivots
    det = m[len(pivots) - 1][pivots[-1]] if pivots else 1
    dx = [0] * len(layout.alphas)
    for c, v in zip(P, _cramer(m, pivots, det, len(P))):
        dx[c] = v
    consistent = all(b.get(rep, 0) * det == sum(map(mul, row, dx)) for rep, row in layout.rows.items())
    return (dx, det) if consistent and symfun.orbit_tables(layout.mu).invariant(b, layout.delta) else None
