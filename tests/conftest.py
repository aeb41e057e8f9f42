import random

import pytest

from musym._packed import Ring
from musym.polys import Polynomial, rat, term_from_exps


@pytest.fixture
def rng():
    return random.Random(20240613)


def random_poly(rng, space="r", nvars=2, max_terms=4, max_exp=3, max_coeff=5):
    """Small random polynomial for property tests."""
    coeffs = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = {}
        for i in range(1, nvars + 1):
            e = rng.randint(0, max_exp)
            if e:
                exps[(space, i)] = e
        c = rng.randint(-max_coeff, max_coeff)
        term = term_from_exps(exps)
        coeffs[term] = coeffs.get(term, rat(0)) + c
    return Polynomial(coeffs)


def random_homogeneous(rng, m, delta, max_coeff=6):
    """Random homogeneous degree-delta polynomial in r1..rm (maybe zero)."""
    from musym.linsys import degree_terms

    terms = degree_terms(m, delta)
    coeffs = {}
    for t in terms:
        if rng.random() < 0.6:
            c = rng.randint(-max_coeff, max_coeff)
            if c:
                coeffs[t] = rat(c)
    return Polynomial(coeffs)


def rref(matrix):
    """Reduced row echelon form over the rationals and its pivot columns,
    whose count is the rank: the tests' one linear-algebra oracle."""
    m = [[rat(v) for v in row] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
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


def _rref_kernel(A):
    """One kernel vector per free column of rref(A)."""
    cols = len(A[0])
    red, pivots = rref(A)
    kernel = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [rat(0)] * cols
        v[fc] = rat(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        kernel.append(v)
    return kernel


class FieldRing(Ring):
    """A Ring whose lcm and weighted degree walk the fields one at a time:
    the definitions the kernel's word operations must agree with."""

    def lcm(self, a, b):
        return self.pack([max(x, y) for x, y in zip(self.unpack(a), self.unpack(b))])

    def wdeg(self, mon):
        return sum(e * w for e, w in zip(self.unpack(mon), self.weights))
