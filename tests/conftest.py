import itertools
import random
from collections import Counter
from functools import lru_cache

import pytest

from musym._packed import Ring, cancel
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


def reference_bareiss(m, order=None):
    """Fraction-free Bareiss elimination with a ``min(..., key=abs)`` pivot
    search and a fresh list per updated row: the echelon form, pivots and
    row tags ``linsys._bareiss`` must reproduce exactly."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    prev = 1
    r = 0
    for c in range(cols):
        pivot = min((i for i in range(r, rows) if m[i][c]), key=lambda i: abs(m[i][c]), default=None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        if order is not None:
            order[r], order[pivot] = order[pivot], order[r]
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


def substitute(p, mapping):
    """p with each variable in mapping replaced by its polynomial; unmapped
    variables persist.  Term by term through Polynomial's own products,
    apart from the packed expansion the library uses."""
    cache = {}
    result = Polynomial()
    for t, c in p.items():
        prod = Polynomial.constant(c)
        for s, i, e in t:
            v = (s, i)
            if v in mapping:
                if (v, e) not in cache:
                    cache[v, e] = mapping[v] ** e
                prod = prod * cache[v, e]
            else:
                prod = prod * Polynomial.monomial(term_from_exps({v: e}))
        result = result + prod
    return result


def oracle_term_product(t1, t2):
    """The product of two terms: exponents added variable by variable."""
    exps = Counter()
    for s, i, e in t1 + t2:
        exps[s, i] += e
    return term_from_exps(exps)


class FieldRing(Ring):
    """A Ring whose lcm and weighted degree walk the fields one at a time:
    the definitions the kernel's word operations must agree with."""

    def lcm(self, a, b):
        return self.pack([max(x, y) for x, y in zip(self.unpack(a), self.unpack(b))])

    def wdeg(self, mon):
        return sum(e * w for e, w in zip(self.unpack(mon), self.weights))


def plain_full_reduce(f, basis, guard, index=None, stop=None):
    """groebner._full_reduce with the plain first-divisor scan: each term,
    largest first, scans every lead from the start, and nothing is
    remembered between terms or calls (``index`` is ignored)."""
    work, out, den = dict(f), {}, 1
    while work:
        t = max(work)
        a = work.pop(t)
        idx = next(
            (i for i, lt in enumerate(basis.lts) if lt <= t and not (t - lt) & guard), -1
        )
        if idx < 0:
            out[t] = a
            if stop is not None and t >= stop:
                break
        else:
            den *= cancel(work, t, a, basis.lts[idx], basis.polys[idx], [], out)
    return out, den


# -- the x-variable families, enumerated term by term --------------------
# The library builds each family once, in the root ring at mu = 1^n; these
# enumerate the definitions in x1..xn directly.


def oracle_generator(kind, i, n):
    """The i-th e, p or c generator in x1..xn: every subset (e) or multiset
    (c) of i variables, or every i-th power (p), with coefficient 1."""
    if i == 0:
        return Polynomial.constant(1)
    if kind == "p":
        return Polynomial({term_from_exps({("x", j): i}): 1 for j in range(1, n + 1)})
    choose = itertools.combinations if kind == "e" else itertools.combinations_with_replacement
    return Polynomial({
        term_from_exps({("x", j): e for j, e in Counter(combo).items()}): 1
        for combo in choose(range(1, n + 1), i)
    })


def oracle_monomial(alpha, n):
    """m_alpha in x1..xn: x^beta once for each distinct rearrangement beta."""
    assert len(alpha) == n
    return Polynomial({
        term_from_exps({("x", j + 1): e for j, e in enumerate(beta)}): 1
        for beta in set(itertools.permutations(alpha))
    })


def oracle_basis_element(kind, alpha, n):
    """m_alpha, or the product of the generators indexed by alpha's parts."""
    if kind == "m":
        return oracle_monomial(alpha, n)
    out = Polynomial.constant(1)
    for a in alpha:
        out = out * oracle_generator(kind, a, n)
    return out


@lru_cache(maxsize=None)
def oracle_subdiscriminant(n, k):
    """Sum over the (n-k)-subsets I of x1..xn of the squared difference
    product prod_{i<j in I} (x_i - x_j)^2; 1 at k = n - 1.  Expanded over
    exponent tuples with int coefficients, apart from the library's
    polynomials and packed monomials."""
    if k == n - 1:
        return Polynomial.constant(1)
    total = Counter()
    for subset in itertools.combinations(range(n), n - k):
        prod = {(0,) * n: 1}
        for a, b in itertools.combinations(subset, 2):
            square = {}  # (x_a - x_b)^2 = x_a^2 - 2 x_a x_b + x_b^2
            for ea, eb, c in ((2, 0, 1), (1, 1, -2), (0, 2, 1)):
                square[tuple(ea if j == a else eb if j == b else 0 for j in range(n))] = c
            step = Counter()
            for e1, c1 in prod.items():
                for e2, c2 in square.items():
                    step[tuple(x + y for x, y in zip(e1, e2))] += c1 * c2
            prod = step
        total.update(prod)
    return Polynomial({term_from_exps({("x", j + 1): e for j, e in enumerate(exps)}): c for exps, c in total.items()})


def degree_monomials(m, delta):
    """Every degree-delta exponent tuple (e_1, ..., e_m) of r1..rm: the
    gaps between m - 1 bars placed among delta + m - 1 slots."""
    return [
        tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, delta + m - 1)))
        for bars in itertools.combinations(range(delta + m - 1), m - 1)
    ]


def orbit_representative(parts, exps):
    """The largest monomial of the S_mu-orbit of exps, mu = parts: inside
    each run of equal multiplicities the exponents ascend with the root
    index."""
    out, i = [], 0
    for _, run in itertools.groupby(parts):
        k = len(list(run))
        out += sorted(exps[i:i + k])
        i += k
    return tuple(out)


def mu_permutations(parts):
    """Every permutation of r1..rm that keeps mu = parts: p[i] is the
    index of the root that r_(i+1) goes to, of the same multiplicity."""
    m = len(parts)
    return [p for p in itertools.permutations(range(m)) if all(parts[p[i]] == parts[i] for i in range(m))]


def permuted(exps, p):
    """The exponent tuple exps with r_(i+1)'s exponent moved to root p[i]."""
    out = [0] * len(exps)
    for i, e in enumerate(exps):
        out[p[i]] = e
    return tuple(out)


def mu_invariant(parts, coeffs, swaps_only=False):
    """Whether coeffs, exponent tuples (e_1, ..., e_m) to coefficients,
    is fixed by every permutation of the roots that keeps mu = parts:
    brute force over all of them, apart from the library's orbit tables.
    ``swaps_only`` tries only the swaps of two roots, which generate them."""
    perms = mu_permutations(parts)
    if swaps_only:
        perms = [p for p in perms if sum(j != i for i, j in enumerate(p)) == 2]
    return all({permuted(e, p): c for e, c in coeffs.items()} == coeffs for p in perms)
