"""Independent checks for musym answers.

Nothing here imports musym.  Polynomials in the distinct roots
r_1..r_m are dicts from exponent tuples to integers; every value the
checks compare is computed from prod (x - r_i)^mu_i with this module's
own arithmetic, so a defect in the code under test cannot cancel
itself out.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb

PRIME = (1 << 61) - 1

# (mu, delta) -> (dim_sym, dim_mu) for the elementary basis, n = 3..5:
# the reference table of the acceptance suite, tests/test_acceptance.py.
DIMENSION_TABLE = {
    ((2, 1), 2): (2, 2), ((2, 1), 3): (3, 3), ((2, 1), 4): (4, 4),
    ((2, 1, 1), 3): (3, 3), ((2, 1, 1), 4): (5, 5), ((2, 1, 1), 5): (6, 6),
    ((3, 1), 3): (3, 3), ((3, 1), 4): (5, 4), ((3, 1), 5): (6, 5),
    ((2, 2), 3): (3, 2), ((2, 2), 4): (5, 3), ((2, 2), 5): (6, 3),
    ((2, 1, 1, 1), 4): (5, 5), ((2, 1, 1, 1), 5): (7, 7), ((2, 1, 1, 1), 6): (10, 10),
    ((2, 2, 1), 4): (5, 5), ((2, 2, 1), 5): (7, 7), ((2, 2, 1), 6): (10, 10),
    ((3, 1, 1), 4): (5, 5), ((3, 1, 1), 5): (7, 7), ((3, 1, 1), 6): (10, 10),
    ((3, 2), 4): (5, 4), ((3, 2), 5): (7, 5), ((3, 2), 6): (10, 6),
    ((4, 1), 4): (5, 4), ((4, 1), 5): (7, 5), ((4, 1), 6): (10, 6),
}


# -- polynomials in r as exponent-tuple dicts ------------------------------


def poly_add(a: dict, b: dict, scale=1) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + scale * c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def poly_eval(p: dict, roots) -> Fraction:
    total = Fraction(0)
    for e, c in p.items():
        v = Fraction(c)
        for r, k in zip(roots, e):
            v *= Fraction(r) ** k
        total += v
    return total


def poly_text(p: dict) -> str:
    """Text musym's parser reads, e.g. ``3*r1^2*r2 + -5*r3^4``."""
    pieces = []
    for e, c in sorted(p.items(), reverse=True):
        factors = [str(c)] + [f"r{i + 1}^{k}" for i, k in enumerate(e) if k]
        pieces.append("*".join(factors))
    return " + ".join(pieces) if pieces else "0"


def swapped(e: tuple, i: int, j: int) -> tuple:
    e = list(e)
    e[i], e[j] = e[j], e[i]
    return tuple(e)


def equal_pair(mu: tuple) -> tuple | None:
    """Two roots of equal multiplicity, or None when all differ."""
    for i in range(len(mu)):
        for j in range(i + 1, len(mu)):
            if mu[i] == mu[j]:
                return i, j
    return None


def swap_asymmetric(p: dict, pair: tuple) -> bool:
    """True when p changes under swapping the two roots of ``pair``.

    Swapping two roots of equal multiplicity fixes every mu-symmetric
    polynomial, so such a p has no gist.
    """
    i, j = pair
    return any(p.get(swapped(e, i, j), 0) != c for e, c in p.items())


# -- the specialized elementary generators ----------------------------------


@lru_cache(maxsize=None)
def spec_elementary(mu: tuple) -> tuple:
    """e_1..e_n of the roots r_j repeated mu_j times, as polynomials in r.

    e_i is the sum over k with sum(k) = i, k_j <= mu_j, of
    prod C(mu_j, k_j) r_j^k_j.
    """
    n = sum(mu)
    out = []
    for i in range(1, n + 1):
        p = {}
        for ks in itertools.product(*(range(m + 1) for m in mu)):
            if sum(ks) == i:
                c = 1
                for m, k in zip(mu, ks):
                    c *= comb(m, k)
                p[ks] = c
        out.append(p)
    return tuple(out)


@lru_cache(maxsize=None)
def capped_partitions(delta: int, n: int) -> tuple:
    """Partitions of delta into parts <= n, parts weakly decreasing."""
    out = []

    def walk(rest, cap, prefix):
        if rest == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(rest, cap), 0, -1):
            walk(rest - part, part, prefix + [part])

    walk(delta, min(delta, n), [])
    return tuple(out)


@lru_cache(maxsize=None)
def partition_count(delta: int, cap: int) -> int:
    """Number of partitions of delta into parts <= cap (recurrence only)."""
    if delta == 0:
        return 1
    if cap == 0:
        return 0
    total = partition_count(delta, cap - 1)
    if delta >= cap:
        total += partition_count(delta - cap, cap)
    return total


def spec_products(mu: tuple, delta: int) -> list[dict]:
    """e_alpha specialized to mu, one per capped partition alpha of delta."""
    es = spec_elementary(mu)
    m = len(mu)
    out = []
    for alpha in capped_partitions(delta, sum(mu)):
        p = {(0,) * m: 1}
        for a in alpha:
            p = poly_mul(p, es[a - 1])
        out.append(p)
    return out


def generator_values(mu: tuple, roots) -> list[Fraction]:
    """e_1..e_n at the roots, read off prod (x - r_j)^mu_j."""
    coeffs = [Fraction(1)]             # highest degree first
    for r, m in zip(roots, mu):
        for _ in range(m):
            nxt = coeffs + [Fraction(0)]
            for k, c in enumerate(coeffs):
                nxt[k + 1] -= c * r
            coeffs = nxt
    return [(-1) ** i * coeffs[i] for i in range(1, len(coeffs))]


def expanded_roots(mu: tuple, roots) -> list:
    return [r for r, m in zip(roots, mu) for _ in range(m)]


# -- named inputs at numeric roots ------------------------------------------


def named_value(name: str, mu: tuple, roots) -> Fraction:
    """dplus, delta or subdisc:k evaluated directly at the roots."""
    pairs = list(itertools.combinations(range(len(mu)), 2))
    if name == "dplus":
        out = Fraction(1)
        for i, j in pairs:
            out *= Fraction(roots[i] - roots[j]) ** (mu[i] + mu[j])
        return out
    if name == "delta":
        out = Fraction(1)
        for i, j in pairs:
            out *= Fraction(roots[i] - roots[j]) ** 2
        return out
    if name.startswith("subdisc:"):
        k = int(name.split(":", 1)[1])
        xs = expanded_roots(mu, roots)
        total = Fraction(0)
        for subset in itertools.combinations(xs, len(xs) - k):
            v = Fraction(1)
            for a, b in itertools.combinations(subset, 2):
                v *= Fraction(a - b) ** 2
            total += v
        return total
    raise ValueError(f"no closed form for {name!r}")


# -- gists and relations ----------------------------------------------------


def eval_terms(terms, zvals) -> Fraction:
    """Evaluate ((((z index, exp), ...), coeff), ...) at z = zvals."""
    total = Fraction(0)
    for exps, c in terms:
        v = Fraction(c)
        for index, e in exps:
            v *= zvals[index - 1] ** e
        total += v
    return total


# -- dimensions --------------------------------------------------------------


def rank_mod_p(rows: list[list[int]]) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] % PRIME), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], PRIME - 2, PRIME)
        rows[rank] = [v * inv % PRIME for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] % PRIME:
                f = rows[i][c]
                rows[i] = [(a - f * b) % PRIME for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def dims_expected(mu: tuple, delta: int, rng) -> tuple[int, int]:
    """(dim_sym, dim_mu): a partition count, and the rank of the
    specialized e_alpha evaluated at random points modulo a prime."""
    n = sum(mu)
    dim_sym = partition_count(delta, n)
    alphas = capped_partitions(delta, n)
    rows = []
    for _ in range(dim_sym + 2):
        roots = [rng.randrange(PRIME) for _ in mu]
        evals = [int(v) % PRIME for v in generator_values(mu, roots)]
        row = []
        for alpha in alphas:
            v = 1
            for a in alpha:
                v = v * evals[a - 1] % PRIME
            row.append(v)
        rows.append(row)
    dim_mu = rank_mod_p(rows)
    if (mu, delta) in DIMENSION_TABLE and DIMENSION_TABLE[(mu, delta)] != (dim_sym, dim_mu):
        raise AssertionError(f"oracle disagrees with the reference table at {mu}, {delta}")
    return dim_sym, dim_mu
