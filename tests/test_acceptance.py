"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  Every algebraic comparison here is exact; the single floating
comparison (the golden-ratio cross-check) carries an explicit 1e-9
tolerance.  Randomized suites use fixed seeds.
"""

import math
import random
import statistics
import time
from contextlib import contextmanager

import pytest
from conftest import substitute

from musym import groebner, reduction, symfun
from musym.groebner import elimination_system, ggist, mu_ideal_generators, normal_form
from musym.linsys import lsgist
from musym.polys import (
    Polynomial,
    gist_weight,
    leading,
    parse_poly,
    rat,
    term_from_exps,
    wdeg,
)
from musym.reduction import (
    adversarial_chooser,
    canonical_system,
    canonize,
    crgist,
    nreduce,
    random_chooser,
    reduce,
)
from musym.symfun import (
    Partition,
    dplus,
    dplus_gist_equal,
    dplus_gist_m2,
    spec_generator,
    specialize,
    sym_dimensions,
    weak_partitions,
    z_term_for,
)

P = parse_poly


def fresh_caches():
    groebner.clear_memo()
    reduction.clear_memo()
    symfun.clear_caches()


@contextmanager
def criterion(number, description, limit=None):
    t0 = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - t0
        if limit is not None and elapsed >= limit:
            raise AssertionError(
                f"criterion {number} took {elapsed:.2f}s, limit {limit}s"
            )
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description} ({elapsed:.2f}s)")


def substitution(mu, kind="e"):
    return {("z", i): spec_generator(kind, i, mu) for i in range(1, mu.n + 1)}


def all_partitions(n, max_part=None):
    max_part = max_part or n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part), 0, -1):
        out.extend((first,) + rest for rest in all_partitions(n - first, first))
    return out


def test_criterion_1_golden_gist():
    with criterion(1, "golden gist for 3r1^2+2r1r2+r2^2 at mu=2,1", limit=1.0):
        fresh_caches()
        mu = Partition.of(2, 1)
        F = P("3*r1^2 + 2*r1*r2 + r2^2")
        expected = P("z1^2 - z2")
        results = {
            "groebner": ggist(F, mu),
            "cr": crgist(F, mu),
            "ls": lsgist(F, mu),
        }
        for name, res in results.items():
            assert res.symmetric, name
            assert substitute(res.gist, substitution(mu)) == F, name
        assert results["groebner"].gist == expected
        assert results["ls"].gist == expected


def test_criterion_2_negative_cases():
    with criterion(2, "negative verdicts for two non-symmetric inputs at mu=2,1"):
        mu = Partition.of(2, 1)
        for text in ("3*r1^2 + 4*r1*r2 + r2^2", "r1 + r2"):
            F = P(text)
            for algo, fn in (("groebner", ggist), ("cr", crgist), ("ls", lsgist)):
                assert not fn(F, mu).symmetric, (text, algo)


# the nine relations for mu=(2,2), one per weighted degree 3..10 and 12
RELATIONS_22 = [
    "z1^3 - 4*z1*z2 + 8*z3",
    "z1^2*z2 + 2*z1*z3 - 4*z2^2 + 16*z4",
    "z1^2*z3 + 8*z1*z4 - 4*z2*z3",
    "z1^2*z4 - z3^2",
    "4*z1*z2*z4 - z1*z3^2 - 8*z3*z4",
    "2*z1*z3*z4 - 4*z2^2*z4 + z2*z3^2 + 16*z4^2",
    "8*z1*z4^2 - 4*z2*z3*z4 + z3^3",
    "z1*z3^3 - 8*z2^3*z4 + 2*z2^2*z3^2 + 32*z2*z4^2 + 8*z3^2*z4",
    "16*z2^2*z4^2 - 8*z2*z3^2*z4 + z3^4 - 64*z4^3",
]


def test_criterion_3_mu_ideal_22():
    with criterion(3, "relation ideal for mu=2,2 matches all nine generators", limit=30.0):
        fresh_caches()
        got = mu_ideal_generators(Partition.of(2, 2))
        expected = set()
        for text in RELATIONS_22:
            p = P(text)
            expected.add(p / leading(p)[1])
        assert set(got) == expected
        assert len(got) == 9


def test_criterion_4_dplus_221_end_to_end():
    with criterion(4, "dplus gist for mu=2,2,1 evaluates to -25", limit=60.0):
        fresh_caches()
        mu = Partition.of(2, 2, 1)
        F = dplus(mu)
        res = lsgist(F, mu)
        assert res.symmetric
        assert wdeg(res.gist, gist_weight) == 10
        assert res.evaluate([3, 1, -3, -1, 1]) == -25
        assert substitute(res.gist, substitution(mu)) == F
        # floating cross-check at the golden-ratio roots
        phi = (1 + math.sqrt(5)) / 2
        roots = [phi, 1 - phi, 1.0]
        exps = {(0, 1): 4, (0, 2): 3, (1, 2): 3}
        direct = 1.0
        for (i, j), e in exps.items():
            direct *= (roots[i] - roots[j]) ** e
        assert abs(direct - (-25.0)) < 1e-9


def test_criterion_5_two_root_closed_forms():
    with criterion(5, "closed-form gists for every two-part mu with n<=8", limit=10.0):
        checked = 0
        for n in range(2, 9):
            for mu1 in range(n - 1, 0, -1):
                mu2 = n - mu1
                if mu2 > mu1:
                    continue
                mu = Partition.of(mu1, mu2)
                gist = dplus_gist_m2(mu)
                assert substitute(gist, substitution(mu)) == dplus(mu), mu
                checked += 1
        assert checked >= 16
        # for mu=(2,1) the gist agrees with the cubic coefficient formula
        gist3 = dplus_gist_m2(Partition.of(2, 1))
        rng = random.Random(5)
        for _ in range(12):
            a0 = rat(rng.randint(1, 9))
            a1, a2, a3 = (rat(rng.randint(-9, 9)) for _ in range(3))
            value = gist3.evaluate({("z", 1): -a1 / a0, ("z", 2): a2 / a0, ("z", 3): -a3 / a0})
            formula = (a1 ** 3 - rat(9, 2) * a0 * a1 * a2 + rat(27, 2) * a0 ** 2 * a3) / a0 ** 3
            assert value == formula


def test_criterion_6_equal_multiplicity_lifts():
    with criterion(6, "equal-multiplicity lifts specialize to dplus for n<=6", limit=30.0):
        checked = 0
        for n in range(2, 7):
            for m in range(2, n + 1):
                if n % m:
                    continue
                common = n // m
                mu = Partition(tuple([common] * m))
                lift = dplus_gist_equal(mu)
                assert specialize(lift, mu) == dplus(mu), mu
                checked += 1
        assert checked >= 8


# (mu, delta) -> (dim_sym, dim_mu); 27 reference rows, n = 3..5
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


def test_criterion_7_dimension_table():
    with criterion(7, "dimension table reproduced, all 27 rows", limit=60.0):
        for (parts, delta), expected in DIMENSION_TABLE.items():
            assert sym_dimensions(Partition(parts), delta) == expected, (parts, delta)


def _random_mu(rng):
    n = rng.randint(2, 5)
    return Partition(rng.choice(all_partitions(n)))


def _random_homogeneous(rng, m, delta):
    from musym.linsys import degree_terms

    coeffs = {}
    for t in degree_terms(m, delta):
        if rng.random() < 0.5:
            c = rng.randint(-5, 5)
            if c:
                coeffs[t] = rat(c)
    return Polynomial(coeffs)


def _random_symmetric(rng, mu, delta):
    out = Polynomial.zero()
    for alpha in weak_partitions(delta, mu.n, "capped"):
        if rng.random() < 0.6:
            out = out + rng.randint(-4, 4) * symfun.spec_basis_element("e", alpha, mu)
    return out


def test_criterion_8_property_suites():
    with criterion(8, "randomized property suites (seeds fixed)"):
        rng = random.Random(987654321)

        # cross-algorithm agreement on 200 instances, half symmetric by
        # construction; substitution identity and gist minimality checked
        # on every positive verdict
        agree = symmetric_seen = 0
        for k in range(200):
            F = Polynomial.zero()
            while F.is_zero:
                mu = _random_mu(rng)
                delta = rng.randint(1, 5)
                if k % 2:
                    F = _random_symmetric(rng, mu, delta)
                else:
                    F = _random_homogeneous(rng, mu.m, delta)
            res_g = ggist(F, mu)
            res_c = crgist(F, mu)
            res_l = lsgist(F, mu)
            verdicts = {res_g.symmetric, res_c.symmetric, res_l.symmetric}
            assert len(verdicts) == 1, (str(F), mu)
            agree += 1
            if res_g.symmetric:
                symmetric_seen += 1
                sub = substitution(mu)
                for res in (res_g, res_c, res_l):
                    assert substitute(res.gist, sub) == F
                assert wdeg(res_g.gist, gist_weight) <= wdeg(res_l.gist, gist_weight)
        assert agree == 200 and symmetric_seen >= 90

        # confluence: nondeterministic reduction agrees with the sweep on
        # 100 instances, 10 random choosers each
        for k in range(100):
            m, delta = rng.choice([(2, 3), (3, 2), (3, 3)])
            basis = [_random_homogeneous(rng, m, delta) for _ in range(3)]
            C = canonize([b for b in basis if not b.is_zero]).sequence
            F = _random_homogeneous(rng, m, delta)
            expected = reduce(F, C).remainder
            for seed in range(10):
                R, _ = nreduce(F, C, random_chooser(random.Random(seed)))
                assert R == expected

        # worst cases: chained sequences force 2^l - 1 adversarial steps,
        # and the tight family meets the sweep's loop bound exactly
        for l in range(1, 11):
            ps = [
                Polynomial.monomial(term_from_exps({("r", 1): l - j, ("r", 2): j - 1}))
                for j in range(1, l + 1)
            ]
            C = [sum(ps[: i + 1], Polynomial.zero()) for i in range(l)]
            R, steps = nreduce(C[-1], C, adversarial_chooser)
            assert R.is_zero and steps == 2 ** l - 1, l
        l, s = 5, 4
        ps = [
            Polynomial.monomial(term_from_exps({("r", 1): l - j, ("r", 2): j - 1}))
            for j in range(1, l + 1)
        ]
        qs = [Polynomial.monomial(term_from_exps({("r", 2): l + k})) for k in range(1, s + 1)]
        F = ps[0] + sum(qs, Polynomial.zero())
        res = reduce(F, ps)
        assert res.loops == (s + 1) - 1 + l

        # ideal membership: expressions in the generator symbols minus
        # their own expansions reduce to zero
        for parts in [(2, 1), (2, 2), (3, 1), (3, 2)]:
            mu = Partition(parts)
            sub = substitution(mu)
            for _ in range(5):
                R = Polynomial.zero()
                for alpha in weak_partitions(rng.randint(1, 3), mu.n, "capped"):
                    if rng.random() < 0.5:
                        R = R + rng.randint(-3, 3) * Polynomial.monomial(z_term_for(alpha))
                if R.is_zero:
                    continue
                diff = R - substitute(R, sub)
                if diff.is_zero:
                    continue
                system = elimination_system(mu, degree=wdeg(diff, gist_weight))
                assert normal_form(diff, system.basis).is_zero

        # relation ideal, both inclusions: members vanish under
        # substitution, and a hand-derived relation is a member
        for parts in [(2, 2), (3, 1), (3, 2)]:
            mu = Partition(parts)
            sub = substitution(mu)
            for g in mu_ideal_generators(mu):
                assert substitute(g, sub).is_zero
        mu22 = Partition.of(2, 2)
        h = P("(z1^3 + 8*z3 - 4*z1*z2)/8")
        assert normal_form(h, mu_ideal_generators(mu22)).is_zero


def _median_time(fn, repeat=3):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def test_criterion_9_performance_ordering():
    with criterion(9, "direct algorithms beat the elimination route 10x"):
        mu = Partition.of(2, 2, 1)
        F = dplus(mu)

        def timed(fn):
            times = []
            for _ in range(3):
                fresh_caches()
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            return statistics.median(times)

        t_g = timed(lambda: ggist(F, mu))
        t_c = timed(lambda: crgist(F, mu))
        t_l = timed(lambda: lsgist(F, mu))
        assert t_l * 10 <= t_g, f"lsgist {t_l:.4f}s vs ggist {t_g:.4f}s"
        assert t_c * 10 <= t_g, f"crgist {t_c:.4f}s vs ggist {t_g:.4f}s"

        # with the canonical sequence cached, successive reduce phases are
        # each faster than a fresh linear solve on the same shape
        fresh_caches()
        canonical_system(mu, 10)  # warm the cache once
        e1, e5 = spec_generator("e", 1, mu), spec_generator("e", 5, mu)
        inputs = [F, e5 ** 2, e1 ** 10, F + P("r1^10")]
        for G in inputs:
            t_reduce = _median_time(lambda: crgist(G, mu))
            t_solve = _median_time(lambda: lsgist(G, mu))
            assert t_reduce < t_solve, f"reduce {t_reduce:.4f}s vs solve {t_solve:.4f}s"


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
