import itertools
import math
import random

import pytest

from conftest import (
    degree_monomials,
    mu_invariant,
    oracle_basis_element,
    oracle_generator,
    oracle_monomial,
    oracle_subdiscriminant,
    orbit_representative,
    substitute,
)
from musym import symfun
from musym.polys import Polynomial, homogeneous_parts, parse_poly, rat, term_from_exps
from musym.reduction import canonize
from musym.symfun import (
    Partition,
    basis_element,
    delta_lift,
    delta_squares,
    distinct_permutations,
    dplus,
    dplus_gist_equal,
    dplus_gist_m2,
    dstar,
    generator,
    index_flavor,
    monomial_generator,
    spec_basis,
    spec_basis_element,
    spec_generator,
    spec_subdiscriminant,
    specialize,
    subdiscriminant,
    sym_dimensions,
    weak_partitions,
)

P = parse_poly


def mu_(*parts):
    return Partition.of(*parts)


def all_partitions(n, max_part=None):
    """Brute-force partition enumeration used as an oracle."""
    max_part = max_part or n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part), 0, -1):
        out.extend((first,) + rest for rest in all_partitions(n - first, first))
    return out


def brute_weak_partitions(delta, n, flavor):
    """Oracle: filter all weakly decreasing tuples of the right shape."""
    if flavor == "capped":
        length, cap = delta, n
    else:
        length, cap = n, delta
    found = set()
    for combo in itertools.product(range(cap + 1), repeat=length):
        if sum(combo) == delta and all(combo[i] >= combo[i + 1] for i in range(length - 1)):
            found.add(combo)
    return found


def test_partition_validation():
    assert mu_(2, 2, 1).n == 5 and mu_(2, 2, 1).m == 3
    assert str(Partition.parse("2,2,1")) == "2,2,1"
    for bad in ((), (0,), (1, 2), (2, -1)):
        with pytest.raises(ValueError):
            Partition(tuple(bad))
    with pytest.raises(ValueError):
        Partition.parse("2,x")
    # bools are ints to Python, but not parts
    for bad in ((True, True), (2, False), (True,)):
        with pytest.raises(ValueError, match="^parts must be positive integers$"):
            Partition(bad)


def test_weak_partitions_known_values():
    assert weak_partitions(2, 3, "capped") == [(1, 1), (2, 0)]
    assert weak_partitions(3, 4, "capped") == [(1, 1, 1), (2, 1, 0), (3, 0, 0)]
    assert set(weak_partitions(2, 3, "exact")) == {(2, 0, 0), (1, 1, 0)}
    with pytest.raises(ValueError, match="^unknown flavor 'odd'$"):
        weak_partitions(3, 2, "odd")
    with pytest.raises(ValueError, match=r"^unknown basis kind 'x'; expected one of \('e', 'p', 'c', 'm'\)$"):
        index_flavor("x")


@pytest.mark.parametrize("delta,n", [(2, 3), (3, 4), (4, 2), (5, 5), (6, 3)])
@pytest.mark.parametrize("flavor", ["capped", "exact"])
def test_weak_partitions_against_brute_force(delta, n, flavor):
    got = weak_partitions(delta, n, flavor)
    assert len(set(got)) == len(got)
    assert set(got) == brute_weak_partitions(delta, n, flavor)
    assert got == sorted(got)  # deterministic ascending order


def test_weak_partition_counts_match_by_conjugation():
    for delta in range(1, 7):
        for n in range(1, 6):
            assert len(weak_partitions(delta, n, "capped")) == len(
                weak_partitions(delta, n, "exact")
            )


def test_generator_examples():
    assert generator("e", 2, 3) == P("x1*x2 + x1*x3 + x2*x3")
    assert generator("p", 2, 2) == P("x1^2 + x2^2")
    assert generator("e", 0, 3) == Polynomial.constant(1)
    assert monomial_generator((2, 0, 0), 3) == P("x1^2 + x2^2 + x3^2")
    with pytest.raises(ValueError):
        generator("e", 4, 3)


def test_monomial_generator_takes_each_rearrangement_once():
    for n in range(1, 8):
        for delta in range(1, 7):
            for alpha in weak_partitions(delta, n, "exact"):
                want = set(itertools.permutations(alpha))
                got = list(distinct_permutations(alpha))
                assert len(got) == len(want) and set(got) == want
                terms = {term_from_exps({("x", j + 1): e for j, e in enumerate(b) if e}) for b in want}
                assert set(monomial_generator(alpha, n).support()) == terms


def test_complete_homogeneous_counts():
    # c_i sums every distinct degree-i monomial once
    c2 = generator("c", 2, 3)
    assert len(c2) == 6
    assert all(c == 1 for _, c in c2.items())


def test_basis_element_examples():
    assert basis_element("e", (2, 1, 1, 0), 2) == generator("e", 2, 2) * generator("e", 1, 2) ** 2
    assert basis_element("p", (1, 1), 2) == P("x1 + x2") ** 2
    assert basis_element("e", (1, 1, 1), 3) == generator("e", 1, 3) ** 3
    assert basis_element("m", (2, 0, 0), 3) == P("x1^2 + x2^2 + x3^2")


@pytest.mark.parametrize("n", range(1, 7))
def test_x_families_match_the_oracle(n):
    # each x family is its root-ring builder read at 1^n; the oracle
    # enumerates the definitions term by term in x1..xn
    for kind in ("e", "p", "c"):
        for i in range(n + 1):
            assert generator(kind, i, n) == oracle_generator(kind, i, n), (kind, i)
    for delta in range(1, 5):
        for kind in ("e", "p", "c", "m"):
            for alpha in weak_partitions(delta, n, index_flavor(kind)):
                assert basis_element(kind, alpha, n) == oracle_basis_element(kind, alpha, n), (kind, alpha)
                if kind == "m":
                    assert monomial_generator(alpha, n) == oracle_monomial(alpha, n), alpha
    for k in range(n):
        assert subdiscriminant(n, k) == oracle_subdiscriminant(n, k), k


def test_x_family_edge_cases():
    one = Polynomial.constant(1)
    assert generator("e", 0, 0) == one and generator("c", 0, 4) == one
    assert monomial_generator((), 0) == one and monomial_generator((0, 0), 2) == one
    assert basis_element("e", (), 3) == one and basis_element("p", (0, 0), 0) == one
    assert basis_element("c", [2, 1], 2) == oracle_basis_element("c", (2, 1), 2)
    assert subdiscriminant(1, 0) == one
    refused = [
        (lambda: generator("m", 1, 3), "indexed generators exist for kinds e, p, c only"),
        (lambda: generator("e", 4, 3), "generator index 4 out of range 1..3"),
        (lambda: generator("p", -1, 3), "generator index -1 out of range 1..3"),
        (lambda: generator("e", 1, 0), "generator index 1 out of range 1..0"),
        (lambda: monomial_generator((-1, 1), 2), "negative exponent"),
        (lambda: monomial_generator((1,), 2), "monomial index must have exactly n parts"),
        (lambda: basis_element("e", (4, 1), 3), "generator index 4 out of range 1..3"),
        (lambda: basis_element("c", (1, -1), 3), "generator index -1 out of range 1..3"),
        (lambda: basis_element("x", (1,), 3), "unknown basis kind 'x'"),
        (lambda: basis_element("m", (1, 0), 3), "monomial index must have exactly n parts"),
        (lambda: subdiscriminant(3, 3), "subdiscriminant index 3 out of range 0..2"),
        (lambda: subdiscriminant(3, -1), "subdiscriminant index -1 out of range 0..2"),
        (lambda: subdiscriminant(0, 0), "subdiscriminant index 0 out of range 0..-1"),
    ]
    for build, message in refused:
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


@pytest.mark.parametrize("kind, alpha", [("m", (3, -1, 0)), ("m", (2, 1)), ("e", (4,))])
def test_specialized_members_are_checked_as_the_x_members(kind, alpha):
    # a negative exponent would borrow across the packed fields, and a
    # short m index or an index past n would fail deep in the builder
    with pytest.raises(ValueError) as want:
        basis_element(kind, alpha, 3)
    with pytest.raises(ValueError) as got:
        spec_basis_element(kind, alpha, mu_(2, 1))
    assert str(got.value) == str(want.value)


def test_specialize_examples():
    mu = mu_(2, 1)
    assert spec_generator("e", 1, mu) == P("2*r1 + r2")
    assert spec_generator("e", 2, mu) == P("r1^2 + 2*r1*r2")
    # variables outside the x space are left as they are
    assert specialize(P("x1*z2 + x3^2 + z1"), mu) == P("r1*z2 + r2^2 + z1")


@pytest.mark.parametrize("kind", ["e", "p", "c"])
def test_spec_generator_matches_specialized_expansion(kind):
    # built in the root ring, it equals the enumerated x-variable generator specialized
    for n in range(1, 7):
        for parts in all_partitions(n):
            mu = Partition(parts)
            for i in range(n + 1):
                assert spec_generator(kind, i, mu) == specialize(oracle_generator(kind, i, n), mu), (parts, i)
    for bad in (-1, 4):
        with pytest.raises(ValueError, match=f"generator index {bad} out of range 1..3"):
            spec_generator(kind, bad, mu_(2, 1))


@pytest.mark.parametrize(
    "parts, delta",
    [((2, 2, 1), 10), ((3, 2, 1), 12), ((2, 2, 1, 1), 12), ((2, 1, 1, 1, 1), 12), ((1, 1, 1), 7), ((3,), 4), ((4, 4), 6)],
)
def test_monomial_basis_matches_specialized_expansion(parts, delta):
    # built from the block map, m_alpha equals its expansion in x1..xn specialized
    mu = Partition(parts)
    for alpha in weak_partitions(delta, mu.n, "exact"):
        assert spec_basis_element("m", alpha, mu) == specialize(oracle_monomial(alpha, mu.n), mu), alpha


@pytest.mark.parametrize("parts", [(2, 1), (3, 2), (2, 2, 1), (4, 1, 1), (3, 3, 2, 1)])
def test_specialized_e2_closed_form(parts):
    # sum of C(mu_i, 2) r_i^2 plus sum of mu_i mu_j r_i r_j
    mu = Partition(parts)
    expected = Polynomial.zero()
    for i, mi in enumerate(parts, start=1):
        expected = expected + rat(mi * (mi - 1), 2) * Polynomial.variable("r", i) ** 2
    for i in range(1, len(parts) + 1):
        for j in range(i + 1, len(parts) + 1):
            expected = expected + (
                parts[i - 1] * parts[j - 1] * Polynomial.variable("r", i) * Polynomial.variable("r", j)
            )
    assert spec_generator("e", 2, mu) == expected


def test_specialize_is_ring_homomorphism(rng):
    from conftest import random_poly

    mu = mu_(2, 2, 1)
    for _ in range(25):
        p = random_poly(rng, space="x", nvars=5)
        q = random_poly(rng, space="x", nvars=5)
        assert specialize(p * q, mu) == specialize(p, mu) * specialize(q, mu)
        assert specialize(p + q, mu) == specialize(p, mu) + specialize(q, mu)


def test_specialize_rejects_excess_variables():
    with pytest.raises(ValueError):
        specialize(P("x4"), mu_(2, 1))


def test_dplus_examples():
    assert dplus(mu_(2, 1)) == P("r1 - r2") ** 3
    assert dplus(mu_(1, 1)) == P("r1 - r2") ** 2
    d = dplus(mu_(2, 2, 1))
    assert d.total_degree() == 10
    assert len(homogeneous_parts(d)) == 1
    with pytest.raises(ValueError):
        dplus(mu_(3))


def test_dplus_degree_formula():
    # homogeneous of degree sum over pairs of (mu_i + mu_j)
    for n in range(2, 7):
        for parts in all_partitions(n):
            mu = Partition(parts)
            if mu.m < 2:
                continue
            d = dplus(mu)
            expected = sum(
                parts[i] + parts[j]
                for i in range(mu.m)
                for j in range(i + 1, mu.m)
            )
            assert d.total_degree() == expected
            assert len(homogeneous_parts(d)) == 1


def test_dstar_example():
    assert dstar(mu_(2, 1)) == P("r1 - r2") ** 4
    # symmetric under exchanging the two roots
    swapped = substitute(dstar(mu_(2, 1)), {("r", 1): P("r2"), ("r", 2): P("r1")})
    assert swapped == dstar(mu_(2, 1))


def test_delta_squares():
    assert delta_squares(2) == P("r1 - r2") ** 2
    assert delta_squares(3) == (P("r1-r2") * P("r1-r3") * P("r2-r3")) ** 2


def _difference_powers(indices, k) -> Polynomial:
    """prod over i<j in indices of (r_i - r_j)^k(i, j), multiplied out as
    Polynomials: the definition the packed builders are checked against."""
    out = Polynomial.constant(1)
    for i, j in itertools.combinations(indices, 2):
        out = out * (Polynomial.variable("r", i) - Polynomial.variable("r", j)) ** k(i, j)
    return out


def test_a_huge_binomial_row_is_stepped_exactly():
    # the row of (r1 - r2)^16385 steps each coefficient from the last, so
    # the largest named inputs build in well under a second
    k = 16385
    row = symfun._difference_powers(2, k, [(1, 2, k)])
    s1, s2 = symfun._root_ring(2).shifts[::-1]
    assert len(row) == k + 1
    for a in (0, 1, 2, 3, 1000, 8192, 8193, k - 2, k - 1, k):
        assert row[(a << s1) + ((k - a) << s2)] == (-1) ** (k - a) * math.comb(k, a)


ROOT_CASES = [parts for n in range(2, 8) for parts in all_partitions(n) if 2 <= len(parts) <= 5]


@pytest.mark.parametrize("parts", ROOT_CASES)
def test_root_functions_match_their_products(parts):
    mu = Partition(parts)
    roots = range(1, mu.m + 1)
    mult = dict(zip(roots, parts))
    assert dplus(mu) == _difference_powers(roots, lambda i, j: mult[i] + mult[j])
    assert dstar(mu) == _difference_powers(roots, lambda i, j: 2 * mult[i] * mult[j])
    assert delta_squares(mu.m) == _difference_powers(roots, lambda i, j: 2)
    assert spec_subdiscriminant(mu.n - 1, mu) == 1
    for k in range(mu.n - 1):
        expected = Polynomial.zero()
        for subset in itertools.combinations(roots, mu.n - k):
            weight = 1
            for j in subset:
                weight *= mult[j]
            expected = expected + weight * _difference_powers(subset, lambda i, j: 2)
        assert spec_subdiscriminant(k, mu) == expected, k


@pytest.mark.parametrize(
    "build, degree",
    [
        (lambda: dplus(mu_(16384, 16384)), 32768),
        (lambda: dstar(mu_(128, 128)), 32768),
        (lambda: delta_squares(182), 32942),
        (lambda: spec_subdiscriminant(0, Partition((1,) * 182)), 32942),
    ],
)
def test_root_functions_refuse_a_huge_degree_before_multiplying(build, degree, monkeypatch):
    # packing past the exponent limit would corrupt the fields
    import musym._packed

    def boom(*args):
        raise AssertionError("a product was built")

    monkeypatch.setattr(musym._packed, "mul", boom)
    with pytest.raises(ValueError, match=f"^degree {degree} exceeds the limit 32767$"):
        build()


@pytest.mark.parametrize(
    "build, degree",
    [
        (lambda: spec_basis("e", 32768, mu_(1)), 32768),
        (lambda: spec_basis("m", 65536, mu_(2, 1)), 65536),
        (lambda: spec_basis_element("p", (32768,), mu_(2, 1)), 32768),
        (lambda: spec_generator("p", 40000, mu_(40000)), 40000),
    ],
)
def test_specialized_basis_refuses_a_huge_degree_before_enumerating(build, degree, monkeypatch):
    # packing past the exponent limit would wrap into the next field
    import musym.symfun

    def boom(*args):
        raise AssertionError("an index or a member was built")

    for name in ("weak_partitions", "_spec_products", "_spec_monomial_packed", "_spec_generator_packed"):
        monkeypatch.setattr(musym.symfun, name, boom)
    with pytest.raises(ValueError, match=f"^degree {degree} exceeds the limit 32767$"):
        build()


def test_subdiscriminant_pair_convention():
    # unordered pairs squared: for two variables the 0th subdiscriminant
    # is exactly the squared difference
    assert subdiscriminant(2, 0) == P("x1 - x2") ** 2


def test_subdiscriminant_top_is_one():
    for n in (2, 3, 5):
        assert subdiscriminant(n, n - 1) == Polynomial.constant(1)
    with pytest.raises(ValueError):
        subdiscriminant(3, 3)


def test_subdiscriminant_is_symmetric():
    s = subdiscriminant(4, 2)
    for i, j in [(1, 2), (2, 4), (1, 3)]:
        swap = {("x", i): P(f"x{j}"), ("x", j): P(f"x{i}")}
        assert substitute(s, swap) == s


def test_subdiscriminant_specializes_to_root_differences():
    # for every mu with n <= 6: the (n-m)-th subdiscriminant collapses to
    # (product of multiplicities) times the squared difference product
    for n in range(2, 7):
        for parts in all_partitions(n):
            mu = Partition(parts)
            if mu.m < 2:
                continue
            scale = 1
            for p in parts:
                scale *= p
            lhs = specialize(subdiscriminant(n, n - mu.m), mu)
            assert lhs == scale * delta_squares(mu.m)


SUBDISC_CASES = [
    (parts, k) for n in range(2, 6) for parts in all_partitions(n) for k in range(n)
]


@pytest.mark.parametrize("parts,k", SUBDISC_CASES)
def test_spec_subdiscriminant_matches_specialized_expansion(parts, k):
    mu = Partition(parts)
    got = spec_subdiscriminant(k, mu)
    assert got == specialize(oracle_subdiscriminant(mu.n, k), mu)
    if k < mu.n - mu.m:
        assert got.is_zero  # more roots asked for than mu has


@pytest.mark.parametrize("k", [-1, 5, 6])
def test_spec_subdiscriminant_range_error_matches(k):
    mu = mu_(2, 2, 1)
    with pytest.raises(ValueError) as want:
        subdiscriminant(mu.n, k)
    with pytest.raises(ValueError) as got:
        spec_subdiscriminant(k, mu)
    assert str(got.value) == str(want.value)


def test_delta_lift_m2_closed_form():
    for parts in [(1, 1), (2, 1), (3, 2), (4, 4)]:
        mu = Partition(parts)
        n = mu.n
        e1, e2 = generator("e", 1, n), generator("e", 2, n)
        expected = ((n - 1) * e1 ** 2 - 2 * n * e2) / (parts[0] * parts[1])
        assert delta_lift(mu) == expected


def test_delta_lift_specializes():
    for parts in [(2, 1), (2, 2), (3, 1, 1)]:
        mu = Partition(parts)
        assert specialize(delta_lift(mu), mu) == delta_squares(mu.m)
    with pytest.raises(ValueError, match="^need at least two distinct roots$"):
        delta_lift(Partition((3,)))


def test_dplus_gist_m2_frozen_values():
    assert dplus_gist_m2(mu_(2, 1)) == P("-z1^3 + 9/2*z1*z2 - 27/2*z3")
    assert dplus_gist_m2(mu_(1, 1)) == P("z1^2 - 4*z2")
    assert dplus_gist_m2(mu_(3, 1)) == (P("(3*z1^2 - 8*z2)") / 3) ** 2


@pytest.mark.parametrize("parts", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 3)])
def test_dplus_gist_m2_substitution_oracle(parts):
    mu = Partition(parts)
    gist = dplus_gist_m2(mu)
    mapping = {("z", i): spec_generator("e", i, mu) for i in range(1, mu.n + 1)}
    assert substitute(gist, mapping) == dplus(mu)


def test_dplus_gist_m2_rejects_wrong_shape():
    with pytest.raises(ValueError):
        dplus_gist_m2(mu_(2, 2, 1))


def test_dplus_gist_equal_cases():
    # all multiplicities 1: the lift is the plain discriminant
    assert dplus_gist_equal(mu_(1, 1, 1)) == subdiscriminant(3, 0)
    for parts in [(2, 2), (2, 2, 2), (3, 3)]:
        mu = Partition(parts)
        lift = dplus_gist_equal(mu)
        assert specialize(lift, mu) == dplus(mu)
    with pytest.raises(ValueError, match="^closed form requires all multiplicities equal$"):
        dplus_gist_equal(mu_(2, 1))
    with pytest.raises(ValueError, match="^need at least two distinct roots$"):
        dplus_gist_equal(mu_(3))


def test_spec_e1sq_e2_independent():
    # the squared first generator and the second generator specialize to
    # independent polynomials for every mu with at least two parts
    for n in range(2, 8):
        for parts in all_partitions(n):
            mu = Partition(parts)
            if mu.m < 2:
                continue
            b1 = spec_generator("e", 1, mu) ** 2
            b2 = spec_generator("e", 2, mu)
            assert len(canonize([b1, b2]).sequence) == 2, parts


def test_sym_dimensions_examples():
    assert sym_dimensions(mu_(2, 2), 3) == (3, 2)
    assert sym_dimensions(mu_(3, 2), 6) == (10, 6)
    assert sym_dimensions(mu_(2, 1), 2) == (2, 2)
    # n = 12: the monomial basis must not walk all 12! orders of each index
    assert sym_dimensions(mu_(4, 4, 4), 2, "m") == (2, 2)


def test_sym_dimensions_single_root():
    for delta in (1, 2, 3, 4):
        dim_sym, dim_mu = sym_dimensions(mu_(4), delta)
        assert dim_mu == 1


def test_cross_basis_spans_agree():
    # all four families span the same space of symmetric polynomials
    for n in range(2, 5):
        for delta in range(1, 5):
            ranks = {}
            families = {}
            for kind in ("e", "p", "c", "m"):
                alphas = weak_partitions(delta, n, index_flavor(kind))
                fam = [basis_element(kind, a, n) for a in alphas]
                families[kind] = fam
                ranks[kind] = len(canonize(fam).sequence)
            dim = len(weak_partitions(delta, n, "capped"))
            assert set(ranks.values()) == {dim}
            # pairwise unions do not enlarge the span
            for k1 in families:
                for k2 in families:
                    joint = canonize(families[k1] + families[k2])
                    assert len(joint.sequence) == dim


# -- members over S_mu-orbit representatives -------------------------------

ORBIT_SHAPES = [p for n in range(1, 6) for p in all_partitions(n)] + [(2, 2, 2), (1, 1, 1, 1, 1, 1)]


def _pack(m, exps):
    return symfun._root_ring(m).pack(list(exps[::-1]))


def test_orbit_members_are_the_full_members_at_representatives():
    # called at every degree, below the rule's threshold too, from a cold
    # memo in ascending and in descending degree order
    for parts in ORBIT_SHAPES:
        mu = Partition(parts)
        top = 6 if mu.n == 6 else 8
        reps = {
            delta: {_pack(mu.m, e) for e in degree_monomials(mu.m, delta) if orbit_representative(parts, e) == e}
            for delta in range(1, top + 1)
        }
        for degrees in (range(1, top + 1), range(top, 0, -1)):
            symfun.clear_caches()
            for kind in "epc":
                for delta in degrees:
                    alphas, full = spec_basis(kind, delta, mu)
                    orbit_alphas, members = symfun.orbit_basis(kind, delta, mu)
                    assert orbit_alphas == alphas
                    for f, member in zip(full, members):
                        assert member == {mon: c for mon, c in f.items() if mon in reps[delta]}, (parts, kind, delta)
                        assert symfun.orbit_tables(mu).expand(member) == f
    symfun.clear_caches()


def test_orbit_invariance_test_matches_the_brute_force_check():
    # random packed sums of whole orbits, every mu with n <= 5: each passes
    # the tables' invariance test, and the same dict with one term moved to a
    # monomial it lacks, off an orbit of two or more where it has one, fails
    # it; both as the check over every permutation of equal multiplicities says
    rng = random.Random(36)
    moved = 0
    symfun.clear_caches()
    for parts in [p for n in range(1, 6) for p in all_partitions(n)]:
        mu = Partition(parts)
        tables = symfun.orbit_tables(mu)
        for delta in range(1, 8):
            orbits: dict = {}
            for e in degree_monomials(mu.m, delta):
                orbits.setdefault(orbit_representative(parts, e), []).append(e)
            for _ in range(6):
                chosen = rng.sample(list(orbits.values()), rng.randint(1, len(orbits)))
                coeffs = {e: c for orbit, c in zip(chosen, (rng.choice((-3, -1, 1, 2, 7)) for _ in chosen)) for e in orbit}
                d = {_pack(mu.m, e): c for e, c in coeffs.items()}
                assert mu_invariant(parts, coeffs) and tables.invariant(d, delta), (parts, delta)
                lacking = [e for e in degree_monomials(mu.m, delta) if e not in coeffs]
                nontrivial = [e for e in coeffs if len(orbits[orbit_representative(parts, e)]) > 1]
                if lacking:
                    old, new = rng.choice(nontrivial or list(coeffs)), rng.choice(lacking)
                    coeffs[new] = coeffs.pop(old)
                    d = {_pack(mu.m, e): c for e, c in coeffs.items()}
                    invariant = mu_invariant(parts, coeffs)
                    assert tables.invariant(d, delta) is invariant and not (nontrivial and invariant), (parts, delta, old, new)
                    moved += bool(nontrivial)
    assert moved > 200, moved
    symfun.clear_caches()


def test_orbit_rule_picks_representatives_exactly_at_the_ratio():
    R = symfun.ORBIT_RATIO
    assert R == 16
    for parts in [*ORBIT_SHAPES, (3, 3, 1, 1, 1, 1)]:
        mu = Partition(parts)
        for delta in range(1, 13):
            monomials = degree_monomials(mu.m, delta)
            orbits = {orbit_representative(parts, e) for e in monomials}
            used = len(monomials) >= R * len(orbits)
            for kind in "epcm":
                assert symfun.orbit_rule(kind, delta, mu) is (used and kind != "m"), (parts, delta, kind)
    # where the rule holds on the shapes of ROADMAP item 3
    rule = symfun.orbit_rule
    assert [d for d in range(1, 13) if rule("e", d, Partition.of(1, 1, 1, 1, 1))] == list(range(5, 13))
    assert not any(rule("e", d, Partition.of(1, 1, 1, 1)) for d in range(1, 11))
    assert not rule("e", 12, Partition.of(2, 2, 2)) and not rule("e", 10, Partition.of(2, 2, 1))
    with pytest.raises(ValueError, match="kinds e, p, c only"):
        symfun.orbit_basis("m", 6, Partition.of(1, 1, 1, 1, 1))
