import math

import pytest
from conftest import FieldRing

from musym import _packed, groebner, symfun
from musym.gists import compute_gist
from musym._packed import primitive
from musym.groebner import (
    _GradedEngine,
    buchberger,
    clear_memo,
    elimination_system,
    ggist,
    mu_ideal_basis,
    mu_ideal_generators,
    normal_form,
)
from musym.polys import (
    Polynomial,
    gist_weight,
    is_homogeneous,
    leading,
    parse_poly,
    term_from_exps,
    term_key,
    wdeg,
)
from musym.symfun import (
    Partition,
    dplus,
    root_parts,
    spec_basis_element,
    spec_generator,
    weak_partitions,
    z_term_for,
)

P = parse_poly


def monic(p):
    return p / leading(p)[1]


# the reduced basis for mu=(2,1): one member free of the root variables,
# six mixed members, and the linear relation for the last root
EXAMPLE_21_BASIS = [
    "4*z1^3*z3 - z1^2*z2^2 - 18*z1*z2*z3 + 4*z2^3 + 27*z3^2",
    "2*r1*z2^3 + 4*z1^2*z2*z3 - z1*z2^3 - 54*r1*z3^2 + 36*z1*z3^2 - 15*z2^2*z3",
    "6*r1*z1*z3 - 2*r1*z2^2 - 4*z1^2*z3 + z1*z2^2 + 3*z2*z3",
    "r1*z1*z2 - 9*r1*z3 + 6*z1*z3 - 2*z2^2",
    "2*r1*z1^2 - 6*r1*z2 - z1*z2 + 9*z3",
    "3*r1^2 - 2*r1*z1 + z2",
    "-z1 + 2*r1 + r2",
]

# relations among the specialized generators for mu=(2,2): one per
# weighted degree 3..10 plus one of weighted degree 12
EXAMPLE_22_RELATIONS = [
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


def test_buchberger_single_generator():
    assert buchberger([P("x1 - 1")]) == [P("x1 - 1")]
    assert buchberger([P("3*x1^2 - 3")]) == [P("x1^2 - 1")]


def test_buchberger_on_constant_generators():
    # a ring with no variables still has one weighted-degree slot: before,
    # its slot count was 0 and the shifts went negative
    assert _packed.Ring([]).wdeg(0) == 0
    assert buchberger([Polynomial.constant(2), Polynomial.constant(4)]) == [Polynomial.constant(1)]


def test_buchberger_rejects_empty():
    with pytest.raises(ValueError):
        buchberger([Polynomial.zero()])


def test_mu_ideal_basis_shape():
    mu = Partition.of(2, 1)
    gens = mu_ideal_basis(mu)
    assert gens[0] == P("z1") - P("2*r1 + r2")
    assert gens[1] == P("z2") - P("r1^2 + 2*r1*r2")
    assert gens[2] == P("z3") - P("r1^2*r2")
    for g in gens:
        assert is_homogeneous(g, gist_weight)


def test_elimination_basis_21_matches_worked_example():
    system = elimination_system(Partition.of(2, 1))
    expected = sorted(
        (monic(P(text)) for text in EXAMPLE_21_BASIS),
        key=lambda p: term_key(leading(p)[0]),
    )
    assert system.basis == expected
    assert len(system.zonly) == 1
    assert system.zonly[0] == monic(P(EXAMPLE_21_BASIS[0]))


def test_mu_ideal_22_matches_worked_example():
    gens = mu_ideal_generators(Partition.of(2, 2))
    expected = sorted(
        (monic(P(text)) for text in EXAMPLE_22_RELATIONS),
        key=lambda p: term_key(leading(p)[0]),
    )
    assert gens == expected


@pytest.mark.parametrize("parts", [(1, 1), (1, 1, 1), (1, 1, 1, 1)])
def test_mu_ideal_trivial_for_simple_roots(parts):
    assert mu_ideal_generators(Partition(parts)) == []


@pytest.mark.parametrize("parts", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_mu_ideal_members_vanish_under_substitution(parts):
    mu = Partition(parts)
    mapping = {("z", i): spec_generator("e", i, mu) for i in range(1, mu.n + 1)}
    for g in mu_ideal_generators(mu):
        assert g.substitute(mapping).is_zero


def test_known_constraint_reduces_to_zero():
    # completeness spot check: a hand-derived relation for mu=(2,2) is a
    # member of the computed relation ideal
    mu = Partition.of(2, 2)
    h = P("(z1^3 + 8*z3 - 4*z1*z2)/8")
    assert normal_form(h, mu_ideal_generators(mu)).is_zero


def test_normal_form_worked_example():
    mu = Partition.of(2, 1)
    system = elimination_system(mu)
    F = P("3*r1^2 + r2^2 + 2*r1*r2")
    assert normal_form(F, system.basis) == P("z1^2 - z2")


def test_normal_form_membership_and_fixed_point():
    mu = Partition.of(2, 1)
    basis = elimination_system(mu).basis
    member = (basis[0] * P("z1")) + (basis[2] * P("7"))
    assert normal_form(member, basis).is_zero
    reduced = P("z1^2 - z2")
    assert normal_form(reduced, basis) == reduced


def test_normal_form_skips_a_zero_member():
    r1 = P("r1")
    assert normal_form(r1, [Polynomial.zero()]) == r1
    assert normal_form(r1 ** 2, [Polynomial.zero(), r1]).is_zero


def test_normal_form_weighted_homogeneous():
    mu = Partition.of(2, 2)
    basis = elimination_system(mu).basis
    f = spec_generator("e", 2, mu) * P("z1")  # weighted degree 3
    r = normal_form(f, basis)
    assert is_homogeneous(r, gist_weight)
    assert wdeg(r, gist_weight) == 3


def test_gist_membership_of_lifted_polynomials(rng):
    # any polynomial expression in the generator symbols, minus its own
    # expansion in the roots, lies in the elimination ideal
    for parts in [(2, 1), (2, 2), (3, 1)]:
        mu = Partition(parts)
        for _ in range(8):
            alphas = weak_partitions(rng.randint(1, 3), mu.n, "capped")
            R = Polynomial.zero()
            for alpha in alphas:
                if rng.random() < 0.5:
                    R = R + rng.randint(-4, 4) * Polynomial.monomial(z_term_for(alpha))
            if R.is_zero:
                continue
            mapping = {("z", i): spec_generator("e", i, mu) for i in range(1, mu.n + 1)}
            diff = R - R.substitute(mapping)
            bound = wdeg(diff, gist_weight) if not diff.is_zero else 1
            system = elimination_system(mu, degree=bound)
            assert normal_form(diff, system.basis).is_zero


def spolynomial(f, g):
    """S(f, g) from ``leading`` and Polynomial arithmetic alone: f and g,
    each made monic, lifted to the lcm L of their leading terms."""
    (tf, cf), (tg, cg) = leading(f), leading(g)
    ef, eg = ({(s, i): e for s, i, e in t} for t in (tf, tg))
    L = {v: max(ef.get(v, 0), eg.get(v, 0)) for v in ef.keys() | eg.keys()}

    def lift(p, exps, c):
        return Polynomial.monomial(term_from_exps({v: e - exps.get(v, 0) for v, e in L.items()})) * p / c

    return lift(f, ef, cf) - lift(g, eg, cg)


def test_buchberger_criterion_on_outputs():
    # every S-polynomial of the reduced basis has normal form zero
    for parts in [(2, 1), (2, 2)]:
        basis = elimination_system(Partition(parts)).basis
        for i, f in enumerate(basis):
            for g in basis[i + 1:]:
                assert normal_form(spolynomial(f, g), basis).is_zero


def test_spolynomial_basic():
    s = spolynomial(P("x1^2"), P("x1*x2 - 1"))
    assert s == P("x1")


def test_spolynomial_rational_and_negative_leads():
    # the S-polynomial does not depend on how either input is scaled
    expected = P("x1^2/2 - x2/6")
    assert spolynomial(P("2*x2^2 + x1"), P("-3*x1*x2 - 1/2")) == expected
    assert spolynomial(P("-x2^2 - x1/2"), P("6*x1*x2 + 1")) == expected


def test_ggist_worked_examples():
    mu = Partition.of(2, 1)
    res = ggist(P("3*r1^2 + r2^2 + 2*r1*r2"), mu)
    assert res.symmetric and res.gist == P("z1^2 - z2")
    assert not ggist(P("r1 + r2"), mu).symmetric
    res = ggist(P("2*r1 + r2"), mu)
    assert res.symmetric and res.gist == P("z1")


def test_ggist_truncated_matches_full():
    mu = Partition.of(2, 2)
    for kind in ("e", "p", "c"):
        clear_memo()
        F = spec_generator(kind, 2, mu) ** 2
        truncated = ggist(F, mu, kind)
        full_basis = elimination_system(mu, kind).basis
        assert truncated.gist == normal_form(F, full_basis)


def test_ggist_never_builds_the_reduced_basis(monkeypatch):
    # gists reduce against the engine's own basis; the reduced snapshot
    # is only an output view
    mu = Partition.of(2, 2, 1)
    positive = dplus(mu)
    negative = positive + P("r1^10 - r2^10")  # not fixed by swapping r1, r2

    def boom(*args, **kwargs):
        raise AssertionError("reduced_snapshot called")

    monkeypatch.setattr(_GradedEngine, "reduced_snapshot", boom)
    clear_memo()
    results = []
    for _ in ("cold", "warm"):
        results.append((positive, compute_gist(positive, mu, "e", "groebner")))
        results.append((negative, compute_gist(negative, mu, "e", "groebner")))
    monkeypatch.undo()
    assert [r.symmetric for _, r in results] == [True, False, True, False]
    basis = elimination_system(mu, "e", 10).basis
    for F, r in results:
        nf = normal_form(F, basis)
        if r.symmetric:
            assert r.gist == nf
        else:
            assert "r" in nf.spaces()
    clear_memo()


def test_cold_engine_runs_on_primitive_ints(monkeypatch):
    # Buchberger is fraction-free: rationals appear only in what it hands out
    clear_memo()
    calls = []
    real = groebner.rat
    monkeypatch.setattr(groebner, "rat", lambda *a: calls.append(a) or real(*a))
    engine = elimination_system(Partition.of(2, 2, 1), "e", 10).engine
    assert calls == [] and len(engine.basis) > 5
    assert all(type(c) is int for d in engine.basis.polys for c in d.values())
    assert all(type(d[lt]) is int and d[lt] > 0 for d, lt in zip(engine.basis.polys, engine.basis.lts))
    assert all(math.gcd(*d.values()) == 1 for d in engine.basis.polys)
    clear_memo()


@pytest.mark.parametrize("parts", [(2, 1), (2, 2), (3, 1, 1), (2, 2, 1)])
def test_engine_adds_fully_reduced_members(parts):
    # every S-polynomial is reduced in full before it joins the basis: no
    # term of a member that extend adds is divisible by an earlier lead
    mu = Partition(parts)
    engine = groebner._engine.__wrapped__(mu, "e")
    start = len(engine.basis)
    engine.extend(None if mu.n < 5 else 8)
    basis, guard = engine.basis, engine.guard
    assert len(basis) > start
    for h in range(start, len(basis)):
        for lt in basis.lts[:h]:
            assert not any(m >= lt and not (m - lt) & guard for m in basis.polys[h])
    assert not hasattr(groebner, "_top_reduce")


@pytest.mark.parametrize("kind", ["e", "p", "c"])
@pytest.mark.parametrize("parts", [(2, 1), (2, 2), (3, 1), (3, 2), (2, 1, 1), (2, 2, 1), (1, 1, 1, 1)])
def test_engine_work_matches_the_per_field_ring(monkeypatch, parts, kind):
    # the word-operation lcm and weighted degree leave every pair, its
    # order and every member as the per-field definitions have them
    mu = Partition(parts)
    engine = groebner._engine.__wrapped__(mu, kind)
    monkeypatch.setattr(groebner, "Ring", FieldRing)
    reference = groebner._engine.__wrapped__(mu, kind)
    assert type(reference.ring) is FieldRing
    engine.extend(8)
    reference.extend(8)
    assert engine.basis.lts == reference.basis.lts
    assert [list(d.items()) for d in engine.basis.polys] == [list(d.items()) for d in reference.basis.polys]
    assert list(engine.pairs.items()) == list(reference.pairs.items())
    assert engine.heap == reference.heap


@pytest.mark.parametrize("kind", ["e", "p", "c"])
@pytest.mark.parametrize("parts", [(2, 1), (2, 2), (3, 1, 1), (2, 2, 1), (1, 1, 1, 1)])
def test_engine_seeds_are_packed_from_the_product_memo(monkeypatch, parts, kind):
    # a cold engine reads its seeds z_i - g_i off the memoized unit
    # products, with no Polynomial in between
    mu = Partition(parts)
    expected = mu_ideal_basis(mu, kind)
    symfun.clear_caches()

    def boom(*args, **kwargs):
        raise AssertionError("seed built through a Polynomial")

    monkeypatch.setattr(groebner, "mu_ideal_basis", boom)
    monkeypatch.setattr(symfun, "spec_generator", boom)
    monkeypatch.setattr(_packed.Ring, "densify", boom)
    engine = groebner._engine.__wrapped__(mu, kind)
    monkeypatch.undo()
    seeds = [primitive(engine.ring.densify(g)[0]) for g in expected]
    assert engine.basis.polys[:mu.n] == seeds


@pytest.mark.parametrize("kind", ["m", "x", "E"])
def test_engine_refuses_other_kinds_before_building_members(kind):
    # the kind is checked before any specialized member is built: without
    # the check, any kind but e and p would build the c seeds
    mu = Partition.of(2, 2, 1)
    text = groebner.GROEBNER_ON_M if kind == "m" else "indexed generators exist for kinds e, p, c only"
    clear_memo()
    symfun.clear_caches()
    for call in (lambda: ggist(dplus(mu), mu, kind), lambda: elimination_system(mu, kind, 4)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == text
        assert symfun._spec_products.cache_info().currsize == 0


def test_negative_ggist_stops_before_the_full_normal_form(monkeypatch):
    mu = Partition.of(2, 2, 1)
    F = dplus(mu) + P("r1^10 - r2^10")  # not fixed by swapping r1, r2
    engine = elimination_system(mu, "e", 10).engine
    steps = []
    real = groebner.cancel
    monkeypatch.setattr(groebner, "cancel", lambda *a: steps.append(a[1]) or real(*a))
    assert not ggist(F, mu).symmetric
    stopped = len(steps)
    # the same input in full: F's one part, its root monomials moved up
    # past the n z fields as ggist moves them
    shift = groebner.FIELD * mu.n
    [(_, ints, _)] = root_parts(F, mu)
    nf, _ = engine.normal_form({mon << shift: c for mon, c in ints.items()})
    full = len(steps) - stopped
    assert 0 < stopped < full
    assert any(mon >> shift for mon in nf)


@pytest.mark.parametrize("kind", ["e", "p", "c"])
@pytest.mark.parametrize("parts", [(2, 1), (2, 2, 1), (3, 1, 1), (2, 2, 2)])
def test_ggist_stopped_normal_form_agrees_with_the_full_one(monkeypatch, rng, parts, kind):
    # a negative verdict's normal form ends at its first irreducible root
    # term: the one term it keeps is a root term of the full normal form,
    # and verdicts and gists are those of the full normal form
    mu = Partition(parts)
    # a and b of equal multiplicity where mu has two such roots
    a, b = next(((i, i + 1) for i in range(1, mu.m) if parts[i - 1] == parts[i]), (1, 2))
    c = mu.m if mu.m > 2 else 1
    r = [None] + [Polynomial.variable("r", i) for i in range(1, mu.m + 1)]
    stopped = []
    real = groebner._full_reduce

    def record(*args, stop=None, **kwargs):
        out, den = real(*args, stop=stop, **kwargs)
        if stop is not None:
            stopped.append(out)
        return out, den

    monkeypatch.setattr(groebner, "_full_reduce", record)
    for _ in range(3):
        delta = rng.randint(4, 7)
        alphas = weak_partitions(delta, mu.n, "capped")
        positive = Polynomial.zero()
        for alpha in rng.sample(alphas, min(3, len(alphas))):
            positive = positive + rng.choice([-5, -2, 1, 3, 7]) * spec_basis_element(kind, alpha, mu)
        j = delta // 2
        swapped = positive + r[a] ** delta - r[b] ** delta
        # fixed by swapping r_a and r_b, like the golden ls negative
        fixed = positive + (r[a] * r[b]) ** j * r[c] ** (delta - 2 * j) - 3 * r[a] * r[b] * r[c] ** (delta - 2) + r[c] ** delta
        basis = elimination_system(mu, kind, delta).basis
        for F, symmetric in ((positive, True), (swapped, False), (fixed, False)):
            stopped.clear()
            res = ggist(F, mu, kind)
            full = normal_form(F, basis)
            assert res.symmetric is symmetric is ("r" not in full.spaces())
            [out] = stopped
            if symmetric:
                assert res.gist == full
                continue
            [mon] = out
            [(term, _)] = groebner._engine(mu, kind).ring.undensify({mon: 1}).items()
            assert term in full.support() and any(v[0] == "r" for v in term)


def test_elimination_basis_unpacked_once_on_first_read():
    mu = Partition.of(2, 2)
    clear_memo()
    system = elimination_system(mu, "e", 6)
    assert "basis" not in vars(system) and "zonly" not in vars(system)
    zonly = system.zonly
    assert system.zonly is zonly and "basis" not in vars(system)  # read off the r-free members only
    basis = system.basis
    assert system.basis is basis
    assert zonly == [p for p in basis if "r" not in p.spaces()]
    clear_memo()


@pytest.mark.parametrize("parts", [(2, 2), (3, 2), (3, 1, 1), (2, 1, 1), (1, 1, 1, 1)])
def test_zonly_is_the_r_free_part_of_the_basis(parts):
    system = elimination_system(Partition(parts))
    assert system.zonly == [p for p in system.basis if "r" not in p.spaces()]


def test_ggist_zero():
    res = ggist(Polynomial.zero(), Partition.of(2, 1))
    assert res.symmetric and res.gist.is_zero


def test_ggist_rejects_monomial_basis():
    with pytest.raises(ValueError):
        mu_ideal_basis(Partition.of(2, 1), "m")


def test_ggist_rejects_foreign_variables():
    with pytest.raises(ValueError):
        ggist(P("z1"), Partition.of(2, 1))


def test_ggist_other_generator_families():
    mu = Partition.of(2, 1)
    F = spec_generator("p", 2, mu)
    for kind in ("e", "p", "c"):
        res = ggist(F, mu, kind)
        assert res.symmetric
        assert res.substituted() == F
    assert ggist(F, mu, "p").gist == P("z2")


def test_ggist_concurrent_same_structure():
    # a cached engine may be shared; concurrent extension must be safe
    import threading

    clear_memo()
    mu = Partition.of(2, 2, 1)
    F = dplus(mu)
    results = []

    def worker():
        results.append(ggist(F, mu))

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r.symmetric for r in results)
    assert all(r.gist == results[0].gist for r in results)
    clear_memo()
