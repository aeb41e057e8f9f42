import importlib
import pkgutil
import tracemalloc
from fractions import Fraction

import pytest
from conftest import substitute

import musym
from musym import groebner, linsys, reduction, symfun
from musym.gists import compute_gist
from musym.polys import Polynomial, homogeneous_parts, parse_poly
from musym.symfun import Partition, dplus, index_flavor, spec_basis_element, spec_generator, weak_partitions

P = parse_poly


def test_dispatch_agrees_across_algorithms():
    mu = Partition.of(2, 1)
    F = P("3*r1^2 + 2*r1*r2 + r2^2")
    for algo in ("groebner", "cr", "ls"):
        res = compute_gist(F, mu, algo=algo)
        assert res.symmetric
        assert res.gist == P("z1^2 - z2")


def test_nonhomogeneous_parts_sum():
    mu = Partition.of(2, 1)
    F = P("3*r1^2 + 2*r1*r2 + r2^2") + P("2*r1 + r2") + 5
    for algo in ("groebner", "cr", "ls"):
        res = compute_gist(F, mu, algo=algo)
        assert res.symmetric
        assert res.substituted() == F
    assert compute_gist(F, mu, algo="ls").gist == P("z1^2 - z2 + z1 + 5")


def test_nonhomogeneous_negative_when_any_part_fails():
    mu = Partition.of(2, 1)
    # quadratic part is symmetric, linear part is not
    F = P("3*r1^2 + 2*r1*r2 + r2^2") + P("r1 + r2")
    for algo in ("groebner", "cr", "ls"):
        res = compute_gist(F, mu, algo=algo)
        assert not res.symmetric
        for expand in (res.substituted, res.lift):
            with pytest.raises(ValueError, match="^no gist: polynomial is not mu-symmetric$"):
                expand()


def test_monomial_basis_combines_parts():
    mu = Partition.of(2, 1)
    F = spec_basis_element("m", (2, 0, 0), mu) + spec_generator("e", 1, mu)
    res = compute_gist(F, mu, kind="m", algo="ls")
    assert res.symmetric
    assert res.gist is None
    degrees = {sum(alpha) for alpha, _ in res.mcombo}
    assert degrees == {1, 2}
    assert res.substituted() == F


@pytest.mark.parametrize("text, parts", [
    ("dplus", (2, 2, 1)),
    ("(2*r1+r2)^3/3 - 5*(r1^2+2*r1*r2)/7 + 3/4", (2, 1)),
], ids=["dplus", "rational-nonhomogeneous"])
@pytest.mark.parametrize("algo, kind", [
    (algo, kind) for algo in ("groebner", "cr", "ls") for kind in symfun.BASIS_KINDS
    if (algo, kind) != ("groebner", "m")
])
def test_combo_is_the_coefficient_vector(algo, kind, text, parts, monkeypatch):
    # sum of coeff * specialized member alpha over res.combo is F itself
    mu = Partition(parts)
    F = dplus(mu) if text == "dplus" else P(text)
    res = compute_gist(F, mu, kind, algo)
    assert res.symmetric
    total = {}
    for alpha, c in res.combo:
        delta = sum(alpha)
        assert alpha == (0,) * mu.n if not delta else alpha in weak_partitions(delta, mu.n, index_flavor(kind))
        for mon, v in symfun._spec_packed(kind, alpha, mu).items():
            total[mon] = total.get(mon, 0) + c * v
    ints, den = symfun._root_ring(mu.m).densify(F)
    assert {mon: c * den for mon, c in total.items() if c} == ints
    assert res.mcombo == (res.combo if kind == "m" else None)
    assert (res.gist is None) == (kind == "m")
    # substituted() sums the packed members, with no z-substitution
    for delta, _, _ in symfun.root_parts(F, mu):
        if delta:
            symfun.spec_basis(kind, delta, mu)

    def refuse(*args):
        raise AssertionError("the gist was expanded by substitution")

    monkeypatch.setattr(symfun, "spec_generator", refuse)
    assert res.substituted() == F


def test_zero_polynomial():
    res = compute_gist(Polynomial.zero(), Partition.of(2, 1), algo="cr")
    assert res.symmetric
    assert res.gist.is_zero
    assert str(res) == "0"
    res = compute_gist(Polynomial.zero(), Partition.of(2, 1), "m", "cr")
    assert res.symmetric and res.combo == ()
    assert str(res) == "0"


def test_lift_expands_to_symmetric_polynomial():
    mu = Partition.of(2, 2)
    F = spec_generator("e", 2, mu)
    res = compute_gist(F, mu, algo="ls")
    lift = res.lift()
    # lift is symmetric under adjacent transpositions of the formal roots
    for i in range(1, mu.n):
        swap = {("x", i): P(f"x{i+1}"), ("x", i + 1): P(f"x{i}")}
        assert substitute(lift, swap) == lift
    from musym.symfun import specialize

    assert specialize(lift, mu) == F


@pytest.mark.parametrize("parts", [(2, 1, 1), (3, 2)])
@pytest.mark.parametrize("algo, kind", [
    (algo, kind) for algo in ("groebner", "cr", "ls") for kind in symfun.BASIS_KINDS
    if (algo, kind) != ("groebner", "m")
])
def test_lift_is_the_symmetric_polynomial_the_gist_denotes(algo, kind, parts, rng):
    # a random mu-symmetric F with a constant part and two degrees
    from conftest import oracle_basis_element

    mu = Partition(parts)
    n = mu.n
    F = P(str(rng.randint(1, 9)))
    for delta in (2, 3):
        for alpha in weak_partitions(delta, n, "capped"):
            F = F + rng.randint(-5, 5) * spec_basis_element("e", alpha, mu)
    res = compute_gist(F, mu, kind, algo)
    assert res.symmetric
    lift = res.lift()
    for i in range(1, n):
        swap = {("x", i): P(f"x{i+1}"), ("x", i + 1): P(f"x{i}")}
        assert substitute(lift, swap) == lift
    assert symfun.specialize(lift, mu) == F
    assert lift == sum((c * oracle_basis_element(kind, alpha, n) for alpha, c in res.combo), Polynomial.zero())


def test_single_distinct_root():
    # one distinct root: everything in K[r1] of one degree is symmetric
    mu = Partition.of(3)
    F = 5 * P("r1^4")
    for algo in ("groebner", "cr", "ls"):
        res = compute_gist(F, mu, algo=algo)
        assert res.symmetric
        assert res.substituted() == F


def test_cross_basis_agreement(rng):
    # verdicts agree across all generator families and all algorithms,
    # and every returned gist expands back to the input exactly
    from conftest import random_homogeneous
    from musym.symfun import weak_partitions
    import musym.symfun as symfun

    partitions = [(2, 1), (2, 2), (3, 1), (2, 1, 1)]
    for k in range(24):
        mu = Partition(rng.choice(partitions))
        delta = rng.randint(1, 4)
        if k % 2:
            F = Polynomial.zero()
            for alpha in weak_partitions(delta, mu.n, "capped"):
                if rng.random() < 0.6:
                    F = F + rng.randint(-4, 4) * symfun.spec_basis_element("e", alpha, mu)
        else:
            F = random_homogeneous(rng, mu.m, delta)
        if F.is_zero:
            continue
        verdicts = set()
        for kind in ("e", "p", "c", "m"):
            for algo in ("groebner", "cr", "ls"):
                if kind == "m" and algo == "groebner":
                    continue
                res = compute_gist(F, mu, kind=kind, algo=algo)
                verdicts.add(res.symmetric)
                if res.symmetric:
                    assert res.substituted() == F, (kind, algo, str(F))
        assert len(verdicts) == 1, str(F)


def test_dimensions_independent_of_basis():
    from musym.symfun import sym_dimensions

    for parts, delta in [((2, 2), 3), ((3, 1), 4), ((2, 1), 3)]:
        mu = Partition(parts)
        dims = {kind: sym_dimensions(mu, delta, kind) for kind in ("e", "p", "c", "m")}
        assert len(set(dims.values())) == 1, dims


def test_rejects_bad_arguments():
    mu = Partition.of(2, 1)
    with pytest.raises(ValueError):
        compute_gist(P("r1"), mu, kind="q")
    with pytest.raises(ValueError):
        compute_gist(P("r1"), mu, algo="magic")
    with pytest.raises(ValueError):
        compute_gist(P("r1"), mu, kind="m", algo="groebner")
    with pytest.raises(ValueError):
        compute_gist(P("z1"), mu)


DECIDERS = {"groebner": groebner.ggist, "cr": reduction.crgist, "ls": linsys.lsgist}


@pytest.mark.parametrize("extra", ["0", "2*r1 + r2 + 5"], ids=["homogeneous", "non-homogeneous"])
@pytest.mark.parametrize("route", ["compute_gist", "decider"])
@pytest.mark.parametrize("algo", ["groebner", "cr", "ls"])
def test_input_rules_walk_the_terms_once(algo, route, extra, monkeypatch):
    mu = Partition.of(2, 1)
    F = dplus(mu) + P(extra)
    calls = []
    real = symfun.root_parts
    monkeypatch.setattr(symfun, "root_parts", lambda *a: calls.append(a) or real(*a))

    def boom(*args):
        raise AssertionError("an input rule walked F again")

    for info in pkgutil.iter_modules(musym.__path__):
        module = importlib.import_module(f"musym.{info.name}")
        if hasattr(module, "homogeneous_parts"):
            monkeypatch.setattr(module, "homogeneous_parts", boom)
    monkeypatch.setattr(Polynomial, "total_degree", boom)
    res = compute_gist(F, mu, "e", algo) if route == "compute_gist" else DECIDERS[algo](F, mu, "e")
    assert res.symmetric
    assert len(calls) == 1


@pytest.mark.parametrize("algo", ["groebner", "cr", "ls"])
def test_deciders_split_nonhomogeneous_input(algo):
    mu = Partition.of(2, 1)
    quadratic = P("3*r1^2 + 2*r1*r2 + r2^2")
    inputs = [quadratic + P("2*r1 + r2") + 5, quadratic - 7, dplus(mu) + quadratic, quadratic + P("r1")]
    for kind in ("e", "p", "c", "m") if algo != "groebner" else ("e", "p", "c"):
        for F in inputs:
            res = DECIDERS[algo](F, mu, kind)
            assert res == compute_gist(F, mu, kind, algo)
            parts = [compute_gist(part, mu, kind, algo) for _, part in homogeneous_parts(F)]
            assert res.symmetric == all(r.symmetric for r in parts)
            if res.symmetric:
                assert res.substituted() == F


@pytest.mark.parametrize(
    "text, mu, message",
    [
        ("z1 + r3", (2, 1), "input must be a polynomial in the r variables"),
        ("r3^40000 + r1", (2, 1), "r3 exceeds m=2 distinct roots for mu=2,1"),
        ("r1^40000 + r1", (1,), "degree 40000 exceeds the limit 32767"),
    ],
    ids=["foreign-variable", "too-many-roots", "degree-limit"],
)
def test_input_errors_read_the_same_everywhere(text, mu, message):
    F, mu = P(text), Partition(mu)
    calls = [lambda: compute_gist(F, mu, "e", algo) for algo in ("groebner", "cr", "ls")]
    calls += [lambda decide=decide: decide(F, mu, "e") for decide in DECIDERS.values()]
    calls += [lambda: linsys.build_system(F, mu), lambda: symfun.root_parts(F, mu)]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


def test_root_parts_splits_by_degree():
    # each part comes packed in the root ring as ints/den
    mu = Partition.of(2, 1)
    ring = symfun._root_ring(mu.m)
    for F in (P("3*r1^2 + 2*r1*r2 + r2^2 + 2*r1 + 5"), P("r1*r2/3 + r2^2/2 - r1/4"), P("r1*r2 + r2^2")):
        parts = symfun.root_parts(F, mu)
        assert all(type(c) is int for _, ints, den in parts for c in (den, *ints.values()))
        unpacked = [ring.undensify({m: Fraction(c, den) for m, c in ints.items()}) for _, ints, den in parts]
        assert list(zip([delta for delta, _, _ in parts], unpacked)) == homogeneous_parts(F)
    assert symfun.root_parts(Polynomial.zero(), mu) == []


def test_root_parts_refuses_a_huge_index_without_shifting_by_it():
    F = P("r100000000")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="r100000000 exceeds m=2 distinct roots for mu=2,1"):
            symfun.root_parts(F, Partition.of(2, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # a foreign variable is still named first, wherever it stands in F
    with pytest.raises(ValueError, match="input must be a polynomial in the r variables"):
        symfun.root_parts(P("r9 + z1"), Partition.of(2, 1))


def test_evaluate_takes_exactly_n_values():
    mu = Partition.of(2, 1)
    res = compute_gist(dplus(mu), mu, "e", "cr")
    assert res.evaluate([1, 2, 3]) == Fraction(-65, 2)
    for values in ([1, 2, 3, 4], [1, 2]):
        with pytest.raises(ValueError, match="takes 3 values"):
            res.evaluate(values)
    # the count is checked before the verdict and the basis
    for res in (compute_gist(P("r1"), mu), compute_gist(dplus(mu), mu, "m", "cr")):
        with pytest.raises(ValueError, match="takes 3 values"):
            res.evaluate([1])
