from fractions import Fraction
from itertools import chain

import pytest
from conftest import FieldRing, substitute
from hypothesis import given, settings
from hypothesis import strategies as st

import musym
from musym import _packed, gistresult, groebner, linsys, polys, reduction, symfun
from musym._packed import MAX_EXP, Basis, Ring, ring_for
from musym.gists import compute_gist
from musym.polys import Polynomial, parse_poly, term_from_exps
from musym.symfun import Partition


def weightings(width):
    """The default weights (None) and every engine weighting
    (1, ..., 1, 1, ..., n) with m + n = width."""
    yield None
    for n in range(1, width + 1):
        yield (1,) * (width - n) + tuple(range(1, n + 1))


def random_exps(rng, width):
    pick = (lambda: 0, lambda: MAX_EXP, lambda: rng.randint(0, 40), lambda: rng.randint(0, MAX_EXP))
    return [rng.choice(pick)() for _ in range(width)]


@pytest.mark.parametrize("width", range(1, 13))
def test_lcm_and_wdeg_are_the_per_field_definitions(rng, width):
    vars_ = [("x", i) for i in range(width, 0, -1)]
    for weights in weightings(width):
        ring, ref = Ring(vars_, weights), FieldRing(vars_, weights)
        mons = [ring.pack(random_exps(rng, width)) for _ in range(200)]
        mons += [0, ring.pack([MAX_EXP] * width)]
        mons += [ring.pack([MAX_EXP if i == j else 0 for i in range(width)]) for j in range(width)]
        for a, b in zip(mons, mons[::-1]):
            assert ring.lcm(a, b) == ref.lcm(a, b)
            assert ring.lcm(a, a) == a and ring.lcm(a, 0) == a
        for a in mons:
            assert ring.wdeg(a) == ref.wdeg(a)


def test_wdeg_past_sixteen_bits_on_the_221_engine_ring():
    # z5 weighs 5, so z5^13108 has weighted degree 65540: a 16-bit slot
    # would read 4
    ring = groebner._engine.__wrapped__(Partition.of(2, 2, 1), "e").ring
    assert ring.weights == (1, 1, 1, 1, 2, 3, 4, 5)
    exps = [0] * 7 + [13108]
    assert ring.wdeg(ring.pack(exps)) == 65540
    assert ring.wdeg(ring.pack([MAX_EXP] * 8)) == 18 * MAX_EXP


def test_wdeg_on_a_ring_with_heavy_weights(rng):
    # width * max weight >= 2^17 needs three interleaved groups of fields
    vars_ = [("x", i) for i in range(4, 0, -1)]
    weights = (1, 3, 70000, 40000)
    ring, ref = Ring(vars_, weights), FieldRing(vars_, weights)
    assert len(ring.spread) == 3
    for _ in range(300):
        mon = ring.pack(random_exps(rng, 4))
        assert ring.wdeg(mon) == ref.wdeg(mon)
    assert ring.wdeg(ring.pack([MAX_EXP] * 4)) == sum(weights) * MAX_EXP


# the rings undensify reads in, built when drawn: the ring of a
# polynomial's own variables (None), the root ring, the x ring of
# symfun._x_form and a Groebner engine's ring
READ_MU = Partition.of(2, 1)
READ_RINGS = {
    "ring_for": lambda: None,
    "root": lambda: symfun._root_ring(READ_MU.m),
    "x": lambda: Ring([("x", i) for i in range(READ_MU.n, 0, -1)]),
    "engine": lambda: groebner._engine.__wrapped__(READ_MU, "e").ring,
}
exponents = st.one_of(st.integers(0, 3), st.integers(0, MAX_EXP))
coefficients = st.fractions(max_denominator=12).filter(bool)


@st.composite
def ring_polys(draw):
    """(name, ring, p) with p's variables among the ring's; under
    "ring_for", p mixes x, r and z and the ring is ring_for(p.variables())."""
    name = draw(st.sampled_from(sorted(READ_RINGS)))
    ring = READ_RINGS[name]()
    variables = ring.vars if ring else [(s, i) for s in "xrz" for i in range(1, 4)]
    terms = st.lists(st.tuples(st.sampled_from(variables), exponents), max_size=4)
    p = Polynomial({
        term_from_exps(dict(t)): c for t, c in draw(st.lists(st.tuples(terms, coefficients), max_size=6))
    })
    return name, ring or ring_for(p.variables()), p


@settings(max_examples=150, deadline=None)
@given(ring_polys())
def test_undensify_reads_each_term_once_into_a_valid_polynomial(case):
    name, ring, p = case
    if name == "x":  # read as symfun._x_form reads
        def read(d, den):
            return symfun._x_form(d, READ_MU.n, den)
    else:
        read = ring.undensify
    ints, den = ring.densify(p)
    back = read(ints, den)
    assert back == p
    for t, c in back.items():
        assert t == term_from_exps({(s, i): e for s, i, e in t})
        assert type(c) is Fraction and c != 0
    assert read({**ints, -1: 7, -(1 << 40): -3}, den) == p  # tag keys are skipped
    assert back == read(ints, 1) / den


@pytest.mark.parametrize("call", [
    lambda f: musym.reduce(f, [parse_poly("r1 - 1")]),
    lambda f: musym.canonize([f]),
    lambda f: musym.normal_form(f, [parse_poly("r1 - 1")]),
    lambda f: musym.buchberger([f]),
], ids=["reduce", "canonize", "normal_form", "buchberger"])
def test_packed_edges_refuse_an_exponent_past_the_limit(call):
    # every public entry that packs its operands refuses as the rest of the library does
    with pytest.raises(ValueError, match="^exponent 40000 exceeds the limit 32767$"):
        call(parse_poly("r1^40000 - 1"))


def test_basis_stores_each_member_primitive_with_a_positive_lead():
    # the one place the member form is made: cancel and the S-polynomial
    # read the lead coefficient off the stored member
    for store in (lambda basis, d: basis.add(d), lambda basis, d: basis.insert(0, d, 5)):
        basis = Basis()
        store(basis, {5: -4, 3: 6})
        assert basis.polys == [{5: 2, 3: -3}] and basis.lts == [5]


# the numbers each kernel computes with: operands, multiplier, leads
KERNEL_NUMBERS = {
    "mul": lambda d1, d2: chain(d1.values(), d2.values()),
    "submul": lambda work, q, shift, g, *rest, **kw: chain(work.values(), (q,), g.values()),
    "cancel": lambda work, t, a, lt, member, heap, other: chain(
        work.values(), (a, member[lt]), member.values(), other.values()
    ),
}


def test_no_kernel_sees_a_fraction(monkeypatch):
    # rationals cross into the packed layer only through densify and
    # undensify: the kernels compute with ints alone
    called, fractional = set(), set()

    def guarded(name, real):
        def kernel(*args, **kwargs):
            called.add(name)
            if not all(isinstance(v, int) for v in KERNEL_NUMBERS[name](*args, **kwargs)):
                fractional.add(name)
            return real(*args, **kwargs)
        return kernel

    for name in KERNEL_NUMBERS:
        real = getattr(_packed, name)
        for module in (_packed, gistresult, groebner, linsys, polys, reduction, symfun):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, guarded(name, real))
    symfun.clear_caches()
    reduction.clear_memo()
    groebner.clear_memo()
    mu = Partition.of(2, 1)
    F = parse_poly("(2*r1+r2)^3/3 - 5*(r1^2+2*r1*r2)/7")
    for algo in ("groebner", "cr", "ls"):
        for kind in symfun.BASIS_KINDS if algo != "groebner" else ("e", "p", "c"):
            res = compute_gist(F, mu, kind, algo)
            assert res.substituted() == F and symfun.specialize(res.lift(), mu) == F, (algo, kind)
    member = parse_poly("r1/2 - r2/3")
    cube = parse_poly("r1^3/2 - r2^3/3")
    reduced = musym.reduce(F, [cube])
    assert reduced.coeffs[0] * cube + reduced.remainder == F and reduced.coeffs[0] != 0
    assert len(musym.canonize([F, member, parse_poly("r1^2/5")]).sequence) == 3
    assert musym.normal_form(F, [member]) == substitute(F, {("r", 2): parse_poly("3*r1/2")})
    groebner_basis = musym.buchberger([member, parse_poly("r1*r2/5 - 1/7")])
    assert groebner_basis == [parse_poly("r1^2 - 10/21"), parse_poly("r2 - 3*r1/2")]
    a = parse_poly(" + ".join(f"r1^{i}*r2/{i + 2}" for i in range(8)))
    b = parse_poly(" + ".join(f"r2^{i}/{i + 3}" for i in range(8)))
    assert len(a) * len(b) >= 64 and (a * b).coeff(term_from_exps({("r", 1): 7, ("r", 2): 8})) == polys.rat(1, 90)
    assert called == set(KERNEL_NUMBERS)
    assert sorted(fractional) == []
    symfun.clear_caches()
    reduction.clear_memo()
    groebner.clear_memo()
