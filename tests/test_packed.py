import pytest
from conftest import FieldRing

import musym
from musym import groebner
from musym._packed import MAX_EXP, Ring
from musym.polys import parse_poly
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
