import math
import random
from itertools import chain

import pytest
from conftest import rref

from musym import cli, gists, reduction, symfun
from musym.polys import (
    Polynomial,
    Rational,
    leading,
    parse_poly,
    rat,
    term_from_exps,
    term_key,
)
from musym.reduction import (
    ReduceResult,
    adversarial_chooser,
    canonical_system,
    canonize,
    clear_memo,
    crgist,
    greedy_chooser,
    nreduce,
    random_chooser,
    reduce,
)
from musym.symfun import Partition, dplus, spec_generator

P = parse_poly


def is_canonical(C):
    """Nonzero members with strictly increasing leading terms."""
    keys = [term_key(leading(c)[0]) for c in C if not c.is_zero]
    return len(keys) == len(C) and all(a < b for a, b in zip(keys, keys[1:]))


def rank(polys):
    """Rank of the coefficient rows over the union support, by rref."""
    support = sorted({t for p in polys for t in p.support()})
    return len(rref([[p.coeff(t) for t in support] for p in polys])[1])


def test_reduce_worked_example():
    F = P("3*r1^2 + 4*r1*r2 + r2^2")
    C = [P("r1^2 + 2*r1*r2"), P("2*r1^2 + r2^2")]
    assert is_canonical(C)
    res = reduce(F, C)
    assert res.remainder == P("-r1^2")
    assert res.coeffs == (rat(2), rat(1))
    assert res.loops == 2


def test_reduce_fixed_point():
    C = [P("r1^2 + 2*r1*r2"), P("2*r1^2 + r2^2")]
    F = P("7*r1^2")
    res = reduce(F, C)
    assert res.remainder == F
    assert res.coeffs == (rat(0), rat(0))


def test_reduce_single_member():
    C = [P("r1^2 + 2*r1*r2")]
    res = reduce(C[0], C)
    assert res.remainder.is_zero
    assert res.coeffs == (rat(1),)


def test_reduce_empty_sequence():
    res = reduce(P("r1 + r2"), [])
    assert res.remainder == P("r1 + r2") and res.loops == 0


def test_reduce_decomposition_identity(rng):
    from conftest import random_homogeneous

    for _ in range(30):
        m, delta = rng.choice([(2, 2), (2, 3), (3, 2), (3, 3)])
        basis = [random_homogeneous(rng, m, delta) for _ in range(4)]
        C = canonize([b for b in basis if not b.is_zero]).sequence
        F = random_homogeneous(rng, m, delta)
        res = reduce(F, C)
        rebuilt = res.remainder
        for c, Ci in zip(res.coeffs, C):
            rebuilt = rebuilt + c * Ci
        assert rebuilt == F
        if not F.is_zero:
            bound = len(F) - 1 + sum(len(c) for c in C)
            assert res.loops <= bound
        # no leading term of the sequence survives in the remainder
        lts = {tuple(sorted(c.support(), key=term_key))[-1] for c in C}
        assert not (lts & res.remainder.support())


def test_reduce_tight_loop_count():
    # F carries s extra terms above the sequence, whose members are the
    # single terms p_1 < ... < p_l; the sweep then spends s moves plus l
    # pointer steps, meeting the worst-case bound exactly
    l, s = 4, 3
    ps = [Polynomial.monomial(term_from_exps({("r", 1): l - j, ("r", 2): j - 1}))
          for j in range(1, l + 1)]
    qs = [Polynomial.monomial(term_from_exps({("r", 2): l + k})) for k in range(1, s + 1)]
    C = ps
    assert is_canonical(C)
    F = ps[0] + sum(qs, Polynomial.zero())
    res = reduce(F, C)
    supp_f = s + 1
    supp_c = sum(len(c) for c in C)
    assert res.loops == supp_f - 1 + supp_c == s + l
    assert res.remainder == sum(qs, Polynomial.zero())
    assert res.coeffs == (rat(1),) + (rat(0),) * (l - 1)


def test_canonize_worked_example():
    # processing the two-term member first reproduces the worked sequence
    B = [P("r1^2 + 2*r1*r2"), P("4*r1^2 + 4*r1*r2 + r2^2")]
    out = canonize(B)
    assert out.sequence == [P("r1^2 + 2*r1*r2"), P("2*r1^2 + r2^2")]
    assert out.qmatrix == [[rat(1), rat(-2)], [rat(0), rat(1)]]
    # C = B . Q holds exactly
    for j, Cj in enumerate(out.sequence):
        combo = Polynomial.zero()
        for i, Bi in enumerate(B):
            combo = combo + out.qmatrix[i][j] * Bi
        assert combo == Cj


def test_canonize_duplicate_direction():
    p = P("r1^2 + 2*r1*r2")
    out = canonize([p, 2 * p])
    assert len(out.sequence) == 1


def test_canonize_resorts_independent_input():
    b1 = P("r2^2")
    b2 = P("r1*r2")
    out = canonize([b1, b2])
    assert out.sequence == [b2, b1]
    assert is_canonical(out.sequence)


def test_canonize_rank_matches_linear_algebra(rng):
    from conftest import random_homogeneous

    for _ in range(25):
        m, delta = rng.choice([(2, 3), (3, 2), (3, 3)])
        B = [random_homogeneous(rng, m, delta) for _ in range(5)]
        B = [b for b in B if not b.is_zero]
        if not B:
            continue
        out = canonize(B)
        assert is_canonical(out.sequence)
        assert len(out.sequence) == rank(B)
        # quotient exactness: every member of C is the stated combination
        for j, Cj in enumerate(out.sequence):
            combo = Polynomial.zero()
            for i, Bi in enumerate(B):
                combo = combo + out.qmatrix[i][j] * Bi
            assert combo == Cj


def test_reduced_remainder_extends_independence(rng):
    # nonzero remainder stays independent of the sequence
    from conftest import random_homogeneous

    checked = 0
    for _ in range(40):
        m, delta = rng.choice([(2, 3), (3, 2)])
        B = [random_homogeneous(rng, m, delta) for _ in range(3)]
        C = canonize([b for b in B if not b.is_zero]).sequence
        F = random_homogeneous(rng, m, delta)
        R = reduce(F, C).remainder
        if R.is_zero:
            continue
        checked += 1
        assert rank([R] + C) == len(C) + 1
    assert checked > 5


def test_reduce_zero_iff_in_span(rng):
    from conftest import random_homogeneous

    for _ in range(40):
        m, delta = rng.choice([(2, 2), (2, 3), (3, 2)])
        B = [random_homogeneous(rng, m, delta) for _ in range(3)]
        B = [b for b in B if not b.is_zero]
        if not B:
            continue
        C = canonize(B).sequence
        F = random_homogeneous(rng, m, delta)
        in_span = rank(B + [F]) == rank(B)
        assert reduce(F, C).remainder.is_zero == in_span


def chained_sequence(l):
    """Members C_i = p_1 + ... + p_i over increasing single terms."""
    ps = [Polynomial.monomial(term_from_exps({("r", 1): l - j, ("r", 2): j - 1}))
          for j in range(1, l + 1)]
    return [sum(ps[: i + 1], Polynomial.zero()) for i in range(l)]


def test_nreduce_adversarial_exponential():
    C = chained_sequence(3)
    assert is_canonical(C)
    R, steps = nreduce(C[-1], C, adversarial_chooser)
    assert R.is_zero
    assert steps == 2 ** 3 - 1


def test_nreduce_single_step():
    C = chained_sequence(3)
    for chooser in (greedy_chooser, adversarial_chooser):
        R, steps = nreduce(C[0], [C[0]], chooser)
        assert R.is_zero and steps == 1


def test_nreduce_confluence(rng):
    from conftest import random_homogeneous

    for _ in range(20):
        m, delta = rng.choice([(2, 3), (3, 2)])
        B = [random_homogeneous(rng, m, delta) for _ in range(3)]
        C = canonize([b for b in B if not b.is_zero]).sequence
        F = random_homogeneous(rng, m, delta)
        expected = reduce(F, C).remainder
        for seed in range(4):
            chooser = random_chooser(random.Random(seed))
            R, _ = nreduce(F, C, chooser)
            assert R == expected
        R, _ = nreduce(F, C, greedy_chooser)
        assert R == expected



@pytest.mark.parametrize("B", [["x1 + x2", "x2"], ["z1 + z2", "z1"], ["r1*z1 + r1*z2", "r1*z2"]])
def test_canonize_is_canonical_in_every_space(B):
    # one total order ranks every variable, so the sequence canonize builds
    # is canonical and nreduce agrees with reduce whatever the hash seed
    B = [P(b) for b in B]
    C = canonize(B).sequence
    assert is_canonical(C)
    for v in sorted(set().union(*(b.variables() for b in B))):
        F = Polynomial.variable(*v)
        assert nreduce(F, C)[0] == reduce(F, C).remainder

def test_crgist_worked_examples():
    mu = Partition.of(2, 1)
    assert not crgist(P("3*r1^2 + 4*r1*r2 + r2^2"), mu).symmetric
    res = crgist(P("3*r1^2 + 2*r1*r2 + r2^2"), mu)
    assert res.symmetric
    assert res.gist == P("z1^2 - z2")


def test_crgist_zero_input():
    res = crgist(Polynomial.zero(), Partition.of(2, 1))
    assert res.symmetric and res.gist.is_zero


def test_crgist_substitution_identity():
    mu = Partition.of(2, 2)
    F = spec_generator("e", 2, mu) ** 2
    res = crgist(F, mu)
    assert res.symmetric
    assert res.substituted() == F


def test_crgist_other_bases():
    mu = Partition.of(2, 1)
    F = spec_generator("p", 2, mu)
    for kind in ("e", "p", "c", "m"):
        res = crgist(F, mu, kind)
        assert res.symmetric
        assert res.substituted() == F
    assert crgist(F, mu, "p").gist == P("z2")


def test_canonical_system_concurrent_access():
    # readers may race with one exclusive insertion; all observers must
    # end up with equivalent systems
    import threading

    clear_memo()
    mu = Partition.of(2, 2, 1)
    results = []

    def worker():
        results.append(canonical_system(mu, 6))

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r.sequence == results[0].sequence for r in results)
    assert all(r.qmatrix == results[0].qmatrix for r in results)
    clear_memo()


def test_canonical_system_memo():
    clear_memo()
    mu = Partition.of(2, 1)
    a = canonical_system(mu, 2)
    b = canonical_system(mu, 2)
    assert a is b
    clear_memo()


# a file in the layout that earlier versions stored canonical systems in,
# well formed but empty, and one that is not a system at all
STALE_FILES = [
    '{"mu": [2, 1], "delta": 3, "kind": "e", "alphas": [[1, 1, 1], [2, 1, 0], [3, 0, 0]], '
    '"sequence": [], "qmatrix": [[], [], []]}',
    "{}",
]


@pytest.mark.parametrize("stale", [None, *STALE_FILES], ids=["no-file", "empty-system", "not-a-system"])
def test_cache_dir_changes_no_verdict(stale, tmp_path, monkeypatch, capsys):
    # canonical systems are memoized in process only: a file in
    # MUSYM_CACHE_DIR is neither read nor written
    if stale is not None:
        (tmp_path / "canonize_e_2-1_d3.json").write_text(stale)
    before = sorted(p.name for p in tmp_path.iterdir())
    monkeypatch.setenv("MUSYM_CACHE_DIR", str(tmp_path))
    clear_memo()
    code = cli.main(["gist", "(2*r1+r2)^3", "--mu", "2,1", "--algo", "cr"])
    assert (code, capsys.readouterr().out) == (0, "z1^3\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    clear_memo()


# -- the integer sweep against a rational reference -----------------------


def _reference_reduce(F, C):
    """The single sweep over rational coefficients, on Polynomials."""
    key = term_key
    lts = [leading(c) for c in C]
    work, remainder = F, Polynomial.zero()
    coeffs = [rat(0)] * len(C)
    i, loops = len(C), 0
    while not work.is_zero and i > 0:
        loops += 1
        t, a = leading(work)
        lt, lc = lts[i - 1]
        if key(t) > key(lt):
            remainder = remainder + Polynomial.monomial(t, a)
            work = work - Polynomial.monomial(t, a)
        else:
            if t == lt:
                coeffs[i - 1] = a / lc
                work = work - coeffs[i - 1] * C[i - 1]
            i -= 1
    return ReduceResult(remainder + work, tuple(coeffs), loops)


def _reference_canonize(B):
    key = term_key
    seq, combos = [], []
    for idx, b in enumerate(B):
        res = _reference_reduce(b, seq)
        if res.remainder.is_zero:
            continue
        combo = {idx: rat(1)}
        for j, c in enumerate(res.coeffs):
            for k, q in combos[j].items():
                combo[k] = combo.get(k, rat(0)) - c * q
        lt = key(leading(res.remainder)[0])
        pos = sum(1 for s in seq if key(leading(s)[0]) < lt)
        seq.insert(pos, res.remainder)
        combos.insert(pos, combo)
    return seq, [[combo.get(i, rat(0)) for combo in combos] for i in range(len(B))]


def _random_rational_poly(rng, terms=4):
    coeffs = {}
    for _ in range(rng.randint(1, terms)):
        exps = {("r", i): rng.randint(0, 2) for i in (1, 2, 3)}
        num = rng.choice([-6, -4, -3, -2, -1, 1, 2, 3, 5])
        coeffs[term_from_exps(exps)] = rat(num, rng.randint(1, 4))
    return Polynomial(coeffs)


def _random_family(rng):
    base = [_random_rational_poly(rng) for _ in range(rng.randint(1, 5))]
    extra = [rat(rng.randint(-3, 3), rng.randint(1, 3)) * rng.choice(base) + rng.choice(base)
             for _ in range(rng.randint(0, 2))]
    B = base + extra  # zero members kept: a skipped input's tag must not reach Q
    rng.shuffle(B)
    return B


def test_integer_sweep_matches_rational_reference():
    rng = random.Random(51)
    seen = {"rank_deficient": 0, "negative_lead": 0, "non_unit_lead": 0,
            "zero_remainder": 0, "nonzero_remainder": 0, "zero_input": 0}
    families = chain((_random_family(rng) for _ in range(80)), ([Polynomial.zero()] * 2, []))
    for B in families:
        seen["zero_input"] += any(b.is_zero for b in B)
        ref_seq, ref_q = _reference_canonize(B)
        got = canonize(B)
        assert got.sequence == ref_seq
        assert got.qmatrix == ref_q
        seen["rank_deficient"] += len(ref_seq) < len(B)
        for c in ref_seq:
            lc = leading(c)[1]
            seen["negative_lead"] += lc < 0
            seen["non_unit_lead"] += abs(lc) != 1
        for _ in range(3):
            F = sum((rat(rng.randint(-5, 5), rng.randint(1, 6)) * c for c in ref_seq),
                    Polynomial.zero())
            if rng.random() < 0.5:
                F = F + _random_rational_poly(rng, 2)
            want = _reference_reduce(F, ref_seq)
            assert reduce(F, got.sequence) == want
            seen["zero_remainder" if want.remainder.is_zero else "nonzero_remainder"] += 1
    assert all(seen.values()), seen


SPEC_FAMILIES = [((2, 2, 1), 10, 26), ((3, 2), 10, 10), ((2, 2, 2), 12, None), ((1, 1, 1, 1, 1), 6, None)]


@pytest.mark.parametrize("kind", symfun.BASIS_KINDS)
@pytest.mark.parametrize("parts,delta,e_rank", SPEC_FAMILIES)
def test_canonize_on_specialized_bases_matches_rational_reference(parts, delta, e_rank, kind):
    # the dense sweep on the bases cr and dims use, rank-deficient ones included
    mu = Partition(parts)
    clear_memo()
    alphas, basis = symfun.spec_basis(kind, delta, mu)
    B = [symfun._root_ring(mu.m).undensify(d) for d in basis]
    ref_seq, ref_q = _reference_canonize(B)
    got = canonize(B)
    assert got.sequence == ref_seq and got.qmatrix == ref_q
    system = canonical_system(mu, delta, kind)
    assert system.sequence == ref_seq and system.qmatrix == ref_q
    if kind == "e" and e_rank is not None:
        assert (len(ref_seq), len(alphas)) == (e_rank, 30)
    clear_memo()


@pytest.mark.parametrize("kind", ["e", "p", "c"])
def test_reduce_sweep_only_multiplies_its_den(kind, monkeypatch):
    # each step of the sweep is den *= cancel(...): no content is divided
    # out mid-sweep, so the den returned is the one given times every scale
    mu = Partition.of(2, 2, 1)
    ((delta, work, den),) = symfun.root_parts(dplus(mu), mu)
    system = canonical_system(mu, delta, kind)
    scales = []
    real = reduction.cancel

    def recording(*args):
        scales.append(real(*args))
        return scales[-1]

    monkeypatch.setattr(reduction, "cancel", recording)
    remainder, out_den, loops = reduction._reduce_packed(work, system.dense, den)
    assert delta == 10 and loops > 0 and len(scales) > 1
    assert out_den == den * math.prod(scales)
    assert max(remainder) < 0  # dplus is (2,2,1)-symmetric
    clear_memo()


def test_cold_canonical_system_makes_no_rational(monkeypatch):
    # the quotients ride the integer sweep as tags; Q is read off on demand
    calls = []
    real = reduction.rat
    monkeypatch.setattr(reduction, "rat", lambda *a: calls.append(a) or real(*a))
    clear_memo()
    symfun.clear_caches()
    system = canonical_system(Partition.of(3, 2, 1), 12)
    assert len(system.dense) > 0 and calls == []
    clear_memo()


def test_integer_kernels_keep_rationals_at_the_edges():
    mu = Partition.of(2, 2, 1)
    F = dplus(mu)
    for kind in symfun.BASIS_KINDS:
        _, basis = symfun.spec_basis(kind, 6, mu)
        assert all(type(c) is int for d in basis for c in d.values())
    clear_memo()
    for kind in ("e", "p"):
        system = canonical_system(mu, 8, kind)
        # the documented integer form: primitive members with positive leads
        assert all(d[lt] > 0 for d, lt in zip(system.dense.polys, system.dense.lts))
        assert all(math.gcd(*d.values()) == 1 for d in system.dense.polys)
        assert all(isinstance(c, Rational) for p in system.sequence for _, c in p.items())
        assert all(isinstance(q, Rational) for row in system.qmatrix for q in row)
        res = reduce(P("r1^5*r2^3/3 - 2*r3^8"), system.sequence)
        assert all(isinstance(c, Rational) for _, c in res.remainder.items())
        assert res.coeffs and all(isinstance(c, Rational) for c in res.coeffs)
        assert isinstance(res.loops, int)
    for algo in ("groebner", "cr", "ls"):
        for kind in ("e", "m"):
            if algo == "groebner" and kind == "m":
                continue
            res = gists.compute_gist(F / 3, mu, kind, algo)
            values = [c for _, c in res.mcombo] if kind == "m" else [c for _, c in res.gist.items()]
            assert values and all(isinstance(c, Rational) for c in values), (algo, kind)
    clear_memo()
