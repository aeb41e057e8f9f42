import itertools
import random

import pytest
from conftest import _rref_kernel, degree_monomials, mu_invariant, mu_permutations, permuted, reference_bareiss, rref, substitute

from musym import linsys, symfun
from musym.gistresult import GistResult
from musym.groebner import mu_ideal_generators, normal_form
from musym.linsys import (
    build_system,
    degree_terms,
    lsgist,
    solve_particular,
)
from musym.polys import Polynomial, parse_poly, rat, term_from_exps
from musym.reduction import canonical_system, crgist
from musym.symfun import (
    Partition,
    dplus,
    index_flavor,
    spec_basis_element,
    spec_generator,
    sym_dimensions,
    weak_partitions,
)

P = parse_poly


def test_rref_worked_example():
    A = [[4, 1], [4, 2], [1, 0]]
    b = [3, 2, 1]
    assert solve_particular(A, b) == [rat(1), rat(-1)]


def test_rref_homogeneous_and_inconsistent():
    assert solve_particular([[4, 1], [4, 2], [1, 0]], [0, 0, 0]) == [rat(0), rat(0)]
    assert solve_particular([[1], [0]], [0, 1]) is None
    assert solve_particular([], []) == []


def test_rref_pivots_and_rank():
    reduced, pivots = rref([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    assert pivots == [0, 2]


def _rref_particular(A, b):
    cols = len(A[0])
    red, pivots = rref([row + [bv] for row, bv in zip(A, b)])
    if cols in pivots:
        return None
    expected = [rat(0)] * cols
    for r, c in enumerate(pivots):
        expected[c] = red[r][cols]
    return expected


def test_fraction_free_solve_matches_rref():
    # rank-deficient or sparse rational systems, half of them inconsistent: the
    # integer elimination must give rref's solution, rank and kernel exactly; so must
    # the same systems with repeated rows of [A | b], and with equal rows of A
    # that carry different b
    rng = random.Random(7)
    dup = random.Random(8)
    for _ in range(300):
        rows, cols = rng.randint(1, 8), rng.randint(1, 7)
        rank = rng.randint(0, min(rows, cols))
        B = [[rat(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in range(rank)] for _ in range(rows)]
        C = [[rat(rng.randint(-4, 4), rng.choice([1, 5])) for _ in range(cols)] for _ in range(rank)]
        A = [[sum((B[i][k] * C[k][j] for k in range(rank)), rat(0)) for j in range(cols)] for i in range(rows)]
        if rng.random() < 0.3:  # sparse rows, as in the gist systems
            A = [[0 if rng.random() < 0.4 else v for v in row] for row in A]
        b = [sum((a * rng.randint(-2, 2) for a in row), rat(0)) for row in A]
        if rng.random() < 0.5:
            b[rng.randrange(rows)] += 1
        assert solve_particular(A, b) == _rref_particular(A, b)
        picks = [dup.randrange(rows) for _ in range(dup.randint(1, 6))]
        A2, b2 = A + [list(A[i]) for i in picks], b + [b[i] for i in picks]
        order = list(range(len(A2)))
        dup.shuffle(order)
        A2, b2 = [A2[i] for i in order], [b2[i] for i in order]
        assert solve_particular(A2, b2) == _rref_particular(A2, b2) == _rref_particular(A, b)
        i = dup.randrange(rows)
        A3, b3 = A2 + [list(A[i])], b2 + [b[i] + dup.choice([-1, rat(1, 3)])]
        assert _rref_particular(A3, b3) is None
        assert solve_particular(A3, b3) is None


def _level_stress_matrices(rng):
    """Matrices whose rows sit at different lazy levels: each row opens
    with a run of zeros, so the steps whose pivot column it misses leave
    it alone; it is then updated several steps later, or taken as pivot
    while still at a low level when its entry is the least.  Some rows are
    zero, some become zero (a sum of two others), and most entries are
    past 2^64."""
    entries = (1, -1, 2, -3, 2**64 + 13, -(2**65) + 7, 3**45, -(5**30))
    out = []
    for _ in range(300):
        rows, cols = rng.randint(2, 9), rng.randint(2, 9)
        m = []
        for _ in range(rows):
            start = rng.choice((0, 0, rng.randint(0, cols)))  # cols: a zero row
            m.append([0] * start + [rng.choice(entries) * rng.choice((1, 1, 0)) for _ in range(cols - start)])
        if rows > 2 and rng.random() < 0.5:
            i, j = rng.sample(range(rows), 2)
            m[rng.randrange(rows)] = [x + y for x, y in zip(m[i], m[j])]
        rng.shuffle(m)
        out.append(m)
    return out


def test_bareiss_matches_the_reference_loop():
    # the same echelon form, pivots and row tags as the min(key=abs) search
    # with a fresh list per updated row: rank-deficient and sparse matrices,
    # zero columns, single rows and columns, and the empty matrix; then
    # matrices that stress the lazy levels
    rng = random.Random(31)
    shapes = [(0, 0), (1, 1), (1, 6), (6, 1)] + [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(400)]
    matrices = []
    for rows, cols in shapes:
        rank = rng.randint(0, min(rows, cols))
        B = [[rng.randint(-5, 5) for _ in range(rank)] for _ in range(rows)]
        entry = (0, 0, 7, -9, 10**6 + 3)
        C = [[rng.choice(entry) * rng.randint(-3, 3) for _ in range(cols)] for _ in range(rank)]
        m = [[sum(B[i][k] * C[k][j] for k in range(rank)) for j in range(cols)] for i in range(rows)]
        if rows and rng.random() < 0.3:
            m[rng.randrange(rows)] = [rng.randint(-3, 3) for _ in range(cols)]
        if cols and rng.random() < 0.3:
            zero = rng.randrange(cols)
            for row in m:
                row[zero] = 0
        matrices.append(m)
    for m in matrices + _level_stress_matrices(random.Random(32)):
        rows = len(m)
        for tags in (None, list(range(rows))):
            ours, ref = [list(row) for row in m], [list(row) for row in m]
            our_tags, ref_tags = (None, None) if tags is None else (list(tags), list(tags))
            assert linsys._bareiss(ours, our_tags) == reference_bareiss(ref, ref_tags), m
            assert ours == ref and our_tags == ref_tags, m


def test_sparsest_first_takes_the_sparsest_column_bareiss_meets():
    # after k Bareiss steps, the entry of row i in column c is the (k+1)-minor
    # on the k pivot rows and row i and on the columns taken and c; the column
    # taken next has the fewest nonzero ones, then the least |entry|, then
    # comes first
    rng = random.Random(33)
    for _ in range(200):
        n = rng.randint(1, 7)
        a = []
        while not a or len(rref(a)[1]) < n:
            a = [[rng.choice((0, 0, 0, 1, -2, 3, 7)) for _ in range(n)] for _ in range(n)]
        order = linsys._sparsest_first(a)
        assert sorted(order) == list(range(n))
        for k in range(n):
            tags = list(range(n))
            reference_bareiss([[row[j] for j in order[:k]] for row in a], tags)

            def met(c):
                entries = []
                for i in tags[k:]:
                    minor = [[a[r][j] for j in order[:k] + [c]] for r in tags[:k] + [i]]
                    if len(reference_bareiss(minor)) == k + 1:
                        entries.append(abs(minor[k][k]))
                return len(entries), min(entries), c

            assert met(order[k]) == min(map(met, order[k:])), (a, order, k)


def test_degree_terms_order():
    terms = degree_terms(2, 2)
    assert terms == [
        term_from_exps({("r", 1): 2}),
        term_from_exps({("r", 1): 1, ("r", 2): 1}),
        term_from_exps({("r", 2): 2}),
    ]
    for m in range(1, 5):
        for delta in range(7):
            brute = sorted(
                (e for e in itertools.product(range(delta + 1), repeat=m) if sum(e) == delta),
                reverse=True,
            )
            expected = [
                term_from_exps({("r", i + 1): e for i, e in enumerate(exps) if e})
                for exps in brute
            ]
            assert degree_terms(m, delta) == expected, (m, delta)


def test_build_system_worked_example():
    mu = Partition.of(2, 1)
    F = P("3*r1^2 + 2*r1*r2 + r2^2")
    system = build_system(F, mu)
    assert system.column_index == [(1, 1), (2, 0)]
    assert system.A == [[rat(4), rat(1)], [rat(4), rat(2)], [rat(1), rat(0)]]
    assert system.b == [rat(3), rat(2), rat(1)]


def test_build_system_rejects_bad_input():
    mu = Partition.of(2, 1)
    with pytest.raises(ValueError):
        build_system(Polynomial.zero(), mu)
    with pytest.raises(ValueError):
        build_system(P("r1^2 + r1"), mu)
    with pytest.raises(ValueError):
        build_system(P("z1"), mu)
    with pytest.raises(ValueError):
        build_system(P("7"), mu)


def test_lsgist_worked_examples():
    mu = Partition.of(2, 1)
    res = lsgist(P("3*r1^2 + 2*r1*r2 + r2^2"), mu)
    assert res.symmetric and res.gist == P("z1^2 - z2")
    assert not lsgist(P("3*r1^2 + 4*r1*r2 + r2^2"), mu).symmetric
    zero = lsgist(Polynomial.zero(), mu)
    assert zero.symmetric and zero.gist.is_zero


def test_lsgist_solution_validity(rng):
    from conftest import random_homogeneous

    for _ in range(30):
        parts = rng.choice([(2, 1), (2, 2), (3, 1), (2, 1, 1)])
        mu = Partition(parts)
        delta = rng.randint(1, 4)
        F = random_homogeneous(rng, mu.m, delta)
        if F.is_zero:
            continue
        system = build_system(F, mu)
        k = solve_particular(system.A, system.b)
        res = lsgist(F, mu)
        assert (k is not None) == res.symmetric
        if k is not None:
            for row, bv in zip(system.A, system.b):
                assert sum(a * x for a, x in zip(row, k)) == bv
            assert res.substituted() == F


def test_rank_consistency_with_dimensions():
    for parts, delta in [((2, 2), 3), ((3, 2), 4), ((2, 1), 3), ((2, 2, 1), 4)]:
        mu = Partition(parts)
        F = spec_generator("e", 1, mu) ** delta
        system = build_system(F, mu)
        dim_sym, dim_mu = sym_dimensions(mu, delta)
        assert len(system.column_index) == dim_sym
        assert len(rref(system.A)[1]) == dim_mu


def test_nullspace_gives_relations():
    # kernel vectors of the coefficient matrix are exactly the relations
    # among the specialized basis elements of that degree
    mu = Partition.of(2, 2)
    delta = 3
    F = spec_generator("e", 1, mu) ** delta
    system = build_system(F, mu)
    kernel = _rref_kernel(system.A)
    assert kernel  # dimension drops for this mu
    from musym.symfun import z_term_for

    gens = mu_ideal_generators(mu)
    mapping = {("z", i): spec_generator("e", i, mu) for i in range(1, mu.n + 1)}
    for v in kernel:
        combo = Polynomial.zero()
        for alpha, c in zip(system.column_index, v):
            if c != 0:
                combo = combo + Polynomial.monomial(z_term_for(alpha), c)
        assert substitute(combo, mapping).is_zero
        assert normal_form(combo, gens).is_zero


def test_lsgist_monomial_basis():
    mu = Partition.of(2, 1)
    F = spec_generator("e", 2, mu)
    system = build_system(F, mu, "m")
    assert system.column_index == weak_partitions(2, 3, "exact")
    res = lsgist(F, mu, "m")
    assert res.symmetric
    assert res.substituted() == F
    assert res.gist is None and res.mcombo is not None


def test_lsgist_power_sum_basis():
    mu = Partition.of(2, 2)
    F = spec_generator("p", 2, mu) * spec_generator("p", 1, mu)
    res = lsgist(F, mu, "p")
    assert res.symmetric
    assert res.substituted() == F


# an independently computed gist for dplus at mu=(2,2,1); gists are not
# unique, so the pinned-pivot solution may differ from it by a relation
REFERENCE_GIST_221 = (
    "10125/4*z5^2 - 11/2*z1^2*z2*z3^2 - 3*z1^4*z2*z4 + 67*z1^3*z3*z4"
    " - 207*z1^3*z2*z5 + 2517/4*z1*z2^2*z5 + 171*z1^2*z3*z5"
    " - 5955/4*z2*z3*z5 + 615/2*z1*z4*z5 - 184*z2*z4^2 + 12*z1^5*z5"
    " + z1^4*z3^2 + 6*z2^2*z3^2 + 9/2*z1*z3^3 + 48*z2^3*z4"
    " + 1737/4*z3^2*z4 + 277/4*z1^2*z4^2 - 1255/4*z1*z2*z3*z4"
)


def test_gists_for_dplus_221_agree_up_to_relations():
    from musym.symfun import dplus

    mu = Partition.of(2, 2, 1)
    F = dplus(mu)
    reference = P(REFERENCE_GIST_221)
    sub = {("z", i): spec_generator("e", i, mu) for i in range(1, 6)}
    assert substitute(reference, sub) == F
    ours = lsgist(F, mu).gist
    assert substitute(ours, sub) == F
    diff = reference - ours
    assert not diff.is_zero           # genuinely different representatives
    assert substitute(diff, sub).is_zero   # differing by a relation only


# -- ls on its memoized layout against a solve of the full system ----------

SHAPES = [(2, 1), (3, 1), (2, 2), (3, 2), (2, 1, 1), (2, 2, 1), (3, 1, 1)]


def _full_solve_part(delta, ints, den, mu, kind):
    """The reference decider: solve_particular on every row of A k = b,
    with A read off the basis polynomials rather than ls's layout."""
    F = symfun._root_ring(mu.m).undensify({m: rat(c, den) for m, c in ints.items()})
    alphas = weak_partitions(delta, mu.n, index_flavor(kind))
    members = [spec_basis_element(kind, a, mu) for a in alphas]
    terms = degree_terms(mu.m, delta)
    k = solve_particular([[g.coeff(t) for g in members] for t in terms], [F.coeff(t) for t in terms])
    if k is None:
        return GistResult.not_symmetric(mu, kind)
    return GistResult.from_coeffs(mu, kind, alphas, k)


def _exps(term, m):
    out = [0] * m
    for _, i, e in term:
        out[i - 1] = e
    return tuple(out)


def _orbit_sum(term, mu):
    """The sum of a term's images under the permutations of equal multiplicities."""
    exps = _exps(term, mu.m)
    orbit = {permuted(exps, p) for p in mu_permutations(mu.parts)}
    return Polynomial({term_from_exps({("r", j + 1): x for j, x in enumerate(e) if x}): rat(1) for e in orbit})


def _random_symmetric(rng, mu, kind, delta):
    alphas = weak_partitions(delta, mu.n, index_flavor(kind))
    out = Polynomial.zero()
    for a in rng.sample(alphas, rng.randint(1, min(4, len(alphas)))):
        out = out + spec_basis_element(kind, a, mu) * rat(rng.randint(-5, 5), rng.choice([1, 1, 2, 3]))
    return out


# blocks of three or more equal roots; (1,1,1,1,1) reads orbit members from delta = 5
LS_SHAPES = [*SHAPES, (2, 2, 2), (1, 1, 1, 1), (1, 1, 1, 1, 1)]


def test_ls_matches_a_full_solve():
    # each (shape, kind, delta) is decided cold once, then warm twice on new
    # inputs; the gist must be the full system's particular solution, and
    # a negative verdict must come whether or not a swap of equal
    # multiplicities moves F
    rng = random.Random(14)
    seen = set()
    for parts, kind in itertools.product(LS_SHAPES, "epcm"):
        mu = Partition(parts)
        for delta in range(1, 11):
            linsys._layout.cache_clear()
            for call in ("cold", "warm", "warm"):
                F = _random_symmetric(rng, mu, kind, delta)
                change = rng.choice(["none", "orbit", "term"])
                if change != "none":
                    term = rng.choice(degree_terms(mu.m, delta))
                    extra = _orbit_sum(term, mu) if change == "orbit" else Polynomial.monomial(term)
                    F = F + extra * rat(rng.choice([-2, 1, 3]), rng.choice([1, 5]))
                if rng.random() < 0.3:
                    low = rng.randint(0, delta - 1)
                    F = F + (_random_symmetric(rng, mu, kind, low) if low else Polynomial.constant(rat(1, 3)))
                expected = GistResult.from_parts(F, mu, kind, _full_solve_part)
                assert linsys.lsgist(F, mu, kind) == expected, (parts, kind, delta, str(F))
                fixed = mu_invariant(mu.parts, {_exps(t, mu.m): c for t, c in F.items()}, swaps_only=True)
                verdict = "positive" if expected.symmetric else "swap-fixed negative" if fixed else "swap negative"
                seen |= {verdict, (call, verdict), parts, kind, delta}
                if any(c.denominator > 1 for _, c in F.items()):
                    seen.add("rational")
                if len(symfun.root_parts(F, mu)) > 1:
                    seen.add("non-homogeneous")
    cases = {"rational", "non-homogeneous", *LS_SHAPES, *"epcm", *range(1, 11)}
    for verdict in ("positive", "swap negative", "swap-fixed negative"):
        cases |= {verdict, ("cold", verdict), ("warm", verdict)}
    assert cases <= seen, cases - seen


def test_only_the_invariance_test_rejects_a_non_representative_term(monkeypatch):
    # r1^9*r2 is no orbit representative at (2,2,1): F agrees with dplus at
    # every representative, so the x that solves the pivot subsystem solves
    # every row of A, and only the test that b is S_mu-invariant (here under
    # the swap r1 <-> r2) rejects F, cold, when planning and later
    mu, delta = Partition.of(2, 2, 1), 10
    pos = dplus(mu)
    F = pos + P(f"r1^{delta - 1}*r2")
    symfun.clear_caches()
    layout = linsys._layout(mu, delta, "e")
    ((_, work, _),) = symfun.root_parts(F, mu)
    ((_, pos_work, _),) = symfun.root_parts(pos, mu)
    assert [work.get(rep) for rep in layout.rows] == [pos_work.get(rep) for rep in layout.rows] and work != pos_work
    for _ in range(3):
        assert not lsgist(F, mu).symmetric and lsgist(pos, mu).symmetric
    tables = symfun.orbit_tables(mu)
    assert not tables.invariant(work, delta) and tables.invariant(pos_work, delta)
    monkeypatch.setattr(symfun._Orbits, "invariant", lambda self, d, delta: True)
    assert linsys._solve(layout, work) == linsys._solve(layout, pos_work) is not None
    symfun.clear_caches()


def test_build_system_matches_the_full_members():
    # A's row at each monomial of degree_terms holds every full member's
    # coefficient there, and b holds F's, also where the layout reads
    # members at representatives only ((1,1,1,1,1) from delta = 5)
    rng = random.Random(35)
    cases = [((2, 2, 1), kind, delta) for kind in "epcm" for delta in range(1, 7)]
    cases += [((1, 1, 1, 1, 1), kind, delta) for kind in "epcm" for delta in (5, 6)]
    symfun.clear_caches()
    for parts, kind, delta in cases:
        mu = Partition(parts)
        assert symfun.orbit_rule(kind, delta, mu) is (mu.m == 5 and kind != "m")
        ring = symfun._root_ring(mu.m)
        monomials = [ring.pack(list(e[::-1])) for e in degree_monomials(mu.m, delta)]
        alphas, members = symfun.spec_basis(kind, delta, mu)
        pos = Polynomial.zero()
        while pos.is_zero:
            pos = _random_symmetric(rng, mu, kind, delta)
        for F in (pos / 3, pos + P(f"r1^{delta}")):
            system = build_system(F, mu, kind)
            ((_, f, den),) = symfun.root_parts(F, mu)
            rows = {mon: ([g.get(mon, 0) for g in members], rat(f.get(mon, 0), den)) for mon in monomials}
            assert system.column_index == alphas and len(system.A) == len(rows)
            for term, row, bv in zip(system.row_index, system.A, system.b):
                assert (row, bv) == rows[ring.pack(list(_exps(term, mu.m)[::-1]))], (parts, kind, delta)
    symfun.clear_caches()


def test_cr_and_ls_return_one_vector():
    # both return the unique solution supported on the leftmost independent
    # basis members: canonize keeps exactly the inputs that leave a nonzero
    # remainder, and ls pins A's free columns to 0
    rng = random.Random(21)
    for parts, kind, delta in itertools.product([*SHAPES, (1, 1, 1)], "epcm", range(1, 9)):
        mu = Partition(parts)
        for _ in range(3):
            F = _random_symmetric(rng, mu, rng.choice("epcm"), delta)
            cr, ls = crgist(F, mu, kind), lsgist(F, mu, kind)
            assert cr.symmetric and cr.combo == ls.combo, (parts, kind, delta, str(F))


def test_planned_warm_ls_matches_a_full_solve():
    # the cold call, the call that records the plan and a call that reads
    # it each give the full system's particular solution, and Bareiss on
    # A_RP with its columns in the planned order pivots on every column
    rng = random.Random(32)
    shapes = [parts for n in range(1, 6) for parts in symfun._partitions_bounded(n, n, n)]  # every mu with n <= 5
    cases = [(parts, kind, delta) for parts in shapes for kind in "epcm" for delta in range(1, 9)]
    cases += [(parts, "e", None) for parts in ((3, 2, 1), (4, 1, 1))]
    for parts, kind, delta in cases:
        mu = Partition(parts)
        if delta is None:  # dplus, then one negative and one positive input
            F = dplus(mu)
            delta = symfun.root_parts(F, mu)[0][0]
            inputs = [F, F + P(f"r1^{delta}"), F - spec_generator(kind, 1, mu) ** delta]
        else:
            inputs = []
            while len(inputs) < 3:  # each call must reach the degree-delta layout
                F = _random_symmetric(rng, mu, kind, delta)
                inputs += [F] if not F.is_zero else []
        linsys._layout.cache_clear()
        for F in inputs:
            expected = GistResult.from_parts(F, mu, kind, _full_solve_part)
            res = linsys.lsgist(F, mu, kind)
            assert (res.symmetric, res.combo) == (expected.symmetric, expected.combo), (parts, kind, delta, str(F))
        layout = linsys._layout(mu, delta, kind)
        Q, rows, _ = layout.plan
        assert sorted(Q) == layout.profile[1]
        assert linsys._bareiss([list(row) for row in rows]) == list(range(len(Q))), (parts, kind, delta)


def test_ls_pivot_columns_are_the_inputs_canonize_keeps():
    # a canonical member's own input k is its lowest tag ~k, so k = ~min(d)
    for parts, kind, delta in itertools.product([*SHAPES, (1, 1, 1)], "epcm", range(1, 9)):
        mu = Partition(parts)
        layout = linsys._layout(mu, delta, kind)
        linsys._solve(layout, {})  # records the rank profile on a cold layout
        kept = sorted(~min(d) for d in canonical_system(mu, delta, kind).dense.polys)
        assert layout.profile[1] == kept, (parts, kind, delta)


def test_warm_ls_solves_only_the_square_pivot_subsystem(monkeypatch):
    mu = Partition.of(2, 2, 1)
    F = dplus(mu)
    symfun.clear_caches()
    linsys.lsgist(F, mu)
    shapes, matrices = [], []
    real = linsys._bareiss

    def recording(m, *args):
        shapes.append((len(m), len(m[0])))
        matrices.append([list(row) for row in m])
        return real(m, *args)

    monkeypatch.setattr(linsys, "_bareiss", recording)
    for G in (F, F + P("r1^10"), P("r1^5*r2^5 - 3*r1*r2*r3^8 + r3^10")):
        linsys.lsgist(G, mu)
    rank = sym_dimensions(mu, 10)[1]
    assert rank == 26
    # the first warm call records the plan, and it too eliminates [A_RP | b_R]
    # once, with A_RP's columns in the planned order
    assert shapes == [(rank, rank + 1)] * 3  # [A_RP | b_R]
    layout = linsys._layout(mu, 10, "e")
    (R, P_), (Q, rows, _) = layout.profile, layout.plan
    assert sorted(Q) == P_ and Q != P_
    assert rows == [[layout.rows[i][c] for c in Q] for i in R]
    assert all([row[:-1] for row in m] == rows for m in matrices)
    # one fresh elimination per homogeneous part decided, ascending by degree
    # up to the first inconsistent one: no stored elimination is replayed
    e = [spec_generator("e", i, mu) for i in range(5)]
    G = F + e[3] + e[2] * e[4] - e[1] ** 6
    assert linsys.lsgist(G, mu).symmetric  # records the degree-3 and degree-6 profiles
    cases = ((G, True, (3, 6, 10)), (G + P("r1^10"), False, (3, 6, 10)), (G + P("r1^6"), False, (3, 6)))
    for H, symmetric, degrees in cases:  # the first plans degrees 3 and 6
        shapes.clear()
        assert linsys.lsgist(H, mu).symmetric is symmetric
        profiles = [linsys._layout(mu, delta, "e").profile for delta in degrees]
        assert shapes == [(len(rows), len(cols) + 1) for rows, cols in profiles]
    symfun.clear_caches()


def test_one_shot_ls_never_plans_and_each_layout_plans_once(monkeypatch):
    planned = []
    real = linsys._sparsest_first

    def counting(a):
        planned.append(len(a))
        return real(a)

    monkeypatch.setattr(linsys, "_sparsest_first", counting)
    mu = Partition.of(3, 1, 1)
    F = dplus(mu)
    symfun.clear_caches()
    linsys.lsgist(F, mu)
    layout = linsys._layout(mu, 10, "e")
    assert layout.profile is not None and layout.plan is None and not planned
    for G in (F, F + P("r1^10"), F, P("r1^7*r2^3")):
        linsys.lsgist(G, mu)
    assert planned == [len(layout.profile[0])]
    symfun.clear_caches()


def test_cold_ls_eliminates_once(monkeypatch):
    mu = Partition.of(3, 1, 1)
    calls = []
    real = linsys._bareiss

    def counting(m, *args):
        calls.append(len(m))
        return real(m, *args)

    monkeypatch.setattr(linsys, "_bareiss", counting)
    for F in (dplus(mu), dplus(mu) + P("r1^10")):
        symfun.clear_caches()
        calls.clear()
        linsys.lsgist(F, mu)
        assert len(calls) == 1
    symfun.clear_caches()
