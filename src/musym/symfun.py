"""Partitions, symmetric generator families and concrete root functions.

A multiplicity structure is a partition mu = (mu_1 >= ... >= mu_m >= 1)
of n.  The canonical specialization sends the formal roots x_1..x_n
block-monotonically onto the distinct roots r_1..r_m, the i-th block
having size mu_i.  Everything here is exact.

Each family has one builder, packed in the root ring r_1..r_m with int
coefficients.  At the trivial partition 1^n the specialization only
renames x_i to r_i, so the families in x1..xn (``generator``,
``monomial_generator``, ``basis_element``, ``subdiscriminant``) are
those builders at 1^n, read back in x.
Every specialized member, of all four kinds, lives in ``_spec_products``:
the Groebner seeds and the cr and ls bases read the same dicts.  Where
the S_mu orbits compress a degree (``orbit_rule``), cr and ls read
``orbit_basis`` instead (``system_basis`` picks): each e/p/c member at
one monomial per orbit of mu's ``_Orbits``, which fixes the member.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from . import _packed
from .polys import (
    Polynomial,
    Term,
    _accumulate,
    rat,
    term_from_exps,
)

BASIS_KINDS = ("e", "p", "c", "m")


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive parts; n is the sum, m the count."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("a partition needs at least one part")
        if any(not isinstance(p, int) or isinstance(p, bool) or p < 1 for p in self.parts):
            raise ValueError("parts must be positive integers")
        if any(self.parts[i] < self.parts[i + 1] for i in range(len(self.parts) - 1)):
            raise ValueError("parts must be weakly decreasing")

    @classmethod
    def of(cls, *parts: int) -> "Partition":
        return cls(tuple(parts))

    @classmethod
    def parse(cls, text: str) -> "Partition":
        try:
            parts = tuple(int(p) for p in text.split(","))
        except ValueError as exc:
            raise ValueError(f"bad partition {text!r}; expected e.g. 2,2,1") from exc
        return cls(parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def m(self) -> int:
        return len(self.parts)

    def __str__(self):
        return ",".join(str(p) for p in self.parts)


def _partitions_bounded(total: int, max_part: int, max_len: int):
    """Weakly decreasing positive tuples summing to total, with at most
    max_len parts, none above max_part.  Depth-first on an explicit
    stack, so a long partition costs no recursion depth."""
    stack = [((), total, max_part)]
    while stack:
        head, rest, cap = stack.pop()
        if not rest:
            yield head
        elif len(head) < max_len:
            stack.extend((head + (part,), rest - part, part) for part in range(1, min(rest, cap) + 1))


def weak_partitions(delta: int, n: int, flavor: str = "capped") -> list[tuple[int, ...]]:
    """Index sets for degree-delta symmetric bases.

    ``capped``: delta parts, each at most n (zero parts allowed).
    ``exact``: exactly n parts summing to delta.
    Ordered ascending-lexicographically, so (1,1,...) comes first.
    """
    if delta < 1 or n < 1:
        raise ValueError("delta and n must be positive")
    if flavor == "capped":
        raw = _partitions_bounded(delta, min(delta, n), delta)
        length = delta
    elif flavor == "exact":
        raw = _partitions_bounded(delta, delta, n)
        length = n
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    padded = [p + (0,) * (length - len(p)) for p in raw]
    return sorted(padded)


def index_flavor(kind: str) -> str:
    """The monomial basis is indexed by exact weak partitions."""
    if kind not in BASIS_KINDS:
        raise ValueError(f"unknown basis kind {kind!r}; expected one of {BASIS_KINDS}")
    return "exact" if kind == "m" else "capped"


# -- generator families in K[x] ----------------------------------------


def _check_generator(kind: str, i: int, n: int) -> None:
    if kind not in ("e", "p", "c"):
        raise ValueError("indexed generators exist for kinds e, p, c only")
    if not 0 <= i <= n:
        raise ValueError(f"generator index {i} out of range 1..{n}")


def _trivial(n: int) -> Partition:
    return Partition((1,) * n)


def _x_form(d: dict, n: int, den: int = 1) -> Polynomial:
    """d/den, d a packed dict of the root ring of 1^n, read in x1..xn."""
    return _packed.Ring([("x", i) for i in range(n, 0, -1)]).undensify(d, den)


def generator(kind: str, i: int, n: int) -> Polynomial:
    """The i-th generator of the symmetric algebra in x1..xn."""
    _check_generator(kind, i, n)
    return basis_element(kind, (i,), n)


def distinct_permutations(alpha: tuple[int, ...]):
    """Each distinct rearrangement of alpha once, in lexicographic order:
    next-permutation steps over the sorted multiset, so the work is
    proportional to the number of distinct rearrangements, not to n!."""
    a = sorted(alpha)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])


def _checked_index(kind: str, alpha, n: int) -> tuple[int, ...]:
    """alpha as a tuple, once checked in order: the kind, the m index's
    length and sign, the degree, then the e/p/c parts."""
    if kind not in BASIS_KINDS:
        raise ValueError(f"unknown basis kind {kind!r}")
    if kind == "m":
        if len(alpha) != n:
            raise ValueError("monomial index must have exactly n parts")
        if min(alpha, default=0) < 0:
            raise ValueError("negative exponent")
    _check_degree(sum(alpha))
    if kind != "m":
        for a in filter(None, alpha):
            _check_generator(kind, a, n)
    return tuple(alpha)


def monomial_generator(alpha: tuple[int, ...], n: int) -> Polynomial:
    """Sum of x^beta over the distinct permutations beta of alpha."""
    return basis_element("m", alpha, n)


def basis_element(kind: str, alpha: tuple[int, ...], n: int) -> Polynomial:
    """Basis member of degree sum(alpha): a product for e/p/c, m_alpha for m."""
    alpha = _checked_index(kind, alpha, n)
    return _x_form(_spec_packed(kind, alpha, _trivial(n)), n) if any(alpha) else Polynomial.constant(1)


# -- specialization ----------------------------------------------------


def _block_map(mu: Partition) -> dict[int, int]:
    blocks = [block for block, size in enumerate(mu.parts, start=1) for _ in range(size)]
    return dict(enumerate(blocks, start=1))


def specialize(p: Polynomial, mu: Partition) -> Polynomial:
    """Apply the canonical specialization x_i -> r_j of type mu.

    A ring homomorphism K[x] -> K[r]; variables outside the x space are
    left untouched.
    """
    blocks = _block_map(mu)
    n = mu.n
    coeffs: dict[Term, object] = {}
    for t, c in p.items():
        exps: dict = {}
        for s, i, e in t:
            if s == "x":
                if i > n:
                    raise ValueError(f"x{i} exceeds n={n} for mu={mu}")
                key = ("r", blocks[i])
            else:
                key = (s, i)
            exps[key] = exps.get(key, 0) + e
        _accumulate(coeffs, ((term_from_exps(exps), c),))
    return Polynomial(coeffs)


def spec_generator(kind: str, i: int, mu: Partition) -> Polynomial:
    """sigma_mu of the i-th generator, an element of K[r]: the unit
    entry of the product memo."""
    _check_generator(kind, i, mu.n)
    return spec_basis_element(kind, (i,), mu)


def _spec_generator_packed(kind: str, i: int, mu: Partition) -> dict:
    """sigma_mu of the i-th generator, built in the root ring with int
    coefficients rather than specialized from its expansion in x1..xn.

    p_i is sum_j mu_j r_j^i.  For e and c, the monomial prod r_j^a_j
    collects the subsets (e) or multisets (c) of i x variables that take
    a_j from block j: prod C(mu_j, a_j) of them, or
    prod C(mu_j + a_j - 1, a_j).
    """
    shifts = _root_ring(mu.m).shifts[::-1]  # the field of r_j is shifts[j - 1]
    if kind == "p":
        return {i << s: size for s, size in zip(shifts, mu.parts)}
    out = {}
    for counts in _compositions(i, mu.parts if kind == "e" else (i,) * mu.m):
        mon, coeff = 0, 1
        for a, s, size in zip(counts, shifts, mu.parts):
            mon += a << s
            coeff *= math.comb(size, a) if kind == "e" else math.comb(size + a - 1, a)
        out[mon] = coeff
    return out


def _compositions(total: int, caps: tuple[int, ...]):
    """Tuples a with 0 <= a_j <= caps[j] and sum total, in descending
    lexicographic order; every branch taken yields at least one."""
    if len(caps) == 1:
        if total <= caps[0]:
            yield (total,)
        return
    room = sum(caps[1:])
    for first in range(min(total, caps[0]), max(total - room, 0) - 1, -1):
        for rest in _compositions(total - first, caps[1:]):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _root_ring(m: int) -> _packed.Ring:
    """Packed ring of r1..rm with r_m most significant, so that integer
    order on packed monomials is the term order."""
    return _packed.Ring([("r", i) for i in range(m, 0, -1)])


@lru_cache(maxsize=None)
def _spec_products(kind: str, mu: Partition) -> dict:
    """The memo of the specialized basis members for (kind, mu), filled
    by ``_spec_packed`` and packed in the root ring with int coefficients.

    For e/p/c it maps counts -> prod_i spec_generator(kind, i, mu)^counts[i-1],
    keyed by counts rather than by the parts, so the keys of a chain of
    L factors hold O(L n) entries, not O(L^2); each generator is stored
    at its unit count.  For m it maps each exact index alpha to m_alpha.
    Either way the zero key, counts or index, holds the constant 1.
    """
    return {(0,) * mu.n: {0: 1}}


def _spec_monomial_packed(alpha: tuple[int, ...], mu: Partition) -> dict:
    """The specialized monomial symmetric function m_alpha, packed in the
    root ring with int coefficients: each distinct rearrangement beta of
    alpha adds 1 at the monomial with beta_j in the field of x_j's root."""
    root = _root_ring(mu.m).shifts[::-1]  # the field of r_j is root[j - 1]
    shifts = [root[block - 1] for block in _block_map(mu).values()]
    out: dict = {}
    for beta in distinct_permutations(alpha):
        mon = sum(e << s for e, s in zip(beta, shifts, strict=True))
        out[mon] = out.get(mon, 0) + 1
    return out


def _spec_packed(kind: str, alpha: tuple[int, ...], mu: Partition) -> dict:
    # Stored through setdefault, so threads that race on a member share
    # the one kept.
    products = _spec_products(kind, mu)
    if kind == "m":
        return products.get(alpha) or products.setdefault(alpha, _spec_monomial_packed(alpha, mu))
    # alpha is weakly decreasing, walked from its smallest part: each
    # step's product is the step before times the generator of the new
    # part, so a long alpha costs no recursion depth.
    n = mu.n
    counts = [0] * n
    out = products[tuple(counts)]
    for a in reversed(alpha):
        if a:
            counts[a - 1] += 1
            key = tuple(counts)
            step = products.get(key)
            if step is None:
                unit = (0,) * (a - 1) + (1,) + (0,) * (n - a)
                gen = products.get(unit) or products.setdefault(unit, _spec_generator_packed(kind, a, mu))
                step = gen if key == unit else products.setdefault(key, _packed.mul(out, gen))
            out = step
    return out


# -- S_mu-orbit coordinates ------------------------------------------------

# A canonical system is built over orbit representatives where the
# degree-delta monomials number at least ORBIT_RATIO times the orbits.
ORBIT_RATIO = 16


class _Orbits:
    """The S_mu-orbit tables of one mu, filled as they are read.

    Swapping two roots of equal multiplicity fixes every specialized
    member, so a member is fixed by its coefficients at one monomial per
    S_mu orbit: the orbit's largest, whose exponents rise with the root
    index inside each block of equal multiplicities.
    ``swaps`` gives the field shift of r_j for each adjacent pair r_j,
    r_j+1 of equal multiplicity.  Memoized: ``rules`` (``rule`` per
    degree), ``reps`` (the representatives per degree), ``rep_of``
    (``rep``), ``orbits`` (``orbit``), ``members`` (each kind's members
    at representatives, keyed by counts as ``_spec_products`` keys them)
    and ``gathers`` (the index lists of ``gather``).
    """

    def __init__(self, mu: Partition):
        ring = _root_ring(mu.m)
        self.shifts = ring.shifts[::-1]  # the field of r_j is shifts[j - 1]
        self.guard = ring.guard_mask
        self.swaps = [_packed.FIELD * j for j in range(mu.m - 1) if mu.parts[j] == mu.parts[j + 1]]
        ends = list(itertools.accumulate(len(list(g)) for _, g in itertools.groupby(mu.parts)))
        self.blocks = list(zip([0, *ends], ends))  # the roots of each block of equal multiplicities
        self.rules: dict[int, bool] = {}
        self.reps: dict[int, dict[int, None]] = {}
        self.rep_of: dict[int, int] = {}
        self.orbits: dict[int, tuple[int, ...]] = {}
        self.members: dict[str, dict] = {}
        self.gathers: dict[tuple, list] = {}

    def rule(self, delta: int) -> bool:
        """Whether the degree-delta monomials number at least ORBIT_RATIO
        times the degree-delta orbits.  A block of k equal multiplicities
        has as many orbits of degree d as d has partitions into at most k
        parts, the coefficient of t^d in prod 1/(1 - t^i), i = 1..k."""
        used = self.rules.get(delta)
        if used is None:
            orbits = [1] + [0] * delta
            for lo, hi in self.blocks:
                for i in range(1, hi - lo + 1):
                    for d in range(i, delta + 1):
                        orbits[d] += orbits[d - i]
            m = len(self.shifts)
            used = self.rules.setdefault(delta, math.comb(delta + m - 1, m - 1) >= ORBIT_RATIO * orbits[delta])
        return used

    def representatives(self, delta: int) -> dict[int, None]:
        """The degree-delta representatives, packed, as dict keys.  Depth-first
        over the roots: inside a block the exponents rise, so a root takes at
        most its share of what is left for it and the block's later roots."""
        reps = self.reps.get(delta)
        if reps is None:
            shifts, last = self.shifts, len(self.shifts) - 1
            share = [hi - j for lo, hi in self.blocks for j in range(lo, hi)]  # roots from r_j to its block's end
            reps = {}
            stack = [(0, 0, delta, 0)]  # root index, packed so far, degree left, least exponent
            while stack:
                j, mon, rest, low = stack.pop()
                if j == last:
                    reps[mon + (rest << shifts[j])] = None
                    continue
                for e in range(low, rest // share[j] + 1):
                    stack.append((j + 1, mon + (e << shifts[j]), rest - e, e if share[j] > 1 else 0))
            reps = self.reps.setdefault(delta, reps)
        return reps

    def rep(self, mon: int) -> int:
        """The representative of mon's orbit, memoized: each block's
        exponents in ascending order."""
        rep = self.rep_of.get(mon)
        if rep is None:
            exps = [mon >> s & _packed.FIELD_MASK for s in self.shifts]
            for lo, hi in self.blocks:
                exps[lo:hi] = sorted(exps[lo:hi])
            rep = self.rep_of.setdefault(mon, sum(e << s for e, s in zip(exps, self.shifts)))
        return rep

    def orbit(self, rep: int) -> tuple[int, ...]:
        """The monomials of rep's orbit, memoized: each block's exponents
        in every distinct order."""
        orbit = self.orbits.get(rep)
        if orbit is None:
            exps = [rep >> s & _packed.FIELD_MASK for s in self.shifts]
            orbit = [0]
            for lo, hi in self.blocks:
                orbit = [
                    mon + sum(e << s for e, s in zip(perm, self.shifts[lo:hi]))
                    for mon in orbit
                    for perm in distinct_permutations(exps[lo:hi])
                ]
            orbit = self.orbits.setdefault(rep, tuple(orbit))
        return orbit

    def invariant(self, d: dict, delta: int) -> bool:
        """Whether d, of degree delta and with no tags, is S_mu-invariant:
        its terms at representatives, each spread over its orbit, make up
        all of d."""
        if not self.swaps:
            return True
        reps, get = self.representatives(delta), d.get
        size = 0
        for mon, c in d.items():
            if mon in reps:
                orbit = self.orbit(mon)
                size += len(orbit)
                for other in orbit:
                    if get(other) != c:
                        return False
        return size == len(d)

    def expand(self, d: dict) -> dict:
        """The whole S_mu-invariant polynomial that d holds at
        representatives; tags are left out."""
        return {mon: c for rep, c in d.items() if rep >= 0 for mon in self.orbit(rep)}

    def gather(self, kind: str, a: int, delta: int, out: dict, at_reps: bool, gen: dict) -> dict:
        """out * gen at the degree-delta representatives, where gen is the
        generator of part a and out the member one factor shorter, at
        representatives or full: at each representative lam, the sum of
        gen[g] * out[lam - g] over gen's monomials g that divide lam,
        lam - g read through ``rep`` when out is at representatives."""
        key = (kind, a, delta, at_reps)
        rows = self.gathers.get(key)
        if rows is None:
            guard, rep = self.guard, self.rep
            rows = []
            for lam in self.representatives(delta):
                row: dict = {}
                for g, c in gen.items():
                    if ((lam | guard) - g) & guard == guard:  # lam >= g in every field
                        mon = rep(lam - g) if at_reps else lam - g
                        row[mon] = row.get(mon, 0) + c
                rows.append((lam, list(row.items())))
            rows = self.gathers.setdefault(key, rows)
        get = out.get
        product = {}
        for lam, row in rows:
            s = 0
            for mon, c in row:
                v = get(mon)
                if v:
                    s += c * v
            if s:
                product[lam] = s
        return product


# mu -> its _Orbits; emptied by clear_caches and by reduction.clear_memo
_orbit_tables: dict = {}


def orbit_tables(mu: Partition) -> _Orbits:
    return _orbit_tables.get(mu) or _orbit_tables.setdefault(mu, _Orbits(mu))


def orbit_rule(kind: str, delta: int, mu: Partition) -> bool:
    """Whether cr and ls build the degree-delta members of (mu, kind) over
    orbit representatives: for kinds e, p and c, when the degree-delta
    monomials number at least ORBIT_RATIO times the orbits.  An orbit
    has at most (r + 1)! monomials, r being m less the number of distinct
    parts, so where (r + 1)! < ORBIT_RATIO no table is built."""
    _check_degree(delta)
    if kind == "m" or math.factorial(mu.m - len(set(mu.parts)) + 1) < ORBIT_RATIO:
        return False
    return orbit_tables(mu).rule(delta)


def orbit_basis(kind: str, delta: int, mu: Partition) -> tuple[list[tuple[int, ...]], list[dict]]:
    """``spec_basis`` of kind e, p or c, each member restricted to the
    degree-delta orbit representatives.

    Each member is the member one factor shorter times one generator,
    evaluated only at representatives (``_Orbits.gather``).  The shorter
    member is itself at representatives where ``orbit_rule`` holds at its
    degree, and read through ``rep`` there; elsewhere it is the full
    member of ``_spec_products``, read directly.  Restriction to the
    representatives is injective on S_mu-invariant polynomials.  The
    members are memoized, shared by every caller: do not mutate them.
    """
    if kind not in ("e", "p", "c"):
        raise ValueError("orbit members exist for kinds e, p, c only")
    _check_degree(delta)
    alphas = weak_partitions(delta, mu.n, "capped")
    return alphas, [_orbit_packed(kind, alpha, mu) for alpha in alphas]


def _orbit_packed(kind: str, alpha: tuple[int, ...], mu: Partition) -> dict:
    """alpha's member at the representatives of its degree.  alpha loses
    its largest part until a member is found in the memo, or is full
    (the empty product, or a degree where ``orbit_rule`` fails); each
    member above is then gathered from the one below, as ``_spec_packed``
    walks a chain, so a long alpha costs no recursion depth."""
    tables = orbit_tables(mu)
    members = tables.members.get(kind) or tables.members.setdefault(kind, {})
    parts = [a for a in alpha if a]  # descending
    counts = [0] * mu.n
    for a in parts:
        counts[a - 1] += 1
    degree, chain = sum(parts), []
    for i, a in enumerate(parts):
        key = tuple(counts)
        if i and not tables.rule(degree):
            out, at_reps = _spec_packed(kind, tuple(parts[i:]), mu), False
            break
        out = members.get(key)
        if out is not None:
            at_reps = True
            break
        chain.append((key, a, degree))
        counts[a - 1] -= 1
        degree -= a
    else:
        out, at_reps = {0: 1}, False
    for key, a, degree in reversed(chain):
        gen = _spec_packed(kind, (a,), mu)
        out, at_reps = members.setdefault(key, tables.gather(kind, a, degree, out, at_reps, gen)), True
    return out


def spec_basis_element(kind: str, alpha: tuple[int, ...], mu: Partition) -> Polynomial:
    """sigma_mu of the basis member alpha, checked as ``basis_element``
    checks it."""
    alpha = _checked_index(kind, alpha, mu.n)
    return _root_ring(mu.m).undensify(_spec_packed(kind, alpha, mu))


def spec_basis(kind: str, delta: int, mu: Partition) -> tuple[list[tuple[int, ...]], list[dict]]:
    """Index set and specialized basis for degree delta, in index order.

    The basis members are packed dicts in the root ring ``_root_ring(mu.m)``
    with Python int coefficients: every generator family here has integer
    coefficients, and so does its specialization.  They are the memoized
    members themselves, shared by every caller: do not mutate them.  A
    degree above the packed exponent limit is refused before any index is
    enumerated.
    """
    _check_degree(delta)
    alphas = weak_partitions(delta, mu.n, index_flavor(kind))
    return alphas, [_spec_packed(kind, alpha, mu) for alpha in alphas]


def system_basis(kind: str, delta: int, mu: Partition) -> tuple[list[tuple[int, ...]], list[dict], bool]:
    """``orbit_basis`` where ``orbit_rule`` holds, else ``spec_basis``, and
    whether it was the first: the members canonize and ls read."""
    at_reps = orbit_rule(kind, delta, mu)
    alphas, basis = (orbit_basis if at_reps else spec_basis)(kind, delta, mu)
    return alphas, basis, at_reps


def root_parts(F: Polynomial, mu: Partition) -> list[tuple[int, dict, int]]:
    """F's homogeneous parts, ascending by degree, as (delta, ints, den),
    the part being ints/den with ints a fresh packed int dict in the root
    ring, which the caller may consume.  The one walk that packs them also
    refuses an input the algorithms cannot decide: a variable other than
    r_1..r_m, or a degree beyond the packed exponent limit."""
    m = mu.m
    shifts = _root_ring(m).shifts[::-1]  # the field of r_j is shifts[j - 1]
    buckets: dict[int, dict] = {}
    excess = 0  # the largest index above m, refused after the walk
    for t, c in F.items():
        mon = degree = 0
        for s, i, e in t:
            if s != "r":
                raise ValueError("input must be a polynomial in the r variables")
            if i > m:  # never shifted by: that would build a huge int
                excess = max(excess, i)
            else:
                mon += e << shifts[i - 1]
            degree += e
        buckets.setdefault(degree, {})[mon] = c
    if excess:
        raise ValueError(f"r{excess} exceeds m={m} distinct roots for mu={mu}")
    degrees = sorted(buckets)
    if degrees:
        _check_degree(degrees[-1])
    return [(d, *_packed.integer_form(buckets[d])) for d in degrees]


def z_term_for(alpha: tuple[int, ...]) -> Term:
    """The z-monomial prod z_{alpha_i} attached to a capped index."""
    exps: dict = {}
    for a in alpha:
        if a:
            exps[("z", a)] = exps.get(("z", a), 0) + 1
    return term_from_exps(exps)


# -- concrete root functions -------------------------------------------


def _check_degree(degree: int) -> None:
    if degree > _packed.MAX_EXP:
        raise ValueError(f"degree {degree} exceeds the limit {_packed.MAX_EXP}")


def _difference_powers(m: int, degree: int, powers) -> dict:
    """prod of (r_i - r_j)^k over the (i, j, k) in ``powers``, a packed int
    dict in the root ring.  ``degree`` is the product's total degree: above
    the packed exponent limit, where fields would overflow, it is refused
    before anything is built."""
    _check_degree(degree)
    shifts = _root_ring(m).shifts[::-1]  # the field of r_j is shifts[j - 1]
    out = {0: 1}
    for i, j, k in powers:
        si, sj = shifts[i - 1], shifts[j - 1]
        binomial, c = {}, (-1) ** k  # c = (-1)^(k-a) C(k, a), stepped along the row
        for a in range(k + 1):
            binomial[(a << si) + ((k - a) << sj)] = c
            c = -c * (k - a) // (a + 1)
        out = _packed.mul(out, binomial)
    return out


def _root_difference_power(name: str, mu: Partition, degree: int, k) -> Polynomial:
    """prod over i<j of (r_i - r_j)^k(mu_i, mu_j), of total degree
    ``degree``, expanded."""
    if mu.m < 2:
        raise ValueError(f"{name} needs at least two distinct roots")
    powers = ((i, j, k(mu.parts[i - 1], mu.parts[j - 1])) for i, j in itertools.combinations(range(1, mu.m + 1), 2))
    return _root_ring(mu.m).undensify(_difference_powers(mu.m, degree, powers))


def dplus(mu: Partition) -> Polynomial:
    """prod over i<j of (r_i - r_j)^(mu_i + mu_j), expanded."""
    return _root_difference_power("dplus", mu, (mu.m - 1) * mu.n, lambda a, b: a + b)


def dstar(mu: Partition) -> Polynomial:
    """prod over i<j of (r_i - r_j)^(2 mu_i mu_j), expanded."""
    return _root_difference_power("dstar", mu, mu.n**2 - sum(p * p for p in mu.parts), lambda a, b: 2 * a * b)


def delta_squares(m: int) -> Polynomial:
    """prod over i<j of (r_i - r_j)^2 in r1..rm."""
    if m < 2:
        raise ValueError("need at least two distinct roots")
    powers = ((i, j, 2) for i, j in itertools.combinations(range(1, m + 1), 2))
    return _root_ring(m).undensify(_difference_powers(m, m * (m - 1), powers))


def subdiscriminant(n: int, k: int) -> Polynomial:
    """k-th subdiscriminant in x1..xn.

    Sum over all (n-k)-subsets I of the squared difference product
    prod_{i<j in I} (x_i - x_j)^2.  The product runs over unordered
    pairs; k = n-1 gives 1 and k = 0 the standard discriminant.
    """
    if not 0 <= k <= n - 1:
        raise ValueError(f"subdiscriminant index {k} out of range 0..{n - 1}")
    return _x_form(_subdiscriminant_packed(k, _trivial(n)), n)


def spec_subdiscriminant(k: int, mu: Partition) -> Polynomial:
    """specialize(subdiscriminant(mu.n, k), mu), without the n-variable
    expansion."""
    if not 0 <= k <= mu.n - 1:
        raise ValueError(f"subdiscriminant index {k} out of range 0..{mu.n - 1}")
    return _root_ring(mu.m).undensify(_subdiscriminant_packed(k, mu))


def _subdiscriminant_packed(k: int, mu: Partition) -> dict:
    """The specialized k-th subdiscriminant, packed in the root ring.

    A subset of the x variables with two in one block specializes to 0,
    so only subsets with at most one x per block remain: the sum runs
    over the (n-k)-subsets J of the m roots, each standing for
    prod_{j in J} mu_j subsets of the x variables, of
    prod_{i<j in J} (r_i - r_j)^2.  It is 0 for k < n - m.
    """
    size = mu.n - k
    if size == 1:
        return {0: 1}
    out: dict = {}
    for subset in itertools.combinations(range(1, mu.m + 1), size):
        powers = ((i, j, 2) for i, j in itertools.combinations(subset, 2))
        weight = math.prod(mu.parts[j - 1] for j in subset)
        _packed.submul(out, -weight, 0, _difference_powers(mu.m, size * (size - 1), powers))
    return out


def delta_lift(mu: Partition) -> Polynomial:
    """Symmetric polynomial specializing to prod (r_i - r_j)^2 under mu."""
    if mu.m < 2:
        raise ValueError("need at least two distinct roots")
    return subdiscriminant(mu.n, mu.n - mu.m) / math.prod(mu.parts)


def dplus_gist_m2(mu: Partition) -> Polynomial:
    """Closed-form gist of dplus for two distinct roots, in z1,z2,z3.

    Even n: ((n-1) z1^2 - 2n z2)^(n/2) / (mu1 mu2)^(n/2).  Odd n picks
    up the cubic factor k1 z1^3 + k2 z1 z2 + k3 z3 with denominators
    d = mu1 mu2 (mu1 - mu2), nonzero because odd n forces mu1 != mu2.
    """
    if mu.m != 2:
        raise ValueError("closed form requires exactly two distinct roots")
    mu1, mu2 = mu.parts
    n = mu.n
    z1 = Polynomial.variable("z", 1)
    z2 = Polynomial.variable("z", 2)
    z3 = Polynomial.variable("z", 3)
    base = ((n - 1) * z1 ** 2 - 2 * n * z2) / (mu1 * mu2)
    if n % 2 == 0:
        return base ** (n // 2)
    d = mu1 * mu2 * (mu1 - mu2)
    k1 = rat(-(n - 1) * (n - 2), d)
    k2 = rat(3 * n * (n - 2), d)
    k3 = rat(-3 * n * n, d)
    cubic = k1 * z1 ** 3 + k2 * z1 * z2 + k3 * z3
    return base ** ((n - 3) // 2) * cubic


def dplus_gist_equal(mu: Partition) -> Polynomial:
    """Symmetric lift of dplus when all multiplicities are equal.

    With every mu_i = mu_1, dplus(mu) is prod (r_i - r_j)^(2 mu_1), so its
    lift is delta_lift(mu)^mu_1, an element of K[x].
    """
    if len(set(mu.parts)) != 1:
        raise ValueError("closed form requires all multiplicities equal")
    return delta_lift(mu) ** mu.parts[0]


def clear_caches() -> None:
    """Drop the member memo, the orbit tables and the ls layouts built on
    them (used for cold-start benchmarking)."""
    from . import linsys  # local import; linsys builds on this module

    linsys._layout.cache_clear()
    _spec_products.cache_clear()
    _root_ring.cache_clear()
    _orbit_tables.clear()


def sym_dimensions(mu: Partition, delta: int, kind: str = "e") -> tuple[int, int]:
    """(dim of degree-delta symmetric space, rank of its specialization),
    read off the memoized canonical system."""
    from . import reduction  # local import; reduction builds on this module

    system = reduction.canonical_system(mu, delta, kind)
    return len(system.alphas), len(system.dense)
