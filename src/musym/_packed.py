"""Packed-monomial kernel shared by multiplication, reduction and the
Groebner engine.

Monomials become integers with one 16-bit field per variable, most
significant field first, so that integer comparison realizes the term
order, multiplication is addition, and divisibility is a borrow check
against the guard bits.  Exponents must stay below 2^15, so no borrow
crosses a field: lcm and weighted degree are word operations too.
((a | guard) - b) & guard marks the fields where a >= b, whence the lcm;
the weighted degree is one slot of one product, its fields spread into
k interleaved groups so that slots are 16k bits wide, k the least with
width * max weight * (2^15 - 1) < 2^(16k): no slot carries.

A packed polynomial is a dict from monomial to nonzero int coefficient.
``Ring.densify`` and ``Ring.undensify`` are the only door to a rational
``Polynomial``: p goes in as (ints, den), p = ints/den, and d/den comes
back out, divided once, ``undensify`` reading each term in one pass.
Every product of two non-constant Polynomials crosses this door, so an
operand exponent above ``MAX_EXP`` is refused.  Products accumulate
their terms in ``mul``, which drops cancelled terms once at the end;
every reduction and S-polynomial is built from one primitive,
``submul``: work -= q * x^shift * g.  A ``Basis`` stores each member
primitive, with a positive lead; every elimination step is one
``cancel``, which divides nothing and returns the scale it put on what
it reduces.
"""

from __future__ import annotations

import heapq
import math

from .polys import Polynomial, Term, Var, _raw, rat, var_rank

FIELD = 16
GUARD_BIT = 1 << (FIELD - 1)
FIELD_MASK = (1 << FIELD) - 1
MAX_EXP = GUARD_BIT - 1


class Ring:
    """Fixed priority-ordered variable list with pack/unpack helpers."""

    def __init__(self, vars_: list[Var], weights: tuple[int, ...] | None = None):
        self.vars = vars_
        self.width = len(vars_)
        self.pos = {v: i for i, v in enumerate(vars_)}
        # field 0 is the most significant: highest priority variable
        self.shifts = [(self.width - 1 - i) * FIELD for i in range(self.width)]
        # each field as (space, index, shift), in the order a Term lists them
        self.fields = sorted((*v, s) for v, s in zip(vars_, self.shifts))
        self.guard_mask = sum(GUARD_BIT << s for s in self.shifts)
        self.weights = weights if weights is not None else (1,) * self.width
        # field p (p = 0 least significant) of group g = p % k moves to
        # slot p // k + g * per_group; the weight of slot s sits at slot
        # top - s of the multiplier, so slot top of the product is wdeg
        bound = self.width * max(self.weights, default=1) * MAX_EXP
        k = max(1, -(-bound.bit_length() // FIELD))  # bound < 2^(16k)
        per_group = max(1, -(-self.width // k))  # a ring with no variables has one slot
        top = k * per_group - 1
        self.spread = [
            (sum(FIELD_MASK << (FIELD * p) for p in range(g, self.width, k)), FIELD * g * top)
            for g in range(k)
        ]
        self.wmul = sum(
            w << (FIELD * k * (top - p // k - p % k * per_group))
            for p, w in enumerate(reversed(self.weights))
        )
        self.wshift = FIELD * k * top
        self.wmask = (1 << (FIELD * k)) - 1

    def pack(self, exps: list[int]) -> int:
        mon = 0
        for e, s in zip(exps, self.shifts):
            if e > MAX_EXP:
                raise ValueError(f"exponent {e} exceeds the limit {MAX_EXP}")
            mon |= e << s
        return mon

    def unpack(self, mon: int) -> list[int]:
        return [(mon >> s) & FIELD_MASK for s in self.shifts]

    def lcm(self, a: int, b: int) -> int:
        m = ((((a | self.guard_mask) - b) & self.guard_mask) >> (FIELD - 1)) * FIELD_MASK
        return (a & m) | (b & ~m)

    def wdeg(self, mon: int) -> int:
        x = 0
        for mask, shift in self.spread:
            x |= (mon & mask) << shift
        return (x * self.wmul >> self.wshift) & self.wmask

    def pack_term(self, t: Term) -> int:
        exps = [0] * self.width
        for sp, i, e in t:
            exps[self.pos[(sp, i)]] = e
        return self.pack(exps)

    def densify(self, p: Polynomial) -> tuple[dict, int]:
        """p as (ints, den): a packed int dict with p = ints/den."""
        return integer_form({self.pack_term(t): c for t, c in p.items()})

    def undensify(self, d: dict, den: int = 1) -> Polynomial:
        """d/den as a Polynomial, each term read once; tag keys (negative)
        are skipped.  d holds no zero: no kernel leaves one."""
        fields = self.fields
        coeffs = {}
        for mon, c in d.items():
            if mon >= 0:
                term = []
                for sp, i, s in fields:
                    e = mon >> s & FIELD_MASK
                    if e:
                        term.append((sp, i, e))
                coeffs[tuple(term)] = rat(c, den)
        return _raw(coeffs)


def submul(work: dict, q, shift: int, g: dict, heap: list | None = None, skip: int | None = None) -> None:
    """work -= q * x^shift * g, in place; cancelled terms are dropped.

    Monomials new to ``work`` are pushed onto ``heap``, a max-heap of
    negated monomials, when one is given.  The term of g at monomial
    ``skip`` is left out: a caller cancelling a term of work removes it
    itself rather than pay for the exact arithmetic that would zero it.
    """
    nq = -q
    for m, c in g.items():
        if m == skip:
            continue
        mm = m + shift
        s = work.get(mm)
        if s is None:
            work[mm] = nq * c
            if heap is not None:
                heapq.heappush(heap, -mm)
        else:
            s += nq * c
            if s:
                work[mm] = s
            else:
                del work[mm]


def cancel(work: dict, t: int, a: int, lt: int, member: dict, heap: list | None, other: dict) -> int:
    """Cancel the term a * x^t, just popped from the integer dict work,
    against ``member``, a basis member with lead monomial lt, without
    dividing.

    With lc the member's lead coefficient, work and ``other`` are first
    multiplied by lc/gcd(a, lc), so that the multiple of the member
    subtracted is the integer a/gcd(a, lc).  Returns that scale.
    """
    lc = member[lt]
    if lc == 1:
        submul(work, a, t - lt, member, heap, skip=lt)
        return 1
    d = math.gcd(a, lc)
    scale = lc // d
    if scale != 1:
        for part in (work, other):
            for m in part:
                part[m] *= scale
    submul(work, a // d, t - lt, member, heap, skip=lt)
    return scale


def content(values) -> int:
    """gcd of the integers ``values``; the scan stops once it reaches 1."""
    g = 0
    for v in values:
        g = math.gcd(g, v)
        if g == 1:
            break
    return g


def integer_form(d: dict) -> tuple[dict, int]:
    """A packed dict with rational coefficients as (ints, den), d = ints/den."""
    den = math.lcm(*(c.denominator for c in d.values()))
    return {m: c.numerator * (den // c.denominator) for m, c in d.items()}, den


def primitive(d: dict) -> dict:
    """A nonzero integer dict divided by its content, signed so that the
    coefficient at its largest key is positive; returned as it is when it
    is already so."""
    c = content(d.values())
    if d[max(d)] < 0:
        c = -c
    return d if c == 1 else {m: v // c for m, v in d.items()}


def mul(d1: dict, d2: dict) -> dict:
    """Product of packed polynomials (monomial product = integer add).

    Term products are summed without a test per term; the zeros that
    cancellation leaves are dropped once at the end, and only a signed
    product can leave one.
    """
    if len(d1) > len(d2):
        d1, d2 = d2, d1
    out: dict = {}
    get = out.get
    for m1, a in d1.items():
        for m2, c in d2.items():
            m = m1 + m2
            out[m] = get(m, 0) + a * c
    if not all(out.values()):
        out = {m: c for m, c in out.items() if c}
    return out


class Basis:
    """Parallel arrays: leading monomial and member.  Each member is stored
    primitive, with a positive lead, whatever multiple of it is added; its
    lead coefficient is polys[i][lts[i]].  ``add`` appends a member and
    reads its lead off it as max(d); ``insert`` places one at pos with the
    lead its caller already holds."""

    __slots__ = ("lts", "polys")

    def __init__(self):
        self.lts: list[int] = []
        self.polys: list[dict] = []

    def insert(self, pos: int, d: dict, lt: int) -> None:
        self.lts.insert(pos, lt)
        self.polys.insert(pos, primitive(d))

    def add(self, d: dict) -> None:
        self.insert(len(self.lts), d, max(d))

    def __len__(self):
        return len(self.lts)


def ring_for(variables: set[Var]) -> Ring:
    return Ring(sorted(variables, key=var_rank, reverse=True))
