"""Linear reduction against canonical sequences, and the crgist check.

A canonical sequence is a list of linearly independent homogeneous
polynomials sorted by strictly increasing leading term.  ``reduce``
rewrites a polynomial against such a sequence in a single sweep from
the largest leading term down; ``canonize`` turns any spanning set
into a canonical sequence.  Both track quotients so that

    F = C . q + R        and        C = B . Q

hold exactly, which is what ``crgist`` uses to assemble a gist.

Both are fraction-free, and the quotients ride along as tags, as in the
augmented matrix [B | I] of fraction-free elimination: the negative key
~k stands for input k and sorts below every monomial, so the steps that
cancel monomials also carry the quotients, and no step needs a
rational.  ``reduce`` sweeps packed dicts with integer coefficients and
follows the single-sweep loop structure faithfully, loop count
included, rather than any shortcut through Gaussian elimination.
``canonize`` takes each input through the same step, ``_packed.cancel``,
against the members so far; the work dict is never made dense.

``canonical_system`` canonizes the specialized basis of one (mu, delta,
kind) once per process and shares the result with every later input;
that in-process memo is the only cache, and nothing is read from or
written to disk.  Every specialized member is fixed by S_mu, so the
second crgist reduce on a system records the members restricted to
orbit representatives, and every later one sweeps F's representative
terms against those, then checks that F is S_mu-invariant
(``_OrbitView``, on ``symfun._Orbits``).  Where the orbits compress
the degree (``symfun.orbit_rule``), the system is canonized from
members built at representatives only (``symfun.orbit_basis``): the
restriction is injective on S_mu-invariant polynomials, every lead is
a representative and each step reads only lead entries, so the leads,
the restricted members, their tags and the rank are the full
canonize's.  Its first reduce records the view, and ``sequence``
expands each member over its orbits.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Sequence

from . import symfun
from ._packed import Basis, cancel, ring_for, submul
from .gistresult import GistResult
from .polys import Polynomial, leading, rat


@dataclass(frozen=True)
class ReduceResult:
    remainder: Polynomial
    coeffs: tuple          # coefficient taken of each sequence member
    loops: int             # iterations of the reduction sweep


@dataclass(frozen=True)
class CanonizeResult:
    sequence: list[Polynomial]
    qmatrix: list[list]    # len(input) x len(sequence); C = B . Q


def _quotients(seq: Basis, n: int) -> list[list]:
    """Q of C = B . Q over n inputs: each member's tags over its lowest."""
    lows = [d[min(d)] for d in seq.polys]
    return [[rat(d.get(~k, 0), low) for d, low in zip(seq.polys, lows)] for k in range(n)]


def _reduce_packed(work: dict, seq: Basis, den: int):
    """The reduction sweep on packed integer dicts, fraction-free.

    The dict reduced is work/den, and the members of seq are primitive
    integer dicts with positive leads; tags may ride along in both.
    Terms of the work polynomial above the current sequence member move
    to the remainder; a matching leading term triggers one cancellation;
    otherwise the sweep advances down the sequence.  Each member is used
    at most once, and the sweep stops once only tags remain.  To cancel
    a coefficient a against a lead lc, the work dict, the remainder and
    den are first scaled by lc/gcd(a, lc), so that the multiple of the
    member subtracted is an integer; nothing is divided out mid-sweep.
    The largest key of ``work`` comes from a lazy max-heap that may hold
    monomials already cancelled.  Returns (remainder, den, loops):
    remainder/den, tags included, is what is left of work/den.
    """
    remainder: dict = {}
    heap = [-m for m in work]
    heapq.heapify(heap)
    i = len(seq)
    loops = 0
    while work and i > 0:
        while -heap[0] not in work:
            heapq.heappop(heap)
        t = -heap[0]
        if t < 0:
            break
        loops += 1
        lt_i = seq.lts[i - 1]
        if t > lt_i:
            heapq.heappop(heap)
            remainder[t] = work.pop(t)
        else:
            if t == lt_i:
                heapq.heappop(heap)
                den *= cancel(work, t, work.pop(t), lt_i, seq.polys[i - 1], heap, remainder)
            i -= 1
    remainder.update(work)
    return remainder, den, loops


def reduce(F: Polynomial, C: Sequence[Polynomial]) -> ReduceResult:
    """Reduce F against a canonical sequence C.

    Returns R with F = sum(coeffs[i] * C[i]) + R and no leading term of
    C in the support of R.
    """
    ring = ring_for(set(F.variables()).union(*(c.variables() for c in C)))
    (work, den), *members = [ring.densify(p) for p in (F, *C)]
    seq = Basis()
    for k, (member, member_den) in enumerate(members):
        member[~k] = member_den
        seq.add(member)
    remainder, den, loops = _reduce_packed(work, seq, den)
    coeffs = tuple(rat(-remainder.pop(~k, 0), den) for k in range(len(C)))
    return ReduceResult(ring.undensify(remainder, den), coeffs, loops)


def canonize(B: Sequence[Polynomial]) -> CanonizeResult:
    """Build a canonical sequence spanning the same space as B.

    Members of B are consumed in the given order; each is reduced
    against the sequence so far and inserted (by binary search on its
    leading term) when nonzero.  The quotient matrix expresses the
    output in terms of the input.
    """
    ring = ring_for(set().union(*(b.variables() for b in B)))
    forms = [ring.densify(b) for b in B]
    seq = _canonize_packed([d for d, _ in forms], [den for _, den in forms])
    return CanonizeResult([ring.undensify(d, d[min(d)]) for d in seq.polys], _quotients(seq, len(B)))


def _canonize_packed(B: Sequence[dict], dens: Sequence[int] | None = None) -> Basis:
    """canonize on packed integer dicts, which are left unchanged.

    Input member idx is B[idx]/dens[idx] (dens default to 1); it enters
    the sweep tagged ~idx with its own den.  Each stored member is
    primitive over its monomials and tags, with a positive lead.  Its
    lowest tag is that of its own input, since later inputs never feed
    earlier members; over that tag, its monomials are the canonical
    member and its tags the member's column of Q.

    An input is taken against the members from the largest lead down,
    and each nonzero entry at a member's lead is one ``cancel``, the
    step of ``reduce``'s sweep.  What is left is zero at every member's
    lead, and it is the one element of input + span(seq) with that
    property, so its primitive form is the member the sweep of
    ``reduce`` would make.
    """
    seq = Basis()
    for idx, b in enumerate(B):
        work = {**b, ~idx: dens[idx] if dens else 1}
        for lt, member in zip(reversed(seq.lts), reversed(seq.polys)):
            a = work.pop(lt, None)
            if a:
                cancel(work, lt, a, lt, member, None, {})
        lt = max(work)
        if lt >= 0:
            seq.insert(bisect_left(seq.lts, lt), work, lt)
    return seq


# -- nondeterministic reduction -----------------------------------------

StepChooser = Callable[[Polynomial, Sequence[Polynomial], list[int]], int]


def greedy_chooser(F, C, applicable):
    """Pick the member whose leading term is largest."""
    return applicable[-1]


def adversarial_chooser(F, C, applicable):
    """Pick the lowest-index applicable member; worst case on chained
    sequences, where it forces exponentially many steps."""
    return applicable[0]


def random_chooser(rng) -> StepChooser:
    def choose(F, C, applicable):
        return rng.choice(applicable)

    return choose


def nreduce(
    F: Polynomial,
    C: Sequence[Polynomial],
    chooser: StepChooser = greedy_chooser,
) -> tuple[Polynomial, int]:
    """Apply proper single-term reduction steps until none applies.

    Each step subtracts (coef(F, lt(C_i)) / lco(C_i)) * C_i for a
    member whose leading term occurs in F, chosen by ``chooser``.  For
    a canonical sequence the result equals ``reduce`` regardless of the
    choices; only the step count varies.  Returns (remainder, steps).
    """
    lts = [leading(c) for c in C]
    steps = 0
    while True:
        support = F.support()
        applicable = [i for i, (lt, _) in enumerate(lts) if lt in support]
        if not applicable:
            return F, steps
        i = chooser(F, C, applicable)
        lt_i, lc_i = lts[i]
        F = F - (F.coeff(lt_i) / lc_i) * C[i]
        steps += 1


# -- canonical systems with memoization ----------------------------------


class _OrbitView:
    """The members of a canonical system restricted to S_mu-orbit
    representatives, which a reduce after the second sweeps instead.

    Every specialized member is S_mu-invariant, so it is fixed by its
    coefficients at the degree's representatives in mu's orbit tables,
    ``tables``; every lead is one.  ``members`` lists, from the largest
    lead down, each member's lead, its terms at representatives with
    their full coefficients, and its tags.
    """

    __slots__ = ("members", "tables", "delta")

    def __init__(self, dense: Basis, tables: symfun._Orbits, delta: int):
        self.tables, self.delta = tables, delta
        self.members = [
            (lt, self.restrict(d), {m: c for m, c in d.items() if m < 0})
            for lt, d in zip(reversed(dense.lts), reversed(dense.polys))
        ]

    def restrict(self, work: dict) -> dict:
        """work's terms at representatives."""
        reps = self.tables.representatives(self.delta)
        return {m: c for m, c in work.items() if m in reps}

    def decide(self, work: dict, den: int) -> tuple[dict, int] | None:
        """The tags and den ``_reduce_packed`` leaves when work/den is in
        the members' span, else None; work is left unchanged.

        One ``cancel`` at each lead that ``restrict(work)`` holds, from
        the largest down, each step recorded.  On an invariant work the
        steps are the full sweep's, as restriction is injective on
        invariant polynomials; so work is in the span exactly when
        nothing is left and work is S_mu-invariant (``tables.invariant``),
        checked after the sweep.  The tags are summed from the steps only
        then.
        """
        rep = self.restrict(work)
        steps = []
        for lt, poly, tags in self.members:
            a = rep.pop(lt, None)
            if a:
                scale = cancel(rep, lt, a, lt, poly, None, {})
                steps.append((tags, a * scale // poly[lt], scale))
                if not rep:
                    break
        if rep or not self.tables.invariant(work, self.delta):
            return None
        out: dict = {}
        factor = 1  # the scales of the steps after this one
        for tags, q, scale in reversed(steps):
            submul(out, q * factor, 0, tags)
            factor *= scale
        return out, den * factor


@dataclass
class CanonicalSystem:
    """Canonize output for one (mu, delta, kind), reusable across inputs.

    ``dense`` holds the canonical sequence packed in the root ring
    ``symfun._root_ring(mu.m)`` as ``_canonize_packed`` leaves it:
    primitive integer dicts with positive leads, where the tag ~k stands
    for basis element k.  With ``at_reps`` its members hold only their
    terms at S_mu-orbit representatives (``symfun.orbit_basis``).
    ``sequence`` and ``qmatrix`` are derived from it on first read, the
    sequence expanded over the orbits.  The first reduce records
    ``swaps``, the generators of S_mu (see ``_OrbitView``); the second,
    or with ``at_reps`` the first, records ``view`` when there are any,
    and every later reduce sweeps it.
    """

    mu: symfun.Partition
    delta: int
    kind: str
    alphas: list[tuple[int, ...]]
    dense: Basis
    at_reps: bool = False
    swaps: list[int] | None = None
    view: _OrbitView | None = None

    @cached_property
    def sequence(self) -> list[Polynomial]:
        ring = symfun._root_ring(self.mu.m)
        tables = symfun.orbit_tables(self.mu) if self.at_reps else None
        return [ring.undensify(tables.expand(d) if tables else d, d[min(d)]) for d in self.dense.polys]

    @cached_property
    def qmatrix(self) -> list[list]:
        return _quotients(self.dense, len(self.alphas))


@lru_cache(maxsize=None)
def _canonical_system(mu: symfun.Partition, delta: int, kind: str) -> CanonicalSystem:
    alphas, basis, at_reps = symfun.system_basis(kind, delta, mu)
    return CanonicalSystem(mu, delta, kind, alphas, _canonize_packed(basis), at_reps)


def canonical_system(mu: symfun.Partition, delta: int, kind: str = "e") -> CanonicalSystem:
    """Canonical sequence and quotients for the specialized degree-delta
    basis of the given kind, memoized in process: the first call for a
    (mu, delta, kind) canonizes, later calls share its result.
    ``clear_memo()`` empties the memo."""
    return _canonical_system(mu, delta, kind)


def clear_memo() -> None:
    """Empty the canonical systems and the orbit tables they are built on."""
    _canonical_system.cache_clear()
    symfun._orbit_tables.clear()


# -- the canonize+reduce gist algorithm ----------------------------------


def crgist(F: Polynomial, mu: symfun.Partition, kind: str = "e") -> GistResult:
    """Check mu-symmetry of each homogeneous part of F by reduction.

    Canonize the specialized basis for the part's degree, reduce the part
    against it; a zero remainder means it lies in the span, and the tags
    left over, negated and over den, are the gist's coefficients on it.
    """
    return GistResult.from_parts(F, mu, kind, _crgist_part)


def _crgist_part(delta: int, work: dict, den: int, mu: symfun.Partition, kind: str) -> GistResult:
    system = canonical_system(mu, delta, kind)
    first = system.swaps is None
    if first:
        system.swaps = symfun.orbit_tables(mu).swaps
    if system.view is None and system.swaps and (system.at_reps or not first):
        system.view = _OrbitView(system.dense, symfun.orbit_tables(mu), delta)
    if system.view is None:
        remainder, den, _ = _reduce_packed(work, system.dense, den)
        if max(remainder) >= 0:
            return GistResult.not_symmetric(mu, kind)
    else:
        decided = system.view.decide(work, den)
        if decided is None:
            return GistResult.not_symmetric(mu, kind)
        remainder, den = decided
    tags = sorted(remainder, reverse=True)  # ~k for the basis indices k, ascending
    return GistResult.from_coeffs(mu, kind, [system.alphas[~t] for t in tags], [rat(-remainder[t], den) for t in tags])
