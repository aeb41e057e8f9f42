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
``canonize`` runs its sweep on dense int rows, one column per monomial
and one per tag; what each input leaves is unique, so the sequence is
the one the dict sweep would build.

``canonical_system`` canonizes the specialized basis of one (mu, delta,
kind) once per process and shares the result with every later input;
that in-process memo is the only cache, and nothing is read from or
written to disk.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress
from typing import Callable, Sequence

from . import symfun
from ._packed import Basis, cancel, ring_for
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
                den *= cancel(work, t, seq, i - 1, heap, remainder)
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

    The sweep runs on dense int rows with one column per key, every
    monomial of B descending and then the tags ~0, ~1, ...  An input is
    taken against the members from the largest lead down: where its
    entry a at a member's lead column is nonzero, the row is scaled by
    lc/gcd(a, lc) and a/gcd(a, lc) times the member is subtracted; left
    of that lead the member is zero, so only the scaling reaches those
    columns (Bareiss, Math. Comp. 22, 1968).  What is left is zero at
    every member's lead, and it is the one element of input + span(seq)
    with that property, so its primitive form is the member the dict
    sweep of ``reduce`` would make.  A row is made only at the first
    cancellation that needs it, so an input that meets no lead costs no
    more than a dict copy.
    """
    keys = sorted(set().union(*B), reverse=True) + [~k for k in range(len(B))]
    column = {key: c for c, key in enumerate(keys)}

    def dense(d: dict) -> list[int]:
        row = [0] * len(keys)
        for key, v in d.items():
            row[column[key]] = v
        return row

    seq = Basis()
    rows: list = []  # the dense row of each member of seq, made when first needed
    for idx, b in enumerate(B):
        work = dict(b)
        work[~idx] = dens[idx] if dens else 1
        row = None
        for j in range(len(seq) - 1, -1, -1):
            lt = seq.lts[j]
            a = work.get(lt) if row is None else row[column[lt]]
            if not a:
                continue
            if row is None:
                row = dense(work)
            if rows[j] is None:
                rows[j] = dense(seq.polys[j])
            member, p = rows[j], column[lt]
            g = math.gcd(a, member[p])
            scale, q = member[p] // g, a // g
            if scale != 1:
                row[:p] = [scale * x for x in row[:p]]
            row[p:] = [scale * x - q * y for x, y in zip(row[p:], member[p:])]
        if row is not None:
            work = dict(compress(zip(keys, row), row))
        lt = max(work)
        if lt >= 0:
            pos = bisect_left(seq.lts, lt)
            seq.insert(pos, work, lt)
            rows.insert(pos, None)
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


@dataclass(frozen=True)
class CanonicalSystem:
    """Canonize output for one (mu, delta, kind), reusable across inputs.

    ``dense`` holds the canonical sequence packed in the root ring
    ``symfun._root_ring(mu.m)`` as ``_canonize_packed`` leaves it:
    primitive integer dicts with positive leads, where the tag ~k stands
    for basis element k.  ``sequence`` and ``qmatrix`` are derived from
    it on first read.
    """

    mu: symfun.Partition
    delta: int
    kind: str
    alphas: list[tuple[int, ...]]
    dense: Basis

    @cached_property
    def sequence(self) -> list[Polynomial]:
        ring = symfun._root_ring(self.mu.m)
        return [ring.undensify(d, d[min(d)]) for d in self.dense.polys]

    @cached_property
    def qmatrix(self) -> list[list]:
        return _quotients(self.dense, len(self.alphas))


@lru_cache(maxsize=None)
def _canonical_system(mu: symfun.Partition, delta: int, kind: str) -> CanonicalSystem:
    alphas, basis = symfun.spec_basis(kind, delta, mu)
    return CanonicalSystem(mu, delta, kind, alphas, _canonize_packed(basis))


def canonical_system(mu: symfun.Partition, delta: int, kind: str = "e") -> CanonicalSystem:
    """Canonical sequence and quotients for the specialized degree-delta
    basis of the given kind, memoized in process: the first call for a
    (mu, delta, kind) canonizes, later calls share its result.
    ``clear_memo()`` empties the memo."""
    return _canonical_system(mu, delta, kind)


def clear_memo() -> None:
    _canonical_system.cache_clear()


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
    remainder, den, _ = _reduce_packed(work, system.dense, den)
    if max(remainder) >= 0:
        return GistResult.not_symmetric(mu, kind)
    coeffs = [rat(-remainder.get(~k, 0), den) for k in range(len(system.alphas))]
    return GistResult.from_coeffs(mu, kind, system.alphas, coeffs)
