"""Linear reduction against canonical sequences, and the crgist check.

A canonical sequence is a list of linearly independent homogeneous
polynomials sorted by strictly increasing leading term.  ``reduce``
rewrites a polynomial against such a sequence in a single sweep from
the largest leading term down; ``canonize`` turns any spanning set
into a canonical sequence.  Both can track quotients so that

    F = C . q + R        and        C = B . Q

hold exactly, which is what ``crgist`` uses to assemble a gist.

``reduce`` follows the single-sweep loop structure faithfully, loop
count included, rather than any shortcut through Gaussian elimination.
"""

from __future__ import annotations

import heapq
import json
import math
import os
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Callable, Sequence

from . import symfun
from ._packed import Basis, content, ring_for, submul
from .gistresult import GistResult
from .polys import (
    ORDER_R,
    Polynomial,
    TermOrder,
    is_homogeneous,
    leading,
    poly_from_obj,
    poly_to_obj,
    rat,
    rat_from_str,
)


@dataclass(frozen=True)
class ReduceResult:
    remainder: Polynomial
    coeffs: tuple          # coefficient taken of each sequence member
    loops: int             # iterations of the reduction sweep


@dataclass(frozen=True)
class CanonizeResult:
    sequence: list[Polynomial]
    qmatrix: list[list]    # len(input) x len(sequence); C = B . Q


def _integer_form(d: dict) -> tuple[dict, int]:
    """A packed dict with rational coefficients as (ints, den), d = ints/den."""
    den = math.lcm(*(int(c.denominator) for c in d.values()))
    return {m: int(c.numerator) * (den // int(c.denominator)) for m, c in d.items()}, den


def _primitive(d: dict, den: int, lt: int) -> tuple[dict, object]:
    """d/den, with d an integer dict led by lt, as (P, s): P has content 1
    and a positive lead, and d/den = s*P.  A primitive d with a positive
    lead is returned as it is."""
    c = content(d.values())
    if d[lt] < 0:
        c = -c
    if c != 1:
        d = {m: v // c for m, v in d.items()}
    return d, rat(c, den)


def _unpack(ring, d: dict, scale) -> Polynomial:
    """The Polynomial scale * d."""
    return ring.undensify({m: c * scale for m, c in d.items()})


def _add_member(seq: Basis, scales: list, d: dict) -> None:
    """Append the rational packed dict d to a sequence in integer form."""
    ints, den = _integer_form(d)
    lt = max(ints)
    p, s = _primitive(ints, den, lt)
    seq.add(p, lt)
    scales.append(s)


def _reduce_packed(work: dict, seq: Basis, scales: list, den: int):
    """The reduction sweep on packed integer dicts, fraction-free.

    The polynomial reduced is work/den, and sequence member i is
    scales[i] * seq.polys[i], stored primitive with a positive lead.
    Terms of the work polynomial above the current sequence member move
    to the remainder; a matching leading term triggers one cancellation;
    otherwise the sweep advances down the sequence.  Each member is used
    at most once.  To cancel a coefficient a against a lead lc, the work
    dict, the remainder and den are first scaled by lc/gcd(a, lc), so that
    the multiple of the member subtracted is an integer; the common
    content of the three is then stripped.  The largest term of ``work``
    comes from a lazy max-heap that may hold monomials already
    cancelled.  Returns (remainder, den, coeffs, loops): the remainder
    is remainder/den, and coeffs[i] is the exact rational taken of
    member i.
    """
    remainder: dict = {}
    coeffs = [rat(0)] * len(seq)
    heap = [-m for m in work]
    heapq.heapify(heap)
    i = len(seq)
    loops = 0
    while work and i > 0:
        loops += 1
        while -heap[0] not in work:
            heapq.heappop(heap)
        t = -heap[0]
        lt_i = seq.lts[i - 1]
        if t > lt_i:
            heapq.heappop(heap)
            remainder[t] = work.pop(t)
        else:
            if t == lt_i:
                heapq.heappop(heap)
                a = work.pop(t)
                lc = seq.lcs[i - 1]
                g = math.gcd(a, lc)
                scale = lc // g
                if scale != 1:
                    for part in (work, remainder):
                        for m in part:
                            part[m] *= scale
                    den *= scale
                coeffs[i - 1] = rat(a // g, den) / scales[i - 1]
                submul(work, a // g, 0, seq.polys[i - 1], heap, skip=t)
                if scale != 1:
                    g = content(chain((den,), work.values(), remainder.values()))
                    if g != 1:
                        for part in (work, remainder):
                            for m in part:
                                part[m] //= g
                        den //= g
            i -= 1
    remainder.update(work)
    return remainder, den, coeffs, loops


def reduce(F: Polynomial, C: Sequence[Polynomial], order: TermOrder = ORDER_R) -> ReduceResult:
    """Reduce F against a canonical sequence C.

    Returns R with F = sum(coeffs[i] * C[i]) + R and no leading term of
    C in the support of R.
    """
    all_vars = set(F.variables()).union(*(c.variables() for c in C)) if C else set(F.variables())
    ring = ring_for(all_vars, order)
    seq, scales = Basis(), []
    for c in C:
        _add_member(seq, scales, ring.densify(c))
    work, den = _integer_form(ring.densify(F))
    remainder, den, coeffs, loops = _reduce_packed(work, seq, scales, den)
    return ReduceResult(_unpack(ring, remainder, rat(1, den)), tuple(coeffs), loops)


def is_canonical(C: Sequence[Polynomial], order: TermOrder = ORDER_R) -> bool:
    """Strictly increasing leading terms (independence follows)."""
    keys = [order.key(leading(c, order)[0]) for c in C if not c.is_zero]
    if len(keys) != len(C):
        return False
    return all(keys[i] < keys[i + 1] for i in range(len(keys) - 1))


def canonize(B: Sequence[Polynomial], order: TermOrder = ORDER_R) -> CanonizeResult:
    """Build a canonical sequence spanning the same space as B.

    Members of B are consumed in the given order; each is reduced
    against the sequence so far and inserted (by binary search on its
    leading term) when nonzero.  The quotient matrix expresses the
    output in terms of the input.
    """
    ring = ring_for(set().union(*(b.variables() for b in B)), order)
    forms = [_integer_form(ring.densify(b)) for b in B]
    seq, scales, qmatrix = _canonize_packed([d for d, _ in forms], [den for _, den in forms])
    return CanonizeResult([_unpack(ring, d, s) for d, s in zip(seq.polys, scales)], qmatrix)


def _canonize_packed(
    B: Sequence[dict], dens: Sequence[int] | None = None
) -> tuple[Basis, list, list[list]]:
    """canonize on packed integer dicts, which are left unchanged.

    Input member idx is B[idx]/dens[idx] (dens default to 1).  Returns
    (sequence, scales, qmatrix), where the canonical member i is
    scales[i] * sequence.polys[i].
    """
    seq = Basis()
    scales: list = []
    combos: list[dict] = []     # expression of each member over B: index -> coeff
    for idx, b in enumerate(B):
        remainder, den, coeffs, _ = _reduce_packed(dict(b), seq, scales, dens[idx] if dens else 1)
        if not remainder:
            continue
        combo = {idx: rat(1)}
        for j, c in enumerate(coeffs):
            if c != 0:
                submul(combo, c, 0, combos[j])
        lt = max(remainder)
        remainder, s = _primitive(remainder, den, lt)
        pos = bisect_left(seq.lts, lt)
        seq.insert(pos, remainder, lt)
        scales.insert(pos, s)
        combos.insert(pos, combo)
    zero = rat(0)
    qmatrix = [[combo.get(i, zero) for combo in combos] for i in range(len(B))]
    return seq, scales, qmatrix


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
    order: TermOrder = ORDER_R,
) -> tuple[Polynomial, int]:
    """Apply proper single-term reduction steps until none applies.

    Each step subtracts (coef(F, lt(C_i)) / lco(C_i)) * C_i for a
    member whose leading term occurs in F, chosen by ``chooser``.  For
    a canonical sequence the result equals ``reduce`` regardless of the
    choices; only the step count varies.  Returns (remainder, steps).
    """
    lts = [leading(c, order) for c in C]
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
    ``symfun._root_ring(mu.m)`` as primitive integer dicts with positive
    leads; member i is scales[i] * dense.polys[i].
    """

    mu: symfun.Partition
    delta: int
    kind: str
    alphas: list[tuple[int, ...]]
    dense: Basis
    scales: list
    qmatrix: list[list]

    @property
    def sequence(self) -> list[Polynomial]:
        ring = symfun._root_ring(self.mu.m)
        return [_unpack(ring, d, s) for d, s in zip(self.dense.polys, self.scales)]


def _cache_path(mu: symfun.Partition, delta: int, kind: str) -> str | None:
    root = os.environ.get("MUSYM_CACHE_DIR")
    if not root:
        return None
    name = f"canonize_{kind}_{'-'.join(str(p) for p in mu.parts)}_d{delta}.json"
    return os.path.join(root, name)


@lru_cache(maxsize=None)
def _canonical_system(mu: symfun.Partition, delta: int, kind: str) -> CanonicalSystem:
    path = _cache_path(mu, delta, kind)
    if path and os.path.exists(path):
        return _load_system(path, mu, delta, kind)
    alphas, basis = symfun.spec_basis(kind, delta, mu)
    system = CanonicalSystem(mu, delta, kind, alphas, *_canonize_packed(basis))
    if path:
        _store_system(path, system)
    return system


def canonical_system(mu: symfun.Partition, delta: int, kind: str = "e") -> CanonicalSystem:
    """Canonical sequence and quotients for the specialized degree-delta
    basis of the given kind, memoized in process and, when
    MUSYM_CACHE_DIR is set, on disk.  ``cache_info()`` reports on the
    in-process memo and ``clear_memo()`` empties it."""
    return _canonical_system(mu, delta, kind)


canonical_system.cache_info = _canonical_system.cache_info


def clear_memo() -> None:
    _canonical_system.cache_clear()


def _store_system(path: str, system: CanonicalSystem) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    payload = {
        "mu": list(system.mu.parts),
        "delta": system.delta,
        "kind": system.kind,
        "alphas": [list(a) for a in system.alphas],
        "sequence": [poly_to_obj(p) for p in system.sequence],
        "qmatrix": [[str(q) for q in row] for row in system.qmatrix],
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def _load_system(path: str, mu: symfun.Partition, delta: int, kind: str) -> CanonicalSystem:
    with open(path) as fh:
        payload = json.load(fh)
    ring = symfun._root_ring(mu.m)
    dense, scales = Basis(), []
    for obj in payload["sequence"]:
        _add_member(dense, scales, ring.densify(poly_from_obj(obj)))
    return CanonicalSystem(
        mu,
        delta,
        kind,
        [tuple(a) for a in payload["alphas"]],
        dense,
        scales,
        [[rat_from_str(q) for q in row] for row in payload["qmatrix"]],
    )


# -- the canonize+reduce gist algorithm ----------------------------------


def crgist(F: Polynomial, mu: symfun.Partition, kind: str = "e") -> GistResult:
    """Check mu-symmetry of a homogeneous F by reduction.

    Canonize the specialized basis for deg(F), reduce F against it; a
    zero remainder means F lies in the span and the tracked quotients
    assemble the gist as Z . Q . q.
    """
    symfun.check_root_input(F, mu)
    if F.is_constant:
        return GistResult.constant(mu, kind, F)
    if not is_homogeneous(F):
        raise ValueError("crgist expects a homogeneous polynomial")
    system = canonical_system(mu, F.total_degree(), kind)
    work, den = _integer_form(symfun._root_ring(mu.m).densify(F))
    remainder, _, reduced, _ = _reduce_packed(work, system.dense, system.scales, den)
    if remainder:
        return GistResult.not_symmetric(mu, kind)
    coeffs = []
    for row in system.qmatrix:
        total = rat(0)
        for q, c in zip(row, reduced):
            if q != 0 and c != 0:
                total += q * c
        coeffs.append(total)
    return GistResult.from_coeffs(mu, kind, system.alphas, coeffs)
