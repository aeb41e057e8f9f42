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
import os
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from . import symfun
from ._packed import Basis, ring_for, submul
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


def _reduce_packed(work: dict, seq: Basis):
    """The reduction sweep on packed dicts.

    Terms of the work polynomial above the current sequence member move
    to the remainder; a matching leading term triggers one cancellation;
    otherwise the sweep advances down the sequence.  Each member is used
    at most once.  The largest term of ``work`` comes from a lazy
    max-heap that may hold monomials already cancelled.  Returns
    (remainder, coeffs, loops).
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
                q = work.pop(t) / seq.lcs[i - 1]
                coeffs[i - 1] = q
                submul(work, q, 0, seq.polys[i - 1], heap, skip=t)
            i -= 1
    remainder.update(work)
    return remainder, coeffs, loops


def reduce(F: Polynomial, C: Sequence[Polynomial], order: TermOrder = ORDER_R) -> ReduceResult:
    """Reduce F against a canonical sequence C.

    Returns R with F = sum(coeffs[i] * C[i]) + R and no leading term of
    C in the support of R.
    """
    all_vars = set(F.variables()).union(*(c.variables() for c in C)) if C else set(F.variables())
    ring = ring_for(all_vars, order)
    seq = Basis()
    for c in C:
        seq.add(ring.densify(c))
    remainder, coeffs, loops = _reduce_packed(ring.densify(F), seq)
    return ReduceResult(ring.undensify(remainder), tuple(coeffs), loops)


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
    seq, qmatrix = _canonize_packed([ring.densify(b) for b in B])
    return CanonizeResult([ring.undensify(d) for d in seq.polys], qmatrix)


def _canonize_packed(B: Sequence[dict]) -> tuple[Basis, list[list]]:
    """canonize on packed dicts, which are left unchanged: (sequence,
    qmatrix)."""
    seq = Basis()
    combos: list[dict] = []     # expression of each member over B: index -> coeff
    for idx, b in enumerate(B):
        remainder, coeffs, _ = _reduce_packed(dict(b), seq)
        if not remainder:
            continue
        combo = {idx: rat(1)}
        for j, c in enumerate(coeffs):
            if c != 0:
                submul(combo, c, 0, combos[j])
        lt = max(remainder)
        pos = bisect_left(seq.lts, lt)
        seq.insert(pos, remainder, lt)
        combos.insert(pos, combo)
    qmatrix = [[combo.get(i, rat(0)) for combo in combos] for i in range(len(B))]
    return seq, qmatrix


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
    ``symfun._root_ring(mu.m)``.
    """

    mu: symfun.Partition
    delta: int
    kind: str
    alphas: list[tuple[int, ...]]
    dense: Basis
    qmatrix: list[list]

    @property
    def sequence(self) -> list[Polynomial]:
        ring = symfun._root_ring(self.mu.m)
        return [ring.undensify(d) for d in self.dense.polys]


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
    dense = Basis()
    for obj in payload["sequence"]:
        dense.add(ring.densify(poly_from_obj(obj)))
    return CanonicalSystem(
        mu,
        delta,
        kind,
        [tuple(a) for a in payload["alphas"]],
        dense,
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
    remainder, reduced, _ = _reduce_packed(symfun._root_ring(mu.m).densify(F), system.dense)
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
