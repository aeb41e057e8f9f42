"""Fraction-free Buchberger engine and the elimination route to gists.

The mu-ideal <z_1 - g_1, ..., z_n - g_n> (g_i the specialized
generators) is processed in the term order of ``polys``, which ranks
any term containing an r variable above every r-free term.  Any
Groebner basis of this ideal then decides everything at once: its
r-free members generate the ideal of relations among the g_i, and the
normal form of F(r), which is the same modulo every Groebner basis, is
r-free exactly when F is mu-symmetric, in which case it is a gist of
minimal weighted degree.

The generators are homogeneous for the weighting that gives z_i weight
i and every r variable weight 1, and pairs are selected by the weighted
degree of their lcm.  New pairs never fall below the degree currently
being processed, so the computation is graded: once every pair of
degree <= d has been treated, the basis is complete for all inputs of
weighted degree <= d.  Normal forms of such inputs are therefore taken
against the engine's own primitive integer basis once it has been
extended at least that far; computing relations of unbounded degree
runs the engine to exhaustion.  The reduced, monic basis is built only
when a caller reads it.

The engine never divides.  Its members are primitive integer dicts with
positive leads; S-polynomials are taken times lcm(lc_i, lc_j), and a
reduction step scales what it reduces by lc/gcd(a, lc) before it
subtracts an integer multiple of a member, as the reduce sweep of
``reduction`` does (Bareiss, Math. Comp. 22, 1968).  Each S-polynomial
is reduced fully, every term and not only the lead, before it joins the
basis (Cox, Little and O'Shea, Ideals, Varieties, and Algorithms, 2.7),
so no member has a term that the lead of an earlier member divides.
Rationals appear only in what is handed out: normal forms,
S-polynomials and the reduced basis.

The seeds z_i - g_i are packed straight from ``symfun._spec_products``.
A verdict's normal form stops at its first irreducible root term, which
already shows that F is not mu-symmetric.
"""

from __future__ import annotations

import heapq
import math
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import symfun
from ._packed import FIELD, Basis, Ring, cancel, primitive, ring_for, submul
from .gistresult import GistResult
from .polys import Polynomial, rat


def _find_reducer(t: int, basis: Basis, guard: int, skip: int = -1) -> int:
    for idx, lt in enumerate(basis.lts):
        if idx != skip and lt <= t and not (t - lt) & guard:
            return idx
    return -1


def _full_reduce(f: dict, basis: Basis, guard: int, skip: int = -1, stop: int | None = None) -> tuple[dict, int]:
    """Full normal form of the integer dict f: no remaining term divisible
    by a basis lead.  Returns (out, den), the normal form being out/den.

    With ``stop``, the reduction ends at the first irreducible term at or
    above it, which is then the one key of out: terms leave work largest
    first, so that term is in the full normal form too."""
    work = dict(f)
    out: dict = {}
    den = 1
    heap = [-m for m in work]
    heapq.heapify(heap)
    while heap:
        t = -heapq.heappop(heap)
        if t not in work:
            continue
        idx = _find_reducer(t, basis, guard, skip)
        if idx < 0:
            out[t] = work.pop(t)
            if stop is not None and t >= stop:
                break
        else:
            den *= cancel(work, t, basis, idx, heap, out)
    return out, den


def _spoly(i: int, j: int, lcm: int, basis: Basis) -> dict:
    """lcm(lc_i, lc_j) times the S-polynomial of basis[i] and basis[j]."""
    lc_i, lc_j = basis.polys[i][basis.lts[i]], basis.polys[j][basis.lts[j]]
    scale = math.lcm(lc_i, lc_j)
    out: dict = {}
    submul(out, -(scale // lc_i), lcm - basis.lts[i], basis.polys[i], skip=basis.lts[i])
    submul(out, scale // lc_j, lcm - basis.lts[j], basis.polys[j], skip=basis.lts[j])
    return out


class _GradedEngine:
    """Buchberger state that can be advanced degree by degree.

    Pairs are selected by ascending weighted degree of their lcm with a
    deterministic index tie-break.  Since a new element born at degree d
    only creates pairs of degree >= d, stopping once every pending pair
    exceeds a bound leaves a basis that is complete for all inputs up to
    that degree.
    """

    def __init__(self, gens: list[dict], ring: Ring):
        self.ring = ring
        self.guard = ring.guard_mask
        self.basis = Basis()
        self.pairs: dict[tuple[int, int], int] = {}
        self.heap: list = []
        self.lock = threading.Lock()  # cached engines may be shared
        for d in gens:
            if d:
                self.basis.add(d)
                self._update(len(self.basis) - 1)

    def _update(self, h: int) -> None:
        """Install pairs with element h, pruned the standard way: coprime
        leads are dropped, a pair whose lcm another new pair's lcm
        properly divides is dropped, and old pairs whose lcm the new
        lead divides without matching either side are discarded."""
        ring, guard, basis = self.ring, self.guard, self.basis
        lt_h = basis.lts[h]
        lcms = [ring.lcm(lt_g, lt_h) for lt_g in basis.lts[:h]]
        cand = sorted((ring.wdeg(lcm_g), g, lcm_g) for g, lcm_g in enumerate(lcms))
        kept: list[tuple[int, int, int]] = []
        kept_lcms: list[int] = []
        for wd, g, lcm_g in cand:
            dominated = any(
                l <= lcm_g and l != lcm_g and not (lcm_g - l) & guard for l in kept_lcms
            )
            if dominated:
                continue
            kept_lcms.append(lcm_g)
            if lcm_g != basis.lts[g] + lt_h:     # coprime pairs only eliminate
                kept.append((wd, g, lcm_g))
        for (i, j), lcm_ij in list(self.pairs.items()):
            if lt_h <= lcm_ij and not (lcm_ij - lt_h) & guard:
                if lcms[i] != lcm_ij and lcms[j] != lcm_ij:
                    del self.pairs[(i, j)]
        for wd, g, lcm_g in kept:
            self.pairs[(g, h)] = lcm_g
            heapq.heappush(self.heap, (wd, g, h))

    def extend(self, bound: int | None = None) -> None:
        """Treat every pair of weighted degree <= bound (all, if None)."""
        with self.lock:
            basis, guard = self.basis, self.guard
            while self.pairs:
                wd, i, j = self.heap[0]
                if (i, j) not in self.pairs:
                    heapq.heappop(self.heap)
                    continue
                if bound is not None and wd > bound:
                    return
                heapq.heappop(self.heap)
                lcm = self.pairs.pop((i, j))
                r, _ = _full_reduce(_spoly(i, j, lcm, basis), basis, guard)
                if not r:
                    continue
                basis.add(r)
                self._update(len(basis) - 1)

    def normal_form(self, f: dict, stop: int | None = None) -> tuple[dict, int]:
        """(out, scale), where out/scale is the full normal form of the
        integer dict f against the basis as extended so far, cut at its
        first term at or above ``stop`` as ``_full_reduce`` cuts it."""
        with self.lock:
            return _full_reduce(f, self.basis, self.guard, stop=stop)

    def reduced_snapshot(self, bound: int | None = None, below: int | None = None) -> list[Polynomial]:
        """Reduced basis of the elements at weighted degree <= bound, or of
        those among them whose lead is below ``below``: monic, sorted by
        leading term."""
        ring, guard, basis = self.ring, self.guard, self.basis
        with self.lock:
            chosen = [
                idx for idx in range(len(basis))
                if (bound is None or ring.wdeg(basis.lts[idx]) <= bound)
                and (below is None or basis.lts[idx] < below)
            ]
            minimal: list[int] = []
            for idx in sorted(chosen, key=lambda k: basis.lts[k]):
                lt = basis.lts[idx]
                if not any(
                    basis.lts[k] <= lt and not (lt - basis.lts[k]) & guard for k in minimal
                ):
                    minimal.append(idx)
            reduced = Basis()
            for idx in minimal:
                reduced.add(basis.polys[idx], basis.lts[idx])
            out = []
            for pos in range(len(reduced)):
                d = primitive(_full_reduce(reduced.polys[pos], reduced, guard, skip=pos)[0])
                out.append(ring.undensify(d, d[reduced.lts[pos]]))
                reduced.polys[pos] = d
        return out


# -- public API ---------------------------------------------------------


def buchberger(gens: list[Polynomial]) -> list[Polynomial]:
    """Reduced Groebner basis: monic, interreduced, sorted by leading term."""
    nonzero = [g for g in gens if not g.is_zero]
    if not nonzero:
        raise ValueError("need at least one nonzero generator")
    ring = ring_for(set().union(*(g.variables() for g in nonzero)))
    engine = _GradedEngine([ring.densify(g)[0] for g in nonzero], ring)
    engine.extend(None)
    return engine.reduced_snapshot(None)


def normal_form(f: Polynomial, basis: list[Polynomial]) -> Polynomial:
    """Remainder of f modulo the basis: unique for a reduced basis."""
    if f.is_zero:
        return f
    all_vars = set(f.variables()).union(*(g.variables() for g in basis))
    ring = ring_for(all_vars)
    dense = Basis()
    for g in basis:
        if g:  # a zero member reduces nothing
            dense.add(ring.densify(g)[0])
    ints, den = ring.densify(f)
    out, scale = _full_reduce(ints, dense, ring.guard_mask)
    return ring.undensify(out, den * scale)


GROEBNER_ON_M = (
    "the groebner algorithm is not available for the monomial basis: "
    "it needs the n-generator ideal presentation; use the cr or ls algorithm"
)


def _seeds(mu: symfun.Partition, kind: str) -> tuple[list[dict], Ring]:
    """The generators z_i - g_i as packed int dicts, read straight off the
    unit products of ``symfun._spec_products``, and their ring: r_m..r_1
    of weight 1 above z_1..z_n, z_i of weight i.  Each root monomial moves
    up past the n z fields, so an r-free monomial is below 2^(16 n)."""
    if kind == "m":
        raise ValueError(GROEBNER_ON_M)
    symfun._check_generator(kind, 1, mu.n)
    vars_ = symfun._root_ring(mu.m).vars + [("z", i) for i in range(1, mu.n + 1)]
    ring = Ring(vars_, tuple([1] * mu.m + list(range(1, mu.n + 1))))
    seeds = []
    for i in range(1, mu.n + 1):
        seed = {mon << FIELD * mu.n: -c for mon, c in symfun._spec_packed(kind, (i,), mu).items()}
        seed[1 << FIELD * (mu.n - i)] = 1
        seeds.append(seed)
    return seeds, ring


def mu_ideal_basis(mu: symfun.Partition, kind: str = "e") -> list[Polynomial]:
    """Generators z_i - g_i tying each z symbol to its specialization: the
    engine's seeds, read back."""
    seeds, ring = _seeds(mu, kind)
    return [ring.undensify(d) for d in seeds]


@dataclass(frozen=True)
class EliminationSystem:
    """The graded engine for one (mu, kind), extended so that its basis is
    complete for inputs up to ``degree`` (complete outright when ``degree``
    is None), as a view that ``elimination_system`` builds on each call.
    ``basis`` and ``zonly`` unpack the reduced Groebner basis on first
    read of the view; gists reduce against the engine itself."""

    mu: symfun.Partition
    kind: str
    degree: int | None
    engine: _GradedEngine

    @cached_property
    def basis(self) -> list[Polynomial]:
        return self.engine.reduced_snapshot(self.degree)

    @cached_property
    def zonly(self) -> list[Polynomial]:
        # a member is r-free exactly when its lead is below 2^(16 n), and
        # no r lead divides an r-free term: the r-free members interreduce
        # among themselves
        return self.engine.reduced_snapshot(self.degree, 1 << (FIELD * self.mu.n))


@lru_cache(maxsize=None)
def _engine(mu: symfun.Partition, kind: str) -> _GradedEngine:
    """One graded engine per (mu, kind), advanced on demand: the one
    Groebner memo.  Its seeds are packed from ``symfun._spec_products``,
    and a verdict's normal form against it stops at its first
    irreducible root term."""
    return _GradedEngine(*_seeds(mu, kind))


def elimination_system(
    mu: symfun.Partition, kind: str = "e", degree: int | None = None
) -> EliminationSystem:
    """Elimination system for (mu, kind), complete for inputs up to ``degree``.

    ``degree=None`` runs the engine to exhaustion, and ``basis`` is then
    the full reduced Groebner basis.  Each call extends the memoized
    engine as far as it needs and wraps it in a new view; ``clear_memo()``
    empties the engine memo.
    """
    engine = _engine(mu, kind)
    engine.extend(degree)
    return EliminationSystem(mu, kind, degree, engine)


def clear_memo() -> None:
    _engine.cache_clear()


def mu_ideal_generators(mu: symfun.Partition, kind: str = "e") -> list[Polynomial]:
    """Groebner basis of the ideal of relations among the specialized
    generators: the r-free members of the elimination basis, monic and
    sorted by leading term."""
    return elimination_system(mu, kind).zonly


def ggist(F: Polynomial, mu: symfun.Partition, kind: str = "e") -> GistResult:
    """Check mu-symmetry via the normal form against the elimination basis.

    An r-free normal form is a gist of minimal weighted degree; any
    residual r variable certifies that no gist exists.  The basis only
    needs to be complete up to the degree of each homogeneous part.
    """
    if kind == "m":
        raise ValueError(GROEBNER_ON_M)
    return GistResult.from_parts(F, mu, kind, _ggist_part)


def _ggist_part(delta: int, ints: dict, den: int, mu: symfun.Partition, kind: str) -> GistResult:
    engine = _engine(mu, kind)
    engine.extend(delta)
    # root monomials move up past the n z fields, the least significant:
    # an r-free monomial is below 2^(16 n), and the normal form stops at
    # its first irreducible root term, which already proves F is not
    # mu-symmetric
    shift = FIELD * mu.n
    nf, scale = engine.normal_form({mon << shift: c for mon, c in ints.items()}, 1 << shift)
    if any(mon >> shift for mon in nf):
        return GistResult.not_symmetric(mu, kind)
    alphas = []
    for mon in nf:  # z_1^e_1 ... z_n^e_n is the capped index with e_i parts i
        exps = engine.ring.unpack(mon)[mu.m:]
        parts = [i for i in range(mu.n, 0, -1) for _ in range(exps[i - 1])]
        alphas.append(tuple(parts) + (0,) * (delta - len(parts)))
    return GistResult.from_coeffs(mu, kind, alphas, [rat(c, den * scale) for c in nf.values()])
