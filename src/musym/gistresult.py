"""Result type shared by the three mu-symmetry algorithms."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from . import _packed, symfun
from .polys import Polynomial, rat


@dataclass(frozen=True)
class GistResult:
    """Either a gist relative to a generator basis, or a negative verdict.

    The gist is its coefficient vector ``combo = ((alpha, coeff), ...)``
    over the basis indices: capped indices for e/p/c, exact ones for m,
    and the all-zero index for a constant part.  F is the sum of
    coeff times the specialized basis member alpha.  ``gist`` (the
    polynomial in z, z_i standing for the i-th generator; e/p/c only) and
    ``mcombo`` (m only) are views of it.
    """

    mu: symfun.Partition
    kind: str
    symmetric: bool
    combo: tuple | None = None         # None for a negative verdict

    @staticmethod
    def not_symmetric(mu: symfun.Partition, kind: str) -> "GistResult":
        return GistResult(mu, kind, False)

    @staticmethod
    def from_coeffs(mu, kind, alphas, coeffs) -> "GistResult":
        return GistResult(mu, kind, True, tuple((tuple(a), c) for a, c in zip(alphas, coeffs) if c != 0))

    @staticmethod
    def from_parts(F: Polynomial, mu: symfun.Partition, kind: str, decide) -> "GistResult":
        """Decide F one homogeneous part at a time, as ``symfun.root_parts``
        splits and packs it: each part ints/den of degree delta >= 1 goes to
        decide(delta, ints, den, mu, kind), which may consume ints.  F is
        mu-symmetric exactly when every part is, and the part gists add up."""
        combo = []
        for delta, ints, den in symfun.root_parts(F, mu):
            if delta:
                res = decide(delta, ints, den, mu, kind)
            else:  # a constant is its own gist, the empty generator product
                res = GistResult.from_coeffs(mu, kind, [(0,) * mu.n], [rat(ints[0], den)])
            if not res.symmetric:
                return res
            combo.extend(res.combo)
        return GistResult(mu, kind, True, tuple(combo))

    @cached_property
    def gist(self) -> Polynomial | None:
        if self.combo is None or self.kind == "m":
            return None
        return Polynomial({symfun.z_term_for(a): c for a, c in self.combo})

    @property
    def mcombo(self) -> tuple | None:
        return self.combo if self.kind == "m" else None

    def _expansion(self, mu: symfun.Partition) -> tuple[dict, int]:
        """The sum of the coefficients times the packed basis members at
        mu, as (ints, den) in mu's root ring: the integer multiples of the
        members over the coefficients' common denominator den."""
        if not self.symmetric:
            raise ValueError("no gist: polynomial is not mu-symmetric")
        den = math.lcm(*(c.denominator for _, c in self.combo))
        out: dict = {}
        for alpha, c in self.combo:
            _packed.submul(out, -c.numerator * (den // c.denominator), 0, symfun._spec_packed(self.kind, alpha, mu))
        return out, den

    def substituted(self) -> Polynomial:
        """Expand the gist back into K[r] as the sum of its coefficients
        times the specialized basis members; must reproduce the input."""
        return symfun._root_ring(self.mu.m).undensify(*self._expansion(self.mu))

    def lift(self) -> Polynomial:
        """The symmetric polynomial in K[x] the gist denotes: the same sum
        at the trivial partition 1^n, read in x."""
        ints, den = self._expansion(symfun._trivial(self.mu.n))
        return symfun._x_form(ints, self.mu.n, den)

    def evaluate(self, values: list) -> object:
        """Evaluate the gist at n = mu.n given z-values (e/p/c bases only)."""
        if len(values) != self.mu.n:
            raise ValueError(f"a gist for mu={self.mu} takes {self.mu.n} values, got {len(values)}")
        if not self.symmetric:
            raise ValueError("no gist: polynomial is not mu-symmetric")
        if self.kind == "m":
            raise ValueError("monomial-basis gists cannot be evaluated at z-values")
        assignment = {("z", i + 1): rat(v) for i, v in enumerate(values)}
        return self.gist.evaluate(assignment)

    def __str__(self) -> str:
        if not self.symmetric:
            return "F is not mu-symmetric"
        if self.kind != "m":
            return str(self.gist)
        if not self.combo:
            return "0"
        pieces = []
        for alpha, c in self.combo:
            name = "m[" + ",".join(str(a) for a in alpha) + "]"
            pieces.append(name if c == 1 else f"{c}*{name}")
        return " + ".join(pieces).replace("+ -", "- ")
