"""Result type shared by the three mu-symmetry algorithms."""

from __future__ import annotations

from dataclasses import dataclass

from . import symfun
from .polys import Polynomial, rat


@dataclass(frozen=True)
class GistResult:
    """Either a gist relative to a generator basis, or a negative verdict.

    For the e/p/c bases the gist is a polynomial in z, with z_i standing
    for the i-th generator.  The monomial basis has no such product
    structure, so its gist is kept as a formal combination of index
    tuples ``mcombo``.
    """

    mu: symfun.Partition
    kind: str
    symmetric: bool
    gist: Polynomial | None = None
    mcombo: tuple | None = None        # ((alpha, coeff), ...) for kind "m"

    @staticmethod
    def not_symmetric(mu: symfun.Partition, kind: str) -> "GistResult":
        return GistResult(mu, kind, False)

    @staticmethod
    def from_coeffs(mu, kind, alphas, coeffs) -> "GistResult":
        pairs = [(tuple(a), c) for a, c in zip(alphas, coeffs) if c != 0]
        if kind == "m":
            return GistResult(mu, kind, True, mcombo=tuple(pairs))
        gist = Polynomial({symfun.z_term_for(a): c for a, c in pairs})
        return GistResult(mu, kind, True, gist=gist)

    @staticmethod
    def from_parts(F: Polynomial, mu: symfun.Partition, kind: str, decide) -> "GistResult":
        """Decide F one homogeneous part at a time, as ``symfun.root_parts``
        splits it: each part of degree delta >= 1 goes to decide(part,
        delta, mu, kind).  F is mu-symmetric exactly when every part is, and
        the part gists add up."""
        results = []
        for delta, part in symfun.root_parts(F, mu):
            if delta:
                res = decide(part, delta, mu, kind)
            else:  # a constant is its own gist, the empty generator product
                res = GistResult.from_coeffs(mu, kind, [(0,) * mu.n], [part.constant_value()])
            if not res.symmetric:
                return res
            results.append(res)
        if len(results) == 1:
            return results[0]
        if kind == "m":
            return GistResult(mu, kind, True, mcombo=tuple(pair for res in results for pair in res.mcombo))
        return GistResult(mu, kind, True, gist=sum((res.gist for res in results), Polynomial.zero()))

    def substituted(self) -> Polynomial:
        """Expand the gist back into K[r] by replacing each generator
        symbol with its specialization; must reproduce the input."""
        if not self.symmetric:
            raise ValueError("no gist: polynomial is not mu-symmetric")
        if self.kind == "m":
            out = Polynomial.zero()
            for alpha, c in self.mcombo:
                out = out + c * symfun.spec_basis_element("m", alpha, self.mu)
            return out
        mapping = {
            ("z", i): symfun.spec_generator(self.kind, i, self.mu)
            for i in range(1, self.mu.n + 1)
        }
        return self.gist.substitute(mapping)

    def lift(self) -> Polynomial:
        """The symmetric polynomial in K[x] the gist denotes."""
        if not self.symmetric:
            raise ValueError("no gist: polynomial is not mu-symmetric")
        n = self.mu.n
        if self.kind == "m":
            out = Polynomial.zero()
            for alpha, c in self.mcombo:
                out = out + c * symfun.monomial_generator(alpha, n)
            return out
        mapping = {("z", i): symfun.generator(self.kind, i, n) for i in range(1, n + 1)}
        return self.gist.substitute(mapping)

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
        if self.kind == "m":
            if not self.mcombo:
                return "0"
            pieces = []
            for alpha, c in self.mcombo:
                name = "m[" + ",".join(str(a) for a in alpha) + "]"
                body = name if c == 1 else f"{c}*{name}"
                pieces.append(body)
            return " + ".join(pieces).replace("+ -", "- ")
        return str(self.gist)
