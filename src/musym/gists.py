"""Front door for the three mu-symmetry algorithms."""

from __future__ import annotations

from . import groebner, linsys, reduction, symfun
from .gistresult import GistResult
from .polys import Polynomial, homogeneous_parts

ALGORITHMS = ("groebner", "cr", "ls")


def compute_gist(
    F: Polynomial,
    mu: symfun.Partition,
    kind: str = "e",
    algo: str = "ls",
) -> GistResult:
    """Check mu-symmetry of any F in K[r] and compute a gist if one exists.

    A non-homogeneous F is split into homogeneous parts; it is
    mu-symmetric exactly when every part is, and the part gists add up.
    """
    if kind not in symfun.BASIS_KINDS:
        raise ValueError(f"unknown basis kind {kind!r}")
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}")
    if algo == "groebner" and kind == "m":
        raise ValueError(groebner.GROEBNER_ON_M)
    symfun.check_root_input(F, mu)
    parts = homogeneous_parts(F)
    if len(parts) <= 1:
        return _single(F, mu, kind, algo)
    results = [_single(part, mu, kind, algo) for _, part in parts]
    if not all(res.symmetric for res in results):
        return GistResult.not_symmetric(mu, kind)
    if kind == "m":
        combo = tuple(pair for res in results for pair in res.mcombo)
        return GistResult(mu, kind, True, mcombo=combo)
    total = Polynomial.zero()
    for res in results:
        total = total + res.gist
    return GistResult.from_poly(mu, kind, total)


def _single(F, mu, kind, algo) -> GistResult:
    if algo == "groebner":
        return groebner.ggist(F, mu, kind)
    if algo == "cr":
        return reduction.crgist(F, mu, kind)
    return linsys.lsgist(F, mu, kind)
