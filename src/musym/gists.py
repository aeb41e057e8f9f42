"""Front door for the three mu-symmetry algorithms: the basis and
algorithm names are checked here, and each algorithm's decider takes F's
homogeneous parts through ``GistResult.from_parts``, packed once by
``symfun.root_parts``."""

from __future__ import annotations

from . import groebner, linsys, reduction, symfun
from .gistresult import GistResult
from .polys import Polynomial

# each algorithm's decider, looked up on its module at call time
_DECIDERS = {"groebner": (groebner, "ggist"), "cr": (reduction, "crgist"), "ls": (linsys, "lsgist")}
ALGORITHMS = tuple(_DECIDERS)


def compute_gist(
    F: Polynomial,
    mu: symfun.Partition,
    kind: str = "e",
    algo: str = "ls",
) -> GistResult:
    """Check mu-symmetry of any F in K[r] and compute a gist if one exists."""
    if kind not in symfun.BASIS_KINDS:
        raise ValueError(f"unknown basis kind {kind!r}")
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}")
    module, name = _DECIDERS[algo]
    return getattr(module, name)(F, mu, kind)
