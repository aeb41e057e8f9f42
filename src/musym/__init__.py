"""Exact tools for mu-symmetric root functions.

Given a polynomial in the distinct roots r_1..r_m of a degree-n
polynomial with multiplicity structure mu, decide whether it is the
specialization of a symmetric polynomial, and if so express it in a
chosen family of symmetric generators.  Three independent algorithms
(Groebner elimination, canonize+reduce, linear solving) must agree.
"""

from .gistresult import GistResult
from .gists import compute_gist
from .groebner import buchberger, ggist, mu_ideal_generators, normal_form
from .linsys import build_system, lsgist
from .polys import (
    Polynomial,
    format_poly,
    gist_weight,
    homogeneous_parts,
    leading,
    parse_poly,
    rat,
    wdeg,
)
from .reduction import canonize, crgist, nreduce, reduce
from .symfun import (
    Partition,
    basis_element,
    delta_lift,
    dplus,
    dplus_gist_equal,
    dplus_gist_m2,
    dstar,
    generator,
    specialize,
    subdiscriminant,
    sym_dimensions,
    weak_partitions,
)

__all__ = [
    "GistResult",
    "Partition",
    "Polynomial",
    "basis_element",
    "build_system",
    "buchberger",
    "canonize",
    "compute_gist",
    "crgist",
    "delta_lift",
    "dplus",
    "dplus_gist_equal",
    "dplus_gist_m2",
    "dstar",
    "format_poly",
    "generator",
    "ggist",
    "gist_weight",
    "homogeneous_parts",
    "leading",
    "lsgist",
    "mu_ideal_generators",
    "normal_form",
    "nreduce",
    "parse_poly",
    "rat",
    "reduce",
    "specialize",
    "subdiscriminant",
    "sym_dimensions",
    "wdeg",
    "weak_partitions",
]
