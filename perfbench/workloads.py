"""The benchmark's workloads: seeded operations with independent checks.

A workload builds its list of operations once per run from the seed:
the random inputs and the oracle's sample points.  The composition of
the list is the same for every seed.  Operations are repeatable: each
clears the caches it needs cold, or finds the ones set-up warmed, so
running one again does the same work.

Operations are checked by ``oracle`` after they return, outside the
timed region.  An answer is normalized first (``Answer``), so the
self-check can alter it and confirm that the oracle notices.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from fractions import Fraction

import oracle

ALGOS = ("ls", "cr", "groebner")


@dataclass(frozen=True)
class Answer:
    """A normalized result: a verdict with a gist in z, or structure data."""

    symmetric: bool | None = None
    terms: tuple = ()        # ((((z index, exp), ...), coeff), ...)
    rows: tuple = ()         # dims: ((delta, dim_sym, dim_mu, drop), ...)
    relations: tuple = ()    # ideal: gists of the relations, as terms


@dataclass
class Op:
    kind: str                # ls, cr, groebner, dims or ideal
    label: str
    run: object              # run(mods) -> raw output, the timed call
    normalize: object        # normalize(raw) -> Answer
    check: object            # check(Answer) -> problem string or None
    cold: bool = True        # clear the library's caches first


def clear_caches(mods) -> None:
    mods.groebner.clear_memo()
    mods.reduction.clear_memo()
    mods.symfun.clear_caches()


# -- normalizing answers ------------------------------------------------------


def _obj_terms(obj) -> tuple:
    out = []
    for entry in obj:
        exps = []
        for name, e in entry["exps"].items():
            if name[0] != "z":
                raise ValueError(f"variable {name} in a gist")
            exps.append((int(name[1:]), int(e)))
        out.append((tuple(exps), Fraction(entry["coeff"])))
    return tuple(out)


def _poly_terms(poly) -> tuple:
    out = []
    for term, c in poly.items():
        exps = []
        for space, index, e in term:
            if space != "z":
                raise ValueError(f"variable {space}{index} in a gist")
            exps.append((index, e))
        out.append((tuple(exps), Fraction(c)))
    return tuple(out)


def _cli_run(argv):
    def run(mods):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = mods.cli.main(list(argv))
        return rc, buf.getvalue()
    return run


def _cli_gist_answer(raw) -> Answer:
    rc, text = raw
    payload = json.loads(text)
    if rc != (0 if payload["symmetric"] else 1):
        raise ValueError(f"exit code {rc} disagrees with the verdict")
    terms = _obj_terms(payload["gist"]) if payload["symmetric"] else ()
    return Answer(symmetric=payload["symmetric"], terms=terms)


def _result_answer(result) -> Answer:
    terms = _poly_terms(result.gist) if result.symmetric else ()
    return Answer(symmetric=result.symmetric, terms=terms)


# -- checks -------------------------------------------------------------------


def gist_check(mu: tuple, points, positive: bool):
    """Positive: the gist at z(r) equals F(r) at every sample point.
    Negative: the verdict is 'not mu-symmetric'."""
    def check(ans: Answer):
        if not positive:
            return None if ans.symmetric is False else "asymmetric input called symmetric"
        if ans.symmetric is not True:
            return "symmetric input called not symmetric"
        for roots, expected in points:
            if oracle.eval_terms(ans.terms, oracle.generator_values(mu, roots)) != expected:
                return f"gist disagrees with F at roots {roots}"
        return None
    return check


def mutations(ans: Answer):
    """Altered copies of a correct answer that the oracle must reject."""
    if ans.symmetric is not None:
        yield replace(ans, symmetric=not ans.symmetric)
    if ans.terms:
        (exps, c), rest = ans.terms[0], ans.terms[1:]
        yield replace(ans, terms=((exps, c + 1),) + rest)
    if ans.rows:
        delta, s, m, drop = ans.rows[-1]
        yield replace(ans, rows=ans.rows[:-1] + ((delta, s, m + 1, drop),))
    if ans.relations:
        first = ans.relations[0]
        (exps, c), rest = first[0], first[1:]
        yield replace(ans, relations=(((exps, c + 1),) + rest,) + ans.relations[1:])


def sample_roots(rng, mu: tuple) -> list[int]:
    """Distinct integer roots at which no generator e_1..e_n vanishes, so
    that changing any coefficient of a gist changes its value there."""
    while True:
        roots = rng.sample(range(-12, 13), len(mu))
        if all(oracle.generator_values(mu, roots)):
            return roots


def sample_points(rng, mu: tuple, value, count: int = 2):
    """(roots, F(r)) pairs with F(r) != 0; a zero input is refused."""
    points = []
    for _ in range(20 * count):
        roots = sample_roots(rng, mu)
        v = value(roots)
        if v != 0:
            points.append((roots, v))
            if len(points) == count:
                return points
    raise RuntimeError("workload input is the zero polynomial")


def random_positive(rng, mu: tuple, delta: int) -> dict:
    """A random combination of the specialized e-basis of degree delta."""
    while True:
        out: dict = {}
        for p in oracle.spec_products(mu, delta):
            if rng.random() < 0.6:
                out = oracle.poly_add(out, p, rng.choice((-3, -2, -1, 1, 2, 3)))
        if out:
            return out


def make_negative(rng, mu: tuple, positive: dict) -> dict:
    """positive plus a term that the swap of two equal-multiplicity
    roots does not fix; no mu-symmetric F can be asymmetric that way."""
    i, j = oracle.equal_pair(mu)
    delta = sum(next(iter(positive)))
    while True:
        exps = [0] * len(mu)
        for _ in range(delta):
            exps[rng.randrange(len(mu))] += 1
        if exps[i] != exps[j]:
            break
    out = oracle.poly_add(positive, {tuple(exps): rng.choice((-2, -1, 1, 2))})
    if not oracle.swap_asymmetric(out, (i, j)):
        raise RuntimeError("negative input is not asymmetric")
    return out


def _mu_text(mu: tuple) -> str:
    return ",".join(str(p) for p in mu)


# -- cold-gist ----------------------------------------------------------------


class ColdGist:
    """One-shot ``musym gist ... --json`` queries with every cache cleared."""

    MUS = ((2, 1, 1), (3, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 1))
    RANDOM_DEGREE = 6
    # random inputs of each sign per mu; they fill the band of costs where
    # p90 falls, just below the slow dplus operations
    RANDOM_PER_MU = 4
    # groebner on dplus(3,2,1) alone takes about 14 s cold
    SKIP = {((3, 2, 1), "dplus", "groebner")}

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, mods) -> None:
        pass

    def ops(self, mods) -> list[Op]:
        rng = random.Random(f"cold-gist:{self.seed}")
        ops = []
        for mu in self.MUS:
            n, m = sum(mu), len(mu)
            for name in ("dplus", "delta", f"subdisc:{n - m}"):
                points = sample_points(rng, mu, lambda r, name=name: oracle.named_value(name, mu, r))
                for algo in ALGOS:
                    if (mu, name, algo) not in self.SKIP:
                        ops.append(self._op(mu, name, name, algo, points, True))
            inputs = []
            for _ in range(self.RANDOM_PER_MU):
                pos = random_positive(rng, mu, self.RANDOM_DEGREE)
                inputs.append(("random+", pos, True))
                if oracle.equal_pair(mu):
                    inputs.append(("random-", make_negative(rng, mu, pos), False))
            for label, poly, positive in inputs:
                points = sample_points(rng, mu, lambda r, p=poly: oracle.poly_eval(p, r))
                for algo in ALGOS:
                    ops.append(self._op(mu, label, oracle.poly_text(poly), algo, points, positive))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _op(mu, label, text, algo, points, positive) -> Op:
        argv = ("gist", text, "--mu", _mu_text(mu), "--algo", algo, "--json")
        return Op(
            kind=algo,
            label=f"gist {label} --mu {_mu_text(mu)} --algo {algo}",
            run=_cli_run(argv),
            normalize=_cli_gist_answer,
            check=gist_check(mu, points, positive),
        )


# -- warm-batch ---------------------------------------------------------------


class WarmBatch:
    """Many degree-10 inputs against structures whose caches are warm."""

    MUS = ((2, 2, 1), (3, 1, 1))
    DEGREE = 10
    # positives, and as many negatives, per (mu, algorithm).  cr is
    # cheaper than groebner and groebner than ls, and (3,1,1) is cheaper
    # than (2,2,1) for groebner but not for ls: with these counts p50
    # falls inside the groebner (3,1,1) operations and p90 inside the ls
    # (3,1,1) ones, not between two groups.
    PER_SIGN = {"cr": 11, "groebner": 6, "ls": 8}

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, mods) -> None:
        """Warm canonical_system, elimination_system and spec_basis."""
        clear_caches(mods)
        for parts in self.MUS:
            mu = mods.symfun.Partition(parts)
            mods.reduction.canonical_system(mu, self.DEGREE, "e")
            mods.groebner.elimination_system(mu, "e", degree=self.DEGREE)
            mods.symfun.spec_basis("e", self.DEGREE, mu)

    def ops(self, mods) -> list[Op]:
        rng = random.Random(f"warm-batch:{self.seed}")
        ops = []
        for parts in self.MUS:
            mu = mods.symfun.Partition(parts)
            for algo in ALGOS:
                for _ in range(self.PER_SIGN[algo]):
                    pos = random_positive(rng, parts, self.DEGREE)
                    for label, poly, positive in (
                        ("random+", pos, True),
                        ("random-", make_negative(rng, parts, pos), False),
                    ):
                        points = sample_points(rng, parts, lambda r, p=poly: oracle.poly_eval(p, r))
                        F = mods.polys.parse_poly(oracle.poly_text(poly))
                        ops.append(Op(
                            kind=algo,
                            label=f"compute_gist {label} mu={_mu_text(parts)} algo={algo}",
                            run=lambda mods, F=F, mu=mu, algo=algo: mods.gists.compute_gist(F, mu, "e", algo),
                            normalize=_result_answer,
                            check=gist_check(parts, points, positive),
                            cold=False,
                        ))
        rng.shuffle(ops)
        return ops


# -- structure ----------------------------------------------------------------


class Structure:
    """Cold ``musym dims`` and ``musym ideal`` for every structure with
    2 <= n <= 5 and at least two distinct roots."""

    MUS = (
        (1, 1), (2, 1), (1, 1, 1), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
        (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1),
    )
    DIMS_TOP = range(3, 11)
    # ideal runs for minutes on these
    NO_IDEAL = {(2, 2, 1), (2, 1, 1, 1)}

    def __init__(self, seed: int):
        self.seed = seed
        self._dims: dict = {}

    def setup(self, mods) -> None:
        pass

    def ops(self, mods) -> list[Op]:
        rng = random.Random(f"structure:{self.seed}")
        ops = []
        for mu in self.MUS:
            for top in self.DIMS_TOP:
                argv = ("dims", "--mu", _mu_text(mu), "--delta", f"1..{top}", "--json")
                ops.append(Op("dims", " ".join(argv), _cli_run(argv), _dims_answer,
                              self._dims_check(mu, top)))
            if mu in self.NO_IDEAL:
                continue
            argv = ("ideal", "--mu", _mu_text(mu), "--json")
            roots = [sample_roots(rng, mu) for _ in range(2)]
            ops.append(Op("ideal", " ".join(argv), _cli_run(argv), _ideal_answer,
                          _ideal_check(mu, roots)))
        rng.shuffle(ops)
        return ops

    def _dims_check(self, mu: tuple, top: int):
        def check(ans: Answer):
            if len(ans.rows) != top:
                return f"{len(ans.rows)} rows for deltas 1..{top}"
            for delta, dim_sym, dim_mu, drop in ans.rows:
                key = (mu, delta)
                if key not in self._dims:
                    self._dims[key] = oracle.dims_expected(mu, delta, random.Random(f"dims:{self.seed}"))
                if (dim_sym, dim_mu) != self._dims[key] or drop != (dim_mu < dim_sym):
                    return f"dims row {delta}: {dim_sym}, {dim_mu}; expected {self._dims[key]}"
            return None
        return check


def _dims_answer(raw) -> Answer:
    rc, text = raw
    if rc != 0:
        raise ValueError(f"dims exited {rc}")
    rows = tuple((r["delta"], r["dim_sym"], r["dim_mu"], r["drop"]) for r in json.loads(text))
    return Answer(rows=rows)


def _ideal_answer(raw) -> Answer:
    rc, text = raw
    if rc != 0:
        raise ValueError(f"ideal exited {rc}")
    return Answer(relations=tuple(_obj_terms(obj) for obj in json.loads(text)))


def _ideal_check(mu: tuple, roots_list):
    def check(ans: Answer):
        if len(mu) < sum(mu) and not ans.relations:
            return "no relations although m < n"
        for rel in ans.relations:
            if not rel:
                return "a zero relation"
            for roots in roots_list:
                if oracle.eval_terms(rel, oracle.generator_values(mu, roots)) != 0:
                    return f"a relation does not vanish at roots {roots}"
        return None
    return check


WORKLOADS = {"cold-gist": ColdGist, "warm-batch": WarmBatch, "structure": Structure}
