"""Command-line front end: gist checking, dimension tables, ideals,
canonical sequences, and a small benchmark harness.

Exit codes for ``gist``: 0 when the input is mu-symmetric, 1 when it is
not, 2 on usage errors.  Other commands return 0 on success and 2 on
usage errors; ``bench --check`` returns 1 when the selected algorithms
disagree.  Any command returns 3 on an internal error, reported as one
``internal error: ...`` line on stderr, so that exit 1 always means a
negative verdict.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
import time

from . import groebner, linsys, reduction, symfun
from .gists import ALGORITHMS, compute_gist
from .polys import (
    Polynomial,
    format_poly,
    parse_poly,
    poly_to_obj,
    rat_from_str,
)
from .symfun import Partition

class UsageError(Exception):
    pass


def named_input(name: str, mu: Partition) -> Polynomial:
    """Resolve an input: a built-in name, a file path, or polynomial text.

    ``dplus``, ``dstar``, ``delta`` and ``subdisc:k`` (the k-th
    subdiscriminant specialized to the distinct roots) cover the usual
    benchmark inputs without embedding huge polynomials.
    """
    import os

    if os.path.isfile(name):
        with open(name) as fh:
            name = fh.read().strip()
    if name == "dplus":
        return symfun.dplus(mu)
    if name == "dstar":
        return symfun.dstar(mu)
    if name == "delta":
        return symfun.delta_squares(mu.m)
    if name.startswith("subdisc:"):
        try:
            k = int(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad subdiscriminant index in {name!r}") from None
        return symfun.spec_subdiscriminant(k, mu)
    return parse_poly(name)


def _parse_values(text: str) -> list:
    try:
        return [rat_from_str(v) for v in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad value list {text!r}") from None


def _open_output(path: str):
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write output file: {exc}") from None


def _dump_system(path: str, system: linsys.LinearSystem) -> None:
    """A|b as exact fractions, one row per degree-delta monomial."""
    with _open_output(path) as fh:
        writer = csv.writer(fh)
        header = ["term"] + [
            "k[" + ",".join(str(a) for a in alpha) + "]" for alpha in system.column_index
        ] + ["b"]
        writer.writerow(header)
        for term, row, bv in zip(system.row_index, system.A, system.b):
            writer.writerow(
                [format_poly(Polynomial.monomial(term))]
                + [str(v) for v in row]
                + [str(bv)]
            )


def cmd_gist(args) -> int:
    mu = Partition.parse(args.mu)
    F = named_input(args.f, mu)
    result = compute_gist(F, mu, kind=args.basis, algo=args.algo)
    if args.dump_system:
        _dump_system(args.dump_system, linsys.build_system(F, mu, args.basis))
    evaluation = None
    if args.eval is not None:
        evaluation = result.evaluate(_parse_values(args.eval))
    if args.json:
        payload = {
            "mu": list(mu.parts),
            "basis": args.basis,
            "algo": args.algo,
            "symmetric": result.symmetric,
            "gist": poly_to_obj(result.gist) if result.gist is not None else None,
        }
        if result.mcombo is not None:
            payload["gist_m"] = [
                {"alpha": list(a), "coeff": str(c)} for a, c in result.mcombo
            ]
        if evaluation is not None:
            payload["evaluation"] = str(evaluation)
        print(json.dumps(payload))
    else:
        print(str(result))
        if evaluation is not None:
            print(f"evaluation: {evaluation}")
    return 0 if result.symmetric else 1


def _parse_delta(text: str, ranges: bool = False) -> range:
    """--delta as a number N, or, with ranges, also as a range LO..HI."""
    lo, dots, hi = text.partition("..") if ranges else (text, "", "")
    try:
        return range(int(lo), int(hi if dots else lo) + 1)
    except ValueError:
        forms = "a number N or a range LO..HI" if ranges else "a number N"
        raise UsageError(f"bad --delta {text!r}; expected {forms}") from None


def cmd_dims(args) -> int:
    mu = Partition.parse(args.mu)
    deltas = _parse_delta(args.delta, ranges=True)
    if not deltas:
        raise UsageError(f"empty delta range {args.delta!r}")
    symfun._check_degree(deltas[-1])  # refused before the first row is computed
    rows = []
    for delta in deltas:
        dim_sym, dim_mu = symfun.sym_dimensions(mu, delta, args.basis)
        rows.append((delta, dim_sym, dim_mu))
    if args.json:
        print(json.dumps([
            {"mu": list(mu.parts), "delta": d, "dim_sym": s, "dim_mu": m, "drop": m < s}
            for d, s, m in rows
        ]))
        return 0
    print(f"mu={mu}  n={mu.n}  (basis {args.basis}; * marks a dimension drop)")
    print(f"{'delta':>6} {'dim_sym':>8} {'dim_mu':>8}")
    for d, s, m in rows:
        mark = " *" if m < s else ""
        print(f"{d:>6} {s:>8} {m:>8}{mark}")
    return 0


def cmd_ideal(args) -> int:
    mu = Partition.parse(args.mu)
    gens = groebner.mu_ideal_generators(mu, args.basis)
    if args.json:
        print(json.dumps([poly_to_obj(g) for g in gens]))
        return 0
    if not gens:
        print(f"mu={mu}: no relations (the specialized generators are independent)")
        return 0
    for g in gens:
        print(format_poly(g))
    return 0


def cmd_canonize(args) -> int:
    mu = Partition.parse(args.mu)
    (delta,) = _parse_delta(args.delta)
    system = reduction.canonical_system(mu, delta, args.basis)
    sequence = system.sequence
    payload = {
        "mu": list(mu.parts),
        "delta": delta,
        "basis": args.basis,
        "alphas": [list(a) for a in system.alphas],
        "sequence": [poly_to_obj(p) for p in sequence],
        "qmatrix": [[str(q) for q in row] for row in system.qmatrix],
    }
    if args.json:
        print(json.dumps(payload))
        return 0
    print(f"mu={mu} delta={delta} basis={args.basis}")
    print(f"rank {len(sequence)} of {len(system.alphas)} basis elements")
    for p in sequence:
        print(format_poly(p))
    print("qmatrix:")
    for row in system.qmatrix:
        print("  " + " ".join(str(q) for q in row))
    return 0


# -- benchmark harness ---------------------------------------------------


# subdisc:{n-m} is the first subdiscriminant that does not vanish at mu
DEFAULT_SUITE = [
    {"id": f"{name}/{mu}", "f": name, "mu": str(mu), "algos": ["groebner", "cr", "ls"], "bases": ["e"]}
    for mu in map(Partition.parse, ("2,1", "2,2", "3,1", "2,2,1", "1,1,1"))
    for name in ("dplus", "delta", f"subdisc:{mu.n - mu.m}", "dplus~p")
]


def _suite_input(name: str, mu: Partition) -> Polynomial:
    if name.endswith("~p"):
        # perturbed variant: add a lone monomial of the same degree
        base = named_input(name[:-2], mu)
        return base + Polynomial.variable("r", 1) ** base.total_degree()
    return named_input(name, mu)


def _load_suite(path: str | None):
    if path is None:
        return DEFAULT_SUITE
    try:
        with open(path) as fh:
            suite = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read suite file: {exc}") from None
    if not isinstance(suite, list):
        raise UsageError("suite file must hold a JSON list of entries")
    for number, entry in enumerate(suite, 1):
        if not isinstance(entry, dict) or "f" not in entry or "mu" not in entry:
            raise UsageError(f"suite entry {number} needs at least 'f' and 'mu'")
        for key in ("algos", "bases"):
            # a string would be iterated as its characters; _bench_row
            # checks each name
            if key in entry and not (isinstance(entry[key], list) and entry[key]):
                raise UsageError(f"{key!r} in suite entry {_entry_id(entry)!r} must be a nonempty list of names")
    return suite


def _entry_id(entry) -> str:
    return str(entry.get("id", entry["f"]))


def _median_ms(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


# per algorithm: the row column for its preprocessing and for its
# per-instance time; ls has no preprocessing column, since its untimed
# first two calls build its layout and record its rank profile and
# column order, and cr's second untimed call records its orbit view
_COLUMNS = {
    "groebner": ("groebner_prep_ms", "groebner_nf_ms"),
    "cr": ("canonize_ms", "reduce_ms"),
    "ls": (None, "solve_ms"),
}


def _prep_ms(algo: str, degrees: list[int], mu: Partition, kind: str) -> float:
    """Time the memoized preprocessing of algo for each of the given part
    degrees that is 1 or more.  A system that is already built costs
    microseconds, so preprocessing falls to the first row that needs it."""
    build = groebner.elimination_system if algo == "groebner" else reduction.canonical_system
    t0 = time.perf_counter()
    for delta in filter(None, degrees):
        build(*((mu, kind, delta) if algo == "groebner" else (mu, delta, kind)))
    return round((time.perf_counter() - t0) * 1000.0, 3)


def _bench_row(entry, repeat: int, check: bool):
    fid = _entry_id(entry)
    bases = entry.get("bases", ["e"])
    algos = entry.get("algos", ["groebner", "cr", "ls"])
    for algo in algos:
        if algo not in ALGORITHMS:
            raise UsageError(f"unknown algorithm {algo!r} in suite entry {fid!r}")
    mu = Partition.parse(str(entry["mu"]))
    F = _suite_input(str(entry["f"]), mu)
    # checks F before any system is built, as compute_gist would
    degrees = [delta for delta, _, _ in symfun.root_parts(F, mu)]
    rows = []
    for kind in bases:
        if kind not in symfun.BASIS_KINDS:
            raise UsageError(f"unknown basis {kind!r} in suite entry {fid!r}")
        row = {
            "id": fid, "F": entry["f"], "delta": max(degrees, default=0), "mu": str(mu), "n": mu.n,
            "basis": kind,
        }
        verdicts = {}
        gists = {}
        # groebner on the monomial basis is skipped beside another
        # algorithm; alone, compute_gist refuses it
        for algo in [a for a in algos if (a, kind) != ("groebner", "m")] or algos:
            prep_column, time_column = _COLUMNS[algo]
            if prep_column:
                row[prep_column] = _prep_ms(algo, degrees, mu, kind)
            res = compute_gist(F, mu, kind, algo)
            if algo in ("ls", "cr"):
                compute_gist(F, mu, kind, algo)
            row[time_column] = round(_median_ms(lambda: compute_gist(F, mu, kind, algo), repeat), 3)
            verdicts[algo] = res.symmetric
            gists[algo] = res
        row["verdict"] = "Y" if any(verdicts.values()) else "N"
        for algo in ("ls", "cr", "groebner"):
            if algo in gists and gists[algo].symmetric:
                row["gist"] = str(gists[algo])
                break
        row["consistent"] = len(set(verdicts.values())) <= 1
        if check and row["consistent"] and any(verdicts.values()):
            expanded = {a: g.substituted() for a, g in gists.items() if g.symmetric}
            row["consistent"] = all(e == F for e in expanded.values())
        g_total = row.get("groebner_prep_ms", 0.0) + row.get("groebner_nf_ms", 0.0)
        cr_total = row.get("canonize_ms", 0.0) + row.get("reduce_ms", 0.0)
        if "groebner_nf_ms" in row and "solve_ms" in row and row["solve_ms"] > 0:
            row["speedup_g_ls"] = round(g_total / row["solve_ms"], 1)
        if "groebner_nf_ms" in row and cr_total > 0:
            row["speedup_g_cr"] = round(g_total / cr_total, 1)
        rows.append(row)
    return rows


_BENCH_COLUMNS = [
    "id", "F", "delta", "mu", "n", "basis", "verdict", "consistent",
    "groebner_prep_ms", "groebner_nf_ms", "solve_ms", "canonize_ms",
    "reduce_ms", "speedup_g_ls", "speedup_g_cr",
]
_CSV_COLUMNS = _BENCH_COLUMNS + ["gist"]


def cmd_bench(args) -> int:
    if args.repeat < 1:
        raise UsageError("--repeat must be at least 1")
    suite = _load_suite(args.suite)
    rows = []
    for entry in suite:
        try:
            rows.extend(_bench_row(entry, args.repeat, args.check))
        except ValueError as exc:
            raise UsageError(f"{exc} (suite entry {_entry_id(entry)!r})") from None
    widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) if rows else len(c)
              for c in _BENCH_COLUMNS}
    print("  ".join(c.ljust(widths[c]) for c in _BENCH_COLUMNS))
    for r in rows:
        print("  ".join(str(r.get(c, "")).ljust(widths[c]) for c in _BENCH_COLUMNS))
    if args.csv:
        with _open_output(args.csv) as fh:
            writer = csv.DictWriter(fh, fieldnames=_CSV_COLUMNS)
            writer.writeheader()
            writer.writerows({c: r.get(c, "") for c in _CSV_COLUMNS} for r in rows)
    if args.check and any(not r["consistent"] for r in rows):
        print("INCONSISTENT: algorithms disagree on at least one entry", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="musym",
        description="Check mu-symmetry of root functions and compute gists.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gist", help="check one polynomial and print its gist")
    p.add_argument(
        "f",
        help="polynomial text, a file holding it, or a named input (dplus, dstar, delta, subdisc:k); "
        'put text that starts with a minus after --, as in: gist --mu 1,1 -- "-r1*r2"',
    )
    p.add_argument("--mu", required=True, help="multiplicity structure, e.g. 2,2,1")
    p.add_argument("--algo", choices=ALGORITHMS, default="ls")
    p.add_argument("--basis", choices=symfun.BASIS_KINDS, default="e")
    p.add_argument("--eval", help="evaluate the gist at comma-separated z values")
    p.add_argument("--json", action="store_true")
    p.add_argument("--dump-system", metavar="PATH", help="write the linear system A|b as CSV")
    p.set_defaults(fn=cmd_gist)

    p = sub.add_parser("dims", help="dimension table for a multiplicity structure")
    p.add_argument("--mu", required=True)
    p.add_argument("--delta", required=True, help="single value or range lo..hi")
    p.add_argument("--basis", choices=symfun.BASIS_KINDS, default="e")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_dims)

    p = sub.add_parser("ideal", help="relations among the specialized generators")
    p.add_argument("--mu", required=True)
    p.add_argument("--basis", choices=("e", "p", "c"), default="e")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_ideal)

    p = sub.add_parser("canonize", help="canonical sequence and quotient matrix")
    p.add_argument("--mu", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--basis", choices=symfun.BASIS_KINDS, default="e")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_canonize)

    p = sub.add_parser("bench", help="timing table over a suite of inputs")
    p.add_argument("suite", nargs="?", help="JSON suite file; omit for the built-in suite")
    p.add_argument("--csv", metavar="PATH", help="also write the rows as CSV")
    p.add_argument("--check", action="store_true", help="enforce cross-algorithm agreement")
    p.add_argument("--repeat", type=int, default=3, help="repetitions per timing (median)")
    p.set_defaults(fn=cmd_bench)

    return parser


PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
