"""Byte-identical CLI output on the acceptance inputs.

``golden_cli.json`` holds the stdout and exit code of every call in
CALLS, each recorded before the kernel change it guards.  A
change that alters any of them must be deliberate; regenerate with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import json
from pathlib import Path

from musym.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

NEGATIVE = "r1^2*r2 - r1*r2^2"
CALLS = [
    ["gist", f, "--mu", mu, "--algo", algo]
    for mu in ("2,1", "2,2", "3,1", "2,2,1", "3,1,1")
    for f in ("dplus", "delta", NEGATIVE)
    for algo in ("groebner", "cr", "ls")
] + [
    ["gist", "dplus", "--mu", "2,2", "--basis", basis, "--algo", algo]
    for basis in ("p", "c", "m")
    for algo in ("groebner", "cr", "ls")
    if not (basis == "m" and algo == "groebner")
] + [
    ["gist", "dplus", "--mu", "2,2,1", "--eval", "3,1,-3,-1,1"],
    ["gist", "dplus", "--mu", "2,1", "--algo", "cr", "--eval", "1,2,3", "--json"],
    ["dims", "--mu", "2,2", "--delta", "1..6"],
    ["ideal", "--mu", "2,2"],
    ["canonize", "--mu", "2,2,1", "--delta", "4", "--json"],
    # non-unit leads and rational quotient matrices
    ["canonize", "--mu", "3,1,1", "--basis", "p", "--delta", "10", "--json"],
    ["canonize", "--mu", "2,2,2", "--delta", "8", "--json"],
    ["canonize", "--mu", "2,2,1", "--basis", "m", "--delta", "8", "--json"],
    ["dims", "--mu", "1,1,1,1,1", "--delta", "1..9"],
    ["gist", "dplus", "--mu", "3,2,1", "--algo", "cr", "--basis", "p"],
] + [
    # rational, non-homogeneous input: quotients read out over den > 1
    ["gist", "(2*r1+r2)^3/3 - 5*(r1^2+2*r1*r2)/7", "--mu", "2,1", "--algo", "cr", "--basis", basis]
    for basis in ("e", "p", "c", "m")
] + [
    ["gist", "r1^3/5 - 2*r2^3/3 + (r1-r2)^6/11", "--mu", "2,1", "--algo", "cr"],
    ["canonize", "--mu", "2,1", "--basis", "p", "--delta", "5", "--json"],
    # Buchberger run to exhaustion, with non-unit leads under p and c
    ["ideal", "--mu", "3,2"],
    ["ideal", "--mu", "2,1", "--basis", "c"],
    ["ideal", "--mu", "3,1", "--basis", "p"],
] + [
    # rational input: the engine's integer normal form has den > 1
    ["gist", "(2*r1+r2)^3/3 - 5*(r1^2+2*r1*r2)/7", "--mu", "2,1", "--algo", "groebner", "--basis", basis]
    for basis in ("e", "p", "c")
] + [
    # equal multiplicities make equal rows: 19 distinct of 91
    ["gist", "dplus", "--mu", "2,2,2", "--algo", "ls"],
    # the JSON payload of each gist representation: gist_m, a groebner
    # gist, and a rational non-homogeneous m-basis gist
    ["gist", "dplus", "--mu", "2,2", "--basis", "m", "--algo", "cr", "--json"],
    ["gist", "dplus", "--mu", "2,1", "--algo", "groebner", "--json"],
    ["gist", "(2*r1+r2)^3/3 - 5*(r1^2+2*r1*r2)/7", "--mu", "2,1", "--basis", "m", "--algo", "ls", "--json"],
] + [
    # fixed by every swap of equal multiplicities, yet not mu-symmetric:
    # equal rows of A carry equal b, and only a row outside ls's square
    # pivot subsystem tells
    ["gist", f, "--mu", mu, "--basis", basis, "--algo", "ls"]
    for mu, basis, f in (
        ("2,2,1", "e", "r1^5*r2^5 - 3*r1*r2*r3^8 + r3^10"),
        ("2,2,1", "p", "r1^3*r2^3*r3^4 + r1^7*r3^3 + r2^7*r3^3"),
        ("3,1,1", "e", "r2^5*r3^5 + r1^10"),
        ("3,1,1", "p", "r1^4*r2^3*r3^3 - r1^2*(r2^8 + r3^8)"),
    )
] + [
    # rational and non-homogeneous, degree 10 included: b over den > 1
    ["gist", "(2*r1+2*r2+r3)^3/3 - 5*(2*r1^2+2*r2^2+r3^2)/7 + r1^4*r2^4*r3^2/9 + 1/2",
     "--mu", "2,2,1", "--basis", "c", "--algo", "ls"],
] + [
    # S_mu-rich shapes: the canonical systems are built over orbit
    # representatives and expanded for output
    ["canonize", "--mu", "1,1,1,1,1", "--delta", "6", "--json"],
    ["canonize", "--mu", "1,1,1,1,1", "--basis", "c", "--delta", "5", "--json"],
    ["dims", "--mu", "1,1,1,1,1", "--delta", "1..10", "--json"],
] + [
    # the first, second and a later reduce on one degree-6 system
    ["gist", f, "--mu", "1,1,1,1,1", "--algo", "cr"]
    for f in (
        "(r1+r2+r3+r4+r5)^6",
        "r1^6 + r2^5*r3",
        "(r1^2+r2^2+r3^2+r4^2+r5^2)^3/7 - 2*(r1*r2*r3*r4*r5)*(r1+r2+r3+r4+r5)/3",
    )
] + [
    # distinct parts: every monomial is its own orbit representative
    ["canonize", "--mu", "3,2,1", "--delta", "6", "--json"],
] + [
    ["gist", f, "--mu", "3,2,1", "--algo", "cr"]
    for f in ("(3*r1+2*r2+r3)^6 - 2*(3*r1^2+2*r2^2+r3^2)^3/5", "(3*r1+2*r2+r3)^6 + r1^5*r2")
]


def run_calls() -> list[dict]:
    out = []
    for argv in CALLS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(list(argv))
        out.append({"argv": argv, "code": code, "stdout": buf.getvalue()})
    return out


def test_cli_output_matches_golden():
    expected = json.loads(GOLDEN.read_text())
    assert [e["argv"] for e in expected] == CALLS
    for got, want in zip(run_calls(), expected):
        assert (got["code"], got["stdout"]) == (want["code"], want["stdout"]), got["argv"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(run_calls(), indent=1) + "\n")
