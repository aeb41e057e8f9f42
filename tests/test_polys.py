import pytest
from conftest import oracle_term_product
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from musym import _packed
from musym._packed import ring_for
from musym.polys import _scan, _walk
from musym.polys import (
    SPACES,
    Polynomial,
    format_poly,
    gist_weight,
    homogeneous_parts,
    is_homogeneous,
    leading,
    parse_poly,
    poly_from_obj,
    poly_to_obj,
    rat,
    rat_from_str,
    term_from_exps,
    term_key,
    wdeg,
)

P = parse_poly


def test_rational_invariants():
    q = rat(6, -4)
    assert q.numerator == -3 and q.denominator == 2
    assert rat(0, 7) == 0 and rat(0, 7).denominator == 1
    assert rat_from_str("9/6") == rat(3, 2)
    assert rat_from_str("-5") == rat(-5)
    with pytest.raises(ValueError):
        rat_from_str("1/0")


def test_add_cancellation():
    assert P("x1 + x2") + P("-x2") == P("x1")


def test_difference_of_squares():
    assert P("x1 + x2") * P("x1 - x2") == P("x1^2 - x2^2")


def test_zero_annihilates():
    p = P("3*r1^2 - r2")
    assert Polynomial.zero() * p == Polynomial.zero()
    assert (p - p).is_zero


def test_pow_and_scalar_ops():
    assert P("r1 + 1") ** 3 == P("r1^3 + 3*r1^2 + 3*r1 + 1")
    assert 2 * P("r1") / 4 == P("r1") / 2
    with pytest.raises(ValueError):
        P("r1") ** -1


def test_leading_elementary():
    n = 4
    e1 = sum((Polynomial.variable("x", i) for i in range(1, n + 1)), Polynomial.zero())
    t, c = leading(e1)
    assert t == term_from_exps({("x", n): 1}) and c == 1


def test_leading_e1_e2_product():
    n = 4
    xs = [Polynomial.variable("x", i) for i in range(1, n + 1)]
    e1 = sum(xs, Polynomial.zero())
    e2 = sum((xs[i] * xs[j] for i in range(n) for j in range(i + 1, n)), Polynomial.zero())
    t, _ = leading(e1 * e2)
    assert t == term_from_exps({("x", n): 2, ("x", n - 1): 1})


def test_leading_constant_and_zero():
    t, c = leading(Polynomial.constant(5))
    assert t == () and c == 5
    with pytest.raises(ValueError):
        leading(Polynomial.zero())


def test_wdeg_examples():
    assert wdeg(P("z1^3"), gist_weight) == 3
    p = P("z1*z2 + z3")
    assert wdeg(p, gist_weight) == 3
    assert is_homogeneous(p, gist_weight)
    # direct formula: z2^2 weighs 2*2, z1 weighs 1
    assert wdeg(P("z2^2 + z1"), gist_weight) == 4
    with pytest.raises(ValueError):
        wdeg(Polynomial.zero(), gist_weight)


def test_wdeg_defaults_to_total_degree():
    assert wdeg(P("r1^2*r2 + r2")) == 3
    assert P("r1^2*r2 + r2").total_degree() == 3


def test_homogeneous_parts_split():
    parts = homogeneous_parts(P("r1^2 + r1"))
    assert parts == [(1, P("r1")), (2, P("r1^2"))]


def test_homogeneous_parts_single():
    p = P("r1^2 + r1*r2")
    assert homogeneous_parts(p) == [(2, p)]


def test_weighted_homogeneous_constraint():
    # a relation among specialized generators is weighted homogeneous
    h = P("z1^3 + 8*z3 - 4*z1*z2")
    parts = homogeneous_parts(h, gist_weight)
    assert len(parts) == 1 and parts[0][0] == 3


def test_product_order_ranks_r_first():
    # any term with an r variable beats every r-free term
    assert term_key(term_from_exps({("r", 1): 1})) > term_key(term_from_exps({("z", 3): 5}))
    # z1 outranks z5 on the elimination side
    assert term_key(term_from_exps({("z", 1): 1})) > term_key(term_from_exps({("z", 5): 1}))


def test_lex_directions():
    assert term_key(term_from_exps({("x", 2): 1})) > term_key(term_from_exps({("x", 1): 9}))
    assert term_key(term_from_exps({("z", 1): 1})) > term_key(term_from_exps({("z", 2): 9}))


variables = st.tuples(st.sampled_from(SPACES), st.integers(1, 4))
terms = st.dictionaries(variables, st.integers(1, 3), max_size=4).map(term_from_exps)


@settings(max_examples=200, deadline=None)
@given(terms, terms)
def test_term_key_is_the_packed_order(s, t):
    ring = ring_for({(sp, i) for sp, i, _ in s + t})
    assert (term_key(s) < term_key(t)) == (ring.pack_term(s) < ring.pack_term(t))
    assert (term_key(s) == term_key(t)) == (s == t)


def test_format_examples():
    assert format_poly(P("z1^2 - z2")) == "z1^2 - z2"
    assert format_poly(P("-z1^3 + 9/2*z1*z2 - 27/2*z3")) == "-z1^3 + 9/2*z1*z2 - 27/2*z3"
    assert format_poly(Polynomial.zero()) == "0"
    assert format_poly(P("3*r1^2 + 2*r1*r2 + r2^2")) == "3*r1^2 + 2*r1*r2 + r2^2"


def test_parse_rejects_garbage():
    for bad, message in (
        ("", "empty polynomial text"),
        ("q1 + 1", "unknown variable 'q1'"),
        ("r1 +", "cannot parse polynomial: 'r1 +'"),
        ("r0", "unknown variable 'r0'"),
        ("r1^x", "exponent must be an integer literal in 'r1^x'"),
        ("(r1", "cannot parse polynomial: '(r1'"),
        ("r1/r2", "division by a non-constant in 'r1/r2'"),
        ("1.5*r1", "non-integer literal in '1.5*r1'"),
        ("r1/0", "division by zero in 'r1/0'"),
        ("r1/(r1-r1)", "division by zero in 'r1/(r1-r1)'"),
        ("True", "non-integer literal in 'True'"),
        ("False", "non-integer literal in 'False'"),
        # an index of non-ASCII digits; Python's parser folds the
        # fullwidth ones into ASCII, the text is what counts
        ("r\u0661", "unknown variable 'r\u0661'"),
        ("r1 + r\uff11", "unknown variable 'r\uff11'"),
        ("\uff52" + "1", "unknown variable '\uff52" + "1'"),
    ):
        with pytest.raises(ValueError) as exc:
            parse_poly(bad)
        assert str(exc.value) == message, bad


def test_parse_errors_quote_long_text_by_its_ends():
    # up to 80 characters the text is quoted whole; past that, its first 40
    # and last 30 characters and its length
    text = " + ".join(f"r{i % 3 + 1}^{i % 5}" for i in range(2000)) + " +"
    with pytest.raises(ValueError) as exc:
        parse_poly(text)
    assert str(exc.value) == f"cannot parse polynomial: {text[:40] + ' ... ' + text[-30:]!r} ({len(text)} characters)"
    assert len(str(exc.value)) < 130
    for bad, message in (
        ("r1/" + "+".join(["r2"] * 40), "division by a non-constant in 'r1/r2+r2+r2+r2+r2+r2+r2+r2+r2+r2+r2+r2+r ... +r2+r2+r2+r2+r2+r2+r2+r2+r2+r2' (122 characters)"),
        ("r1 + " * 15 + "r12 +", "cannot parse polynomial: '" + "r1 + " * 15 + "r12 +'"),  # 80 characters
        ("1" * 80 + "x", "cannot parse polynomial: '" + "1" * 40 + " ... " + "1" * 29 + "x' (81 characters)"),
        # an index past Python's digit limit (4300 by default)
        ("r" + "1" * 5000, "unknown variable 'r" + "1" * 39 + " ... " + "1" * 30 + "' (5001 characters)"),
    ):
        with pytest.raises(ValueError) as exc:
            parse_poly(bad)
        assert str(exc.value) == message, bad
    for name, message in (
        ("r\u00b2", "bad variable name 'r\u00b2'"),
        ("q1", "bad variable name 'q1'"),
        ("r" + "1" * 5000, "bad variable name 'r" + "1" * 39 + " ... " + "1" * 30 + "' (5001 characters)"),
    ):
        with pytest.raises(ValueError) as exc:
            poly_from_obj([{"coeff": "1", "exps": {name: 1}}])
        assert str(exc.value) == message, name


def test_parse_parenthesis_depth_is_too_deep():
    # the tokenizer takes 200 nested parentheses and refuses 201
    r1 = Polynomial.variable("r", 1)
    assert parse_poly("(" * 200 + "r1" + ")" * 200) == r1
    with pytest.raises(ValueError, match="^polynomial text nests too deeply$"):
        parse_poly("(" * 201 + "r1" + ")" * 201)


def test_parse_division_and_parens():
    assert P("(2*r1 + 4*r2)/2") == P("r1 + 2*r2")
    assert P("r1**2") == P("r1^2")


def test_parse_readings():
    r1, r2 = Polynomial.variable("r", 1), Polynomial.variable("r", 2)
    assert P("-r1^2") == -(r1**2)
    assert P("(-r1)^2") == r1**2
    assert P("r1/2/3") == r1 / 6
    assert P("(r1+r2)^0") == 1
    assert P("0*r1") == 0 and P("0*r1").is_zero
    assert P("r1^0") == 1
    assert P("2*-r1*r2 - -r2") == -2 * r1 * r2 + r2


def test_parse_long_sum():
    # the + chain is walked in a loop, so its length meets no recursion limit
    pieces = [f"{(-1) ** i * (i % 7 + 1)}*r{i % 3 + 1}^{i % 5}*x{i % 2 + 1}" for i in range(1500)]
    expected = Polynomial.zero()
    for piece in pieces:
        c, r, x = piece.split("*")
        expected = expected + int(c) * P(r) * P(x)
    assert parse_poly(" + ".join(pieces)) == expected


def test_parse_too_deep_is_a_value_error():
    # where ast.parse gives up differs by Python version; below it, the
    # text parses, above it, the error is a ValueError, never a RecursionError
    r1 = Polynomial.variable("r", 1)
    for text, value in (
        (" + ".join(["r1"] * 20000), 20000 * r1),
        ("*".join(["r1"] * 20000), r1**20000),
        ("-" * 5000 + "r1", r1),
        ("-" * 100000 + "r1", r1),
    ):
        try:
            p = parse_poly(text)
        except ValueError as exc:
            assert str(exc) == "polynomial text nests too deeply"
        else:
            assert p == value


def test_parse_walk_recursion_is_a_value_error():
    import inspect
    import sys

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        with pytest.raises(ValueError, match="^polynomial text nests too deeply$"):
            parse_poly("(r1 + " * 150 + "r1" + ")" * 150)
    finally:
        sys.setrecursionlimit(limit)


# expression trees over r, x and z variables: a node is ("var", name),
# ("int", c), ("neg", a), (op, a, b) for op in + - *, ("^" or "**", a, k)
# or ("/", a, c) for a nonzero integer c
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "**": 4, "var": 5, "int": 5}


def _exprs():
    leaves = st.one_of(
        st.sampled_from(["r1", "r2", "r3", "x1", "x2", "z1", "z4"]).map(lambda v: ("var", v)),
        st.integers(0, 9).map(lambda c: ("int", c)),
    )

    def grow(kids):
        return st.one_of(
            st.tuples(st.sampled_from(["+", "-", "*"]), kids, kids),
            st.tuples(st.just("neg"), kids),
            st.tuples(st.sampled_from(["^", "**"]), kids, st.integers(0, 3)),
            st.tuples(st.just("/"), kids, st.integers(-6, 6).filter(bool)),
        )

    return st.recursive(leaves, grow, max_leaves=10)


def _render(node) -> str:
    """Text with the fewest parentheses that keep the tree's shape."""
    kind = node[0]
    if kind in ("var", "int"):
        return str(node[1])

    def wrap(child, tighter: int) -> str:
        text = _render(child)
        return f"({text})" if _PREC[child[0]] < tighter else text

    if kind == "neg":
        return "-" + wrap(node[1], _PREC["neg"])
    if kind in ("^", "**"):
        return f"{wrap(node[1], _PREC['var'])}{kind}{node[2]}"
    if kind == "/":
        c = node[2]
        return f"{wrap(node[1], _PREC['/'])}/{c if c > 0 else f'({c})'}"
    return f"{wrap(node[1], _PREC[kind])} {kind} {wrap(node[2], _PREC[kind] + 1)}"


def _build(node) -> Polynomial:
    kind = node[0]
    if kind == "var":
        return Polynomial.variable(node[1][0], int(node[1][1:]))
    if kind == "int":
        return Polynomial.constant(node[1])
    if kind == "neg":
        return -_build(node[1])
    if kind in ("^", "**"):
        return _build(node[1]) ** node[2]
    if kind == "/":
        return _build(node[1]) / node[2]
    a, b = _build(node[1]), _build(node[2])
    return a + b if kind == "+" else a - b if kind == "-" else a * b


@settings(max_examples=300, deadline=None)
@given(_exprs())
def test_parse_matches_polynomial_operators(tree):
    assert parse_poly(_render(tree)) == _build(tree)


# flat sums of monomials, the text the scan reads: sign runs, an optional
# integer or n/d coefficient, powers of x, r and z variables joined by "*",
# and zero, one or two spaces around every operator
_SIGN_RUNS = ("+", "-", "+ -", "--", "- -", "-+-")


@st.composite
def _flat_texts(draw):
    def gap():
        return draw(st.sampled_from(("", " ", "  ")))

    pieces = []
    for n in range(draw(st.integers(1, 5))):
        sign = draw(st.sampled_from(_SIGN_RUNS if n else ("",) + _SIGN_RUNS))
        factors = []
        num = draw(st.one_of(st.none(), st.integers(0, 40)))
        if num is not None:
            den = draw(st.one_of(st.none(), st.integers(1, 12)))
            factors.append(str(num) if den is None else f"{num}{gap()}/{gap()}{den}")
        for _ in range(draw(st.integers(0 if factors else 1, 4))):
            var = draw(st.sampled_from(SPACES)) + str(draw(st.sampled_from((1, 2, 3, 12))))
            op = draw(st.sampled_from(("", "^", "**")))
            factors.append(var + (op and f"{gap()}{op}{gap()}{draw(st.integers(0, 4))}"))
        pieces.append(f"{gap()}{sign}{gap()}" + f"{gap()}*{gap()}".join(factors))
    return "".join(pieces)


@settings(max_examples=300, deadline=None)
@given(_flat_texts())
def test_scan_matches_the_ast_walk(text):
    source = text.replace("^", "**").strip()
    coeffs = _scan(source)
    assert coeffs is not None, text
    assert parse_poly(text) == Polynomial(coeffs) == Polynomial(_walk(source, text))


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="rxz0123+-*/^ ", min_size=1, max_size=14))
def test_scan_never_changes_a_reading(text):
    # short texts over the scan's alphabet, mostly not polynomials: the
    # scan reads the same polynomial as the walk, or leaves the text to it
    def reading(read):
        try:
            return read()
        except ValueError as exc:
            return str(exc)

    source = text.replace("^", "**").strip()
    assume(source)
    assert reading(lambda: parse_poly(text)) == reading(lambda: Polynomial(_walk(source, text)))


def test_parse_flat_looking_text_takes_the_walk():
    # each text is left by the scan to the ast walk, which reads it as
    # before: leading zeros, a zero denominator, a power of a power, a
    # coefficient after a variable, a tab, a comment, an integer past
    # Python's digit limit (4300 by default)
    r1, r2 = Polynomial.variable("r", 1), Polynomial.variable("r", 2)
    digits = "1" * 5000 + "*r1"
    for text, expected in (
        ("00*r1", 0),
        ("r01", r1),
        ("1/0*r1", "division by zero in '1/0*r1'"),
        ("r1^2^3", "exponent must be an integer literal in 'r1^2^3'"),
        ("r1*2", 2 * r1),
        ("r1 +\tr2", r1 + r2),
        ("r1 # comment", r1),
        (digits, f"cannot parse polynomial: {digits[:40] + ' ... ' + digits[-30:]!r} (5003 characters)"),
    ):
        assert _scan(text.replace("^", "**")) is None, text
        if isinstance(expected, str):
            with pytest.raises(ValueError) as exc:
                parse_poly(text)
            assert str(exc.value) == expected
        else:
            assert parse_poly(text) == expected


def test_evaluate():
    p = P("z1^2 - z2")
    assert p.evaluate({("z", 1): rat(3), ("z", 2): rat(1)}) == 8
    with pytest.raises(ValueError):
        p.evaluate({("z", 1): rat(3)})


def test_substitute():
    p = P("z1^2 - z2")
    out = p.substitute({("z", 1): P("r1 + r2"), ("z", 2): P("r1*r2")})
    assert out == P("r1^2 + r1*r2 + r2^2")


coeffs = st.integers(min_value=-6, max_value=6)


@st.composite
def polys(draw, nvars=2, space="r"):
    n_terms = draw(st.integers(0, 4))
    d = {}
    for _ in range(n_terms):
        exps = {}
        for i in range(1, nvars + 1):
            e = draw(st.integers(0, 3))
            if e:
                exps[(space, i)] = e
        c = draw(coeffs)
        t = term_from_exps(exps)
        d[t] = d.get(t, 0) + c
    return Polynomial({t: rat(c) for t, c in d.items()})


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, s):
    assert (p + q) + s == p + (q + s)
    assert (p * q) * s == p * (q * s)
    assert p * (q + s) == p * q + p * s
    assert p * q == q * p
    assert p + q == q + p


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_leading_term_multiplicative(p, q):
    if p.is_zero or q.is_zero:
        return
    tp, cp = leading(p)
    tq, cq = leading(q)
    tpq, cpq = leading(p * q)
    assert tpq == oracle_term_product(tp, tq)
    assert cpq == cp * cq


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_wdeg_add_mul(p, q):
    if p.is_zero or q.is_zero:
        return
    assert wdeg(p * q) == wdeg(p) + wdeg(q)
    if not (p + q).is_zero:
        assert wdeg(p + q) <= max(wdeg(p), wdeg(q))


@settings(max_examples=60, deadline=None)
@given(polys(nvars=3, space="z"))
def test_homogeneous_parts_sum_to_identity(p):
    total = Polynomial.zero()
    last = -1
    for d, part in homogeneous_parts(p, gist_weight):
        assert d > last
        last = d
        assert is_homogeneous(part, gist_weight)
        if not part.is_zero:
            assert wdeg(part, gist_weight) == d
        total = total + part
    assert total == p


@settings(max_examples=60, deadline=None)
@given(polys(nvars=3))
def test_text_round_trip(p):
    assert parse_poly(format_poly(p)) == p


@settings(max_examples=60, deadline=None)
@given(polys(nvars=3))
def test_json_round_trip(p):
    assert poly_from_obj(poly_to_obj(p)) == p


@pytest.mark.parametrize(
    "obj, message",
    [
        ([{"coeff": "1", "exps": {"r1": 2.7}}], "bad exponent '2.7' of 'r1'"),
        ([{"coeff": "1", "exps": {"r1": True}}], "bad exponent 'True' of 'r1'"),
        ([{"coeff": "1", "exps": {"r1": "x"}}], "bad exponent \"'x'\" of 'r1'"),
        ([{"coeff": "1e5", "exps": {"r1": 1}}], "bad coefficient '1e5'"),
        ([{"coeff": "x"}], "bad coefficient 'x'"),
        ([{"exps": {"r1": 1}}], "no coeff in \"{'exps': {'r1': 1}}\""),
        ([1], "bad entry '1'"),
        ([{"coeff": 1, "exps": [1]}], "bad entry \"{'coeff': 1, 'exps': [1]}\""),
    ],
)
def test_json_form_refuses_a_bad_exponent_or_coefficient(obj, message):
    # before: 2.7 read as r1^2, True as r1, and the rest leaked int()'s
    # text or a KeyError
    with pytest.raises(ValueError) as exc:
        poly_from_obj(obj)
    assert str(exc.value) == message
    assert poly_from_obj([{"coeff": 3, "exps": {"r1": 2}}, {"coeff": "-1/2"}]) == P("3*r1^2 - 1/2")


def test_multiplication_past_the_packed_exponent_limit_is_refused():
    # every product of two non-constant operands is packed, and r1^40000
    # does not pack
    message = "^exponent 40000 exceeds the limit 32767$"
    with pytest.raises(ValueError, match=message):
        P("r1^40000") * P("r2")
    with pytest.raises(ValueError, match=message):
        parse_poly("(r1^40000 + r2)^2")
    # scaling and adding multiply no terms; a product field of 40000 fits
    # its 16 bits and reads back exactly
    ((t, c),) = P("r1^40000").items()
    assert P("r1^40000") * 3 == Polynomial.monomial(t, 3 * c)
    assert P("r1^40000") + P("r2") == Polynomial({t: c, term_from_exps({("r", 2): 1}): 1})
    base = P("r1^20000 + r2")
    expected = Polynomial.zero()
    for t, c in base.items():
        for u, d in base.items():
            expected = expected + Polynomial.monomial(oracle_term_product(t, u), c * d)
    square = parse_poly("(r1^20000 + r2)^2")
    assert square == expected and square.coeff(term_from_exps({("r", 1): 40000})) == 1


def test_packed_multiplication_matches_generic():
    # the packed product against a termwise expansion by the oracle
    a = (P("r1 + 2*r2 + 3*r3 + 1") ** 4) * P("r1 - r2")
    b = P("r1 - r2")
    direct = Polynomial.zero()
    for t, c in a.items():
        for u, d in b.items():
            direct = direct + Polynomial.monomial(oracle_term_product(t, u), c * d)
    assert a * b == direct


def test_packed_multiplication_drops_a_sum_that_cancelled():
    # (1 + r1 + r1^2)(1 - r1 + r1^2): the r1^2 sum reaches 0 after the
    # second term of the first factor and comes back with the third
    d1 = {0: 1, 1: 1, 2: 1}
    d2 = {0: 1, 1: -1, 2: 1}
    termwise: dict = {}
    for m1, a in d1.items():
        for m2, c in d2.items():
            termwise[m1 + m2] = termwise.get(m1 + m2, 0) + a * c
    product = _packed.mul(d1, d2)
    assert all(product.values())
    assert product == {m: c for m, c in termwise.items() if c} == {0: 1, 2: 1, 4: 1}
    assert _packed.mul({0: 1, 1: 1}, {0: 1, 1: -1}) == {0: 1, 2: -1}
