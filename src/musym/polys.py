"""Sparse multivariate polynomials over the rationals.

Variables live in named spaces: ``x`` (formal roots), ``r`` (distinct
roots) and ``z`` (generator symbols).  A variable is a pair ``(space,
index)`` with a 1-based index.  A term is a sorted tuple of ``(space,
index, exponent)`` entries with all exponents positive; the empty tuple
is the constant term 1.  A polynomial is an immutable mapping from
terms to nonzero rational coefficients.

All arithmetic is exact.  Every coefficient is a ``fractions.Fraction``
(``rat``), a reduced fraction with positive denominator.  The packed
kernels behind the cr, ls and dims routes (``symfun.spec_basis``, the
canonical sequences and the reduce sweep in ``reduction``, and
``linsys``'s elimination) hold Python ints internally and meet these
rationals only at their edges.  Every product of two non-constant
polynomials crosses the ``densify``/``undensify`` boundary to the packed
ring and back, so an operand exponent above 32767 is refused.  At the
edges every ``{term: coeff}`` dict grows by one rule, ``_accumulate``:
add each (term, coeff) in place and drop a term that cancels, as
``_packed.submul`` does for packed dicts.

``parse_poly`` has two readers, and both fill a plain ``{term: coeff}``
dict from which one Polynomial is built at the end.  Text that is a flat
sum of monomials, the form ``format_poly`` writes, is scanned term by
term with one regular expression.  Any other text (parentheses, a power
of a sum, a coefficient after a variable) takes one walk of
``ast.parse``'s tree, with loops along the ``+ -`` and ``* /`` chains;
only a factor of several terms is multiplied out.
"""

from __future__ import annotations

import ast
import re
from fractions import Fraction as Rational
from typing import Callable, Iterable

rat = Rational

SPACES = ("x", "r", "z")

Var = tuple[str, int]
Term = tuple[tuple[str, int, int], ...]


def rat_from_str(text: str):
    """Parse ``"num"`` or ``"num/den"`` into an exact rational."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return rat(int(num), int(den))
    return rat(int(text))


def term_from_exps(exps: dict[Var, int] | Iterable[tuple[Var, int]]) -> Term:
    items = exps.items() if isinstance(exps, dict) else exps
    out = []
    for (space, index), exp in items:
        if space not in SPACES:
            raise ValueError(f"unknown variable space {space!r}")
        if index < 1:
            raise ValueError("variable indices are 1-based")
        if exp < 0:
            raise ValueError("negative exponent")
        if exp:
            out.append((space, index, exp))
    return tuple(sorted(out))


def term_degree(t: Term) -> int:
    return sum(e for _, _, e in t)


def term_to_str(t: Term) -> str:
    if not t:
        return "1"
    return "*".join(f"{s}{i}" + (f"^{e}" if e > 1 else "") for s, i, e in t)


def _display_key(t: Term):
    # high total degree first, then r1^2 ahead of r1*r2 ahead of r2^2
    return (-term_degree(t), tuple((s, i, -e) for s, i, e in t))


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: dict[Term, object] | None = None):
        clean: dict[Term, object] = {}
        if coeffs:
            for term, c in coeffs.items():
                q = c if isinstance(c, Rational) else rat(c)
                if q != 0:
                    clean[term] = q
        object.__setattr__(self, "_c", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def constant(c) -> "Polynomial":
        return Polynomial({(): c})

    @staticmethod
    def variable(space: str, index: int) -> "Polynomial":
        return Polynomial({term_from_exps({(space, index): 1}): 1})

    @staticmethod
    def monomial(term: Term, coeff=1) -> "Polynomial":
        return Polynomial({term: coeff})

    # -- inspection --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def is_constant(self) -> bool:
        return not self._c or (len(self._c) == 1 and () in self._c)

    def constant_value(self):
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return self._c.get((), rat(0))

    def coeff(self, term: Term):
        return self._c.get(term, rat(0))

    def terms(self) -> list[tuple[Term, object]]:
        """Support with coefficients, in the canonical display order."""
        return sorted(self._c.items(), key=lambda kv: _display_key(kv[0]))

    def items(self):
        """Support with coefficients, unordered (cheap iteration)."""
        return self._c.items()

    def support(self) -> set[Term]:
        return set(self._c)

    def variables(self) -> set[Var]:
        return {(s, i) for t in self._c for s, i, _ in t}

    def __len__(self) -> int:
        return len(self._c)

    def total_degree(self) -> int:
        if not self._c:
            raise ValueError("degree of the zero polynomial is undefined")
        return max(term_degree(t) for t in self._c)

    # -- ring operations ---------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self._c == other._c
        if isinstance(other, (int, Rational)):
            return self._c == Polynomial.constant(other)._c
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __bool__(self) -> bool:
        return bool(self._c)

    def __pos__(self) -> "Polynomial":
        return self

    def __neg__(self) -> "Polynomial":
        return Polynomial({t: -c for t, c in self._c.items()})

    def __add__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _raw(_accumulate(dict(self._c), other._c.items()))

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._c or not other._c:
            return Polynomial()
        if other.is_constant:
            k = other.constant_value()
            return Polynomial({t: c * k for t, c in self._c.items()})
        if self.is_constant:
            k = self.constant_value()
            return Polynomial({t: c * k for t, c in other._c.items()})
        # one packed product: densify refuses an operand exponent above
        # _packed.MAX_EXP, and undensify divides once
        from . import _packed

        ring = _packed.ring_for(self.variables() | other.variables())
        (d1, den1), (d2, den2) = ring.densify(self), ring.densify(other)
        return ring.undensify(_packed.mul(d1, d2), den1 * den2)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if not other.is_constant:
                raise ValueError("can only divide by a constant")
            other = other.constant_value()
        if other == 0:
            raise ZeroDivisionError("division by zero")
        inv = rat(1) / rat(other) if not isinstance(other, Rational) else rat(1) / other
        return Polynomial({t: c * inv for t, c in self._c.items()})

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- substitution and evaluation ---------------------------------

    def evaluate(self, values: dict[Var, object]):
        """Evaluate at rational values; every variable must be assigned."""
        total = rat(0)
        for t, c in self._c.items():
            prod = c
            for s, i, e in t:
                if (s, i) not in values:
                    raise ValueError(f"no value for {s}{i}")
                prod = prod * rat(values[(s, i)]) ** e
            total += prod
        return total

    def __repr__(self) -> str:
        return f"Polynomial({format_poly(self)})"

    def __str__(self) -> str:
        return format_poly(self)


def _accumulate(out: dict[Term, object], items: Iterable[tuple[Term, object]]) -> dict[Term, object]:
    """Add each (term, coeff) of items into out in place, dropping a term
    whose coefficient cancels; returns out."""
    for t, c in items:
        s = out.get(t, 0) + c
        if s:
            out[t] = s
        else:
            out.pop(t, None)
    return out


def _raw(coeffs: dict[Term, object]) -> Polynomial:
    p = Polynomial()
    object.__setattr__(p, "_c", coeffs)
    return p


def _coerce(value):
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Rational)):
        return Polynomial.constant(value)
    return NotImplemented


# -- the term order ---------------------------------------------------

# The one term order is lex on a fixed ranking of the variables: every r
# variable above every x variable, every x above every z; within r and
# within x the highest index is most significant, within z it is z1.  A
# term containing an r variable thus dominates every r-free term, so an
# r-free normal form certifies elimination; putting z1 first matches the
# reduced bases this library is tested against.
_SPACE_RANK = {"r": 2, "x": 1, "z": 0}


def var_rank(v: Var) -> tuple[int, int]:
    """Sort key of a variable in the ranking; larger is more significant."""
    space, index = v
    return _SPACE_RANK[space], -index if space == "z" else index


def term_key(t: Term) -> tuple:
    """Sort key of a term in the term order."""
    return tuple(sorted(((var_rank((s, i)), e) for s, i, e in t), reverse=True))


def leading(p: Polynomial) -> tuple[Term, object]:
    """Leading (term, coefficient) of a nonzero polynomial."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no leading term")
    t = max(p.support(), key=term_key)
    return t, p.coeff(t)


# -- weights and homogeneity ------------------------------------------

WeightFn = Callable[[str, int], int]


def unit_weight(space: str, index: int) -> int:
    return 1


def gist_weight(space: str, index: int) -> int:
    """z_i weighs i; everything else weighs 1.

    Under this weighting the degree of a z-polynomial equals the total
    degree of the symmetric polynomial it denotes.
    """
    return index if space == "z" else 1


def term_wdeg(t: Term, w: WeightFn = unit_weight) -> int:
    return sum(e * w(s, i) for s, i, e in t)


def wdeg(p: Polynomial, w: WeightFn = unit_weight) -> int:
    """Maximum weighted degree over the support; undefined for 0."""
    if p.is_zero:
        raise ValueError("weighted degree of the zero polynomial is undefined")
    return max(term_wdeg(t, w) for t in p.support())


def homogeneous_parts(p: Polynomial, w: WeightFn = unit_weight) -> list[tuple[int, Polynomial]]:
    """Split into weighted-homogeneous parts, degrees strictly increasing."""
    buckets: dict[int, dict[Term, object]] = {}
    for t, c in p.items():
        buckets.setdefault(term_wdeg(t, w), {})[t] = c
    return [(d, Polynomial(buckets[d])) for d in sorted(buckets)]


# -- text form ---------------------------------------------------------


def format_poly(p: Polynomial) -> str:
    """Canonical text form, e.g. ``z1^2 - z2`` or ``-27/2*z3``."""
    if p.is_zero:
        return "0"
    pieces = []
    for t, c in p.terms():
        neg = c < 0
        mag = -c if neg else c
        if not t:
            body = str(mag)
        elif mag == 1:
            body = term_to_str(t)
        else:
            body = f"{mag}*{term_to_str(t)}"
        if not pieces:
            pieces.append(f"-{body}" if neg else body)
        else:
            pieces.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(pieces)


def parse_poly(text: str) -> Polynomial:
    """Parse the canonical text form.

    Accepts ``+ - * / ^`` (also ``**``), parentheses, integer literals
    and variables like ``r1``, ``z12``.  Division is restricted to
    constant divisors.  Text nested deeper than Python's parser can
    follow raises ValueError, like any other bad text.

    A flat sum of monomials is scanned in one pass: runs of ``+`` and
    ``-``, each term an optional integer or ``n/d`` coefficient followed
    by ``*``-joined powers ``v^e`` or ``v**e`` of x, r and z variables,
    with ASCII digits, no leading zeros and spaces only.  Every other
    text, and a flat one with a zero denominator or an integer past
    Python's digit limit, is read by walking ``ast.parse``'s tree.  Both
    readers give the same polynomial and the same error for a text they
    both take; a flat sum too long or too deeply signed for Python's
    parser is scanned all the same.
    """
    source = text.replace("^", "**").strip()
    if not source:
        raise ValueError("empty polynomial text")
    coeffs = _scan(source)
    return Polynomial(_walk(source, text) if coeffs is None else coeffs)


def _walk(source: str, text: str) -> dict[Term, object]:
    """{term: nonzero coeff} of any text, read from ``ast.parse``'s tree."""
    quoted = _quote(text)
    try:
        node = ast.parse(source, mode="eval").body
    except SyntaxError as exc:
        if exc.msg == "too many nested parentheses":  # the tokenizer's depth limit
            raise ValueError(_TOO_DEEP) from None
        raise ValueError(f"cannot parse polynomial: {quoted}") from exc
    except (RecursionError, MemoryError):  # the parser's depth and stack limits
        raise ValueError(_TOO_DEEP) from None
    # Python folds a name by NFKC, "r１" into "r1", so a name whose text
    # spans more bytes than its id was folded
    if not source.isascii():
        for name in ast.walk(node):
            if isinstance(name, ast.Name) and name.end_col_offset - name.col_offset != len(name.id.encode()):
                raise ValueError(f"unknown variable {_quote(ast.get_source_segment(source, name))}")
    try:
        return _sum(node, quoted)
    except RecursionError:
        raise ValueError(_TOO_DEEP) from None


_TOO_DEEP = "polynomial text nests too deeply"

# one item of a flat sum: a run of signs, which starts a term, a "*", or
# nothing at the start of the text; then an integer or n/d coefficient, or
# a variable with an optional power
_ITEM = re.compile(
    r"([-+][-+ ]*|\* *)?"
    r"(?:(0|[1-9][0-9]*)(?: */ *(0|[1-9][0-9]*))?|([xrz])([1-9][0-9]*)(?: *\*\* *(0|[1-9][0-9]*))?) *"
)


def _scan(source: str) -> dict[Term, object] | None:
    """{term: nonzero coeff} of a flat sum of monomials, read item by item,
    or None for a text the ast walk must read."""
    out: dict[Term, object] = {}
    coeff, exps, pos = None, {}, 0
    try:
        while pos < len(source):
            item = _ITEM.match(source, pos)
            if item is None:
                return None
            sep, num, den, space, index, exp = item.groups()
            if sep is None or sep[0] != "*":  # a new term
                if sep is None and pos:
                    return None  # two items with nothing between
                _add_term(out, coeff, exps)
                coeff, exps = -1 if sep and sep.count("-") % 2 else 1, {}
            elif num is not None or not pos:
                return None  # a coefficient after "*", or a leading "*"
            if num is not None:
                if den == "0":
                    return None
                coeff *= int(num) if den is None else rat(int(num), int(den))
            else:
                key = (space, int(index))
                exps[key] = exps.get(key, 0) + (1 if exp is None else int(exp))
            pos = item.end()
    except ValueError:  # an integer past Python's digit limit
        return None
    _add_term(out, coeff, exps)
    return out


def _add_term(out: dict[Term, object], coeff, exps: dict) -> None:
    if coeff:
        t = tuple(sorted((s, i, e) for (s, i), e in exps.items() if e))
        _accumulate(out, ((t, coeff),))


def _quote(text: str) -> str:
    """text as an error message shows it: whole up to 80 characters,
    else its two ends and its length."""
    if len(text) <= 80:
        return repr(text)
    return f"{text[:40] + ' ... ' + text[-30:]!r} ({len(text)} characters)"


_NAME = re.compile(r"([xrz])([0-9]+)")


def _variable(name: str) -> Var | None:
    """(space, index) of a variable name such as ``r12``, or None: the
    index must be ASCII digits within Python's digit limit."""
    match = _NAME.fullmatch(name)
    try:
        return (match[1], int(match[2])) if match else None
    except ValueError:  # an index past Python's digit limit
        return None


# the operators of the language; _sum reads any node made of them
_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.UAdd, ast.USub)


def _sum(node, quoted: str) -> dict[Term, object]:
    """{term: nonzero coeff} of an expression; its + and - chain is a loop."""
    spine = []
    while isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        spine.append(node)
        node = node.left
    out = _product(node, quoted)
    for n in reversed(spine):
        sign = -1 if isinstance(n.op, ast.Sub) else 1
        _accumulate(out, ((t, sign * c) for t, c in _product(n.right, quoted).items()))
    return out


def _product(node, quoted: str) -> dict[Term, object]:
    """{term: nonzero coeff} of a product; its * and / chain is a loop.
    Single-term factors fold into one coefficient and one exponent map."""
    spine = []
    while isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div)):
        spine.append(node)
        node = node.left
    coeff, exps, multi = 1, {}, []
    for div, factor in [(False, node)] + [(isinstance(n.op, ast.Div), n.right) for n in reversed(spine)]:
        if div:
            d = _sum(factor, quoted)
            if d.keys() - {()}:
                raise ValueError(f"division by a non-constant in {quoted}")
            if not d:
                raise ValueError(f"division by zero in {quoted}")
            coeff = rat(coeff) / d[()]
            continue
        while isinstance(factor, ast.UnaryOp) and isinstance(factor.op, (ast.UAdd, ast.USub)):
            if isinstance(factor.op, ast.USub):
                coeff = -coeff
            factor = factor.operand
        base, k = factor, 1
        if isinstance(factor, ast.BinOp) and isinstance(factor.op, ast.Pow):
            base = factor.left
        d = _factor(base, quoted)
        if base is not factor:
            k = factor.right
            if not (isinstance(k, ast.Constant) and type(k.value) is int):
                raise ValueError(f"exponent must be an integer literal in {quoted}")
            k = k.value
        if len(d) > 1:
            multi.append((d, k))
        else:
            t, c = next(iter(d.items()), ((), 0))
            coeff *= c**k
            for s, i, e in t:
                exps[s, i] = exps.get((s, i), 0) + e * k
    out = {tuple(sorted((s, i, e) for (s, i), e in exps.items() if e)): coeff} if coeff else {}
    for d, k in multi:
        out = (Polynomial(out) * Polynomial(d) ** k)._c
    return out


def _factor(node, quoted: str) -> dict[Term, object]:
    """{term: nonzero coeff} of a power's base, or of a factor without sign."""
    if isinstance(node, ast.Name):
        var = _variable(node.id)
        if var and var[1] >= 1:
            return {((*var, 1),): 1}
        raise ValueError(f"unknown variable {_quote(node.id)}")
    if isinstance(node, ast.Constant):
        if type(node.value) is int:  # not a bool
            return {(): node.value} if node.value else {}
        raise ValueError(f"non-integer literal in {quoted}")
    if isinstance(node, (ast.BinOp, ast.UnaryOp)):
        if isinstance(node.op, _OPS):
            return _sum(node, quoted)
        # an error inside the operands comes first, as the text reads
        for operand in (node.left, node.right) if isinstance(node, ast.BinOp) else (node.operand,):
            _sum(operand, quoted)
        raise ValueError(f"unsupported operator in {quoted}")
    raise ValueError(f"cannot parse polynomial: {quoted}")


# -- JSON form ---------------------------------------------------------


def poly_to_obj(p: Polynomial) -> list[dict]:
    """JSON-ready form: [{"coeff": "num/den", "exps": {"r1": 2}}, ...]."""
    out = []
    for t, c in p.terms():
        out.append({
            "coeff": str(c),
            "exps": {f"{s}{i}": e for s, i, e in t},
        })
    return out
