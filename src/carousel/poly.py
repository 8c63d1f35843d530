"""Exact multivariate polynomials over the Gaussian rationals.

A polynomial is one integer `den` > 0 over a sparse map `nums` from
exponent vectors to Gaussian-integer numerators (re, im), canonical: no
(0, 0) entry and gcd(den, every part) = 1, so `==` and `hash` compare
the stored form.  Each operation normalises its result once (`_reduce`),
and the integer kernels of gcd, squarefree and resultant read `nums` as
stored; `terms` views the coefficients as `GaussianRational`s.  The
order everywhere is graded lexicographic in the declared variables.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from operator import add, sub
from typing import Sequence

from .gaussian import GaussianRational, ZERO, I, from_integers


class PolynomialError(ValueError):
    pass


class ParseError(PolynomialError):
    """Syntax or symbol error, annotated with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _grlex_key(exps: tuple) -> tuple:
    # graded lexicographic: total degree first, then lex on the exponents
    return (sum(exps), exps)


class Polynomial:
    """Immutable sparse polynomial over Q(i) in a fixed variable tuple:
    Gaussian-integer numerators `nums` over one denominator `den`."""

    __slots__ = ("variables", "den", "nums")

    def __init__(self, variables: Sequence[str], terms: dict):
        variables = tuple(variables)
        if any(len(exps) != len(variables) for exps in terms):
            raise PolynomialError("exponent vector has wrong length")
        coeffs = {tuple(e): GaussianRational.from_value(c) for e, c in terms.items()}
        coeffs = {e: c for e, c in coeffs.items() if not c.is_zero()}
        den = lcm(*(c.d for c in coeffs.values()))
        _make(variables, {e: (c.a * (den // c.d), c.b * (den // c.d))
                          for e, c in coeffs.items()}, den, self)

    def __setattr__(self, *args):
        raise AttributeError("Polynomial is immutable")

    @property
    def terms(self) -> dict:
        """The coefficients as GaussianRationals, in a new dict per call."""
        den = self.den
        return {e: from_integers(re, im, den) for e, (re, im) in self.nums.items()}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "Polynomial":
        return _make(tuple(variables), {}, 1)

    @classmethod
    def constant(cls, variables, value) -> "Polynomial":
        variables = tuple(variables)
        c = GaussianRational.from_value(value)
        nums = {} if c.is_zero() else {(0,) * len(variables): (c.a, c.b)}
        return _make(variables, nums, c.d)

    @classmethod
    def variable(cls, variables, name: str) -> "Polynomial":
        variables = tuple(variables)
        if name not in variables:
            raise PolynomialError(f"unknown symbol {name!r}")
        return _make(variables, {tuple(int(v == name) for v in variables): (1, 0)}, 1)

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.nums)

    def coefficient(self, exps) -> GaussianRational:
        """The coefficient of the monomial with exponent vector `exps`."""
        if exps not in self.nums:
            return ZERO
        re, im = self.nums[exps]
        return from_integers(re, im, self.den)

    def constant_value(self) -> GaussianRational:
        if self.is_zero():
            return ZERO
        if not self.is_constant():
            raise PolynomialError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        if self.is_zero():
            raise PolynomialError("zero polynomial has no degree")
        return max(sum(e) for e in self.nums)

    def degree(self, var: str) -> int:
        i = self._index(var)
        if self.is_zero():
            return -1
        return max(e[i] for e in self.nums)

    def order_at_origin(self) -> int:
        """Minimal total degree over the terms; >= 2 means membership in m^2."""
        if self.is_zero():
            raise PolynomialError("zero polynomial has no order")
        return min(sum(e) for e in self.nums)

    def constant_term(self) -> GaussianRational:
        return self.coefficient((0,) * len(self.variables))

    def _index(self, var: str) -> int:
        try:
            return self.variables.index(var)
        except ValueError:
            raise PolynomialError(f"unknown symbol {var!r}") from None

    def leading(self) -> tuple:
        if self.is_zero():
            raise PolynomialError("zero polynomial has no leading term")
        exps = max(self.nums, key=_grlex_key)
        return exps, self.coefficient(exps)

    def monic(self) -> "Polynomial":
        """Divide by the graded-lex leading coefficient."""
        if self.is_zero():
            return self
        lead = self.nums[max(self.nums, key=_grlex_key)]
        if lead == (self.den, 0):
            return self
        return _divided(self.variables, self.nums, lead)

    # -- arithmetic ----------------------------------------------------

    def _check_same(self, other: "Polynomial"):
        if self.variables != other.variables:
            raise PolynomialError(
                f"variable mismatch: {self.variables} vs {other.variables}"
            )

    def _operand(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction, GaussianRational)):
            return Polynomial.constant(self.variables, other)
        self._check_same(other)
        return other

    def __add__(self, other):
        other = self._operand(other)
        return _sum(self.variables, self.nums, self.den, other.nums, other.den, 1)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.variables, _times(self.nums, -1, 0), self.den)

    def __sub__(self, other):
        other = self._operand(other)
        return _sum(self.variables, self.nums, self.den, other.nums, other.den, -1)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, value) -> "Polynomial":
        """value * self; self itself when value is 1 (polynomials are immutable)."""
        value = GaussianRational.from_value(value)
        if value.is_one():
            return self
        if value.is_zero():
            return Polynomial.zero(self.variables)
        return _reduce(self.variables, _times(self.nums, value.a, value.b), self.den * value.d)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        self._check_same(other)
        return _reduce(self.variables, _product(self.nums, other.nums), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise PolynomialError("negative polynomial power")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return Polynomial.constant(self.variables, 1) if result is None else result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.variables == other.variables and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.variables, self.den, frozenset(self.nums.items())))

    # -- calculus / substitution ----------------------------------------

    def partial_derivative(self, var: str) -> "Polynomial":
        i = self._index(var)
        nums = {}
        for exps, (re, im) in self.nums.items():
            k = exps[i]
            if k:
                nums[exps[:i] + (k - 1,) + exps[i + 1 :]] = (re * k, im * k)
        return _reduce(self.variables, nums, self.den)

    def substitute(self, mapping: dict) -> "Polynomial":
        """Replace variables by polynomials (all over the same target tuple).

        Variables not mentioned must exist in the target variables.  The
        images of the terms are summed over one denominator, the lcm of
        theirs, and normalised once.
        """
        target = None
        for val in mapping.values():
            if isinstance(val, Polynomial):
                target = val.variables
                break
        if target is None:
            raise PolynomialError("substitute needs at least one polynomial value")
        one = Polynomial.constant(target, 1)
        images = []
        for v in self.variables:
            if v in mapping:
                val = mapping[v]
                if not isinstance(val, Polynomial):
                    val = Polynomial.constant(target, val)
                one._check_same(val)
                images.append(val)
            else:
                images.append(Polynomial.variable(target, v))
        powers = [{} for _ in images]  # image^k per variable, as needed
        parts = []
        for exps, c in self.nums.items():
            term = one
            for cache, image, k in zip(powers, images, exps):
                if k:
                    if k not in cache:
                        cache[k] = image**k
                    term = cache[k] if term is one else term * cache[k]
            parts.append((c, term))
        den = lcm(*(term.den for _, term in parts))
        nums: dict = {}
        for (a, b), term in parts:
            s = den // term.den
            for e, (re, im) in _times(term.nums, a * s, b * s).items():
                c = nums.get(e)
                nums[e] = (re, im) if c is None else (c[0] + re, c[1] + im)
        return _reduce(target, nums, den * self.den)

    def eliminate_variable(self, var: str, value) -> "Polynomial":
        """Exact substitution of one variable by a constant (a + b*i)/d;
        drops the variable.  Over d^D, D the degree in it, a term of
        degree k gets the numerator (a + b*i)^k d^(D - k)."""
        i = self._index(var)
        value = GaussianRational.from_value(value)
        a, b, d = value.a, value.b, value.d
        top = max(self.degree(var), 0)
        powers = [(d**top, 0)]
        for _ in range(top):
            re, im = _gmul(powers[-1], (a, b))
            powers.append((re // d, im // d))
        nums: dict = {}
        for exps, c in self.nums.items():
            re, im = _gmul(c, powers[exps[i]])
            new = exps[:i] + exps[i + 1 :]
            prev = nums.get(new, (0, 0))
            nums[new] = (prev[0] + re, prev[1] + im)
        return _reduce(self.variables[:i] + self.variables[i + 1 :], nums, self.den * d**top)

    def shift(self, exps) -> "Polynomial":
        """self times the monomial with exponent vector `exps`; a negative
        entry divides by that variable, which must then divide self."""
        nums = {tuple(map(add, e, exps)): c for e, c in self.nums.items()}
        if any(min(e) < 0 for e in nums):
            raise PolynomialError("inexact polynomial division")
        return _make(self.variables, nums, self.den)

    def in_variables(self, variables) -> "Polynomial":
        """Re-embed into other variables: a variable left out must not occur."""
        variables = tuple(variables)
        pos = []
        for v in self.variables:
            if v in variables:
                pos.append(variables.index(v))
            elif self.degree(v) > 0:
                raise PolynomialError(f"target variables lack {v!r}")
            else:
                # its exponent, 0, goes to a spare slot past the end
                pos.append(len(variables))
        nums = {}
        for exps, c in self.nums.items():
            new = [0] * (len(variables) + 1)
            for p, e in zip(pos, exps):
                new[p] = e
            nums[tuple(new[:-1])] = c
        return _make(variables, nums, self.den)

    # -- univariate views ------------------------------------------------

    def as_univariate(self, var: str) -> list:
        """Dense coefficient list in `var`; entries are polynomials in the rest."""
        i = self._index(var)
        rest = self.variables[:i] + self.variables[i + 1 :]
        rows = [dict() for _ in range(self.degree(var) + 1)]
        for exps, c in self.nums.items():
            rows[exps[i]][exps[:i] + exps[i + 1 :]] = c
        return [_reduce(rest, row, self.den) for row in rows]

    def dense_coefficients(self) -> list:
        """For a univariate polynomial: list of GaussianRational, low to high."""
        if len(self.variables) != 1:
            raise PolynomialError("polynomial is not univariate")
        den = self.den
        return [from_integers(re, im, den) for re, im in _dense_in(self, self.variables[0])]

    # -- printing ---------------------------------------------------------

    def __str__(self):
        if self.is_zero():
            return "0"
        pieces = []
        for exps in sorted(self.nums, key=_grlex_key, reverse=True):
            coeff = self.coefficient(exps)
            mono = "*".join(
                v if k == 1 else f"{v}^{k}"
                for v, k in zip(self.variables, exps)
                if k
            )
            cs = _coeff_str(coeff, bool(mono))
            if mono:
                body = f"{cs}*{mono}" if cs not in ("", "-") else f"{cs}{mono}"
            else:
                body = cs if cs not in ("", "-") else f"{cs}1"
            if pieces:
                if body.startswith("-"):
                    pieces.append(" - " + body[1:])
                else:
                    pieces.append(" + " + body)
            else:
                pieces.append(body)
        return "".join(pieces)

    def __repr__(self):
        return f"Polynomial({self.variables!r}, {str(self)!r})"


def _coeff_str(coeff: GaussianRational, has_monomial: bool) -> str:
    if coeff.is_real():
        if coeff.re == 1 and has_monomial:
            return ""
        if coeff.re == -1 and has_monomial:
            return "-"
        return str(coeff.re)
    if coeff.re == 0:
        if coeff.im == 1:
            return "i"
        if coeff.im == -1:
            return "-i"
        if coeff.im > 0:
            return f"{coeff.im}*i" if not has_monomial else f"({coeff.im}*i)"
        return f"-({-coeff.im}*i)" if has_monomial else f"{coeff.im}*i"
    return f"({coeff})"


# ---------------------------------------------------------------------------
# the stored form: numerator maps over one denominator
# ---------------------------------------------------------------------------

_new = object.__new__
_set_variables = Polynomial.variables.__set__
_set_den = Polynomial.den.__set__
_set_nums = Polynomial.nums.__set__


def _make(variables, nums, den, p=None) -> Polynomial:
    """The polynomial, or `p` filled, whose stored form is canonical."""
    p = _new(Polynomial) if p is None else p
    _set_variables(p, variables)
    _set_nums(p, nums)
    _set_den(p, den)
    return p


def _reduce(variables, nums, den) -> Polynomial:
    """The polynomial nums/den: zero entries dropped, then den and every
    part divided by their gcd, one gcd pass that stops at 1."""
    if (0, 0) in nums.values():
        nums = {e: c for e, c in nums.items() if c != (0, 0)}
    g = den
    for re, im in nums.values():
        if g == 1:
            break
        g = gcd(g, re, im)
    if g != 1:
        nums = {e: (re // g, im // g) for e, (re, im) in nums.items()}
        den //= g
    return _make(variables, nums, den)


def _gmul(p, q):
    """The product of two Gaussian integers (re, im)."""
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def _times(nums, a, b) -> dict:
    """Every numerator times the Gaussian integer a + b*i != 0."""
    return {e: (re * a - im * b, re * b + im * a) for e, (re, im) in nums.items()}


def _divided(variables, nums, lead) -> Polynomial:
    """The polynomial nums / lead, for a Gaussian integer lead != 0:
    nums * conj(lead) over |lead|^2."""
    lr, li = lead
    return _reduce(variables, _times(nums, lr, -li), lr * lr + li * li)


def _sum(variables, n1, d1, n2, d2, sign) -> Polynomial:
    """n1/d1 + sign * n2/d2 over the lcm of the denominators."""
    g = gcd(d1, d2)
    s1, s2 = d2 // g, sign * (d1 // g)
    nums = dict(n1) if s1 == 1 else _times(n1, s1, 0)
    get = nums.get
    for e, (re, im) in n2.items():
        c = get(e)
        nums[e] = (re * s2, im * s2) if c is None else (c[0] + re * s2, c[1] + im * s2)
    return _reduce(variables, nums, d1 * s1)


def _product(n1, n2) -> dict:
    """The numerator map of a product, zero entries kept."""
    acc: dict = {}
    get = acc.get
    pairs = list(n2.items())
    for e1, (a1, b1) in n1.items():
        for e2, (a2, b2) in pairs:
            e = tuple(map(add, e1, e2))
            c = get(e)
            if c is None:
                acc[e] = (a1 * a2 - b1 * b2, a1 * b2 + b1 * a2)
            else:
                acc[e] = (c[0] + a1 * a2 - b1 * b2, c[1] + a1 * b2 + b1 * a2)
    return acc


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# grammar (whitespace insignificant):
#   expr     := ['-'] term (('+'|'-') term)*
#   term     := factor ('*' factor)*
#   factor   := base ('^' uint)?
#   base     := symbol | rational | 'i' | '(' expr ')'
#   rational := int ('/' uint)?
# the optional leading '-' extends the bare grammar so that canonical
# printing of negative leading terms parses back.

# largest total degree the parser builds; beyond it a product or power
# is refused before it is expanded
MAX_DEGREE = 256


def _parsed_degree(p: Polynomial) -> int:
    return 0 if p.is_zero() else p.total_degree()


class _Parser:
    def __init__(self, text: str, variables: tuple):
        self.text = text
        self.pos = 0
        self.variables = variables

    def error(self, message: str):
        raise ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> Polynomial:
        result = self.parse_expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("unexpected trailing input")
        return result

    def parse_expr(self) -> Polynomial:
        negate = False
        if self.peek() == "-":
            self.pos += 1
            negate = True
        result = self.parse_term()
        if negate:
            result = -result
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                result = result + self.parse_term()
            elif ch == "-":
                self.pos += 1
                result = result - self.parse_term()
            else:
                return result

    def parse_term(self) -> Polynomial:
        result = self.parse_factor()
        while self.peek() == "*":
            self.pos += 1
            self.skip_ws()
            start = self.pos
            factor = self.parse_factor()
            if _parsed_degree(result) + _parsed_degree(factor) > MAX_DEGREE:
                self.pos = start
                self.error(f"product degree above {MAX_DEGREE}")
            result = result * factor
        return result

    def parse_factor(self) -> Polynomial:
        base = self.parse_base()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            start = self.pos
            exponent = self.parse_uint("exponent must be a non-negative integer")
            if exponent * max(1, _parsed_degree(base)) > MAX_DEGREE:
                self.pos = start
                self.error(f"power degree above {MAX_DEGREE}")
            return base**exponent
        return base

    def parse_base(self) -> Polynomial:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if ch.isdigit():
            num = self.parse_uint("expected integer")
            if self.peek() == "/":
                self.pos += 1
                self.skip_ws()
                if not self.peek().isdigit():
                    self.error("expected denominator")
                den = self.parse_uint("expected denominator")
                if den == 0:
                    self.error("zero denominator")
                return Polynomial.constant(self.variables, Fraction(num, den))
            return Polynomial.constant(self.variables, num)
        if ch.isalpha():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isalnum():
                self.pos += 1
            name = self.text[start : self.pos]
            if name == "i":
                return Polynomial.constant(self.variables, I)
            if name not in self.variables:
                self.pos = start
                self.error(f"unknown symbol {name!r}")
            return Polynomial.variable(self.variables, name)
        if ch == "":
            self.error("unexpected end of input")
        self.error(f"unexpected character {ch!r}")

    def parse_uint(self, message: str) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error(message)
        return int(self.text[start : self.pos])


def parse_polynomial(text: str, variables) -> Polynomial:
    """Parse `text` into the expanded canonical polynomial over `variables`."""
    return _Parser(text, tuple(variables)).parse()


# ---------------------------------------------------------------------------
# division, gcd, squarefree structure
# ---------------------------------------------------------------------------


def divexact(p: Polynomial, d: Polynomial) -> Polynomial:
    """Exact division p / d; raises if the division leaves a remainder.

    On the numerators P and D, times conj(L) for L the lead of D, so that
    the lead is n = |L|^2.  Each quotient term cancels the remainder's
    leading term; where n does not divide it, the remainder and the
    quotient so far are first scaled by the missing factor, which the
    result's denominator carries.
    """
    p._check_same(d)
    if d.is_zero():
        raise PolynomialError("division by the zero polynomial")
    if d.is_constant():
        return p.scale(d.constant_value().inverse())
    lead = max(d.nums, key=_grlex_key)
    lr, li = d.nums[lead]
    n = lr * lr + li * li
    rest = [(e, c) for e, c in _times(d.nums, lr, -li).items() if e != lead]
    rem = _times(p.nums, lr, -li)
    quotient: dict = {}
    s = 1  # P * s = quotient * D once rem is empty
    while rem:
        r_exps = max(rem, key=_grlex_key)
        q_exps = tuple(map(sub, r_exps, lead))
        if min(q_exps) < 0:
            raise PolynomialError("inexact polynomial division")
        a, b = rem.pop(r_exps)
        t = n // gcd(n, a, b)
        if t != 1:
            rem, quotient = _times(rem, t, 0), _times(quotient, t, 0)
            a, b, s = a * t, b * t, s * t
        qa, qb = a // n, b // n
        quotient[q_exps] = (qa, qb)
        for e, (x, y) in rest:
            exps = tuple(map(add, e, q_exps))
            c = rem.pop(exps, (0, 0))
            c = (c[0] - qa * x + qb * y, c[1] - qa * y - qb * x)
            if c != (0, 0):
                rem[exps] = c
    # p/d = (P/p.den) / (D/d.den) = quotient * d.den / (s * p.den)
    return _reduce(p.variables, _times(quotient, d.den, 0), s * p.den)


def _int_gcd(A: list, B: list) -> list:
    """Gcd, with no integer content, of Gaussian-integer lists (re, im),
    low first, A nonempty with a nonzero last entry.

    Runs a primitive pseudo-remainder sequence (integer content stripped
    per step) to keep the coefficient sizes polynomial instead of
    exponential.
    """
    A = _int_content_strip(A)
    B = _int_content_strip(B)
    if len(A) < len(B):
        A, B = B, A
    while B:
        R = _int_prem_primitive(A, B)
        A, B = B, R
    return A


def _dense_in(p: Polynomial, var: str) -> list:
    """The numerators of p, whose one active variable is `var`, low first."""
    i = p._index(var)
    out = [(0, 0)] * (p.degree(var) + 1)
    for exps, c in p.nums.items():
        out[exps[i]] = c
    return out


def _univariate(variables, i: int, A: list) -> Polynomial:
    """sum A[k] z^k / A[-1], z the i-th of `variables`, for A[-1] != 0."""
    n = len(variables)
    nums = {(0,) * i + (k,) + (0,) * (n - 1 - i): c for k, c in enumerate(A) if c != (0, 0)}
    return _divided(variables, nums, A[-1])


def _int_content_strip(coeffs):
    g = 0
    for re, im in coeffs:
        g = gcd(g, re, im)
        if g == 1:
            return coeffs
    if g in (0, 1):
        return coeffs
    return [(re // g, im // g) for re, im in coeffs]


def _gaussian_primitive(coeffs):
    """Gaussian-integer pairs with no integer content over their content
    in Z[i], up to a unit.

    That content divides n, the gcd of the norms of the coefficients, so
    it is gcd(n, c_0, c_1, ...) in Z[i], and n = 1 rules it out at once.
    """
    n = 0
    for re, im in coeffs:
        n = gcd(n, re * re + im * im)
        if n == 1:
            return coeffs
    h = (n, 0)
    for c in coeffs:
        h = _gaussian_gcd(h, c)
    hr, hi = h
    n = hr * hr + hi * hi
    return [((re * hr + im * hi) // n, (im * hr - re * hi) // n) for re, im in coeffs]


def _gaussian_gcd(a, b):
    """A gcd in Z[i] of Gaussian integers (re, im), by Euclid with the
    rounded quotient, whose remainder has at most half the norm."""
    while b != (0, 0):
        (ar, ai), (br, bi) = a, b
        n = br * br + bi * bi
        qr = (2 * (ar * br + ai * bi) + n) // (2 * n)
        qi = (2 * (ai * br - ar * bi) + n) // (2 * n)
        a, b = b, (ar - qr * br + qi * bi, ai - qr * bi - qi * br)
    return a


def _int_prem_primitive(A, B):
    """Primitive pseudo-remainder of Gaussian-integer coefficient lists."""
    R = list(A)
    lcB = B[-1]
    while R and len(R) >= len(B):
        lcR = R[-1]
        shift = len(R) - len(B)
        R = [_gmul(lcB, c) for c in R]
        for i, c in enumerate(B):
            prod = _gmul(lcR, c)
            R[shift + i] = (R[shift + i][0] - prod[0], R[shift + i][1] - prod[1])
        R.pop()
        while R and R[-1] == (0, 0):
            R.pop()
        R = _int_content_strip(R)
    return R


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Exact gcd over Q(i)[vars], normalized monic in graded lex order.

    If p or q is a single term, every divisor of it is a monomial, so the
    gcd is the monomial whose exponent in each variable is the least over
    all terms of both, in any number of variables.  Otherwise at most two
    variables may be in use (three or more raise PolynomialError); one
    goes to the Gaussian-integer remainder sequence.  In two, before any
    content is taken, `_coprime_images` tries to prove gcd = 1.  Let r be
    the first sample where neither leading coefficient in `main`
    vanishes.  A common factor of positive degree in `main` keeps that
    degree at other = r, since its leading coefficient divides theirs, so
    it divides both images; coprime images exclude it.  The same test in
    `other` at a sample of `main` excludes a common factor in `other`
    alone, and both passing leave only units.  A failed test proves
    nothing, and Brown's evaluation/interpolation gcd decides
    (`_bivariate_modular_gcd`).
    """
    p._check_same(q)
    if p.is_zero():
        return q.monic()
    if q.is_zero():
        return p.monic()
    if len(p.nums) == 1 or len(q.nums) == 1:
        return _make(p.variables, {tuple(map(min, zip(*p.nums, *q.nums))): (1, 0)}, 1)
    active = [v for v in p.variables if p.degree(v) > 0 or q.degree(v) > 0]
    # pick the first variable occurring in both
    main = next((v for v in active if p.degree(v) > 0 and q.degree(v) > 0), None)
    if main is None:
        # no shared variable: gcd divides both contents, which live in
        # disjoint variable sets, so it is a unit
        return Polynomial.constant(p.variables, 1)
    if len(active) == 1:
        g = _int_gcd(_dense_in(p, main), _dense_in(q, main))
        return _univariate(p.variables, p._index(main), g)
    if len(active) > 2:
        raise PolynomialError(f"gcd in more than two variables: {active}")
    other = next(v for v in active if v != main)
    if _coprime_images(p, q, main, other):
        return Polynomial.constant(p.variables, 1)
    return _bivariate_modular_gcd(p, q, main, other)


def _coprime_images(p, q, main, other) -> bool:
    """True when one image in each variable proves gcd(p, q) = 1 (see poly_gcd)."""
    for keep, drop in ((main, other), (other, main)):
        rows_p, rows_q = _int_rows(p, keep, drop), _int_rows(q, keep, drop)
        g = next(filter(None, (_image_gcd(rows_p, rows_q, r) for r in _sample_points())))
        if len(g) > 1:
            return False
    return True


def _int_rows(p, keep, drop):
    """rows[k] lists (j, re, im) for the terms keep^k * drop^j of p, with
    the numerators re + im*i of p."""
    ik, jd = p._index(keep), p._index(drop)
    rows = [[] for _ in range(p.degree(keep) + 1)]
    for exps, (re, im) in p.nums.items():
        rows[exps[ik]].append((exps[jd], re, im))
    return rows


def _image_gcd(rows_p, rows_q, r):
    """The gcd (`_int_gcd`) of the images at drop = r of `_int_rows` rows,
    or None when a leading coefficient vanishes there."""
    images = []
    for rows in (rows_p, rows_q):
        image = [
            (sum(a * r**j for j, a, _ in row), sum(b * r**j for j, _, b in row))
            for row in rows
        ]
        if image[-1] == (0, 0):
            return None
        images.append(image)
    return _int_gcd(*images)


def _bivariate_modular_gcd(p, q, main, other):
    """Brown's gcd: univariate gcds at the points 1, -1, 2, -2, ...,
    interpolated in `other` and verified by exact division.

    The loop ends: only finitely many points make a leading coefficient
    vanish or give an image of too high degree, and `dv_bound` consecutive
    images of the true degree interpolate to a candidate that divides both.
    Each monic image is scaled by gamma(r), gamma the gcd of the leading
    coefficients up to a constant that the candidate's normalisation drops.
    """
    cp, pp = content_primitive(p, main)
    cq, pq = content_primitive(q, main)
    cont = poly_gcd(cp, cq)
    lc_p = pp.as_univariate(main)[-1]
    lc_q = pq.as_univariate(main)[-1]
    gamma = _dense_in(poly_gcd(lc_p, lc_q), other)
    dv_bound = len(gamma) + min(pp.degree(other), pq.degree(other))
    rows_p, rows_q = _int_rows(pp, main, other), _int_rows(pq, main, other)
    best_degree = None
    samples = []  # (point, scaled monic image in main)
    for r in _sample_points():
        g = _image_gcd(rows_p, rows_q, r)
        if g is None:
            continue
        d = len(g) - 1
        if d == 0:
            return cont.monic()
        if best_degree is None or d < best_degree:
            best_degree = d
            samples = []
        if d > best_degree:
            continue
        scale = from_integers(sum(a * r**j for j, (a, _) in enumerate(gamma)),
                              sum(b * r**j for j, (_, b) in enumerate(gamma)))
        samples.append((r, _univariate(p.variables, p._index(main), g).scale(scale)))
        if len(samples) >= dv_bound:
            candidate = _interpolate_bivariate(samples, other)
            _, candidate = content_primitive(candidate, main)
            candidate = candidate.monic()
            try:
                divexact(pp, candidate), divexact(pq, candidate)
                return (cont * candidate).monic()
            except PolynomialError:
                samples.pop(0)  # unlucky mixture: drop the oldest sample


def _sample_points():
    """The integers 1, -1, 2, -2, ...  Inputs derived from a germ vanish
    at the origin, so their images at 0 share a factor and 0 is skipped."""
    k = 1
    while True:
        yield k
        yield -k
        k += 1


def _interpolate_bivariate(samples, var):
    """The polynomial C of degree < len(samples) in `var` with C = G at
    var = r for each (r, G), the G free of var, in Newton's form."""
    variables = samples[0][1].variables
    x = Polynomial.variable(variables, var)
    result, basis = Polynomial.zero(variables), Polynomial.constant(variables, 1)
    for r, G in samples:
        gap = G - result.eliminate_variable(var, r).in_variables(variables)
        result = result + basis * gap.scale(basis.eliminate_variable(var, r).constant_value().inverse())
        basis = basis * (x - r)
    return result


def content_primitive(p: Polynomial, var: str):
    """Split p into (content, primitive part) with respect to `var`.

    The content is the gcd of the coefficient polynomials and carries no
    `var` dependence.
    """
    coeffs = [c for c in p.as_univariate(var) if not c.is_zero()]
    content = coeffs[0]
    for c in coeffs[1:]:
        if content.is_constant():
            break
        content = poly_gcd(content, c)
    content = content.monic().in_variables(p.variables)
    return content, p if content.is_constant() else divexact(p, content)


def squarefree_part(p: Polynomial) -> Polynomial:
    """Product of the distinct irreducible factors, graded-lex monic."""
    if p.is_zero():
        raise PolynomialError("squarefree part of zero")
    if p.is_constant():
        return Polynomial.constant(p.variables, 1)
    g = p
    for v in p.variables:
        if p.degree(v) > 0:
            g = poly_gcd(g, p.partial_derivative(v))
    return divexact(p, g).monic()


def squarefree_decomposition(p: Polynomial) -> list:
    """Yun decomposition [(factor, multiplicity)]: monic factors, pairwise
    coprime, sorted by multiplicity.

    In one active variable it runs on the numerators (`_univariate_sqf`).
    In more it works variable by variable: the content free of the
    current main variable is recursed on separately.
    """
    if p.is_zero():
        raise PolynomialError("squarefree decomposition of zero")
    if p.is_constant():
        return []
    active = [v for v in p.variables if p.degree(v) > 0]
    main = active[0]
    if len(active) == 1:
        return _univariate_sqf(p, main)
    content, primitive = content_primitive(p, main)
    out = [] if content.is_constant() else squarefree_decomposition(content)
    a = primitive.monic()
    da = a.partial_derivative(main)
    g = poly_gcd(a, da)
    if g.is_constant():
        out.append((a, 1))
        return _merge_sqf(out)
    c = divexact(a, g)
    d = divexact(da, g) - c.partial_derivative(main)
    k = 1
    while not c.is_constant():
        f = poly_gcd(c, d)
        if not f.is_constant():
            out.append((f.monic(), k))
        c2 = divexact(c, f)
        d = divexact(d, f) - c2.partial_derivative(main)
        c = c2
        k += 1
    return _merge_sqf(out)


def _univariate_sqf(p: Polynomial, var: str) -> list:
    """squarefree_decomposition of p, whose one active variable is z = `var`.

    p = z^j * rest with rest(0) != 0 is split exactly, and the numerators
    of the rest go to Yun's algorithm, `_int_yun`; z joins the factor of
    multiplicity j.
    """
    dense = _dense_in(p, var)
    j = next(k for k, c in enumerate(dense) if c != (0, 0))
    rest = dense[j:]
    factors = dict(_int_yun(rest)) if len(rest) > 1 else {}
    if j:
        factors[j] = [(0, 0)] + factors.get(j, [(1, 0)])
    i = p._index(var)
    return [(_univariate(p.variables, i, f), k) for k, f in sorted(factors.items())]


def _int_yun(A: list) -> list:
    """Yun's decomposition [(k, f_k)] of a Gaussian-integer list A (low
    first) of positive degree: A = unit * prod f_k^k over Q(i), with f_k of
    positive degree, squarefree and pairwise coprime.

    Yun (SYMSAC 1976): with c = A/gcd(A, A') and d = A'/gcd(A, A') - c',
    each f_k = gcd(c, d), then c <- c/f_k and d <- d/f_k - (c/f_k)'.  The
    gcds are made primitive in Z[i][z], so by Gauss's lemma every
    quotient is a Gaussian-integer list: a gcd with only its integer
    content stripped can keep a factor such as 1 + i.
    """
    dA = _int_derivative(A)
    g = _gaussian_primitive(_int_gcd(A, dA))
    if len(g) == 1:
        return [(1, A)]
    c, d = _int_quotient(A, g), _int_quotient(dA, g)
    d = _int_sub(d, _int_derivative(c))
    out = []
    k = 1
    while len(c) > 1:
        f = _gaussian_primitive(_int_gcd(c, d))
        if len(f) > 1:
            out.append((k, f))
            c, d = _int_quotient(c, f), _int_quotient(d, f)
        d = _int_sub(d, _int_derivative(c))
        k += 1
    return out


def _int_derivative(A: list) -> list:
    return [(k * re, k * im) for k, (re, im) in enumerate(A)][1:]


def _int_sub(A: list, B: list) -> list:
    """A - B on Gaussian-integer lists, trailing zeros dropped."""
    R = [(a - c, b - d) for (a, b), (c, d) in zip_longest(A, B, fillvalue=(0, 0))]
    while R and R[-1] == (0, 0):
        R.pop()
    return R


def _int_quotient(C: list, F: list) -> list:
    """C / F for Gaussian-integer lists whose quotient has Gaussian-integer
    coefficients; raises PolynomialError if it does not or F leaves a
    remainder."""
    lr, li = F[-1]
    n = lr * lr + li * li
    m = len(F) - 1
    R = list(C)
    Q = [(0, 0)] * max(len(C) - m, 0)
    for s in range(len(Q) - 1, -1, -1):
        tr, ti = R[s + m]
        qr, rr = divmod(tr * lr + ti * li, n)
        qi, ri = divmod(ti * lr - tr * li, n)
        if rr or ri:
            raise PolynomialError("inexact polynomial division")
        Q[s] = (qr, qi)
        for k in range(m):
            fr, fi = F[k]
            re, im = R[s + k]
            R[s + k] = (re - qr * fr + qi * fi, im - qr * fi - qi * fr)
    if any(c != (0, 0) for c in R[:m]):
        raise PolynomialError("inexact polynomial division")
    return Q


def _merge_sqf(factors: list) -> list:
    merged: dict = {}
    for f, k in factors:
        merged[k] = merged.get(k, Polynomial.constant(f.variables, 1)) * f
    return [(f.monic(), k) for k, f in sorted(merged.items())]


# ---------------------------------------------------------------------------
# resultants (subresultant remainder sequence)
# ---------------------------------------------------------------------------


def resultant(p: Polynomial, q: Polynomial, var: str) -> Polynomial:
    """Resultant eliminating `var`, exact, with no sign left over:
    resultant(p, q) = lc(q)^deg(p) * prod of p(beta) over the roots beta
    of q with multiplicity, the determinant of the Sylvester matrix that
    lists the deg(p) shifted rows of q first.

    Runs the subresultant pseudo-remainder sequence of Collins and of Brown
    and Traub (Cohen, Alg. 3.3.7) on (q, p).  By the subresultant theorem
    every division is exact in Q(i)[rest], and `divexact` raises otherwise.
    """
    p._check_same(q)
    m, n = p.degree(var), q.degree(var)
    if m < 1 or n < 1:
        raise PolynomialError("resultant needs positive degree in the variable")
    A, B = q.as_univariate(var), p.as_univariate(var)
    sign = 1
    if n < m:  # Res(q, p) = (-1)^(mn) Res(p, q)
        A, B, sign = B, A, (-1) ** (m * n)
    g = h = Polynomial.constant(A[0].variables, 1)
    while len(B) > 1:
        delta = len(A) - len(B)
        sign *= (-1) ** ((len(A) - 1) * (len(B) - 1))
        R = _prem(A, B)
        if not R:
            return Polynomial.zero(g.variables)
        den = g * h**delta
        A, B = B, [divexact(c, den) for c in R]
        g = A[-1]
        if delta:
            h = divexact(g**delta, h ** (delta - 1))
    d = len(A) - 1
    return divexact(B[0] ** d, h ** (d - 1)).scale(sign)


def _prem(A: list, B: list) -> list:
    """Pseudo-remainder of lc(B)^(deg A - deg B + 1) * A by B, on coefficient
    lists (low to high) with nonzero last entries; trailing zeros dropped."""
    R = list(A)
    lc, rest = B[-1], B[:-1]
    for _ in range(len(A) - len(B) + 1):
        top = R.pop()
        R = [c * lc for c in R]
        shift = len(R) - len(rest)
        for i, c in enumerate(rest):
            R[shift + i] = R[shift + i] - top * c
    while R and R[-1].is_zero():
        R.pop()
    return R


# ---------------------------------------------------------------------------
# linear change of coordinates
# ---------------------------------------------------------------------------


def linear_change(
    p: Polynomial,
    ell: Polynomial,
    complement: Polynomial,
    new_vars: tuple = ("u", "w"),
) -> Polynomial:
    """Rewrite p(x, y) in coordinates (u, w) with u = ell, w = complement."""
    if len(p.variables) != 2:
        raise PolynomialError("linear_change expects a bivariate polynomial")
    a, b = _linear_form_coefficients(ell)
    c, d = _linear_form_coefficients(complement)
    det = a * d - b * c
    if det.is_zero():
        raise PolynomialError("dependent linear forms")
    inv = det.inverse()
    u = Polynomial.variable(new_vars, new_vars[0])
    w = Polynomial.variable(new_vars, new_vars[1])
    x_image = u.scale(d * inv) + w.scale(-b * inv)
    y_image = u.scale(-c * inv) + w.scale(a * inv)
    return p.substitute({p.variables[0]: x_image, p.variables[1]: y_image})


def _linear_form_coefficients(form: Polynomial):
    if form.is_zero():
        raise PolynomialError("zero linear form")
    a = ZERO
    b = ZERO
    for exps, coeff in form.terms.items():
        if exps == (1, 0):
            a = coeff
        elif exps == (0, 1):
            b = coeff
        else:
            raise PolynomialError("form is not homogeneous linear")
    return a, b
