"""Exact valued fields and SL2 translation lengths on Bruhat-Tits trees.

Three field contexts are supported:
  * Q with the p-adic valuation (rank 1),
  * Q(t) with the t-adic valuation at t = 0 (rank 1),
  * Q(s, t) with the rank-2 monomial valuation: t-order dominant, then the
    s-order of the lowest-t coefficient.

The translation length of m in SL2 is max(0, -2 v(Tr m)); an action of a
subgroup is free iff every nontrivial element has negative trace valuation.
All arithmetic is exact: valuations come from factor multiplicities, never
from numerics.
"""

from __future__ import annotations

import re
from math import lcm
from typing import Optional

from .frozen import Value
from .ordgroup import LexValue, _num
from .groups import Word, check_alphabet, rational_rank


class FieldError(ValueError):
    pass


# field elements ------------------------------------------------------------------


INFINITY = None  # valuation of zero


def _laurent(cls, coeffs: dict):
    """A RatFunc or BiRatFunc holding coeffs, which has no zero coefficient,
    as it is: no coercion."""
    x = object.__new__(cls)
    x.coeffs = coeffs
    return x


def _add(c1: dict, c2: dict) -> dict:
    c = dict(c1)
    for k, v in c2.items():
        s = c.get(k, 0) + v
        if s:
            c[k] = s
        else:
            del c[k]
    return c


class _Laurent:
    """Laurent polynomials in t and s: `coeffs` is a dict (t-exp, s-exp) ->
    nonzero coefficient, read by ordgroup._num, so an int stays an int and an
    integer document loads no fractions.  Document entries are Laurent
    polynomials, and so are sums and products of them and the adjugate inverse
    of a determinant-1 matrix, so no denominator is ever needed.  Arithmetic
    keeps the coefficient type of its operands, so the determinant check and
    the products MatrixLengthOracle forms run on ints.  A subclass fixes the
    rank of the valuation."""

    __slots__ = ("coeffs",)
    rank: int

    def __init__(self, coeffs: dict):
        self.coeffs = {(int(et), int(es)): q for (et, es), v in coeffs.items() if (q := _num(v))}

    @classmethod
    def const(cls, q):
        return _laurent(cls, {(0, 0): q} if (q := _num(q)) else {})

    def one_like(self):
        return self.const(1)

    def __add__(self, o):
        return _laurent(self.__class__, _add(self.coeffs, o.coeffs))

    def __neg__(self):
        return _laurent(self.__class__, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        c: dict = {}
        for (t1, s1), v1 in self.coeffs.items():
            for (t2, s2), v2 in o.coeffs.items():
                k = (t1 + t2, s1 + s2)  # the pair, not a generic tuple sum: this is the hot loop
                c[k] = c.get(k, 0) + v1 * v2
        return _laurent(self.__class__, {k: v for k, v in c.items() if v})

    def __eq__(self, o) -> bool:
        return o.__class__ is self.__class__ and self.coeffs == o.coeffs

    def valuation(self) -> Optional[LexValue]:
        """The lexicographic least exponent, cut to the rank: the t-order,
        then the s-order of the lowest-t part."""
        if not self.coeffs:
            return INFINITY
        return LexValue(min(self.coeffs)[:self.rank])

    def __repr__(self):
        # a determinant error quotes entries in this form: x t^kt s^ks over
        # 1*t^kt*s^ks, where (vt, vs) is the least exponent, kt = max(0, -vt)
        # and ks = max(0, -vs); an s^-1 outside the lowest-t part can stay in
        # the numerator.  Q(t) writes no s
        vt, vs = min(self.coeffs, default=(0, 0))
        kt, ks = max(0, -vt), max(0, -vs)
        num = " + ".join(f"{v}*{self._monomial(et + kt, es + ks)}"
                         for (et, es), v in sorted(self.coeffs.items()))
        return f"({num or 0})/(1*{self._monomial(kt, ks)})"

    def _monomial(self, et: int, es: int) -> str:
        return f"t^{et}" if self.rank == 1 else f"t^{et}*s^{es}"


class RatFunc(_Laurent):
    """Element of Q(t) that is a Laurent polynomial in t: the s-free part of
    Q(s, t), under the t-adic valuation."""

    __slots__ = ()
    rank = 1

    def __init__(self, coeffs: dict):
        """exponent of t -> coefficient: a Q(t) element has no s."""
        self.coeffs = {(int(e), 0): q for e, v in coeffs.items() if (q := _num(v))}

    @staticmethod
    def t(power: int = 1) -> "RatFunc":
        return RatFunc({power: 1})


class BiRatFunc(_Laurent):
    """Element of Q(s, t) that is a Laurent polynomial in s, t, under the
    rank-2 monomial valuation."""

    __slots__ = ()
    rank = 2

    @staticmethod
    def monomial(t_exp: int, s_exp: int, coeff=1) -> "BiRatFunc":
        return BiRatFunc({(t_exp, s_exp): coeff})


class QpElement(Value):
    """Rational number, `value` (an int or a Fraction), under the p-adic valuation."""

    __slots__ = ("value", "p")
    rank = 1

    def __repr__(self):
        # a determinant error quotes entries in this form, an int value as a Fraction
        v = self.value
        return f"QpElement(value=Fraction({v.numerator}, {v.denominator}), p={self.p!r})"

    def _check(self, o: "QpElement"):
        if self.p != o.p:
            raise FieldError("mixed primes")

    def __add__(self, o):
        self._check(o)
        return QpElement(self.value + o.value, self.p)

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        self._check(o)
        return QpElement(self.value * o.value, self.p)

    def __neg__(self):
        return QpElement(-self.value, self.p)

    def one_like(self):
        return QpElement(1, self.p)

    def valuation(self) -> Optional[LexValue]:
        if self.value == 0:
            return INFINITY
        return LexValue([_vp(self.value.numerator, self.p) - _vp(self.value.denominator, self.p)])


def _vp(n: int, p: int) -> int:
    """Multiplicity of the prime p in the nonzero integer n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# the strong probable-prime test to these bases decides primality exactly
# below PRIME_BOUND, the least composite that passes it (OEIS A014233)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < PRIME_BOUND."""
    if n < 2 or any(n % q == 0 for q in _BASES):
        return n in _BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    d = (n - 1) >> s
    for a in _BASES:
        xs = [pow(a, d << i, n) for i in range(s)]
        if xs[0] != 1 and n - 1 not in xs:
            return False
    return True


# 2x2 matrices ----------------------------------------------------------------------


class Mat2:
    """Determinant-1 matrix over a common field context.  MatrixLengthOracle
    also builds unchecked ones of its scaled, int-coefficient entries."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d, check_det: bool = True):
        self.a, self.b, self.c, self.d = a, b, c, d
        if check_det:
            det = a * d - b * c
            if det != a.one_like():
                raise FieldError(f"determinant is not 1: {det!r}")

    def __mul__(self, o: "Mat2") -> "Mat2":
        return Mat2(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
            check_det=False,
        )

    def inverse(self) -> "Mat2":
        return Mat2(self.d, -self.b, -self.c, self.a, check_det=False)

    def trace(self):
        return self.a + self.d

    def __eq__(self, o) -> bool:
        return isinstance(o, Mat2) and (self.a, self.b, self.c, self.d) == (o.a, o.b, o.c, o.d)

    def __repr__(self):
        return f"[[{self.a!r}, {self.b!r}], [{self.c!r}, {self.d!r}]]"

    @property
    def rank(self) -> int:
        return self.a.rank


def bt_translation_length(m: Mat2) -> LexValue:
    """max(0, -2 v(Tr m)); Tr = 0 maps to 0 via the infinity convention."""
    return _translation_length(m.trace().valuation(), m.rank)


def _translation_length(v: Optional[LexValue], rank: int) -> LexValue:
    zero = LexValue.zero(rank)
    if v is INFINITY:
        return zero
    cand = v.scale(-2)
    return cand if cand > zero else zero


class MatrixLengthOracle:
    """Translation-length and triviality oracles for a labeled generator set;
    records the trace valuations encountered.

    Products run over a ring with int coefficients.  Each generator is
    multiplied by `scale` = D, the lcm of the denominators of all generator
    coefficients, into a Mat2 of RatFunc or BiRatFunc entries with int
    coefficients over Q(t) or Q(s, t), or of ints over Q_p; a letter's
    inverse is the adjugate of its scaled matrix.  The product of a word w
    is then D^|w| times its value.  D is a constant: its valuation is 0 over
    Q(t) and Q(s, t), and v_p(D) over Q_p.

    The oracle keeps no memo per word, only the path of the last word asked:
    each prefix's product, by length, and the word's scaled trace.
    Triviality and the trace (so the valuation and the length) are class
    functions, and w and w^-1 have the same trace in SL2, so
    `certify_free_on_ball` may ask one word per conjugacy class up to
    inversion (Lyndon & Schupp, I.2); it decides the classes."""

    class_function = True

    def __init__(self, generators: dict[str, Mat2]):
        if not generators:
            raise FieldError("empty generator set")
        matrices = {label: (g.a, g.b, g.c, g.d) for label, g in generators.items()}
        kinds = {type(x) for entries in matrices.values() for x in entries}
        if len(kinds) != 1:
            raise FieldError("generators over mixed field contexts")
        kind = kinds.pop()
        self._p = self._poly = None
        if kind is QpElement:
            primes = {x.p for entries in matrices.values() for x in entries}
            if len(primes) != 1:
                raise FieldError("mixed primes")
            self._p = primes.pop()
        else:
            self._poly = kind
        exact = {label: [x.coeffs if self._poly else {(0, 0): x.value} for x in entries]
                 for label, entries in matrices.items()}
        self.rank = next(iter(generators.values())).rank
        self.scale = lcm(*(q.denominator for entries in exact.values()
                           for e in entries for q in e.values()))
        self._vp_scale = _vp(self.scale, self._p) if self._p else 0
        self._letters: dict = {}
        for label, entries in exact.items():
            a, b, c, d = (self._ring({k: (q * self.scale).numerator for k, q in e.items()})
                          for e in entries)
            m = Mat2(a, b, c, d, check_det=False)
            self._letters[(label, 1)] = m
            self._letters[(label, -1)] = m.inverse()
        self.trace_valuations: set[tuple] = set()
        self._path: list = [((), self._scalar(1))]  # (prefix, its product) by length
        self._last: tuple = (None, None)  # (word, D^|w| Tr w) of the last trace formed
        self._values: dict = {}  # least exponent or (v_p,), None for a zero trace -> (v(Tr), length)

    def _ring(self, coeffs: dict):
        """The ring element with these int coefficients."""
        if self._poly is None:
            return coeffs.get((0, 0), 0)
        return _laurent(self._poly, coeffs)

    def _scalar(self, n: int) -> Mat2:
        zero, c = self._ring({}), self._ring({(0, 0): n})
        return Mat2(c, zero, zero, c, check_det=False)

    def _letter(self, x):
        g = self._letters.get(x)
        if g is None:
            raise FieldError(f"unknown generator label {x[0]!r}")
        return g

    def product(self, w: Word) -> Mat2:
        """D^|w| times the value of w, over the ring; the path now runs through w."""
        w = tuple(w)
        n, path = len(w), self._path
        if n < len(path) and path[n][0] == w:
            return path[n][1]
        g = self._letter(w[-1])  # before the prefix, so the rightmost unknown label is named
        m = self.product(w[:-1]) * g
        del path[n:]
        path.append((w, m))
        return m

    def _trace(self, w: Word):
        """D^|w| Tr w from the diagonal of its last factor only.  The last
        word's is kept: certification asks is_trivial, then length, of a word."""
        w = tuple(w)
        if self._last[0] != w:
            g = self._letter(w[-1]) if w else self._path[0][1]
            p = self.product(w[:-1])
            self._last = (w, p.a * g.a + p.b * g.c + p.c * g.b + p.d * g.d)
        return self._last[1]

    def _value(self, w: Word) -> tuple:
        """(v(Tr w), l(w)); v is INFINITY when the trace is 0.  One LexValue
        pair is built per distinct valuation."""
        tr = self._trace(w)
        if self._p is not None:
            n = None if tr == 0 else (_vp(tr, self._p) - len(w) * self._vp_scale,)
        else:
            n = min(tr.coeffs) if tr.coeffs else None  # the lexicographic least exponent
        value = self._values.get(n)
        if value is None:
            v = INFINITY
            if n is not None:
                v = LexValue(n[:self.rank])
                self.trace_valuations.add(v.coords)
            value = self._values[n] = (v, _translation_length(v, self.rank))
        return value

    def trace_valuation(self, w: Word) -> Optional[LexValue]:
        """v(Tr w), INFINITY when the trace is 0."""
        return self._value(w)[0]

    def length(self, w: Word) -> LexValue:
        return self._value(w)[1]

    def is_trivial(self, w: Word) -> bool:
        one = self.scale ** len(w)  # a trivial word has trace 2
        return (self._trace(w) == self._ring({(0, 0): 2 * one})
                and self.product(w) == self._scalar(one))


def bt_length_oracle(generators: dict[str, Mat2]) -> MatrixLengthOracle:
    return MatrixLengthOracle(generators)


def certify_free_bt(generators: dict[str, Mat2], ball_radius: int):
    """Ball certification with the matrix oracles; the certificate records
    the finite set of trace valuations observed."""
    from .isometry import certify_free_on_ball

    oracle = MatrixLengthOracle(generators)
    cert = certify_free_on_ball(
        oracle.length, oracle.is_trivial, sorted(generators), ball_radius
    )
    cert.extra["trace_valuations"] = [[str(c) for c in v] for v in sorted(oracle.trace_valuations)]
    cert.extra["value_group_rank"] = rational_rank([list(v) for v in oracle.trace_valuations])
    return cert


# JSON interface --------------------------------------------------------------------


def _parse_monomial_key(key: str) -> tuple[int, int]:
    """'1' -> (0,0); 't^-1' -> (-1,0); 's^2' -> (0,2); 's^2t^-1' -> (-1,2).  In a
    str pattern \\d matches what str.isdecimal accepts, so int() reads each exponent."""
    key = key.strip()
    if key == "1":
        return (0, 0)
    exps = {"t": 0, "s": 0}
    for var, exp, bad in re.findall(r"(?s)([st])(?:\^(-?\d+))?|(.)", key):
        if bad:
            raise FieldError(f"bad monomial key {key!r}")
        exps[var] += int(exp or 1)
    return exps["t"], exps["s"]


def parse_entry(data, field: str, p: Optional[int] = None):
    """Matrix entry from JSON: a rational string, or a coefficient map."""
    if field == "Qp":
        if isinstance(data, dict):
            raise FieldError("Qp entries are rational strings")
        return QpElement(_num(data), p)
    coeffs = {"1": data} if isinstance(data, (str, int)) else data
    if not isinstance(coeffs, dict):
        raise FieldError(f"entry must be a rational string or a coefficient map, got {data!r}")
    if field not in ("Qt", "Qst"):
        raise FieldError(f"unknown field context {field!r}")
    c = {}
    for key, val in coeffs.items():
        t_exp, s_exp = _parse_monomial_key(key)
        if field == "Qt" and s_exp:
            raise FieldError("s appears in a Qt entry")
        q = _num(val)
        if (t_exp, s_exp) in c:  # "t" and "t^1", or "st" and "ts"
            raise FieldError(f"two keys of one entry name the monomial {key!r}")
        c[t_exp, s_exp] = q
    return _laurent(RatFunc if field == "Qt" else BiRatFunc, {e: q for e, q in c.items() if q})


def matrix_group_from_json(doc: dict) -> dict[str, Mat2]:
    field = doc["field"]
    p = doc.get("p")
    if field == "Qp":
        if type(p) is int and p >= PRIME_BOUND:
            raise FieldError(f"p = {p} is too large: primality is decided below {PRIME_BOUND}")
        if type(p) is not int or not _is_prime(p):
            raise FieldError(f"Qp context needs a prime p, got {p!r}")
    if not isinstance(doc["generators"], dict):
        raise FieldError("generators must be an object of label -> matrix")
    check_alphabet(tuple(doc["generators"]), "generator label")
    gens = {}
    for label, rows in doc["generators"].items():
        (a, b), (c, d) = rows
        gens[label] = Mat2(
            parse_entry(a, field, p),
            parse_entry(b, field, p),
            parse_entry(c, field, p),
            parse_entry(d, field, p),
        )
    return gens
