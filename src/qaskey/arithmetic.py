"""Interchangeable scalar backends and integer-power utilities.

Two scalar types realize the same abstract complex field:

* exact backend -- :class:`GaussianRational`, a complex number stored as
  three integers ``(a + b*i) / d`` in canonical form (``d > 0``,
  ``gcd(a, b, d) == 1``).  ``+``, ``-``, ``*``, ``/`` and the
  constructor form their integer triple and hand it to
  :func:`from_parts`, the one place where a result is reduced, with one
  gcd.  Every ring identity holds bit-exactly, so it
  serves as the ground-truth oracle: a verified identity either cancels
  to zero or it does not.  :func:`parts`, :func:`from_parts` and
  :func:`abs_parts` hand the triple to loops that run on plain ints,
  such as the exact series kernel of :mod:`qaskey.qseries`.  Products
  run fraction-free, with one gcd per product rather than per factor:
  :func:`pow_int` squares plain ints (``_int_pow``),
  ``_one_minus_row`` forms the row of factors ``1 - x q^k`` that a pole
  guard of :mod:`qaskey.qseries` keeps, and ``_poch_numerator``
  multiplies the Gaussian-integer numerators of the factors of (x;q)_n
  for :func:`qaskey.qpochhammer.poch_quotient`, the one quotient path
  of every prefactor, which carries their denominators in closed form
  and reduces once.
* float backend -- the builtin ``complex``.  Fast, but a failed check may
  be cancellation rather than a genuine discrepancy, so verdicts are
  scale-aware (see :func:`qaskey.identity_catalog.judge`).

The base q is a scalar of one backend like any other; :func:`check_base`
coerces it and guards it (q != 0, |q| != 1) where a value class takes
it.  Higher modules settle the backend once per call, from ``q`` or the
first operand (:func:`is_exact`, :func:`one_like`), and then run their
loops on ordinary Python operators only: no loop calls a dispatch
helper per iteration, and a zero test is ``not x``.  Values are
immutable after construction and safe to share between threads, so
:func:`one_like` hands out one shared constant per backend.
"""

from __future__ import annotations

import math
import re
import sys
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Decimal, Inexact, localcontext
from fractions import Fraction
from itertools import combinations
from math import gcd

# Library-wide numeric policy, fixed: the verdict tolerances of every
# check and the float guards' pole and unit-circle margins.
REL_TOL = 1e-10
ABS_TOL = 1e-12
POLE_EPS = 1e-9
EPSILON_UNIT = 1e-8
COND_CAP = 1e8


class QError(Exception):
    """Base class for every error raised by this package."""


class GuardViolation(QError):
    """An admissibility guard failed (pole, zero parameter, bad modulus).

    Sweeps treat these as SKIPPED, never as identity failure.
    """


class ZeroToNegativePower(QError):
    """Raised by :func:`pow_int` for 0**k with k < 0."""


class ZeroQ(GuardViolation):
    """The base q is zero."""


class UnitModulusQ(GuardViolation):
    """The base q sits on (or, in floats, too close to) the unit circle."""


_EXACT_PARTS = (int, Fraction)
_new = object.__new__


class GaussianRational:
    """Exact complex scalar ``(a + b*i) / d`` with integers ``a``, ``b``, ``d``.

    The stored triple is canonical: ``d > 0`` and ``gcd(a, b, d) == 1``,
    and zero is ``(0, 0, 1)``.  Equal values therefore have equal
    triples.  Every operator that can leave a common factor forms its
    integer triple (``+`` and ``-`` the cross sum over ``d1*d2``) and
    reduces it with one gcd in :func:`from_parts`; negation, conjugation
    and the coercion of an ``int`` or ``Fraction`` need none.
    :attr:`re` and :attr:`im` read the parts back as reduced ``Fraction``
    values.

    Supports +, -, *, /, ** (integer exponents) and mixes freely with
    ``int`` and ``Fraction``; ``==`` and ``hash`` agree with them on real
    values.  Mixing with ``float``/``complex`` is a deliberate TypeError:
    the exact backend must never silently absorb rounding error.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        p, q = re.numerator, re.denominator
        r, s = im.numerator, im.denominator
        self._a, self._b, self._d = parts(from_parts(p * s, r * q, q * s))

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __add__(self, other):
        o = other if type(other) is GaussianRational else _coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self._d, o._d
        return from_parts(self._a * d2 + o._a * d1, self._b * d2 + o._b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is GaussianRational else _coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self._d, o._d
        return from_parts(self._a * d2 - o._a * d1, self._b * d2 - o._b * d1, d1 * d2)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = o._d, self._d
        return from_parts(o._a * d2 - self._a * d1, o._b * d2 - self._b * d1, d1 * d2)

    def __mul__(self, other):
        o = other if type(other) is GaussianRational else _coerce(other)
        if o is None:
            return NotImplemented
        a1, b1 = self._a, self._b
        a2, b2 = o._a, o._b
        return from_parts(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * o._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if type(other) is GaussianRational else _coerce(other)
        if o is None:
            return NotImplemented
        a1, b1, d1 = self._a, self._b, self._d
        a2, b2, d2 = o._a, o._b, o._d
        # multiply by the conjugate: x/y = x*conj(y)*d2 / (d1*(a2^2 + b2^2))
        n = a2 * a2 + b2 * b2
        if not n:
            raise ZeroDivisionError("division by zero scalar")
        return from_parts((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, d1 * n)

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __pos__(self):
        return self

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return pow_int(self, k)

    def __eq__(self, other):
        o = other if type(other) is GaussianRational else _coerce(other)
        if o is None:
            return NotImplemented
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __hash__(self):
        if self._b:
            return hash((self._a, self._b, self._d))
        return hash(Fraction(self._a, self._d))

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __complex__(self):
        # int / int is correctly rounded, so this equals float(self.re) etc.
        return complex(self._a / self._d, self._b / self._d)

    def conjugate(self):
        return _make(self._a, -self._b, self._d)

    def abs2(self) -> Fraction:
        """Exact squared modulus."""
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def __abs__(self) -> float:
        return abs_parts(self._a, self._b, self._d)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


def _make(a, b, d):
    """A GaussianRational from a triple that is already canonical."""
    z = _new(GaussianRational)
    z._a, z._b, z._d = a, b, d
    return z


def parts(x) -> tuple:
    """The canonical integer triple ``(a, b, d)`` of an exact scalar
    ``x = (a + b*i) / d``."""
    return x._a, x._b, x._d


def from_parts(a, b, d):
    """A GaussianRational from ``(a + b*i) / d`` with ``d > 0``; one gcd
    reduces the triple."""
    g = gcd(a, b, d)
    z = _new(GaussianRational)
    if g == 1:
        z._a, z._b, z._d = a, b, d
    else:
        z._a, z._b, z._d = a // g, b // g, d // g
    return z


def abs_parts(a, b, d) -> float:
    """``|(a + b*i) / d|`` for integers with ``d != 0``, reduced or not.

    ``int / int`` rounds the exact rational ``(a^2 + b^2) / d^2``
    correctly, so every triple of one value gives the same float.
    """
    try:
        return math.sqrt((a * a + b * b) / (d * d))
    except OverflowError:
        return math.inf


# -- fraction-free products -------------------------------------------------
# Integer triples (a, b, d) stand for (a + b i) / d with d > 0.  A product
# of them is formed with plain int arithmetic and reduced once, by
# from_parts, instead of once per factor.

def _one_minus_row(x, q, n: int) -> tuple:
    """The unreduced triples of the factors 1 - x q^k, k < n, from the
    triples of x and q: x q^k is advanced by one product with q per
    factor, and 1 - x q^k over its denominator needs no product at all."""
    a, b, d = x
    qa, qb, qd = q
    # a list first: tuple() of a generator builds the tuple by resizing,
    # so each row freed later parks in the interpreter's tuple free list
    # of its length, up to 2000 of them, and raises peak memory
    row = [(d - a, -b, d)][:n]
    for _ in range(n - 1):
        a, b, d = a * qa - b * qb, a * qb + b * qa, d * qd
        row.append((d - a, -b, d))
    return tuple(row)


def _poch_numerator(acc, x, q, n: int) -> tuple:
    """The Gaussian integer ``acc`` times the numerators of the factors
    1 - x q^k, k < n, of (x;q)_n, from the pair ``acc`` and the triples
    of x and q.  Over the reduced triple of x, the k-th factor sits over
    x_d q_d^k, so the denominators that are left out multiply to
    x_d^n q_d^{C(n,2)}."""
    pa, pb = acc
    a, b, d = x
    qa, qb, qd = q
    for k in range(n):
        if k:
            a, b, d = a * qa - b * qb, a * qb + b * qa, d * qd
        fa = d - a
        pa, pb = pa * fa + pb * b, pb * fa - pa * b
    return pa, pb


def _int_pow(x, k: int) -> tuple:
    """The unreduced triple of x^k for the triple x and a signed integer
    k, by squaring plain ints; for k < 0 those of ``1/x = d(a - b*i) /
    (a^2 + b^2)``.  Raises ZeroToNegativePower for 0**k with k < 0."""
    a, b, d = x
    if k < 0:
        if not (a or b):
            raise ZeroToNegativePower("0 cannot be raised to a negative power")
        a, b, d = d * a, -d * b, a * a + b * b
        k = -k
    ra, rb, rd = 1, 0, 1
    while k:
        if k & 1:
            ra, rb, rd = ra * a - rb * b, ra * b + rb * a, rd * d
        k >>= 1
        if k:
            # the square after the top bit would be the largest, and unused
            a, b, d = a * a - b * b, 2 * a * b, d * d
    return ra, rb, rd


def _coerce(x):
    """``x`` as a GaussianRational, or None if it is not an exact scalar."""
    t = type(x)
    if t is int:
        return _make(x, 0, 1)
    if t is Fraction:
        return _make(x.numerator, 0, x.denominator)
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, _EXACT_PARTS):
        return GaussianRational(x)
    return None


_EXACT_SCALARS = (GaussianRational, *_EXACT_PARTS)
_ONE = GaussianRational(1)
_ONE_FLOAT = complex(1.0)


def is_exact(x) -> bool:
    """True for scalars of the exact backend (including plain rationals)."""
    t = type(x)
    if t is GaussianRational or t is int or t is Fraction:
        return True
    if t is complex or t is float:
        return False
    return isinstance(x, _EXACT_SCALARS)


def as_scalar(x, exact: bool):
    """Coerce ``x`` into the canonical scalar type of a backend.

    Exact backend refuses floats: there is no faithful representation.
    """
    if exact:
        o = _coerce(x)
        if o is None:
            raise TypeError(f"cannot represent {type(x).__name__} exactly; "
                            "pass int, Fraction or GaussianRational")
        return o
    return complex(x)


def one_like(x):
    """The shared one of ``x``'s backend."""
    return _ONE if is_exact(x) else _ONE_FLOAT


def pow_int(x, k: int):
    """x**k for signed integer k by repeated squaring.

    Bit-exact in the exact backend, where it squares the plain ints of
    ``(a + b*i)^k / d^k`` (for k < 0 those of ``1/x = d(a - b*i) /
    (a^2 + b^2)``) and reduces once.  Raises ZeroToNegativePower for
    0**k with k < 0.
    """
    if is_exact(x):
        return from_parts(*_int_pow(parts(_coerce(x)), k))
    one = _ONE_FLOAT
    if k < 0:
        if not x:
            raise ZeroToNegativePower("0 cannot be raised to a negative power")
        x = one / x
        k = -k
    result = one
    base = x
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


def binom2(n: int) -> int:
    """n*(n-1)/2, the exponent weight attached to term index n."""
    if n < 0:
        raise ValueError("binom2 requires a nonnegative integer")
    return n * (n - 1) // 2


def spread(values, exact: bool) -> tuple:
    """``(all_agree, max_deviation)`` of a family of values that must agree.

    ``max_deviation`` is the largest pairwise ``abs(vi - vj)``.  Exact
    values are canonical, so the family agrees iff every value ``==`` the
    first one, which takes m - 1 comparisons; the pairwise differences
    are formed only when one differs.  Float families always take the
    pairwise differences; a NaN one gives ``(False, nan)``, and one whose
    modulus is above the float range reads as ``inf``.
    """
    if exact and all(v == values[0] for v in values):
        return True, 0.0
    all_agree = True
    max_dev = 0.0
    for x, y in combinations(values, 2):
        d = x - y
        if d:
            all_agree = False
            try:
                d = abs(d)
            except OverflowError:
                d = math.inf
            if d != d:
                return False, d
            max_dev = max(max_dev, d)
    return all_agree, max_dev


class _Frozen:
    """Base of the read-only value classes: assigning an attribute raises
    AttributeError.  Their ``__init__`` sets each field with ``_set``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")


_set = object.__setattr__


def check_base(q):
    """The deformation base q as its backend's scalar, guarded: q != 0 and
    |q| != 1.  An int or Fraction becomes a GaussianRational, any other
    non-GaussianRational a complex.

    In the float backend the unit-circle guard uses the fixed margin
    ``EPSILON_UNIT``: ``||q| - 1| > EPSILON_UNIT`` must hold.
    """
    if not isinstance(q, GaussianRational):
        q = GaussianRational(q) if is_exact(q) else complex(q)
    if not q:
        raise ZeroQ("q must be nonzero")
    if isinstance(q, GaussianRational):
        a, b, d = parts(q)
        if a * a + b * b == d * d:
            raise UnitModulusQ("|q| = 1 is not allowed")
    elif abs(abs(q) - 1.0) <= EPSILON_UNIT:
        raise UnitModulusQ(
            f"| |q| - 1 | <= {EPSILON_UNIT:g}: q too close to the unit circle")
    return q


# Decimal digits of ints of any length, in time below quadratic.  str()
# and int() refuse more digits than the interpreter's limit
# (sys.get_int_max_str_digits), which a deep exact value exceeds, and
# the conversions through Decimal(n) and int(Decimal(s)) take time
# quadratic in the digits.  Both conversions below halve their input and
# join the halves with one product by a power of the other radix, cached
# per call; short parts convert directly.
_DIRECT_BITS = 128
_DIRECT_DIGITS = 600    # below 640, the least limit the interpreter allows


def _int_digits(n: int) -> str:
    """The decimal digits of the int ``n``, with a leading ``-`` if
    negative.  n is halved in binary and the halves joined as
    ``lo + hi * 2^w`` in Decimal at unbounded precision, whose products
    of long operands are subquadratic (as CPython 3.12's ``_pylong``)."""
    powers = {}

    def pow2(w):
        p = powers.get(w)
        if p is None:
            if w <= _DIRECT_BITS:
                p = Decimal(1 << w)
            elif w - 1 in powers:
                p = powers[w - 1] * 2
            else:
                p = pow2(w >> 1) * pow2(w - (w >> 1))
            powers[w] = p
        return p

    def inner(m, w):
        if w <= _DIRECT_BITS:
            return Decimal(m)
        w2 = w >> 1
        hi = m >> w2
        return inner(m - (hi << w2), w2) + inner(hi, w - w2) * pow2(w2)

    m = abs(n)
    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = MAX_PREC, MAX_EMAX, MIN_EMIN
        ctx.traps[Inexact] = True
        digits = str(inner(m, m.bit_length()))
    return "-" + digits if n < 0 else digits


def _digits_int(digits: str) -> int:
    """The int that the ASCII decimal ``digits`` spell, with an optional
    sign: the string is halved and the halves joined as
    ``hi * 10^w + lo``, with Python's Karatsuba product."""
    powers = {}

    def inner(a, b):
        if b - a <= _DIRECT_DIGITS:
            return int(digits[a:b])
        mid = (a + b) >> 1
        w = b - mid
        p = powers.get(w)
        if p is None:
            p = powers[w] = 10 ** w
        return inner(a, mid) * p + inner(mid, b)

    m = inner(1 if digits[0] in "+-" else 0, len(digits))
    return -m if digits[0] == "-" else m


def _format_part(v) -> str:
    if isinstance(v, Fraction):
        num = _int_digits(v.numerator)
        return num if v.denominator == 1 else f"{num}/{_int_digits(v.denominator)}"
    return f"{v:.17g}"


def format_scalar(x) -> str:
    """Lossless wire format: rationals as ``p/q+r/s i``, floats with 17
    significant digits.  Pure reals omit the imaginary term."""
    if isinstance(x, GaussianRational):
        re, im = x.re, x.im
    else:
        c = complex(x)
        re, im = c.real, c.imag
    if im == 0:
        return _format_part(re)
    sign = "+" if im >= 0 else "-"
    return f"{_format_part(re)}{sign}{_format_part(abs(im))} i"


def _fraction(token: str) -> Fraction:
    """The rational a token spells.  ``p`` and ``p/q`` (ASCII digits, an
    optional sign) are read by :func:`_digits_int`, which reads digits of
    any length, as :func:`_format_part` prints them; int() and Fraction()
    refuse more digits than ``sys.get_int_max_str_digits()``.  Other
    forms, such as ``1.5e-3``, go through Fraction."""
    num, slash, den = token.partition("/")
    digits = num[1:] if num[:1] in "+-" else num
    if digits.isascii() and digits.isdigit() and (
            not slash or (den.isascii() and den.isdigit())):
        return Fraction(_digits_int(num), _digits_int(den) if slash else 1)
    return Fraction(token)


def _parse_part(token: str, exact: bool):
    token = token.strip()
    if not token or token in "+-":
        token += "1"
    if exact:
        return _fraction(token)
    return float(_fraction(token)) if "/" in token else float(token)


def _quoted(text: str) -> str:
    """``repr(text)``, cut to its first 80 characters when longer, so that
    an error message stays one short line."""
    if len(text) <= 80:
        return repr(text)
    return f"{text[:80]!r}... ({len(text)} characters)"


def parse_scalar(text: str, exact: bool):
    """Parse the wire format back into a scalar.

    Accepted forms: ``3/4``, ``-3/4+1/2 i``, ``0.5``, ``1.5e-3-2 i``,
    ``2/7 i``.  Whitespace around the components is ignored.  Integers of
    any length are read exactly.
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty scalar")
    limit = sys.get_int_max_str_digits()
    exponents = re.findall(r"[eE]([-+]?\d+(?:_\d+)*)", s) if exact and limit else ()
    if any(abs(float(x)) > limit for x in exponents):
        # Fraction would expand the exponent into an integer of that many digits
        raise ValueError(f"cannot parse scalar {_quoted(text)}: decimal exponent beyond {limit}")
    re_tok, im_tok = s, None
    if s.endswith(("i", "I", "j", "J")):
        body = s[:-1]
        # split at the last sign that is not a leading sign or an exponent sign
        split = -1
        for idx in range(len(body) - 1, 0, -1):
            if body[idx] in "+-" and body[idx - 1] not in "eE/":
                split = idx
                break
        if split > 0:
            re_tok, im_tok = body[:split], body[split:]
        else:
            re_tok, im_tok = "0", body
    try:
        real = _parse_part(re_tok, exact)
        imag = _parse_part(im_tok, exact) if im_tok is not None else 0
    except ZeroDivisionError:
        raise ValueError(f"cannot parse scalar {_quoted(text)}: zero denominator") from None
    except OverflowError:
        raise ValueError(f"cannot parse scalar {_quoted(text)}: "
                         "beyond the float range") from None
    except ValueError:
        raise ValueError(f"cannot parse scalar {_quoted(text)}") from None
    if exact:
        return GaussianRational(real, imag)
    return complex(real, imag)
