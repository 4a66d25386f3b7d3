"""The series language: printed labels, parsed once into what evaluates them.

The catalogue records and the Askey-Wilson representations are rows of
labels: monomials (``qb/cd``, ``q^{1-n}w/a``, ``1/w^2``), series
(``W(B; L1, ... | q, Z)``, ``phi(N1, ...; D1, ... | q, Z)``), powers
(``q^-3C(n,2) (-abcd)^n``) and substitutions (``(a,b) -> (1/a, 1/b)``);
README.md has the grammar.  :func:`parse_side` reads a side's printed
form into a :class:`Side`, power * Pochhammer ratio * series, which
:meth:`Side.evaluate` runs on a :class:`Draw`.  A monomial is compiled
once to its exponent vector over (q^n, q, a, b, c, d, e, f, w) and that
vector's ``key``, by which a draw memoises the values it forms: every
side evaluated on one draw (both sides of a record, a quarantined
record's printed variant, the representations at one point) forms each
monomial once.  :func:`substituted` maps the vectors of a side under a
substitution and prints each in one canonical spelling.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

from .arithmetic import GuardViolation, QBase, _Frozen, _set, binom2, one_like, pow_int
from .qpochhammer import DenominatorPole, poch, poch_quotient
from .qseries import SeriesSpec, VwpSpec, eval_series

SLOTS = "abcdefw"
_KEYS: dict = {}        # exponent vector -> key, in order of first use


class Factor(_Frozen):
    """A monomial label; its tokens in printed order, each a slot letter or
    (a, k) for q^{a n + k}; its exponent vector ``vec`` and that vector's
    ``key``; and ``plan``, q's (a, k) and the (letter, exponent) pairs."""

    __slots__ = ("label", "num", "den", "vec", "key", "plan")

    def __init__(self, label: str, num: tuple, den: tuple = ()):
        vec = [0] * (2 + len(SLOTS))
        for sign, tokens in ((1, num), (-1, den)):
            for tok in tokens:
                if isinstance(tok, str):
                    vec[SLOTS.index(tok) + 2] += sign
                else:
                    vec[0] += sign * tok[0]
                    vec[1] += sign * tok[1]
        a, k, *exps = vec = tuple(vec)
        _set(self, "label", label)
        _set(self, "num", num)
        _set(self, "den", den)
        _set(self, "vec", vec)
        _set(self, "key", _KEYS.setdefault(vec, len(_KEYS)))
        _set(self, "plan", (a, k, tuple((x, e) for x, e in zip(SLOTS, exps) if e)))


class Draw(_Frozen):
    """A concrete slot assignment for one check, and the values formed on
    it.  ``memo`` keeps the value of each monomial formed so far by its
    key, so every side evaluated on the draw shares it; ``qpow`` keeps q^e
    by e."""

    __slots__ = ("q", "n", "slots", "memo", "qpow")

    def __init__(self, q: QBase, n: int, slots: dict):
        _set(self, "q", q)
        _set(self, "n", n)
        _set(self, "slots", slots)
        _set(self, "memo", {_factor(x).key: v for x, v in slots.items()})
        _set(self, "qpow", {})

    def __repr__(self):
        return f"Draw(q={self.q!r}, n={self.n!r}, slots={self.slots!r})"

    def values(self, factors) -> list:
        """The monomials' values, each formed on its first use."""
        memo, out = self.memo, []
        for fac in factors:
            value = memo.get(fac.key)
            if value is None:
                value = memo[fac.key] = self.form(fac.plan)
            out.append(value)
        return out

    def form(self, plan):
        """q^{a n + k} times the slots with positive exponents, over those
        with negative ones."""
        qa, qk, letters = plan
        slots, q, value, den = self.slots, self.q.q, None, None
        e = qa * self.n + qk
        if e:
            value = self.qpow.get(e)
            if value is None:
                value = self.qpow[e] = pow_int(q, e)
        for x, k in letters:
            x = slots[x] if k in (1, -1) else pow_int(slots[x], abs(k))
            if k > 0:
                value = x if value is None else value * x
            else:
                den = x if den is None else den * x
        if value is None:
            value = one_like(q)
        return value if den is None else value / den


_TOKEN = re.compile(r"\s*(?:q(?:\^(?:\{([^{}]*)\}|(-?\d*n|-?\d+))|(\d+))?"
                    r"|([a-fw])(?:\^?(\d+))?)")
_AFFINE = re.compile(r"[+-]?(?:\d+n?|n)(?:[+-](?:\d+n?|n))*")
_AFFINE_TERM = re.compile(r"([+-]?)(\d*)(n?)")
_SERIES = re.compile(r"(W|phi)\((.*);(.*)\|\s*q\s*,(.*)\)")
_POWER_TERM = re.compile(r"\s*(?:\((-?)([^()]+)\)|(q|[a-fw]))\^(-?\d*)(n|C\(n,2\))")
_SUBSTITUTION = re.compile(r"\(([a-fw](?:,[a-fw])*)\) -> \((.*)\)")
_PREFACTOR = re.compile(r"\((.*?);q\)_n(?:/\((.*);q\)_n)?")


def _malformed(kind: str, label: str) -> ValueError:
    return ValueError(f"malformed {kind} label {label!r}")


def _exponent(text: str, label: str) -> tuple:
    """(a, k) for the exponent text a n + k."""
    text = text.replace(" ", "")
    if not _AFFINE.fullmatch(text):
        raise _malformed("monomial", label)
    a = k = 0
    for sign, coef, var in _AFFINE_TERM.findall(text):
        c = -int(coef or 1) if sign == "-" else int(coef or 1)
        if var:
            a += c
        elif coef:
            k += c
    return a, k


def _tokens(part: str, label: str) -> tuple:
    part = part.strip()
    if part == "1":
        return ()
    found = list(_TOKEN.finditer(part))
    if not found or "".join(m[0] for m in found) != part:
        raise _malformed("monomial", label)
    tokens = []
    for braced, bare, digits, letter, power in (m.groups() for m in found):
        if letter:
            tokens += [letter] * int(power or 1)
        else:
            tokens.append(_exponent(bare or digits or "1" if braced is None else braced, label))
    return tuple(tokens)


@functools.cache
def _factor(label: str) -> Factor:
    halves = label.split("/")
    if len(halves) > 2:
        raise _malformed("monomial", label)
    return Factor(label, *(_tokens(half, label) for half in halves))


def _factors(labels) -> tuple:
    return tuple(_factor(label) for label in labels)


def _entries(text: str) -> tuple:
    return _factors(e.strip() for e in text.split(","))


class _Series(_Frozen):
    """A parsed series label; called on a draw, it builds the spec.  ``rows``
    keys the bases of the spec's guard rows in ``den_rows`` order: a phi's
    denominators, or a W's q^{n+1} B and then q B / L for each L."""

    __slots__ = ("vwp", "entries", "split", "rows")

    def __init__(self, vwp: bool, top: tuple, bottom: tuple, z: Factor):
        _set(self, "vwp", vwp)
        _set(self, "entries", top + bottom + (z,))
        _set(self, "split", len(top))
        if vwp:
            qb = (top[0].vec[0], top[0].vec[1] + 1, *top[0].vec[2:])
            rows = [(qb[0] + 1, *qb[1:])]
            rows += [tuple(map(int.__sub__, qb, x.vec)) for x in bottom]
            _set(self, "rows", tuple(_KEYS.setdefault(v, len(_KEYS)) for v in rows))
        else:
            _set(self, "rows", tuple(x.key for x in bottom))

    def __call__(self, d: Draw):
        v = d.values(self.entries)
        if self.vwp:
            return VwpSpec(v[0], v[1:-1], v[-1], d.q, d.n)
        k = self.split
        return SeriesSpec(v[:k], v[k:-1], v[-1], d.q, d.n)


@functools.cache
def _series(label: str) -> _Series:
    m = _SERIES.fullmatch(label)
    if m is None:
        raise _malformed("series", label)
    kind, top, bottom, z = m.groups()
    top, bottom, z = _entries(top), _entries(bottom), _entries(z)
    if len(z) != 1 or (kind == "W" and len(top) != 1):
        raise _malformed("series", label)
    return _Series(kind == "W", top, bottom, z[0])


class _Power(_Frozen):
    """A parsed power label; called on a draw, it gives the factors (x, k)
    of its terms x^k, for poch_quotient to multiply."""

    __slots__ = ("bases", "kinds")

    def __init__(self, label: str):
        terms = list(_POWER_TERM.finditer(label))
        if not terms or "".join(m[0] for m in terms) != label:
            raise _malformed("power", label)
        _set(self, "bases", tuple(_factor(m[2] or m[3]) for m in terms))
        _set(self, "kinds", tuple((bool(m[1]), int(m[4] + "1" if m[4] in ("", "-") else m[4]),
                                   m[5] != "n") for m in terms))

    def __call__(self, d: Draw) -> list:
        return [(-x if minus else x, coef * (binom2(d.n) if choose else d.n))
                for x, (minus, coef, choose) in zip(d.values(self.bases), self.kinds)]


@functools.cache
def _power(label: str) -> _Power:
    return _Power(label)


@functools.cache
def _mapping(ref: str) -> tuple:
    """(slot letters, their images) of the substitution label in ``ref``."""
    m = _SUBSTITUTION.search(ref)
    letters, items = (m.group(1).split(","), _entries(m.group(2))) if m else ((), ())
    if not letters or len(items) != len(letters):
        raise _malformed("substitution", ref)
    return tuple(letters), items


def _render(vec) -> str:
    """The canonical label of an exponent vector: q's power, then the slot
    letters in order, over the letters (and q) with negative exponents."""
    a, k, *exps = vec
    num = den = ""
    if a:
        an = {1: "n", -1: "-n"}.get(a, f"{a}n")
        num = f"q^{{{k}{an}}}" if a < 0 < k else f"q^{{{an}{k:+d}}}" if k else f"q^{{{an}}}"
    elif k:
        q = "q" if abs(k) == 1 else f"q^{abs(k)}"
        num, den = (q, "") if k > 0 else ("", q)
    for x, e in zip(SLOTS, exps):
        if e:
            text = x if abs(e) == 1 else f"{x}^{abs(e)}"
            num, den = (num + text, den) if e > 0 else (num, den + text)
    return f"{num or '1'}/{den}" if den else num or "1"


def substituted(sub: str, text: str) -> str:
    """A side's printed form (:func:`parse_side`) under the substitution
    ``sub``, each monomial printed by :func:`_render`.  Every letter is
    mapped at once: each image's exponent is read from the original vector."""
    letters, items = _mapping(sub)
    moved = [SLOTS.index(x) + 2 for x in letters]

    def mono(label: str) -> str:
        vec = _factor(label.strip()).vec
        out = [0 if i in moved else v for i, v in enumerate(vec)]
        for i, item in zip(moved, items):
            out = [v + vec[i] * u for v, u in zip(out, item.vec)]
        return _render(out)

    def monos(labels: str, sep: str = ", ") -> str:
        return sep.join(map(mono, labels.split(",")))

    def power_term(minus, base, atom, coef, exp) -> str:
        base = ("-" if minus else "") + mono(base or atom)
        return f" {base if base == 'q' or base in SLOTS else f'({base})'}^{coef}{exp}"

    *head, series = text.split(" * ")
    out = []
    for part in head:
        m = _PREFACTOR.fullmatch(part)
        out.append("/".join(f"({monos(g, ',')};q)_n" for g in m.groups() if g) if m
                   else _POWER_TERM.sub(lambda t: power_term(*t.groups()), part).strip())
    shape, top, bottom, z = _SERIES.fullmatch(series).groups()
    return " * ".join(out + [f"{shape}({monos(top)}; {monos(bottom)} | q, {mono(z)})"])


@dataclass(frozen=True)
class Side:
    """One side of a row: scalar power * Pochhammer ratio * series.

    A prefactor factor whose monomial is the base of one of the series'
    guard rows takes that row, which the spec has formed already; the
    others are formed by :func:`~qaskey.qpochhammer.poch_quotient`."""

    series_label: str
    series: object                      # compiled series_label: (Draw) -> spec
    pref_num: tuple = ()
    pref_den: tuple = ()
    power: object = None                # compiled power_label, or None
    power_label: str = ""
    # the prefactor numerator and denominator factors that no guard row
    # holds, and the guard-row indices of the others (None for none)
    _formed: tuple = field(init=False, repr=False, compare=False)
    _rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        free, formed, rows = list(self.series.rows), [], []
        for factors in (self.pref_num, self.pref_den):
            kept, taken = [], []
            for fac in factors:
                if fac.key in free:
                    taken.append(free.index(fac.key))
                    free[taken[-1]] = None
                else:
                    kept.append(fac)
            formed.append(tuple(kept))
            rows.append(tuple(taken) or None)
        object.__setattr__(self, "_formed", tuple(formed))
        object.__setattr__(self, "_rows", tuple(rows))

    def evaluate(self, d: Draw):
        """The side's (value, TermTrace) pair on the draw ``d``.  A
        vanishing prefactor denominator raises DenominatorPole naming the
        factor's label, ahead of any guard of the series."""
        (num, den), (num_rows, den_rows) = self._formed, self._rows
        q, n = d.q.q, d.n
        try:
            spec = self.series(d)
            pref = poch_quotient(
                q, n, () if self.power is None else self.power(d), d.values(num),
                d.values(den), num_rows=num_rows and [spec.den_rows[i] for i in num_rows],
                den_rows=den_rows and [spec.den_rows[i] for i in den_rows])
        except GuardViolation:
            for fac, x in zip(self.pref_den, d.values(self.pref_den)):
                if not poch(x, q, n):
                    raise DenominatorPole(f"prefactor pole: ({fac.label};q)_n = 0") from None
            raise
        return eval_series(spec, pref)

    def describe(self) -> str:
        bits = [self.power_label] if self.power_label else []
        if self.pref_num or self.pref_den:
            num = ",".join(fac.label for fac in self.pref_num) or "1"
            den = ",".join(fac.label for fac in self.pref_den)
            bits.append(f"({num};q)_n/({den};q)_n" if den else f"({num};q)_n")
        return " * ".join(bits + [self.series_label])


def _side(series: str, num=(), den=(), power: str = "") -> Side:
    return Side(series, _series(series), _factors(num), _factors(den),
                _power(power) if power else None, power)


def parse_side(text: str) -> Side:
    """A side from its printed form, ``[POWER * ][(N1,...;q)_n[/(D1,...;q)_n]
    * ]SERIES``, as :meth:`Side.describe` prints it."""
    *head, series = text.split(" * ")
    power, num, den = "", (), ()
    for part in head:
        m = _PREFACTOR.fullmatch(part)
        if m:
            num, den = ([x.strip() for x in g.split(",")] if g not in (None, "1") else ()
                        for g in m.groups())
        else:
            power = part
    return _side(series, num, den, power)
