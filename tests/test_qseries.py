"""Series evaluators and the transformation contracts."""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from qaskey import (
    GaussianRational,
    QBase,
    SeriesSpec,
    VwpSpec,
    connect_qinv,
    eval_phi,
    eval_phi_direct,
    eval_w,
    eval_w_direct,
    invert_series,
    invert_w,
    poch,
    poch_list,
    qinvert_f,
    watson_whipple,
)
from qaskey import qseries
from qaskey.arithmetic import _one_minus_row, abs_parts, from_parts, parts, pow_int
from qaskey.qpochhammer import poch_quotient
from qaskey.qseries import (
    BEqualsOne,
    DenominatorPole,
    NotBalanced,
    ShapeMismatch,
    ZeroParameter,
)
from qaskey.sampler_verifier import DrawConfig, run_sweep

from util import rand_qbase, rand_scalar, row_values, vwp_as_phi

G = GaussianRational


def _spec(rng, width_num=3, width_den=3, n_max=6, big=False):
    return SeriesSpec([rand_scalar(rng) for _ in range(width_num)],
                      [rand_scalar(rng) for _ in range(width_den)],
                      rand_scalar(rng), rand_qbase(rng, big=big),
                      rng.randint(0, n_max))


def _draw(build, rng, count):
    out = []
    while len(out) < count:
        try:
            out.append(build(rng))
        except (DenominatorPole, BEqualsOne, ZeroParameter, ZeroDivisionError):
            continue
    return out


def test_eval_phi_degree_zero():
    spec = SeriesSpec([G(3)], [G(5)], G(7), rand_qbase(random.Random(0)), 0)
    value, trace = eval_phi(spec)
    assert value == G(1)
    assert trace.terms == (G(1),)


def test_eval_phi_two_term_hand_formula():
    q = QBase(G(Fraction(1, 3)))
    a, b, z = G(Fraction(2, 5)), G(Fraction(3, 7)), G(Fraction(1, 2))
    value, trace = eval_phi(SeriesSpec([a], [b], z, q, 1))
    one = G(1)
    qq = q.q
    expected = one + ((one - one / qq) * (one - a)) / ((one - qq) * (one - b)) * z
    assert value == expected
    assert len(trace.terms) == 2


def test_eval_phi_matches_direct_oracle():
    rng = random.Random(42)
    for spec in _draw(lambda r: _spec(r), rng, 60):
        v1, t1 = eval_phi(spec)
        v2, t2 = eval_phi_direct(spec)
        assert v1 == v2
        assert t1.terms == t2.terms


@pytest.mark.parametrize("big", [False, True], ids=["q_small", "q_big"])
@pytest.mark.parametrize("n", [10, 13, 16])
def test_recurrences_match_direct_oracle_at_deep_degree(n, big):
    # many-word terms: the recurrences regroup their products, the oracle
    # rebuilds every term from fresh Pochhammer products
    rng = random.Random(1000 * n + big)

    def phi(r):
        return SeriesSpec([rand_scalar(r) for _ in range(3)],
                          [rand_scalar(r) for _ in range(3)],
                          rand_scalar(r), rand_qbase(r, big=big), n)

    def w(r):
        return VwpSpec(rand_scalar(r), [rand_scalar(r) for _ in range(4)],
                       rand_scalar(r), rand_qbase(r, big=big), n)

    for spec in _draw(phi, rng, 4):
        _assert_matches_oracle(spec)
    for spec in _draw(w, rng, 4):
        _assert_matches_oracle(spec)


def _assert_matches_oracle(spec):
    fast, direct = ((eval_w, eval_w_direct) if isinstance(spec, VwpSpec)
                    else (eval_phi, eval_phi_direct))
    v1, t1 = fast(spec)
    v2, t2 = direct(spec)
    assert v1 == v2
    assert t1.terms == t2.terms
    # the kernel takes each magnitude from an unreduced triple; int / int
    # rounds the same rational, so the sum is the same float
    assert t1.abs_scale == sum(map(abs, t1.terms)) == t2.abs_scale


@pytest.mark.parametrize("qv", [G(Fraction(1, 3), Fraction(1, 5)),
                                G(Fraction(5, 2), Fraction(-3, 2))],
                         ids=["q_small", "q_big"])
def test_recurrences_match_direct_oracle_at_gaussian_base(qv):
    # no sampler draw has a non-real base, so only here do the integer
    # powers of q carry an imaginary part; the widths (1, 2), (0, 2),
    # (2, 1) and (3, 1) give the sign factor (-q^k)^e the exponents 1, 2,
    # -1 and -2, and the very-well-poised series run with 2, 4 and 6
    # lower parameters
    rng = random.Random(31)
    q = QBase(qv)
    for n in range(17):
        for width_num, width_den in ((3, 3), (1, 2), (0, 2), (2, 1), (3, 1)):
            for spec in _draw(lambda r: SeriesSpec(
                    [rand_scalar(r) for _ in range(width_num)],
                    [rand_scalar(r) for _ in range(width_den)],
                    rand_scalar(r), q, n), rng, 1):
                assert spec.sign_exponent == 1 + width_den - (1 + width_num)
                _assert_matches_oracle(spec)
        for width, count in ((2, 1), (4, 2), (6, 1)):
            for spec in _draw(lambda r: VwpSpec(
                    rand_scalar(r), [rand_scalar(r) for _ in range(width)],
                    rand_scalar(r), q, n), rng, count):
                _assert_matches_oracle(spec)


_FLOAT_BASES = {"real_small": 0.43 + 0j, "real_big": -1.87 + 0j,
                "gauss_small": 0.31 + 0.52j, "gauss_big": 1.21 - 0.93j}
_FLOAT_POOL = (0.37 + 0.21j, -1.3 + 0.4j, 2.1 - 0.7j, 0.59j, -0.45 - 1.1j,
               1.7 + 0.05j, -0.8 + 0.9j)
# (len(num), len(den)) of a phi spec with sign exponent e = len(den) - len(num)
_PHI_WIDTHS = {-2: (3, 1), -1: (2, 1), 0: (3, 3), 1: (1, 2), 2: (0, 2)}
# per shape, per base of _FLOAT_BASES: the first 16 hex digits of the
# SHA-256 of the float.hex of the real and imaginary parts of the value
# and of every term, for n = 0..20, as the separate phi and W float loops
# gave them before they became one float kernel
_FLOAT_PINS = {
    ("phi", -2): ("87baceb1c26b859d", "1e1a0cd0c893a071", "d313c2d62286b9ac", "279860d08558f30c"),
    ("phi", -1): ("031eb04cbd6627be", "21dd5ea2d59f5cfe", "159642c69a18339d", "20ffda3a59efed45"),
    ("phi", 0): ("ff9ceaebfaea76ff", "8ab7a04380e0d71a", "2b40c8ca910de113", "00bc7d388a17c7ae"),
    ("phi", 1): ("879d88a455ebe035", "c87410828ad6d98f", "386c9f7dc7631b50", "7df2c6c547f2311a"),
    ("phi", 2): ("5a4def2f33614c78", "15880f8522bd13be", "1acd27ec229722c1", "ec332ba957c4b58d"),
    ("w", 2): ("af1cbeed0c0d55d5", "ba3a57f6c3583e3e", "01db073f48e48deb", "d04cac65197b5ecd"),
    ("w", 4): ("9f2e664a38eb2359", "92cfe11600d02283", "46243e8f05933881", "8cc5b26e086a3249"),
    ("w", 6): ("08da02c7ddccae22", "1075493c6c01383d", "cce12795f3027dd8", "6fc8b4c0bdb13283"),
}


@pytest.mark.parametrize("base", sorted(_FLOAT_BASES))
@pytest.mark.parametrize("shape", sorted(_FLOAT_PINS), ids=lambda s: f"{s[0]}{s[1]}")
def test_float_kernel_is_pinned_bit_for_bit(shape, base):
    # the float kernel does the float operations of the two loops it
    # replaced, in their order; abs_scale goes through libm's hypot and
    # is left out
    kind, width = shape
    q, z = QBase(_FLOAT_BASES[base]), 0.6 - 0.35j
    hexes = []
    for n in range(21):
        if kind == "phi":
            num, den = _PHI_WIDTHS[width]
            spec = SeriesSpec(_FLOAT_POOL[:num], _FLOAT_POOL[num:num + den], z, q, n)
            assert spec.sign_exponent == width
            value, trace = eval_phi(spec)
        else:
            value, trace = eval_w(VwpSpec(-0.7 + 0.45j, _FLOAT_POOL[:width], z, q, n))
        for x in (value, *trace.terms):
            assert math.isfinite(x.real) and math.isfinite(x.imag)
            hexes += [x.real.hex(), x.imag.hex()]
    digest = hashlib.sha256(" ".join(hexes).encode()).hexdigest()[:16]
    assert digest == _FLOAT_PINS[shape][list(_FLOAT_BASES).index(base)]


def test_guard_row_k_sits_over_x_d_times_q_d_to_the_k():
    # the kernel drops each row's denominator and folds the k = 0 ones
    # into its one constant C: that relies on row k of a guard row
    # sitting over x_d q_d^k, with q's and x's canonical denominators
    rng = random.Random(16)
    for _ in range(40):
        x, q, n = rand_scalar(rng), rand_qbase(rng, big=rng.random() < 0.5).q, rng.randint(0, 9)
        (_, _, xd), (_, _, qd) = parts(x), parts(q)
        row = _one_minus_row(parts(x), parts(q), n)
        assert len(row) == n
        for k, (fa, fb, fd) in enumerate(row):
            assert fd == xd * qd ** k
            assert from_parts(fa, fb, fd) == 1 - x * pow_int(q, k)


def _forward(ratios, weights, wd):
    # the running term carried forward, as a kernel that sums forward
    # would: term k + 1 = term k r_k (w_{k+1}), over wd times the product
    # of the ratio denominators so far
    a, b, d = 1, 0, 1
    terms = [(wd, 0, wd)]
    for k, (ra, rb, rd) in enumerate(ratios):
        a, b, d = a * ra - b * rb, a * rb + b * ra, d * rd
        wa, wb = (1, 0) if weights is None else weights[k + 1]
        terms.append((a * wa - b * wb, a * wb + b * wa, d * wd))
    return tuple(terms)


@pytest.mark.parametrize("big", [False, True], ids=["q_small", "q_big"])
def test_exact_trace_is_the_forward_accumulation_of_the_kernel_ratios(big):
    # the kernel sums by Horner's rule and keeps only its reduced ratios
    # and pair weights; the trace forms the forward triples when read.
    # Each kept ratio is the canonical triple of t_{k+1} / t_k of the
    # unweighted series, and each weight is (1 - b q^{2k}) / (1 - b)
    rng = random.Random(40 + big)
    phi = _draw(lambda r: _spec(r, n_max=12, big=big), rng, 12)
    w = _draw(lambda r: VwpSpec(rand_scalar(r), [rand_scalar(r) for _ in range(4)],
                                rand_scalar(r), rand_qbase(r, big=big), r.randint(0, 12)),
              rng, 12)
    for spec in phi + w:
        fast, direct = ((eval_w, eval_w_direct) if isinstance(spec, VwpSpec)
                        else (eval_phi, eval_phi_direct))
        value, trace = fast(spec)
        steps = trace._steps
        assert isinstance(steps, qseries._Steps) and steps._formed is None
        assert len(steps.ratios) == spec.n
        assert (tuple(from_parts(*t) for t in _forward(steps.ratios, steps.weights, steps.wd))
                == trace.unscaled_terms)
        dvalue, dtrace = direct(spec)
        assert value == dvalue
        dterms = dtrace.terms
        weights = ([G(1)] * (spec.n + 1) if steps.weights is None else
                   [from_parts(wa, wb, steps.wd) for wa, wb in steps.weights])
        if steps.weights is not None:
            q, b = spec.q.q, spec.b
            assert weights == [(1 - b * pow_int(q, 2 * k)) / (1 - b)
                               for k in range(spec.n + 1)]
        for k, ratio in enumerate(steps.ratios):
            if dterms[k]:
                expected = dterms[k + 1] / dterms[k] * weights[k] / weights[k + 1]
                assert ratio == parts(expected)


def test_exact_sweep_forms_no_trace(monkeypatch):
    # no exact verdict reads a term or abs_scale, so an exact sweep never
    # forms the trace triples
    def form(self):
        raise AssertionError("an exact sweep formed a trace")

    monkeypatch.setattr(qseries._Steps, "terms", form)
    cfg = DrawConfig(seed=16, draws_per_record=2, n_range=(0, 8), backend="rational")
    report = run_sweep(cfg, ["*"])
    assert not report.any_fail
    assert sum(e.passed for e in report.entries) == 2 * len(report.entries)


def _vwp_spec(rng, width=4, n_max=8):
    return VwpSpec(rand_scalar(rng), [rand_scalar(rng) for _ in range(width)],
                   rand_scalar(rng), rand_qbase(rng), rng.randint(0, n_max))


def test_exact_kernel_reduces_once_and_traces_on_read(monkeypatch):
    # the value is the one reduction of a series, on both shapes; scaled()
    # only records its factor, and the terms are reduced on the first read
    # of abs_scale or terms, once
    calls = []
    reduce = qseries.from_parts

    def counting(*triple):
        calls.append(triple)
        return reduce(*triple)

    monkeypatch.setattr(qseries, "from_parts", counting)
    rng = random.Random(8)
    phi = [(eval_phi, eval_phi_direct, spec)
           for spec in _draw(lambda r: _spec(r, n_max=8), rng, 5)]
    w = [(eval_w, eval_w_direct, spec) for spec in _draw(_vwp_spec, rng, 5)]
    for fast, direct, spec in phi + w:
        del calls[:]
        value, trace = fast(spec)
        assert len(calls) == 1
        f, g = rand_scalar(rng), rand_scalar(rng)
        twice = trace.scaled(f).scaled(g)
        assert len(calls) == 1
        assert twice.abs_scale == abs(g) * (abs(f) * trace.abs_scale)
        assert len(calls) == 1 + spec.n + 1
        terms = twice.terms
        assert len(calls) == 1 + spec.n + 1
        dvalue, dtrace = direct(spec)
        assert value == dvalue
        assert terms == tuple(g * (f * t) for t in dtrace.terms)


def test_eval_series_with_a_prefactor_is_the_prefactor_times_the_series(monkeypatch):
    # the prefactor rides into the kernel: exactly the product of the two
    # on rational, the same float operation pref * value on float, and
    # the trace records it as scaled() does; the exact product is one
    # reduction, the kernel's
    calls = []
    reduce = qseries.from_parts

    def counting(*triple):
        calls.append(triple)
        return reduce(*triple)

    monkeypatch.setattr(qseries, "from_parts", counting)
    rng = random.Random(25)
    exact = _draw(lambda r: _spec(r, n_max=9), rng, 6) + _draw(_vwp_spec, rng, 6)
    exact.append(SeriesSpec([G(2)], [G(3)], G(1), rand_qbase(rng, big=True), 12))
    for spec in exact:
        pref = rand_scalar(rng, gaussian=0.5)
        value, trace = qseries.eval_series(spec)
        del calls[:]
        scaled, strace = qseries.eval_series(spec, pref)
        assert len(calls) == 1
        assert type(scaled) is G and parts(scaled) == parts(pref * value)
        assert strace.factors == (pref,)
        assert strace.terms == trace.scaled(pref).terms
    fl = random.Random(26)
    for kind in ("phi", "w"):
        for base in _FLOAT_BASES.values():
            for n in (0, 1, 7, 20):
                if kind == "phi":
                    spec = SeriesSpec(_FLOAT_POOL[:3], _FLOAT_POOL[3:6], 0.6 - 0.35j, QBase(base), n)
                else:
                    spec = VwpSpec(-0.7 + 0.45j, _FLOAT_POOL[:4], 0.6 - 0.35j, QBase(base), n)
                pref = complex(fl.uniform(-3, 3), fl.uniform(-3, 3))
                value, trace = qseries.eval_series(spec)
                scaled, strace = qseries.eval_series(spec, pref)
                want = pref * value
                assert (scaled.real.hex(), scaled.imag.hex()) == (want.real.hex(), want.imag.hex())
                assert strace.factors == (pref,) and strace.terms == trace.scaled(pref).terms


def test_series_spec_shape_fields():
    spec = SeriesSpec([G(2), G(3)], [G(5)], G(1, 1), rand_qbase(random.Random(1)), 2)
    assert spec.r == 3 and spec.s == 1 and spec.sign_exponent == -1
    v1, _ = eval_phi(spec)
    v2, _ = eval_phi_direct(spec)
    assert v1 == v2


def _raises_pole(message, build):
    with pytest.raises(DenominatorPole) as err:
        build()
    assert str(err.value) == message


_SPEC_POLE = "denominator parameter lies in Omega_q^n"
_QN1B_POLE = "q^{n+1} b lies in Omega_q^n"
_RATIO_POLE = "q b / a_k lies in Omega_q^n"


def _half(exact):
    return QBase(G(Fraction(1, 2))) if exact else QBase(0.5 + 0j)


def test_series_spec_pole_guard_at_construction():
    q = QBase(G(Fraction(1, 2)))
    with pytest.raises(DenominatorPole):
        SeriesSpec([G(3)], [G(4)], G(1), q, 3)  # 4 = q^{-2} lies in Omega
    SeriesSpec([G(3)], [G(4)], G(1), q, 2)      # n = 2 leaves 4 outside
    # q = 1/2: the entry 2^k hits the factor 1 - x q^k, in any den slot
    n = 5
    for exact in (True, False):
        q = _half(exact)
        for k in range(n):
            for den in ([2 ** k, 5], [5, 2 ** k]):
                _raises_pole(_SPEC_POLE, lambda: SeriesSpec([3], den, 1, q, n))
                SeriesSpec([3], den, 1, q, k)   # degree k leaves 2^k outside
    # the float margin: |x q^k - 1| below pole_eps counts as a pole
    q = _half(False)
    for k in range(n):
        near = 2 ** k * (1 + 1e-11)
        _raises_pole(_SPEC_POLE, lambda: SeriesSpec([3], [near], 1, q, n))
        SeriesSpec([3], [2 ** k * (1 + 1e-7)], 1, q, n)


def test_eval_w_degree_zero_and_hand_two_terms():
    rng = random.Random(7)
    q = rand_qbase(rng)
    spec = VwpSpec(G(3), [G(2), G(5), G(7), G(-2)], G(Fraction(1, 4)), q, 0)
    assert eval_w(spec)[0] == G(1)

    b = G(Fraction(2, 3))
    lower = [G(Fraction(5, 7)), G(-3), G(Fraction(1, 5)), G(4)]
    z = G(Fraction(3, 5))
    spec = VwpSpec(b, lower, z, q, 1)
    value, _ = eval_w(spec)
    one = G(1)
    qq = q.q
    t1 = (one - b) * (one - one / qq)
    for a in lower:
        t1 = t1 * (one - a)
    t1 = t1 / ((one - qq) * (one - qq * qq * b))
    for a in lower:
        t1 = t1 / (one - qq * b / a)
    t1 = t1 * (one - b * qq * qq) / (one - b) * z
    assert value == one + t1


def test_eval_w_oracle_and_phi_expansion_on_squares():
    rng = random.Random(11)
    checked = 0
    while checked < 40:
        q = rand_qbase(rng)
        sb = rand_scalar(rng)
        try:
            spec = VwpSpec(sb * sb, [rand_scalar(rng) for _ in range(4)],
                           rand_scalar(rng), q, rng.randint(0, 5))
            phi_form = vwp_as_phi(spec, sb)
        except (DenominatorPole, BEqualsOne, ZeroParameter, ZeroDivisionError):
            continue
        v = eval_w(spec)[0]
        assert v == eval_w_direct(spec)[0]
        assert v == eval_phi(phi_form)[0]
        checked += 1


def test_eval_w_zero_factor_mid_sum():
    # b = q^{-2} zeroes the k=1 pair factor without poisoning later terms
    q = QBase(G(Fraction(1, 2)))
    b = G(4)
    spec = VwpSpec(b, [G(3), G(5), G(7), G(-2)], G(Fraction(1, 3)), q, 3)
    v1, trace = eval_w(spec)
    assert v1 == eval_w_direct(spec)[0]
    assert trace.terms[1] == G(0)
    assert trace.terms[2] != G(0)


def test_vwp_guards():
    q = QBase(G(Fraction(1, 2)))
    with pytest.raises(BEqualsOne):
        VwpSpec(G(1), [G(2), G(3), G(5), G(7)], G(1), q, 2)
    with pytest.raises(ZeroParameter):
        VwpSpec(G(0), [G(2), G(3), G(5), G(7)], G(1), q, 2)
    with pytest.raises(DenominatorPole):
        # q^{n+1} b = q^{-1} in Omega_q^n for b = q^{-n-2}
        VwpSpec(G(16), [G(2), G(3), G(5), G(7)], G(1), q, 2)
    with pytest.raises(ValueError):
        vwp_as_phi(VwpSpec(G(3), [G(2), G(3), G(5), G(7)], G(1), q, 1), G(2))
    # q = 1/2: q^{n+1} b q^k = 1 for b = 2^{n+1+k}, and q b / a q^k = 1
    # for a = b / 2^{k+1}, in any lower slot
    n = 4
    lower = [2, 3, 5, 7]
    for exact in (True, False):
        q = _half(exact)
        for k in range(n):
            b = 2 ** (n + 1 + k)
            _raises_pole(_QN1B_POLE, lambda: VwpSpec(b, lower, 1, q, n))
            VwpSpec(b, lower, 1, q, k)
            for slot in range(4):
                bad = list(lower)
                bad[slot] = Fraction(3, 2 ** (k + 1))
                _raises_pole(_RATIO_POLE, lambda: VwpSpec(3, bad, 1, q, n))
                VwpSpec(3, bad, 1, q, k)
    # the float margin of both guards
    q = _half(False)
    for k in range(n):
        near = 2 ** (n + 1 + k) * (1 + 1e-11)
        _raises_pole(_QN1B_POLE, lambda: VwpSpec(near, lower, 1, q, n))
        VwpSpec(2 ** (n + 1 + k) * (1 + 1e-7), lower, 1, q, n)
        bad = [2, 3, 5, 3 / 2 ** (k + 1) * (1 + 1e-11)]
        _raises_pole(_RATIO_POLE, lambda: VwpSpec(3, bad, 1, q, n))
        VwpSpec(3, [2, 3, 5, 3 / 2 ** (k + 1) * (1 + 1e-7)], 1, q, n)


@pytest.mark.parametrize("big", [False, True], ids=["q_small", "q_big"])
def test_guard_factors_give_the_pochhammer_products(big):
    # the rows the guards keep are the factors 1 - x q^k, and their
    # product is the (den;q)_n that the prefactors used to form afresh
    rng = random.Random(83 + big)
    for n in range(17):
        spec, = _draw(lambda r: SeriesSpec(
            [rand_scalar(r) for _ in range(3)], [rand_scalar(r) for _ in range(3)],
            rand_scalar(r), rand_qbase(r, big=big), n), rng, 1)
        q = spec.q.q
        assert row_values(spec) == tuple(
            tuple(1 - x * pow_int(q, k) for k in range(n)) for x in spec.den)
        assert poch_quotient(q, n, num_rows=spec.den_rows) == poch_list(spec.den, q, n)
        w, = _draw(lambda r: VwpSpec(
            rand_scalar(r), [rand_scalar(r) for _ in range(4)],
            rand_scalar(r), rand_qbase(r, big=big), n), rng, 1)
        q = w.q.q
        xs = [pow_int(q, n + 1) * w.b] + [q * w.b / a for a in w.lower]
        assert row_values(w) == tuple(
            tuple(1 - x * pow_int(q, k) for k in range(n)) for x in xs)
        assert poch_quotient(q, n, num_rows=w.den_rows) == poch_list(xs, q, n)


def test_invert_series_contract_and_involution():
    rng = random.Random(13)
    checked = 0
    while checked < 60:
        try:
            spec = _spec(rng)
            pref, rev = invert_series(spec)
        except (DenominatorPole, ZeroParameter, ZeroDivisionError):
            continue
        assert eval_phi(spec)[0] == pref * eval_phi(rev)[0]
        # applying the reversal twice reproduces the value
        pref2, rev2 = invert_series(rev)
        assert rev2.num == spec.num and rev2.den == spec.den and rev2.z == spec.z
        assert eval_phi(spec)[0] == pref * pref2 * eval_phi(rev2)[0]
        checked += 1


def test_invert_series_degree_zero_prefactor_is_one():
    rng = random.Random(2)
    spec = SeriesSpec([G(2)], [G(3)], G(5), rand_qbase(rng), 0)
    pref, rev = invert_series(spec)
    assert pref == G(1)
    assert eval_phi(rev)[0] == eval_phi(spec)[0] == G(1)


def test_invert_series_balanced_argument_is_q2_over_z():
    rng = random.Random(17)
    checked = 0
    while checked < 40:
        q = rand_qbase(rng)
        n = rng.randint(0, 5)
        num = [rand_scalar(rng) for _ in range(3)]
        b1, b2 = rand_scalar(rng), rand_scalar(rng)
        prod_num = num[0] * num[1] * num[2]
        try:
            b3 = pow_int(q.q, 1 - n) * prod_num / (b1 * b2)
            z = rand_scalar(rng)
            spec = SeriesSpec(num, [b1, b2, b3], z, q, n)
            pref, rev = invert_series(spec)
        except (DenominatorPole, ZeroParameter, ZeroDivisionError):
            continue
        assert rev.z == q.q * q.q / z
        checked += 1


def test_invert_series_shape_errors():
    # connect_qinv raises them through qinvert_f and invert_series
    rng = random.Random(3)
    q = rand_qbase(rng)
    for transform in (invert_series, connect_qinv):
        with pytest.raises(ShapeMismatch):
            transform(SeriesSpec([G(2), G(3)], [G(5)], G(1), q, 2))
        with pytest.raises(ZeroParameter):
            transform(SeriesSpec([G(0)], [G(5)], G(1), q, 2))
        with pytest.raises(ZeroParameter):
            transform(SeriesSpec([G(2)], [G(5)], G(0), q, 2))


def test_invert_w_contract_all_widths():
    rng = random.Random(19)
    for width in (2, 3, 4, 5):
        checked = 0
        while checked < 25:
            try:
                spec = VwpSpec(rand_scalar(rng),
                               [rand_scalar(rng) for _ in range(width)],
                               rand_scalar(rng), rand_qbase(rng),
                               rng.randint(0, 4))
                pref, rev = invert_w(spec)
            except (DenominatorPole, BEqualsOne, ZeroParameter, ZeroDivisionError):
                continue
            assert eval_w(spec)[0] == pref * eval_w(rev)[0]
            checked += 1


def test_invert_w_classical_width_structure():
    # reversed parameters for the four-slot shape: q^{-2n}/b, q^{-n} a/b
    rng = random.Random(23)
    while True:
        try:
            spec = VwpSpec(rand_scalar(rng), [rand_scalar(rng) for _ in range(4)],
                           rand_scalar(rng), rand_qbase(rng), 3)
            pref, rev = invert_w(spec)
            break
        except (DenominatorPole, BEqualsOne, ZeroParameter, ZeroDivisionError):
            continue
    n, q = spec.n, spec.q.q
    assert rev.b == pow_int(q, -2 * n) / spec.b
    assert rev.lower == tuple(pow_int(q, -n) * a / spec.b for a in spec.lower)
    prod = spec.lower[0] * spec.lower[1] * spec.lower[2] * spec.lower[3]
    assert rev.z == pow_int(q, 2 * n + 4) * pow_int(spec.b, 4) / (prod * prod * spec.z)


def _balanced_43(rng, n=None):
    q = rand_qbase(rng)
    n = rng.randint(0, 5) if n is None else n
    a, b, c, d, e = (rand_scalar(rng) for _ in range(5))
    f = pow_int(q.q, 1 - n) * a * b * c / (d * e)
    return SeriesSpec([a, b, c], [d, e, f], q.q, q, n)


def test_watson_whipple_contract():
    rng = random.Random(29)
    checked = 0
    while checked < 60:
        try:
            spec = _balanced_43(rng)
            pref, w = watson_whipple(spec)
            lhs = eval_phi(spec)[0]
            rhs = pref * eval_w(w)[0]
        except (DenominatorPole, BEqualsOne, ZeroParameter, ZeroDivisionError):
            continue
        assert lhs == rhs
        checked += 1


def test_watson_whipple_prefactor_index_is_degree():
    # the prefactor Pochhammers run to exactly n: the n=1 instance breaks
    # under any other index
    rng = random.Random(31)
    while True:
        try:
            spec = _balanced_43(rng, n=1)
            pref, w = watson_whipple(spec)
            lhs = eval_phi(spec)[0]
            wval = eval_w(w)[0]
        except (DenominatorPole, BEqualsOne, ZeroParameter, ZeroDivisionError):
            continue
        if wval == G(0) or pref == G(0):
            continue
        break
    assert lhs == pref * wval
    a, b, c = spec.num
    d, e, f = spec.den
    de = d * e
    q = spec.q
    for wrong_index in (0, 2):
        alt = (poch(de / (a * b), q, wrong_index) * poch(de / (a * c), q, wrong_index)
               / (poch(de / a, q, wrong_index) * poch(de / (a * b * c), q, wrong_index)))
        assert alt * wval != lhs


def test_watson_whipple_repeated_parameter_cancellation():
    # d = a collapses part of the prefactor; the identity still holds
    rng = random.Random(37)
    checked = 0
    while checked < 20:
        q = rand_qbase(rng)
        n = rng.randint(0, 4)
        a, b, c, e = (rand_scalar(rng) for _ in range(4))
        d = a
        try:
            f = pow_int(q.q, 1 - n) * a * b * c / (d * e)
            spec = SeriesSpec([a, b, c], [d, e, f], q.q, q, n)
            pref, w = watson_whipple(spec)
        except (DenominatorPole, BEqualsOne, ZeroParameter, ZeroDivisionError):
            continue
        assert eval_phi(spec)[0] == pref * eval_w(w)[0]
        checked += 1


def test_watson_whipple_shape_and_balance_errors():
    rng = random.Random(41)
    q = rand_qbase(rng)
    with pytest.raises(ShapeMismatch):
        watson_whipple(SeriesSpec([G(2), G(3)], [G(5), G(7)], q.q, q, 2))
    with pytest.raises(NotBalanced):
        watson_whipple(SeriesSpec([G(2), G(3), G(5)], [G(7), G(11), G(13)],
                                  q.q, q, 2))
    spec = _balanced_43(random.Random(43), n=2)
    with pytest.raises(NotBalanced):
        watson_whipple(SeriesSpec(spec.num, spec.den, spec.z * G(2),
                                  spec.q, spec.n))


def test_watson_then_reversal_round_trip():
    # a balanced origin pins the reversed argument to the original one
    rng = random.Random(47)
    checked = 0
    while checked < 40:
        try:
            spec = _balanced_43(rng)
            pref, w = watson_whipple(spec)
            pref2, w2 = invert_w(w)
        except (DenominatorPole, BEqualsOne, ZeroParameter, ZeroDivisionError):
            continue
        assert w2.z == w.z
        assert eval_phi(spec)[0] == pref * pref2 * eval_w(w2)[0]
        checked += 1


def test_connect_qinv_three_way():
    rng = random.Random(53)
    checked = 0
    while checked < 50:
        try:
            spec = _spec(rng, big=rng.random() < 0.4)
            inv_spec, (pref, rev) = connect_qinv(spec)
        except (DenominatorPole, ZeroParameter, ZeroDivisionError):
            continue
        v = eval_phi(spec)[0]
        assert v == eval_phi(inv_spec)[0]
        assert v == pref * eval_phi(rev)[0]
        checked += 1
    # degenerate degree: all three sides are the empty sum
    spec = SeriesSpec([G(2)], [G(3)], G(5), rand_qbase(rng), 0)
    inv_spec, (pref, rev) = connect_qinv(spec)
    assert eval_phi(spec)[0] == eval_phi(inv_spec)[0] == pref * eval_phi(rev)[0] == G(1)


def test_connect_qinv_reversed_form_is_invert_series():
    rng = random.Random(59)
    while True:
        try:
            spec = _spec(rng)
            inv_spec, (pref, rev) = connect_qinv(spec)
            pref2, rev2 = invert_series(spec)
            break
        except (DenominatorPole, ZeroParameter, ZeroDivisionError):
            continue
    assert pref == pref2
    assert rev == rev2
    assert inv_spec == qinvert_f(spec)


def test_qinvert_f_contract_and_round_trip():
    rng = random.Random(61)
    checked = 0
    while checked < 50:
        try:
            spec = _spec(rng, big=rng.random() < 0.5)
            spec2 = qinvert_f(spec)
        except (DenominatorPole, ZeroParameter, ZeroDivisionError):
            continue
        assert spec2.q.q == G(1) / spec.q.q
        assert eval_phi(spec)[0] == eval_phi(spec2)[0]
        spec3 = qinvert_f(spec2)
        assert spec3.num == spec.num and spec3.den == spec.den
        assert spec3.z == spec.z and spec3.q.q == spec.q.q
        checked += 1


def test_trace_scale_is_term_magnitude_sum():
    spec = SeriesSpec([0.5 + 0.1j], [0.25 + 0j], 0.7 + 0j, QBase(0.4 + 0j), 5)
    value, trace = eval_phi(spec)
    assert len(trace.terms) == 6
    total = trace.terms[0]
    for t in trace.terms[1:]:
        total = total + t
    assert total == value
    assert trace.abs_scale == pytest.approx(sum(abs(t) for t in trace.terms))
    # scaled() records its factor; the terms and abs_scale are scaled
    # when read
    exact_spec = SeriesSpec([G(Fraction(1, 2), Fraction(1, 10))], [G(Fraction(1, 4))],
                            G(Fraction(7, 10)), QBase(G(Fraction(2, 5))), 5)
    cases = [(trace, 1.7 - 0.3j, -0.45 + 2.1j),
             (eval_phi(exact_spec)[1], G(Fraction(17, 10), Fraction(-3, 10)),
              G(Fraction(-9, 20), Fraction(21, 10)))]
    for trace, f, g in cases:
        unscaled = trace.terms
        once = trace.scaled(f)
        assert once.terms == tuple(f * t for t in trace.terms)
        assert once.abs_scale == abs(f) * trace.abs_scale
        twice = once.scaled(g)
        assert twice.terms == tuple(g * (f * t) for t in trace.terms)
        assert twice.abs_scale == abs(g) * (abs(f) * trace.abs_scale)
        assert trace.terms == unscaled


def test_exact_abs_scale_is_formed_when_read_and_equals_the_eager_float():
    # the kernel and scaled() form no term; abs_scale, read after zero, one
    # and two scaled() calls, is the float the eager scale gave: the
    # magnitudes of the unreduced forward terms summed in order, then
    # abs(f) * s for each factor.  abs_parts rounds each magnitude
    # correctly, so the reduced terms the trace holds give the same floats
    rng = random.Random(12)
    def w(r):
        return VwpSpec(rand_scalar(r), [rand_scalar(r) for _ in range(4)], rand_scalar(r),
                       rand_qbase(r, big=r.random() < 0.5), r.randint(0, 8))

    specs = (_draw(lambda r: _spec(r, n_max=8, big=r.random() < 0.5), rng, 10)
             + _draw(w, rng, 10))
    for spec in specs:
        fast, direct = ((eval_w, eval_w_direct) if isinstance(spec, VwpSpec)
                        else (eval_phi, eval_phi_direct))
        f, g = rand_scalar(rng), rand_scalar(rng)
        _, trace = fast(spec)
        once, twice = trace.scaled(f), trace.scaled(f).scaled(g)
        steps = trace._steps
        assert steps._formed is None
        eager = sum(abs_parts(*t) for t in _forward(steps.ratios, steps.weights, steps.wd))
        assert trace.abs_scale == eager
        assert len(steps._formed) == spec.n + 1
        assert once.abs_scale == abs(f) * eager
        assert twice.abs_scale == abs(g) * (abs(f) * eager)
        # the direct oracle's trace holds the same reduced terms
        _, dtrace = direct(spec)
        assert dtrace.scaled(f).scaled(g).abs_scale == twice.abs_scale
    # a float trace: the sum over its terms, then abs(f) * s
    spec = SeriesSpec([0.5 + 0.1j], [0.25 + 0j], 0.7 + 0j, QBase(0.4 + 0j), 5)
    _, ftrace = eval_phi(spec)
    assert ftrace.abs_scale == sum(map(abs, ftrace.terms))
    assert ftrace.scaled(1.5 - 2j).abs_scale == abs(1.5 - 2j) * ftrace.abs_scale
