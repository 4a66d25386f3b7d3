"""Seeded draw helpers shared across the test suite."""

from __future__ import annotations

from fractions import Fraction

from qaskey import AWParams, GaussianRational, QBase, SeriesSpec, VwpSpec
from qaskey.arithmetic import as_scalar, from_parts, pow_int
from qaskey.identity_catalog import Draw


def rand_fraction(rng, max_num=8, max_den=8) -> Fraction:
    num = rng.randint(1, max_num)
    den = rng.randint(1, max_den)
    return Fraction(-num if rng.random() < 0.5 else num, den)


def rand_scalar(rng, gaussian=0.3) -> GaussianRational:
    re = rand_fraction(rng)
    if rng.random() < gaussian:
        return GaussianRational(re, rand_fraction(rng))
    return GaussianRational(re)


def rand_qbase(rng, big=False) -> QBase:
    """A base with 0 < |q| < 1, or |q| > 1 when ``big``: a positive p/d,
    or with probability 1/2 a non-real (a + b i)/d.  Only a non-real q
    gives its powers an imaginary part, so only such draws reach the
    cross terms of the Gaussian products."""
    while True:
        if rng.random() < 0.5:
            d = rng.randint(2, 20)
            q = GaussianRational(Fraction(rng.randint(-19, 19), d),
                                 Fraction(rng.choice((-1, 1)) * rng.randint(1, 19), d))
        else:
            q = GaussianRational(Fraction(rng.randint(1, 20), rng.randint(1, 20)))
        if 0 < q.abs2() < 1:
            break
    if big:
        q = 1 / q
    return QBase(q)


def rand_aw_params(rng, n_max=6, big=False) -> AWParams:
    return AWParams([rand_scalar(rng) for _ in range(4)],
                    rand_qbase(rng, big=big), rand_scalar(rng),
                    rng.randint(0, n_max))


def vwp_as_phi(spec: VwpSpec, sqrt_b) -> SeriesSpec:
    """The explicit (r+1) phi r expansion of a very-well-poised series.

    Needs an explicit square root of b, so it exists in the exact backend
    only when b is a perfect square; used for cross-checks.
    """
    q = spec.q.q
    sb = as_scalar(sqrt_b, spec.q.exact)
    if sb * sb - spec.b:
        raise ValueError("sqrt_b is not a square root of the special parameter")
    num = [spec.b, q * sb, -(q * sb)] + list(spec.lower)
    den = [sb, -sb, pow_int(q, spec.n + 1) * spec.b] + [q * spec.b / a for a in spec.lower]
    return SeriesSpec(num, den, spec.z, spec.q, spec.n)


def row_values(spec) -> tuple:
    """The guard rows an exact spec keeps, each factor reduced to a scalar."""
    return tuple(tuple(from_parts(*f) for f in row) for row in spec.den_rows)


def divided_differences(xs, ys):
    """Newton divided differences; dd[k] approximates f[x_0..x_k]."""
    dd = list(ys)
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - j])
    return dd


def lifted(x):
    """A float scalar, or a float draw of a sweep target (a catalogue
    ``Draw``, a series spec or ``AWParams``), as the exact rationals its
    floats are: ``Fraction(float)`` of every part, the degree kept."""
    if isinstance(x, Draw):
        return Draw(lifted(x.q), x.n, {k: lifted(v) for k, v in x.slots.items()})
    if isinstance(x, QBase):
        return QBase(lifted(x.q))
    if isinstance(x, SeriesSpec):
        return SeriesSpec([lifted(v) for v in x.num], [lifted(v) for v in x.den],
                          lifted(x.z), lifted(x.q), x.n)
    if isinstance(x, VwpSpec):
        return VwpSpec(lifted(x.b), [lifted(v) for v in x.lower], lifted(x.z),
                       lifted(x.q), x.n)
    if isinstance(x, AWParams):
        return AWParams([lifted(v) for v in x.a], lifted(x.q), lifted(x.w), x.n)
    x = complex(x)
    return GaussianRational(Fraction(x.real), Fraction(x.imag))
