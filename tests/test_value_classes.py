"""The value classes: which stay dataclasses, read-only fields, equality
and hashing, and the spec guards' hook."""

import dataclasses
import importlib
import pkgutil
from fractions import Fraction

import pytest

import qaskey
from qaskey import (AWParams, CheckOutcome, GaussianRational, RepId, RepTag, SeriesSpec,
                    Verdict, VwpSpec, draw_params, eval_all, record_by_id)
from qaskey.arithmetic import UnitModulusQ, ZeroQ
from qaskey.labels import Draw, Factor
from qaskey.sampler_verifier import DrawConfig

HALF, THIRD, FIFTH = Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)


def test_only_the_records_that_callers_replace_are_dataclasses():
    # tests and the benchmark call dataclasses.replace, asdict or fields
    # on these four; every other value class is a plain slotted class
    found = set()
    for info in pkgutil.iter_modules(qaskey.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"qaskey.{info.name}")
        found |= {name for name, obj in vars(module).items()
                  if isinstance(obj, type) and obj.__module__ == module.__name__
                  and dataclasses.is_dataclass(obj)}
    assert found == {"Side", "IdentityRecord", "DrawConfig", "Target"}


def _specs(exact: bool):
    one = 1 if exact else 1.0
    q = HALF if exact else complex(0.5)
    return (SeriesSpec([HALF * one, 2 * one], [THIRD * one], FIFTH * one, q, 3),
            VwpSpec(THIRD * one, [HALF * one, 2 * one], FIFTH * one, q, 3))


@pytest.mark.parametrize("cls", [SeriesSpec, VwpSpec])
def test_spec_guards_run_once_through_the_class_post_init(monkeypatch, cls):
    # the benchmark's tracer counts spec guards by rebinding this attribute
    calls = []
    guard = cls.__post_init__

    def counting(self):
        calls.append(self)
        guard(self)

    monkeypatch.setattr(cls, "__post_init__", counting)
    for exact in (True, False):
        calls.clear()
        spec = _specs(exact)[cls is VwpSpec]
        assert len(calls) == 1 and calls[0] is spec


_NEAR = "| |q| - 1 | <= 1e-08: q too close to the unit circle"
_BAD_BASES = {
    True: [(0, ZeroQ, "q must be nonzero"),
           (GaussianRational(Fraction(3, 5), Fraction(4, 5)), UnitModulusQ,
            "|q| = 1 is not allowed")],
    False: [(0.0, ZeroQ, "q must be nonzero"), (0.6 + 0.8j, UnitModulusQ, _NEAR),
            (complex(1 + 1e-9), UnitModulusQ, _NEAR)],
}


def _on_base(cls, q, exact: bool, valid: bool = True):
    """An instance of ``cls`` on the base ``q``; unless ``valid``, its other
    inputs break another guard of the class (a negative degree, three
    parameters, a slot letter that does not exist)."""
    one = 1 if exact else 1.0
    n = 2 if valid else -1
    if cls is SeriesSpec:
        return SeriesSpec([HALF * one], [THIRD * one], FIFTH * one, q, n)
    if cls is VwpSpec:
        return VwpSpec(THIRD * one, [HALF * one], FIFTH * one, q, n)
    if cls is AWParams:
        return AWParams([HALF * one, THIRD * one, FIFTH * one, 3 * one][:4 if valid else 3],
                        q, 2 * one, n)
    return Draw(q, n, {"b": HALF * one} if valid else {"z": one})


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("cls", [SeriesSpec, VwpSpec, AWParams, Draw], ids=lambda c: c.__name__)
def test_value_classes_store_a_guarded_scalar_base(cls, exact):
    # the base is stored as its backend's scalar, and its guard runs
    # before every other guard of the class, with its own message
    q = _on_base(cls, THIRD if exact else 0.5, exact).q
    assert type(q) is (GaussianRational if exact else complex)
    assert q == (GaussianRational(THIRD) if exact else 0.5)
    for base, error, message in _BAD_BASES[exact]:
        for valid in (True, False):
            with pytest.raises(error) as err:
                _on_base(cls, base, exact, valid)
            assert str(err.value) == message, (base, valid)
    with pytest.raises(ValueError):
        _on_base(cls, q, exact, valid=False)


def _params():
    return AWParams([HALF, THIRD, FIFTH, Fraction(3, 4)], HALF, Fraction(3, 2), 2)


def _read_only_values():
    params = _params()
    return [
        *_specs(True), *_specs(False), RepId(RepTag.W_DEF5, 2),
        params, eval_all(params),
        draw_params(DrawConfig(seed=1), "cor3.5/r7"),
        Factor("q^n b", ((1, 0), "b")),
        record_by_id("cor3.8/r6").quarantine,
        CheckOutcome(Verdict.PASS, 0.0, 0.0, True),
    ]


def test_fields_of_the_read_only_classes_cannot_be_assigned():
    values = _read_only_values()
    assert len({type(v).__name__ for v in values}) == 9
    for value in values:
        fields = [f for f in type(value).__slots__ if f != "__dict__"]
        assert fields, type(value)
        for name in fields:
            before = getattr(value, name)
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            assert getattr(value, name) is before
        with pytest.raises(AttributeError):
            value.extra = None


def test_aw_params_keeps_what_it_forms_on_first_use():
    params = _params()
    assert params.a1234 is params.a1234 and "a1234" in vars(params)
    # the flipped point's 1/w is this w, seeded into its __dict__
    assert params.flip_w().wi is params.w


def test_equal_inputs_give_equal_values_with_equal_hashes():
    def twins(make):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        return a

    for exact in (True, False):
        s1, w1 = twins(lambda: _specs(exact)[0]), twins(lambda: _specs(exact)[1])
        assert s1 != w1 and s1 != _specs(not exact)[0]
        q = s1.q
        assert SeriesSpec(s1.num, s1.den, s1.z, q, 2) != s1
        assert VwpSpec(w1.b, w1.lower[:1], w1.z, q, 3) != w1
    rep = twins(lambda: RepId(RepTag.W_DEF6, 2))
    assert rep == RepId(RepTag.W_DEF6, 2, 1, 3, 4) and rep != RepId(RepTag.W_DEF7, 2)
    assert {rep, RepId(RepTag.W_DEF6, 2)} == {rep}
