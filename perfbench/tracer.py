"""Counting and timing wrappers around the qaskey layers.

Each layer is one qaskey module.  A :class:`Tracer` measures it from
outside: while installed, the names of the module's public entry points
are rebound, in every qaskey module that holds them, to wrappers that
count calls and record spans.  Nothing under ``src/`` changes; leaving the
context restores every original binding.

A span is ``(span_id, parent_id, check_id, name, start_s, end_s)``.  The
check identifier is ``target:backend:index`` of the substream the sampler
opened last.  A layer's self time is the time spent inside its wrapped
calls minus the whole time of the wrapped calls nested in them.  Each
wrapper reads the clock on entry and on exit, around its own counting and
span keeping, and again around the wrapped call: the wrapped call alone is
credited to the layer, the whole interval is taken out of the enclosing
call's self time, and the difference goes to ``bookkeeping_s``.  What is
left of the tracer in a layer's self time is the bare cost of calling the
wrappers of the calls it makes.

``GaussianRational`` operators run millions of times per sweep, so they
are counted and timed but keep no span of their own.  The arithmetic layer
is the operators ``+ - * /`` (counted by kind), unary minus, ``==``,
``bool``, ``abs``, ``abs2`` and ``conjugate`` (counted as
``other_calls``).  ``**`` is a loop of ``*`` and is counted as those.
Spans are kept for sweep roots and for the first ``SPAN_DRAWS`` draw
indices of every target, so a float sweep of thousands of draws still
leaves a file of a few thousand spans.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys
import time
from collections import Counter

SPAN_DRAWS = 2

LAYERS = ("arithmetic", "qpochhammer", "qseries", "askey_wilson",
          "identity_catalog", "sampler_verifier")

# GaussianRational operator -> arithmetic counter.  __rtruediv__ delegates
# to __truediv__, so wrapping the latter counts every division once.
_ARITH_OPS = {
    "__add__": "addsub_calls", "__radd__": "addsub_calls",
    "__sub__": "addsub_calls", "__rsub__": "addsub_calls",
    "__mul__": "mul_calls", "__rmul__": "mul_calls",
    "__truediv__": "div_calls",
    "__neg__": "other_calls", "__eq__": "other_calls", "__bool__": "other_calls",
    "__abs__": "other_calls", "abs2": "other_calls", "conjugate": "other_calls",
}


def _bits(x) -> int:
    re, im = x.re, x.im
    return max(re.numerator.bit_length(), re.denominator.bit_length(),
               im.numerator.bit_length(), im.denominator.bit_length())


class Tracer:
    """Per-layer counts, self times and spans of the calls made while installed."""

    def __init__(self, keep_spans: bool = True):
        self.counts = Counter()
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.inclusive_s = Counter()       # spec_guard_s, draw_s
        self.bookkeeping_s = 0.0           # the wrappers' own counting and span keeping
        self.max_operand_bits = 0
        self.keep_spans = keep_spans
        self.spans = []
        self.check_id = None
        self._keep_check = True            # the current check is within SPAN_DRAWS
        self._stack = []                   # frames: [span_id, child_seconds]
        self._next_id = 1
        self._gr = None                    # GaussianRational, once installed

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, layer, fn, counter=None, name=None, inclusive=None, on_call=None):
        """A wrapper that counts calls to ``fn`` and times them for
        ``layer``; with a ``name`` it also records a span."""
        tracer, stack, clock, counts = self, self._stack, time.perf_counter, self.counts

        def wrapper(*args, **kwargs):
            e0 = clock()
            if counter is not None:
                counts[counter] += 1
            if on_call is not None:
                on_call(args)
            sid, keep = 0, False
            if name is not None:
                sid = tracer._next_id
                tracer._next_id = sid + 1
                parent = stack[-1][0] if stack else 0
                check = tracer.check_id if stack else None
                keep = tracer.keep_spans and (tracer._keep_check or not stack)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                tracer.self_s[layer] += dur - frame[1]
                if inclusive is not None:
                    tracer.inclusive_s[inclusive] += dur
                if keep:
                    tracer.spans.append((sid, parent, check, name, t0, t1))
                e1 = clock()
                if stack:
                    stack[-1][1] += e1 - e0
                tracer.bookkeeping_s += e1 - e0 - dur

        wrapper.__wrapped__ = fn
        return wrapper

    def _note_bits(self, args):
        bits = _bits(args[0])
        if len(args) > 1 and isinstance(args[1], self._gr):
            bits = max(bits, _bits(args[1]))
        if bits > self.max_operand_bits:
            self.max_operand_bits = bits

    def _count_terms(self, args):
        self.counts["qseries.terms"] += args[0].n + 1

    def _set_check(self, fn):
        tracer = self

        def wrapper(cfg, target_id, backend, index):
            tracer.check_id = f"{target_id}:{backend}:{index}"
            tracer._keep_check = index < SPAN_DRAWS
            return fn(cfg, target_id, backend, index)

        return wrapper

    # -- installation -------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Rebind the layer entry points to wrappers; restore them on exit."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "qaskey" or name.startswith("qaskey.")}
        ar, qp = mods["qaskey.arithmetic"], mods["qaskey.qpochhammer"]
        qs, aw = mods["qaskey.qseries"], mods["qaskey.askey_wilson"]
        ic, sv = mods["qaskey.identity_catalog"], mods["qaskey.sampler_verifier"]
        undo = []

        def rebind(fn, wrapper):
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        undo.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

        def rebind_attr(owner, attr, wrapper):
            undo.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)

        try:
            gr = self._gr = ar.GaussianRational
            for op, counter in _ARITH_OPS.items():
                rebind_attr(gr, op, self._wrap("arithmetic", vars(gr)[op],
                                               "arithmetic." + counter,
                                               on_call=self._note_bits))
            for fn, counter in ((qp.poch, "qpochhammer.poch_calls"),
                                (qp.poch_list, "qpochhammer.poch_list_calls"),
                                (qp.omega_contains, "qpochhammer.omega_calls")):
                rebind(fn, self._wrap("qpochhammer", fn, counter,
                                      "qpochhammer." + fn.__name__))
            for fn, counter in ((qs.eval_phi, "qseries.eval_phi_calls"),
                                (qs.eval_w, "qseries.eval_w_calls")):
                rebind(fn, self._wrap("qseries", fn, counter, "qseries." + fn.__name__,
                                      on_call=self._count_terms))
            # the spec classes stay in place (callers test isinstance); their
            # guards run in __post_init__, which dataclass __init__ looks up
            for cls in (qs.SeriesSpec, qs.VwpSpec):
                rebind_attr(cls, "__post_init__", self._wrap(
                    "qseries", vars(cls)["__post_init__"], "qseries.spec_calls",
                    f"qseries.{cls.__name__}", inclusive="qseries.spec_guard_s"))
            for fn in (aw.eval_rep, aw.eval_qinv_rep, aw.eval_qinv_direct):
                rebind(fn, self._wrap("askey_wilson", fn, "askey_wilson.rep_evals",
                                      "askey_wilson." + fn.__name__))
            rebind(ic.check, self._wrap("identity_catalog", ic.check,
                                        "identity_catalog.checks", "identity_catalog.check"))
            rebind(sv.run_sweep, self._wrap("sampler_verifier", sv.run_sweep,
                                            name="sampler_verifier.run_sweep"))
            rebind_attr(sv, "_substream", self._set_check(sv._substream))
            targets = sv.all_targets()
            traced = [dataclasses.replace(t, draw=self._wrap(
                "sampler_verifier", t.draw, "sampler_verifier.raw_draws",
                "sampler_verifier.draw", inclusive="sampler_verifier.draw_s"))
                for t in targets]
            rebind_attr(sv, "_TARGETS", traced)
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)
