"""Span tracer used in traced runs, inside the process that runs fubini.

It times calls into each module's public functions from outside: it
replaces the functions named in ``__all__`` of ``sequences``, ``series``,
``identities`` and ``bfiles``, and the ``TruncatedSeries`` primitives,
with wrappers that record one span per call. A span is
``[name id, parent span index, start ns, end ns, n, mul-adds, result bits]``.
Spans stay in memory until :meth:`Tracer.dump` writes them out.

Install the wrappers after ``import fubini`` and before ``import
fubini.cli``: the name tables in ``cli`` capture function objects when
it is imported.
"""

import functools
import json
import time
import types

CO_GENERATOR = 0x20  # inspect.CO_GENERATOR, without importing inspect

SERIES_METHODS = {
    "__mul__": "mul",
    "__rmul__": "mul",
    "__pow__": "pow",
    "inverse": "inverse",
    "exp": "exp",
    "log": "log",
    "atanh": "atanh",
    "derivative": "derivative",
    "to_sequence": "to_sequence",
}


class Tracer:
    """Records nested spans; ``overhead_ns`` is the time spent in its own bookkeeping."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self.overhead_ns = 0
        self._open: list[int] = []

    def wrap(self, name: str, fn, probe=None):
        """Wrap ``fn`` to record a span per call; ``probe(span, args, result)`` fills counters."""
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, open_spans, clock = self.spans, self._open, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = clock()
            span = [name_id, open_spans[-1] if open_spans else -1, 0, 0, 0, 0, 0]
            open_spans.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                open_spans.pop()
            if probe is not None:
                probe(span, args, result)
            self.overhead_ns += span[2] - entered + clock() - span[3]
            return result

        return traced

    def dump(self, path: str, **extra) -> None:
        """Write the names, the spans and ``extra`` fields as one JSON object."""
        record = {"names": self.names, "spans": self.spans, "overhead_ns": self.overhead_ns}
        with open(path, "w") as handle:
            json.dump({**record, **extra}, handle)


def _first_arg(span, args, result):
    # every public function of fubini.sequences takes n first
    if args and isinstance(args[0], int):
        span[4] = args[0]


def _square(n: int) -> int:
    return (n + 1) * (n + 2) // 2


# Schoolbook coefficient multiply-adds of each primitive, from the operand orders.
MUL_ADDS = {
    "mul": lambda f, g: _square(min(f.order, g.order)) if hasattr(g, "order") else f.order + 1,
    "pow": lambda f, e: 0,  # its products are traced as mul spans
    "inverse": lambda f: f.order * (f.order + 1) // 2,
    "exp": lambda f: f.order * (f.order + 1) // 2,
    "log": lambda f: f.order * (f.order - 1) // 2,
    "atanh": lambda f: 0,  # its two logs are traced
    "derivative": lambda f: f.order,
    "to_sequence": lambda f: f.order + 1,
}


def _series_probe(op: str):
    mul_adds = MUL_ADDS[op]

    def probe(span, args, result):
        span[5] = mul_adds(*args)
        if hasattr(result, "coeffs"):
            span[6] = sum(c.numerator.bit_length() + c.denominator.bit_length() for c in result.coeffs)

    return probe


def install(tracer: Tracer) -> None:
    """Wrap the public functions of the library modules and the series primitives."""
    from fubini import bfiles, identities, sequences, series

    for module in (sequences, series, identities, bfiles):
        layer = module.__name__.rpartition(".")[2]
        probe = _first_arg if module is sequences else None
        for name in module.__all__:
            fn = getattr(module, name)
            if isinstance(fn, types.FunctionType) and not fn.__code__.co_flags & CO_GENERATOR:
                setattr(module, name, tracer.wrap(f"{layer}.{name}", fn, probe))
    cls = series.TruncatedSeries
    for attr, op in SERIES_METHODS.items():
        setattr(cls, attr, tracer.wrap(f"series.{op}", getattr(cls, attr), _series_probe(op)))
