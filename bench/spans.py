"""Layer spans for the traced benchmark run.

``Tracer.install`` replaces each listed public function of the ``qbirkhoff``
modules, in every module namespace that binds it, with a wrapper that
records a span: name, parent span, start, end, whether it raised, and a size
read off the result for the few functions whose output size is a layer
metric.  ``fold`` turns the spans of one invocation into per-function call
counts and self times (span time minus the time of its child spans) and
drops them, so memory stays bounded by the largest single invocation.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

# module -> public functions measured as that module's layer
LAYERS = {
    "cli": ("main",),
    "channels": ("kraus_from_choi", "choi_from_kraus", "superoperator_from_kraus"),
    "numerics": ("hermitian_eig", "numerical_rank", "operator_norm", "frobenius_norm"),
    "extremality": (
        "choi_extremal_test",
        "landau_streater_test",
        "product_matrix",
        "stacked_matrix",
        "hermitize_certificate",
        "decompose_extremal",
    ),
    "spectral": ("classify", "cyclic_projections"),
    "conjugacy": ("data_matrix", "spectrum_invariant", "verify_certificate", "load_certificate"),
    "birkhoff": ("loads_ds_matrix", "birkhoff_decompose"),
}

# result sizes recorded on the span
_SIZES = {
    "extremality.product_matrix": lambda m: m.nbytes,
    "extremality.stacked_matrix": lambda m: m.nbytes,
    "channels.superoperator_from_kraus": lambda m: m.nbytes,
    "extremality.decompose_extremal": lambda dec: len(dec.terms),
    "birkhoff.birkhoff_decompose": lambda dec: len(dec.terms),
}

_TESTS = ("extremality.choi_extremal_test", "extremality.landau_streater_test")
_DECOMPOSE = "extremality.decompose_extremal"


@dataclass(frozen=True)
class Span:
    name: str
    parent: int | None
    start: float
    end: float
    failed: bool
    size: int


@dataclass
class Totals:
    """Per-function sums over folded spans."""

    calls: dict = field(default_factory=lambda: defaultdict(int))
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    size: dict = field(default_factory=lambda: defaultdict(int))
    errors: dict = field(default_factory=lambda: defaultdict(int))
    decompose_tests: int = 0

    def add(self, other: "Totals", time_scale: float = 1.0):
        """Add ``other`` in, with its self times multiplied by ``time_scale``."""
        for name, count in other.calls.items():
            self.calls[name] += count
            self.self_s[name] += other.self_s[name] * time_scale
            self.size[name] += other.size[name]
        for layer, count in other.errors.items():
            self.errors[layer] += count
        self.decompose_tests += other.decompose_tests


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def _wrap(self, name: str, fn):
        size_of = _SIZES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            failed, size = False, 0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if size_of is not None:
                    size = size_of(result)
                return result
            except BaseException:
                failed = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = Span(name, parent, start, end, failed, size)

        return traced

    def install(self):
        """Wrap every listed function wherever a ``qbirkhoff`` module binds it."""
        modules = [m for k, m in sys.modules.items()
                   if k == "qbirkhoff" or k.startswith("qbirkhoff.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"qbirkhoff.{layer}"]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def fold(self, totals: Totals):
        """Add the recorded spans to ``totals`` and forget them."""
        child = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        for sid, span in enumerate(self.spans):
            totals.calls[span.name] += 1
            totals.self_s[span.name] += span.end - span.start - child[sid]
            totals.size[span.name] += span.size
            parent = self.spans[span.parent] if span.parent is not None else None
            layer = span.name.split(".")[0]
            if span.failed and (parent is None or parent.name.split(".")[0] != layer):
                totals.errors[layer] += 1
            if span.name in _TESTS and parent is not None and parent.name == _DECOMPOSE:
                totals.decompose_tests += 1
        self.spans.clear()
