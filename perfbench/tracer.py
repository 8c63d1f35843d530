"""Spans and counts around the public functions of each carousel layer.

The tracer wraps functions from outside the library: every attribute of
every loaded ``carousel`` module that is bound to a traced function is
replaced by a wrapper, and restored on ``uninstall``.  That covers
``from .roots import solve_numeric`` in several modules and the lazy
``from .roots import univariate_roots`` inside ``choose_radii``, which
reads the patched ``carousel.roots`` attribute at call time.

A span is (name, start, end, parent index, item id).  Spans stay in
memory until the run writes them out.  A layer's self time is its
span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter

TRACED = {
    "poly": ("parse_polynomial", "resultant", "poly_gcd", "squarefree_decomposition"),
    "puiseux": ("puiseux_branches", "milnor_number", "intersection_multiplicity"),
    "polar": ("select_generic_line", "cerf_diagram_of_polar"),
    "roots": ("solve_numeric", "aberth_roots", "univariate_roots"),
    "tracking": ("choose_radii", "carousel_permutation"),
    "family": ("conservation_check", "critical_points", "coalescing_verdict"),
}

REQUESTED_PRECISION = 128
DEFAULT_STEPS = 512


def _counts_for(name: str, args, kwargs, result, counts: dict):
    """Counters read from the arguments and results of one call."""
    if name == "roots.aberth_roots":
        precision = args[1] if len(args) > 1 else kwargs["precision"]
        if precision > REQUESTED_PRECISION:
            counts["roots.aberth_roots.retries"] += 1
    elif name == "polar.select_generic_line":
        counts["polar.line_attempts"] += result.attempts
        counts["polar.line_selections"] += 1
    elif name == "tracking.choose_radii":
        # choose_radii tries eta = rho * 4^-j for j = 1, 2, ... until one holds
        counts["tracking.eta_candidates"] += round(
            math.log(float(result.rho / result.eta), 4)
        )
    elif name == "tracking.carousel_permutation":
        steps = args[2] if len(args) > 2 else kwargs.get("steps", DEFAULT_STEPS)
        counts["tracking.steps_requested"] += steps
        counts["tracking.steps_used"] += result.steps_used
        counts["tracking.fiber_points"] += result.m
    elif name == "family.critical_points":
        counts["family.points_found"] += len(result.points)


class Tracer:
    """Records spans and counts while installed; one per traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, item]
        self.counts = Counter()
        self.item = None
        self._items = 0
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def begin_item(self):
        """Open the root span of one item run; its spans share a new item id."""
        self.item = self._items
        self._items += 1
        return self._open("item")

    def end_item(self, index):
        self._close(index)
        self.item = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.item])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(index)
            _counts_for(name, args, kwargs, result, self.counts)
            return result

        return wrapper

    def install(self):
        originals = {}
        for layer, names in TRACED.items():
            module = sys.modules[f"carousel.{layer}"]
            for attr in names:
                func = getattr(module, attr)
                originals[id(func)] = self._wrap(f"{layer}.{attr}", func)
        for modname, module in list(sys.modules.items()):
            if modname != "carousel" and not modname.startswith("carousel."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def layer_totals(self, duration) -> dict:
        """calls and self seconds per traced name.

        ``duration(start, end)`` gives a span's length; the worker passes
        one that leaves out the time of host-speed samples.
        """
        lengths = [duration(start, end) for _, start, end, _, _ in self.spans]
        child_time = [0.0] * len(self.spans)
        for index, (_, _, _, parent, _) in enumerate(self.spans):
            if parent is not None:
                child_time[parent] += lengths[index]
        totals = {}
        for index, name in enumerate(span[0] for span in self.spans):
            calls, self_s = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, self_s + lengths[index] - child_time[index])
        return totals
