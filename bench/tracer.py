"""Spans and counters recorded from outside the package.

Each public function is wrapped at the name its caller looks up: a name bound
by ``from ... import`` is patched in the calling module (``tate.h_charpoly``,
``cmlab.tate_dim``), a name the caller reads as a module attribute is patched
on that module (``weil.validate_weil``, ``mpmath.polyroots``).  Spans are kept
in memory as (name, start, end, parent index) and aggregated when the pass
ends; ``restore`` puts every original function back.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter

import mpmath

from tatecycles import cmlab, polycore, tate, weil


def _count_charpoly_dim(counters, args, result):
    counters["polycore.charpoly.dim_sum"] += args[0].rows


def _count_nonzero_multiplicity(counters, args, result):
    if result:
        counters["polycore.cyclotomic_multiplicity.nonzero"] += 1


# (owner, attribute looked up by the caller, span name, counter hook)
PATCHES = (
    (weil, "validate_weil", "weil.validate_weil", None),
    (weil, "squarefree_part", "weil.squarefree", None),
    (weil, "squarefree_decomposition", "weil.squarefree", None),
    (mpmath, "polyroots", "weil.polyroots", None),
    (weil, "h_charpoly", "weil.h_charpoly", None),
    (tate, "h_charpoly", "weil.h_charpoly", None),
    (weil, "charpoly", "polycore.charpoly", _count_charpoly_dim),
    (weil, "compound_matrix", "polycore.compound_matrix", None),
    (tate, "cyclotomic_multiplicity", "polycore.cyclotomic_multiplicity", _count_nonzero_multiplicity),
    (tate, "tate_profile", "tate.tate_profile", None),
    (cmlab, "tate_dim", "tate.tate_dim", None),
    (cmlab, "stable_tate_dim", "tate.stable_tate_dim", None),
    (cmlab, "primes_up_to", "cmlab.primes_up_to", None),
    (cmlab, "kronecker", "cmlab.kronecker", None),
    (cmlab, "ap_cm", "cmlab.ap_cm", None),
    (cmlab, "ap_pointcount", "cmlab.ap_pointcount", None),
    (cmlab, "is_prime", "cmlab.is_prime", None),
    (cmlab, "least_nonsplit_search", "cmlab.least_nonsplit_search", None),
    (cmlab, "fundamental_discriminants", "cmlab.fundamental_discriminants", None),
    (cmlab, "pi_K_count", "cmlab.pi_K_count", None),
    (cmlab, "least_nonsplit_bound", "bounds.least_nonsplit_bound", None),
)

# lru_caches whose cache_info() deltas become hit and miss counts
CACHES = (
    ("weil.h_charpoly", weil._subset_product_charpoly),
    ("tate.unity_mults", tate._unity_ratio_multiplicities),
    ("polycore.cyclotomic", polycore._cyclotomic_cached),
    ("polycore.factorization", polycore._factorization),
)


class Tracer:
    """Records spans in memory and keeps named counters."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list = []
        self._cache_before: dict = {}

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _close(self, index, name, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, self._stack[-1] if self._stack else -1)

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, name, start)

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        original = getattr(owner, attr)
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self._open()
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index, name, start)
            if hook is not None:
                hook(counters, args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def install(self) -> None:
        self._cache_before = {name: fn.cache_info() for name, fn in CACHES}
        for owner, attr, name, hook in PATCHES:
            self.wrap(owner, attr, name, hook)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        for name, fn in CACHES:
            if name in self._cache_before:
                before, after = self._cache_before[name], fn.cache_info()
                self.counters[f"{name}.cache_hits"] += after.hits - before.hits
                self.counters[f"{name}.cache_misses"] += after.misses - before.misses

    def aggregate(self) -> dict:
        """busy_s (summed duration), self_s (duration minus child spans) and
        calls per span name, plus every counter."""
        busy: Counter = Counter()
        child: Counter = Counter()
        calls: Counter = Counter()
        for name, start, end, parent in self.spans:
            busy[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        own: Counter = Counter()
        for index, (name, start, end, _) in enumerate(self.spans):
            own[name] += end - start - child[index]
        out = dict(self.counters)
        for name in busy:
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = own[name]
            out[f"{name}.calls"] = calls[name]
        scans = calls["polycore.cyclotomic_multiplicity"]
        if scans:
            # useful outcomes over attempts: divisions that found a factor
            out["polycore.cyclotomic_multiplicity.hit_ratio"] = (
                self.counters["polycore.cyclotomic_multiplicity.nonzero"] / scans
            )
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
