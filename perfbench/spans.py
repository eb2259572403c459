"""Span tracing installed from outside the library.

octeig's modules import each other's functions by name, so a function is
replaced in every octeig namespace that binds it; the octonion product is
replaced on the class.  numpy's dense kernels are wrapped on numpy.linalg,
where octeig looks them up at call time.  Spans are kept only while a
request is open, so the benchmark's own numpy work (inputs, oracle) is
never counted.
"""

import gzip
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

MODULES = ("octonion", "hermitian", "subspace", "spectral", "projection", "harness", "cli")
# private functions that carry a layer metric, by span name
EXTRA = {
    ("spectral", "_family_residuals"): "spectral.family_residuals",
    ("cli", "_load_matrix"): "cli.load",
    ("cli", "_load_vector"): "cli.load",
    ("cli", "_emit"): "cli.emit",
}
# `octonion.mul(p, q)` is a one-line alias of `p * q` that nothing in the
# package calls; the product itself is traced as octonion.mul on the class
SKIP = {("octonion", "mul")}
LINALG = ("svd", "eigh", "det")


class Tracer:
    """Spans (name, start, end, parent index, request id) with per-name
    call counts and self times."""

    def __init__(self):
        self.spans = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.request = None
        self._stack = []     # [span index, time covered by children]
        self._restore = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append(None)
            frame = [idx, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                dur = end - start
                if self._stack:
                    self._stack[-1][1] += dur
                self.spans[idx] = (name, start, end, parent, self.request)
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def _replace(self, owner, attr: str, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every public function of each octeig module, in every namespace.

        Callers must look the functions up at call time, as octeig does:
        a reference taken before this call stays unwrapped.
        """
        import octeig
        from octeig.octonion import Octonion

        wrappers = {}
        for short in MODULES:
            mod = sys.modules[f"octeig.{short}"]
            for n, fn in vars(mod).items():
                public = not n.startswith("_") and (short, n) not in SKIP
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and \
                        (public or (short, n) in EXTRA):
                    wrappers[fn] = self.wrap(EXTRA.get((short, n), f"{short}.{n}"), fn)
        spaces = [octeig] + [sys.modules[f"octeig.{m}"] for m in MODULES]
        for space in spaces:
            for attr, val in list(vars(space).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._replace(space, attr, wrappers[val])
        self._replace(Octonion, "__mul__", self.wrap("octonion.mul", Octonion.__mul__))
        for n in LINALG:
            self._replace(np.linalg, n, self.wrap(f"linalg.{n}", getattr(np.linalg, n)))

    def uninstall(self):
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    def metric(self, name: str, per: int) -> float:
        """`<span>.calls` or `<span>.self_ms` per request; a bare layer
        name such as `linalg.self_ms` sums every span of that layer."""
        span, _, kind = name.rpartition(".")
        if "." in span:
            spans = [span]
        else:
            spans = [s for s in self.calls if s.startswith(span + ".")]
        if kind == "calls":
            return sum(self.calls[s] for s in spans) / per
        if kind == "self_ms":
            return sum(self.self_s[s] for s in spans) * 1e3 / per
        raise ValueError(f"unknown per-layer metric {name!r}")

    def table(self, per: int) -> dict:
        """Every traced name with its calls and self time per request."""
        return {s: {"calls": self.calls[s] / per, "self_ms": self.self_s[s] * 1e3 / per}
                for s in sorted(self.calls)}

    def dump(self, path: str):
        """Write the spans as gzipped CSV, one row per span, parents by row index."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start,end,parent,request\n")
            for name, start, end, parent, req in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{req}\n")
