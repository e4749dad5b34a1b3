"""Per-layer measurements for the benchmark's traced run.

Spans are recorded from the benchmark process, around calls into g2kit: each
public function of a layer, and the G2Structure constructor, is replaced in
every g2kit module namespace that binds it by a wrapper that records a span
while an op is running.  Nothing under src/ is edited, and `restore()` puts
the original bindings back.  Fraction call counts come from cProfile and
import times from `python -X importtime`, both started from here.
"""
from __future__ import annotations

import cProfile
import functools
import gzip
import inspect
import json
import pstats
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("ratlin", "exterior", "g2core", "bryant", "liegroup", "models", "serialize", "cli")
CONSTRUCTORS = {"g2core": ("G2Structure",)}
# Spans kept for the written trace; counters keep aggregating past this.
SPAN_LIMIT = 200_000

FRACTION_ARITH = frozenset({
    "_add", "_sub", "_mul", "_div", "_floordiv", "_divmod", "_mod",
    "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__",
})


class Tracer:
    """Span recorder: (name, start, end, parent, op id, ok) per call, plus
    per-name counters of calls, inclusive time and self time."""

    def __init__(self):
        self.op = None
        self.spans = []
        self.dropped = 0
        self.stack = []
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self._saved = []

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1][0] if stack else -1
            if len(tracer.spans) < SPAN_LIMIT:
                sid = len(tracer.spans)
                tracer.spans.append(None)
            else:
                sid = -2
                tracer.dropped += 1
            frame = [sid, 0.0]
            stack.append(frame)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                tracer.calls[name] += 1
                tracer.total[name] += dur
                tracer.self_time[name] += dur - frame[1]
                if sid >= 0:
                    tracer.spans[sid] = (name, start, end, parent, tracer.op, ok)

        return span

    def install(self, *callers):
        """Wrap every public function of each layer wherever a g2kit module, or
        one of the `callers` modules that drive the ops, binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "g2kit" or n.startswith("g2kit."))]
        modules += callers
        for layer in LAYERS:
            mod = sys.modules[f"g2kit.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isclass(obj):
                    if attr in CONSTRUCTORS.get(layer, ()):
                        self._saved.append((obj, "__init__", obj.__init__))
                        obj.__init__ = self._wrap(name, obj.__init__)
                    continue
                if not (inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)):
                    continue
                wrapped = self._wrap(name, obj)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is obj:
                            self._saved.append((m, key, obj))
                            setattr(m, key, wrapped)

    def restore(self):
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_time.items() if k.startswith(prefix))

    def layer_calls(self, layer: str) -> int:
        prefix = layer + "."
        return sum(v for k, v in self.calls.items() if k.startswith(prefix))

    def ms_per_call(self, name: str) -> float:
        n = self.calls.get(name, 0)
        return 1000.0 * self.total[name] / n if n else 0.0

    def write(self, path):
        """Write the kept spans, one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "op", "ok"],
                                 "dropped": self.dropped}) + "\n")
            for s in self.spans:
                if s is not None:
                    fh.write(json.dumps(s) + "\n")


def metric_caches():
    """The Metric-keyed lru caches of g2kit.exterior."""
    from g2kit import exterior

    return (exterior._metric_is_euclidean, exterior._metric_inverse,
            exterior._metric_det, exterior._lambda_gram)


def cache_totals():
    infos = [f.cache_info() for f in metric_caches()]
    return (sum(i.hits for i in infos), sum(i.misses for i in infos),
            sum(i.currsize for i in infos))


def fraction_calls(run_ops) -> tuple:
    """(Fraction.__new__ calls, Fraction arithmetic calls) made by `run_ops()` under cProfile."""
    prof = cProfile.Profile()
    run_ops(prof)
    new = arith = 0
    for (filename, _, func), (_, ncalls, *_rest) in pstats.Stats(prof).stats.items():
        if not filename.endswith("fractions.py"):
            continue
        if func == "__new__":
            new += ncalls
        elif func in FRACTION_ARITH:
            arith += ncalls
    return new, arith


def import_times(env: dict, cwd, before, repeats: int = 3) -> list:
    """(g2kit, scipy) cumulative import seconds per `python -X importtime -c "import g2kit"`
    child; `before()` is called before each child starts."""
    out = []
    for _ in range(repeats):
        before()
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import g2kit"],
                              env=env, cwd=cwd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import g2kit failed: {proc.stderr[-500:]}")
        g2kit_us, scipy = 0, []
        for line in proc.stderr.splitlines():
            fields = line[len("import time:"):].split("|")
            if not line.startswith("import time:") or len(fields) != 3 \
                    or not fields[1].strip().isdigit():
                continue
            module = fields[2].strip()
            depth = len(fields[2]) - len(fields[2].lstrip())
            if module == "g2kit":
                g2kit_us = int(fields[1])
            elif module == "scipy" or module.startswith("scipy."):
                scipy.append((depth, int(fields[1])))
        # scipy's outermost imports; their cumulative times cover the nested ones
        top = min((d for d, _ in scipy), default=0)
        out.append((g2kit_us / 1e6, sum(us for d, us in scipy if d == top) / 1e6))
    return out
