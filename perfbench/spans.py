"""Outside-in layer trace for the kbf benchmark.

The tracer rebinds public names at the sites where one kbf module calls
another, plus the ``numpy.fft`` transforms, records what happens inside
them and puts everything back on ``remove()``.  Nothing under ``src/`` is
edited.

* Span sites open a span: name, start, end, parent.  Self time is a span's
  duration minus the union of its direct children's intervals minus the FFT
  time charged to it.
* FFT calls are counters, not spans: each call is timed and charged to the
  innermost open span, so a span's self time excludes its transforms.
* Count sites (``build_propagator``) only count calls.

A name that no longer exists in the program is listed as absent and its
metrics read zero; the run goes on.  The benchmark runs kbf single-threaded
(``KBF_THREADS`` is removed from the workload's environment), so one span
stack suffices.
"""

from __future__ import annotations

import importlib
import math
from time import perf_counter

# (module, attribute, span name); the span sites named by the benchmark's
# layer map.  cli.evolve also wraps the observer it is given.
SPAN_SITES = (
    ("kbf.harness", "evolve", "splitting.evolve"),
    ("kbf.harness", "make_reference", "reference.make"),
    ("kbf.harness", "error_norm", "harness.error_norm"),
    ("kbf.reference", "integrating_factor_rk4_solve", "reference.solve"),
    ("kbf.cli", "evolve", "splitting.evolve"),
    ("kbf.cli", "to_physical", "spectral.to_physical"),
)
COUNT_SITES = (("kbf.splitting", "build_propagator", "flows.propagator_builds"),)
# transform name -> True for complex-to-complex, False for real <-> half-spectrum
FFT_FUNCS = {"fft": True, "ifft": True, "rfft": False, "irfft": False}


class Span:
    __slots__ = ("name", "start", "end", "parent", "fft_s", "steps")

    def __init__(self, name, start, parent, steps=0):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.fft_s = 0.0
        self.steps = steps

    def as_list(self):
        return [self.name, self.start, self.end, self.parent, self.fft_s, self.steps]


def union_length(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of each span: duration - union(direct children) - own FFT time.

    ``spans`` is a list of ``[name, start, end, parent_index, fft_s, ...]``.
    """
    children = [[] for _ in spans]
    for s in spans:
        if s[3] is not None:
            children[s[3]].append((s[1], s[2]))
    return [
        (s[2] - s[1]) - union_length(children[i], s[1], s[2]) - s[4]
        for i, s in enumerate(spans)
    ]


def _fft_cost(name, complex_pair, a, out):
    """(spectral points, computed flops) of one transform along the last axis.

    Points count complex spectral values: N per row for a complex transform,
    N/2+1 for a real one.  Flops are the textbook 5*N*log2(N) per complex row
    and half that per real row; they are computed, not measured.
    """
    if complex_pair:
        n = out.shape[-1]
        return out.size, (out.size // n) * 5.0 * n * math.log2(n)
    if name == "rfft":
        n = a.shape[-1] if hasattr(a, "shape") else len(a)
        return out.size, (out.size // out.shape[-1]) * 2.5 * n * math.log2(n)
    n = out.shape[-1]
    rows = out.size // n
    return rows * (n // 2 + 1), rows * 2.5 * n * math.log2(n)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts = {name: 0 for _, _, name in COUNT_SITES}
        self.fft = {"calls": 0, "points": 0, "flops": 0.0, "busy_s": 0.0}
        self.absent: list[str] = []
        self._saved: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------
    def open(self, name, steps=0):
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, perf_counter(), parent, steps))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index):
        self.spans[index].end = perf_counter()
        self.stack.pop()

    def spanned(self, name, fn, steps_of=None, observer_arg=None):
        def wrapper(*args, **kwargs):
            if observer_arg is not None:
                args, kwargs = self._wrap_observer(args, kwargs, observer_arg)
            index = self.open(name, steps_of(args, kwargs) if steps_of else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper

    def _wrap_observer(self, args, kwargs, position):
        obs = kwargs.get("observer", args[position] if len(args) > position else None)
        if obs is None:
            return args, kwargs
        wrapped = self.spanned("cli.observer", obs)
        if "observer" in kwargs:
            kwargs = dict(kwargs, observer=wrapped)
        else:
            args = args[:position] + (wrapped,) + args[position + 1 :]
        return args, kwargs

    # -- installation -----------------------------------------------------
    def _rebind(self, module_name, attr, make):
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            self.absent.append(f"{module_name}.{attr}")
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def install(self):
        for module_name, attr, name in SPAN_SITES:
            steps_of = observer_arg = None
            if attr == "evolve":
                steps_of, observer_arg = _evolve_steps, 3 if module_name == "kbf.cli" else None
            elif attr == "integrating_factor_rk4_solve":
                steps_of = _reference_steps
            self._rebind(
                module_name,
                attr,
                lambda fn, name=name, s=steps_of, o=observer_arg: self.spanned(name, fn, s, o),
            )
        for module_name, attr, name in COUNT_SITES:
            self._rebind(module_name, attr, lambda fn, name=name: self._counted(name, fn))
        for attr, complex_pair in FFT_FUNCS.items():
            self._rebind("numpy.fft", attr, lambda fn, a=attr, c=complex_pair: self._timed_fft(a, c, fn))
        return self

    def remove(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed_fft(self, name, complex_pair, fn):
        fft, spans, stack = self.fft, self.spans, self.stack

        def wrapper(a, *args, **kwargs):
            t0 = perf_counter()
            out = fn(a, *args, **kwargs)
            dt = perf_counter() - t0
            points, flops = _fft_cost(name, complex_pair, a, out)
            fft["calls"] += 1
            fft["points"] += points
            fft["flops"] += flops
            fft["busy_s"] += dt
            if stack:
                spans[stack[-1]].fft_s += dt
            return out

        return wrapper

    # -- report -----------------------------------------------------------
    def metrics(self, wall_s: float) -> tuple[dict, dict, dict]:
        """Per-layer figures of one traced call that lasted ``wall_s`` seconds.

        Returns the metrics, the self time of each layer, and the FFT time
        charged to each span name (which layer issued the transforms).
        """
        spans = [s.as_list() for s in self.spans]
        selfs = self_times(spans)

        def total(name, values=None):
            vals = values if values is not None else [s[2] - s[1] for s in spans]
            return sum(v for v, s in zip(vals, spans) if s[0] == name)

        def count(name):
            return sum(1 for s in spans if s[0] == name)

        evolve_busy = total("splitting.evolve")
        evolve_self = total("splitting.evolve", selfs)
        evolve_steps = total("splitting.evolve", [s[5] for s in spans])
        make_calls = count("reference.make")
        make_hits = sum(
            1
            for i, s in enumerate(spans)
            if s[0] == "reference.make"
            and not any(c[3] == i and c[0] == "reference.solve" for c in spans)
        )
        reference_busy = total("reference.make") + sum(
            s[2] - s[1]
            for s in spans
            if s[0] == "reference.solve" and (s[3] is None or spans[s[3]][0] != "reference.make")
        )
        fft = self.fft
        layers = {
            "spectral (numpy.fft)": fft["busy_s"],
            "spectral (to_physical)": total("spectral.to_physical", selfs),
            "splitting (evolve)": evolve_self,
            "reference": total("reference.make", selfs) + total("reference.solve", selfs),
            "harness": total("harness.study", selfs) + total("harness.error_norm", selfs),
            "cli": total("cli.run", selfs),
            "cli (observer)": total("cli.observer", selfs),
        }
        metrics = {
            "fft.calls": fft["calls"],
            "fft.points": fft["points"],
            "fft.flops_computed": fft["flops"],
            "fft.busy_s": fft["busy_s"],
            "fft.us_per_call": 1e6 * fft["busy_s"] / fft["calls"] if fft["calls"] else 0.0,
            "flows.propagator_builds": self.counts["flows.propagator_builds"],
            "evolve.calls": count("splitting.evolve"),
            "evolve.steps": evolve_steps,
            "evolve.busy_s": evolve_busy,
            "evolve.self_s": evolve_self,
            "evolve.step_us": 1e6 * (evolve_busy - total("cli.observer")) / evolve_steps if evolve_steps else 0.0,
            "evolve.overhead_share": evolve_self / evolve_busy if evolve_busy else 0.0,
            "reference.make_calls": make_calls,
            "reference.cache_hit_ratio": make_hits / make_calls if make_calls else 0.0,
            "reference.solve_steps": total("reference.solve", [s[5] for s in spans]),
            "reference.busy_s": reference_busy,
            "reference.self_s": layers["reference"],
            "reference.share": reference_busy / wall_s if wall_s else 0.0,
            "harness.self_s": total("harness.study", selfs),
            "harness.error_norm_s": total("harness.error_norm"),
            "cli.self_s": total("cli.run", selfs),
            "cli.observer_s": total("cli.observer"),
            "cli.observer_self_s": layers["cli (observer)"],
        }
        fft_by_span = {}
        for sp in spans:
            fft_by_span[sp[0]] = fft_by_span.get(sp[0], 0.0) + sp[4]
        return metrics, layers, fft_by_span


def _arg(args, kwargs, position, name):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else None


def _evolve_steps(args, kwargs):
    config = _arg(args, kwargs, 2, "config")
    try:
        return int(config.n_steps)
    except AttributeError:
        return 0


def _reference_steps(args, kwargs):
    dt, t_final = _arg(args, kwargs, 3, "dt"), _arg(args, kwargs, 4, "t_final")
    try:
        return round(t_final / dt)
    except TypeError:
        return 0
