"""Per-layer tracing of spectrunc from outside the package.

The tracer replaces every public function of the layer modules (``cayley``,
``groupalg``, ``truncation``, ``qmetric``, ``harness``, ``cli``) with a timing
wrapper, at every module that holds it by name, including the package
namespace.  Each wrapped call is one span.  A span's inclusive time counts
once per outermost activation; its self time is its duration minus the
durations of the wrapped calls it made directly.  Counts come from the
program's own caches (``_BALL_CACHE``, ``_FEJER_CACHE`` and the
``symbol_positions`` lru cache) and from the returned values.

Peak allocation comes from ``tracemalloc`` when the tracer is built with
``peaks=True``; it then runs only inside the calls listed in ``PEAK_ALLOC``,
which never nest in each other.  It slows those calls several times over, so
the timings of such a run are not used.

A cache or function that a later version of the package drops reads as zero
rather than failing the run.
"""

from __future__ import annotations

import functools
import inspect
import time
import tracemalloc

import spectrunc
from spectrunc import cayley, cli, groupalg, harness, qmetric, truncation

LAYERS = (cayley, groupalg, truncation, qmetric, harness, cli)

PEAK_ALLOC = ("qmetric.epsilon_full", "qmetric.epsilon_truncated", "qmetric.lip_distance")

# Reported statistics per traced function.  ``s`` is inclusive seconds,
# ``self_s`` self seconds, ``calls`` the call count; the rest are counts or
# shares filled in by the hooks below.
REPORTED = {
    "cayley.ball": ("self_s", "calls", "cache_hits", "elements"),
    "cayley.word_length": ("self_s", "calls"),
    "cayley.growth_report": ("s",),
    "groupalg.fejer_kernel": ("s", "calls", "double_ball_elements"),
    "groupalg.symbol_positions": ("s", "hits", "misses"),
    "groupalg.compress_rep": ("s", "calls"),
    "groupalg.spectral_norm": ("s", "calls"),
    "groupalg.opnorm": ("s", "calls", "radii_scanned", "converged_share"),
    "truncation.materialize": ("s", "calls"),
    "truncation.truncation_defect": ("s",),
    "qmetric.epsilon_full": ("s", "self_s", "peak_alloc_mb"),
    "qmetric.epsilon_truncated": ("s", "self_s", "peak_alloc_mb"),
    "qmetric.lip_distance": ("s", "self_s", "calls", "peak_alloc_mb"),
    "qmetric.state_eval": ("s",),
    "harness.choose_s": ("s",),
    "harness.export_report": ("s",),
    "cli.run": ("s",),
}


def metric_names() -> list[str]:
    """Names of the per-layer metrics :meth:`Tracer.metrics` returns."""
    return [f"{key}.{stat}" for key, stats in REPORTED.items() for stat in stats]


def public_functions() -> dict:
    """Map each public function of the layer modules to ``<module>.<name>``."""
    found = {}
    for mod in LAYERS:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) == mod.__name__:
                found[obj] = f"{short}.{name}"
    return found


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


class _Stat:
    __slots__ = ("s", "self_s", "calls", "active", "peak", "counts")

    def __init__(self):
        self.s = 0.0
        self.self_s = 0.0
        self.calls = 0
        self.active = 0
        self.peak = 0
        self.counts: dict = {}

    def add(self, name, value=1):
        self.counts[name] = self.counts.get(name, 0) + value


def _ball_before(args, kwargs):
    cache = getattr(cayley, "_BALL_CACHE", {})
    return (_arg(args, kwargs, 0, "group"), _arg(args, kwargs, 1, "radius")) in cache


def _ball_after(stat, hit, result):
    if hit:
        stat.add("cache_hits")
    else:
        stat.add("elements", len(result))


def _fejer_before(args, kwargs):
    cache = getattr(groupalg, "_FEJER_CACHE", {})
    return (_arg(args, kwargs, 0, "group"), _arg(args, kwargs, 1, "lam")) in cache


def _fejer_after(stat, hit, result):
    if not hit:
        stat.add("double_ball_elements", len(result.values))


def _opnorm_after(stat, _, result):
    stat.add("radii_scanned", result.last_radius + 1)
    stat.add("converged", int(result.converged))


HOOKS = {
    "cayley.ball": (_ball_before, _ball_after),
    "groupalg.fejer_kernel": (_fejer_before, _fejer_after),
    "groupalg.opnorm": (None, _opnorm_after),
}


class Tracer:
    """Context manager that wraps the layer functions and restores them on exit."""

    def __init__(self, peaks: bool = False):
        self.peaks = peaks
        self.stats: dict[str, _Stat] = {}
        self._stack: list[float] = []
        self._patched: list = []
        self._lru_start = None
        self._lru_end = None

    def __enter__(self):
        self._lru_start = self._lru_info()
        originals = public_functions()
        wrappers = {fn: self._wrap(key, fn) for fn, key in originals.items()}
        for mod in (spectrunc, *LAYERS):
            for name, obj in list(vars(mod).items()):
                try:
                    wrapper = wrappers.get(obj)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()
        self._lru_end = self._lru_info()
        return False

    @staticmethod
    def _lru_info():
        info = getattr(getattr(groupalg, "symbol_positions", None), "cache_info", None)
        return info() if info is not None else None

    def _wrap(self, key, fn):
        stat = self.stats.setdefault(key, _Stat())
        before, after = HOOKS.get(key, (None, None))
        peak = self.peaks and key in PEAK_ALLOC
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            owns_trace = peak and not tracemalloc.is_tracing()
            if owns_trace:
                tracemalloc.start()
            stack.append(0.0)
            stat.active += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                stat.calls += 1
                stat.self_s += dur - child
                stat.active -= 1
                if stat.active == 0:
                    stat.s += dur
                if owns_trace:
                    stat.peak = max(stat.peak, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if after is not None:
                after(stat, state, result)
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics named as in :func:`metric_names`."""
        out = {}
        for key, stats in REPORTED.items():
            st = self.stats.get(key, _Stat())
            for stat in stats:
                if stat in ("s", "self_s", "calls"):
                    value = getattr(st, stat)
                elif stat == "peak_alloc_mb":
                    value = st.peak / 2**20
                elif stat == "converged_share":
                    value = st.counts.get("converged", 0) / st.calls if st.calls else 0.0
                elif stat in ("hits", "misses"):
                    start, end = self._lru_start, self._lru_end
                    value = getattr(end, stat) - getattr(start, stat) if start and end else 0
                else:
                    value = st.counts.get(stat, 0)
                out[f"{key}.{stat}"] = value
        return out
