"""Per-layer attribution of one traced round.

The trace is a ``cProfile`` run installed here, around the same public
calls the untraced rounds make; nothing inside ``repro`` is instrumented.
Self-time and call counts are bucketed by ``repro/<package>/``.  A C
built-in has no file, so it is charged to the package(s) that called it:
its time in proportion to the time each caller spent in it, its calls by
each caller's call count.

cProfile taxes every Python call but not the work inside C code, so the
shares lean towards call-heavy layers.  Use them to find candidates and
to see *where* a saving landed; the saving itself is claimed on
``host_s``, measured with the profiler off.
"""

from __future__ import annotations

import cProfile
import pstats
import re
from fractions import Fraction
from typing import Callable, Dict, Tuple

#: the packages of ``src/repro`` that get their own row; everything else
#: (top-level modules, the stdlib, this harness) is ``other``
LAYERS = ("sim", "rnic", "fabric", "mem", "verbs", "core", "migration",
          "resilience", "fleet", "chaos", "apps", "metrics", "obs")
OTHER = "other"

_LAYER_RE = re.compile(r"[/\\]repro[/\\]([a-z_]+)[/\\]")

FuncKey = Tuple[str, int, str]


def layer_of_path(filename: str) -> str:
    """``.../repro/<package>/x.py`` -> ``<package>``; anything else,
    including packages without a row of their own, -> ``other``."""
    match = _LAYER_RE.search(filename)
    if match and match.group(1) in LAYERS:
        return match.group(1)
    return OTHER


def is_builtin(func: FuncKey) -> bool:
    """pstats files C functions under the pseudo-file ``~``."""
    return func[0] == "~"


def attribute(stats: Dict[FuncKey, tuple]) -> Dict[str, Dict[str, float]]:
    """Bucket a ``pstats.Stats(...).stats`` table by layer.

    Returns ``{layer: {"self_s": seconds, "calls": count}}`` for every
    layer in ``LAYERS`` plus ``other``.  The ``self_s`` values sum to the
    profile's total time: every function's self-time lands in exactly one
    bucket, or is split over its callers' buckets with shares that sum to 1.
    A built-in's calls are split by its per-caller call counts in exact
    (rational) arithmetic, so ``calls`` repeats exactly when the run does,
    whatever order the profiler lists its entries in.
    """
    self_s = dict.fromkeys((*LAYERS, OTHER), 0.0)
    calls = dict.fromkeys((*LAYERS, OTHER), Fraction(0))
    memo: Dict[Tuple[FuncKey, int], Dict[str, float]] = {}

    def caller_shares(func: FuncKey, column: int,
                      seen: frozenset = frozenset()) -> Dict[str, float]:
        """Layer shares of a built-in by who called it, weighted by
        ``column`` of the caller edge (0 = calls, 2 = self-time)."""
        if (func, column) in memo:
            return memo[func, column]
        callers = stats[func][4] if func in stats else {}
        weights = {c: Fraction(edge[0]) if column == 0 else edge[column]
                   for c, edge in callers.items() if c not in seen}
        total = sum(weights.values())
        shares: Dict[str, float] = {}
        if total <= 0:
            # no caller recorded (the profile's root), or a clock too
            # coarse to see any time: fall back to call counts, then other
            shares = (caller_shares(func, 0, seen) if column != 0
                      else {OTHER: 1})
        else:
            for caller, weight in weights.items():
                if is_builtin(caller):
                    inner = caller_shares(caller, column, seen | {func})
                else:
                    inner = {layer_of_path(caller[0]): 1}
                for layer, share in inner.items():
                    shares[layer] = shares.get(layer, 0) + share * weight / total
        if not seen:
            memo[func, column] = shares
        return shares

    for func, (_cc, ncalls, tottime, _ct, _callers) in stats.items():
        if is_builtin(func):
            time_shares = caller_shares(func, 2)
            call_shares = caller_shares(func, 0)
        else:
            time_shares = call_shares = {layer_of_path(func[0]): 1}
        for layer, share in time_shares.items():
            self_s[layer] += tottime * share
        for layer, share in call_shares.items():
            calls[layer] += ncalls * share
    return {layer: {"self_s": self_s[layer], "calls": float(calls[layer])}
            for layer in self_s}


def calls_of(stats: Dict[FuncKey, tuple], path_suffix: str, name: str) -> int:
    """Total calls of the function ``name`` defined in ``*path_suffix``."""
    return sum(row[1] for (filename, _line, func), row in stats.items()
               if func == name and filename.replace("\\", "/").endswith(path_suffix))


def profile(fn: Callable[[], object]) -> Tuple[object, Dict[FuncKey, tuple]]:
    """Run ``fn()`` under cProfile; returns (result, pstats table)."""
    profiler = cProfile.Profile()
    result = profiler.runcall(fn)
    return result, pstats.Stats(profiler).stats


def traced_metrics(stats: Dict[FuncKey, tuple]) -> Dict[str, float]:
    """The ``<layer>.self_s`` / ``<layer>.calls`` / ``mem.page_*`` rows."""
    metrics: Dict[str, float] = {}
    for layer, row in attribute(stats).items():
        metrics[f"{layer}.self_s"] = row["self_s"]
        metrics[f"{layer}.calls"] = row["calls"]
    metrics["mem.page_writes"] = calls_of(stats, "repro/mem/paging.py", "write")
    metrics["mem.page_reads"] = calls_of(stats, "repro/mem/paging.py", "read")
    return metrics


def profile_total_s(stats: Dict[FuncKey, tuple]) -> float:
    return sum(row[2] for row in stats.values())
