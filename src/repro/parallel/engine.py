"""The multiprocess sweep engine.

Design constraints, in order:

1. **Determinism.**  A sweep's outputs must not depend on ``--jobs``.
   Each task is a pure function of its spec: the runner rebuilds a fresh
   :class:`~repro.cluster.Testbed` (whose constructor restarts the global
   PID stream), seeds every RNG from plain task parameters via
   string-seeded ``random.Random`` / sha256 (never ``hash()``, which
   varies with ``PYTHONHASHSEED``), and returns plain data.  Results are
   merged in *spec order* regardless of completion order, so worker
   scheduling cannot reorder anything observable.
2. **Picklability.**  The ``spawn`` start method (the only one that is
   identical across platforms and interpreter states) pickles everything
   that crosses the process boundary.  A :class:`TaskSpec` therefore
   names its runner by dotted path instead of holding a function object,
   and runners must live at module level and return plain data.
3. **Failure capture.**  A crashed task must not kill the sweep: the
   worker catches the exception and ships the traceback back as a
   :class:`TaskResult` row, so the caller can report the failing task's
   identity (e.g. a torture seed) and keep going.

``jobs <= 1`` runs the same specs in-process with no pool — this is the
single code path examples and benchmarks use for their loops, so there is
exactly one sweep implementation.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.obs.digest import sha256

__all__ = ["TaskSpec", "TaskResult", "run_tasks", "resolve_jobs", "derive_seed"]


def derive_seed(base_seed: int, index: int, stream: str = "sweep") -> int:
    """Shard ``base_seed`` into a per-task seed, stable across processes.

    Hashes through sha256 so the result is independent of
    ``PYTHONHASHSEED`` and of the process the derivation runs in; mixes a
    ``stream`` name so two different sweeps sharing one base seed do not
    produce correlated task seeds.
    """
    digest = sha256(f"{stream}:{base_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def resolve_jobs(jobs: Optional[int]) -> int:
    """``None`` or ``0`` means "all cores"; anything negative is an error."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


@dataclass(frozen=True)
class TaskSpec:
    """One unit of sweep work: a module-level runner plus plain kwargs.

    ``runner`` is the dotted path of a module-level function
    (``"repro.parallel.runners.torture_run"``) so the spec pickles under
    spawn no matter where it was built; ``kwargs`` must be plain data for
    the same reason.
    """

    runner: str
    kwargs: Dict[str, object] = field(default_factory=dict)
    label: str = ""

    def resolve(self) -> Callable[..., object]:
        module_name, _, func_name = self.runner.rpartition(".")
        if not module_name:
            raise ValueError(f"runner {self.runner!r} is not a dotted path")
        module = importlib.import_module(module_name)
        try:
            fn = getattr(module, func_name)
        except AttributeError:
            raise LookupError(
                f"runner {func_name!r} not found in {module_name}") from None
        if not callable(fn):
            raise TypeError(f"runner {self.runner!r} is not callable")
        return fn


@dataclass
class TaskResult:
    """Outcome of one task: the runner's return value or its traceback."""

    index: int
    label: str
    ok: bool
    value: object = None
    error: Optional[str] = None  # formatted traceback when not ok
    error_type: Optional[str] = None
    duration_s: float = 0.0


def execute_task(indexed_spec) -> TaskResult:
    """Run one spec, capturing any exception (module-level: spawn-picklable)."""
    index, spec = indexed_spec
    start = time.perf_counter()
    try:
        value = spec.resolve()(**spec.kwargs)
        return TaskResult(index=index, label=spec.label, ok=True, value=value,
                          duration_s=time.perf_counter() - start)
    except Exception as exc:
        return TaskResult(index=index, label=spec.label, ok=False,
                          error=traceback.format_exc(),
                          error_type=type(exc).__name__,
                          duration_s=time.perf_counter() - start)


def run_tasks(specs: Sequence[TaskSpec], jobs: Optional[int] = 1,
              on_result: Optional[Callable[[TaskResult], None]] = None,
              ) -> List[TaskResult]:
    """Run every spec; return results in spec order.

    ``jobs <= 1`` (after :func:`resolve_jobs`) executes in-process with no
    pool; otherwise a ``spawn`` worker pool runs tasks concurrently and
    the results are merged back into spec order.  ``on_result`` fires in
    *completion* order (progress reporting); the returned list is what
    callers should treat as authoritative.

    A task that raises comes back as a ``TaskResult`` with ``ok=False``
    and the traceback in ``error`` — ``run_tasks`` itself never raises on
    task failure.
    """
    specs = list(specs)
    jobs = min(resolve_jobs(jobs), max(1, len(specs)))
    results: List[Optional[TaskResult]] = [None] * len(specs)
    if jobs <= 1:
        for item in enumerate(specs):
            result = execute_task(item)
            results[result.index] = result
            if on_result is not None:
                on_result(result)
        return results  # type: ignore[return-value]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(processes=jobs) as pool:
        for result in pool.imap_unordered(execute_task, list(enumerate(specs))):
            results[result.index] = result
            if on_result is not None:
                on_result(result)
    return results  # type: ignore[return-value]
