"""Measurement machinery of the settled-update benchmark.

Everything here is independent of the middleware under test, so the
self-tests in ``perfbench/tests`` exercise it without building a
community:

* :func:`percentile`, :func:`samples_beyond`, :func:`min_samples_for` —
  nearest-rank percentiles and the "at least ten samples beyond a
  reported tail" rule;
* :class:`Outcomes` — attempted/vetoed/unsettled/failed-read accounting
  behind ``error_rate``;
* :class:`Tracer` — thread-local span stacks with self-time on the
  thread CPU clock, wrapped around calls into the program's layers from
  outside (the program itself carries no benchmark code);
* :func:`environment` — the machine/commit record stored with a result.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import os
import platform
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Optional

#: A percentile is only reported when this many samples lie beyond it.
MIN_BEYOND = 10


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------

def percentile(values: "list[float]", p: float) -> float:
    """Nearest-rank percentile *p* (0 < p <= 100) of *values*."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of *n* samples rank strictly above the *p*-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def min_samples_for(p: float) -> int:
    """Fewest samples for which *p* has MIN_BEYOND samples beyond it."""
    n = MIN_BEYOND + 1
    while samples_beyond(n, p) < MIN_BEYOND:
        n += 1
    return n


# ----------------------------------------------------------------------
# error accounting
# ----------------------------------------------------------------------

class Outcomes:
    """Counts of operations attempted and the ways they went wrong.

    An *attempt* is one update proposal (a retry of a vetoed update is a
    new attempt) or one read.  ``error_rate`` is
    ``(vetoed + unsettled + failed_reads) / attempted``; ``failed`` is
    the number of client operations that never succeeded at all.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.vetoed = 0
        self.unsettled = 0
        self.failed_reads = 0
        self.failed_updates = 0

    def update_attempt(self, done: bool, valid: "Optional[bool]") -> None:
        self.attempted += 1
        if not done:
            self.unsettled += 1
        elif not valid:
            self.vetoed += 1

    def read(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed_reads += 1

    @property
    def errors(self) -> int:
        return self.vetoed + self.unsettled + self.failed_reads

    @property
    def error_rate(self) -> float:
        return self.errors / self.attempted if self.attempted else 0.0

    @property
    def failed(self) -> int:
        return self.failed_updates + self.failed_reads


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------

class _Frame:
    __slots__ = ("span_id", "name", "child_cpu", "child_wall")

    def __init__(self, span_id: int, name: str) -> None:
        self.span_id = span_id
        self.name = name
        self.child_cpu = 0.0
        self.child_wall = 0.0


class SpanStats:
    """Totals for one span name."""

    __slots__ = ("calls", "self_cpu", "self_wall", "incl_cpu", "size")

    def __init__(self) -> None:
        self.calls = 0
        self.self_cpu = 0.0
        self.self_wall = 0.0
        self.incl_cpu = 0.0
        self.size = 0


class Tracer:
    """Thread-local span stacks around wrapped calls.

    A span records ``(id, parent id, name, parent name, start, end, self
    cpu, self wall, cpu, size)``.  Self time is the span's duration minus the time its
    child spans cover, on both the wall clock and the calling thread's
    CPU clock.  A span whose parent has the same name (recursion, or a
    call adopted into its caller's layer via *inherit*) adds its self
    time to that name but does not count as a separate call, so
    ``calls`` counts entries into a layer from outside it.
    """

    def __init__(self, wall: "Callable[[], float]" = time.perf_counter,
                 cpu: "Callable[[], float]" = time.thread_time) -> None:
        self.enabled = False
        self._wall = wall
        self._cpu = cpu
        self._local = threading.local()
        self._lock = threading.Lock()
        self._span_lists: "list[list[tuple]]" = []
        self._ids = itertools.count()  # next() is atomic under the GIL
        self._patches: "list[tuple[Any, str, Any]]" = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> "tuple[list[_Frame], list[tuple]]":
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            spans = local.spans = []
            with self._lock:
                self._span_lists.append(spans)
        return stack, local.spans

    def wrap(self, name: str, fn: Callable,
             size_of: "Optional[Callable[[tuple, Any], int]]" = None,
             inherit: "tuple[str, ...]" = ()) -> Callable:
        """Return *fn* recording a span called *name* while enabled.

        *size_of(args, result)* gives the span's byte size; *inherit*
        names parent spans whose name this span adopts (so a signature
        made by the time-stamping service counts as time-stamping).
        """
        tracer = self
        wall, cpu = self._wall, self._cpu

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack, spans = tracer._stack()
            parent = stack[-1] if stack else None
            span_name = (parent.name if parent is not None
                         and parent.name in inherit else name)
            span_id = next(tracer._ids)
            frame = _Frame(span_id, span_name)
            stack.append(frame)
            start_wall, start_cpu = wall(), cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                end_cpu, end_wall = cpu(), wall()
                stack.pop()
                cpu_used = end_cpu - start_cpu
                wall_used = end_wall - start_wall
                if parent is not None:
                    parent.child_cpu += cpu_used
                    parent.child_wall += wall_used
            size = size_of(args, result) if size_of is not None else 0
            spans.append((span_id,
                          parent.span_id if parent is not None else None,
                          span_name,
                          parent.name if parent is not None else None,
                          start_wall, end_wall,
                          cpu_used - frame.child_cpu,
                          wall_used - frame.child_wall,
                          cpu_used, size))
            return result

        return traced

    # -- patching the program from outside -----------------------------

    def patch_attr(self, cls: type, attr: str, name: str, **options: Any
                   ) -> None:
        """Replace the method ``cls.attr`` with one that records a span."""
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, **options))

    def patch_function(self, modules: "list[Any]", original: Callable,
                       name: str, **options: Any) -> int:
        """Wrap a module-level function in *every* module that imported it.

        Functions imported by name (``from x import f``) are separate
        globals in each importing module, so patching only the defining
        module would miss most callers.  Returns how many modules were
        patched.
        """
        traced = self.wrap(name, original, **options)
        patched = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, traced)
                    patched += 1
        return patched

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------

    def spans(self) -> "list[tuple]":
        with self._lock:
            lists = list(self._span_lists)
        return [span for spans in lists for span in spans]

    def totals(self) -> "dict[str, SpanStats]":
        """Aggregate recorded spans by name."""
        totals: "dict[str, SpanStats]" = {}
        for (_sid, _pid, name, parent_name, _start, _end, self_cpu,
             self_wall, incl_cpu, size) in self.spans():
            stats = totals.get(name)
            if stats is None:
                stats = totals[name] = SpanStats()
            stats.self_cpu += self_cpu
            stats.self_wall += self_wall
            if parent_name != name:
                stats.calls += 1
                stats.size += size
                stats.incl_cpu += incl_cpu
        return totals

    def write(self, path: str) -> int:
        """Write every span as one tab-separated line; returns the count."""
        spans = self.spans()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tparent\tname\tstart\tend\tself_cpu\t"
                         "self_wall\tcpu\tsize\n")
            for span in spans:
                sid, pid, name, _pname, start, end, scpu, swall, cpu, size \
                    = span
                handle.write(f"{sid}\t{'' if pid is None else pid}\t{name}\t"
                             f"{start:.9f}\t{end:.9f}\t{scpu:.9f}\t"
                             f"{swall:.9f}\t{cpu:.9f}\t{size}\n")
        return len(spans)


# ----------------------------------------------------------------------
# comparing with a baseline
# ----------------------------------------------------------------------

def compare_layers(old: dict, new: dict, old_e2e: float, new_e2e: float,
                   layers: "list[str]") -> "list[str]":
    """Per-layer CPU before and after, marking what the end to end missed.

    *old* and *new* map metric names to ``{"value": ...}``; *old_e2e* and
    *new_e2e* are the untraced ``cpu_ms_per_update``.  A layer is marked
    when its CPU per update fell by at least 10% and 0.05 ms while the
    end-to-end figure fell by less than half that saving.
    """
    e2e_saving = old_e2e - new_e2e
    lines = [f"cpu_ms_per_update {old_e2e:.3f} -> {new_e2e:.3f}"]
    for name in layers:
        if name not in old or name not in new:
            continue
        before, after = old[name]["value"], new[name]["value"]
        saving = before - after
        mark = ""
        if (saving >= 0.05 and saving >= 0.1 * before
                and e2e_saving < saving / 2):
            mark = ("  <- layer faster, end-to-end cpu_ms_per_update "
                    "did not move")
        lines.append(f"{name} {before:.3f} -> {after:.3f}{mark}")
    return lines


# ----------------------------------------------------------------------
# environment record
# ----------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def source_digest(src_dir: str) -> str:
    """SHA-256 over every ``.py`` file under *src_dir* (path and bytes).

    Identifies the program version where no git metadata exists.
    """
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(src_dir):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for filename in sorted(files):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(root, filename)
            digest.update(os.path.relpath(path, src_dir).encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def _git_commit(root: str) -> "Optional[str]":
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(root: str, src_dir: str, **parameters: Any) -> dict:
    """Where and on what a result was measured."""
    return {
        "commit": _git_commit(root),
        "source_digest": source_digest(src_dir),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        **parameters,
    }
