"""Outside-in span tracing and the arithmetic the benchmark reports with.

The tracer replaces public functions at every `denshift.*` module attribute
that holds them, so each caller's own lookup reaches the wrapper. Spans are
kept in memory as tuples and written out once, when the run ends.

Pool jobs run in forked worker processes. The job wrapper notices it is in
a child, records that job's spans there, and writes them to one file per
job; the parent reads the files after the pool has shut down. Timestamps
come from `time.perf_counter`, which is CLOCK_MONOTONIC on Linux and so
comparable across processes on one machine.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from pathlib import Path

# span tuple fields
SID, PARENT, NAME, T0, T1, ATTR = range(6)


class Tracer:
    """Installs wrappers, records spans with parent ids, removes wrappers on close."""

    def __init__(self, job_dir: Path):
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.stack: list[int] = [0]
        self.next_id = 1
        self.job_dir = Path(job_dir)
        self.job_dir.mkdir(parents=True, exist_ok=True)
        self.absent: list[str] = []
        self._patched: list[tuple] = []  # (module, attr, original)

    # -- recording -------------------------------------------------------

    def _new_id(self) -> int:
        sid = self.next_id
        self.next_id += 1
        return sid

    def span(self, name: str, attr=None):
        """Context manager for a span the benchmark opens around its own calls."""
        return _Span(self, name, attr)

    def _wrap(self, name: str, fn, attr_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._new_id()
            parent = tracer.stack[-1]
            tracer.stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
            attr = None
            if attr_of is not None:
                try:
                    attr = attr_of(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    attr = None
            tracer.spans.append((sid, parent, name, t0, t1, attr))
            return result

        return wrapper

    def _wrap_job(self, name: str, fn):
        """Pool-job wrapper: in a forked worker, record the job and write its spans to a file."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() == tracer.pid:
                return fn(*args, **kwargs)
            if tracer.next_id < (1 << 40):  # first job in this worker: fresh id space, drop parent spans
                tracer.next_id = (os.getpid() << 40) + 1
                tracer.stack = tracer.stack[-1:]
            tracer.spans = []
            with tracer.span(name, os.getpid()):
                result = fn(*args, **kwargs)
            path = tracer.job_dir / f"job-{os.getpid()}-{tracer.next_id}.json"
            path.write_text(json.dumps(tracer.spans), encoding="utf-8")
            tracer.spans = []
            return result

        return wrapper

    def _wrap_pool(self, name: str, fn):
        """Pool wrapper: a span around the pool, then collect the job files its workers wrote."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            for path in sorted(tracer.job_dir.glob("job-*.json")):
                tracer.spans.extend(tuple(s) for s in json.loads(path.read_text(encoding="utf-8")))
                path.unlink()
            return result

        return wrapper

    # -- installing ------------------------------------------------------

    def install(self, targets) -> None:
        """Wrap each (dotted name, span name, kind, attr_of) target that exists.

        A dotted name that no longer resolves is listed in `absent`, and the
        metrics built on it are left out instead of failing the run.
        """
        for dotted, name, kind, attr_of in targets:
            module_name, _, attr = dotted.rpartition(".")
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None) if module is not None else None
            if not callable(original):
                self.absent.append(dotted)
                continue
            if kind == "job":
                wrapper = self._wrap_job(name, original)
            elif kind == "pool":
                wrapper = self._wrap_pool(name, original)
            else:
                wrapper = self._wrap(name, original, attr_of)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "denshift" or mod_name.startswith("denshift.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def close(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        """Write every span as one CSV line: id,parent,name,t0,t1,attr."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,t0,t1,attr\n")
            for s in self.spans:
                attr = "" if s[ATTR] is None else json.dumps(s[ATTR]).replace(",", ";")
                fh.write(f"{s[SID]},{s[PARENT]},{s[NAME]},{s[T0]!r},{s[T1]!r},{attr}\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str, attr):
        self.tracer, self.name, self.attr = tracer, name, attr

    def __enter__(self):
        tr = self.tracer
        self.sid = tr._new_id()
        self.parent = tr.stack[-1]
        tr.stack.append(self.sid)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        tr = self.tracer
        tr.stack.pop()
        tr.spans.append((self.sid, self.parent, self.name, self.t0, t1, self.attr))
        return False


# -- arithmetic --------------------------------------------------------------


def union_length(intervals, lo: float = -math.inf, hi: float = math.inf) -> float:
    """Length of the union of [a, b) intervals, each clipped to [lo, hi)."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
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


def self_time(span, children) -> float:
    """A span's duration minus the part of its interval its children cover."""
    t0, t1 = span[T0], span[T1]
    return (t1 - t0) - union_length(((c[T0], c[T1]) for c in children), t0, t1)


def median(values) -> float:
    vals = sorted(values)
    if not vals:
        raise ValueError("median of no samples")
    mid = len(vals) // 2
    return vals[mid] if len(vals) % 2 else 0.5 * (vals[mid - 1] + vals[mid])


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(values):
    """Highest percentile of TAIL_PERCENTILES with at least ten samples above it.

    Returns (percentile, value) by the nearest-rank rule, or None when fewer
    than ten samples lie above even the median.
    """
    vals = sorted(values)
    n = len(vals)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)  # 1-based nearest rank
        if rank >= 1 and n - rank >= 10:
            return p, vals[rank - 1]
    return None


def timing_summary(values) -> dict:
    """Median, tail percentile and sample count of one timing metric."""
    out = {"median": median(values), "n": len(values)}
    tail = tail_percentile(values)
    if tail is not None:
        out[f"p{tail[0]:g}"] = tail[1]
    return out


class Tally:
    """Counts attempted and failed operations; a raise, a non-zero exit or a failed check fails one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, label: str, fn, *args, **kwargs):
        """Call fn; a raise counts one failure and returns None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the benchmark keeps running and reports the failure
            self.failed += 1
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def command(self, label: str, main, argv) -> bool:
        """Run a command entry point as one operation; a raise or a non-zero exit fails it."""
        code = self.run(label, main, argv)
        if code is None:
            return False
        if code != 0:
            self.failed += 1
            self.failures.append(f"{label}: exit code {code}")
            return False
        return True

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"check {label} failed {detail}".rstrip())
        return bool(ok)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
