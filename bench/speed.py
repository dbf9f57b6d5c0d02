"""Machine-speed reference: a fixed kernel timed beside every measured interval.

On shared virtual machines the same code runs up to 1.5x slower for tens
of seconds at a time, because of load outside the machine. The phases are
as long as a benchmark run, so no statistic inside a run removes them. The
benchmark therefore times this kernel right before and right after each
measured interval, and scales the interval to a machine on which the
kernel takes REF_SECONDS:

    scaled = measured * REF_SECONDS / mean(kernel before, kernel after)

The kernel is written like denshift's hot paths (a batch drawn in Python,
an MLP forward and backward, Adam moments, CSV text parsed and formatted,
an element-by-element scan like the rank metrics' tie loops) so that it
slows down as denshift does; each workload picks the shape closest to its
own. A change to denshift
cannot change the kernel, so scaled times compare two commits on one
machine. Raw times are reported beside them.
"""

from __future__ import annotations

import os
import struct
from time import perf_counter
from typing import NamedTuple

import numpy as np

# a fixed nominal value near the kernel's time on the 2-vCPU x86_64 guest
# (numpy 2.4, OpenBLAS 0.3.31, one thread) this benchmark was written on
REF_SECONDS = 0.008


class Shape(NamedTuple):
    """What the kernel runs: `steps` MLP steps (batch rows, input width, hidden width),
    then `text_rows` CSV rows parsed, formatted back and scanned element by element."""

    batch: int
    dim: int
    hidden: int
    steps: int
    text_rows: int


# one per kind of workload; each kernel run takes about REF_SECONDS
SMALL = Shape(batch=64, dim=20, hidden=28, steps=24, text_rows=30)  # the acceptance network
WIDE = Shape(batch=256, dim=32, hidden=128, steps=4, text_rows=30)  # the wide-multiclass network
TEXT = Shape(batch=64, dim=20, hidden=28, steps=2, text_rows=250)  # CSV and rank-metric loops


class Kernel:
    """Always the same work, of the given shape; Adam moments start from zero on every run."""

    def __init__(self, shape: Shape):
        rng = np.random.default_rng(12345)
        self.shape = shape
        self.x = rng.normal(size=(800, shape.dim))
        self.y = (rng.random(800) < 0.1).astype(np.int64)
        self.class_rows = [np.flatnonzero(self.y == c) for c in (0, 1)]
        h = shape.hidden
        self.params = [rng.normal(scale=0.3, size=s)
                       for s in ((shape.dim, h), (h,), (h, h), (h,), (h, 2), (2,))]
        rows = np.round(rng.normal(size=(shape.text_rows, 20)), 1)  # rounded: some equal neighbours
        self.csv_lines = [",".join(repr(v) for v in row) for row in rows.tolist()]

    def __call__(self) -> float:
        rng = np.random.default_rng(0)
        batch = self.shape.batch
        w1, b1, w2, b2, w3, b3 = self.params
        moments = [(np.zeros_like(p), np.zeros_like(p)) for p in self.params]
        acc = 0.0
        for _ in range(self.shape.steps):
            cls = rng.choice(2, size=batch, p=(0.5, 0.5))
            within = rng.integers(0, [len(self.class_rows[c]) for c in cls])
            idx = np.array([self.class_rows[c][w] for c, w in zip(cls, within)], dtype=np.int64)
            x, y = self.x[idx], self.y[idx]
            h1 = np.maximum(x @ w1 + b1, 0.0)
            h2 = np.maximum(h1 @ w2 + b2, 0.0)
            z = h2 @ w3 + b3
            p = np.exp(z - z.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            g = p.copy()
            g[np.arange(batch), y] -= 1.0
            g /= batch
            d2 = (g @ w3.T) * (h2 > 0)
            d1 = (d2 @ w2.T) * (h1 > 0)
            grads = (x.T @ d1, d1.sum(0), h1.T @ d2, d2.sum(0), h2.T @ g, g.sum(0))
            for (m, v), grad in zip(moments, grads):
                m *= 0.9
                m += 0.1 * grad
                v *= 0.999
                v += 0.001 * grad * grad
                acc += float((m / (np.sqrt(v) + 1e-8)).sum())
        for line in self.csv_lines:
            values = [float(c) for c in line.split(",")]
            acc += len(",".join(repr(v) for v in values))
            arr = np.sort(np.asarray(values))
            for i in range(arr.size - 1):
                if arr[i + 1] == arr[i]:
                    acc += 1.0
        return acc

    def seconds(self, repeats: int = 3) -> float:
        """Median time of `repeats` runs, so one interrupted run does not skew a reading."""
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            self()
            times.append(perf_counter() - t0)
        return sorted(times)[repeats // 2]


def parallel_kernel_seconds(kernel: Kernel, workers: int) -> float:
    """Mean kernel time over `workers` forked processes running it at once.

    Work that keeps every core busy slows down with the busiest core, so its
    reference must load the same cores. The process has no other threads
    when a reading is taken, so fork is safe here; spawn would re-import
    numpy for every reading.
    """
    children = []
    for _ in range(workers):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: one reading, then exit without running parent cleanup
            os.close(read_end)
            os.write(write_end, struct.pack("d", kernel.seconds()))
            os._exit(0)
        os.close(write_end)
        children.append((pid, read_end))
    times = []
    for pid, read_end in children:
        with os.fdopen(read_end, "rb") as fh:
            payload = fh.read()
        os.waitpid(pid, 0)
        if len(payload) != 8:
            raise RuntimeError(f"speed reference process {pid} returned no reading")
        times.append(struct.unpack("d", payload)[0])
    return sum(times) / len(times)


class SpeedRef:
    """Times callables and scales each time by the kernel readings around it.

    The kernel trains an MLP of the given shape; with `workers` > 1 each
    reading runs it on that many cores at once.
    """

    def __init__(self, shape: Shape = SMALL, workers: int = 1):
        self.kernel = Kernel(shape)
        self.workers = workers
        self.readings: list[float] = []

    def _reading(self) -> float:
        if self.workers == 1:
            dt = self.kernel.seconds()
        else:
            dt = parallel_kernel_seconds(self.kernel, self.workers)
        self.readings.append(dt)
        return dt

    def time(self, fn, *args, **kwargs):
        """Call fn; returns (result, raw seconds, scaled seconds)."""
        before = self._reading()
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        raw = perf_counter() - t0
        after = self._reading()
        return result, raw, raw * REF_SECONDS / (0.5 * (before + after))
