"""Measurement plumbing for the benchmark: spans, wrappers, statistics, host.

Tracing works from outside the program.  :class:`Patches` swaps the
public entry points of each layer (class methods or module functions of
``repro``) for thin wrappers that record one span per call into a
:class:`SpanRecorder`, and puts the originals back on removal.  Spans
are ``[name, start, end, parent, n]`` lists kept in memory -- ``parent``
is the index of the enclosing span (-1 at top level) and ``n`` an
optional per-call count such as the number of poses in a batch.

Process pools fork after the wrappers are installed, so workers inherit
them.  A wrapper marked as a *boundary* (the driver's per-shard entry)
notices it runs in a forked child, records that shard's spans there and
appends them to a JSON-lines file in the output directory, which the
parent merges with :meth:`SpanRecorder.collect_children`.
"""

from __future__ import annotations

import functools
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_MISSING = object()


def ensure_src_on_path() -> None:
    """Make the checkout's ``src`` importable (the package is not installed)."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def make_out_dir(path) -> Path:
    """Create (if needed) and return the directory for benchmark outputs."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- spans -----------------------------------------------------------------
class SpanRecorder:
    """In-memory span store with a parent stack (single-threaded use)."""

    def __init__(self, child_dir: Path | None = None):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.owner_pid = os.getpid()
        self.child_dir = child_dir
        self.is_child = False

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        # Pop through idx: an exception may have skipped inner closes.
        while self._stack:
            if self._stack.pop() == idx:
                break

    def adopt_child(self) -> None:
        """Start a fresh span list in a forked worker process."""
        self.spans = []
        self._stack = []
        self.owner_pid = os.getpid()
        self.is_child = True

    def dump_child(self) -> None:
        """Append this worker's spans to its file and clear them."""
        if self.child_dir is None:
            raise RuntimeError("no directory for worker spans")
        path = self.child_dir / f"spans-{self.owner_pid}.jsonl"
        with open(path, "a") as fh:
            fh.write(json.dumps(self.spans) + "\n")
        self.spans = []
        self._stack = []

    def collect_children(self) -> list[list]:
        """Read and delete the span files forked workers wrote.

        Worker spans keep their own parent indices; they are offset to
        index into the returned list and are not linked to parent spans.
        """
        merged: list[list] = []
        if self.child_dir is None:
            return merged
        for path in sorted(self.child_dir.glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                base = len(merged)
                for name, t0, t1, parent, n in json.loads(line):
                    merged.append(
                        [name, t0, t1, parent + base if parent >= 0 else -1, n]
                    )
            path.unlink()
        return merged


def self_times(spans: list[list]) -> list[float]:
    """Per-span self time: duration minus the duration of direct children.

    Children nest strictly inside their parent, so the direct children's
    durations are exactly the part of the parent's interval they cover.
    """
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def covered_seconds(spans: list[list]) -> float:
    """Seconds covered by top-level spans (the sum of all self times)."""
    return sum(s[2] - s[1] for s in spans if s[3] < 0)


# -- wrappers --------------------------------------------------------------
def _wrapper(fn, rec: SpanRecorder, name: str, count, boundary: bool):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        if boundary and os.getpid() != rec.owner_pid:
            rec.adopt_child()
        idx = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if count is not None:
            rec.spans[idx][4] = count(args, out)
        if boundary and rec.is_child:
            rec.dump_child()
        return out

    return wrapped


class Patches:
    """Span wrappers over a list of targets, installable and removable.

    Each target is ``(owner, attribute, span_name, count, boundary)``:
    ``owner`` is a class or a module, ``count(args, result)`` (or None)
    gives the span's ``n``.  :meth:`remove` restores exactly what
    :meth:`install` replaced, including deleting attributes a class only
    inherited.
    """

    def __init__(self, recorder: SpanRecorder, targets):
        self.recorder = recorder
        self.targets = list(targets)
        self._saved: list[tuple] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("wrappers already installed")
        for owner, attr, name, count, boundary in self.targets:
            own = owner.__dict__.get(attr, _MISSING)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, own))
            setattr(owner, attr, _wrapper(fn, self.recorder, name, count, boundary))

    def remove(self) -> None:
        for owner, attr, own in reversed(self._saved):
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._saved = []

    def __enter__(self) -> "Patches":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


# -- statistics ------------------------------------------------------------
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n_samples: int) -> float | None:
    """The highest percentile with at least ten samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if n_samples * (100.0 - pct) / 100.0 >= 10.0 - 1e-9:
            return pct
    return None


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (NaN when empty)."""
    xs = sorted(values)
    if not xs:
        return math.nan
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


# -- process and host ------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _blas() -> tuple[str, str]:
    """(library name and version, thread count) of NumPy's BLAS."""
    import numpy as np

    name = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except Exception:  # older NumPy has no dict mode
        pass
    threads = "unknown"
    import ctypes

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = str(fn())
                break
        if threads != "unknown":
            break
    if threads == "unknown":
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            if os.environ.get(var):
                threads = f"{var}={os.environ[var]}"
                break
    return name, threads


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_record() -> dict:
    import numpy as np

    blas, threads = _blas()
    ram = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "nproc": usable_cores(),
        "ram_gib": round(ram / 2**30, 2),
        "blas": blas,
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }
