"""Process-level measurement: every dp2 request runs in a fresh interpreter
with PYTHONPATH=src, as users meet it, so import and lazy set-up are paid
on each request."""

from __future__ import annotations

import hashlib
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from workloads import Request

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
TRACE_CHILD = os.path.join(BENCH, "trace_child.py")
TRACE_FD_ENV = "DP2_BENCH_TRACE_FD"


class SetupError(RuntimeError):
    """The program could not be imported: there is nothing to measure."""


@dataclass
class Outcome:
    request: Request
    exit: int | None  # None when the request was killed at its timeout
    seconds: float  # process start to exit
    rss_mb: float  # this child's own peak resident set size
    stdout: str
    stderr: str
    spans: dict | None = None  # per-function totals from a traced run
    started: float = 0.0  # perf_counter() at process start

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.stdout.encode()).hexdigest()


def _env() -> dict:
    env = dict(os.environ)
    # dp2 is compiled on every request and no child writes a bytecode
    # cache, whatever the caller's setting; installed dependencies keep
    # using the bytecode they ship with
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _read_into(stream, sink: list) -> None:
    sink.append(stream.read())
    stream.close()


def run_process(cmd: list[str], timeout: float, request: Request,
                traced: bool = False) -> Outcome:
    """Run one child to completion; its peak RSS comes from wait4, which
    reports that child alone."""
    env = _env()
    pass_fds = ()
    if traced:
        read_fd, write_fd = os.pipe()
        env[TRACE_FD_ENV] = str(write_fd)
        pass_fds = (write_fd,)
    killed = threading.Event()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            pass_fds=pass_fds)
    readers, err, spans = [], [], []
    if traced:
        os.close(write_fd)
        readers.append(threading.Thread(
            target=_read_into, args=(os.fdopen(read_fd, "rb"), spans)))
    readers.append(threading.Thread(target=_read_into,
                                    args=(proc.stderr, err)))
    for t in readers:
        t.start()

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        for t in readers:
            t.join()
    finally:
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code  # reaped here, so Popen must not wait again
    trace = json.loads(spans[0]) if spans and spans[0] else None
    return Outcome(request, None if killed.is_set() else code, seconds,
                   usage.ru_maxrss / 1024, out.decode(errors="replace"),
                   err[0].decode(errors="replace"), trace, start)


def run_request(request: Request, traced: bool = False) -> Outcome:
    head = [TRACE_CHILD] if traced else ["-m", "dp2.cli"]
    return run_process([sys.executable, *head, *request.argv],
                       request.timeout, request, traced)


_IMPORT = Request(("-c", "import dp2.cli"), "import", timeout=60.0)


def cold_import(*flags: str) -> Outcome:
    """`import dp2.cli` in a fresh interpreter, interpreter start
    included."""
    out = run_process([sys.executable, *flags, *_IMPORT.argv],
                      _IMPORT.timeout, _IMPORT)
    if out.exit != 0:
        raise SetupError(f"import dp2.cli failed: {out.stderr.strip()}")
    return out


def import_profile(repeats: int) -> dict[str, float]:
    """Median cumulative import seconds of dp2.cli, sympy and numpy, read
    from `python -X importtime`."""
    rows = []
    for _ in range(repeats):
        cumulative = {}
        for line in cold_import("-X", "importtime").stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            name = parts[2].strip()
            if name in ("dp2.cli", "sympy", "numpy") \
                    and name not in cumulative:
                cumulative[name] = int(parts[1]) / 1e6
        rows.append(cumulative)
    return {name: statistics.median(r.get(name, 0.0) for r in rows)
            for name in ("dp2.cli", "sympy", "numpy")}


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(q, value): the highest of the usual percentiles with at least ten
    samples above its nearest rank; the maximum (q = 100) when there are
    too few samples for any of them."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(q / 100 * n)
        if n - rank >= 10:
            return q, ordered[rank - 1]
    return 100.0, ordered[-1]


def _git_sha() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


#: the time of one _ref_loop() on the reference host.  The end-to-end
#: times are reported in seconds of that host (see HostClock).
REF_LOOP_MS = 2.5


def pin_to_one_cpu() -> int:
    """Binds the benchmark, and so every child it starts, to one processor
    (the highest it may use), and returns it.  HostClock then times the
    processor that the requests run on."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _ref_loop() -> float:
    """CPU milliseconds of a fixed pure-Python loop on the calling thread.
    Thread CPU time leaves out the time the thread waits for the GIL or
    for the processor, but not the time a slowed processor takes."""
    start = time.thread_time()
    x = 0
    for j in range(40_000):
        x += j * j
    return (time.thread_time() - start) * 1000


def host_speed() -> dict:
    """The load average and one reference loop time, read only."""
    return {"loadavg": os.getloadavg(), "ref_loop_ms": _ref_loop()}


class HostClock:
    """Times the reference loop every PERIOD seconds on a thread of the
    benchmark, on the processor that the requests run on
    (pin_to_one_cpu), while they run.

    On a shared host each processor's speed drifts with what other tenants
    run beside it: a fixed loop was seen to take up to 1.7 times as long
    for minutes at a time, and the requests on that processor slow with
    it.  seconds() converts a process's time to seconds of the reference
    host, scaling it by REF_LOOP_MS / the median loop time while it ran,
    so that runs taken in slow and fast periods compare (METRICS.md,
    "Host clock", gives the measured effect).  The loop takes about 3% of
    the processor, slowing every request by the same share; the raw times
    are printed as well."""

    PERIOD = 0.1
    #: fewer samples than this while a process ran: use the whole run's
    MIN_SAMPLES = 5

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end time, ms)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(self.PERIOD):
            ms = _ref_loop()
            self.samples.append((time.perf_counter(), ms))

    def __enter__(self) -> "HostClock":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def median_ms(self, start: float = -math.inf,
                  end: float = math.inf) -> float:
        """Median loop time over the samples that ended in [start, end],
        or over all of them when there are too few."""
        window = [ms for t, ms in self.samples if start <= t <= end]
        if len(window) < self.MIN_SAMPLES:
            window = [ms for _, ms in self.samples] or [_ref_loop()]
        return statistics.median(window)

    def seconds(self, out: Outcome) -> float:
        """The outcome's time in seconds of the reference host."""
        return out.seconds * REF_LOOP_MS / self.median_ms(
            out.started, out.started + out.seconds)


def metadata() -> dict:
    """Read-only facts about the host and the code that was measured."""
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "sympy": _version("sympy"),
    }
