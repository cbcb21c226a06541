"""Running CLI requests in child processes forked after `import schurkit.cli`.

A child starts from the parent's memory, in which the library is imported
and nothing has been computed, so no memo survives from one child to the
next.  The parent never calls the library itself.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class Outcome(NamedTuple):
    rc: Optional[int]  # None when main raised
    stdout: str
    # Seconds inside schurkit.cli.main, measured in the child: the request's
    # own time, without the fork, exit and pipe of this harness.
    wall: float
    # Seconds that reference() took in the same child, the mean of its runs
    # just before and just after the request.
    ref: float


class ChildResult(NamedTuple):
    outcomes: list[Outcome]
    trace: Optional[dict]
    peak_rss_mb: float


def import_library():
    """Import schurkit.cli from this checkout's src/, and nothing else."""
    if not (SRC / "schurkit" / "cli.py").is_file():
        raise FileNotFoundError(f"no schurkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import schurkit.cli

    if Path(schurkit.cli.__file__).resolve().parent != SRC / "schurkit":
        raise ImportError(f"imported schurkit from {schurkit.cli.__file__}, not {SRC}")
    return schurkit.cli


def _strips(lam: tuple[int, ...], boxes: int) -> list[tuple[int, ...]]:
    rows = lam + (0,)
    out = []

    def grow(i: int, left: int, acc: tuple[int, ...]) -> None:
        if i == len(rows):
            if not left:
                out.append(tuple(x for x in acc if x))
            return
        room = left if i == 0 else min(left, rows[i - 1] - rows[i])
        for add in range(room + 1):
            grow(i + 1, left - add, acc + (rows[i] + add,))

    grow(0, boxes, ())
    return out


def reference() -> int:
    """A fixed piece of pure-Python work, none of it schurkit's: count the
    semistandard fillings of content (3, 2, 2, 1, 1, 1) over the skew shapes
    lam/(2, 1), as chains of horizontal strips kept in a dict.  It is the
    tuple, recursion and dict work the library does, and its time tracks
    how fast the host runs such work at that moment (README.md, Noise)."""
    shapes = {(2, 1): 1}
    for part in (3, 2, 2, 1, 1, 1):
        grown: dict[tuple[int, ...], int] = {}
        for lam, ways in shapes.items():
            for bigger in _strips(lam, part):
                grown[bigger] = grown.get(bigger, 0) + ways
        shapes = grown
    return sum(shapes.values())


def time_reference() -> float:
    """Seconds that reference() takes, with the garbage collector off, so
    that the size of the library's heap (its memos) cannot change it."""
    gc.disable()
    try:
        start = time.perf_counter()
        reference()
        return time.perf_counter() - start
    finally:
        gc.enable()


def _run_in_child(argvs: list[list[str]], traced: bool, deadline: Optional[float]) -> dict:
    import schurkit.cli

    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    outcomes = []
    ref = time_reference()
    for argv in argvs:
        if outcomes and deadline is not None and time.perf_counter() >= deadline:
            break
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = schurkit.cli.main(argv)
        except Exception:
            rc = None
            out.write(traceback.format_exc())
        wall = time.perf_counter() - start
        after = time_reference()
        outcomes.append((rc, out.getvalue(), wall, (ref + after) / 2))
        ref = after
    payload = {"outcomes": outcomes, "trace": None}
    if tracer is not None:
        payload["trace"] = tracer.export()
        payload["trace"]["memo_entries"] = tracing.memo_entries()
    return payload


def run_child(
    argvs: list[list[str]], traced: bool = False, deadline: Optional[float] = None
) -> ChildResult:
    """Run argvs one after another in one fresh child and wait for it.  With
    a deadline (a time.perf_counter() value), the child starts no argv after
    the first once the deadline has passed, so it may return fewer outcomes."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never return into the caller's code
        status = 0
        try:
            os.close(read_fd)
            data = json.dumps(_run_in_child(argvs, traced, deadline)).encode()
            with os.fdopen(write_fd, "wb") as f:
                f.write(data)
        except BaseException:
            traceback.print_exc()
            status = 70
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as f:
            data = f.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    _, status, usage = os.wait4(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"request child for {argvs[0]} exited with status {status}")
    payload = json.loads(data)
    return ChildResult(
        [Outcome(*o) for o in payload["outcomes"]],
        payload["trace"],
        usage.ru_maxrss / 1024,  # KiB on Linux
    )


_IMPORT_TIMER = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, "src")
import schurkit.cli
seconds = time.perf_counter() - start
sys.path.insert(0, sys.argv[1])
import harness
harness.time_reference()  # the first run is slower: its code is not yet specialised
print(seconds, harness.time_reference())
"""


def setup_time() -> tuple[float, float]:
    """Seconds that a fresh interpreter takes to import schurkit.cli, timed
    inside the child, so the interpreter's own start-up, which varies with
    the installed site packages, is left out; and the seconds reference()
    then takes in the same interpreter.  Call it once unmeasured first, to
    leave the bytecode cache warm."""
    cmd = [sys.executable, "-c", _IMPORT_TIMER, str(Path(__file__).resolve().parent)]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True)
    seconds, ref = map(float, out.stdout.split())
    return seconds, ref
