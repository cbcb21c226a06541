"""schurkit benchmark: one closed-loop client, one request in flight.

    python3 bench/run.py --workload lr-products --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py and README.md):
  lr-products   cold `mult s[mu]*s[nu]` requests, stratified by l(nu), both orders
  basis-change  cold `convert EXPR --basis T` requests over all 12 basis pairs
  verify-sweep  warm sweeps of `verify SUITE BOUND --quiet` over the 11 suites

Every request goes through schurkit.cli.main(argv) with stdout captured,
and every output is checked against closed forms (checker.py).  Cold
requests each run in a child forked after `import schurkit.cli`; each sweep
runs in one such child.  The cold workloads take a fixed set of requests
made from the seed; every request, and every suite of the first sweep, runs
at least once, and then requests (or sweeps) repeat until --seconds have
passed.  A request's latency is the median of its runs, in reference
seconds (README.md).

With --trace 0 the last line reports the end-to-end metrics.  With
--trace 1 blocks of cold requests run untraced and traced, as do
alternate sweeps (tracing.py), and the last line
reports per-layer metrics, per request (cold workloads) or per sweep
(verify-sweep).  Spans go to .bench_out/ in the checkout.
`--workload all` runs the three in turn, each ending with its result line.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import random
import statistics
import sys
import time
from collections import Counter

import checker
import harness
import workloads
from tracing import LAYERS

SETUP_SAMPLES = 15
# End-to-end times are in reference seconds: each time measured, times
# REFERENCE_S over the time harness.reference() took on the same host at
# the same moment (just before and just after).  On this shared host the
# speed of pure-Python work swings by up to 2x within seconds and over
# minutes; the ratio of the two times does not (README.md, Noise).
REFERENCE_S = 0.0025
# Repeat tiers of the cold workloads (see _run_cold): requests below the
# 80th percentile of first-pass latency hold the median and repeat every
# pass; those up to the 97th hold the 90th percentile and repeat every
# second pass; the costliest 3% repeat every fourth.
TIER_RANKS = (0.80, 0.97)
TAIL = 90  # latency percentile reported beside the median

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    f"latency_p{TAIL}_s": "s",
    "peak_rss_mb": "MB",
}

SUITES = sorted(workloads.VERIFY_BOUNDS)
# Per-layer metrics: (name, unit, better).  Function metrics are per request
# (cold workloads) or per sweep (verify-sweep).
TRACED_FUNCTIONS = (
    "partitions.horizontal_strips_within",
    "partitions.normalize",
    "partitions.partitions_of",
    "tableaux.enumerate_ssyt",
    "tableaux.lr_tableaux",
    "tableaux.lr_coefficient",
    "tableaux.kostka",
    "ring.multiply",
    "ring.convert",
    "ring.kostka_matrix",
    "ring.kostka_inverse",
    "polyval.SparsePoly.mul",
    "polyval.eval_s_tableau",
    "polyval.product_oracle",
    "raising.straighten",
    "raising.jacobi_trudi_expand",
)
COUNTERS = (
    "partitions.horizontal_strips_within.shapes",
    "tableaux.enumerate_ssyt.tableaux",
    "tableaux.lr_tableaux.kept",
    "polyval.SparsePoly.mul.term_pairs",
    "polyval.eval_s_tableau.terms",
)
PER_LAYER = (
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [
        metric
        for fn in TRACED_FUNCTIONS
        for metric in ((f"{fn}.calls", "count", "lower"), (f"{fn}.time_s", "s", "lower"))
    ]
    + [(name, "count", "lower") for name in COUNTERS]
    + [
        ("tableaux.lr_yield", "ratio", "higher"),
        ("ring.multiply.lr_hit_ratio", "ratio", "higher"),
    ]
    + [
        metric
        for suite in SUITES
        for metric in (
            (f"verification.{suite}.time_s", "s", "lower"),
            (f"verification.{suite}.checks", "count", "higher"),
        )
    ]
    + [
        ("cli.stdout_bytes", "bytes", "lower"),
        ("memo.entries", "count", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "higher"),
    ]
)
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


class Run:
    """What one run measured, with the outputs already checked."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        # (seconds, reference seconds) of each untraced run of a request
        self.samples: dict[object, list[tuple[float, float]]] = {}
        # request class: (order, stratum, degree), degree or suite; and the
        # work one request of it does (checks on verify-sweep, else 1)
        self.classes: dict[object, tuple[str, int]] = {}
        self.setup: list[tuple[float, float]] = []
        self.peak_rss_mb = 0.0
        self.children = 0
        self.inputs: Counter = Counter()
        # trace mode
        self.units = 0
        self.plain_units = 0  # the same work, untraced
        self.plain_busy = 0.0
        self.traced_busy = 0.0
        self.stats: dict[str, list[float]] = {}
        self.self_time = Counter()
        self.counters = Counter()
        self.suite_time = Counter()
        self.stdout_bytes = 0
        self.wall = 0.0
        self.memo_entries = 0
        self.spans: list = []

    def sample(self, key, klass: str, work: int, outcome: harness.Outcome) -> None:
        self.samples.setdefault(key, []).append((outcome.wall, outcome.ref))
        self.classes[key] = (klass, work)

    def runs(self) -> int:
        return sum(map(len, self.samples.values()))

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def add_trace(self, result: harness.ChildResult) -> None:
        trace = result.trace
        for name, (calls, seconds) in trace["stats"].items():
            acc = self.stats.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += seconds
        self.self_time.update(trace["self_time"])
        self.counters.update(trace["counters"])
        self.stdout_bytes += sum(len(o.stdout.encode()) for o in result.outcomes)
        self.wall += sum(o.wall for o in result.outcomes)
        self.memo_entries += trace["memo_entries"]
        self.spans.extend([self.units] + span for span in trace["spans"])
        self.units += 1


class SetupClock:
    """Fresh-interpreter import times (setup_s), one taken between units of
    work each time another share of the run has passed, so the samples
    spread over the whole run."""

    def __init__(self, run: Run, seconds: float):
        self.run = run
        self.interval = seconds / SETUP_SAMPLES
        self.start = time.perf_counter()
        harness.setup_time()  # unmeasured: leaves the bytecode cache warm

    def _measure(self) -> None:
        self.run.setup.append(harness.setup_time())

    def tick(self) -> None:
        taken = len(self.run.setup)
        if taken < SETUP_SAMPLES and time.perf_counter() - self.start >= taken * self.interval:
            self._measure()

    def finish(self) -> None:
        while len(self.run.setup) < SETUP_SAMPLES:
            self._measure()


def _check_outcome(run, req, outcome, check, outputs, key) -> bool:
    """Check one request's output; a repeat must print the bytes of the
    request's first checked output.  Records and returns failure."""
    run.attempted += 1
    try:
        if outcome.rc != 0:
            raise checker.CheckError(f"exit {outcome.rc}: {outcome.stdout[-300:]}")
        if key in outputs:
            if outcome.stdout != outputs[key]:
                raise checker.CheckError("a repeat prints different bytes")
        else:
            check(req, outcome.stdout)
            outputs[key] = outcome.stdout
    except checker.CheckError as exc:
        run.fail(f"{req['argv']}: {exc}")
        return False
    return True


def _check_pairs(run, requests, outputs) -> None:
    """Both orders of a `mult` pair must print identical bytes."""
    first: dict[str, str] = {}
    for i, req in enumerate(requests):
        if "pair" not in req or i not in outputs:
            continue
        seen = first.setdefault(req["pair"], outputs[i])
        if seen != outputs[i]:
            run.fail(f"{req['argv']}: the two orders print different bytes")


def _run_cold(run, requests, seconds, seed, clock, describe, check) -> None:
    """Each request in a fresh child, one at a time.  Every request runs once,
    in an order shuffled from the seed; then passes repeat them, each pass in
    a new shuffled order, until `seconds` have passed.  A request's latency
    is the median of its runs, each in reference seconds, and each distinct
    request counts once, however often the host's speed let it repeat.

    Repeats go mostly to the cheap requests, where they cost little: after
    the first pass, a request ranked by its latency into tier t (TIER_RANKS)
    runs in pass k when k is a multiple of 2**t."""
    rng = random.Random(seed)
    outputs: dict[int, str] = {}
    start = time.perf_counter()

    def measure(i: int) -> None:
        req = requests[i]
        result = harness.run_child([req["argv"]])
        run.children += 1
        (outcome,) = result.outcomes
        if _check_outcome(run, req, outcome, check, outputs, i):
            run.peak_rss_mb = max(run.peak_rss_mb, result.peak_rss_mb)
            run.sample(i, req["class"], 1, outcome)
        clock.tick()

    order = list(range(len(requests)))
    rng.shuffle(order)
    for i in order:
        run.inputs.update(describe(requests[i]))
        measure(i)
    _check_pairs(run, requests, outputs)
    ranked = sorted(run.samples, key=lambda i: run.samples[i][0][0])
    tier = {i: bisect.bisect_right(TIER_RANKS, rank / len(ranked)) for rank, i in enumerate(ranked)}
    k = 1
    while time.perf_counter() - start < seconds:
        batch = [i for i in ranked if k % 2 ** tier[i] == 0]
        rng.shuffle(batch)
        for i in batch:
            if time.perf_counter() - start >= seconds:
                break
            measure(i)
        k += 1


def _trace_cold(run, requests, block, seconds, check) -> None:
    """Blocks of `block` requests, cycling through `requests`, until
    `seconds` have passed.  Each request runs in a fresh child untraced and
    then in another one traced; the two must print the same bytes."""
    outputs: dict[int, str] = {}
    start = time.perf_counter()
    pos = 0
    while time.perf_counter() - start < seconds:
        ids = [(pos + k) % len(requests) for k in range(block)]
        pos += block
        for i in ids:
            req = requests[i]
            plain = harness.run_child([req["argv"]])
            traced = harness.run_child([req["argv"]], traced=True)
            run.children += 2
            (x,), (y,) = plain.outcomes, traced.outcomes
            if not _check_outcome(run, req, x, check, outputs, i):
                continue
            if y.stdout != x.stdout:
                run.fail(f"{req['argv']}: the traced run prints different bytes")
                continue
            run.plain_units += 1
            run.plain_busy += x.wall
            run.traced_busy += y.wall
            run.add_trace(traced)
    _check_pairs(run, requests, outputs)


def _describe_mult(req) -> list[str]:
    left, right = req["left"], req["right"]
    return [
        f"right_length.{len(right)}",
        f"order.{req['order']}",
        f"degree.{sum(left) + sum(right)}",
    ]


def _check_mult(req, stdout) -> None:
    checker.check_mult(req["left"], req["right"], stdout)


def run_lr_products(run: Run, seed: int, seconds: float, clock: SetupClock | None) -> None:
    rounds = itertools.islice(workloads.lr_rounds(seed), workloads.LR_RUN_ROUNDS)
    requests = [req for batch in rounds for req in batch]
    if clock is None:
        # a block visits every (stratum, degree) cell once
        _trace_cold(run, requests, len(requests) // workloads.LR_VISITS, seconds, _check_mult)
    else:
        _run_cold(run, requests, seconds, seed, clock, _describe_mult, _check_mult)


def _describe_convert(req) -> list[str]:
    source, target = req["source"], req["target"]
    route = "inverse" if workloads.is_inverse_route(source, target) else "matrix"
    return [f"route.{route}", f"pair.{source}-{target}", f"degree.{req['degree']}"]


def _check_convert(req, stdout) -> None:
    checker.check_convert(req["source"], req["terms"], req["target"], stdout)


def run_basis_change(run: Run, seed: int, seconds: float, clock: SetupClock | None) -> None:
    rounds = itertools.islice(workloads.convert_rounds(seed), workloads.CONVERT_RUN_ROUNDS)
    requests = [req for batch in rounds for req in batch]
    if clock is None:
        # a block is one round: one request per degree
        _trace_cold(run, requests, len(workloads.CONVERT_DEGREES), seconds, _check_convert)
    else:
        _run_cold(run, requests, seconds, seed, clock, _describe_convert, _check_convert)


def _check_suite(req, stdout) -> None:
    checker.check_verify(workloads.VERIFY_CHECKS[req["suite"]], stdout)


def run_verify_sweep(run: Run, seed: int, seconds: float, clock: SetupClock | None) -> None:
    """Sweeps, each in one fresh child, until `seconds` have passed.  The
    first sweep always completes; later ones stop between suites at the
    deadline.  Untraced, a suite's latency is the median of its runs in
    reference seconds, as on the cold workloads.  Traced, sweeps alternate
    untraced and traced."""
    # The sweep is the same for every seed: its inputs are the pinned bounds.
    requests = workloads.verify_requests()
    argvs = [req["argv"] for req in requests]
    for req in requests:
        run.inputs[f"bound.{req['suite']}"] = workloads.VERIFY_BOUNDS[req["suite"]]
    outputs: dict[str, str] = {}
    start = time.perf_counter()
    sweep = 0
    while time.perf_counter() - start < seconds or (clock is None and not run.units):
        shadow = clock is None and sweep % 2 == 1
        deadline = start + seconds if sweep and clock is not None else None
        result = harness.run_child(argvs, traced=shadow, deadline=deadline)
        sweep += 1
        run.children += 1
        ok = [
            _check_outcome(run, req, outcome, _check_suite, outputs, req["suite"])
            for req, outcome in zip(requests, result.outcomes)
        ]
        wall = sum(o.wall for o in result.outcomes)
        if shadow:
            run.traced_busy += wall
            run.add_trace(result)
            for req, outcome in zip(requests, result.outcomes):
                run.suite_time[req["suite"]] += outcome.wall
            continue
        run.plain_units += 1
        run.plain_busy += wall
        run.peak_rss_mb = max(run.peak_rss_mb, result.peak_rss_mb)
        for req, outcome, good in zip(requests, result.outcomes, ok):
            if good:
                suite = req["suite"]
                run.sample(suite, suite, workloads.VERIFY_CHECKS[suite], outcome)
        if clock is not None:
            clock.tick()


WORKLOADS = {
    "lr-products": run_lr_products,
    "basis-change": run_basis_change,
    "verify-sweep": run_verify_sweep,
}


def end_to_end(run: Run, scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics, in reference seconds or, with scaled=False,
    in seconds as measured."""

    def seconds(wall: float, ref: float) -> float:
        return wall * REFERENCE_S / ref if scaled else wall

    latency = {key: statistics.median(seconds(*x) for x in v) for key, v in run.samples.items()}
    by_class: dict[str, list[float]] = {}
    work: dict[str, int] = {}
    for key, value in latency.items():
        klass, work[klass] = run.classes[key]
        by_class.setdefault(klass, []).append(value)
    lat = sorted(latency.values())
    return {
        "setup_s": statistics.median(seconds(*x) for x in run.setup),
        # the work of one request per class over the sum of the classes'
        # median latencies: a block (or sweep) of typical requests
        "ops_per_s": sum(work.values()) / sum(statistics.median(v) for v in by_class.values()),
        "latency_p50_s": statistics.median(lat),
        # "inclusive" never goes past the slowest request
        f"latency_p{TAIL}_s": statistics.quantiles(lat, n=100, method="inclusive")[TAIL - 1]
        if len(lat) > 1
        else lat[0],
        "peak_rss_mb": run.peak_rss_mb,
    }


def per_layer(run: Run, workload: str) -> dict[str, float]:
    units = run.units
    out: dict[str, float] = {f"{layer}.self_s": run.self_time[layer] / units for layer in LAYERS}
    for fn in TRACED_FUNCTIONS:
        if fn in run.stats:  # absent when a later version drops the function
            calls, seconds = run.stats[fn]
            out[f"{fn}.calls"] = calls / units
            out[f"{fn}.time_s"] = seconds / units
    for name in COUNTERS:
        if name.rpartition(".")[0] in run.stats:
            out[name] = run.counters[name] / units
    if "tableaux.lr_tableaux" in run.stats:
        built = run.counters["tableaux.lr_tableaux.built"]
        out["tableaux.lr_yield"] = run.counters["tableaux.lr_tableaux.kept"] / built if built else 0.0
    if "ring.multiply" in run.stats:
        calls = run.counters["ring.multiply.lr_calls"]
        out["ring.multiply.lr_hit_ratio"] = (
            run.counters["ring.multiply.lr_nonzero"] / calls if calls else 0.0
        )
    checks_per_sweep = workloads.VERIFY_CHECKS if workload == "verify-sweep" else {}
    for suite in SUITES:
        out[f"verification.{suite}.time_s"] = run.suite_time[suite] / units
        out[f"verification.{suite}.checks"] = checks_per_sweep.get(suite, 0)
    out["cli.stdout_bytes"] = run.stdout_bytes / units
    out["memo.entries"] = run.memo_entries / units
    out["trace.wall_s"] = run.wall / units
    # traced / untraced work per busy second, over the same units
    out["trace.overhead_ratio"] = (run.plain_busy / run.plain_units) / (run.traced_busy / units)
    return out


def write_trace(run: Run, workload: str, seed: int) -> str:
    out_dir = harness.ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    data = {
        "workload": workload,
        "seed": seed,
        "units": run.units,
        "functions": {k: {"calls": c, "time_s": t} for k, (c, t) in sorted(run.stats.items())},
        "self_s": dict(run.self_time),
        "counters": dict(run.counters),
        "span_fields": ["unit", "id", "parent", "name", "start", "end"],
        "spans": run.spans,
    }
    path.write_text(json.dumps(data))
    return str(path.relative_to(harness.ROOT))


def report(workload: str, seed: int, seconds: float, traced: bool) -> int:
    """Run one workload and print its metrics, the result JSON last."""
    run = Run()
    clock = None if traced else SetupClock(run, seconds)
    WORKLOADS[workload](run, seed, seconds, clock)
    if clock:
        clock.finish()
    if not (run.samples or run.units):
        print(f"error: no request completed; first errors: {run.errors}", file=sys.stderr)
        return 1

    total = sum(v for k, v in run.inputs.items() if k.startswith(("order.", "route.")))
    shares = {k: round(v / total, 4) for k, v in run.inputs.items() if k.startswith(("order.", "route."))}
    print("inputs: " + json.dumps({**dict(sorted(run.inputs.items())), "shares": shares}))
    for message in run.errors:
        print(f"failure: {message}")
    print(f"error_rate {run.failed / run.attempted:.6g} ({run.failed}/{run.attempted} requests)")
    if traced:
        metrics = per_layer(run, workload)
        units = PER_LAYER_UNITS
        print(f"trace: {write_trace(run, workload, seed)} ({run.units} traced units)")
        print(
            f"trace.self_sum_ratio {sum(run.self_time.values()) / run.wall:.4f} "
            "(sum of module self_s / wall time inside cli.main)"
        )
    else:
        metrics = end_to_end(run)
        units = END_TO_END
        refs = [ref for v in run.samples.values() for _, ref in v]
        print(
            f"host: reference() took {statistics.median(refs) * 1e3:.4g} ms (median), "
            f"{REFERENCE_S * 1e3:.4g} ms on the reference host; the times below are "
            "in reference seconds"
        )
        raw = end_to_end(run, scaled=False)
        print("measured: " + json.dumps({k: float(f"{v:.6g}") for k, v in raw.items()}))
    samples = {
        "setup_s": f"{len(run.setup)} imports",
        "peak_rss_mb": f"{run.children} children",
    }
    counted = f"{len(run.samples)} requests, {run.runs()} runs"
    for name, value in metrics.items():
        n = f"{run.units} traced units" if traced else samples.get(name, counted)
        print(f"{name} {value:.6g} {units[name]} (n={n})")
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        harness.import_library()
    except (ImportError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload != "all":
        return report(args.workload, args.seed, args.seconds, bool(args.trace))
    status = 0
    for workload in WORKLOADS:
        print(f"== {workload}")
        status = max(status, report(workload, args.seed, args.seconds, bool(args.trace)))
    return status


if __name__ == "__main__":
    sys.exit(main())
