"""The dp2 benchmark.

    python3 bench/run.py --workload analyze|scan|local|all --seed N \\
        --seconds S --trace 0|1

Every request is a fresh `python -m dp2.cli ... --json` process with
PYTHONPATH=src, sent by one client in a closed loop (the next request
starts when the previous one has exited).  The request list comes from
the seed (workloads.py); every output is checked (check.py).

The benchmark and its children run pinned to one processor.  --trace 0
repeats the list until S seconds have been measured and reports the
end-to-end metrics, with every time converted to seconds of a reference
host by a speed probe timed beside the requests (harness.HostClock).
--trace 1 runs each request twice, untraced and then through
trace_child.py, and reports the per-layer metrics and the tracing
overhead.  Human-readable lines come first; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
The metric names and units are those of BENCHMARK.json; METRICS.md
defines them.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import statistics
import sys
import time

import check
import harness
import workloads

SETUP_REPEATS = 5
IMPORT_REPEATS = 3


def _load(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


class Session:
    """Runs requests, checks each output, and logs one line per request."""

    def __init__(self, refs: dict):
        self.refs = refs
        self.attempted = 0
        self.failed = 0

    def run(self, request, traced: bool = False):
        out = harness.run_request(request, traced)
        bad = check.problems(out, self.refs)
        self.attempted += 1
        self.failed += bool(bad)
        ref = check.reference_sha(out, self.refs)
        same = "" if ref is None else (" =ref" if out.sha256 == ref
                                       else " !=ref")
        code = "timeout" if out.exit is None else f"exit {out.exit}"
        print(f"  {out.seconds:8.3f} s {out.rss_mb:8.1f} MB {code:<8} "
              f"sha256 {out.sha256}{same}  dp2 {' '.join(request.argv)}"
              + (f"  FAILED: {'; '.join(bad)}" if bad else ""), flush=True)
        return out

    def run_pass(self, requests, imports: int = 0):
        """(outcomes, cold import outcomes).  The cold imports are spread
        evenly over the pass, so that their median samples the host's
        speed across the run; they are not part of the pass."""
        n = len(requests)
        slots = collections.Counter(
            round(j * n / max(imports - 1, 1)) for j in range(imports))
        outs, setup = [], []
        for i in range(n + 1):
            setup += [harness.cold_import() for _ in range(slots[i])]
            if i < n:
                outs.append(self.run(requests[i]))
        return outs, setup


def end_to_end(setup, passes, seconds) -> dict:
    """The end-to-end times, each process timed by seconds(outcome)."""
    latencies = [seconds(o) for outs in passes for o in outs]
    return {
        "setup_s": statistics.median(map(seconds, setup)),
        "wall_s": statistics.median(sum(map(seconds, outs))
                                    for outs in passes),
        "req_p50_s": statistics.median(latencies),
        "req_tail_s": harness.tail_percentile(latencies)[1],
    }


def _sum_spans(outs) -> dict:
    total: dict[str, dict] = {}
    for o in outs:
        for name, stat in (o.spans or {}).items():
            acc = total.setdefault(name, {})
            for field, value in stat.items():
                acc[field] = acc.get(field, 0) + value
    return total


def per_layer(names, imports, untraced, traced, probe) -> dict:
    spans = _sum_spans(traced)
    scans = [json.loads(o.stdout) for o in traced
             if o.request.kind == "scan" and o.exit == 0]
    traced_wall = sum(o.seconds for o in traced)
    classes = sum(s["classes"] for s in scans)
    misses = sum(check.is_conic_miss(o) for o in probe)
    special = {
        "import.total_s": imports["dp2.cli"],
        "import.sympy_s": imports["sympy"],
        "import.numpy_s": imports["numpy"],
        "cohomology.h1_per_class": spans.get(
            "cohomology.h1_presentation", {}).get("calls", 0) / classes
        if classes else 0.0,
        "local.examples.build_ex73.probe_attempts": len(probe),
        "local.examples.build_ex73.miss_ratio":
            misses / len(probe) if probe else 0.0,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - sum(o.seconds for o in untraced),
    }
    metrics = {}
    for name in names:
        if name in special:
            metrics[name] = special[name]
        else:
            function, field = name.rsplit(".", 1)
            metrics[name] = spans.get(function, {}).get(field, 0)
    return metrics


def run_workload(workload: str, args, spec: dict, refs: dict):
    """(session, metrics) for one workload; prints the per-request log."""
    requests, props = workloads.BUILDERS[workload](args.seed, refs)
    print(f"# host before {json.dumps(harness.host_speed())}")
    print(f"# workload {workload} seed {args.seed}: "
          f"{len(requests)} requests, drew {json.dumps(props)}", flush=True)
    session = Session(refs)
    if args.trace:
        imports = harness.import_profile(IMPORT_REPEATS)
        # each request runs untraced, then traced, so that both runs of a
        # pair see the host at the same speed
        print("# untraced and traced, in pairs")
        untraced, traced = [], []
        for request in requests:
            untraced.append(session.run(request))
            traced.append(session.run(request, traced=True))
        probe = []
        if workload == "local":
            print("# conic-search probe (generic triples)")
            probe = [session.run(r, traced=True)
                     for r in workloads.probe_requests(args.seed)]
        metrics = per_layer([m["name"] for m in spec["per_layer"]],
                            imports, untraced, traced, probe)
    else:
        harness.cold_import()  # warms the file cache, untimed
        passes, setup = [], []
        with harness.HostClock() as clock:
            start = time.perf_counter()
            while not passes or time.perf_counter() - start < args.seconds:
                print(f"# pass {len(passes) + 1}", flush=True)
                outs, imports = session.run_pass(
                    requests, imports=0 if passes else SETUP_REPEATS)
                passes.append(outs)
                setup += imports
        outs = [o for pass_outs in passes for o in pass_outs]
        q, _ = harness.tail_percentile([o.seconds for o in outs])
        print(f"# req_tail_s is p{q:g} of {len(outs)} request latencies")
        print(f"# host clock: median reference loop {clock.median_ms():.3f} ms"
              f" over {len(clock.samples)} samples, against "
              f"{harness.REF_LOOP_MS} ms on the reference host")
        print(f"# unscaled "
              f"{json.dumps(end_to_end(setup, passes, lambda o: o.seconds))}")
        metrics = end_to_end(setup, passes, clock.seconds)
        metrics["peak_rss_mb"] = max(o.rss_mb for o in outs)
        metrics["success_ratio"] = 1 - session.failed / session.attempted
    print(f"# host after {json.dumps(harness.host_speed())}")
    print(f"# failed_ratio {session.failed / session.attempted} "
          f"({session.failed} of {session.attempted} requests)")
    return session, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BUILDERS) + ["all"],
                        help="one workload, or all of them in turn (the "
                             "result line then prefixes each metric with "
                             "its workload)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(harness.ROOT, "src", "dp2", "cli.py")):
        print("error: no dp2 sources under src/ next to the benchmark",
              file=sys.stderr)
        return 2
    spec = _load(os.path.join(harness.ROOT, "BENCHMARK.json"))
    refs = _load(os.path.join(harness.BENCH, "references.json"))
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    names = sorted(workloads.BUILDERS) if args.workload == "all" \
        else [args.workload]
    cpu = harness.pin_to_one_cpu()
    print(f"# meta {json.dumps({**harness.metadata(), 'pinned_cpu': cpu})}")
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        try:
            session, metrics = run_workload(workload, args, spec, refs)
        except harness.SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        result["correct"] &= session.failed == 0
        result["attempted"] += session.attempted
        result["failed"] += session.failed
        prefix = f"{workload}." if len(names) > 1 else ""
        for name, value in metrics.items():
            print(f"{prefix}{name} = {value} {units[name]}")
            result["metrics"][prefix + name] = {"value": value,
                                                "unit": units[name]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
