"""Run one dp2 request with timing wrappers around the public functions
of each layer.

    PYTHONPATH=src DP2_BENCH_TRACE_FD=<fd> python3 bench/trace_child.py ARGV...

behaves like `python -m dp2.cli ARGV...` and, when the process exits,
writes per-function totals as JSON to the inherited file descriptor:
{"<module>.<function>": {"calls", "total_s", "self_s", ...extras}}.
Module names drop the leading "dp2.".  Self time is a call's duration
minus the time covered by wrapped calls made inside it; total time counts
only the outermost call of a recursive function.

Every module attribute bound to a wrapped function is replaced, including
names re-bound by `from ... import`, so that calls through dp2.cli reach
the wrapper too.  GroupElement.__mul__ is deliberately not wrapped: it runs
about half a million times per order-128 request.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import os
import sys
import time

LAYERS = {
    "dp2.kummer": ("galois_group", "table2_match"),
    "dp2.galois0": ("matrix_of", "fixed_sublattice", "generate_subgroup",
                    "all_subgroup_classes", "enumerate_subgroups_onto_Q",
                    "fingerprint"),
    "dp2.cohomology": ("pic_module", "polycyclic_chain", "h1_presentation",
                       "h1_standard", "h1_via_resolution"),
    "dp2.intlin": ("subquotient_structure", "smith_normal_form"),
    "dp2.local.padic": ("invariant_profile", "padic_point_classes",
                        "real_profile"),
    "dp2.local.quartic": ("mod32_membership", "ex75_17adic_profile",
                          "norm_image_check"),
    "dp2.local.examples": ("build_ex71", "build_ex72", "build_ex73",
                           "build_ex74", "build_ex75"),
    "dp2.local.hilbert": ("hilbert_symbol",),
    "dp2.local.cubic": ("cubic_pipeline", "find_rational_h"),
    "dp2.cli": ("analyze_surface", "scan_theorem", "obstruct_surface"),
}

#: rows x cols from which ColumnEchelon takes its numpy path by default
LARGE_SYSTEM = 20000


def _undetermined(stat, args, result):
    stat["undetermined"] = stat.get("undetermined", 0) + result.undetermined


def _mod32_classes(stat, args, result):
    stat["classes"] = stat.get("classes", 0) + result[2]


def _large_system(stat, args, result):
    echelon = args[0]
    large = echelon.nrows * echelon.ncols >= LARGE_SYSTEM
    stat["large_calls"] = stat.get("large_calls", 0) + large


EXTRAS = {
    "local.padic.invariant_profile": _undetermined,
    "local.quartic.mod32_membership": _mod32_classes,
    "intlin.ColumnEchelon": _large_system,
}


class Recorder:
    def __init__(self):
        self.stats: dict[str, dict] = {}
        self._stack: list[list[float]] = []  # child seconds per open call
        self._depth = collections.Counter()

    def wrap(self, name: str, fn):
        extra = EXTRAS.get(name)
        stat = self.stats.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            self._depth[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self._depth[name] -= 1
                stat["calls"] += 1
                stat["self_s"] += elapsed - frame[0]
                if not self._depth[name]:
                    stat["total_s"] += elapsed
                if self._stack:
                    self._stack[-1][0] += elapsed
            if extra is not None:
                extra(stat, args, result)
            return result

        return wrapper


def install(recorder: Recorder) -> None:
    replaced = {}
    for modname, names in LAYERS.items():
        module = importlib.import_module(modname)
        for fname in names:
            original = getattr(module, fname)
            replaced[id(original)] = (
                original, recorder.wrap(f"{modname[4:]}.{fname}", original))
    for modname, module in list(sys.modules.items()):
        if modname != "dp2" and not modname.startswith("dp2."):
            continue
        for attr, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    from dp2.intlin import ColumnEchelon

    ColumnEchelon.__init__ = recorder.wrap("intlin.ColumnEchelon",
                                           ColumnEchelon.__init__)


def main() -> int:
    fd = int(os.environ.pop("DP2_BENCH_TRACE_FD"))
    import dp2.cli

    recorder = Recorder()
    install(recorder)
    try:
        return dp2.cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        with os.fdopen(fd, "w") as sink:
            json.dump(recorder.stats, sink)


if __name__ == "__main__":
    sys.exit(main())
