"""Record the reference answers the output checker compares against.

Run once, at the commit the references should describe:

    python3 bench/record_refs.py

It draws the analyze pool (uniform triples from the coefficient box, kept
per Galois group order until each stratum of workloads.ANALYZE_SLOTS has
POOL_PER_ORDER members), runs every pool triple with --backend all, runs
every obstruction recipe (all family primes), the cubic pipeline and the
scan, and writes bench/references.json.  Each entry keeps the semantic
fields the checker compares and the stdout SHA-256 of its request.
"""

from __future__ import annotations

import json
import os
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import harness
from workloads import (BOX, CUBIC, FAMILY_PRIMES, RECIPES, Request,
                       coeff_argv, coeffs_key)

POOL_SEED = 402373
POOL_PER_ORDER = {16: 12, 32: 16, 64: 28, 128: 24}
OUT = os.path.join(harness.BENCH, "references.json")


def draw_pool() -> list[tuple[int, int, int]]:
    sys.path.insert(0, os.path.join(harness.ROOT, "src"))
    from dp2.kummer import galois_group

    rng = random.Random(POOL_SEED)
    kept = {order: [] for order in POOL_PER_ORDER}
    while any(len(kept[o]) < n for o, n in POOL_PER_ORDER.items()):
        t = tuple(rng.choice(BOX) for _ in range(3))
        order = galois_group(*t).order
        if order in kept and len(kept[order]) < POOL_PER_ORDER[order] \
                and t not in kept[order]:
            kept[order].append(t)
    return [t for order in sorted(kept) for t in kept[order]]


def _run(argv) -> harness.Outcome:
    out = harness.run_request(Request(tuple(argv), "record", timeout=600.0))
    if out.exit != 0:
        raise SystemExit(f"{' '.join(argv)} exited {out.exit}: "
                         f"{out.stderr.strip()}")
    return out


def analyze_ref(t) -> dict:
    argv = coeff_argv("analyze", t)
    plain, every = _run(argv), _run(argv + ("--backend", "all"))
    report = json.loads(every.stdout)
    if json.loads(plain.stdout)["brauer"]["divisors"] \
            != report["brauer"]["divisors"]:
        raise SystemExit(f"backends disagree on {t}")
    return {
        "order": report["galois"]["order"],
        "pic_rank": report["pic_rank"],
        "divisors": report["brauer"]["divisors"],
        "table2_row": report["table2_row"],
        "sha256": {"presentation": plain.sha256, "all": every.sha256},
    }


def obstruct_ref(s) -> dict:
    out = _run(coeff_argv("obstruct", s))
    verdict = json.loads(out.stdout)["verdict"]
    return {
        "conclusion": verdict["conclusion"],
        "places": {pr["place"]: pr["invariants"]
                   for pr in verdict["profiles"]},
        "sha256": out.sha256,
    }


def cubic_ref(c) -> dict:
    out = _run(coeff_argv("cubic", c))
    report = json.loads(out.stdout)
    ref = {k: report[k] for k in ("column_identity", "norm_solution", "h",
                                  "presentation")}
    ref["sha256"] = out.sha256
    return ref


def scan_ref() -> dict:
    out = _run(("scan", "--json"))
    ref = json.loads(out.stdout)
    ref["sha256"] = out.sha256
    return ref


def main() -> None:
    pool = draw_pool()
    surfaces = list(RECIPES) + [(-2 * p, -p, 2) for p in FAMILY_PRIMES[1:]]
    with ThreadPoolExecutor(max_workers=2) as ex:
        analyze = list(ex.map(analyze_ref, pool))
        obstruct = list(ex.map(obstruct_ref, surfaces))
    refs = {
        "commit": harness.metadata()["git_sha"],
        "pool_seed": POOL_SEED,
        "analyze": {coeffs_key(t): r for t, r in zip(pool, analyze)},
        "obstruct": {coeffs_key(s): r
                     for s, r in zip(surfaces, obstruct)},
        "cubic": {coeffs_key(CUBIC): cubic_ref(CUBIC)},
        "scan": scan_ref(),
    }
    with open(OUT, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
