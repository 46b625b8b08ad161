"""Seeded request lists for the benchmark workloads.

A request is one dp2 command line.  The lists depend only on the seed and
on the reference pool in references.json, never on the program under test.
"""

from __future__ import annotations

import collections
import math
import random
from dataclasses import dataclass

#: coefficients of the analyze box: nonzero integers in [-50, 50]
BOX = tuple(v for v in range(-50, 51) if v)

#: request slots per Galois group order in one analyze list.  The
#: presentation shares follow the order distribution of 3000 uniform box
#: draws (4: 0.1%, 8: 0.8%, 16: 6.6%, 32: 16.1%, 64: 42.7%, 128: 33.7%);
#: stratifying keeps the mix, and so the cost of a list, the same for every
#: seed.  Every fourth request of a list uses --backend all.  Two of those
#: are on order 32, the costliest requests of a list (the standard
#: complex), so that the list's maximum latency, req_tail_s, is the larger
#: of two draws and varies less from seed to seed.
ANALYZE_SLOTS = {
    "presentation": {16: 1, 32: 2, 64: 5, 128: 4},
    "all": {32: 2, 64: 2},
}

#: fixed obstruction recipes: (-25,-5,45), the family at p = 3,
#: (-126,-91,78), (34,34,34) and (-9826,-2,136)
RECIPES = ((-25, -5, 45), (-6, -3, 2), (-126, -91, 78), (34, 34, 34),
           (-9826, -2, 136))
CUBIC = (1, 2, 3, 4)
HILBERT_RANGE = 1000
PROBE_TRIPLES = 3


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


#: primes p = 3 (mod 16) below 1000: the (-2p, -p, 2) family members
FAMILY_PRIMES = tuple(p for p in range(3, 1000, 16) if _is_prime(p))


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]  # dp2 arguments
    kind: str  # analyze, scan, obstruct, cubic, hilbert, probe, import
    key: str = ""  # reference key: the coefficients joined by commas
    exits: frozenset = frozenset({0})  # exit codes the request may end with
    timeout: float = 120.0


def coeffs_key(coeffs) -> str:
    return ",".join(str(c) for c in coeffs)


def coeff_argv(cmd: str, coeffs, names="ABCD") -> tuple[str, ...]:
    argv = [cmd]
    for name, c in zip(names, coeffs):
        argv += [f"-{name}", str(c)]
    return tuple(argv) + ("--json",)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def analyze_requests(seed: int, refs: dict):
    """Sixteen analyze requests: pool triples drawn per order stratum."""
    rng = _rng("analyze", seed)
    by_order = collections.defaultdict(list)
    for key, ref in sorted(refs["analyze"].items()):
        by_order[ref["order"]].append(key)
    drawn, used = {}, set()
    for backend, slots in ANALYZE_SLOTS.items():
        picks = []
        for order, count in sorted(slots.items()):
            free = [k for k in by_order[order] if k not in used]
            picks += rng.sample(free, count)
        used.update(picks)
        rng.shuffle(picks)
        drawn[backend] = picks
    keys = []
    presentation, every = iter(drawn["presentation"]), iter(drawn["all"])
    for i in range(len(drawn["presentation"]) + len(drawn["all"])):
        keys.append((next(every), "all") if i % 4 == 3
                    else (next(presentation), "presentation"))
    requests = []
    for key, backend in keys:
        argv = coeff_argv("analyze", key.split(","))
        if backend == "all":
            argv += ("--backend", "all")
        requests.append(Request(argv, "analyze", key, timeout=60.0))
    orders = [refs["analyze"][k]["order"] for k, _ in keys]
    props = {
        "order_histogram": dict(sorted(collections.Counter(orders).items())),
        "backend_all_share": sum(b == "all" for _, b in keys) / len(keys),
        "order_le_32_share": sum(o <= 32 for o in orders) / len(orders),
        "triples": [k for k, _ in keys],
    }
    return requests, props


def scan_requests(seed: int, refs: dict):
    """One full subgroup scan; the input is fixed, so the seed is unused."""
    return [Request(("scan", "--json"), "scan", "scan", timeout=150.0)], {}


def _signed(rng: random.Random) -> int:
    v = rng.randint(1, HILBERT_RANGE)
    return v if rng.random() < 0.5 else -v


def local_requests(seed: int, refs: dict):
    """The obstruction recipes, one seed-drawn family prime, the cubic
    pipeline and two seed-drawn Hilbert symbols."""
    rng = _rng("local", seed)
    p = rng.choice(FAMILY_PRIMES)
    pairs = [(_signed(rng), _signed(rng)) for _ in range(2)]
    obstruct = [Request(coeff_argv("obstruct", s), "obstruct",
                        coeffs_key(s), timeout=90.0)
                for s in RECIPES[:2] + ((-2 * p, -p, 2),) + RECIPES[2:]]
    cubic = Request(coeff_argv("cubic", CUBIC), "cubic", coeffs_key(CUBIC),
                    timeout=60.0)
    hilbert = [Request(coeff_argv("hilbert", ab), "hilbert", coeffs_key(ab),
                       timeout=30.0) for ab in pairs]
    small, heavy = obstruct[:4], obstruct[4:] + [cubic]
    # the six short requests are spread between the three long ones, so
    # that the median latency samples the whole run
    requests = [small[0], hilbert[0], heavy[0], small[1], heavy[1],
                small[2], heavy[2], small[3], hilbert[1]]
    return requests, {"family_prime": p,
                      "hilbert_args": [list(ab) for ab in pairs]}


def is_generic(A: int, B: int, C: int) -> bool:
    """None of the 31 nontrivial products (-1)^d 2^e A^a B^b C^c is a
    perfect square (the genericity test of the conic-bundle recipe)."""
    for mask in range(1, 32):
        val = 1
        for bit, factor in enumerate((-1, 2, A, B, C)):
            if mask >> bit & 1:
                val *= factor
        if val > 0 and math.isqrt(val) ** 2 == val:
            return False
    return True


def probe_requests(seed: int):
    """Seed-drawn generic triples for the conic-search probe.  Exit 2 (no
    conic point found) and exit 4 are expected outcomes here."""
    rng = _rng("probe", seed)
    triples = []
    while len(triples) < PROBE_TRIPLES:
        t = tuple(rng.choice(BOX) for _ in range(3))
        if is_generic(*t) and t not in triples:
            triples.append(t)
    return [Request(coeff_argv("obstruct", t), "probe", coeffs_key(t),
                    exits=frozenset({0, 2, 4}), timeout=12.0)
            for t in triples]


BUILDERS = {
    "analyze": analyze_requests,
    "scan": scan_requests,
    "local": local_requests,
}
