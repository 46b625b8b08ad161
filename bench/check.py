"""Output checker: the paper's stated facts, the runtime invariants, and the
semantic fields of each request against references recorded from a known
good commit.  Fields are compared, not bytes, so an added report field
does not count as a failure; byte identity is reported separately through
the stdout SHA-256.
"""

from __future__ import annotations

import json
from fractions import Fraction

from harness import Outcome

#: the six isomorphism types Br(S)/Br(Q) can take, as divisor chains
SIX_TYPES = {(), (2,), (4,), (2, 2), (2, 4), (2, 2, 2)}
#: Kresch-Tschinkel: 172 fingerprints <= 194 conjugacy classes <= 243
SCAN_SANDWICH = [172, 194, 243]
SCAN_H1_TYPES = [[], [2], [4], [2, 2], [2, 4], [2, 2, 2]]
CONCLUSIONS = {"obstructed", "not_obstructed_by_class", "inconclusive"}
CONIC_MISS = "no conic point found"


def problems(outcome: Outcome, refs: dict) -> list[str]:
    """Why the request failed; empty when it succeeded."""
    req = outcome.request
    if outcome.exit is None:
        return [] if req.kind == "probe" \
            else [f"timed out after {req.timeout:.0f} s"]
    if outcome.exit == 3:
        return ["internal invariant violation (exit 3)"]
    if outcome.exit not in req.exits:
        return [f"exit {outcome.exit}, expected one of {sorted(req.exits)}:"
                f" {outcome.stderr.strip()[-200:]}"]
    if outcome.exit != 0:
        return []
    try:
        report = json.loads(outcome.stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    return CHECKS[req.kind](report, req.key, refs)


def is_conic_miss(outcome: Outcome) -> bool:
    return outcome.exit == 2 and CONIC_MISS in outcome.stderr


def _diff(report: dict, ref: dict, fields) -> list[str]:
    return [f"{name}: {report.get(name)!r} != reference {ref[name]!r}"
            for name in fields if report.get(name) != ref[name]]


def _check_analyze(report, key, refs):
    divisors = report["brauer"]["divisors"]
    found = {"order": report["galois"]["order"],
             "pic_rank": report["pic_rank"], "divisors": divisors,
             "table2_row": report["table2_row"]}
    out = _diff(found, refs["analyze"][key], found)
    if tuple(divisors) not in SIX_TYPES or report["brauer"]["rank"]:
        out.append(f"Br type {divisors} outside the six admissible groups")
    if report["pic_rank"] == 1 and not divisors:
        out.append("Pic rank 1 with trivial Br")
    return out


def _check_scan(report, key, refs):
    out = []
    if report["sandwich"] != SCAN_SANDWICH:
        out.append(f"sandwich {report['sandwich']} != {SCAN_SANDWICH}")
    if report["h1_types"] != SCAN_H1_TYPES:
        out.append(f"h1_types {report['h1_types']} != {SCAN_H1_TYPES}")
    if any(tuple(t) not in SIX_TYPES for t in report["h1_types"]):
        out.append("an H^1 type outside the six admissible groups")
    return out + _diff(report, refs["scan"], ("classes", "fingerprints"))


def _zero_sum_reachable(profiles) -> bool:
    """Whether one attained vector per place sums to zero in Q/Z."""
    sums = None
    for pr in profiles:
        vecs = {tuple(Fraction(x) for x in v) for v in pr["invariants"]}
        sums = vecs if sums is None else {
            tuple((a + b) % 1 for a, b in zip(s, v))
            for s in sums for v in vecs}
    return any(not any(s) for s in sums or ())


def _check_obstruct(report, key, refs):
    verdict = report["verdict"]
    ref = refs["obstruct"][key]
    places = {pr["place"]: pr["invariants"] for pr in verdict["profiles"]}
    out = _diff({"conclusion": verdict["conclusion"], "places": places},
                ref, ("conclusion", "places"))
    if verdict["conclusion"] != "obstructed":
        out.append("the paper's recipe verdict is 'obstructed'")
    if verdict["conclusion"] == "obstructed" \
            and _zero_sum_reachable(verdict["profiles"]):
        out.append("'obstructed' although attained invariants sum to 0")
    return out


def _check_probe(report, key, refs):
    verdict = report["verdict"]
    if verdict["conclusion"] not in CONCLUSIONS:
        return [f"unknown conclusion {verdict['conclusion']!r}"]
    if verdict["conclusion"] == "obstructed" \
            and _zero_sum_reachable(verdict["profiles"]):
        return ["'obstructed' although attained invariants sum to 0"]
    return []


def _check_cubic(report, key, refs):
    return _diff(report, refs["cubic"][key],
                 ("column_identity", "norm_solution", "h", "presentation"))


# --- an independent Hilbert symbol (Serre, A Course in Arithmetic, III) ----

def _split(n: int, p: int) -> tuple[int, int]:
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k, n


def hilbert_symbol(a: int, b: int, place) -> int:
    if place == "R":
        return -1 if a < 0 and b < 0 else 1
    p = place
    alpha, u = _split(a, p)
    beta, v = _split(b, p)
    if p == 2:
        def eps(x):
            return (x - 1) // 2 % 2

        def omega(x):
            return (x * x - 1) // 8 % 2

        e = eps(u) * eps(v) + alpha * omega(v) + beta * omega(u)
        return -1 if e % 2 else 1

    def legendre(x):
        return 1 if pow(x % p, (p - 1) // 2, p) == 1 else -1

    sign = -1 if alpha * beta * (p - 1) // 2 % 2 else 1
    return sign * legendre(u) ** beta * legendre(v) ** alpha


def _primes_of(n: int) -> set[int]:
    n, out, d = abs(n), set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    return out | ({n} if n > 1 else set())


def _check_hilbert(report, key, refs):
    a, b = (int(x) for x in key.split(","))
    symbols = report["symbols"]
    expected = {"R": hilbert_symbol(a, b, "R")}
    expected.update({f"Q_{p}": hilbert_symbol(a, b, p)
                     for p in _primes_of(2 * a * b)})
    out = [f"({a}, {b})_{place} = {value}, expected {expected.get(place)}"
           for place, value in symbols.items()
           if value != expected.get(place)]
    out += [f"place {place} with symbol -1 missing"
            for place, value in expected.items()
            if value == -1 and place not in symbols]
    if report.get("product") != 1:
        out.append(f"product formula: product {report.get('product')}")
    return out


CHECKS = {
    "analyze": _check_analyze,
    "scan": _check_scan,
    "obstruct": _check_obstruct,
    "probe": _check_probe,
    "cubic": _check_cubic,
    "hilbert": _check_hilbert,
}


def reference_sha(outcome: Outcome, refs: dict) -> str | None:
    """The stdout SHA-256 recorded for this request, where one exists."""
    req = outcome.request
    if req.kind == "scan":
        return refs["scan"]["sha256"]
    if req.kind not in ("analyze", "obstruct", "cubic"):
        return None
    sha = refs[req.kind][req.key]["sha256"]
    if req.kind == "analyze":
        sha = sha["all" if "all" in req.argv else "presentation"]
    return sha
