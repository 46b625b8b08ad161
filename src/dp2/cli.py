"""Command-line interface: surface analysis, the subgroup scan,
obstruction recipes, Hilbert symbols, verification suites, and the
diagonal-cubic pipeline.

The group layers (kummer, galois0, cohomology), the local recipes,
`fractions` and `arith` are imported inside the functions that use
them, so each subcommand compiles and loads only its own modules.

Exit codes: 0 success, 2 invalid input, 3 internal invariant
violation, 4 capacity exhausted or analysis inconclusive."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .local import CapacityError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INVARIANT = 3
EXIT_CAPACITY = 4

#: the six isomorphism types Br(S)/Br(Q) can take, as divisor chains
THEOREM_GROUPS = frozenset({(), (2,), (4,), (2, 2), (2, 4), (2, 2, 2)})


class InvariantViolation(Exception):
    """An internal consistency guarantee failed (exit code 3)."""


class Inconclusive(Exception):
    """The analysis ran out of capacity or decided nothing (exit 4)."""


# --- cohomology backends --------------------------------------------------

def resolution_h1(s, mod):
    """H^1 via the short resolution for the group shape on the Pic module
    mod of s, or None when no implemented resolution applies."""
    from .cohomology import _PRODUCT_KINDS, h1_via_resolution
    from .galois0 import _abelian_generators, _dihedral_generators, \
        is_abelian

    if is_abelian(s):
        gens = _abelian_generators(s)
        kind = _PRODUCT_KINDS[len(gens)] if gens else None
    else:
        gens, kind = _dihedral_generators(s), "dihedral"
    if gens is None:
        return None
    return h1_via_resolution(kind, mod, gens=gens)


def h1_with_backend(s, backend: str):
    """(AbelianGroupType, label) by the chosen backend, or by each applicable
    one for "all": all read one Pic module, and must agree (exit 3)."""
    from .cohomology import (_STANDARD_LIMIT, h1_presentation, h1_standard,
                             pic_module)

    every = backend == "all"
    mod = pic_module(s)  # one product table and matrix cache for all
    results = {}
    if every or backend == "presentation":
        results["presentation"] = h1_presentation(mod).group
    if backend == "standard" or every and s.order <= _STANDARD_LIMIT:
        try:
            results["standard"] = h1_standard(mod).group
        except ValueError as exc:
            if every:
                raise
            raise Inconclusive(str(exc)) from exc
    if every or backend == "resolution":
        res = resolution_h1(s, mod)
        if res is not None:
            results[res.backend] = res.group
        elif not every:
            raise Inconclusive(
                "no short resolution implemented for this group shape")
    if not results:
        raise ValueError(f"unknown backend {backend!r}")
    br, *others = set(results.values())
    if others:
        raise InvariantViolation(f"backends disagree: {results}")
    return br, "+".join(sorted(results))


# --- analyze --------------------------------------------------------------

def analyze_surface(A: int, B: int, C: int,
                    backend: str = "presentation") -> dict:
    """The full report for w^2 = A x^4 + B y^4 + C z^4: Galois group,
    Picard rank, Brauer quotient and the matched classification row."""
    from .galois0 import fixed_sublattice
    from .kummer import galois_group, table2_match

    s = galois_group(A, B, C)
    pic_rank = len(fixed_sublattice(s))
    br, used = h1_with_backend(s, backend)
    if tuple(br.divisors) not in THEOREM_GROUPS or br.rank:
        raise InvariantViolation(
            f"Br type {br.render()} outside the six admissible groups "
            f"for generators {s.generators}")
    if pic_rank == 1 and not br.divisors:
        raise InvariantViolation(
            f"Pic rank 1 with trivial Br for generators {s.generators}")
    return {
        "surface": {"A": A, "B": B, "C": C},
        "galois": {
            "order": s.order,
            "generators": [[g.chi, g.e_s, g.e_k, g.e_m]
                           for g in s.generators],
        },
        "pic_rank": pic_rank,
        "brauer": {"divisors": list(br.divisors), "rank": br.rank,
                   "rendered": br.render(), "backend": used},
        "table2_row": table2_match(A, B, C),
    }


# --- scan -----------------------------------------------------------------

def scan_theorem() -> dict:
    """Over every enumerated subgroup class acting with full quotient on
    the coefficient radicals: H^1 lies in the six-group list, trivial
    H^1 forces fixed rank >= 2, and the fingerprint/class counts
    sandwich the true conjugacy-class count 194."""
    from .galois0 import enumerate_subgroups_onto_Q, fingerprint, \
        fixed_rank, h1_type

    subs = enumerate_subgroups_onto_Q()
    attained = set()
    for s in subs:
        t = h1_type(s)
        if tuple(t.divisors) not in THEOREM_GROUPS or t.rank:
            raise InvariantViolation(
                f"H^1 = {t.render()} for generators {s.generators}")
        attained.add(tuple(t.divisors))
        if not t.divisors and fixed_rank(s) < 2:
            raise InvariantViolation(
                f"trivial H^1 with fixed rank < 2 for generators "
                f"{s.generators}")
    fingerprints = len({fingerprint(s) for s in subs})
    if not fingerprints <= 194 <= len(subs):
        raise InvariantViolation(
            f"sandwich {fingerprints} <= 194 <= {len(subs)} fails")
    return {
        "classes": len(subs),
        "fingerprints": fingerprints,
        "sandwich": [fingerprints, 194, len(subs)],
        "h1_types": sorted(sorted(attained),
                           key=lambda d: (len(d), d)),
    }


# --- obstruct -------------------------------------------------------------

def obstruct_surface(A: int, B: int, C: int, bound: int = 12, depth=None):
    """(verdict, transcript) by the recipe that covers the coefficients
    (dp2.local.examples.obstruct).  depth, when given, caps the 2-adic
    enumeration depth, where the recipe reads it."""
    if depth is not None and depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    if 0 in (A, B, C):
        raise ValueError("coefficients must be nonzero")
    from .local.examples import obstruct

    return obstruct(A, B, C, bound=bound, depth=depth)


def verdict_report(v) -> dict:
    from .local.hilbert import render_place

    return {
        "conclusion": v.conclusion,
        "profiles": [
            {
                "place": render_place(pr.place),
                "modulus": pr.modulus,
                "invariants": sorted(
                    [str(q) for q in vec]
                    for vec in pr.invariants),
                "method": pr.method,
            }
            for pr in v.profiles
        ],
    }


# --- output helpers -------------------------------------------------------

def _emit(report: dict, as_json: bool, out) -> None:
    if as_json:
        json.dump(report, out, indent=2, sort_keys=False)
        out.write("\n")
        return
    _emit_text(report, out)


def _emit_text(report: dict, out, indent: str = "") -> None:
    for key, value in report.items():
        if isinstance(value, dict):
            out.write(f"{indent}{key}:\n")
            _emit_text(value, out, indent + "  ")
        elif isinstance(value, list) and value \
                and isinstance(value[0], dict):
            out.write(f"{indent}{key}:\n")
            for item in value:
                _emit_text(item, out, indent + "  ")
                out.write(f"{indent}  --\n")
        else:
            out.write(f"{indent}{key}: {value}\n")


# --- subcommand runners ---------------------------------------------------

def _run_analyze(args, out) -> int:
    report = analyze_surface(args.A, args.B, args.C, backend=args.backend)
    _emit(report, args.json, out)
    return EXIT_OK


def _run_scan(args, out) -> int:
    report = scan_theorem()
    _emit(report, args.json, out)
    return EXIT_OK


def _run_obstruct(args, out) -> int:
    v, transcript = obstruct_surface(args.A, args.B, args.C,
                                     bound=args.bound, depth=args.depth)
    report = {
        "surface": {"A": args.A, "B": args.B, "C": args.C},
        "verdict": verdict_report(v),
    }
    if not args.json:
        report["transcript"] = list(transcript)
    _emit(report, args.json, out)
    return EXIT_OK if v.conclusion != "inconclusive" else EXIT_CAPACITY


def _parse_place(text: str):
    from .arith import is_prime

    if text == "R":
        return "R"
    try:
        if is_prime(int(text)):
            return int(text)
    except ValueError:  # not an integer
        pass
    raise ValueError(f"place must be R or a prime, got {text}")


def _run_hilbert(args, out) -> int:
    from fractions import Fraction

    from .local.hilbert import hilbert_symbol, relevant_places, render_place

    a, b = Fraction(args.A), Fraction(args.B)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol arguments must be nonzero")
    if args.place is not None:
        places = [_parse_place(args.place)]
    else:
        places = relevant_places(a, b)
    report = {
        "a": str(a),
        "b": str(b),
        "symbols": {render_place(p): int(hilbert_symbol(a, b, p))
                    for p in places},
    }
    if args.place is None:
        product = 1
        for val in report["symbols"].values():
            product *= val
        report["product"] = product
        if product != 1:
            raise InvariantViolation("Hilbert product formula violated")
    _emit(report, args.json, out)
    return EXIT_OK


def _run_verify(args, out) -> int:
    """Re-derive every worked-example identity and print the transcript."""
    from .local.examples import verify_sections

    report = {"sections": [{"name": name, "facts": list(facts)}
                           for name, facts in verify_sections()]}
    _emit(report, args.json, out)
    return EXIT_OK


def _run_cubic(args, out) -> int:
    from fractions import Fraction

    from .local.cubic import cubic_pipeline

    rep = cubic_pipeline(args.A, args.B, args.C, args.D,
                         search_bound=args.bound)
    report = {
        "coefficients": list(rep.coefficients),
        "column_identity": rep.column_identity,
        "norm_solution": None if rep.norm_solution is None
        else [str(Fraction(q)) for q in rep.norm_solution],
        "h": None if rep.h is None else str(rep.h),
        "presentation": {"r_cubed": str(rep.presentation[0]),
                         "s_cubed": rep.presentation[1],
                         "commutation": rep.presentation[2]},
        "transcript": list(rep.transcript),
    }
    _emit(report, args.json, out)
    return EXIT_OK if rep.h is not None else EXIT_CAPACITY


# --- argument parsing -----------------------------------------------------

def _positive_int(option: str):
    """argparse type for an integer option that must be at least 1."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = 0
        if value < 1:
            raise argparse.ArgumentTypeError(
                f"{option} must be an integer of at least 1, got {text!r}")
        return value
    return parse


def _add_common(sub, coeffs="ABC"):
    for name in coeffs:
        sub.add_argument(f"-{name}", type=int, required=True)
    sub.add_argument("--json", action="store_true",
                     help="machine-readable output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dp2",
        description="Arithmetic of the surfaces w^2 = A x^4 + B y^4 "
                    "+ C z^4")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="Galois, Picard and Brauer report")
    _add_common(p)
    p.add_argument("--backend", default="presentation",
                   choices=("presentation", "standard", "resolution",
                            "all"))
    p.set_defaults(run=_run_analyze)

    p = subs.add_parser("scan",
                        help="classification scan over all subgroup "
                             "classes")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_run_scan)

    p = subs.add_parser("obstruct", help="local invariant verdict")
    _add_common(p)
    p.add_argument("--depth", type=_positive_int("depth"), default=None,
                   help="2-adic depth-cap override; not applied to "
                        "(-9826, -2, 136), whose 2-adic check is fixed "
                        "at 2^10")
    p.add_argument("--bound", type=_positive_int("bound"), default=12,
                   help="conic point search bound")
    p.set_defaults(run=_run_obstruct)

    p = subs.add_parser("hilbert", help="Hilbert symbol (a, b)_v")
    _add_common(p, coeffs="AB")
    p.add_argument("--place", default=None,
                   help="R or a prime; default: all relevant places "
                        "plus the product check")
    p.set_defaults(run=_run_hilbert)

    p = subs.add_parser("verify",
                        help="re-run the exact identity and lemma "
                             "transcripts")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_run_verify)

    p = subs.add_parser("cubic",
                        help="cyclic-algebra pipeline for A x^3 + B y^3 "
                             "+ C z^3 + D t^3")
    _add_common(p, coeffs="ABCD")
    p.add_argument("--bound", type=_positive_int("bound"), default=5,
                   help="norm-equation search bound")
    p.set_defaults(run=_run_cubic)
    return parser


def main(argv=None, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.run(args, out)
    except ValueError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_INPUT
    except CapacityError as exc:
        err.write(f"capacity: {exc}\n")
        return EXIT_CAPACITY
    except Inconclusive as exc:
        err.write(f"inconclusive: {exc}\n")
        return EXIT_CAPACITY
    except (InvariantViolation, AssertionError) as exc:
        err.write(f"invariant violation: {exc}\n")
        return EXIT_INVARIANT


def run() -> None:
    """The `dp2` script and `python -m dp2.cli`: main(), then flush
    stdout and stderr and end the process with os._exit, skipping the
    interpreter's teardown (unloading modules, a last collection, freeing
    every table), which is pure cost: no request writes a file or
    registers an atexit handler.  If a flush raises, as on a closed pipe,
    exit through sys.exit as `sys.exit(main())` would.  An uncaught
    exception leaves main() as before: a traceback and exit 1."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
