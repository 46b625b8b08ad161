import ast
import hashlib
import importlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import dp2.cli as cli
from dp2 import arith


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run(argv)
    assert code == 0, err
    return json.loads(out)


def test_analyze_generic_triple():
    d = run_json(["analyze", "-A", "3", "-B", "5", "-C", "7", "--json"])
    assert d["surface"] == {"A": 3, "B": 5, "C": 7}
    assert d["galois"]["order"] == 128
    assert d["pic_rank"] == 1
    assert d["brauer"]["divisors"] == [2] and d["brauer"]["rank"] == 0
    assert d["brauer"]["rendered"] == "Z/2"
    assert d["table2_row"] is None


def test_analyze_rank_two_surface():
    d = run_json(["analyze", "-A", "1", "-B", "1", "-C", "-2", "--json",
                  "--backend", "all"])
    assert d["pic_rank"] == 2
    assert d["brauer"]["divisors"] == [2]
    assert "presentation" in d["brauer"]["backend"]
    assert "standard" in d["brauer"]["backend"]


def test_analyze_klein_four_surface():
    d = run_json(["analyze", "-A", "34", "-B", "34", "-C", "34", "--json"])
    assert d["galois"]["order"] == 8
    assert d["brauer"]["rendered"] == "Z/2 + Z/2 + Z/2"


def test_analyze_table_row_surface():
    d = run_json(["analyze", "-A", "-63", "-B", "-7", "-C", "5", "--json"])
    assert d["brauer"]["divisors"] == [2, 2]
    assert d["table2_row"] is not None


def test_analyze_deterministic_and_round_trips():
    runs = [run(["analyze", "-A", "-25", "-B", "-5", "-C", "45",
                 "--json"]) for _ in range(2)]
    assert runs[0] == runs[1]
    d = json.loads(runs[0][1])
    assert json.loads(json.dumps(d)) == d


def test_analyze_invalid_input_exit_2():
    code, _, err = run(["analyze", "-A", "0", "-B", "1", "-C", "1"])
    assert code == 2
    assert "nonzero" in err


def test_analyze_computes_the_galois_group_once(monkeypatch):
    # analyze_surface and table2_match share one cached galois_group, and
    # the zero-coefficient error is raised again, not cached
    import dp2.kummer as kummer
    calls = []
    constraints = kummer.constraints

    def counting(*args):
        calls.append(args)
        return constraints(*args)

    monkeypatch.setattr(kummer, "constraints", counting)
    kummer.galois_group.cache_clear()
    d = run_json(["analyze", "-A", "-63", "-B", "-7", "-C", "5", "--json"])
    assert d["table2_row"] is not None
    assert calls == [(-63, -7, 5)]
    for _ in range(2):
        assert run(["analyze", "-A", "0", "-B", "1", "-C", "1"])[0] == 2


def test_analyze_invariant_violation_exit_3(monkeypatch):
    monkeypatch.setattr(cli, "THEOREM_GROUPS", frozenset({()}))
    code, _, err = run(["analyze", "-A", "3", "-B", "5", "-C", "7"])
    assert code == 3
    assert "invariant violation" in err


def test_analyze_builds_only_the_matrices_it_reads(cold_matrix_caches,
                                                   monkeypatch):
    # an order-128 group: the generators for Pic^s and the few elements
    # the presentation backend reads, not all 128 matrices
    g0 = cold_matrix_caches
    calls = []
    matrix_of = g0.matrix_of

    def counting(g):
        calls.append(g)
        return matrix_of(g)

    monkeypatch.setattr(g0, "matrix_of", counting)
    d = run_json(["analyze", "-A", "28", "-B", "22", "-C", "3", "--json"])
    assert d["galois"]["order"] == 128
    assert 0 < len(calls) <= 16


def test_analyze_checks_each_matrix_it_reads(cold_matrix_caches,
                                             monkeypatch):
    # a wrong curve permutation on an element that only the presentation
    # backend reads is caught by matrix_of's check on the 56 curves
    from dp2.cohomology import h1_presentation, pic_module
    from dp2.kummer import galois_group

    g0 = cold_matrix_caches
    s = galois_group(28, 22, 3)
    mod = pic_module(s)
    h1_presentation(mod)
    target = min(set(mod.matrices) - set(s.generators))
    g0.matrix_of.cache_clear()
    g0.pic_rows.cache_clear()
    curve_indices = g0._curve_indices

    def wrong(g):
        perm = list(curve_indices(g))
        if g == target:  # swap two curves: no longer an isometry
            perm[0], perm[30] = perm[30], perm[0]
        return tuple(perm)

    monkeypatch.setattr(g0, "_curve_indices", wrong)
    code, out, err = run(["analyze", "-A", "28", "-B", "22", "-C", "3"])
    assert code == 3 and not out
    assert f"induced matrix inconsistent for {target}" in err


def test_resolution_backend_on_abelian_group():
    d = run_json(["analyze", "-A", "1", "-B", "1", "-C", "1", "--json",
                  "--backend", "resolution"])
    assert d["brauer"]["rendered"] == "Z/2 + Z/2 + Z/2"
    assert d["brauer"]["backend"].startswith("resolution:")


def test_obstruct_family_instance():
    d = run_json(["obstruct", "-A", "-6", "-B", "-3", "-C", "2",
                  "--json"])
    v = d["verdict"]
    assert v["conclusion"] == "obstructed"
    by_place = {p["place"]: p for p in v["profiles"]}
    assert by_place["Q_2"]["invariants"] == [["1/2"]]
    assert by_place["Q_3"]["invariants"] == [["0"]]
    assert by_place["R"]["method"] == "sampling"


def test_obstruct_depth_does_not_leak_into_later_calls():
    from dp2.local import padic

    caps = dict(padic.DEPTH_CAP)
    argv = ["obstruct", "-A", "-6", "-B", "-3", "-C", "2", "--json"]
    code, out, _ = run(argv + ["--depth", "2"])
    assert code == 4
    assert json.loads(out)["verdict"]["conclusion"] == "inconclusive"
    d = run_json(argv)
    assert d["verdict"]["conclusion"] == "obstructed"
    assert padic.DEPTH_CAP == caps


@pytest.mark.parametrize("coeffs", ["0,0,0", "0,0,5", "0,0,-7", "0,3,0",
                                    "0,1,1"])
def test_obstruct_zero_coefficient_is_input_error(coeffs):
    # is_generic_triple passes any triple with a zero (every product with
    # a zero factor is 0, never a positive square), so obstruct_surface
    # refuses a zero before it picks a recipe
    a, b, c = coeffs.split(",")
    code, out, err = run(["obstruct", "-A", a, "-B", b, "-C", c])
    assert code == 2
    assert out == ""
    assert err == "error: coefficients must be nonzero\n"


@pytest.mark.parametrize("coeffs", ["-25,-5,45", "-6,-3,2", "-126,-91,78",
                                    "34,34,34"])
def test_obstruct_depth_past_int64_prints_the_default_bytes(coeffs):
    # residues are Python ints: a depth cap of 40, with p^40 far past
    # 2^63, decides at the depths the default run reaches
    path = pathlib.Path(__file__).parent.parent / "bench" / "references.json"
    ref = json.loads(path.read_text())["obstruct"][coeffs]
    a, b, c = coeffs.split(",")
    code, out, err = run(["obstruct", "-A", a, "-B", b, "-C", c,
                          "--depth", "40", "--json"])
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == ref["sha256"]


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_obstruct_depth_below_one_is_input_error(depth, capsys):
    code, out, _ = run(["obstruct", "-A", "-25", "-B", "-5", "-C", "45",
                        "--depth", depth])
    assert code == 2
    assert out == ""
    assert "depth must be an integer of at least 1" in capsys.readouterr().err
    with pytest.raises(ValueError, match="depth must be at least 1"):
        cli.obstruct_surface(-25, -5, 45, depth=int(depth))


@pytest.mark.parametrize("argv", [
    ["-A", "3", "-B", "5", "-C", "7", "--bound", "0"],
    ["-A", "34", "-B", "34", "-C", "34", "--bound", "-5"],
], ids=["3-5-7-bound0", "34-34-34-bound-5"])
def test_obstruct_bound_below_one_is_input_error(argv, capsys):
    code, out, _ = run(["obstruct"] + argv)
    assert code == 2
    assert out == ""
    assert "bound must be an integer of at least 1" in capsys.readouterr().err


def test_obstruct_large_prime_exceeds_capacity():
    # 1009 divides A, and level 1 at p = 1009 alone is 1009^3 cells
    # per chart, which the enumeration budget refuses before allocating
    code, _, err = run(["obstruct", "-A", "1009", "-B", "-1012", "-C", "3",
                        "--json"])
    assert code == 4
    assert "capacity:" in err


def test_no_subcommand_has_threads_option():
    parser = cli.build_parser()
    subs = next(a for a in parser._actions
                if a.dest == "command").choices
    assert subs
    for name, sub in subs.items():
        assert all(a.dest != "threads" for a in sub._actions), name


def test_obstruct_unimplemented_recipe_exit_2():
    code, _, err = run(["obstruct", "-A", "2", "-B", "3", "-C", "5"])
    assert code == 2
    assert "recipe not implemented" in err


def test_obstruct_conic_miss_message():
    code, out, err = run(["obstruct", "-A", "3", "-B", "5", "-C", "7",
                          "--bound", "2"])
    assert code == cli.EXIT_INPUT and out == ""
    assert "no conic point found" in err and "Hasse" not in err


_nonzero = st.integers(-50, 50).filter(bool)


@settings(max_examples=25, deadline=None)
@given(_nonzero, _nonzero, _nonzero)
def test_analyze_random_triples_admissible_and_deterministic(a, b, c):
    argv = ["analyze", "-A", str(a), "-B", str(b), "-C", str(c), "--json"]
    first, second = run(argv), run(argv)
    assert first == second
    code, out, err = first
    if code == cli.EXIT_INPUT:
        return
    assert code == cli.EXIT_OK, err
    divisors = tuple(json.loads(out)["brauer"]["divisors"])
    assert divisors in cli.THEOREM_GROUPS


@settings(max_examples=25, deadline=None)
@given(_nonzero, _nonzero, _nonzero)
def test_obstruct_random_triples_never_invariant_violation(a, b, c):
    # a verdict (0), a recipe or conic miss (2) or a capacity limit (4),
    # but never a failed internal check (3)
    code, _, err = run(["obstruct", "-A", str(a), "-B", str(b), "-C", str(c),
                        "--bound", "2", "--depth", "4", "--json"])
    assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_CAPACITY), err


def test_hilbert_product_and_single_place():
    d = run_json(["hilbert", "-A", "3", "-B", "5", "--json"])
    assert d["product"] == 1
    assert d["symbols"]["Q_3"] == -1
    d = run_json(["hilbert", "-A", "3", "-B", "5", "--place", "R",
                  "--json"])
    assert d["symbols"] == {"R": 1}
    code, _, _ = run(["hilbert", "-A", "0", "-B", "5"])
    assert code == 2
    code, _, _ = run(["hilbert", "-A", "3", "-B", "5", "--place", "6"])
    assert code == 2


def test_hilbert_past_the_rho_cap_exits_capacity(monkeypatch):
    monkeypatch.setattr(arith, "_RHO_CAP", 2 ** 8)
    code, out, err = run(["hilbert", "-A", str((10 ** 9 + 7) * (10 ** 9 + 9)),
                          "-B", "5"])
    assert (code, out) == (cli.EXIT_CAPACITY, "")
    assert err.startswith("capacity: Pollard rho found no factor")


def test_verify_sections():
    d = run_json(["verify", "--json"])
    names = [s["name"] for s in d["sections"]]
    assert len(names) == 6
    assert all(s["facts"] for s in d["sections"])


def test_cubic_subcommand():
    d = run_json(["cubic", "-A", "1", "-B", "2", "-C", "3", "-D", "4",
                  "--json"])
    assert d["column_identity"]
    assert d["h"] is not None
    assert d["presentation"]["r_cubed"] == "2/3"
    code, _, _ = run(["cubic", "-A", "1", "-B", "3", "-C", "5", "-D", "11",
                      "--bound", "1"])
    assert code == 4  # no norm-equation solution within the bound
    code, _, _ = run(["cubic", "-A", "1", "-B", "1", "-C", "2", "-D", "3"])
    assert code == 2  # a coefficient ratio is a rational cube


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_cubic_bound_below_one_is_input_error(bound, capsys):
    code, out, _ = run(["cubic", "-A", "1", "-B", "2", "-C", "3", "-D", "4",
                        "--bound", bound])
    assert code == 2
    assert out == ""
    assert "bound must be an integer of at least 1" in capsys.readouterr().err


def test_unknown_subcommand_exit_2():
    code, _, _ = run(["frobnicate"])
    assert code == 2


def test_group_subcommands_load_neither_sympy_nor_numpy():
    script = (
        "import io, sys\n"
        "import dp2.cli as cli\n"
        "for argv in (['analyze', '-A', '3', '-B', '5', '-C', '7'],\n"
        "             ['analyze', '-A', '-10', '-B', '49', '-C', '36',\n"
        "              '--backend', 'all'],\n"
        "             ['analyze', '-A', '-10', '-B', '49', '-C', '36',\n"
        "              '--backend', 'standard'],\n"
        "             ['scan'], ['hilbert', '-A', '3', '-B', '5']):\n"
        "    assert cli.main(argv, out=io.StringIO()) == 0, argv\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('sympy', 'numpy')))\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_ported_obstruct_recipes_load_no_sympy():
    # every recipe, (34, 34, 34) with its exact degree certificate
    # included, verify and cubic run on dp2.local.poly; and the real
    # place of the four sampled recipes, decided at exact witness
    # points, loads no numpy.random
    script = (
        "import io, sys\n"
        "import dp2.cli as cli\n"
        "for a, b, c in ((-25, -5, 45), (-6, -3, 2), (-38, -19, 2),\n"
        "                (-126, -91, 78), (34, 34, 34)):\n"
        "    argv = ['obstruct', '-A', str(a), '-B', str(b), '-C', str(c)]\n"
        "    assert cli.main(argv, out=io.StringIO()) == 0, argv\n"
        "print('numpy.random' in sys.modules)\n"
        "argv = ['obstruct', '-A', '-9826', '-B', '-2', '-C', '136']\n"
        "assert cli.main(argv, out=io.StringIO()) == 0\n"
        "assert cli.main(['verify'], out=io.StringIO()) == 0\n"
        "for argv in (['cubic', '-A', '1', '-B', '2', '-C', '3', '-D', '4'],\n"
        "             ['cubic', '-A', '1', '-B', '2', '-C', '3', '-D', '4',\n"
        "              '--json']):\n"
        "    assert cli.main(argv, out=io.StringIO()) == 0, argv\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'sympy'))\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "[]"]


def test_obstruct_reference_pool_prints_recorded_bytes():
    # every obstruct key of the benchmark references, the 22 members of
    # the (-2p, -p, 2) family included, prints the recorded bytes
    path = pathlib.Path(__file__).parent.parent / "bench" / "references.json"
    refs = json.loads(path.read_text())["obstruct"]
    assert len(refs) == 26
    for key, ref in refs.items():
        a, b, c = key.split(",")
        code, out, err = run(["obstruct", "-A", a, "-B", b, "-C", c,
                              "--json"])
        assert code == 0, (key, err)
        assert hashlib.sha256(out.encode()).hexdigest() == ref["sha256"], key


def test_every_subcommand_runs_without_sympy():
    # with sympy made unimportable, as after `pip install .` without the
    # test extra, every subcommand still answers, a Hilbert symbol above
    # 2^64 included
    script = (
        "import io, sys\n"
        "sys.modules['sympy'] = None\n"
        "import dp2.cli as cli\n"
        "for argv in (['analyze', '-A', '3', '-B', '5', '-C', '7'],\n"
        "             ['scan'], ['verify'],\n"
        "             ['hilbert', '-A', '3', '-B', '5'],\n"
        "             ['hilbert', '-A', str(2 ** 70 + 1), '-B', '5'],\n"
        "             ['cubic', '-A', '1', '-B', '2', '-C', '3',\n"
        "              '-D', '4']):\n"
        "    assert cli.main(argv, out=io.StringIO()) == 0, argv\n"
        "for a, b, c in ((-25, -5, 45), (-6, -3, 2), (-126, -91, 78),\n"
        "                (34, 34, 34), (-9826, -2, 136)):\n"
        "    argv = ['obstruct', '-A', str(a), '-B', str(b), '-C', str(c)]\n"
        "    assert cli.main(argv, out=io.StringIO()) == 0, argv\n"
        "print('ok')\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_local_subcommands_load_no_group_modules():
    # the Galois, Picard and H^1 layers load only where a request uses
    # them: analyze, scan, verify and the (-9826, -2, 136) transcript;
    # and `import dp2.cli` plus a hilbert request load no dataclasses
    # (with inspect, dis and ast behind it) and no profiles module
    script = (
        "import io, sys\n"
        "before = set(sys.modules)\n"
        "import dp2.cli as cli\n"
        "assert cli.main(['hilbert', '-A', '3', '-B', '5'],\n"
        "                out=io.StringIO()) == 0\n"
        "print(sorted(m for m in ('dataclasses', 'inspect', 'dis', 'ast',\n"
        "                         'dp2.local.profiles')\n"
        "             if m in sys.modules and m not in before))\n"
        "for argv in (['hilbert', '-A', '3', '-B', '5'],\n"
        "             ['obstruct', '-A', '-25', '-B', '-5', '-C', '45'],\n"
        "             ['obstruct', '-A', '-6', '-B', '-3', '-C', '2'],\n"
        "             ['obstruct', '-A', '-126', '-B', '-91', '-C', '78'],\n"
        "             ['obstruct', '-A', '34', '-B', '34', '-C', '34'],\n"
        "             ['cubic', '-A', '1', '-B', '2', '-C', '3', '-D', '4']):\n"
        "    assert cli.main(argv, out=io.StringIO()) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m in (\n"
        "    'dp2.cohomology', 'dp2.galois0', 'dp2.intlin', 'dp2.kummer',\n"
        "    'dp2.picard')))\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]", "[]"]


def test_no_subcommand_loads_dataclasses():
    # records in src/dp2 are NamedTuples or plain classes: dataclasses
    # and the inspect, dis and ast it imports cost about 25 ms a request.
    # No request loads numpy either, which imports those three as well:
    # not verify, nor the recipes on ex71 to ex74, nor (-9826, -2, 136),
    # whose 2-adic check runs on Python integers
    script = (
        "import io, sys\n"
        "import dp2.cli as cli\n"
        "for argv in (['analyze', '-A', '28', '-B', '22', '-C', '3'],\n"
        "             ['analyze', '-A', '-5', '-B', '-5', '-C', '-14',\n"
        "              '--backend', 'all', '--json'],\n"
        "             ['analyze', '-A', '-10', '-B', '49', '-C', '36',\n"
        "              '--backend', 'standard'],\n"
        "             ['analyze', '-A', '1', '-B', '1', '-C', '1',\n"
        "              '--backend', 'resolution'],\n"
        "             ['scan'], ['hilbert', '-A', '3', '-B', '5'],\n"
        "             ['cubic', '-A', '1', '-B', '2', '-C', '3', '-D', '4'],\n"
        "             ['verify']):\n"
        "    assert cli.main(argv, out=io.StringIO()) == 0, argv\n"
        "for a, b, c in ((-25, -5, 45), (-6, -3, 2), (-126, -91, 78),\n"
        "                (34, 34, 34)):\n"
        "    argv = ['obstruct', '-A', str(a), '-B', str(b), '-C', str(c)]\n"
        "    assert cli.main(argv, out=io.StringIO()) == 0, argv\n"
        "print(sorted(m for m in ('dataclasses', 'inspect', 'dis', 'ast',\n"
        "                         'numpy') if m in sys.modules))\n"
        "argv = ['obstruct', '-A', '-9826', '-B', '-2', '-C', '136']\n"
        "assert cli.main(argv, out=io.StringIO()) == 0\n"
        "print(sorted(m for m in ('dataclasses', 'inspect', 'dis', 'ast',\n"
        "                         'numpy') if m in sys.modules))\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:2] == ["[]", "[]"]


def test_requests_on_ex71_to_ex74_run_without_numpy():
    # with numpy made unimportable, verify and obstruct on the recipes
    # of ex71 to ex74, and on the order-4 class of (-9826, -2, 136),
    # answer, and obstruct prints the recorded bytes; verify, which has
    # no recorded hash, prints what it prints with numpy importable
    path = pathlib.Path(__file__).parent.parent / "bench" / "references.json"
    refs = json.loads(path.read_text())["obstruct"]
    triples = ["-25,-5,45", "-6,-3,2", "-454,-227,2", "-126,-91,78",
               "34,34,34", "-9826,-2,136"]
    script = (
        "import hashlib, io, sys\n"
        "sys.modules['numpy'] = None\n"
        "import dp2.cli as cli\n"
        "out = io.StringIO()\n"
        "assert cli.main(['verify', '--json'], out=out) == 0\n"
        "print(hashlib.sha256(out.getvalue().encode()).hexdigest())\n"
        "for key in sys.argv[1:]:\n"
        "    a, b, c = key.split(',')\n"
        "    out = io.StringIO()\n"
        "    argv = ['obstruct', '-A', a, '-B', b, '-C', c, '--json']\n"
        "    assert cli.main(argv, out=out) == 0, argv\n"
        "    print(hashlib.sha256(out.getvalue().encode()).hexdigest())\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-c", script, *triples], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    _, verify_out, _ = run(["verify", "--json"])
    assert done.stdout.split() == [
        hashlib.sha256(verify_out.encode()).hexdigest(),
        *(refs[key]["sha256"] for key in triples)]


def _imports(node, on_import_only):
    """(module, level) of each import under node; with on_import_only,
    not those in function bodies, which run only when called.  For
    `from . import name` the module is the name, which may be a
    submodule or an attribute of the package."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            yield from ((alias.name, 0) for alias in child.names)
        elif isinstance(child, ast.ImportFrom):
            if child.module is None:
                yield from ((alias.name, child.level)
                            for alias in child.names)
            else:
                yield child.module, child.level
        elif not (on_import_only and isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef))):
            yield from _imports(child, on_import_only)


def test_dp2_import_graph_has_no_cycle():
    # every import between dp2 modules, function-level ones included,
    # points one way: galois0 owns the index group and the Pic algebra,
    # cohomology imports galois0, and cli imports both.  The one import
    # kept apart is the lazy re-export in cohomology's module __getattr__,
    # which runs only on a failed attribute read, after cohomology has
    # loaded: it hands out the five-term names that fiveterm, built on
    # cohomology, defines
    root = pathlib.Path(__file__).resolve().parents[1] / "src" / "dp2"
    sources = {}
    for path in sorted(root.rglob("*.py")):
        parts = ("dp2",) + path.relative_to(root).with_suffix("").parts
        package = parts[:-1]
        name = ".".join(package if parts[-1] == "__init__" else parts)
        sources[name] = package, ast.parse(path.read_text())

    def targets(package, node) -> set:
        out = set()
        for module, level in _imports(node, on_import_only=False):
            if level:
                base = package[:len(package) - level + 1]
                module = ".".join(base + tuple(filter(None, [module])))
            if module not in sources:  # an attribute of a package
                module = module.rpartition(".")[0] or module
            if module.split(".")[0] == "dp2":
                out.add(module)
        return out

    graph, lazy = {}, {}
    for name, (package, tree) in sources.items():
        reexports = [node for node in tree.body
                     if isinstance(node, ast.FunctionDef)
                     and node.name == "__getattr__"]
        graph[name] = targets(package, ast.Module(
            [node for node in tree.body if node not in reexports], []))
        lazy[name] = targets(package, ast.Module(reexports, []))
    assert graph["dp2.cohomology"] >= {"dp2.galois0"}
    assert {k: v for k, v in lazy.items() if v} \
        == {"dp2.cohomology": {"dp2.fiveterm"}}
    assert "dp2.cohomology" in graph["dp2.fiveterm"]
    state = {}

    def visit(node, path):
        state[node] = "open"
        for nxt in sorted(graph.get(node, ())):
            assert state.get(nxt) != "open", path + [nxt]
            if nxt not in state:
                visit(nxt, path + [nxt])
        state[node] = "done"

    for node in sorted(graph):
        if node not in state:
            visit(node, [node])


def test_scan_and_order_four_obstruct_load_no_cohomology():
    # H^1 types come from galois0; the (-9826, -2, 136) transcript reads
    # Picard matrices only
    script = (
        "import io, sys\n"
        "import dp2.cli as cli\n"
        "for argv in (['scan', '--json'],\n"
        "             ['obstruct', '-A', '-9826', '-B', '-2', '-C', '136']):\n"
        "    assert cli.main(argv, out=io.StringIO()) == 0, argv\n"
        "    print('dp2.cohomology' in sys.modules)\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False"]


def test_analyze_builds_no_conjugation_or_extension_tables():
    # analyze reads the product table and the conjugations by the five
    # generators (in table2_match's orbits); the other 123 conjugation
    # permutations and the roots/into masks are the subgroup
    # enumeration's, which only scan runs
    script = (
        "import io\n"
        "import dp2.cli as cli\n"
        "import dp2.galois0 as g0\n"
        "built, conjugation = [], g0._conjugation\n"
        "g0._conjugation = lambda g: built.append(g) or conjugation(g)\n"
        "for argv in (['analyze', '-A', '-5', '-B', '-5', '-C', '-14',\n"
        "              '--backend', 'all'],\n"
        "             ['analyze', '-A', '-16', '-B', '-35', '-C', '29'],\n"
        "             ['analyze', '-A', '-13', '-B', '-6', '-C', '23',\n"
        "              '--json'],\n"
        "             ['analyze', '-A', '1', '-B', '1', '-C', '1',\n"
        "              '--backend', 'resolution'],\n"
        "             ['analyze', '-A', '-10', '-B', '49', '-C', '36',\n"
        "              '--backend', 'standard']):\n"
        "    assert cli.main(argv, out=io.StringIO()) == 0, argv\n"
        "print(len(built),\n"
        "      g0._extension_tables.cache_info().currsize,\n"
        "      g0._orbit_table.cache_info().currsize == 1)\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["5", "0", "True"]


def test_analyze_and_scan_load_neither_hilbert_nor_fiveterm():
    # Hilbert symbols are read by the hilbert and obstruct subcommands,
    # and the five-term route only by its cross-checks
    script = (
        "import io, sys\n"
        "import dp2.cli as cli\n"
        "for argv in (['analyze', '-A', '-5', '-B', '-5', '-C', '-14',\n"
        "              '--backend', 'all'],\n"
        "             ['analyze', '-A', '-13', '-B', '-6', '-C', '23',\n"
        "              '--json'],\n"
        "             ['analyze', '-A', '1', '-B', '1', '-C', '1',\n"
        "              '--backend', 'resolution'],\n"
        "             ['analyze', '-A', '-10', '-B', '49', '-C', '36',\n"
        "              '--backend', 'standard'],\n"
        "             ['scan', '--json']):\n"
        "    assert cli.main(argv, out=io.StringIO()) == 0, argv\n"
        "print(sorted(m for m in ('dp2.local.hilbert', 'dp2.fiveterm')\n"
        "             if m in sys.modules))\n"
        "from dp2.cohomology import five_term_with_d2\n"
        "print(five_term_with_d2.__module__)\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]", "dp2.fiveterm"]


def test_scan_loads_neither_fractions_nor_arith():
    # scan reads no rational and tests no prime, and import dp2.cli loads
    # neither: the subcommands that read them import them
    script = (
        "import io, sys\n"
        "names = ('fractions', 'dp2.arith')\n"
        "import dp2.cli as cli\n"
        "print(sorted(m for m in names if m in sys.modules))\n"
        "assert cli.main(['scan', '--json'], out=io.StringIO()) == 0\n"
        "print(sorted(m for m in names if m in sys.modules))\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]", "[]"]


def test_analyze_loads_neither_fractions_nor_decimal():
    # Kummer exponents are integer counts of quarters and q a pair of
    # ints, so no backend of analyze imports fractions (nor the decimal
    # module that fractions imports); the standard backend exits 4 above
    # order 32
    script = (
        "import io, sys\n"
        "import dp2.cli as cli\n"
        "for a, b, c in ((-5, -5, -14), (-16, -35, 29), (-13, -6, 23),\n"
        "                (1, 1, 1), (-10, 49, 36)):\n"
        "    for backend in ('presentation', 'standard', 'resolution',\n"
        "                    'all'):\n"
        "        argv = ['analyze', '-A', str(a), '-B', str(b), '-C', str(c),\n"
        "                '--backend', backend, '--json']\n"
        "        code = cli.main(argv, out=io.StringIO(), err=io.StringIO())\n"
        "        assert code in (0, 4), argv\n"
        "print(sorted(m for m in ('fractions', 'decimal', '_decimal',\n"
        "                         '_pydecimal') if m in sys.modules))\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_sympy_imported_at_top_level_only_where_it_belongs():
    # nowhere: sympy is a test-only oracle
    root = pathlib.Path(__file__).resolve().parents[1] / "src" / "dp2"
    allowed = set()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text())
        for module, level in _imports(tree, on_import_only=True):
            if level == 0 and module.split(".")[0] == "sympy":
                assert rel in allowed, (rel, module)
        if rel == "local/poly.py":
            for module, level in _imports(tree, on_import_only=False):
                assert level == 0 and module.split(".")[0] \
                    in sys.stdlib_module_names, module


def test_no_dp2_module_imports_dataclasses():
    root = pathlib.Path(__file__).resolve().parents[1] / "src" / "dp2"
    for path in sorted(root.rglob("*.py")):
        for module, level in _imports(ast.parse(path.read_text()),
                                      on_import_only=False):
            assert (level, module.split(".")[0]) != (0, "dataclasses"), path


def test_trace_layer_names_resolve():
    # the benchmark's trace child wraps each LAYERS name with a getattr
    # that has no default, so a deleted function breaks every traced run
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / \
        "trace_child.py"
    tree = ast.parse(path.read_text())
    (layers,) = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["LAYERS"]]
    for modname, names in layers.items():
        module = importlib.import_module(modname)
        for name in names:
            assert callable(getattr(module, name, None)), (modname, name)


def _module_env(**extra) -> dict:
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), COLUMNS="80")
    env.pop("PYTHONUNBUFFERED", None)
    env.update(extra)
    return env


@pytest.mark.parametrize("argv", [
    ["analyze", "-A", "-6", "-B", "-3", "-C", "2"],
    ["analyze", "-A", "-5", "-B", "-5", "-C", "-14", "--backend", "all",
     "--json"],
    ["scan", "--json"],
    ["hilbert", "-A", "3", "-B", "5"],
    ["obstruct", "-A", "0", "-B", "0", "-C", "5"],
    ["analyze", "-A", "x"],
    ["--help"],
], ids=["analyze", "analyze-json", "scan-json", "hilbert", "zero-coeff",
        "argparse-error", "help"])
def test_module_exit_path_matches_main(argv, capsys, monkeypatch):
    # `python -m dp2.cli` runs main() through run(), which flushes and
    # ends with os._exit: the same stdout, stderr and exit code as main()
    # in process
    monkeypatch.setenv("COLUMNS", "80")
    code = cli.main(argv)
    want = capsys.readouterr()
    done = subprocess.run([sys.executable, "-m", "dp2.cli", *argv],
                          env=_module_env(), capture_output=True, text=True,
                          timeout=600)
    assert (done.returncode, done.stdout, done.stderr) \
        == (code, want.out, want.err)
    assert code in (0, 2)


def test_run_falls_back_to_sys_exit_when_a_flush_fails(monkeypatch):
    # a stdout whose flush raises takes sys.exit(code), not os._exit;
    # an exception out of main() propagates as it did under
    # sys.exit(main()), for a traceback and exit 1
    class FailingFlush(io.StringIO):
        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    def no_os_exit(code):
        raise AssertionError(f"os._exit({code}) after a failed flush")

    monkeypatch.setattr(sys, "argv", ["dp2", "hilbert", "-A", "3", "-B", "5"])
    monkeypatch.setattr(sys, "stdout", FailingFlush())
    monkeypatch.setattr(os, "_exit", no_os_exit)
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == cli.EXIT_OK

    def failing_main():
        raise RuntimeError("uncaught")

    monkeypatch.setattr(cli, "main", failing_main)
    with pytest.raises(RuntimeError, match="uncaught"):
        cli.run()


def test_closed_pipe_exits_as_sys_exit_main_did():
    # stdout is a pipe whose reader has gone: the flush in run() fails,
    # and the process ends with the code and stderr of sys.exit(main())
    argv = ["hilbert", "-A", "3", "-B", "5"]
    results = []
    for head in (["-m", "dp2.cli"],
                 ["-c", "import sys; from dp2.cli import main; "
                        "sys.exit(main())"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, *head, *argv],
                                  stdout=write_end, stderr=subprocess.PIPE,
                                  env=_module_env(), text=True, timeout=600)
        finally:
            os.close(write_end)
        results.append((done.returncode, done.stderr))
    assert results[0] == results[1]
    assert results[0][0] not in (0, 1)
    assert "BrokenPipeError" in results[0][1]
