"""Mutation gate: each hand-made fault in the package must fail its tests.

    python tools/mutation_gate.py

A mutant names a file under src/quadpcf, an exact old text, the new text
that replaces it, and the test ids that must fail.  For each mutant the
script copies src/, tests/, pyproject.toml and perfbench/expected.json into
a fresh temporary directory, applies the one edit there and runs only the
named tests, so the checkout and its .hypothesis database are never
touched.  Hypothesis runs under the "mutation" profile of
tests/conftest.py, which reports a failing example without shrinking it.
The named tests first run once on an unmutated copy and must pass there;
that copy also shows, once per run, that the tests import the package
from the copy and not from an installed one.  The gate reads only the
FAILED lines, so pytest runs with --assert=plain: without a bytecode
cache it would otherwise rewrite the asserts of the test and plugin
modules in every process.

The gate fails when a mutant survives (a named test passes), when a
mutant is stale (its old text does not occur exactly once) or when a
named test is not collected.  It prints mutants killed out of mutants and
its wall time, and exits 0 only when every mutant is killed.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str                 # relative to src/quadpcf
    old: str
    new: str
    tests: Tuple[str, ...]


MUTANTS = (
    Mutant(
        "the walk maps a fixed infinity to 0",
        "ffdyn.py",
        "inf_img = f2 * inv[g2] % p if g2 else p",
        "inf_img = f2 * inv[g2] % p if g2 else 0",
        ("tests/test_sievedb.py::TestPeriodEntries::test_forms_equal_scalar_oracle",
         "tests/test_ffdyn.py::TestPeriodRuleAtThree::test_rational_cycles_of_z2_plus_c"),
    ),
    Mutant(
        "preperiodic search cuts off at the size bound itself",
        "preper.py",
        "orbit(step, start, fate, step_budget, _pair_size, size_cutoff)",
        "orbit(step, start, fate, step_budget, _pair_size, size_cutoff - 1)",
        ("tests/test_preper.py::TestRationalPreperiodicGraph::test_equals_fraction_reference",),
    ),
    Mutant(
        "the exact walk's first-step exit drops its image, whose fate is then forgotten",
        "preper.py",
        "        return [start, nxt], CUTOFF\n",
        "        return [start], CUTOFF\n",
        ("tests/test_preper.py::TestRationalPreperiodicGraph::test_equals_fraction_reference",
         "tests/test_preper.py::TestRationalPreperiodicGraph::"
         "test_first_step_exit_below_the_height_bound[image-fate-recorded]"),
    ),
    Mutant(
        "the exact walk's first-step exit tests the cutoff before the image's fate and a repeat",
        "preper.py",
        "    if nxt in known or nxt == start:\n"
        "        return [start, nxt], REPEAT\n"
        "    if size(nxt) > cutoff:\n"
        "        return [start, nxt], CUTOFF\n",
        "    if size(nxt) > cutoff:\n"
        "        return [start, nxt], CUTOFF\n"
        "    if nxt in known or nxt == start:\n"
        "        return [start, nxt], REPEAT\n",
        ("tests/test_preper.py::TestRationalPreperiodicGraph::test_equals_fraction_reference",
         "tests/test_preper.py::TestRationalPreperiodicGraph::"
         "test_first_step_exit_below_the_height_bound[repeat-tested]",
         "tests/test_pcfverify.py::TestRepeatBeforeCutoff::"
         "test_repeat_past_the_cutoff_verifies[fixed]"),
    ),
    Mutant(
        "the exact walk tests the cutoff before the repeat after the first image",
        "preper.py",
        "        if nxt in known or nxt in seen:\n"
        "            return path, REPEAT\n"
        "        if size(nxt) > cutoff:\n"
        "            return path, CUTOFF\n",
        "        if size(nxt) > cutoff:\n"
        "            return path, CUTOFF\n"
        "        if nxt in known or nxt in seen:\n"
        "            return path, REPEAT\n",
        ("tests/test_pcfverify.py::TestRepeatBeforeCutoff::"
         "test_repeat_past_the_cutoff_verifies[two-cycle]",
         "tests/test_preper.py::TestOrbit::test_ends[repeat-past-the-cutoff]"),
    ),
    Mutant(
        "integer step drops its sign fix",
        "projmap.py",
        "        if v < 0:\n            u, v = -u, -v\n",
        "",
        ("tests/test_projmap.py::TestApply::test_integer_step_equals_fraction_oracle",),
    ),
    Mutant(
        "quadratic step's norm adds D * v1^2",
        "projmap.py",
        "n = v0 * v0 - D * v1 * v1",
        "n = v0 * v0 + D * v1 * v1",
        ("tests/test_projmap.py::TestApply::test_quadratic_step_equals_surd_oracle",),
    ),
    Mutant(
        "one coefficient of the sigma2 numerator changed",
        "projmap.py",
        "12 * f0 * g2 * g2",
        "11 * f0 * g2 * g2",
        ("tests/test_projmap.py::TestSigmaInvariants::test_equals_oracle_multipliers",
         "tests/test_projmap.py::TestSigmaInvariants::test_round_trip_on_the_ten"),
    ),
    Mutant(
        "period rule drops m * r",
        "ffdyn.py",
        "    return frozenset((m, m * r))\n",
        "    return frozenset((m,))\n",
        ("tests/test_ffdyn.py::TestPossiblePeriods::test_general",
         "tests/test_sievedb.py::TestPeriodEntries::test_every_key_of_small_primes"),
    ),
    Mutant(
        "period rule drops the p = 3 branch",
        "ffdyn.py",
        "    if p == 3:\n",
        "    if False:\n",
        ("tests/test_ffdyn.py::TestPossiblePeriods::test_p3",
         "tests/test_ffdyn.py::TestPeriodRuleAtThree::test_counterexample",
         "tests/test_ffdyn.py::TestPeriodRuleAtThree::test_rational_cycles_of_z2_plus_c",
         "tests/test_sievedb.py::TestPeriodEntries::test_p3_counterexample"),
    ),
    Mutant(
        "the walk's chart at infinity drops the sign of -1 / g2^2",
        "ffdyn.py",
        "(-inv[g2] ** 2 if g2",
        "(inv[g2] ** 2 if g2",
        ("tests/test_sievedb.py::TestPeriodEntries::test_every_key_of_small_primes",
         "tests/test_sievedb.py::TestPeriodEntries::test_forms_equal_scalar_oracle",
         "tests/test_ffdyn.py::TestFpMap::test_conjugation_invariance"),
    ),
    Mutant(
        "the walk's derivative at a pole drops its sign",
        "ffdyn.py",
        "lam = -lam * w * inv[",
        "lam = lam * w * inv[",
        ("tests/test_sievedb.py::TestPeriodEntries::test_every_key_of_small_primes",
         "tests/test_sievedb.py::TestPeriodEntries::test_forms_equal_scalar_oracle",
         "tests/test_ffdyn.py::TestFpMap::test_conjugation_invariance"),
    ),
    Mutant(
        "a bad denominator read as a residue",
        "ffdyn.py",
        "    return x * inv[y] % p if y else p\n",
        "    return x * inv[y] % p\n",
        ("tests/test_ffdyn.py::test_point_mod_p_equals_fraction_oracle",
         "tests/test_sievedb.py::TestReductionHelpers::test_reduce_rational_point",
         "tests/test_sievedb.py::TestSieve::test_equals_reference_sieve",
         "tests/test_sievedb.py::TestSieve::test_equals_reference_on_a_larger_box"),
    ),
    Mutant(
        "the rational critical points drop their sign fix",
        "ffdyn.py",
        "g = gcd(x, y) if y >= 0 else -gcd(x, y)",
        "g = gcd(x, y)",
        ("tests/test_projmap.py::TestCriticalPoints::test_rational_points_equal_fraction_roots",
         "tests/test_projmap.py::TestConjugation::test_critical_points_transform"),
    ),
    Mutant(
        "a filter kill accepted without an irrationality proof",
        "lanesieve.py",
        "        dead &= ~proved\n",
        "        dead = 0\n",
        ("tests/test_sievedb.py::TestSieve::test_many_rational_survivors",),
    ),
    Mutant(
        "the second critical point always given the first one's set",
        "ffdyn.py",
        "    return z1, z2, s1, s2, s1 if s1 is s2 else s1 & s2",
        "    return z1, z2, s1, s1, s1",
        ("tests/test_sievedb.py::TestPeriodEntries::test_every_key_of_small_primes",
         "tests/test_ffdyn.py::TestPeriodRuleAtThree::test_counterexample"),
    ),
    Mutant(
        "a table row indexed (x2, x1)",
        "ffdyn.py",
        "        x1, x2 = divmod(k, p)",
        "        x2, x1 = divmod(k, p)",
        ("tests/test_sievedb.py::TestBuild::test_equals_scalar_database",
         "tests/test_sievedb.py::TestSieve::test_residue_goodness_equals_resultant"),
    ),
    Mutant(
        "a family key read at the residues (2 - b, c - b)",
        "ffdyn.py",
        "(b - c) % p]",
        "(c - b) % p]",
        ("tests/test_sievedb.py::TestBuild::test_equals_scalar_database",
         "tests/test_sievedb.py::TestPeriodEntries::test_random_keys_equal_lookup[7]"),
    ),
    Mutant(
        "the exact pass skips its last prime",
        "lanesieve.py",
        "    for p, inv, entries in steps:",
        "    for p, inv, entries in steps[:-1]:",
        ("tests/test_sievedb.py::TestSieve::test_equals_reference_on_a_larger_box",
         "tests/test_sievedb.py::TestSieve::test_equals_reference_on_random_boxes"),
    ),
    Mutant(
        "the trusted constructor gets forms with their content",
        "projmap.py",
        "    g = gcd(d1, d2)\n",
        "    g = 1\n",
        ("tests/test_sievedb.py::TestSieve::test_trusted_constructor_equals_normalizing",
         "tests/test_sievedb.py::TestSieve::test_integer_forms_equal_milnor_over_fractions"),
    ),
    Mutant(
        "verifier claims PCF when its budget runs out",
        "pcfverify.py",
        '            return PcfStatus(False, None, iterations, max_size,\n'
        '                             reason=f"budget',
        '            return PcfStatus(True, None, iterations, max_size,\n'
        '                             reason=f"budget',
        ("tests/test_pcfverify.py::TestUndetermined::test_budget_boundary",),
    ),
    Mutant(
        "normal form drops a cross-denominator factor",
        "projmap.py",
        "family_bc(n1 * d2, n2 * d1, dd)",
        "family_bc(n1, n2 * d1, dd)",
        ("tests/test_projmap.py::TestSigmaInvariants::test_round_trip",
         "tests/test_projmap.py::TestFromSigmas::test_fractional_pair"),
    ),
    Mutant(
        "twist of z^2 drops the 2 on b's numerator",
        "preper.py",
        "(b.den, 0, 2 * b.num)",
        "(b.den, 0, b.num)",
        ("tests/test_projmap.py::TestSigmaInvariants::test_twists_have_the_power_map_sigmas",
         "tests/test_preper.py::TestSqTwists::test_map_construction"),
    ),
    Mutant(
        "complex critical points come back without points",
        "projmap.py",
        "        if not need_points:\n",
        "        if not need_points or w1 * w1 < 4 * w2 * w0:\n",
        ("tests/test_projmap.py::TestCriticalPoints::test_complex_pair",
         "tests/test_cli.py::TestVerify::test_complex_critical_points",
         "tests/test_cli.py::TestPipeline::test_every_survivor_reaches_the_verifier"),
    ),
    Mutant(
        "the config digest drops the verifier's cutoff",
        "cli.py",
        " cutoff=pcfverify.DEFAULT_SIZE_CUTOFF,",
        "",
        ("tests/test_cli.py::TestConfig::test_digest_equals_hashlib",
         "tests/test_cli.py::TestConfig::test_digest_stability"),
    ),
    Mutant(
        "--primes is checked but never reaches the prime list",
        "cli.py",
        '        given["prime_list"] = first_odd_primes(args.primes)\n',
        "",
        ("tests/test_cli.py::TestConfig::test_every_run_flag_reaches_its_field",),
    ),
    Mutant(
        "--prime-list silently overrides --primes",
        "cli.py",
        "    if args.primes is not None and args.prime_list is not None:\n",
        "    if False:\n",
        ("tests/test_cli.py::TestConfig::test_run_flags_name_themselves[both-prime-flags]",),
    ),
    Mutant(
        "the verdict renderer calls an unverified status VERIFIED_PCF",
        "cli.py",
        '    return "UNDETERMINED", st.reason\n',
        '    return "VERIFIED_PCF", st.reason\n',
        ("tests/test_cli.py::TestVerify::test_undetermined_exit",
         "tests/test_cli.py::TestPipeline::test_paper_box_with_few_primes"),
    ),
    Mutant(
        "the text reader drops the source from its message",
        "cli.py",
        'return f"{source}: {text.strip() or repr(text)} is not {what}"',
        'return f"{text.strip() or repr(text)} is not {what}"',
        ("tests/test_cli.py::TestInput::test_malformed_text_names_its_source[one-sigma]",
         "tests/test_cli.py::TestInput::test_malformed_text_names_its_source[letter-in-map]",
         "tests/test_cli.py::TestInput::test_malformed_text_names_its_source[letter-in-primes]"),
    ),
    Mutant(
        "the root-of-unity points sort as (kind, exp, order)",
        "preper.py",
        "    kind: str\n    order: int = 0\n    exp: int = 0\n",
        "    kind: str\n    exp: int = 0\n    order: int = 0\n",
        ("tests/test_cli.py::TestFrozenBytes::test_catalog_json",),
    ),
    Mutant(
        "the 1/z^2 classifier returns a class without comparing canonical forms",
        "preper.py",
        "        if cls.graph.canonical_form() == form:\n",
        "        if cls.graph:\n",
        ("tests/test_preper.py::TestInvsqTwists::test_input_forms",
         "tests/test_acceptance.py::test_criterion_5_symmetry_locus"),
    ),
    Mutant(
        "the structure pass puts a cycle vertex at depth 1",
        "preper.py",
        "                    place[v] = (cyc, 0)\n",
        "                    place[v] = (cyc, 1)\n",
        ("tests/test_preper.py::TestFunctionalGraph::test_cycles_and_types",
         "tests/test_preper.py::TestStructurePass::test_equals_plain_loops"),
    ),
    Mutant(
        "components are grouped by depth instead of by cycle",
        "preper.py",
        "groups.setdefault(place[v][0], {})[v] = w",
        "groups.setdefault(place[v][1], {})[v] = w",
        ("tests/test_preper.py::TestFunctionalGraph::test_components",
         "tests/test_preper.py::TestStructurePass::test_equals_plain_loops",
         "tests/test_cli.py::TestFrozenBytes::test_catalog_json"),
    ),
    Mutant(
        "verify prints its header before it builds the maps",
        "cli.py",
        'def _cmd_verify(args) -> int:\n',
        'def _cmd_verify(args) -> int:\n'
        '    print("# exact-iteration budget and size cutoff (artifact parameters)")\n',
        ("tests/test_cli.py::TestInput::test_malformed_text_names_its_source"
         "[infinite-sigma-after-a-valid-pair]",),
    ),
    Mutant(
        "classify-twist classifies the map outside the reader, so its error names no flag",
        "cli.py",
        "cls = _input_map(args, preper.classify_psi2_map)",
        "cls = preper.classify_psi2_map(_input_map(args))",
        ("tests/test_cli.py::TestInput::test_malformed_text_names_its_source"
         "[map-not-conjugate-to-classify]",),
    ),
    Mutant(
        "the preperiodic height bound may exceed the search's size cutoff",
        "cli.py",
        "if not 1 <= bound <= preper.DEFAULT_SIZE_CUTOFF:",
        "if not 1 <= bound:",
        ("tests/test_cli.py::TestConfig::test_preper_height_bound_names_its_flag[10001]",
         "tests/test_cli.py::TestConfig::test_bounds_are_usage_errors[argv1]",
         "tests/test_cli.py::TestConfig::test_bounds"),
    ),
    Mutant(
        "a --prime-list validation error drops the flag from its message",
        "cli.py",
        'raise ValueError(f"--prime-list: {e}") from None',
        "raise ValueError(str(e)) from None",
        ("tests/test_cli.py::TestConfig::test_run_flags_name_themselves[repeated-prime]",
         "tests/test_cli.py::TestConfig::test_run_flags_name_themselves[composite]",
         "tests/test_cli.py::TestConfig::test_bounds"),
    ),
    Mutant(
        "portrait writes its DOT file after it prints the portrait",
        "cli.py",
        '    _write_dot(args.dot, st.portrait, "portrait")\n'
        "    for line in st.portrait.edge_lines():\n"
        "        print(line)\n",
        "    for line in st.portrait.edge_lines():\n"
        "        print(line)\n"
        '    _write_dot(args.dot, st.portrait, "portrait")\n',
        ("tests/test_cli.py::TestInput::test_failed_write_names_its_flag[portrait]",),
    ),
    Mutant(
        "a square cofactor above the trial-division range stays in D",
        "exact_arith.py",
        "    s, d = (r, 1) if r * r == m else (1, m)\n",
        "    s, d = (r, 1) if r * r == m < 1000 ** 2 else (1, m)\n",
        ("tests/test_exact_arith.py::test_squarefree_part_with_large_factors",),
    ),
)


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", "*.egg-info")
    shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=ignore)
    # the frozen catalog bytes that tests/test_cli.py compares with
    (dest / "perfbench").mkdir()
    shutil.copy2(ROOT / "perfbench" / "expected.json", dest / "perfbench" / "expected.json")
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _env(work: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")


def _run_tests(work: Path, tests: Tuple[str, ...]) -> Tuple[int, set, str]:
    """Run pytest on the copy; exit code, failed test ids and the output."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
         "--assert=plain", "--hypothesis-profile=mutation", *tests],
        cwd=work, env=_env(work), capture_output=True, text=True)
    failed = set(re.findall(r"^FAILED (\S+)", proc.stdout, flags=re.MULTILINE))
    return proc.returncode, failed, proc.stdout + proc.stderr


def _check_mutant(m: Mutant) -> str:
    """Empty when the mutant is killed, else why it is not."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        _copy_tree(work)
        target = work / "src" / "quadpcf" / m.path
        text = target.read_text()
        count = text.count(m.old)
        if count != 1:
            return f"stale: the old text occurs {count} times in {m.path}"
        target.write_text(text.replace(m.old, m.new))
        code, failed, out = _run_tests(work, m.tests)
        if code not in (0, 1):
            return f"pytest exit code {code}:\n{out[-2000:]}"
        survived = [t for t in m.tests if t not in failed]
        if survived:
            return "survived: " + ", ".join(survived)
        return ""


def main() -> int:
    start = time.perf_counter()
    all_tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    with tempfile.TemporaryDirectory(prefix="mutant-base-") as tmp:
        work = Path(tmp)
        _copy_tree(work)
        # every copy is laid out alike, so one check covers them all
        found = subprocess.run(
            [sys.executable, "-c", "import quadpcf; print(quadpcf.__file__)"],
            cwd=work, env=_env(work), capture_output=True, text=True, check=True).stdout
        if not Path(found.strip()).is_relative_to(work):
            raise RuntimeError(f"tests would import the package from {found.strip()}")
        code, _, out = _run_tests(work, all_tests)
    if code != 0:
        print(f"the named tests do not pass on the unmutated code:\n{out[-3000:]}")
        return 1
    killed = 0
    for m in MUTANTS:
        t0 = time.perf_counter()
        problem = _check_mutant(m)
        verdict = "killed" if not problem else problem
        print(f"{m.name}: {verdict} ({time.perf_counter() - t0:.1f} s)")
        killed += not problem
    wall = time.perf_counter() - start
    print(f"{killed}/{len(MUTANTS)} mutants killed in {wall:.1f} s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
