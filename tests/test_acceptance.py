"""The acceptance suite: one test per exit criterion, each printing its
PASS/FAIL line.  Criteria 7 and 8 need the reference database over all
odd primes up to 750 (built once and cached by the session fixture)."""

from quadpcf import acceptance


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {name}: {detail}")
    assert ok, detail


def test_criterion_1_classification_reproduction():
    ok, detail = acceptance.criterion_1()
    _report("1 classification reproduction", ok, detail)


def test_criterion_2_sub_bound_consistency():
    ok, detail = acceptance.criterion_2()
    _report("2 sub-bound consistency", ok, detail)


def test_criterion_3_portrait_fidelity():
    ok, detail = acceptance.criterion_3()
    _report("3 portrait fidelity", ok, detail)


def test_criterion_4_preperiodic_graphs():
    ok, detail = acceptance.criterion_4()
    _report("4 preperiodic graphs", ok, detail)


def test_criterion_5_symmetry_locus():
    ok, detail = acceptance.criterion_5()
    _report("5 symmetry locus", ok, detail)


def test_criterion_6_root_of_unity_catalogs():
    ok, detail = acceptance.criterion_6()
    _report("6 root-of-unity catalogs", ok, detail)


def test_criterion_7_local_global_suite(full_db):
    ok, detail = acceptance.criterion_7(full_db)
    _report("7 local-global property suite", ok, detail)


def test_criterion_8_oracle_equivalence(full_db):
    ok, detail = acceptance.criterion_8(full_db)
    _report("8 oracle equivalence at micro-scale", ok, detail)


def test_criterion_1_through_the_cli(tmp_path):
    """The pipeline subcommand itself reproduces the classification."""
    from quadpcf.cli import main
    outdir = tmp_path / "run"
    rc = main(["pipeline", "--h1", "10", "--h2", "20", "--primes", "130",
               "--outdir", str(outdir)])
    assert rc == 0
    lines = [l.split("\t") for l in (outdir / "verified.tsv").read_text().splitlines()
             if l and not l.startswith("#")]
    got = {(c[0], c[1]) for c in lines}
    want = {(str(s1), str(s2)) for s1, s2 in acceptance.TEN_SIGMA_PAIRS}
    assert got == want
    assert all(c[3] == "VERIFIED_PCF" for c in lines)
