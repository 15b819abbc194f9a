import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadpcf import cli, exact_arith, lanesieve
from quadpcf.cli import (
    EXIT_OK,
    EXIT_USAGE,
    TEN_SIGMA_PAIRS,
    RunConfig,
    main,
)
from quadpcf.exact_arith import first_odd_primes, height
from quadpcf.ffdyn import LANE_PRIME_LIMIT


def _records(path):
    return [l.split("\t") for l in path.read_text().splitlines()
            if l and not l.startswith("#")]


# at (10, 20) with 20 primes: the survivors with irrational critical points,
# real quadratic for seven of them, and the orbit size at which the verifier
# gives up on each.  (-6/5, -5/13) keeps the set {6} from two evidence
# primes, 6 = 3 * m * r coming from the period rule at p = 3
IRRATIONAL_SURVIVOR_SIZES = {
    ("-6/5", "-5/13"): 1613202032,
    ("6", "18/13"): 3588083,
    ("-7", "-3/11"): 177562671,
    ("-7/6", "19/15"): 289168647,
    ("8/3", "11/18"): 18539975,
    ("2/9", "9/7"): 9793816816,
    ("10/9", "7/12"): 104844896,
    ("10/9", "-9/14"): 1343807,
    ("10/9", "-19/9"): 3893133,
}


class TestSieve:
    def test_stdout_and_file_agree(self, tmp_path, capsys):
        rc = main(["sieve", "--h1", "2", "--h2", "2",
                   "--prime-list", "3,5,7,11,13"])
        assert rc == EXIT_OK
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if l and not l.startswith("#")]
        out = tmp_path / "s.tsv"
        rc = main(["sieve", "--h1", "2", "--h2", "2",
                   "--prime-list", "3,5,7,11,13", "--out", str(out)])
        assert rc == EXIT_OK
        file_lines = [l for l in out.read_text().splitlines()
                      if l and not l.startswith("#")]
        assert lines == file_lines


class TestPipeline:
    def test_artifacts_and_digest(self, tmp_path, capsys):
        outdir = tmp_path / "run"
        rc = main(["pipeline", "--h1", "2", "--h2", "2",
                   "--prime-list", "3,5,7,11,13",
                   "--outdir", str(outdir)])
        assert rc == EXIT_OK
        surv = (outdir / "survivors.tsv").read_text()
        verified = (outdir / "verified.tsv").read_text()
        summary = json.loads((outdir / "summary.json").read_text())
        digest = summary["config_digest"]
        assert f"# config-digest: {digest}" in surv
        assert f"# config-digest: {digest}" in verified
        assert summary["verified_count"] + summary["undetermined_count"] == \
            len(summary["survivors"])

    def test_prime_order_does_not_change_the_artifacts(self, tmp_path, capsys):
        # the sieve sorts its primes; only the config digest, which keeps
        # the list as given, tells the two runs apart
        primes = [13, 3, 29, 7, 19, 5, 11]
        runs = []
        for order in (primes, sorted(primes)):
            outdir = tmp_path / ",".join(map(str, order))
            assert main(["pipeline", "--h1", "3", "--h2", "6", "--prime-list",
                         ",".join(map(str, order)), "--outdir", str(outdir)]) == EXIT_OK
            runs.append(([line for name in ("survivors.tsv", "verified.tsv")
                          for line in (outdir / name).read_text().splitlines()
                          if not line.startswith("# config-digest:")],
                         json.loads((outdir / "summary.json").read_text())["survivors"]))
        assert runs[0] == runs[1]
        assert len(runs[0][1]) > 10

    def test_paper_box_with_few_primes(self, tmp_path, capsys):
        # 20 primes leave irrational-critical survivors beside the ten maps;
        # the verifier lists them as UNDETERMINED and the run still succeeds
        outdir = tmp_path / "run"
        rc = main(["pipeline", "--h1", "10", "--h2", "20", "--primes", "20",
                   "--outdir", str(outdir)])
        assert rc == EXIT_OK
        verified = {(c[0], c[1]): c[3] for c in _records(outdir / "verified.tsv")}
        pcf = {(str(s1), str(s2)) for s1, s2 in TEN_SIGMA_PAIRS}
        assert {k for k, v in verified.items() if v == "VERIFIED_PCF"} == pcf
        # the other survivors' orbits in Q(sqrt(D)), and the sizes
        # they reach before the cutoff stops them
        reasons = {(c[0], c[1]): c[4] for c in _records(outdir / "verified.tsv")
                   if c[3] == "UNDETERMINED"}
        assert reasons == {
            pair: f"orbit size {size} exceeded cutoff 1000000"
            for pair, size in IRRATIONAL_SURVIVOR_SIZES.items()}
        summary = json.loads((outdir / "summary.json").read_text())
        assert (summary["verified_count"], summary["undetermined_count"]) == (10, 9)
        assert len(_records(outdir / "survivors.tsv")) == 19

    @given(h1=st.integers(1, 3), h2=st.integers(1, 3),
           primes=st.sets(st.sampled_from(first_odd_primes(12)), min_size=1))
    @example(h1=3, h2=3, primes={3})
    @settings(max_examples=20, deadline=None)
    def test_every_survivor_reaches_the_verifier(self, h1, h2, primes):
        # few primes let maps with complex critical points survive; each
        # survivor must reach the verifier and appear in all three artifacts
        with tempfile.TemporaryDirectory() as tmp:
            outdir = Path(tmp)
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main(["pipeline", "--h1", str(h1), "--h2", str(h2),
                           "--prime-list", ",".join(map(str, sorted(primes))),
                           "--outdir", str(outdir)])
            assert rc == EXIT_OK
            survivors = _records(outdir / "survivors.tsv")
            status = {(c[0], c[1]): c[3] for c in _records(outdir / "verified.tsv")}
            summary = json.loads((outdir / "summary.json").read_text())
        assert len(status) == len(survivors) == len(summary["survivors"])
        assert summary["verified_count"] + summary["undetermined_count"] == \
            len(survivors)
        for s1, s2 in TEN_SIGMA_PAIRS:
            if height(s1) <= h1 and height(s2) <= h2:
                assert status[(str(s1), str(s2))] == "VERIFIED_PCF"

    def test_pipeline_leaves_only_its_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["pipeline", "--h1", "1", "--h2", "1",
                   "--prime-list", "3,5", "--outdir", "out"])
        assert rc == EXIT_OK
        assert sorted(str(f.relative_to(tmp_path)) for f in tmp_path.rglob("*")) == [
            "out", "out/summary.json", "out/survivors.tsv", "out/verified.tsv"]

    def test_composite_prime_list_rejected(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        rc = main(["pipeline", "--h1", "1", "--h2", "1",
                   "--prime-list", "3,9,15,25", "--outdir", str(outdir)])
        assert rc == EXIT_USAGE
        assert "need odd primes, got 9" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("primes, error", [
        (["--prime-list", "3,2053"], "prime 2053 is too large for the sieve (limit 2048)"),
        (["--primes", "309"], "primes_count 309 is too large"),
        (["--primes", "308", "--prime-list", "3,9"], "need odd primes, got 9")])
    def test_primes_beyond_the_bound_rejected(self, tmp_path, capsys, primes, error):
        # the sieve takes the 308 odd primes below 2^11, and nothing else
        outdir = tmp_path / "out"
        rc = main(["pipeline", "--h1", "1", "--h2", "1", *primes, "--outdir", str(outdir)])
        assert rc == EXIT_USAGE
        assert error in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("primes", [["--primes", "-5"], ["--primes", "0"],
                                        ["--prime-list", ","], ["--prime-list", ""]])
    def test_no_primes_rejected(self, tmp_path, capsys, primes):
        # without a prime every pair would survive unconstrained
        outdir = tmp_path / "out"
        rc = main(["pipeline", "--h1", "1", "--h2", "1", *primes,
                   "--outdir", str(outdir)])
        assert rc == EXIT_USAGE
        assert "invalid-input" in capsys.readouterr().err
        assert not outdir.exists()


class TestVerify:
    def test_sigmas(self, capsys):
        rc = main(["verify", "--sigmas", "2,-8;-6,8"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("VERIFIED_PCF") == 2
        assert "0 ->(2) 0" in out

    def test_reads_sieve_output(self, tmp_path, capsys):
        # five small primes let some non-PCF pairs through; the verifier
        # must certify the genuine ones and report the rest undetermined
        out = tmp_path / "surv.tsv"
        assert main(["sieve", "--h1", "2", "--h2", "4",
                     "--prime-list", "3,5,7,11,13", "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        rc = main(["verify", "--in", str(out)])
        assert rc in (EXIT_OK, 1)
        text = capsys.readouterr().out
        assert "(2,-4)\tVERIFIED_PCF" in text
        assert "(-2,2)\tVERIFIED_PCF" in text

    def test_undetermined_exit(self, capsys):
        rc = main(["verify", "--sigmas", "2,-12"])
        assert rc != EXIT_OK
        assert "UNDETERMINED" in capsys.readouterr().out

    def test_unfactorable_discriminant(self, capsys, monkeypatch):
        # the wronskian discriminant of this pair,
        # 4814988813760728630044503936230148203481, defeats Pollard's rho;
        # a small step budget gets there fast.  The input is valid, so the
        # map is UNDETERMINED, not an input error
        monkeypatch.setattr(exact_arith, "_RHO_STEPS", 64)
        rc = main(["verify", "--sigmas", "250412573173/888599,682777914928/66173"])
        assert rc == 1
        assert "UNDETERMINED\tcannot factor the wronskian discriminant" in \
            capsys.readouterr().out

    def test_complex_critical_points(self, capsys):
        # the critical points of (3, 5/6) are a conjugate pair in an
        # imaginary quadratic field; their orbits grow past the cutoff
        rc = main(["verify", "--sigmas", "3,5/6;2,-8"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "(3,5/6)\tUNDETERMINED\torbit size" in out
        assert "(2,-8)\tVERIFIED_PCF" in out


class TestPortrait:
    def test_by_sigmas(self, capsys, tmp_path):
        dot = tmp_path / "p.dot"
        rc = main(["portrait", "--sigmas", "2,-8", "--dot", str(dot)])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "-4 ->(2) -4/3" in out
        assert dot.read_text().startswith("digraph")

    def test_by_map(self, capsys):
        rc = main(["portrait", "--map", "[1,0,0]/[0,0,1]"])
        assert rc == EXIT_OK
        assert "inf ->(2) inf" in capsys.readouterr().out


class TestPreper:
    def test_z2_minus_2(self, capsys):
        rc = main(["preper", "--map", "[1,0,-2]/[0,0,1]"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "# 6 rational preperiodic points" in out
        assert "0 -> -2" in out


class TestClassifyTwist:
    def test_psi1(self, capsys):
        # values starting with "-" use the = form, as argparse requires
        rc = main(["classify-twist", "--psi1-b=-3/2"])
        assert rc == EXIT_OK
        assert capsys.readouterr().out.startswith("sq-2cycle")

    def test_psi1_beyond_factorization(self, capsys):
        # (10^18 + 3)(10^18 + 9): a square-class test needs no factorization
        rc = main(["classify-twist", "--psi1-b=1000000000000000012000000000000000027"])
        assert rc == EXIT_OK
        assert capsys.readouterr().out.startswith("sq-generic")

    def test_psi2_map(self, capsys):
        rc = main(["classify-twist", "--map", "[0,2,-1]/[1,0,-1]"])
        assert rc == EXIT_OK
        assert capsys.readouterr().out.startswith("invsq-3cycle")

    def test_psi2_dk(self, capsys):
        rc = main(["classify-twist", "--psi2-dk", "2,1"])
        assert rc == EXIT_OK
        assert capsys.readouterr().out.startswith("invsq-empty")

    def test_foreign_map_is_usage_error(self, capsys):
        rc = main(["classify-twist", "--map", "[1,0,-2]/[0,0,1]"])
        assert rc == EXIT_USAGE

    def test_requires_exactly_one_input(self, capsys):
        rc = main(["classify-twist", "--psi1-b", "1", "--psi2-t", "1"])
        assert rc == EXIT_USAGE


class TestCatalog:
    def test_json_output(self, capsys):
        rc = main(["catalog", "--json"])
        assert rc == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert len(data["trivial_stabilizer_maps"]) == 10
        assert len(data["invsq_twist_classes"]) == 7
        assert len(data["sq_twist_classes"]) == 4


configs = st.builds(
    RunConfig,
    primes_count=st.integers(1, 40),
    prime_list=st.none() | st.lists(st.integers(3, LANE_PRIME_LIMIT - 1),
                                    max_size=6).map(tuple),
    h1=st.integers(1, 64), h2=st.integers(1, 64),
    budget=st.integers(1, 10 ** 7), cutoff=st.integers(1, 10 ** 12),
    preper_height_bound=st.integers(1, 500),
    preper_step_budget=st.integers(1, 10 ** 6),
    preper_cutoff=st.integers(1, 10 ** 9),
    outdir=st.text(max_size=6))


def _digest_text(cfg):
    """The text the config digest hashes, field by field: every semantic
    field, the primes as a list, and no output directory."""
    return json.dumps({
        "budget": cfg.budget, "config_version": 1, "cutoff": cfg.cutoff,
        "h1": cfg.h1, "h2": cfg.h2, "preper_cutoff": cfg.preper_cutoff,
        "preper_height_bound": cfg.preper_height_bound,
        "preper_step_budget": cfg.preper_step_budget,
        "primes": list(cfg.primes())}, sort_keys=True, separators=(",", ":"))


class TestConfig:
    def test_config_file_and_override(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"h1": 1, "h2": 1, "prime_list": [3, 5, 7, 11, 13]}))
        rc = main(["sieve", "--config", str(cfg_path),
                   "--h2", "2"])
        assert rc == EXIT_OK

    @pytest.mark.parametrize("command", ["catalog", "classify-twist"])
    def test_commands_without_config_reject_it(self, command, capsys):
        # catalog and classify-twist read no configuration
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", "/nonexistent/x.json"])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments: --config" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"nope": 1}))
        rc = main(["sieve", "--config", str(cfg_path)])
        assert rc == EXIT_USAGE

    def test_digest_stability(self):
        a = RunConfig(h1=2, h2=4)
        b = RunConfig(h1=2, h2=4)
        c = RunConfig(h1=2, h2=5)
        assert a.digest() == b.digest() != c.digest()
        # the default configuration's digest on CPython 3.10 to 3.13
        assert RunConfig().digest() == "618edfa00efb4f9b"

    @settings(max_examples=100, deadline=None)
    @given(configs)
    def test_digest_equals_hashlib(self, cfg):
        assert cfg.digest() == hashlib.sha256(_digest_text(cfg).encode()).hexdigest()[:16]

    def test_digest_without_the_builtin_module(self, monkeypatch):
        # with neither built-in module, hashlib gives the same digest
        cfg = RunConfig(h1=3, h2=7, prime_list=(3, 5, 11))
        want = cfg.digest()
        calls, sha256 = [], hashlib.sha256

        def spy(data):
            calls.append(data)
            return sha256(data)

        monkeypatch.setattr(hashlib, "sha256", spy)
        for name in ("_sha2", "_sha256"):
            monkeypatch.setitem(sys.modules, name, None)
        assert cfg.digest() == want
        assert calls == [_digest_text(cfg).encode()]

    @pytest.mark.parametrize("argv", [
        ["preper", "--sigmas=2,-8", "--preper-cutoff", "0"],
        ["preper", "--sigmas=2,-8", "--preper-step-budget", "0"],
        ["verify", "--sigmas", "2,-8", "--cutoff", "0"],
        ["pipeline", "--budget", "0", "--outdir", "{tmp}/out"]])
    def test_bounds_are_usage_errors(self, argv, tmp_path, capsys, monkeypatch):
        # rejected before any work: the pipeline never reaches the sieve
        def no_sieve(*args):
            raise AssertionError("the sieve ran")

        monkeypatch.setattr(lanesieve, "sieve", no_sieve)
        rc = main([a.format(tmp=tmp_path) for a in argv])
        assert rc == EXIT_USAGE
        assert "invalid-input" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(h1=0).validate()
        with pytest.raises(ValueError):
            RunConfig(prime_list=(2, 3)).validate()

    def test_bounds(self):
        with pytest.raises(ValueError, match="need odd primes"):
            RunConfig(prime_list=(3, 9)).validate()
        with pytest.raises(ValueError, match="too large"):
            RunConfig(prime_list=(3, 1048583)).validate()
        with pytest.raises(ValueError, match="too large"):
            RunConfig(prime_list=(3, 2053)).validate()
        with pytest.raises(ValueError, match="too large"):
            RunConfig(primes_count=309).validate()
        assert RunConfig(primes_count=308).primes()[-1] == 2039
        RunConfig(primes_count=308).validate()
        with pytest.raises(ValueError, match="h1 \\* h2"):
            RunConfig(h1=64, h2=65).validate()
        for cfg in (RunConfig(primes_count=0), RunConfig(primes_count=-5),
                    RunConfig(prime_list=())):
            with pytest.raises(ValueError, match="at least one prime"):
                cfg.validate()
        for field in ("budget", "cutoff", "preper_height_bound",
                      "preper_step_budget"):
            for value in (0, -1):
                with pytest.raises(ValueError, match=f"^{field} must be >= 1"):
                    RunConfig(**{field: value}).validate()
        with pytest.raises(ValueError, match="preper_cutoff must be >= preper_height_bound"):
            RunConfig(preper_height_bound=120, preper_cutoff=119).validate()
        RunConfig(preper_height_bound=120, preper_cutoff=120).validate()
        with pytest.raises(ValueError):
            first_odd_primes(-5)


def test_import_needs_no_sympy():
    # sympy is no dependency any more; it cost 37 MB and 0.4 s per process.
    # Importing the command line loads neither numpy, which the project no
    # longer uses, nor OpenSSL's _hashlib: the config digest hashes with
    # CPython's built-in SHA-256
    for module in ("sympy", "numpy", "_hashlib"):
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, quadpcf.cli; sys.exit({module!r} in sys.modules)"],
            capture_output=True, text=True)
        assert proc.returncode == 0, (module, proc.stderr)


def test_exact_commands_run_without_numpy(tmp_path):
    # a None entry in sys.modules makes every import of numpy fail; the
    # search runs in plain Python too
    commands = [["catalog", "--json"], ["preper", "--sigmas=2,-8"],
                ["verify", "--sigmas=2,-8;-6,8"], ["portrait", "--sigmas=-2,0"],
                ["classify-twist", "--psi1-b=-3/2"],
                ["classify-twist", "--psi2-dk", "2,1"],
                ["sieve", "--h1", "3", "--h2", "6", "--primes", "20",
                 "--out", str(tmp_path / "s.tsv")],
                ["pipeline", "--h1", "4", "--h2", "8", "--primes", "30",
                 "--outdir", str(tmp_path / "run")]]
    code = ("import json, sys\n"
            "sys.modules['numpy'] = None\n"
            "from quadpcf import cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    if cli.main(argv) != 0:\n"
            "        sys.exit(f'{argv} failed')\n"
            "if '_hashlib' in sys.modules:\n"
            "    sys.exit('_hashlib loaded')\n")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    ["pipeline", "--h1", "2", "--h2", "2", "--prime-list", "3,5,7,11,13",
     "--outdir", "{tmp}"],
    ["sieve", "--h1", "2", "--h2", "4", "--primes", "10", "--out", "{tmp}/s.tsv"]])
def test_digest_loads_no_openssl(argv, tmp_path):
    # OpenSSL would cost a sieve process 3.5 MiB of peak memory, even when
    # loaded after the sieve
    code = ("import json, sys\n"
            "from quadpcf import cli\n"
            "if cli.main(json.loads(sys.argv[1])) != 0:\n"
            "    sys.exit('command failed')\n"
            "if '_hashlib' in sys.modules:\n"
            "    sys.exit('_hashlib loaded')\n")
    argv = [a.format(tmp=tmp_path) for a in argv]
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argv)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    tsv = tmp_path / ("survivors.tsv" if argv[0] == "pipeline" else "s.tsv")
    assert "# config-digest: " in tsv.read_text()


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "quadpcf.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "pipeline" in proc.stdout
