import json
import subprocess
import sys

import pytest

from quadpcf.cli import (
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    main,
)
from quadpcf.exact_arith import first_odd_primes


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
        with pytest.raises(ValueError, match="h1 \\* h2"):
            RunConfig(h1=64, h2=65).validate()
        for cfg in (RunConfig(primes_count=0), RunConfig(primes_count=-5),
                    RunConfig(prime_list=())):
            with pytest.raises(ValueError, match="at least one prime"):
                cfg.validate()
        with pytest.raises(ValueError):
            first_odd_primes(-5)


def test_import_needs_no_sympy():
    # sympy is no dependency any more; it cost 37 MB and 0.4 s per process.
    # numpy is loaded by sieve and pipeline only
    for module in ("sympy", "numpy"):
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, quadpcf.cli; sys.exit({module!r} in sys.modules)"],
            capture_output=True, text=True)
        assert proc.returncode == 0, (module, proc.stderr)


def test_exact_commands_run_without_numpy():
    # a None entry in sys.modules makes every import of numpy fail
    commands = [["catalog", "--json"], ["preper", "--sigmas=2,-8"],
                ["verify", "--sigmas=2,-8;-6,8"], ["portrait", "--sigmas=-2,0"],
                ["classify-twist", "--psi1-b=-3/2"],
                ["classify-twist", "--psi2-dk", "2,1"]]
    code = ("import json, sys\n"
            "sys.modules['numpy'] = None\n"
            "from quadpcf import cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    if cli.main(argv) != 0:\n"
            "        sys.exit(f'{argv} failed')\n")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "quadpcf.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "pipeline" in proc.stdout
