import argparse
import ast
import builtins
import contextlib
import hashlib
import io
import json
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadpcf import cli, lanesieve, pcfverify, preper
from quadpcf.cli import (
    EXIT_CATALOG_MISMATCH,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_USAGE,
    TEN_SIGMA_PAIRS,
    RunConfig,
    main,
)
from quadpcf.exact_arith import Rat, first_odd_primes, height
from quadpcf.ffdyn import LANE_PRIME_LIMIT
from quadpcf.projmap import NormalizedQuadMap


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
        assert "--prime-list: need odd primes, got 9" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("primes, error", [
        (["--prime-list", "3,2053"], "prime 2053 is too large for the sieve (limit 2048)"),
        (["--primes", "309"], "--primes: 309 is too large"),
        (["--prime-list", "3,9"], "need odd primes, got 9")])
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
        assert capsys.readouterr().err.startswith(f"error: invalid-input: {primes[0]}: ")
        assert not outdir.exists()


class TestVerify:
    def test_sigmas(self, capsys):
        rc = main(["verify", "--sigmas", "2,-8;-6,8"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("VERIFIED_PCF") == 2
        assert "0 ->(2) 0" in out

    def test_reads_sieve_output(self, tmp_path, capsys):
        # five small primes let some non-PCF pairs through; the pipeline's
        # verifier must certify the genuine ones, (2,-4), (-2,4), (-2,0)
        # and (-2,2), and report the rest undetermined
        assert main(["pipeline", "--h1", "2", "--h2", "4", "--prime-list", "3,5,7,11,13",
                     "--outdir", str(tmp_path)]) == EXIT_OK
        status = {(c[0], c[1]): c[3] for c in _records(tmp_path / "verified.tsv")}
        pcf = {(str(s1), str(s2)) for s1, s2 in TEN_SIGMA_PAIRS
               if height(s1) <= 2 and height(s2) <= 4}
        assert {("2", "-4"), ("-2", "2")} < pcf
        assert {k for k, v in status.items() if v == "VERIFIED_PCF"} == pcf
        assert {v for k, v in status.items() if k not in pcf} == {"UNDETERMINED"}

    def test_undetermined_exit(self, capsys):
        rc = main(["verify", "--sigmas", "2,-12"])
        assert rc != EXIT_OK
        assert "UNDETERMINED" in capsys.readouterr().out

    def test_unfactorable_discriminant(self, capsys):
        # the wronskian discriminant of this pair,
        # 4814988813760728630044503936230148203481, has two prime factors
        # far above the range of trial division; D needs no factorisation,
        # so the orbits are walked and grow past the cutoff
        rc = main(["verify", "--sigmas", "250412573173/888599,682777914928/66173"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "UNDETERMINED\torbit size " in out
        assert "exceeded cutoff 1000000" in out
        assert "cannot factor" not in out

    @pytest.mark.parametrize("argv", [
        ["verify", "--sigmas", "0/0,1"],
        ["portrait", "--sigmas", "0/0,1"],
        ["classify-twist", "--psi1-b=0/0"]])
    def test_zero_over_zero_is_input_error(self, argv, capsys):
        # 0/0 is no point of P^1: an input error that names the argument,
        # not a traceback
        rc = main(argv)
        assert rc == EXIT_USAGE
        flag = argv[1].split("=")[0]
        assert (f"error: invalid-input: {flag}: 0/0 is not a point of P^1"
                in capsys.readouterr().err)

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

    def test_undetermined_writes_no_dot(self, capsys, tmp_path):
        dot = tmp_path / "p.dot"
        assert main(["portrait", "--sigmas", "2,-12", "--dot", str(dot)]) == EXIT_ERROR
        assert capsys.readouterr().out.startswith("UNDETERMINED: ")
        assert not dot.exists()

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

    def test_catalog_mismatch_exit(self, monkeypatch, capsys):
        # a search stunted at height 1 finds the 3-cycle with one of its
        # three tails, a shape outside the catalog, whose reference graphs
        # are searched at the full height first; the mismatch is no input
        # error, though the map is built and classified in the reader
        preper.invsq_catalog()
        search = preper.rational_preperiodic_graph
        monkeypatch.setattr(preper, "rational_preperiodic_graph",
                            lambda phi: search(phi, height_bound=1))
        assert main(["classify-twist", "--map", "[0,2,-1]/[1,0,-1]"]) == EXIT_CATALOG_MISMATCH
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: catalog-mismatch: ")

    def test_requires_exactly_one_input(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify-twist", "--psi1-b", "1", "--psi2-t", "1"])
        assert exc.value.code == EXIT_USAGE
        assert "not allowed with argument --psi1-b" in capsys.readouterr().err


class TestCatalog:
    def test_json_output(self, capsys):
        rc = main(["catalog", "--json"])
        assert rc == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert len(data["trivial_stabilizer_maps"]) == 10
        assert len(data["invsq_twist_classes"]) == 7
        assert len(data["sq_twist_classes"]) == 4

    def test_text_output_follows_the_json(self, capsys):
        # the text gives the data of catalog --json in its order: four
        # section headers, a map line per sigma pair with its portrait
        # indented, the 4 + 7 class lines with their graphs, and a summary
        # line per power map
        assert main(["catalog", "--json"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert main(["catalog"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        want = ["== quadratic PCF maps over Q with trivial stabilizer =="]
        for item in data["trivial_stabilizer_maps"]:
            want.append(f"sigma=({item['sigma1']},{item['sigma2']})  {item['map']}")
            want += ["   " + line for line in item["portrait"]]
        want.append("== preperiodic structures: twists of z^2 ==")
        for item in data["sq_twist_classes"]:
            want.append(f"b={item['b']}: {item['class']}  ({item['description']})")
            want += ["   " + line for line in item["graph"]]
        want.append("== preperiodic structures: twists of 1/z^2 ==")
        for item in data["invsq_twist_classes"]:
            want.append(f"{item['class']}  rep {item['representative']}")
            want += ["   " + line for line in item["graph"]]
        want.append("== power map components ==")
        for name in ("square_deg2", "inverse_square_deg6"):
            comps = data["power_map_components"][name]
            want.append(f"{name}: {len(comps)} components, "
                        f"sizes {sorted(len(c) for c in comps)}")
        assert lines == want


class TestFrozenBytes:
    """The catalog bytes the benchmark gate freezes in
    perfbench/expected.json: catalog --json and the preper output of each
    of the ten maps at height 120, compared here too so that a change of
    order or text fails in the suite."""

    EXPECTED = json.loads((Path(__file__).resolve().parent.parent
                           / "perfbench" / "expected.json").read_text())["catalog"]

    def _sha256(self, argv, capsys):
        assert main(argv) == EXIT_OK
        return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()

    def test_catalog_json(self, capsys):
        assert self._sha256(["catalog", "--json"], capsys) == self.EXPECTED["catalog.json"]

    @pytest.mark.parametrize("s1, s2", TEN_SIGMA_PAIRS, ids=str)
    def test_preper_at_height_120(self, s1, s2, capsys):
        argv = ["preper", f"--sigmas={s1},{s2}", "--preper-height-bound", "120"]
        assert self._sha256(argv, capsys) == self.EXPECTED["preper"][f"{s1},{s2}"]


class TestInput:
    """Outside text is read by one parser, whose errors name the source;
    each command takes exactly one input, as its parser states."""

    @pytest.mark.parametrize("argv, source", [
        (["verify", "--sigmas", "2"], "--sigmas"),
        (["verify", "--sigmas", "1/2/3,1"], "--sigmas"),
        (["verify", "--sigmas", "2,-8;"], "--sigmas"),
        (["classify-twist", "--psi2-dk", "2"], "--psi2-dk"),
        (["portrait", "--map", "[1,0,-2]/[0,0,1]/[1]"], "--map"),
        (["portrait", "--map", "[1,a,2]/[0,0,1]"], "--map"),
        (["portrait", "--sigmas", ""], "--sigmas"),
        (["pipeline", "--prime-list", "3,x"], "--prime-list"),
        # text that reads but makes no map
        (["verify", "--sigmas", "2,-8;inf,1"], "--sigmas"),
        (["portrait", "--sigmas", "inf,2"], "--sigmas"),
        (["preper", "--sigmas=inf,2"], "--sigmas"),
        (["portrait", "--sigmas", "3,3"], "--sigmas"),
        (["preper", "--map", "[1,0,0]/[1,0,0]"], "--map"),
        (["classify-twist", "--map", "[1,0,0]/[1,0,0]"], "--map"),
        (["classify-twist", "--map", "[1,0,-2]/[0,0,1]"], "--map"),
        (["classify-twist", "--psi1-b", "0"], "--psi1-b"),
        (["classify-twist", "--psi2-t", "0"], "--psi2-t"),
        (["classify-twist", "--psi2-dk", "1,1"], "--psi2-dk")],
        ids=["one-sigma", "three-part-rational", "empty-pair", "one-of-d-k",
             "three-part-map", "letter-in-map", "empty-sigmas", "letter-in-primes",
             "infinite-sigma-after-a-valid-pair", "infinite-sigma",
             "infinite-sigma-preper", "degenerate-sigmas", "degenerate-map",
             "degenerate-map-to-classify", "map-not-conjugate-to-classify", "zero-b",
             "zero-t", "k-squared-is-d"])
    def test_malformed_text_names_its_source(self, argv, source, capsys):
        # none of Python's own messages (int() literals, unpacking) leaks out,
        # and every map is built before anything is printed
        rc = main(argv)
        assert rc == EXIT_USAGE
        out, err = capsys.readouterr()
        assert err.startswith(f"error: invalid-input: {source}: "), err
        assert "unpack" not in err and "invalid literal" not in err
        assert out == ""

    def test_closed_stdout_is_no_input_error(self, tmp_path, monkeypatch, capsys):
        # a reader that quits before the command has written everything
        # (quadpcf pipeline ... | true) closes the pipe; the command ends in
        # exit 1 without an invalid-input line
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return fh.fileno()

        with open(tmp_path / "stdout", "w") as fh:
            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            rc = main(["catalog"])
        assert rc == EXIT_ERROR
        assert "invalid-input" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify"],
        ["portrait", "--map", "[1,0,0]/[0,0,1]", "--sigmas", "2,-8"],
        ["preper"],
        ["classify-twist", "--psi2-dk", "2,1", "--map", "[0,2,-1]/[1,0,-1]"]])
    def test_exactly_one_input(self, argv, capsys):
        # a second input used to be ignored without a word
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "not allowed with argument" in err or "is required" in err

    @pytest.mark.parametrize("argv", [
        ["sieve", "--h1", "2", "--h2", "2", "--prime-list", "3,5"],
        ["sieve", "--h1", "2", "--h2", "2", "--out", "{tmp}/s.tsv"],
        ["verify", "--in", "{tmp}/survivors.tsv"],
        ["verify", "--sigmas", "2,-8", "--in", "{tmp}/survivors.tsv"]])
    def test_no_command_reads_or_sieves_besides_pipeline(self, argv, tmp_path, capsys):
        # pipeline runs the sieve and verifies its survivors; the sieve
        # alone and the verifier of a survivors file are no commands
        assert main(["pipeline", "--h1", "2", "--h2", "2", "--prime-list", "3,5",
                     "--outdir", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([a.format(tmp=tmp_path) for a in argv])
        assert exc.value.code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "usage: quadpcf" in err
        assert not (tmp_path / "s.tsv").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["portrait", "--sigmas", "2,-8", "--dot", "{tmp}/missing/x.dot"], "--dot"),
        (["preper", "--sigmas=2,-8", "--dot", "{tmp}/missing/x.dot"], "--dot"),
        (["pipeline", "--h1", "1", "--h2", "1", "--prime-list", "3",
          "--outdir", "{tmp}/file"], "--outdir"),
        (["pipeline", "--h1", "1", "--h2", "1", "--prime-list", "3",
          "--outdir", "{tmp}/run"], "--outdir")],
        ids=["portrait", "preper", "pipeline", "pipeline-artifact"])
    def test_failed_write_names_its_flag(self, argv, flag, tmp_path, capsys):
        # the file is written before any line is printed; pipeline's
        # artifacts are written into --outdir before its first line too
        (tmp_path / "file").write_text("")
        (tmp_path / "run" / "verified.tsv").mkdir(parents=True)
        assert main([a.format(tmp=tmp_path) for a in argv]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: invalid-input: {flag}: ") and str(tmp_path) in err, err


configs = st.builds(
    RunConfig,
    prime_list=st.integers(1, 40).map(first_odd_primes)
    | st.lists(st.integers(3, LANE_PRIME_LIMIT - 1), max_size=6).map(tuple),
    h1=st.integers(1, 64), h2=st.integers(1, 64),
    outdir=st.text(max_size=6))


def _digest_text(cfg):
    """The text the config digest hashes, field by field: every semantic
    field, the primes as a list, no output directory, the exact walks'
    fixed limits (budget and cutoff of the verifier and of the preperiodic
    search) and the preperiodic search's default height bound."""
    return json.dumps({
        "budget": 64, "config_version": 1, "cutoff": 10 ** 6,
        "h1": cfg.h1, "h2": cfg.h2, "preper_cutoff": 10 ** 4,
        "preper_height_bound": 16,
        "preper_step_budget": 32,
        "primes": list(cfg.prime_list)}, sort_keys=True, separators=(",", ":"))


def _pipeline_config(*flags):
    """The RunConfig pipeline reads from its flags."""
    return cli._config_from_args(cli.build_parser().parse_args(["pipeline", *flags]))


# the one input each command needs, as the parser requires it
INPUTS = {"verify": ["--sigmas=2,-8"], "pipeline": [],
          "portrait": ["--sigmas=2,-8"], "preper": ["--map", "[1,0,-2]/[0,0,1]"],
          "classify-twist": ["--psi2-t", "1"], "catalog": []}


class TestConfig:
    @pytest.mark.parametrize("command", list(INPUTS))
    def test_commands_without_config_reject_it(self, command, capsys):
        # no command reads a configuration file: the flags are the only configuration
        with pytest.raises(SystemExit) as exc:
            main([command, *INPUTS[command], "--config", "/nonexistent/x.json"])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments: --config" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        *((c, f) for c in ("verify", "pipeline", "portrait") for f in ("--budget", "--cutoff")),
        ("preper", "--preper-step-budget"), ("preper", "--preper-cutoff")])
    def test_walk_limits_are_no_flags(self, command, flag, tmp_path, monkeypatch, capsys):
        # the exact walks run at the fixed limits of pcfverify and preper
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, *INPUTS[command], flag, "65"])
        assert exc.value.code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert f"unrecognized arguments: {flag} 65" in err
        assert out == "" and not any(tmp_path.iterdir())

    def test_every_run_flag_reaches_its_field(self):
        # each flag of pipeline sets its RunConfig field; a flag read into
        # no field would be dropped without a word
        cases = {"--primes": ("prime_list", "40", first_odd_primes(40)),
                 "--prime-list": ("prime_list", "3,5,7", (3, 5, 7)),
                 "--h1": ("h1", "3", 3), "--h2": ("h2", "7", 7),
                 "--outdir": ("outdir", "elsewhere", "elsewhere")}
        parser = cli.build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        assert set(commands) == set(INPUTS)
        assert {a.option_strings[0] for a in commands["pipeline"]._actions
                if a.dest != "help"} == set(cases)
        for flag, (field, text, value) in cases.items():
            assert value != getattr(RunConfig(), field)
            assert getattr(_pipeline_config(flag, text), field) == value, flag
        assert {field for field, _, _ in cases.values()} == set(RunConfig._fields)
        # --primes N is the first N odd primes as --prime-list names them
        assert _pipeline_config("--primes", "40") == _pipeline_config(
            "--prime-list", ",".join(map(str, first_odd_primes(40))))

    def test_digest_stability(self):
        a = RunConfig(h1=2, h2=4)
        b = RunConfig(h1=2, h2=4)
        c = RunConfig(h1=2, h2=5)
        assert a.digest() == b.digest() != c.digest()
        # the default configuration's digest on CPython 3.10 to 3.13, and
        # that of the benchmark's 40 primes
        assert RunConfig().digest() == "618edfa00efb4f9b"
        assert _pipeline_config("--primes", "40").digest() == "45942cc69d7970cd"
        assert RunConfig(prime_list=first_odd_primes(40)).digest() == "45942cc69d7970cd"

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
        # the uncached lookup, which the process's cached one would skip
        monkeypatch.setattr(cli, "_sha256", cli._sha256.__wrapped__)
        assert cfg.digest() == want
        assert calls == [_digest_text(cfg).encode()]

    def test_sha256_is_looked_up_once(self, monkeypatch):
        # a pipeline run takes three digests; only the first may import
        cfg = RunConfig(h1=3, h2=7, prime_list=(3, 5, 11))
        want = cfg.digest()
        names, real = [], builtins.__import__

        def spy(name, *args, **kwargs):
            names.append(name)
            return real(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", spy)
        assert [cfg.digest(), cfg.digest()] == [want, want]
        assert not {"_sha2", "_sha256", "hashlib"} & set(names), names

    @pytest.mark.parametrize("argv", [
        ["preper", "--sigmas=2,-8", "--preper-height-bound", "0"],
        ["preper", "--sigmas=2,-8", "--preper-height-bound", "10001"],
        ["pipeline", "--h1", "0", "--outdir", "{tmp}/out"],
        ["pipeline", "--h1", "64", "--h2", "65", "--outdir", "{tmp}/out"]])
    def test_bounds_are_usage_errors(self, argv, tmp_path, capsys, monkeypatch):
        # rejected before any work: the pipeline never reaches the sieve,
        # and preper never searches
        def no_work(*args):
            raise AssertionError("the sieve or the search ran")

        monkeypatch.setattr(lanesieve, "sieve", no_work)
        monkeypatch.setattr(preper, "rational_preperiodic_graph", no_work)
        rc = main([a.format(tmp=tmp_path) for a in argv])
        assert rc == EXIT_USAGE
        out, err = capsys.readouterr()
        assert err.startswith("error: invalid-input: ") and out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bound", ["0", "10001"])
    def test_preper_height_bound_names_its_flag(self, bound, capsys, monkeypatch):
        # past the search's size cutoff of 10^4 a searched point would be
        # called divergent; the bound is checked before the search
        def no_search(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr(preper, "rational_preperiodic_graph", no_search)
        assert main(["preper", "--sigmas=2,-8", "--preper-height-bound", bound]) == EXIT_USAGE
        assert capsys.readouterr() == (
            "", f"error: invalid-input: --preper-height-bound: {bound} is not in [1, 10000]\n")

    @pytest.mark.parametrize("flags, error", [
        (["--prime-list", "3,3"], "--prime-list: primes must be distinct"),
        (["--prime-list", "9"], "--prime-list: need odd primes, got 9"),
        (["--primes", "309"],
         "--primes: 309 is too large: the sieve takes the 308 odd primes below 2048"),
        (["--h1", "0"], "--h1: 0 is not >= 1"),
        (["--h2", "-1"], "--h2: -1 is not >= 1"),
        (["--h1", "64", "--h2", "65"], "--h1, --h2: height bounds need h1 * h2 <= 4096"),
        (["--h1", "1", "--h2", "1", "--primes", "3", "--prime-list", "3"],
         "--primes, --prime-list: give one of the two, not both")],
        ids=["repeated-prime", "composite", "too-many-primes", "zero-h1", "negative-h2",
             "box-too-large", "both-prime-flags"])
    def test_run_flags_name_themselves(self, flags, error, tmp_path, capsys):
        argv = ["pipeline", *flags, "--outdir", str(tmp_path / "out")]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: invalid-input: {error}\n")
        assert not (tmp_path / "out").exists()

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(h1=0).validate()
        with pytest.raises(ValueError):
            RunConfig(prime_list=(2, 3)).validate()

    def test_bounds(self, monkeypatch, capsys):
        with pytest.raises(ValueError, match="^--prime-list: need odd primes"):
            RunConfig(prime_list=(3, 9)).validate()
        with pytest.raises(ValueError, match="^--prime-list: prime 1048583 is too large"):
            RunConfig(prime_list=(3, 1048583)).validate()
        with pytest.raises(ValueError, match="^--prime-list: prime 2053 is too large"):
            RunConfig(prime_list=(3, 2053)).validate()
        with pytest.raises(ValueError, match="^--primes: 309 is too large"):
            _pipeline_config("--primes", "309")
        assert _pipeline_config("--primes", "308").prime_list[-1] == 2039
        with pytest.raises(ValueError, match="^--h1, --h2: .*h1 \\* h2"):
            RunConfig(h1=64, h2=65).validate()
        for flags in (("--primes", "0"), ("--primes=-5",)):
            with pytest.raises(ValueError, match="^--primes: .*at least one prime"):
                _pipeline_config(*flags)
        with pytest.raises(ValueError, match="^--prime-list: .*at least one prime"):
            RunConfig(prime_list=()).validate()
        # preper checks its bound before it searches; the stub searches to
        # height 1 whatever bound it is given
        searched, search = [], preper.rational_preperiodic_graph
        monkeypatch.setattr(preper, "rational_preperiodic_graph",
                            lambda phi, bound: searched.append(bound) or search(phi, 1))
        for value in (0, -1, 10 ** 4 + 1):
            assert main(["preper", "--sigmas=2,-8", f"--preper-height-bound={value}"]) \
                == EXIT_USAGE
            assert capsys.readouterr().err.startswith(
                "error: invalid-input: --preper-height-bound: ")
        for value in (1, 10 ** 4):
            assert main(["preper", "--sigmas=2,-8", f"--preper-height-bound={value}"]) \
                == EXIT_OK
        assert searched == [1, 10 ** 4]
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


def test_one_import_path_per_name():
    # a name is imported from the module that defines it, never through a
    # module that imports it in turn, and the package's __init__ imports
    # nothing
    root = Path(__file__).resolve().parent.parent
    package = root / "src" / "quadpcf"
    defined = {}
    for path in package.glob("*.py"):
        names = set()
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(n.id for t in targets for n in ast.walk(t)
                             if isinstance(n, ast.Name))
        defined[path.stem] = names
    init = ast.parse((package / "__init__.py").read_text())
    assert [ast.unparse(n) for n in ast.walk(init)
            if isinstance(n, (ast.Import, ast.ImportFrom))] == []
    wrong = []
    for path in [*package.glob("*.py"), *(root / "tests").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            if node.module == "quadpcf":
                # the submodules themselves
                wrong += [(path.name, a.name) for a in node.names if a.name not in defined]
            elif node.module.startswith("quadpcf."):
                names = defined[node.module.removeprefix("quadpcf.")]
                wrong += [(path.name, f"{node.module}.{a.name}") for a in node.names
                          if a.name not in names]
    assert wrong == []


def test_exact_commands_import_no_dataclasses_or_fractions():
    # every command is one fresh process: dataclasses (with inspect, ast,
    # dis and tokenize) cost it about 12 ms and fractions (with decimal)
    # about 3 ms, so the records are NamedTuples and exact_arith orders
    # points without fractions
    code = ("import contextlib, io, sys\n"
            "def check(after):\n"
            "    loaded = [m for m in ('dataclasses', 'inspect', 'fractions', 'decimal')\n"
            "              if m in sys.modules]\n"
            "    if loaded:\n"
            "        sys.exit(f'{loaded} loaded after {after}')\n"
            "from quadpcf import cli\n"
            "check('import quadpcf.cli')\n"
            "for argv in (['catalog', '--json'],\n"
            "             ['preper', '--sigmas=2,-4', '--preper-height-bound', '120']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        if cli.main(argv) != 0:\n"
            "            sys.exit(f'{argv} failed')\n"
            "    check(argv)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_exact_commands_import_no_json():
    # json cost a fresh process about 3 ms; only the config digest,
    # pipeline and catalog load it
    code = ("import contextlib, io, sys\n"
            "from quadpcf import cli\n"
            "for argv in (['preper', '--sigmas=2,-4', '--preper-height-bound', '120'],\n"
            "             ['classify-twist', '--psi2-dk', '2,1']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        if cli.main(argv) != 0:\n"
            "            sys.exit(f'{argv} failed')\n"
            "    if 'json' in sys.modules:\n"
            "        sys.exit(f'json loaded after {argv}')\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```")[1]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("quadpcf ")]
    assert len(commands) == 6
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == EXIT_OK, argv
    assert (tmp_path / "run" / "summary.json").is_file()
    assert (tmp_path / "z2m2.dot").is_file()


class TestRecords:
    """The records are NamedTuples, built as the benchmark's traced replay
    builds them."""

    def test_unverified_status_is_false(self):
        phi = NormalizedQuadMap.from_sigmas(Rat(2), Rat(-8))
        assert pcfverify.critical_orbit_portrait(phi)
        st = pcfverify.critical_orbit_portrait(phi, budget=1)
        assert not st.verified and not st
        assert not pcfverify.PcfStatus(False, None, 0, 1, reason="none")

    def test_built_from_keywords(self, tmp_path):
        primes = first_odd_primes(20)
        cfg = RunConfig(h1=2, h2=4, prime_list=tuple(primes), outdir=str(tmp_path))
        assert (cfg.h1, cfg.h2, cfg.prime_list) == (2, 4, primes)
        assert cfg.digest() == RunConfig(h1=2, h2=4, prime_list=primes).digest()
        survivors = lanesieve.sieve(2, 4, primes)
        c = survivors[0]
        again = lanesieve.SieveCandidate(
            sigma1=c.sigma1, sigma2=c.sigma2, phi=c.phi, resultant=c.resultant,
            critical_rational=c.critical_rational, period_sets=c.period_sets,
            primes_used=c.primes_used)
        assert again == c and again.tsv_line() == c.tsv_line()
        statuses = [pcfverify.critical_orbit_portrait(c.phi) for c in survivors]
        result = cli.PipelineResult(survivors, statuses)
        assert result.survivors is survivors and result.statuses is statuses
        assert all(st.iterations_used >= 1 and st.max_size_seen >= 1 for st in statuses)
        assert cli.pipeline_summary(cfg, result) == cli.pipeline_summary(
            cfg, cli.run_pipeline(cfg))


def test_exact_commands_run_without_numpy(tmp_path):
    # a None entry in sys.modules makes every import of numpy fail; the
    # search runs in plain Python too
    commands = [["catalog", "--json"], ["preper", "--sigmas=2,-8"],
                ["verify", "--sigmas=2,-8;-6,8"], ["portrait", "--sigmas=-2,0"],
                ["classify-twist", "--psi1-b=-3/2"],
                ["classify-twist", "--psi2-dk", "2,1"],
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
     "--outdir", "{tmp}"]])
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
    assert "# config-digest: " in (tmp_path / "survivors.tsv").read_text()


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "quadpcf.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "pipeline" in proc.stdout
