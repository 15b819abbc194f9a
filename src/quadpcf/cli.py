"""Command-line front end for the PCF search pipeline.

Subcommands: verify, pipeline, portrait, preper, classify-twist, catalog.
All outputs are deterministic for a given configuration, and
every artifact embeds a digest of the configuration that produced it.

The flags are the only configuration.  FLAGS declares each flag once and
COMMANDS names the flags of each subcommand.  RunConfig is what pipeline
runs on: one prime list (--primes N, the first N odd primes, or
--prime-list, not both), the heights and the output directory.  The
exact walks run at the fixed limits of pcfverify and preper, which the
verify and preper headers print.  verify takes --sigmas, and portrait,
preper and classify-twist exactly one input, which the parser enforces.
Text from outside (rationals, sigma pairs, maps, prime lists) is read
by _read, which also builds the map each input gives and checks that its
resultant is nonzero, so a command has every map before it prints a
line.  Every input error names its flag, as do a run flag out of bounds,
a --dot file that cannot be written and an --outdir that cannot be made
or written to:
"error: invalid-input: --sigmas: 3,3: degenerate map (resultant 0)".
A closed stdout ends a command with exit 1 and no message.

pipeline is the one command that runs the sieve, computing every period
set it needs on the fly; no command reads a file or builds, reads or
writes a database or a cache.  Only pipeline loads the sieve,
quadpcf.lanesieve, which is plain Python like the rest of the package,
and only the config digest, pipeline and catalog load json.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence, Tuple

from quadpcf import pcfverify, preper
from quadpcf.exact_arith import (
    ExtendedRational,
    Rat,
    first_odd_primes,
    odd_primes_up_to,
    validate_primes,
)
from quadpcf.ffdyn import LANE_PRIME_LIMIT, MAX_HEIGHT_PRODUCT
from quadpcf.preper import CatalogMatchError
from quadpcf.projmap import NormalizedQuadMap

if TYPE_CHECKING:
    from quadpcf.lanesieve import SieveCandidate

# RunConfig.digest hashes this version, so every artifact's digest
# depends on it
CONFIG_VERSION = 1

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_CATALOG_MISMATCH = 6


def _sha256():
    """SHA-256 from CPython's built-in module, _sha2 from 3.12 and _sha256
    before, and from hashlib only when neither imports.  hashlib loads
    OpenSSL, 3.5 MiB; the sieve's freed arrays stay resident, so even after
    the sieve those would raise a process's peak."""
    for name in ("_sha2", "_sha256"):
        try:
            return __import__(name).sha256
        except ImportError:
            pass
    from hashlib import sha256
    return sha256


class RunConfig(NamedTuple):
    prime_list: Tuple[int, ...] = first_odd_primes(130)
    h1: int = 10
    h2: int = 20
    outdir: str = "."

    def digest(self) -> str:
        """Digest of the semantic configuration.

        The output directory affects where results appear, never what they
        are, so it stays out of the digest and artifacts are byte-identical
        across directories.  The exact walks' fixed limits shape
        verified.tsv, so they are hashed with the fields; so is preper's
        default height bound, which keeps every digest as it was.
        """
        import json
        body = dict(self._asdict(), config_version=CONFIG_VERSION,
                    budget=pcfverify.DEFAULT_BUDGET, cutoff=pcfverify.DEFAULT_SIZE_CUTOFF,
                    preper_height_bound=preper.DEFAULT_HEIGHT_BOUND,
                    preper_step_budget=preper.DEFAULT_STEP_BUDGET,
                    preper_cutoff=preper.DEFAULT_SIZE_CUTOFF)
        body.pop("outdir")
        body["primes"] = list(body.pop("prime_list"))
        text = json.dumps(body, sort_keys=True, separators=(",", ":"))
        return _sha256()(text.encode()).hexdigest()[:16]

    def validate(self) -> None:
        """ValueError, naming the flags at fault, unless the run can start."""
        for flag, h in (("--h1", self.h1), ("--h2", self.h2)):
            if h < 1:
                raise ValueError(f"{flag}: {h} is not >= 1")
        if self.h1 * self.h2 > MAX_HEIGHT_PRODUCT:
            raise ValueError(f"--h1, --h2: height bounds need h1 * h2 <= {MAX_HEIGHT_PRODUCT}")
        # the period rule is unsound for a composite modulus, so a
        # composite would let the sieve drop a PCF pair without any error
        try:
            if not validate_primes(self.prime_list, LANE_PRIME_LIMIT, "the sieve"):
                raise ValueError("the sieve needs at least one prime")
        except ValueError as e:
            raise ValueError(f"--prime-list: {e}") from None


class InputError(ValueError):
    """Outside text that gives no valid input, or a path given that cannot
    be written; the message names its flag."""


_RATIONAL = "a point of P^1 (an integer, a fraction such as -3/2, or inf)"
_PAIR = "a pair of rationals such as 2,-8"


def _malformed(text: str, source: str, what: str) -> str:
    return f"{source}: {text.strip() or repr(text)} is not {what}"


def _read(parse, text: str, source: str, what: str, build=None):
    """build(parse(text)), the one reader of text from outside the program.
    A ValueError of parse says what the text should be, so none of Python's
    own messages (int() literals, unpacking) reaches the user; build makes
    the map or the class a command takes, and its ValueError gives the
    reason.  Both name the source."""
    try:
        value = parse(text)
    except InputError:
        raise
    except ValueError:
        raise InputError(_malformed(text, source, what)) from None
    try:
        return value if build is None else build(value)
    except ValueError as e:
        raise InputError(f"{source}: {text.strip()}: {e}") from None


def _rational(text: str, source: str) -> ExtendedRational:
    return _read(ExtendedRational.from_str, text, source, _RATIONAL)


def _pair(text: str, source: str):
    """The two rationals of "a,b", as --sigmas and --psi2-dk take them."""
    a, b = text.split(",")
    return _rational(a, source), _rational(b, source)


def _degree_two(phi: NormalizedQuadMap) -> NormalizedQuadMap:
    if phi.resultant() == 0:
        raise ValueError("degenerate map (resultant 0)")
    return phi


def _same(phi: NormalizedQuadMap) -> NormalizedQuadMap:
    return phi


def _sigma_map(text: str, source: str, use=_same):
    """use of the normal-form map of a sigma pair, read as _pair reads it."""
    return _read(lambda t: _pair(t, source), text, source, _PAIR,
                 lambda s: use(_degree_two(NormalizedQuadMap.from_sigmas(*s))))


def _input_map(args, use=_same):
    """use of the map of the one map input given: --map or --sigmas, or
    the twist of 1/z^2 of --psi2-t or --psi2-dk.  use is applied in
    _read's build, so its ValueError names the input too."""
    if args.map is not None:
        return _read(NormalizedQuadMap.from_str, args.map, "--map",
                     "a quadratic map [f2,f1,f0]/[g2,g1,g0] with integer coefficients",
                     lambda phi: use(_degree_two(phi)))
    if getattr(args, "sigmas", None) is not None:
        return _sigma_map(args.sigmas, "--sigmas", use=use)
    if args.psi2_t is not None:
        return _read(ExtendedRational.from_str, args.psi2_t, "--psi2-t", _RATIONAL,
                     lambda t: use(_degree_two(preper.invsq_twist_from_t(t))))
    return _read(lambda t: _pair(t, "--psi2-dk"), args.psi2_dk, "--psi2-dk", _PAIR,
                 lambda dk: use(_degree_two(preper.invsq_twist_from_dk(*dk))))


def _config_from_args(args) -> RunConfig:
    """pipeline's RunConfig: every field a flag set, the others at their defaults."""
    given = {field: getattr(args, field) for field in ("h1", "h2", "outdir")
             if getattr(args, field) is not None}
    if args.primes is not None and args.prime_list is not None:
        raise ValueError("--primes, --prime-list: give one of the two, not both")
    if args.prime_list is not None:
        given["prime_list"] = _read(
            lambda text: tuple(int(x) for x in text.split(",") if x.strip()),
            args.prime_list, "--prime-list", "a comma-separated list of odd primes")
    elif args.primes is not None:
        # first_odd_primes gives primes; only their count needs a bound
        most = len(odd_primes_up_to(LANE_PRIME_LIMIT))
        if args.primes < 1:
            raise ValueError("--primes: the sieve needs at least one prime")
        if args.primes > most:
            raise ValueError(f"--primes: {args.primes} is too large: the "
                             f"sieve takes the {most} odd primes below {LANE_PRIME_LIMIT}")
        given["prime_list"] = first_odd_primes(args.primes)
    cfg = RunConfig(**given)
    cfg.validate()
    return cfg


def _write_dot(path: Optional[str], graph: preper.FunctionalGraph, name: str) -> None:
    """Write the --dot file, if asked for, before the command prints a line."""
    if path:
        try:
            Path(path).write_text(graph.to_dot(name) + "\n")
        except OSError as e:
            raise InputError(f"--dot: {e}") from None


# ----------------------------------------------------------------------
# pipeline pieces shared by subcommands and the benchmark's traced replay
# ----------------------------------------------------------------------

class PipelineResult(NamedTuple):
    survivors: List[SieveCandidate]
    statuses: List[pcfverify.PcfStatus]


def run_pipeline(cfg: RunConfig) -> PipelineResult:
    from quadpcf import lanesieve
    survivors = lanesieve.sieve(cfg.h1, cfg.h2, cfg.prime_list)
    statuses = [pcfverify.critical_orbit_portrait(c.phi) for c in survivors]
    return PipelineResult(survivors, statuses)


def write_survivors_tsv(path: Path, cfg: RunConfig,
                        survivors: Sequence[SieveCandidate]) -> None:
    from quadpcf import lanesieve
    with open(path, "w") as fh:
        fh.write(f"# quadpcf sieve survivors\n# config-digest: {cfg.digest()}\n")
        fh.write("# " + lanesieve.SieveCandidate.tsv_header() + "\n")
        for c in survivors:
            fh.write(c.tsv_line() + "\n")


def _verdict(st: pcfverify.PcfStatus) -> Tuple[str, str]:
    """The status of a verification and its detail: the critical portrait's
    edge lines joined by "; ", or why the map is undetermined."""
    if st.verified:
        return "VERIFIED_PCF", "; ".join(st.portrait.edge_lines())
    return "UNDETERMINED", st.reason


def write_verified_tsv(path: Path, cfg: RunConfig, result: PipelineResult) -> None:
    with open(path, "w") as fh:
        fh.write(f"# quadpcf verification\n# config-digest: {cfg.digest()}\n")
        fh.write("# sigma1\tsigma2\tmap\tstatus\tportrait\n")
        for cand, st in zip(result.survivors, result.statuses):
            fh.write("\t".join([str(cand.sigma1), str(cand.sigma2), str(cand.phi),
                                *_verdict(st)]) + "\n")


def pipeline_summary(cfg: RunConfig, result: PipelineResult) -> dict:
    return {
        "config_digest": cfg.digest(),
        "h1": cfg.h1,
        "h2": cfg.h2,
        "prime_count": len(cfg.prime_list),
        "survivors": [
            {
                "sigma1": str(c.sigma1),
                "sigma2": str(c.sigma2),
                "map": str(c.phi),
                "resultant": c.resultant,
                "critical_points": "rational" if c.critical_rational else "irrational",
                "modular_evidence_primes": c.primes_used,
                "status": _verdict(st)[0],
            }
            for c, st in zip(result.survivors, result.statuses)
        ],
        "verified_count": sum(1 for st in result.statuses if st.verified),
        "undetermined_count": sum(1 for st in result.statuses if not st.verified),
    }


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------

def _cmd_verify(args) -> int:
    maps = [_sigma_map(part, "--sigmas") for part in args.sigmas.split(";")]
    bad = 0
    print(f"# exact-iteration budget {pcfverify.DEFAULT_BUDGET}, "
          f"size cutoff {pcfverify.DEFAULT_SIZE_CUTOFF} (artifact parameters)")
    for phi in maps:
        st = pcfverify.critical_orbit_portrait(phi)
        bad += not st.verified
        print("({},{})\t".format(*phi.sigmas) + "\t".join(_verdict(st)))
    return EXIT_OK if bad == 0 else EXIT_ERROR


def _cmd_pipeline(args) -> int:
    import json
    cfg = _config_from_args(args)
    outdir = Path(cfg.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise InputError(f"--outdir: {e}") from None
    result = run_pipeline(cfg)
    summary = pipeline_summary(cfg, result)
    try:
        write_survivors_tsv(outdir / "survivors.tsv", cfg, result.survivors)
        write_verified_tsv(outdir / "verified.tsv", cfg, result)
        with open(outdir / "summary.json", "w") as fh:
            json.dump(summary, fh, sort_keys=True, indent=2)
            fh.write("\n")
    except OSError as e:
        raise InputError(f"--outdir: {e}") from None
    for item in summary["survivors"]:
        print("\t".join([item["sigma1"], item["sigma2"], item["map"], item["status"]]))
    print(f"# {summary['verified_count']} verified PCF, "
          f"{summary['undetermined_count']} undetermined; artifacts in {outdir}")
    return EXIT_OK


def _cmd_portrait(args) -> int:
    st = pcfverify.critical_orbit_portrait(_input_map(args))
    if not st.verified:
        print(f"UNDETERMINED: {st.reason}")
        return EXIT_ERROR
    _write_dot(args.dot, st.portrait, "portrait")
    for line in st.portrait.edge_lines():
        print(line)
    if args.dot:
        print(f"# DOT written to {args.dot}")
    return EXIT_OK


def _cmd_preper(args) -> int:
    bound = args.preper_height_bound
    # above the search's size cutoff a searched preperiodic point would
    # be called divergent, and it would leave the graph without a word
    if not 1 <= bound <= preper.DEFAULT_SIZE_CUTOFF:
        raise ValueError(f"--preper-height-bound: {bound} is not "
                         f"in [1, {preper.DEFAULT_SIZE_CUTOFF}]")
    phi = _input_map(args)
    graph = preper.rational_preperiodic_graph(phi, bound)
    _write_dot(args.dot, graph, "preperiodic")
    print(f"# bounded search: heights <= {bound}, "
          f"{preper.DEFAULT_STEP_BUDGET} steps, size cutoff {preper.DEFAULT_SIZE_CUTOFF}; "
          "completeness beyond the known catalogs is heuristic")
    print(f"# {len(graph)} rational preperiodic points")
    for line in graph.edge_lines():
        print(line)
    for pt in graph.unresolved:
        print(f"# unresolved candidate: {pt}")
    if args.dot:
        print(f"# DOT written to {args.dot}")
    return EXIT_OK


def _cmd_classify_twist(args) -> int:
    if args.psi1_b is not None:
        cls = _read(ExtendedRational.from_str, args.psi1_b, "--psi1-b", _RATIONAL,
                    preper.classify_psi1_twist)
    else:
        cls = _input_map(args, preper.classify_psi2_map)
    print(f"{cls.id}\t{cls.description}")
    print(f"# representative: {cls.representative}")
    for line in cls.graph.edge_lines():
        print(line)
    return EXIT_OK


TEN_SIGMA_PAIRS: Tuple[Tuple[ExtendedRational, ExtendedRational], ...] = (
    (Rat(2), Rat(-8)), (Rat(2), Rat(-4)), (Rat(-6), Rat(4)), (Rat(-6), Rat(8)),
    (Rat(-2), Rat(4)), (Rat(-2, 3), Rat(4, 3)), (Rat(-6), Rat(10)),
    (Rat(-2), Rat(0)), (Rat(-2), Rat(2)), (Rat(-10, 3), Rat(20, 3)),
)


def _cmd_catalog(args) -> int:
    import json
    data = {"trivial_stabilizer_maps": [], "sq_twist_classes": [],
            "invsq_twist_classes": [], "power_map_components": {}}
    for s1, s2 in TEN_SIGMA_PAIRS:
        phi = NormalizedQuadMap.from_sigmas(s1, s2)
        st = pcfverify.critical_orbit_portrait(phi)
        data["trivial_stabilizer_maps"].append({
            "sigma1": str(s1), "sigma2": str(s2), "map": str(phi),
            "portrait": st.portrait.edge_lines(),
        })
    for b in ("1", "1/2", "-3/2", "-1/2"):
        cls = preper.classify_psi1_twist(ExtendedRational.from_str(b))
        data["sq_twist_classes"].append({
            "b": b, "class": cls.id, "description": cls.description,
            "graph": cls.graph.edge_lines(),
        })
    for cls in preper.invsq_catalog():
        data["invsq_twist_classes"].append({
            "class": cls.id, "description": cls.description,
            "representative": str(cls.representative),
            "graph": cls.graph.edge_lines(),
        })
    for name, variant, deg in (("square_deg2", preper.SQUARE, 2),
                               ("inverse_square_deg6", preper.INVERSE_SQUARE, 6)):
        comps = preper.power_map_low_degree_preperiodic(variant, deg)
        data["power_map_components"][name] = [c.edge_lines() for c in comps]
    if args.json:
        json.dump(data, sys.stdout, sort_keys=True, indent=2)
        print()
    else:
        print("== quadratic PCF maps over Q with trivial stabilizer ==")
        for item in data["trivial_stabilizer_maps"]:
            print(f"sigma=({item['sigma1']},{item['sigma2']})  {item['map']}")
            for line in item["portrait"]:
                print("   " + line)
        print("== preperiodic structures: twists of z^2 ==")
        for item in data["sq_twist_classes"]:
            print(f"b={item['b']}: {item['class']}  ({item['description']})")
            for line in item["graph"]:
                print("   " + line)
        print("== preperiodic structures: twists of 1/z^2 ==")
        for item in data["invsq_twist_classes"]:
            print(f"{item['class']}  rep {item['representative']}")
            for line in item["graph"]:
                print("   " + line)
        print("== power map components ==")
        for name, comps in data["power_map_components"].items():
            print(f"{name}: {len(comps)} components, "
                  f"sizes {sorted(len(c) for c in comps)}")
    return EXIT_OK


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

# each flag once, with its type, default and help
FLAGS = {
    "--primes": dict(type=int,
                     help=f"number of odd primes (default {len(RunConfig().prime_list)})"),
    "--prime-list": dict(help="explicit comma-separated odd primes"),
    "--h1": dict(type=int, help="height bound for sigma1"),
    "--h2": dict(type=int, help="height bound for sigma2"),
    "--preper-height-bound": dict(type=int, default=preper.DEFAULT_HEIGHT_BOUND,
                                  help="height bound of the searched points"),
    "--outdir": dict(help="artifact directory"),
    "--dot": dict(help="write Graphviz DOT here"),
    "--json": dict(action="store_true"),
    "--sigmas": dict(help='sigma pair like "2,-8"; verify takes several, "2,-8;-6,4"'),
    "--map": dict(help='map as "[f2,f1,f0]/[g2,g1,g0]"'),
    "--psi1-b": dict(help="b of the z^2 twist z/2 + b/z"),
    "--psi2-t": dict(help="t of the 1/z^2 twist t/z^2"),
    "--psi2-dk": dict(help='pair "d,k" of the 1/z^2 normal form'),
}

# name, handler, help, flags, and the inputs of which exactly one is given
COMMANDS = (
    ("verify", _cmd_verify, "exactly verify critical-orbit finiteness",
     "", "--sigmas"),
    ("pipeline", _cmd_pipeline, "sieve + verify, writing artifacts",
     "--primes --prime-list --h1 --h2 --outdir", ""),
    ("portrait", _cmd_portrait, "critical portrait of one map",
     "--dot", "--map --sigmas"),
    ("preper", _cmd_preper, "rational preperiodic graph of one map",
     "--preper-height-bound --dot", "--map --sigmas"),
    ("classify-twist", _cmd_classify_twist, "symmetry-locus structure class",
     "", "--psi1-b --psi2-t --psi2-dk --map"),
    ("catalog", _cmd_catalog, "print the computed structure catalogs", "--json", ""),
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quadpcf",
        description="search, sieve and certification of quadratic PCF maps over Q")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, func, help_text, flags, inputs in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        for flag in flags.split():
            p.add_argument(flag, **FLAGS[flag])
        if inputs:
            group = p.add_mutually_exclusive_group(required=True)
            for flag in inputs.split():
                group.add_argument(flag, **FLAGS[flag])
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout is gone: Python's recipe points stdout at
        # devnull, so that the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_ERROR
    except CatalogMatchError as e:
        print(f"error: catalog-mismatch: {e}", file=sys.stderr)
        return EXIT_CATALOG_MISMATCH
    except (ValueError, OSError) as e:
        print(f"error: invalid-input: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
