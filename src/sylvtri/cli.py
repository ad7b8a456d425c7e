"""Command-line interface: construct, verify, export, and tabulate.

Batch-oriented and deterministic: machine-readable output carries no
timestamps, and identical flags produce identical files.  Exit codes are
a stable contract: 0 success, 2 feasibility refusal, 3 verification
failure, 4 parse error, 5 domain error or a file that cannot be written.

Each command builds only its own subparser (COMMANDS is the one table of
the five): a `sylvtri` process runs one command, and building the other
four was most of its argument parsing.  Usage and error lines do not
change, for the reasons given in build_parser.  Nothing is built at
import or kept between calls.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
import time

from . import exact, invariants, pipeline, witness
from .errors import (
    ArtifactFormatError,
    DomainError,
    FeasibilityLimit,
    SylvtriError,
    VerificationFailure,
)
from .family import Family

EXIT_OK = 0
EXIT_FEASIBILITY = 2
EXIT_VERIFICATION = 3
EXIT_PARSE = 4
EXIT_DOMAIN = 5


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--quiet", action="store_true", help="suppress timing output")


def _triangulate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--family", required=True, choices=[f.value for f in Family]
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True, help="artifact output path")
    p.add_argument("--max-cells", type=int, default=pipeline.MAX_CELLS)
    p.add_argument("--cache-dir", default=None)
    _add_common(p)


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("path")
    p.add_argument(
        "--mode",
        choices=["full", "local"],
        default="full",
        help="kept for old scripts: both run the one structural proof, the "
        "facet join with its orientation and volume checks",
    )
    _add_common(p)


def _fan_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("path")
    p.add_argument("--out", required=True)
    _add_common(p)


def _invariants_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--csv", action="store_true", help="emit CSV instead of text")


def _stats_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("path")
    _add_common(p)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `sylvtri` parser with every subcommand, or with `command`'s alone.

    main passes the command when argv[0] names one, and so builds one
    subparser instead of five.  Its output is the full parser's: argparse
    hands everything after the command to that subparser, whose prog is
    `sylvtri <command>` whatever its siblings are, and the top-level
    parser then prints only its usage line (on unrecognized arguments),
    which the metavar below makes the full parser's.  The full parser
    keeps argparse's default metavar, since its errors name the argument
    by it ("the following arguments are required: command").
    """
    parser = argparse.ArgumentParser(
        prog="sylvtri",
        description="certified unimodular triangulations of Sylvester-weighted "
        "simplices and their toric resolution fans",
    )
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        metavar=None if command is None else "{" + ",".join(COMMANDS) + "}",
    )
    for name, (help_, add_arguments, _) in COMMANDS.items():
        if command in (None, name):
            add_arguments(sub.add_parser(name, help=help_))
    return parser


def _validate(args) -> None:
    if getattr(args, "n", 1) < 1:
        raise DomainError("--n must be >= 1")
    if getattr(args, "n_max", 1) < 1:
        raise DomainError("--n-max must be >= 1")


def cmd_triangulate(args) -> int:
    t0 = time.monotonic()
    art = pipeline.triangulate(
        Family(args.family), args.n, args.max_cells, args.cache_dir
    )
    pipeline.save(art, args.out)
    cert = art.certificate
    line = (
        f"{args.family} {args.n} cells={len(art.triangulation.cells)} "
        f"points={len(art.triangulation.points)} "
        f"regular={str(cert.regular).lower()} "
        f"unimodular={str(cert.structure.unimodular).lower()}"
    )
    if not args.quiet:
        line += f" elapsed={time.monotonic() - t0:.2f}s"
    print(line)
    if not (cert.structure.unimodular and cert.regular):
        print("provenance:", list(art.provenance), file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_verify(args) -> int:
    art = pipeline.load(args.path)
    cert = art.certificate
    rep = cert.structure
    print(
        f"valid={str(rep.valid).lower()} "
        f"simplicial={str(rep.simplicial).lower()} "
        f"unimodular={str(rep.unimodular).lower()} "
        f"regular={str(cert.regular).lower()} "
        f"checksum={exact.number_str(rep.volume_checksum)}"
    )
    for f in rep.failures[:10]:
        print("failure:", f, file=sys.stderr)
    if rep.first_non_unimodular is not None:
        c, vol = rep.first_non_unimodular
        print(f"not unimodular: cell {c} normalized volume {vol}", file=sys.stderr)
    for pair in cert.violating_pairs[:10]:
        print(witness.violation_line(pair), file=sys.stderr)
    return EXIT_OK if rep.unimodular and cert.regular else EXIT_VERIFICATION


def cmd_fan(args) -> int:
    art = pipeline.load(args.path)
    fan = invariants.fan_from_triangulation(art)
    invariants.save_fan(fan, args.out)
    print(
        " ".join(k for k, v in fan.flags.items() if v) or "(no flags)",
        f"rays={len(fan.rays)} cones={len(fan.cones)}",
    )
    return EXIT_OK if all(fan.flags.values()) else EXIT_VERIFICATION


def cmd_invariants(args) -> int:
    header = [f.name for f in dataclasses.fields(invariants.InvariantReport)]
    table = [
        ["" if x is None else x for x in dataclasses.astuple(r)]
        for r in invariants.invariant_table(args.n_max)
    ]
    if args.csv:
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(table)
        return EXIT_OK
    widths = [
        max(len(str(h)), *(len(str(row[i])) for row in table))
        for i, h in enumerate(header)
    ]
    print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for row in table:
        print("  ".join(str(x).rjust(w) for x, w in zip(row, widths)))
    return EXIT_OK


def cmd_stats(args) -> int:
    art = pipeline.load(args.path)
    t = art.triangulation
    print(
        f"{art.spec.family.value} n={art.spec.n} "
        f"points={len(t.points)} cells={len(t.cells)} "
        f"dim={t.ambient_dim} provenance_steps={len(art.provenance)}"
    )
    return EXIT_OK


# name -> (help line, argument adder, handler), in usage order
COMMANDS = {
    "triangulate": (
        "construct a certified triangulation", _triangulate_args, cmd_triangulate
    ),
    "verify": ("verify a stored artifact", _verify_args, cmd_verify),
    "fan": ("export the resolution fan of an artifact", _fan_args, cmd_fan),
    "invariants": ("print the invariant tables", _invariants_args, cmd_invariants),
    "stats": ("summarize a stored artifact", _stats_args, cmd_stats),
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        _validate(args)
        return COMMANDS[args.command][2](args)
    except FeasibilityLimit as e:
        print(f"feasibility refusal: {e}", file=sys.stderr)
        return EXIT_FEASIBILITY
    except VerificationFailure as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return EXIT_VERIFICATION
    except ArtifactFormatError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (DomainError, SylvtriError) as e:
        print(f"domain error: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as e:  # an output or cache path that cannot be written
        print(f"file error: {e}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
