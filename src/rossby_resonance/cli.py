"""Command-line front end: argument parsing, dispatch and printing only.

The result-file format (header, records, their checks on reading) belongs
to partner_search; this module passes text and open files through.

Subcommands: check, partners, enumerate, clusters, verify-axis, verify-lemma,
verify-identity, family, stats. Exit codes: 0 on success, 1 when a verify-*
run finds a counterexample, 2 on usage errors (including inadmissible check
inputs and unwritable paths).

Flags are the only settings: a command's output depends on its arguments
and the files they name, and on nothing in the environment.

Each _cmd_* function imports what it runs, and json is imported only where
--out writes a verification report, so a command loads only its own
modules: start-up is mostly compiling them when no bytecode is cached.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .partner_search import EnumerationReport
    from .verification import VerificationReport


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _bins(text: str) -> int:
    """--bins, checked here so that a bad value exits before the work;
    stats_anisotropy keeps the same check for library callers."""
    value = _positive_int(text)
    if value < 4 or value % 2 != 0:
        raise argparse.ArgumentTypeError(f"bins must be an even number >= 4, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rossby-resonance",
        description="Exact resonant-triad search and verification on the wavenumber lattice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide whether (n, k) is an exact resonant pair")
    p.add_argument("n1", type=int)
    p.add_argument("n2", type=int)
    p.add_argument("x", type=int)
    p.add_argument("y", type=int)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("partners", help="complete partner list of a wavenumber")
    p.add_argument("n1", type=int)
    p.add_argument("n2", type=int)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_partners)

    p = sub.add_parser("enumerate", help="enumerate triads and resonant-set members in a box")
    p.add_argument("--max-norm", type=_positive_int, required=True)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--cache", metavar="PATH")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_enumerate)

    _add_report_command(sub, "clusters", "connected components of the resonance graph",
                        _cmd_clusters)

    p = sub.add_parser("verify-axis", help="sweep the zonal axis for resonant decompositions")
    p.add_argument("--max", dest="n1_max", type=_positive_int, required=True)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_verify_axis)

    p = sub.add_parser("verify-lemma", help="perfect-square sweep of X^4 + X^2 Y^2 + Y^4")
    p.add_argument("--max", dest="b_max", type=_positive_int, required=True)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_verify_lemma)

    p = sub.add_parser("verify-identity", help="randomized check of the on-axis quartic reduction")
    p.add_argument("--samples", type=_positive_int, default=1000)
    p.add_argument("--bound", type=_positive_int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_verify_identity)

    p = sub.add_parser("family", help="generate the (m^4, m l^3) resonant family")
    p.add_argument("--m-max", type=_positive_int, required=True)
    p.add_argument("--l-max", type=_positive_int, required=True)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_family)

    _add_report_command(sub, "stats", "angular histogram of resonant-set members",
                        _cmd_stats, bins=True)

    return parser


def _add_report_command(sub, name, help_text, func, bins=False) -> None:
    """A subcommand that reads a result file (--in) or enumerates a box
    (--max-norm, --jobs); see _load_report."""
    p = sub.add_parser(name, help=help_text)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--in", dest="in_path", metavar="PATH")
    src.add_argument("--max-norm", type=_positive_int)
    if bins:
        p.add_argument("--bins", type=_bins, default=16)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=func)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_check(args) -> int:
    from .exact_core import residual

    res = residual((args.n1, args.n2), (args.x, args.y))
    verdict = "resonant" if res == 0 else "not resonant"
    print(f"{verdict}, residual {res.numerator}/{res.denominator}")
    return 0


def _cmd_partners(args) -> int:
    from .partner_search import find_partners

    partners = find_partners((args.n1, args.n2))
    _write_text(args.out, "".join(f"{k.n1} {k.n2}\n" for k in partners))
    return 0


def _cmd_enumerate(args) -> int:
    from .partner_search import enumerate_lambda, report_to_jsonl

    if (
        args.out is not None
        and args.cache is not None
        and os.path.exists(args.cache)
        and os.path.samefile(args.out, args.cache)
    ):
        # run has created --out, so one naming the cache exists; the result would overwrite it
        raise ValueError(f"--out and --cache name the same file: {args.out}")
    report = enumerate_lambda(args.max_norm, jobs=args.jobs, cache_path=args.cache)
    _write_text(args.out, report_to_jsonl(report))
    print(_stats_summary(report), file=sys.stderr)
    return 0


def _cmd_clusters(args) -> int:
    from .cluster_graph import build_components, clusters_to_json

    report = _load_report(args)
    components = build_components(report.triads)
    _write_text(args.out, clusters_to_json(components, report.max_norm))
    return 0


def _cmd_stats(args) -> int:
    from .partner_search import histogram_to_csv, stats_anisotropy

    report = _load_report(args)
    hist = stats_anisotropy(report, args.bins)
    _write_text(args.out, histogram_to_csv(hist))
    print(
        f"members {sum(hist.counts)}, axis_count {hist.axis_count}",
        file=sys.stderr,
    )
    return 0


def _load_report(args) -> EnumerationReport:
    from .partner_search import enumerate_lambda, read_report

    if args.in_path is None:
        return enumerate_lambda(args.max_norm, jobs=args.jobs)
    try:
        with open(args.in_path, "r", encoding="utf-8") as fh:
            return read_report(fh)
    except ValueError as exc:  # a malformed record or header, a triad outside the box, non-UTF-8
        raise ValueError(f"{args.in_path}: {exc}") from exc


def _stats_summary(report: EnumerationReport) -> str:
    s = report.stats
    return (
        f"max_norm {report.max_norm}: {s['quadrant_points']} quadrant points, "
        f"{len(report.lambda_members)} resonant members, {len(report.triads)} triads "
        f"({s['wall_time_ms']['total']:.0f} ms, jobs {s['jobs']}, "
        f"cache hits {s['cache_hits']})"
    )


def _emit_verification(args, report: VerificationReport) -> int:
    summary = f"{len(report.counterexamples)} counterexamples / {report.checked} cases"
    if report.seed is not None:
        summary += f" (seed {report.seed})"
    print(summary)
    if args.out:
        import json

        _write_text(args.out, json.dumps(report.to_json_dict(), indent=2) + "\n")
    return 1 if report.counterexamples else 0


def _cmd_verify_axis(args) -> int:
    from .verification import verify_axis_theorem

    return _emit_verification(args, verify_axis_theorem(args.n1_max))


def _cmd_verify_lemma(args) -> int:
    from .verification import verify_diophantine_lemma

    return _emit_verification(args, verify_diophantine_lemma(args.b_max))


def _cmd_verify_identity(args) -> int:
    from .verification import check_proof_identity

    return _emit_verification(
        args, check_proof_identity(args.samples, args.bound, seed=args.seed)
    )


def _cmd_family(args) -> int:
    from .partner_search import family_to_jsonl

    _write_text(args.out, family_to_jsonl(args.m_max, args.l_max))
    return 0


def run(argv) -> int:
    """Dispatch a command line; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    out = getattr(args, "out", None)
    if out is not None and os.path.islink(out):
        # created and removed at its target, so that a dangling link stays a link
        out = os.path.realpath(out)
    created = False
    status = None
    try:
        if out is not None:
            # an unwritable --out fails before the work; an existing file keeps its content
            try:
                open(out, "x", encoding="utf-8").close()
                created = True
            except FileExistsError:
                open(out, "a", encoding="utf-8").close()
        status = args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        status = 2
    finally:
        if created and status in (None, 2):
            # a failed or interrupted command leaves no new file behind
            with contextlib.suppress(OSError):
                os.remove(out)
    return status


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
