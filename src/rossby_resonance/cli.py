"""Command-line front end.

Subcommands: check, partners, enumerate, clusters, verify-axis, verify-lemma,
verify-identity, family, stats. Exit codes: 0 on success, 1 when a verify-*
run finds a counterexample, 2 on usage errors (including inadmissible check
inputs and unwritable paths).

Configuration precedence: command-line flags, then the key=value file named
by the ROSSBY_RESONANCE_CONFIG environment variable, then built-in defaults.
Only the keys jobs, bins and seed may appear in the config file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cluster_graph import build_components, clusters_to_json
from .exact_core import residual
from .partner_search import (
    EnumerationReport,
    _dump_line,
    _triad_record,
    enumerate_lambda,
    find_partners,
    histogram_to_csv,
    read_triads_jsonl,
    report_from_triads,
    report_to_jsonl,
    stats_anisotropy,
)
from .verification import (
    VerificationReport,
    _family_triads,
    check_proof_identity,
    verify_axis_theorem,
    verify_diophantine_lemma,
)

_CONFIG_ENV = "ROSSBY_RESONANCE_CONFIG"
_CONFIG_KEYS = {"jobs": int, "bins": int, "seed": int}
_DEFAULTS = {"jobs": 1, "bins": 16, "seed": 0}


def _load_config(path: str | None) -> dict:
    values = dict(_DEFAULTS)
    if not path:
        return values
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _CONFIG_KEYS[key](value)
    return values


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser(defaults: dict) -> argparse.ArgumentParser:
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
    p.add_argument("--jobs", type=_positive_int, default=defaults["jobs"])
    p.add_argument("--cache", metavar="PATH")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("clusters", help="connected components of the resonance graph")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--in", dest="in_path", metavar="PATH")
    src.add_argument("--max-norm", type=_positive_int)
    p.add_argument("--jobs", type=_positive_int, default=defaults["jobs"])
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_clusters)

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
    p.add_argument("--seed", type=int, default=defaults["seed"])
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_verify_identity)

    p = sub.add_parser("family", help="generate the (m^4, m l^3) resonant family")
    p.add_argument("--m-max", type=_positive_int, required=True)
    p.add_argument("--l-max", type=_positive_int, required=True)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("stats", help="angular histogram of resonant-set members")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--in", dest="in_path", metavar="PATH")
    src.add_argument("--max-norm", type=_positive_int)
    p.add_argument("--bins", type=_positive_int, default=defaults["bins"])
    p.add_argument("--jobs", type=_positive_int, default=defaults["jobs"])
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_stats)

    return parser


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_check(args) -> int:
    res = residual((args.n1, args.n2), (args.x, args.y))
    verdict = "resonant" if res == 0 else "not resonant"
    print(f"{verdict}, residual {res}")
    return 0


def _cmd_partners(args) -> int:
    partners = find_partners((args.n1, args.n2))
    _write_text(args.out, "".join(f"{k.n1} {k.n2}\n" for k in partners))
    return 0


def _cmd_enumerate(args) -> int:
    report = enumerate_lambda(args.max_norm, jobs=args.jobs, cache_path=args.cache)
    _write_text(args.out, report_to_jsonl(report))
    print(_stats_summary(report), file=sys.stderr)
    return 0


def _cmd_clusters(args) -> int:
    report = _load_report(args)
    components = build_components(report.triads)
    _write_text(args.out, clusters_to_json(components, report.max_norm))
    return 0


def _cmd_stats(args) -> int:
    report = _load_report(args)
    hist = stats_anisotropy(report, args.bins)
    _write_text(args.out, histogram_to_csv(hist))
    print(
        f"members {sum(hist.counts)}, axis_count {hist.axis_count}",
        file=sys.stderr,
    )
    return 0


def _load_report(args) -> EnumerationReport:
    if args.in_path is not None:
        with open(args.in_path, "r", encoding="utf-8") as fh:
            header, triads = read_triads_jsonl(fh)
        max_norm = header.get("max_norm")
        if type(max_norm) is not int or max_norm < 1:
            raise ValueError(
                f"{args.in_path}: header max_norm must be an integer >= 1, got {max_norm!r}"
            )
        return report_from_triads(max_norm, triads)
    return enumerate_lambda(args.max_norm, jobs=args.jobs)


def _stats_summary(report: EnumerationReport) -> str:
    s = report.stats
    times = s.get("wall_time_ms", {})
    return (
        f"max_norm {report.max_norm}: {s.get('quadrant_points', 0)} quadrant points, "
        f"{len(report.lambda_members)} resonant members, {len(report.triads)} triads "
        f"({times.get('total', 0.0):.0f} ms, jobs {s.get('jobs', 1)}, "
        f"cache hits {s.get('cache_hits', 0)})"
    )


def _emit_verification(args, report: VerificationReport) -> int:
    summary = f"{len(report.counterexamples)} counterexamples / {report.checked} cases"
    if report.seed is not None:
        summary += f" (seed {report.seed})"
    print(summary)
    if args.out:
        _write_text(args.out, json.dumps(report.to_json_dict(), indent=2) + "\n")
    return 1 if report.counterexamples else 0


def _cmd_verify_axis(args) -> int:
    return _emit_verification(args, verify_axis_theorem(args.n1_max))


def _cmd_verify_lemma(args) -> int:
    return _emit_verification(args, verify_diophantine_lemma(args.b_max))


def _cmd_verify_identity(args) -> int:
    return _emit_verification(
        args, check_proof_identity(args.samples, args.bound, seed=args.seed)
    )


def _cmd_family(args) -> int:
    lines = [_dump_line({"schema": 1, "m_max": args.m_max, "l_max": args.l_max})]
    for n, triad in _family_triads(args.m_max, args.l_max):
        lines.append(_dump_line(_triad_record(triad, n)))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def run(argv) -> int:
    """Dispatch a command line; returns the process exit code."""
    try:
        defaults = _load_config(os.environ.get(_CONFIG_ENV))
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    parser = _build_parser(defaults)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
