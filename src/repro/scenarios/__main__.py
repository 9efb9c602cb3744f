"""CLI: ``python -m repro.scenarios {list | show | run | corpus | chaos | service}``.

The scenario subsystem's command line — list the generator families,
print the spec at a ``(family, seed, index)`` coordinate, replay one
spec through the differential oracle, sweep a whole corpus and write a
machine-readable JSON report, run the chaos oracle (fault injection
+ self-healing verdicts) over the ``faulty_*`` corpus, or replay a
corpus through the scheduling service's differential oracle
(:mod:`repro.service.differential` — service responses vs direct
``Session`` calls).  Every oracle failure prints the exact ``run``
command that reproduces it standalone, which is also what the
integration suite embeds in its assertion messages.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.scenarios.generators import (
    FAMILIES,
    family_names,
    generate,
    iter_corpus,
)
from repro.scenarios.oracle import full_matrix, run_corpus

_DEFAULT_SEED = 2008  # the paper's year, like the experiment suite


def _matrix_from_args(args) -> tuple:
    workers = tuple(int(w) for w in args.workers.split(",")) \
        if args.workers else (1, 2)
    return full_matrix(workers=workers)


def _report_payload(reports, elapsed: float) -> dict:
    return {
        "ok": all(r.ok for r in reports),
        "specs": len(reports),
        "paths_per_spec": len(reports[0].paths) if reports else 0,
        "elapsed_s": round(elapsed, 3),
        "results": [
            {
                **r.to_row(),
                "violations_detail": list(r.violations),
                "reproduce": r.spec.cli_command(),
            }
            for r in reports
        ],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="Deterministic scenarios + the differential oracle.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the generator families")

    def _coordinate_args(p):
        p.add_argument("family", choices=sorted(FAMILIES),
                       help="generator family")
        p.add_argument("--seed", type=int, default=_DEFAULT_SEED)
        p.add_argument("--index", type=int, default=0)

    show = sub.add_parser("show", help="print the spec at a coordinate")
    _coordinate_args(show)

    def _matrix_args(p):
        p.add_argument("--workers", default=None,
                       help="comma list (default: 1,2)")
        p.add_argument("--json", metavar="PATH", default=None,
                       help="also write a JSON report")

    run = sub.add_parser(
        "run", help="replay one spec through the oracle")
    _coordinate_args(run)
    _matrix_args(run)

    corpus = sub.add_parser(
        "corpus", help="run the oracle over families x indices")
    corpus.add_argument("--families", default=None,
                        help="comma list (default: all)")
    corpus.add_argument("--seed", type=int, default=_DEFAULT_SEED)
    corpus.add_argument("--count", type=int, default=4,
                        help="specs per family (indices 0..count-1)")
    _matrix_args(corpus)

    chaos = sub.add_parser(
        "chaos",
        help="chaos oracle: every injected fault masked or "
             "detected-and-repaired")
    chaos.add_argument("--families",
                       default="faulty_byzantine,faulty_flaky",
                       help="comma list (default: the faulty_* families)")
    chaos.add_argument("--seed", type=int, default=_DEFAULT_SEED)
    chaos.add_argument("--count", type=int, default=4,
                       help="specs per family (indices 0..count-1)")
    chaos.add_argument("--json", metavar="PATH", default=None,
                       help="also write a JSON report")

    service = sub.add_parser(
        "service",
        help="replay a corpus through the scheduling service and diff "
             "against direct Session calls")
    service.add_argument("--families", default=None,
                         help="comma list (default: the service "
                              "differential's corpus)")
    service.add_argument("--seed", type=int, default=_DEFAULT_SEED)
    service.add_argument("--count", type=int, default=2,
                         help="specs per family (indices 0..count-1)")
    service.add_argument("--transport", choices=("inproc", "wire"),
                         default="inproc",
                         help="wire: replay through the socket front end")
    service.add_argument("--json", metavar="PATH", default=None,
                         help="also write a JSON report")

    args = parser.parse_args(argv)

    if args.command == "list":
        for name in family_names():
            print(f"{name}: {FAMILIES[name].description}")
        return 0

    if args.command == "show":
        spec = generate(args.family, args.seed, args.index)
        print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
        return 0

    if args.command == "chaos":
        return _run_chaos_command(parser, args)

    if args.command == "service":
        return _run_service_command(parser, args)

    matrix = _matrix_from_args(args)
    if args.command == "run":
        specs = [generate(args.family, args.seed, args.index)]
    else:
        families = (args.families.split(",") if args.families
                    else family_names())
        unknown = [name for name in families if name not in FAMILIES]
        if unknown:
            parser.error(
                f"unknown families: {', '.join(unknown)}; known: "
                f"{', '.join(family_names())}")
        specs = list(iter_corpus(families, args.seed, args.count))

    start = time.perf_counter()
    reports = run_corpus(specs, paths=matrix)
    elapsed = time.perf_counter() - start

    for report in reports:
        print(report.summary())
    failures = sum(not r.ok for r in reports)
    print(f"{len(reports)} spec(s) x {len(matrix)} paths in "
          f"{elapsed:.1f}s — {failures} failure(s)")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(_report_payload(reports, elapsed), handle, indent=2,
                      sort_keys=True)
        print(f"wrote {args.json}")

    return 1 if failures else 0


def _run_service_command(parser, args) -> int:
    from repro.service.differential import run_differential

    families = tuple(args.families.split(",")) if args.families else None
    if families:
        unknown = [name for name in families if name not in FAMILIES]
        if unknown:
            parser.error(
                f"unknown families: {', '.join(unknown)}; known: "
                f"{', '.join(family_names())}")

    kwargs = {"seed": args.seed, "count": args.count,
              "transport": args.transport}
    if families:
        kwargs["families"] = families
    report = run_differential(**kwargs)

    for mismatch in report["mismatches"]:
        print(f"[FAIL] {mismatch['spec']} "
              f"response={mismatch['response']}")
    status = "OK" if report["ok"] else "FAIL"
    transport_note = ("wire transport" if report["transport"] == "wire"
                      else "in-process")
    print(f"[{status}] {report['specs']} spec(s) ({transport_note}) — "
          f"{report['responses_compared']} responses compared, "
          f"{report['batched_dispatches']} batched dispatches, "
          f"{len(report['mismatches'])} mismatch(es)")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")

    return 0 if report["ok"] else 1


def _run_chaos_command(parser, args) -> int:
    from repro.scenarios.chaos import run_chaos_corpus

    families = args.families.split(",")
    unknown = [name for name in families if name not in FAMILIES]
    if unknown:
        parser.error(
            f"unknown families: {', '.join(unknown)}; known: "
            f"{', '.join(family_names())}")
    specs = list(iter_corpus(families, args.seed, args.count))

    start = time.perf_counter()
    reports = run_chaos_corpus(specs)
    elapsed = time.perf_counter() - start

    for report in reports:
        print(report.summary())
    failures = sum(not r.ok for r in reports)
    masked = sum(r.ok and r.masked for r in reports)
    print(f"{len(reports)} spec(s) in {elapsed:.1f}s — {masked} masked, "
          f"{sum(r.ok and not r.masked for r in reports)} repaired, "
          f"{failures} failure(s)")

    if args.json:
        payload = {
            "ok": not failures,
            "specs": len(reports),
            "masked": masked,
            "repaired": sum(r.ok and not r.masked for r in reports),
            "elapsed_s": round(elapsed, 3),
            "results": [
                {
                    **r.to_row(),
                    "violations_detail": list(r.violations),
                    "reproduce": r.spec.cli_command(),
                }
                for r in reports
            ],
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
