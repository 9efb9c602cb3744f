"""Command-line front end: ``python -m repro.service <command>``.

Commands:

* ``bench`` — run the deterministic load generator batched (one
  ``bulk``) and unbatched (one ``call`` per request), and report
  throughput/latency/speedup (the CI smoke leg runs this with
  ``--check``: non-zero batched dispatches, zero failures, clean
  shutdown, or exit 1).  ``--transport wire`` runs the same workload
  through the socket front end instead (pipelined ``bulk`` frames
  against one frame per request).
* ``differential`` — replay a scenario corpus through the service and
  directly, diff every canonical response, exit 1 on any mismatch
  (``--transport wire`` replays through the socket front end).
* ``serve`` — bind a wire server over one scheduling service and
  serve until a ``shutdown`` op or SIGINT.  ``--announce`` prints a
  ``{"host": ..., "port": ...}`` JSON line once bound, for a parent
  process that launched it on port 0.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any


def _finite(value: float | None) -> float | None:
    """JSON-safe latency: ``inf`` (histogram overflow) becomes None."""
    if value is None or math.isinf(value):
        return None
    return value


def _bench_report(args: argparse.Namespace) -> dict[str, Any]:
    # Imported per command, so ``serve`` never compiles the load
    # generator or the oracle.
    from repro.service import loadgen

    workload = loadgen.build_workload(
        args.seed, sessions=args.sessions, requests=args.requests)
    run = loadgen.execute_wire if args.transport == "wire" \
        else loadgen.execute
    batched = run(workload)
    unbatched = run(workload, bulk=False)
    speedup = (batched.throughput_rps / unbatched.throughput_rps
               if unbatched.throughput_rps > 0 else 0.0)
    verify_latency = batched.metrics.latencies.get("assign")
    return {
        "seed": args.seed,
        "sessions": args.sessions,
        "requests": args.requests,
        "transport": args.transport,
        "batched": batched.to_dict(),
        "unbatched": unbatched.to_dict(),
        "batching_speedup": speedup,
        "assign_p50_s": (_finite(verify_latency.p50)
                         if verify_latency else 0.0),
        "assign_p99_s": (_finite(verify_latency.p99)
                         if verify_latency else 0.0),
    }


def _cmd_bench(args: argparse.Namespace) -> int:
    report = _bench_report(args)
    print(json.dumps(report, indent=None if args.json else 2,
                     sort_keys=True))
    if not args.check:
        return 0
    batched = report["batched"]
    problems = []
    if batched["batched_dispatches"] <= 0:
        problems.append("no batched dispatches (coalescing never fired)")
    if batched["failed"] or report["unbatched"]["failed"]:
        problems.append(f"failed requests: batched={batched['failed']} "
                        f"unbatched={report['unbatched']['failed']}")
    if batched["completed"] != report["requests"]:
        problems.append(f"only {batched['completed']} of "
                        f"{report['requests']} requests completed")
    for problem in problems:
        print(f"bench check failed: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _cmd_differential(args: argparse.Namespace) -> int:
    from repro.service import differential

    families = args.families or differential._DEFAULT_FAMILIES
    report = differential.run_differential(
        families=tuple(families), seed=args.seed, count=args.count,
        transport=args.transport)
    print(json.dumps(report, indent=None if args.json else 2,
                     sort_keys=True))
    if not report["ok"]:
        print(f"differential: {len(report['mismatches'])} mismatched "
              f"responses", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import SchedulingService
    from repro.service.store import SessionStore
    from repro.service.transport.server import WireServer

    service = SchedulingService(SessionStore(),
                                default_timeout=args.default_timeout)
    server = WireServer(service, host=args.host, port=args.port)
    host, port = server.address
    if args.announce:
        print(json.dumps({"host": host, "port": port}), flush=True)
    else:
        print(f"serving on {host}:{port}; stop with a shutdown op or "
              f"Ctrl-C", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        service.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Scheduling-service load generator, oracle and "
                    "wire server.")
    commands = parser.add_subparsers(dest="command", required=True)

    bench = commands.add_parser(
        "bench", help="serve a deterministic workload, batched vs not")
    bench.add_argument("--seed", type=int, default=2008)
    bench.add_argument("--sessions", type=int, default=8)
    bench.add_argument("--requests", type=int, default=512)
    bench.add_argument("--transport", choices=("inproc", "wire"),
                       default="inproc",
                       help="inproc: one bulk call vs one call per "
                            "request; wire: pipelined bulk frames vs "
                            "one frame per request over the socket "
                            "front end")
    bench.add_argument("--json", action="store_true",
                       help="single-line JSON output")
    bench.add_argument("--check", action="store_true",
                       help="exit 1 unless coalescing fired and every "
                            "request completed")
    bench.set_defaults(run=_cmd_bench)

    diff = commands.add_parser(
        "differential",
        help="service vs direct Session corpus replay (exit 1 on diff)")
    diff.add_argument("--families", nargs="+",
                      help="scenario families to replay (default: "
                           "every family the oracle covers)")
    diff.add_argument("--seed", type=int, default=2008)
    diff.add_argument("--count", type=int, default=2,
                      help="specs per family")
    diff.add_argument("--transport", choices=("inproc", "wire"),
                      default="inproc",
                      help="wire: replay through the socket front end")
    diff.add_argument("--json", action="store_true")
    diff.set_defaults(run=_cmd_differential)

    serve = commands.add_parser(
        "serve", help="bind a wire server and serve until shutdown")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="0 binds a free port (see --announce)")
    serve.add_argument("--default-timeout", type=float, default=None)
    serve.add_argument("--announce", action="store_true",
                       help="print a {host, port} JSON line once bound")
    serve.set_defaults(run=_cmd_serve)

    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
