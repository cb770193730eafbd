"""Command-line interface.

Subcommands:
  gen     generate an instance file from a named family
  opt     exact optimum (with witness) of an instance file
  run     one (instance, algorithm) run, reported as JSON or CSV
  batch   run a JSON manifest of runs, emitting a CSV report
  verify  replay an assignment log against an instance
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

from . import harness, oracle
from .algorithms import ALGORITHMS
from .errors import DomainError, MultiColorError
from .instance import validate_full

_DEFAULT_BUDGET = f"{oracle.DEFAULT_MAX_NODES},{oracle.DEFAULT_MAX_REQUESTS}"


def _parse_budget(text):
    try:
        nodes, requests = (int(x) for x in text.split(","))
        if nodes < 0 or requests < 0:
            raise ValueError
    except ValueError:
        raise DomainError(f"--budget must be NODES,REQUESTS, got {text!r}") from None
    return nodes, requests


class _Stdout:
    """stdout as a write-only text stream: each string goes as UTF-8 bytes to
    its byte buffer, whatever the stream's own encoding, or as text to a
    stdout with no byte buffer (such as a StringIO); a character that UTF-8
    cannot encode (a lone surrogate) goes as its \\uXXXX escape."""

    def __init__(self):
        self.buffer = getattr(sys.stdout, "buffer", None)
        if self.buffer is not None:
            sys.stdout.flush()  # whatever went through the text layer goes first

    def write(self, text):
        data = text.encode("utf-8", "backslashreplace")
        return sys.stdout.write(data.decode()) if self.buffer is None else self.buffer.write(data)


def _output(out):
    """A context manager giving a text stream that writes UTF-8 to the file
    out, or to stdout as _Stdout writes; either way a character that UTF-8
    cannot encode goes as its \\uXXXX escape."""
    if out is not None:
        return open(harness._file_name(out), "w", encoding="utf-8", errors="backslashreplace")
    return contextlib.nullcontext(_Stdout())


def _write_out(text, out):
    """Write text to the file out, or to stdout, as _output writes."""
    with _output(out) as fh:
        fh.write(text)


def cmd_gen(args):
    from . import adversary  # only gen needs it; other commands skip its compile

    if args.family == "path_family":
        instance = adversary.path_instance(args.n, args.i)
    elif args.family == "hex_chain":
        if not args.branch or args.branch.strip("01"):
            raise DomainError(f"--branch must be one or more 0s and 1s, got {args.branch!r}")
        branch = tuple(map(int, args.branch))
        instance = adversary.hex_chain(len(branch), branch, pad_requests=args.pad)
    elif args.family == "hex_54":
        instance = adversary.hex_54(args.p, args.i)
    elif args.family == "random":
        instance = adversary.random_instance(
            args.kind, seed=args.seed, n_nodes=args.nodes, n_requests=args.requests)
    else:  # random_cancel; argparse refuses any other family
        instance = adversary.random_cancel_instance(
            seed=args.seed, n_nodes=args.nodes, n_requests=args.requests)
    _write_out(harness.instance_text(instance), args.out)
    return 0


def cmd_opt(args):
    instance = harness.load_instance(args.instance)
    max_nodes, max_requests = _parse_budget(args.budget)
    witness = oracle.opt_exact(instance, max_nodes=max_nodes, max_requests=max_requests)
    payload = {
        "opt": witness.opt_value,
        "coloring": {v: sorted(c) for v, c in witness.coloring.items()},
    }
    _write_out(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_run(args):
    instance = harness.load_instance(args.instance)
    max_nodes, max_requests = _parse_budget(args.budget)
    optimum = oracle.Optimum(instance, max_nodes=max_nodes, max_requests=max_requests)
    start = time.perf_counter()
    report = harness.run(instance, args.algo, b=args.b, optimum=optimum)
    millis = (time.perf_counter() - start) * 1000.0
    if args.format == "json":
        text = json.dumps({**report.asdict(), "status": report.status, "runtime_millis": millis},
                          indent=2, sort_keys=True) + "\n"
        _write_out(text, args.out)
    else:
        with _output(args.out) as out:
            harness.csv_writer(out).writerow(harness.report_row(report))
    return 0 if report.ok else 1


def cmd_batch(args):
    manifest = harness.load_manifest(args.manifest)  # a refused one leaves --out as it was
    with _output(args.out) as out:
        ok = harness.batch(manifest, out, base_dir=os.path.dirname(args.manifest) or ".")
    return 0 if ok else 1


def cmd_verify(args):
    instance = harness.load_instance(args.instance)
    actions = harness.load_log(args.log)
    violation = validate_full(instance, actions)
    if violation is None:
        _write_out(json.dumps({"verdict": "ok"}) + "\n", args.out)
        return 0
    _write_out(json.dumps({"verdict": "violation",
                           "violation": violation.asdict()}) + "\n", args.out)
    return 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one error line and exit code 2, as other bad input gets
        # argparse quotes an unrecognized argument as given, newlines and all
        raise DomainError(f"{self.prog}: {message}".replace("\n", "\\n"))


def build_parser():
    parser = _Parser(prog="multicolor", description="online multi-coloring with advice")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance file")
    g.add_argument("family", choices=["path_family", "hex_chain", "hex_54",
                                      "random", "random_cancel"])
    g.add_argument("--n", type=int, default=40, help="sequence length (path_family)")
    g.add_argument("--i", type=int, default=0, help="family index / branch (path_family, hex_54)")
    g.add_argument("--branch", default="1", help="branch bits, e.g. 101 (hex_chain)")
    g.add_argument("--pad", type=int, default=0, help="trailing padding requests (hex_chain)")
    g.add_argument("--p", type=int, default=8, help="requests per gadget (hex_54)")
    g.add_argument("--kind", default="bipartite", choices=["bipartite", "hexagonal"])
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--nodes", type=int, default=8)
    g.add_argument("--requests", type=int, default=20)
    g.add_argument("--out")
    g.set_defaults(func=cmd_gen)

    o = sub.add_parser("opt", help="exact optimum with witness")
    o.add_argument("instance")
    o.add_argument("--budget", default=_DEFAULT_BUDGET, help="node,request caps for exact search")
    o.add_argument("--out")
    o.set_defaults(func=cmd_opt)

    r = sub.add_parser("run", help="run one algorithm on one instance")
    r.add_argument("instance")
    r.add_argument("--algo", required=True, choices=list(ALGORITHMS))
    r.add_argument("--b", type=int, help="truncation width (greedy_truncated)")
    r.add_argument("--budget", default=_DEFAULT_BUDGET)
    r.add_argument("--format", default="json", choices=["json", "csv"])
    r.add_argument("--out")
    r.set_defaults(func=cmd_run)

    b = sub.add_parser("batch", help="run a manifest, emit CSV")
    b.add_argument("manifest")
    b.add_argument("--out")
    b.set_defaults(func=cmd_batch)

    v = sub.add_parser("verify", help="replay an assignment log")
    v.add_argument("instance")
    v.add_argument("log")
    v.add_argument("--out")
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (MultiColorError, OSError) as exc:  # bad input, or a file that cannot be used
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
