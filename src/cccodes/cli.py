"""Command-line interface: verify, develop, bound, search, build, spectrum,
table, and design subcommands.

Exit codes: 0 success/verified, 1 verification failure, 2 usage or data error.
A reader that closes standard output early ends the command quietly, with the
verdict found so far: 1 once a violation was found, else 0.
Output is deterministic for fixed inputs.  Each subcommand imports the modules
it runs when it starts, so a cold ``ccc verify FILE.code`` loads only ``core``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .core import Composition, Gdc, read_code_text, violations, write_code_text


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # A usage error is reported as any other error, then the usage line.
    def error(self, message: str):
        raise CliError(f"{message}\n{self.format_usage().rstrip()}")


def _comp(text: str) -> Composition:
    try:
        return Composition.parse(text)
    except Exception as e:
        raise CliError(f"bad composition {text!r}: {e}") from None


def _read_text(path: str) -> str:
    p = Path(path)
    if not p.exists():
        from . import dataio
        for sub in ("manifests", "recipes", "designs", "codes"):
            candidate = dataio.data_root() / sub / path
            if candidate.exists():
                p = candidate
                break
        else:
            raise CliError(f"no such file: {path}")
    return p.read_text()


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _head(obj) -> str:
    # Unvalidated type: a bad partition is a violation that the verifier lists.
    if isinstance(obj, Gdc):
        return f"type {obj.partition.type()} size {len(obj)}"
    return f"n {obj.n} size {len(obj)}"


def _listed(header: str, found) -> int:
    # Each violation is printed as it is found, under one header line: 1 if
    # there is any, else 0.  Once the reader has closed standard output the
    # verdict stands, and the listing stops.
    status = 0
    try:
        for v in found:
            if not status:
                status = 1
                print(header)
            print(f"  {v}")
    except BrokenPipeError:
        pass
    return status


def cmd_verify(args) -> int:
    text = _read_text(args.file)
    # A manifest is named *.man or starts, after comments, with a [section].
    first = next(filter(None, (raw.split("#", 1)[0].strip() for raw in text.splitlines())), "")
    expect = ()
    if args.file.endswith(".man") or first.startswith("[") and first.endswith("]"):
        from .group_action import develop, parse_manifest
        m = parse_manifest(text, name=args.file)
        obj, expect = develop(m), (m.expected_type, m.expected_size)
    else:
        obj = read_code_text(text)
    if _listed(f"{_head(obj)} FAIL", violations(obj, *expect)):
        return 1
    print(f"{_head(obj)} OK")
    return 0


def cmd_develop(args) -> int:
    from .group_action import develop, parse_manifest
    m = parse_manifest(_read_text(args.manifest), name=args.manifest)
    g = develop(m)
    if _listed(f"{_head(g)} FAIL", violations(g, m.expected_type, m.expected_size)):
        return 1
    _emit(write_code_text(g), args.emit)
    if args.emit:
        print(f"{_head(g)} OK -> {args.emit}")
    return 0


def cmd_bound(args) -> int:
    from . import bounds
    comp = _comp(args.comp)
    rows = []
    if args.method in ("u", "all"):
        rows.append(("U", bounds.upper_bound(args.n, comp)))
    if args.method in ("johnson", "all"):
        rows.append(("johnson", bounds.johnson_bound(args.n, 6, comp)))
    if args.method in ("per-position", "all"):
        if comp.weights == (3, 1):
            rows.append(("per-position", bounds.per_position_bound_31(args.n)))
        elif args.method == "per-position":
            raise CliError("per-position bound is defined for composition 3,1")
    for name, b in rows:
        caveat = f" ({b.caveat})" if b.caveat else ""
        print(f"{name}: {b.value} [{b.provenance}]{caveat}")
    return 0


def cmd_search(args) -> int:
    from . import search
    comp = _comp(args.comp)
    budget = search.SearchBudget(seconds=args.budget_seconds,
                                 nodes=args.budget_nodes)
    out = search.max_code(args.n, args.d, comp, budget)
    print(f"{out.status} {out.size} nodes={out.nodes} elapsed={out.elapsed:.2f}s")
    if args.emit:
        Path(args.emit).write_text(write_code_text(out.witness))
    return 0


def cmd_build(args) -> int:
    from . import catalog, pipelines
    if args.pipeline:
        try:
            obj = pipelines.run_pipeline_text(_read_text(args.pipeline))
        except pipelines.PipelineVerificationError as e:
            return _listed(f"{_head(e.result)} FAIL", e.report.violations)
    elif args.n is None:
        raise CliError("build needs <n> or --pipeline")
    else:
        obj = catalog.build_optimal(args.n, _comp(args.comp))
    print(f"{_head(obj)} OK")
    if args.emit:
        Path(args.emit).write_text(write_code_text(obj))
    return 0


def cmd_spectrum(args) -> int:
    from . import catalog
    comp = _comp(args.comp)
    e = catalog.spectrum(args.n, comp)
    if e.kind == "exact":
        print(f"A({e.n}, 6, [{e.composition}]) = {e.exact}  [{e.source}]")
    else:
        word = "range" if e.kind == "range" else "open"
        print(f"A({e.n}, 6, [{e.composition}]) in [{e.lo}, {e.hi}]  "
              f"({word}) [{e.source}]")
    return 0


def cmd_table(args) -> int:
    from . import catalog
    try:
        lo_s, hi_s = args.range.split("..")
        lo, hi = int(lo_s), int(hi_s)
        if lo > hi:
            raise ValueError
    except ValueError:
        raise CliError(f"bad range {args.range!r}; want e.g. 4..10") from None
    comps = [_comp(args.comp)] if args.comp else [Composition((2, 2)),
                                                  Composition((3, 1))]
    ns = list(range(lo, hi + 1))

    def cell(e) -> str:
        return str(e.exact) if e.kind == "exact" else f"{e.lo}..{e.hi}"

    # Each composition's row of cells, computed once whatever the format.
    rows = [(comp, [cell(catalog.spectrum(n, comp)) for n in ns]) for comp in comps]
    if args.format == "csv":
        lines = ["composition," + ",".join(map(str, ns))]
        # The label holds a comma, so it is quoted.
        lines += [f'"[{comp}]",' + ",".join(row) for comp, row in rows]
    elif args.format == "md":
        lines = ["| n | " + " | ".join(map(str, ns)) + " |", "|---" * (len(ns) + 1) + "|"]
        lines += [f"| A(n,[{comp}]) | " + " | ".join(row) + " |" for comp, row in rows]
    else:
        lines = ["n".ljust(12) + " ".join(str(n).rjust(6) for n in ns)]
        lines += [f"A(n,[{comp}])".ljust(12) + " ".join(c.rjust(6) for c in row)
                  for comp, row in rows]
    print("\n".join(lines))
    return 0


def cmd_design(args) -> int:
    from .designs import (DifferenceMatrix, Gdd, RoomFrame, build_dm, build_td,
                          read_design_text, search_skew_room_frame, verify_dm,
                          verify_gdd, verify_skew_room_frame, write_design_text)
    a = args.args
    if args.action == "verify":
        if len(a) != 1:
            raise CliError("design verify wants: <file>")
        obj = read_design_text(_read_text(a[0]))
        rep = {Gdd: verify_gdd, DifferenceMatrix: verify_dm,
               RoomFrame: verify_skew_room_frame}[type(obj)](obj)
        if _listed("FAIL", rep.violations):
            return 1
        print("OK")
        return 0
    # Word count of each build form, the kind included.
    if not a or len(a) != {"td": 3, "dm": 2, "srf": 3}.get(a[0]):
        raise CliError("design build wants: td <k> <m> | dm <g> | srf <t> <u>")
    what, nums = a[0], [int(x) for x in a[1:]]
    if what == "td":
        obj = build_td(*nums)
    elif what == "dm":
        obj = build_dm(*nums)
    else:
        found = search_skew_room_frame([nums[0]] * nums[1])
        if found is None:
            print("none (search space exhausted)")
            return 1
        obj = found
    if args.emit:
        Path(args.emit).write_text(write_design_text(obj))
        print(f"OK -> {args.emit}")
    else:
        sys.stdout.write(write_design_text(obj))
    return 0


def make_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="ccc",
        description="Ternary constant-composition codes of weight 4, distance 6")
    sub = p.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("verify", help="verify a manifest or code file")
    s.add_argument("file")
    s.set_defaults(fn=cmd_verify)

    s = sub.add_parser("develop", help="develop a manifest into a code file")
    s.add_argument("manifest")
    s.add_argument("--emit")
    s.set_defaults(fn=cmd_develop)

    s = sub.add_parser("bound", help="upper bounds")
    s.add_argument("n", type=int)
    s.add_argument("--comp", required=True)
    s.add_argument("--method", default="all",
                   choices=["u", "johnson", "per-position", "all"])
    s.set_defaults(fn=cmd_bound)

    s = sub.add_parser("search", help="exact maximum-code search")
    s.add_argument("n", type=int)
    s.add_argument("--comp", required=True)
    s.add_argument("--d", type=int, default=6)
    s.add_argument("--budget-seconds", type=float, default=None)
    s.add_argument("--budget-nodes", type=int, default=None)
    s.add_argument("--emit")
    s.set_defaults(fn=cmd_search)

    s = sub.add_parser("build", help="build a cataloged optimal code")
    s.add_argument("n", type=int, nargs="?")
    s.add_argument("--comp", default="2,2")
    s.add_argument("--pipeline")
    s.add_argument("--emit")
    s.set_defaults(fn=cmd_build)

    s = sub.add_parser("spectrum", help="maximum-size classification at n")
    s.add_argument("n", type=int)
    s.add_argument("--comp", required=True)
    s.set_defaults(fn=cmd_spectrum)

    s = sub.add_parser("table", help="spectrum table over a range")
    s.add_argument("range")
    s.add_argument("--comp")
    s.add_argument("--format", default="text", choices=["text", "csv", "md"])
    s.set_defaults(fn=cmd_table)

    s = sub.add_parser("design", help="verify or build ingredient designs")
    s.add_argument("action", choices=["verify", "build"])
    s.add_argument("args", nargs="*")
    s.add_argument("--emit")
    s.set_defaults(fn=cmd_design)
    return p


def main(argv: list[str] | None = None) -> int:
    status = 0
    try:
        args = make_parser().parse_args(argv)
        status = args.fn(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed standard output.  What is still buffered goes to
        # the null device, so the flush at exit raises nothing either.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except (CliError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
