"""Declarative construction pipelines.

A pipeline file is a list of steps, one per line; each step is
``let NAME = OP ARGS...`` (arguments are names bound earlier, never nested
calls), a single ``result OP ARGS...``, and optional ``expect`` assertions::

    let d = dm 19
    let g = dm2gdc d
    let c20 = code 20 2,2
    result adjoin g y=1 code=c20 fill=19:c20
    expect size=962

The operations and their arguments are declared in ``_SIGNATURES``; a step
that lacks one, or has a positional argument or key the declaration does not
list, quotes the line.  A ``code N COMP`` step is the catalog's optimal code.
Every fault on a line (an unknown op, a missing or extra argument, an unbound
name, a name bound to the wrong kind of object, a bad number or file, or an
error of the step's construction) raises PipelineError with a message that
starts ``line N: ``.  A ``manifest`` step checks the manifest's declared size
and type, and ``expect size=N type=T`` lines check the result's, both with
:func:`cccodes.core.verify_expectations` (no pair scan).  The result itself
is verified exhaustively, once, before it is returned; a result that fails
raises PipelineVerificationError, which holds the full report.  The catalog
builds every recipe through this runner, so its codes are certified here too.
"""

from __future__ import annotations

from .core import (Code, Composition, Gdc, GdcType, GroupPartition, VerificationReport,
                   verify_expectations, verify_gdc)
from .constructions import (adjoin_points, dm_to_gdc, empty_code, fill_groups,
                            fundamental, inflate, shorten)
from .designs import DifferenceMatrix, Gdd, build_dm, build_td
from .group_action import develop
from . import dataio

__all__ = ["PipelineError", "PipelineVerificationError", "run_pipeline_text"]


class PipelineError(ValueError):
    pass


class PipelineVerificationError(PipelineError):
    """A pipeline's result fails verification: ``result`` is the result and
    ``report`` its full :class:`~cccodes.core.VerificationReport`."""

    def __init__(self, result: Code | Gdc, report: VerificationReport):
        super().__init__(f"pipeline result fails verification: {report.summary()}")
        self.result, self.report = result, report


class _Env(dict):
    """Names bound by earlier steps; reading an unbound one is a PipelineError."""

    def __missing__(self, name: str):
        raise PipelineError(f"unbound name {name!r}")


# op -> its positional arguments, then its key=value arguments; a final
# positional ending in ... takes one or more values, and a key in brackets is
# optional.  A SIZE:empty filler is an empty code.
_SIGNATURES = {
    "manifest": "REL", "codefile": "REL", "code": "N COMP",
    "dm": "G", "td": "K M", "dm2gdc": "REF", "inflate": "REF M",
    "fundamental": "REF w=W ingredients=REF,...", "fill": "REF SIZE:REF...",
    "adjoin": "REF y=Y code=REF [fill=SIZE:REF,...]", "ascode": "REF",
    "shorten": "REF POINT",
}


# The kinds of object a REF argument may name.
_CODE = (Code, Gdc)


def _ref(env: dict, name: str, kinds: tuple[type, ...], line: str):
    """The object bound to ``name``, which must be of one of ``kinds``."""
    obj = env[name]
    if not isinstance(obj, kinds):
        want = " or ".join(k.__name__ for k in kinds)
        raise PipelineError(f"{name!r} names a {type(obj).__name__}, want {want}: {line!r}")
    return obj


def _parse_fillers(spec: str, env: dict, comp: Composition, line: str) -> dict:
    fillers = {}
    for item in spec.split(","):
        if ":" not in item:
            raise PipelineError(f"bad filler {item!r}, want SIZE:REF: {line!r}")
        size_s, ref = item.split(":", 1)
        size = int(size_s)
        if size in fillers:
            raise PipelineError(f"repeated filler size {size}: {line!r}")
        if ref == "empty":
            fillers[size] = empty_code(size, comp)
        else:
            fillers[size] = _ref(env, ref, _CODE, line)
    return fillers


def _run_op(tokens: list[str], env: dict, line: str):
    if not tokens or tokens[0] not in _SIGNATURES:
        raise PipelineError(f"want one of {', '.join(_SIGNATURES)}: {line!r}")
    op, sig = tokens[0], _SIGNATURES[tokens[0]].split()
    want = [a for a in sig if "=" not in a]
    keys = {a.strip("[]").split("=")[0]: a.startswith("[") for a in sig if "=" in a}
    # Exactly the declared positionals, then the declared keys, each once; a
    # positional after a key reads as an undeclared key.
    rest = tokens[1:]
    n = next((i for i, a in enumerate(rest) if "=" in a), len(rest))
    args, kv = rest[:n], dict(a.partition("=")[::2] for a in rest[n:])
    counted = len(args) == len(want) or want[-1].endswith("...") and len(args) > len(want)
    if (not counted or len(kv) < len(rest) - n
            or not {k for k, opt in keys.items() if not opt} <= kv.keys() <= keys.keys()):
        raise PipelineError(f"want {op} {_SIGNATURES[op]}: {line!r}")
    if op == "manifest":
        m = dataio.load_manifest(args[0])
        g = develop(m)
        rep = verify_expectations(g, m.expected_type, m.expected_size)
        if not rep.ok:
            raise PipelineError(f"manifest {args[0]} differs from its declaration: "
                                f"{rep.summary()}")
        return g
    if op == "codefile":
        return dataio.load_code(args[0])
    if op == "code":
        from .catalog import build_optimal  # the catalog imports this module
        return build_optimal(int(args[0]), Composition.parse(args[1]))
    if op == "dm":
        return build_dm(int(args[0]))
    if op == "td":
        return build_td(int(args[0]), int(args[1]))
    if op == "dm2gdc":
        return dm_to_gdc(_ref(env, args[0], (DifferenceMatrix,), line))
    if op == "inflate":
        obj = _ref(env, args[0], _CODE, line)
        if not isinstance(obj, Gdc):
            obj = Gdc(obj, GroupPartition.singletons(obj.n))
        return inflate(obj, int(args[1]))
    if op == "fundamental":
        master = _ref(env, args[0], (Gdd,), line)
        ingredients = [_ref(env, r, (Gdc,), line) for r in kv["ingredients"].split(",")]
        return fundamental(master, int(kv["w"]), ingredients)
    if op == "fill":
        target = _ref(env, args[0], (Gdc,), line)
        fillers = _parse_fillers(",".join(args[1:]), env,
                                 target.as_code().composition, line)
        return fill_groups(target, fillers)
    if op == "adjoin":
        target = _ref(env, args[0], (Gdc,), line)
        fillers = _parse_fillers(kv["fill"], env, target.as_code().composition,
                                 line) if kv.get("fill") else {}
        return adjoin_points(target, int(kv["y"]), _ref(env, kv["code"], _CODE, line),
                             fillers)
    if op == "ascode":
        return _ref(env, args[0], _CODE, line).as_code()
    # op == "shorten"
    return shorten(_ref(env, args[0], _CODE, line).as_code(), int(args[1]))


def run_pipeline_text(text: str) -> Code | Gdc:
    """Execute a pipeline; check each expect line, then verify the result once.
    Every fault raises PipelineError; the message of a fault on a line starts
    with ``line N: `` (1-based)."""
    env = _Env()
    result = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            if tokens[0] == "let":
                if len(tokens) < 3 or tokens[2] != "=":
                    raise PipelineError(f"bad let line: {line!r}")
                env[tokens[1]] = _run_op(tokens[3:], env, line)
            elif tokens[0] == "result":
                result = _run_op(tokens[1:], env, line)
                env["result"] = result
            elif tokens[0] == "expect":
                if result is None:
                    raise PipelineError("expect before result")
                kv = dict(a.partition("=")[::2] for a in tokens[1:])
                if (not set(kv) <= {"size", "type"} or "" in kv.values()
                        or len(kv) < len(tokens) - 1):
                    raise PipelineError(f"want expect size=N type=T: {line!r}")
                rep = verify_expectations(
                    result, GdcType.parse(kv["type"]) if "type" in kv else None,
                    int(kv["size"]) if "size" in kv else None)
                if not rep.ok:
                    raise PipelineError(f"pipeline verify failed: {rep.summary()}")
            else:
                raise PipelineError(f"unparseable pipeline line: {line!r}")
        except (ValueError, OSError) as e:
            raise PipelineError(f"line {lineno}: {e}") from None
    if result is None:
        raise PipelineError("pipeline has no result step")
    rep = verify_gdc(result)
    if not rep.ok:
        raise PipelineVerificationError(result, rep)
    return result

