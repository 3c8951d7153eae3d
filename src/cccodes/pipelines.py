"""Declarative construction pipelines.

A pipeline file is a list of steps, one per line; each step is
``let NAME = OP ARGS...`` (arguments are names bound earlier, never nested
calls), a single ``result OP ARGS...``, and optional ``expect`` assertions::

    let d = dm 19
    let g = dm2gdc d
    let c20 = code 20 2,2
    result adjoin g y=1 first=0 code=c20 fill=19:c20
    expect size=962

Operations: ``manifest REL``, ``design REL``, ``codefile REL``,
``code N COMP``, ``dm G``, ``td K M``, ``dm2gdc REF``, ``srf2gdc REF``,
``inflate REF M``, ``fundamental REF w=W ingredients=REF,...``,
``fill REF SIZE:REF ...`` (``SIZE:empty`` for an empty filler),
``adjoin REF y=Y first=G code=REF fill=SIZE:REF,...``, ``ascode REF``,
``shorten REF POINT`` (delete the point and relabel the points above it).
``expect`` lines assert size/type of the result, and every pipeline result is
verified exhaustively, once, before it is returned.  The catalog builds every
recipe through this runner, so its codes are certified here too.
"""

from __future__ import annotations

from .core import (Code, Composition, Gdc, GdcType, GroupPartition,
                   verify_code, verify_gdc)
from .constructions import (IngredientProvider,
                            adjoin_points, dm_to_gdc, empty_code, fill_groups,
                            fundamental, inflate, shorten, srf_to_gdc)
from .designs import build_dm, build_td, read_design_text
from . import dataio

__all__ = ["PipelineError", "run_pipeline", "run_pipeline_text"]


class PipelineError(ValueError):
    pass


def _parse_fillers(spec: str, env: dict, comp: Composition) -> dict:
    fillers = {}
    for item in spec.split(","):
        size_s, ref = item.split(":")
        size = int(size_s)
        if ref == "empty":
            fillers[size] = empty_code(size, comp)
        else:
            fillers[size] = env[ref]
    return fillers


def _run_op(tokens: list[str], env: dict, build_code):
    op = tokens[0]
    args = tokens[1:]
    if op == "manifest":
        return dataio.develop_manifest(args[0])
    if op == "design":
        path = dataio.data_root() / "designs" / args[0]
        return read_design_text(path.read_text())
    if op == "codefile":
        return dataio.load_code(args[0])
    if op == "code":
        if build_code is None:
            raise PipelineError("no catalog available for `code` steps")
        return build_code(int(args[0]), Composition.parse(args[1]))
    if op == "dm":
        return build_dm(int(args[0]))
    if op == "td":
        return build_td(int(args[0]), int(args[1]))
    if op == "dm2gdc":
        return dm_to_gdc(env[args[0]])
    if op == "srf2gdc":
        return srf_to_gdc(env[args[0]])
    if op == "inflate":
        obj = env[args[0]]
        if not isinstance(obj, Gdc):
            obj = Gdc(obj, GroupPartition.singletons(obj.n))
        return inflate(obj, int(args[1]))
    if op == "fundamental":
        master = env[args[0]]
        kv = dict(a.split("=", 1) for a in args[1:])
        w = int(kv["w"])
        weights = [w] * master.n
        provider = IngredientProvider([env[r] for r in kv["ingredients"].split(",")])
        return fundamental(master, weights, provider)
    if op == "fill":
        target = env[args[0]]
        fillers = _parse_fillers(",".join(args[1:]), env,
                                 target.as_code().composition)
        return fill_groups(target, fillers)
    if op == "adjoin":
        target = env[args[0]]
        kv = dict(a.split("=", 1) for a in args[1:])
        fillers = _parse_fillers(kv.get("fill", ""), env,
                                 target.as_code().composition) if kv.get("fill") else {}
        return adjoin_points(target, int(kv["y"]), int(kv.get("first", "0")),
                             env[kv["code"]], fillers)
    if op == "ascode":
        return env[args[0]].as_code()
    if op == "shorten":
        return shorten(env[args[0]].as_code(), int(args[1]))
    raise PipelineError(f"unknown pipeline op {op!r}")


def run_pipeline_text(text: str, build_code=None) -> Code | Gdc:
    """Execute a pipeline; the result is verified against any expect line."""
    env: dict[str, object] = {}
    result = verified = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "let":
            if tokens[2] != "=":
                raise PipelineError(f"bad let line: {line!r}")
            env[tokens[1]] = _run_op(tokens[3:], env, build_code)
        elif tokens[0] == "result":
            result = _run_op(tokens[1:], env, build_code)
            env["result"] = result
        elif tokens[0] == "expect":
            if result is None:
                raise PipelineError("expect before result")
            kv = dict(a.split("=", 1) for a in tokens[1:])
            code = result.as_code()
            if "size" in kv and len(code.words) != int(kv["size"]):
                raise PipelineError(
                    f"pipeline size {len(code.words)} != expected {kv['size']}")
            if "type" in kv:
                if not isinstance(result, Gdc):
                    raise PipelineError("type expectation on a plain code")
                rep = verify_gdc(result, GdcType.parse(kv["type"]), None)
                if not rep.ok:
                    raise PipelineError(f"pipeline verify failed: {rep.summary()}")
                verified = result
        else:
            raise PipelineError(f"unparseable pipeline line: {line!r}")
    if result is None:
        raise PipelineError("pipeline has no result step")
    # Verify the final object once: a passing type expectation already did.
    if result is verified:
        return result
    if isinstance(result, Gdc):
        rep = verify_gdc(result)
    else:
        rep = verify_code(result)
    if not rep.ok:
        raise PipelineError(f"pipeline result fails verification: {rep.summary()}")
    return result


def run_pipeline(rel: str, build_code=None) -> Code | Gdc:
    path = dataio.data_root() / "recipes" / rel
    return run_pipeline_text(path.read_text(), build_code)
