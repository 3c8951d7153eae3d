"""Pipeline execution: expectations and the single verification of the result."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cccodes import catalog, pipelines
from cccodes.catalog import list_recipes
from cccodes.constructions import shorten
from cccodes.core import Composition
from cccodes.dataio import data_root, develop_manifest
from cccodes.pipelines import PipelineError, run_pipeline_text

MANIFEST = "result manifest c22/type-2^10.man\n"


@pytest.fixture
def verify_calls(monkeypatch):
    calls = []

    def counting(g, *args):
        calls.append(g)
        return real(g, *args)

    real = pipelines.verify_gdc
    monkeypatch.setattr(pipelines, "verify_gdc", counting)
    return calls


@pytest.mark.parametrize("expect", ["", "expect size=60\n", "expect type=2^10\n",
                                    "expect size=60 type=2^10\n"])
def test_result_is_verified_once(verify_calls, expect):
    g = run_pipeline_text(MANIFEST + expect)
    assert len(g) == 60
    assert verify_calls == [g]


def test_only_the_returned_result_is_verified(verify_calls):
    g = run_pipeline_text(MANIFEST + "expect type=2^10\n" + MANIFEST)
    assert verify_calls == [g] and verify_calls[0] is g


@pytest.mark.parametrize("expect, message", [
    ("expect size=61\n", "size-mismatch at (): 60 != 61"),
    ("expect size=61 type=4^5\n",
     "size-mismatch at (): 60 != 61; type-mismatch at (): 2^10 != 4^5"),
])
def test_failing_expectations_are_listed(verify_calls, expect, message):
    with pytest.raises(PipelineError) as err:
        run_pipeline_text(MANIFEST + expect)
    n = message.count(";") + 1
    assert str(err.value) == f"line 2: pipeline verify failed: {n} violation(s): {message}"
    assert verify_calls == []  # an expectation scans no pairs


def test_type_expectation_on_a_plain_code():
    with pytest.raises(PipelineError, match=r"type-mismatch at \(\): a plain code != 2\^10$"):
        run_pipeline_text("result codefile n9-22.code\nexpect type=2^10\n")


def test_manifest_step_checks_the_declared_size(tmp_path):
    text = (data_root() / "manifests" / "c22" / "type-2^10.man").read_text()
    man = tmp_path / "wrong-size.man"
    man.write_text(text.replace("expected_size = 60", "expected_size = 61"))
    with pytest.raises(PipelineError) as err:
        run_pipeline_text(f"let g = manifest {man}\nresult ascode g\n")
    assert str(err.value) == (f"line 1: manifest {man} differs from its declaration: "
                              "1 violation(s): size-mismatch at (): 60 != 61")


def test_failing_type_expectation_message():
    with pytest.raises(PipelineError, match=r"^line 2: pipeline verify failed: 1 violation\(s\): "
                                            r"type-mismatch at \(\): 2\^10 != 4\^5$"):
        run_pipeline_text(MANIFEST + "expect type=4^5\n")


def test_shorten_step_is_the_construction():
    code = run_pipeline_text("let c = manifest c22/code-n19.man\nresult shorten c 7\n")
    want = shorten(develop_manifest("c22/code-n19.man").as_code(), 7)
    assert (code.n, code.words) == (want.n, want.words)


@pytest.mark.parametrize("text", ["result ascode nosuch\n",
                                  "let g = manifest c22/type-2^10.man\nresult fill g 2:nosuch\n"])
def test_unbound_name_is_a_pipeline_error(text):
    with pytest.raises(PipelineError) as err:
        run_pipeline_text(text)
    assert str(err.value) == f"line {len(text.splitlines())}: unbound name 'nosuch'"


OPS = ("manifest, codefile, code, dm, td, dm2gdc, inflate, fundamental, fill, adjoin, "
       "ascode, shorten")


@pytest.mark.parametrize("text, message", [
    ("let d = dm x\n", "line 1: invalid literal for int() with base 10: 'x'"),
    ("# a comment\n\nresult td 4\n", "line 3: want td K M: 'result td 4'"),
    ("expect size=60\n" + MANIFEST, "line 1: expect before result"),
    ("result frob 7\n", f"line 1: want one of {OPS}: 'result frob 7'"),
    ("result design dm-4-4.design\n", f"line 1: want one of {OPS}: 'result design dm-4-4.design'"),
    ("let d = dm 4\nlet f = srf2gdc d\n", f"line 2: want one of {OPS}: 'let f = srf2gdc d'"),
    ("let d\n", "line 1: bad let line: 'let d'"),
    (MANIFEST + "expect size\n", "line 2: want expect size=N type=T: 'expect size'"),
    (MANIFEST + "expect size=61 size=60\n",
     "line 2: want expect size=N type=T: 'expect size=61 size=60'"),
    ("resolve dm 4\n", "line 1: unparseable pipeline line: 'resolve dm 4'"),
    # A group size or count below 1 in an expected type.
    (MANIFEST + "expect type=2^0\n",
     "line 2: want group sizes and counts of at least 1: '2^0'"),
    (MANIFEST + "expect type=0^10\n",
     "line 2: want group sizes and counts of at least 1: '0^10'"),
    (MANIFEST + "expect size=60 type=-2^10\n",
     "line 2: want group sizes and counts of at least 1: '-2^10'"),
    # A count is not expanded into a list of sizes.
    (MANIFEST + "expect type=2^1000000000000\n",
     "line 2: pipeline verify failed: 1 violation(s): type-mismatch at (): "
     "2^10 != 2^1000000000000"),
    ("let g = manifest c22/type-2^10.man\nresult fill g 2\n",
     "line 2: bad filler '2', want SIZE:REF: 'result fill g 2'"),
    # A filler size given twice: the length-5 code does not fill a size-2 group.
    ("let c5 = code 5 2,2\nlet g = manifest c22/type-2^10.man\nresult fill g 2:c5,2:empty\n",
     "line 3: repeated filler size 2: 'result fill g 2:c5,2:empty'"),
    ("let c = codefile n5-22.code\nlet g = manifest c22/type-2^10.man\n"
     "result adjoin g y=1 code=c fill=2:empty,2:empty\n",
     "line 3: repeated filler size 2: 'result adjoin g y=1 code=c fill=2:empty,2:empty'"),
    # A name bound to the wrong kind of object.
    ("let d = dm 4\nresult fill d 2:empty\n",
     "line 2: 'd' names a DifferenceMatrix, want Gdc: 'result fill d 2:empty'"),
    ("let c = codefile n5-22.code\nresult dm2gdc c\n",
     "line 2: 'c' names a Code, want DifferenceMatrix: 'result dm2gdc c'"),
    ("let d = dm 4\nresult inflate d 2\n",
     "line 2: 'd' names a DifferenceMatrix, want Code or Gdc: 'result inflate d 2'"),
    ("let t = td 4 5\nresult ascode t\n",
     "line 2: 't' names a Gdd, want Code or Gdc: 'result ascode t'"),
    ("let g = manifest c22/type-2^10.man\nresult fundamental g w=2 ingredients=g\n",
     "line 2: 'g' names a Gdc, want Gdd: 'result fundamental g w=2 ingredients=g'"),
    ("let t = td 4 5\nlet c = codefile n5-22.code\nresult fundamental t w=2 ingredients=c\n",
     "line 3: 'c' names a Code, want Gdc: 'result fundamental t w=2 ingredients=c'"),
    ("let g = manifest c22/type-2^10.man\nlet d = dm 4\nresult fill g 2:d\n",
     "line 3: 'd' names a DifferenceMatrix, want Code or Gdc: 'result fill g 2:d'"),
    ("let c = codefile n5-22.code\nresult adjoin c y=1 code=c\n",
     "line 2: 'c' names a Code, want Gdc: 'result adjoin c y=1 code=c'"),
    # A positional argument or a key that the step does not declare, or a
    # key given twice.
    ("let d = dm 4 99\n", "line 1: want dm G: 'let d = dm 4 99'"),
    ("let d = dm 4\nlet g = dm2gdc d frist=1\n",
     "line 2: want dm2gdc REF: 'let g = dm2gdc d frist=1'"),
    (MANIFEST.replace("result", "let g =") + "result ascode g junk\n",
     "line 2: want ascode REF: 'result ascode g junk'"),
    ("let c = codefile n5-22.code\nresult adjoin c y=1 first=0 code=c\n",
     "line 2: want adjoin REF y=Y code=REF [fill=SIZE:REF,...]: "
     "'result adjoin c y=1 first=0 code=c'"),
    ("let c = codefile n5-22.code\nresult adjoin c y=1 y=2 code=c\n",
     "line 2: want adjoin REF y=Y code=REF [fill=SIZE:REF,...]: "
     "'result adjoin c y=1 y=2 code=c'"),
    ("let c = codefile n5-22.code\nresult adjoin y=1 c code=c\n",
     "line 2: want adjoin REF y=Y code=REF [fill=SIZE:REF,...]: "
     "'result adjoin y=1 c code=c'"),
    ("let t = td 4 5\nresult fundamental t t w=4 ingredients=t\n",
     "line 2: want fundamental REF w=W ingredients=REF,...: "
     "'result fundamental t t w=4 ingredients=t'"),
    # A transversal design with fewer than two groups.
    ("let t = td -2 3\nresult ascode t\n",
     "line 1: a transversal design needs k >= 2, got k=-2"),
    ("let t = td 0 3\nresult ascode t\n",
     "line 1: a transversal design needs k >= 2, got k=0"),
    ("let t = td 1 3\nresult ascode t\n",
     "line 1: a transversal design needs k >= 2, got k=1"),
])
def test_malformed_step_is_a_numbered_pipeline_error(text, message):
    with pytest.raises(PipelineError) as err:
        run_pipeline_text(text)
    assert str(err.value) == message


def test_missing_file_is_a_numbered_pipeline_error():
    with pytest.raises(PipelineError, match=r"^line 2: \[Errno 2\] No such file"):
        run_pipeline_text("# the manifest is not shipped\nresult manifest c22/nosuch.man\n")


# The text of every pipeline and fill recipe: 16 constructions.
RECIPES = [catalog._recipe_text(r.n, Composition.parse(r.composition))
           for r in list_recipes() if r.recipe_id.startswith(("pipeline:", "fill:"))]


# One whitespace-separated token of a shipped recipe replaced or deleted ("").
# No replacement is a large number, so no mutated step runs long.
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(RECIPES), st.integers(min_value=0),
       st.sampled_from(["", "0", "1", "-1", "x", "=", "y=", "2:empty", "g"]))
def test_mutated_recipe_succeeds_or_raises_a_pipeline_error(text, where, token):
    parts = re.split(r"(\s+)", text)
    words = [i for i, part in enumerate(parts) if part and not part.isspace()]
    parts[words[where % len(words)]] = token
    try:
        run_pipeline_text("".join(parts))
    except PipelineError:
        pass


# A step or expect line of a shipped recipe with one more token after its
# last argument.  None of the tokens is a SIZE:REF filler, so no op takes it.
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(RECIPES), st.integers(min_value=0),
       st.sampled_from(["9", "x", "k=1", "first=0"]))
def test_recipe_step_with_an_extra_argument_is_a_pipeline_error(text, where, token):
    lines = text.splitlines()
    steps = [i for i, line in enumerate(lines) if line.split("#", 1)[0].strip()]
    i = steps[where % len(steps)]
    body, hash_, comment = lines[i].partition("#")
    lines[i] = f"{body.rstrip()} {token}{' ' + hash_ + comment if hash_ else ''}"
    with pytest.raises(PipelineError):
        run_pipeline_text("\n".join(lines) + "\n")
