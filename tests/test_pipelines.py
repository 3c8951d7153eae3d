"""Pipeline execution: expectations and the single verification of the result."""

import pytest

from cccodes import pipelines
from cccodes.constructions import shorten
from cccodes.dataio import develop_manifest
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


def test_a_new_result_after_an_expectation_is_verified_again(verify_calls):
    run_pipeline_text(MANIFEST + "expect type=2^10\n" + MANIFEST)
    assert len(verify_calls) == 2 and verify_calls[0] is not verify_calls[1]


def test_failing_type_expectation_message():
    with pytest.raises(PipelineError, match=r"^pipeline verify failed: 1 violation\(s\): "
                                            r"type-mismatch at \(\): 2\^10 != 4\^5$"):
        run_pipeline_text(MANIFEST + "expect type=4^5\n")


def test_shorten_step_is_the_construction():
    code = run_pipeline_text("let c = manifest c22/code-n19.man\nresult shorten c 7\n")
    want = shorten(develop_manifest("c22/code-n19.man").as_code(), 7)
    assert (code.n, code.words) == (want.n, want.words)
