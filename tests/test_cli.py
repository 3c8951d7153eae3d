"""CLI behaviour: exit codes, deterministic output, round-trips."""

import csv
import importlib
import io
import os
import pkgutil
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cccodes
from cccodes.cli import main
from cccodes.dataio import data_root, iter_manifest_paths


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        status = main(argv)
    return status, buf.getvalue()


MANIFEST_G10 = (data_root() / "manifests" / "c22" / "type-2^10.man").read_text()


def test_verify_manifest_ok():
    status, out = run(["verify", "c22/type-2^10.man"])
    assert status == 0
    assert out.strip() == "type 2^10 size 60 OK"


def test_verify_failure_exit_code(tmp_path):
    bad = tmp_path / "bad.code"
    bad.write_text("n=10\ncomposition=2,2\ndistance=6\n0,1 ; 2,3\n0,1 ; 2,4\n")
    status, out = run(["verify", str(bad)])
    assert status == 1
    assert "FAIL" in out


def test_verify_malformed_code_file_names_the_line(tmp_path, capsys):
    bad = tmp_path / "bad.code"
    bad.write_text("n=10\ncomposition=2,2\ndistance=6\n# words\n0,1 ; 2,x\n")
    status, out = run(["verify", str(bad)])
    assert status == 2 and out == ""
    assert capsys.readouterr().err == (
        "error: line 5: invalid literal for int() with base 10: 'x'\n")


@pytest.mark.parametrize("text, err", [
    ("n=100000000000\ncomposition=2,2\ndistance=6\n0,1 ; 2,99999999999\n",
     "line 1: want n in [1, 10000]: 'n=100000000000'"),
    ("n=-1\ncomposition=2,2\ndistance=6\n", "line 1: want n in [1, 10000]: 'n=-1'"),
    ("n=5\ncomposition=2,2\ndistance=6\n0,1 ; 2,3\nn=9\n",
     "line 5: header line after a codeword line: 'n=9'"),
    ("n=10\ncomposition=2,2\ndistance=100\n0,1 ; 2,3\n4,5 ; 6,7\n",
     "line 3: want a distance of at most twice the weight (8): 'distance=100'"),
])
def test_verify_code_file_with_a_bad_header_is_a_data_error(tmp_path, capsys, text, err):
    bad = tmp_path / "bad.code"
    bad.write_text(text)
    status, out = run(["verify", str(bad)])
    assert (status, out) == (2, "")
    assert capsys.readouterr().err == f"error: {err}\n"


def test_usage_error_exit_code():
    status, _ = run(["bound", "16", "--comp", "9,9"])
    assert status == 2


def test_bound_output():
    status, out = run(["bound", "16", "--comp", "3,1", "--method", "all"])
    assert status == 0
    assert "U: 24" in out and "per-position: 24" in out


def test_search_small():
    status, out = run(["search", "8", "--comp", "2,2"])
    assert status == 0
    assert out.startswith("exact 5 ")


def test_table_matches_small_values():
    status, out = run(["table", "4..10"])
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[1].split()[1:] == ["1", "1", "3", "3", "5", "9", "15"]
    assert lines[2].split()[1:] == ["1", "1", "2", "2", "4", "6", "10"]


def test_table_csv():
    status, out = run(["table", "4..6", "--comp", "2,2", "--format", "csv"])
    assert status == 0
    assert out.splitlines()[1] == '"[2,2]",1,1,3'


def test_build_and_verify_roundtrip(tmp_path):
    out_file = tmp_path / "n19.code"
    status, _ = run(["build", "19", "--comp", "2,2", "--emit", str(out_file)])
    assert status == 0
    status, out = run(["verify", str(out_file)])
    assert status == 0 and "size 57 OK" in out


def test_develop_roundtrip(tmp_path):
    out_file = tmp_path / "g.code"
    status, _ = run(["develop", "c22/type-2^10.man", "--emit", str(out_file)])
    assert status == 0
    status, out = run(["verify", str(out_file)])
    assert status == 0 and "type 2^10 size 60 OK" in out


def test_spectrum_output():
    status, out = run(["spectrum", "14", "--comp", "2,2"])
    assert status == 0
    assert "[27, 28]" in out


def test_deterministic_output():
    a = run(["table", "4..10"])
    b = run(["table", "4..10"])
    assert a == b


def test_design_build_srf_nonexistence_exit_code():
    status, out = run(["design", "build", "srf", "2", "4"])
    assert status == 1
    assert "none" in out


def test_design_build_srf_of_an_odd_row_is_refused_at_once(monkeypatch):
    from cccodes import designs
    monkeypatch.setattr(designs, "_NODE_BUDGET", 0)
    assert run(["design", "build", "srf", "1", "8"]) == (1, "none (search space exhausted)\n")


@pytest.mark.parametrize("t, u, sizes", [("0", "3", "[0, 0, 0]"), ("-1", "3", "[-1, -1, -1]"),
                                        ("2", "0", "[]")])
def test_design_build_srf_without_a_proper_hole_is_a_data_error(capsys, t, u, sizes):
    status, out = run(["design", "build", "srf", t, u])
    assert status == 2 and out == ""
    assert capsys.readouterr().err == (
        f"error: want at least one hole, each of size >= 1: {sizes}\n")


@pytest.mark.parametrize("argv, message", [
    (["design", "build", "dm", "12"], "difference-matrix search budget hit at g=12"),
    (["design", "build", "srf", "1", "7"], "room-frame search budget hit"),
])
def test_spent_design_search_budget_is_a_data_error(monkeypatch, capsys, argv, message):
    from cccodes import designs
    monkeypatch.setattr(designs, "_NODE_BUDGET", 10)
    status, out = run(argv)
    assert status == 2 and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


def test_pipeline_spent_design_search_budget_names_the_line(tmp_path, monkeypatch, capsys):
    from cccodes import designs
    monkeypatch.setattr(designs, "_NODE_BUDGET", 10)
    pipe = tmp_path / "dm12.pipe"
    pipe.write_text("# a (12,4;1)-DM comes from the search\nlet d = dm 12\nresult dm2gdc d\n")
    status, out = run(["build", "--pipeline", str(pipe)])
    assert status == 2 and out == ""
    assert capsys.readouterr().err == (
        "error: line 2: difference-matrix search budget hit at g=12\n")


def test_design_verify_pbd_index_two_is_a_data_error(tmp_path, capsys):
    pbd = tmp_path / "pbd-3-3-2.design"
    pbd.write_text("kind=pbd\nv=3\nlambda=2\nk=3\nblocks=\n0,1,2\n0,1,2\n")
    status, _ = run(["design", "verify", str(pbd)])
    assert status == 2
    assert capsys.readouterr().err == "error: line 3: only index-1 PBDs read as GDDs\n"


def test_design_verify_shipped_pbd():
    assert run(["design", "verify", "pbd-13-4.design"]) == (0, "OK\n")


def test_design_verify_malformed_file_names_the_line(tmp_path, capsys):
    bad = tmp_path / "bad.design"
    bad.write_text("kind=roomframe\nholes=\n0,1\n2,3\ncells=\n0,2:1,3\n0,1\n")
    status, out = run(["design", "verify", str(bad)])
    assert status == 2 and out == ""
    assert capsys.readouterr().err == "error: line 7: want R,C:A,B: '0,1'\n"


def test_every_exported_name_resolves():
    modules = [cccodes] + [importlib.import_module(f"cccodes.{m.name}")
                           for m in pkgutil.iter_modules(cccodes.__path__)]
    assert {"cccodes.constructions", "cccodes.designs"} <= {m.__name__ for m in modules}
    for mod in modules:
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert not missing, (mod.__name__, missing)
    # README's library table names only exported names.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Library entry points", 1)[1].split("\n\n", 2)[1]
    rows = re.findall(r"^\| `(cccodes\.\w+)` \| (.*) \|$", table, re.M)
    assert len(rows) == 7
    for name, highlights in rows:
        exported = importlib.import_module(name).__all__
        stray = [h for h in re.findall(r"`(\w+)`", highlights) if h not in exported]
        assert not stray, (name, stray)


def test_search_emit_roundtrip(tmp_path):
    out_file = tmp_path / "w9.code"
    status, out = run(["search", "9", "--comp", "2,2", "--emit", str(out_file)])
    assert status == 0 and out.startswith("exact 9 ")
    status, out = run(["verify", str(out_file)])
    assert status == 0 and "size 9 OK" in out


def test_pipeline_build(tmp_path):
    # The recipe file run as a pipeline and the catalog's recipe for n = 77
    # emit the same bytes.
    a, b = tmp_path / "a.code", tmp_path / "b.code"
    status, out = run(["build", "--pipeline", "c22/n77.pipe", "--emit", str(a)])
    assert (status, out) == (0, "n 77 size 962 OK\n")
    assert run(["build", "77", "--emit", str(b)]) == (0, "n 77 size 962 OK\n")
    assert a.read_bytes() == b.read_bytes()


# Run in a fresh interpreter: importing cccodes.cli loads only core, and
# verifying a shipped code file, found through the data-directory fallback,
# loads none of the modules that other subcommands run.
START_UP = """
import sys
import cccodes.cli
loaded = sorted(m for m in sys.modules if m.startswith("cccodes"))
assert loaded == ["cccodes", "cccodes.cli", "cccodes.core"], loaded
assert cccodes.cli.main(["verify", "n10-22.code"]) == 0
heavy = {"cccodes." + m for m in ("catalog", "search", "designs", "pipelines",
                                   "constructions", "group_action", "bounds")}
assert not heavy & set(sys.modules), heavy & set(sys.modules)
assert "numpy" not in sys.modules
"""


def test_cli_start_up_does_not_import_numpy(tmp_path):
    src = str(Path(cccodes.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", START_UP], env=env, cwd=tmp_path,
                   check=True)


# Run without the site module, which may itself import typing, so that only
# what the module imports is seen.
LEAN_START_UP = """
import sys
before = set(sys.modules)
import {}
heavy = {{"dataclasses", "inspect", "typing"}} & (set(sys.modules) - before)
assert not heavy, heavy
"""


def test_cli_start_up_imports_no_dataclasses_inspect_or_typing(tmp_path):
    # The CLI and each module that a subcommand loads, in a fresh interpreter.
    src = str(Path(cccodes.__file__).resolve().parents[1])
    for module in ("cli", "group_action", "search", "bounds", "designs", "catalog"):
        subprocess.run([sys.executable, "-S", "-c", LEAN_START_UP.format(f"cccodes.{module}")],
                       env=dict(os.environ, PYTHONPATH=src), cwd=tmp_path, check=True)


def test_manifest_shift_without_arguments_is_a_data_error(tmp_path, capsys):
    man = tmp_path / "bad.man"
    man.write_text("[meta]\ncomposition = 2,2\ndistance = 6\n[classes]\nplain 20\n"
                   "[generator]\nshift\n[orbits]\nfull: 0,5 ; 3,7\n")
    status, _ = run(["verify", str(man)])
    assert status == 2
    assert capsys.readouterr().err == "error: line 7: want shift S on cK ...: 'shift'\n"


def test_pipeline_unbound_name_is_a_data_error(tmp_path, capsys):
    pipe = tmp_path / "bad.pipe"
    pipe.write_text("result fill nosuch 19:empty\n")
    status, _ = run(["build", "--pipeline", str(pipe)])
    assert status == 2
    assert capsys.readouterr().err == "error: line 1: unbound name 'nosuch'\n"


def test_verify_manifest_with_a_wrong_declared_size_lists_it(tmp_path, capsys):
    from cccodes.dataio import data_root
    text = (data_root() / "manifests" / "c22" / "type-2^10.man").read_text()
    man = tmp_path / "wrong-size.man"
    man.write_text(text.replace("expected_size = 60", "expected_size = 61"))
    for cmd in (["verify", str(man)], ["develop", str(man)]):
        status, out = run(cmd)
        assert status == 1
        assert out == "type 2^10 size 60 FAIL\n  size-mismatch at (): 60 != 61\n"
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("old, new, status, err", [
    ("expected_size = 60", "expected_size = 61", 1, ""),
    ("0,8 ; 14,19", "0,8 ; 14,18", 1, ""),
    ("expected_size", "expected_sise", 2,
     "error: line 5: want one of composition, distance, expected_size, expected_type = VALUE: "
     "'expected_sise = 60'\n"),
    ("[groups]", "[group]", 2, "error: line 11: want one of [meta], [classes], [generator], "
     "[groups], [orbits], each at most once: '[group]'\n"),
    ("0,4 ; 1,13", "0,4 ; 1,x", 2, "error: line 15: unknown label 'x'\n"),
])
def test_verify_mutated_manifest_exits_1_or_2_without_a_traceback(tmp_path, old, new,
                                                                   status, err):
    from cccodes.dataio import data_root
    text = (data_root() / "manifests" / "c22" / "type-2^10.man").read_text()
    man = tmp_path / "mutated.man"
    man.write_text(text.replace(old, new))
    src = str(Path(cccodes.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "cccodes.cli", "verify", str(man)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True)
    assert (proc.returncode, proc.stderr) == (status, err)
    assert ("FAIL" in proc.stdout) if status == 1 else (proc.stdout == "")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(iter_manifest_paths()), st.integers(min_value=0),
       st.sampled_from(["", "0", "-1", "99", "x", ",", ":", "=", "2x2", "\n", "#",
                        "kind", "gdd", "dm", " ", "1,2"]))
def test_verify_never_ends_in_a_traceback(tmp_path_factory, path, where, token):
    # In-process: an exception that escapes main() fails this test.
    tokens = re.findall(r"\w+|\W", path.read_text())
    tokens[where % len(tokens)] = token
    man = tmp_path_factory.mktemp("mutated") / "mutated.man"
    man.write_text("".join(tokens))
    err = io.StringIO()
    with redirect_stderr(err):
        status, out = run(["verify", str(man)])
    assert status in (0, 1, 2)
    assert (status == 2) == err.getvalue().startswith("error: ")
    assert (status == 1) == (" FAIL\n" in out)


G10 = "let g = manifest c22/type-2^10.man\n"
A77 = "let d = dm 19\nlet g = dm2gdc d\nlet c20 = code 20 2,2\n"


@pytest.mark.parametrize("text", [
    "result dm\n", "result\n", "let x\n", "let x =\n",
    G10 + "result adjoin g code=g\n", G10 + "result adjoin g y=1\n",
    G10 + "result adjoin y=1 code=g\n",
    G10 + "result fundamental g ingredients=g\n", G10 + "result fundamental g w=2\n",
    G10 + "result fill g 2\n", G10 + "result fill g\n",
    G10 + "result ascode g\nexpect size\n",
    # Names bound to the wrong kind of object.
    "let d = dm 4\nresult fill d 2:empty\n", "let d = dm 4\nresult inflate d 2\n",
    "let c = code 5 2,2\nresult dm2gdc c\n", G10 + "let s = shorten g 0\nresult fill s 2:g\n",
    # A positional argument or a key that the step does not declare.
    "let d = dm 4 99\n", "let d = dm 4\nlet g = dm2gdc d frist=1\n",
    G10 + "result ascode g junk\n",
    A77 + "result adjoin g y=1 frist=2 code=c20 fill=19:c20\n",
    A77 + "result adjoin g y=1 first=0 code=c20 fill=19:c20\n",
    A77 + "result adjoin g y=1 code=c20 fill=19:c20 20:c20\n",
])
def test_pipeline_missing_argument_is_a_data_error(tmp_path, capsys, text):
    pipe = tmp_path / "bad.pipe"
    pipe.write_text(text)
    status, _ = run(["build", "--pipeline", str(pipe)])
    err = capsys.readouterr().err
    assert status == 2
    assert err.startswith("error: ") and err.endswith(f": {text.splitlines()[-1]!r}\n")


def test_design_missing_header_key_is_a_data_error(tmp_path, capsys):
    gdd = tmp_path / "no-k.design"
    gdd.write_text("kind=gdd\nn=2\ngroups=\n0\n1\nblocks=\n0,1\n")
    status, _ = run(["design", "verify", str(gdd)])
    assert status == 2
    assert capsys.readouterr().err == "error: missing header k=\n"


def test_verify_code_with_a_bad_group_partition_lists_it(tmp_path, capsys):
    bad = tmp_path / "bad-groups.code"
    bad.write_text("n=4\ncomposition=2,2\ndistance=6\ngroups=\n0,1\n2\n0,2 ; 1,3\n")
    status, out = run(["verify", str(bad)])
    assert status == 1
    assert out == ("type 1^1 2^1 size 1 FAIL\n"
                   "  group-hit at (): groups do not partition [0, n)\n")
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name, text, want", [
    # A code file that mentions a section in a comment stays a code file.
    ("n4.code", "n=4\ncomposition=2,2\ndistance=6\n# words listed as in [orbits]\n0,1 ; 2,3\n",
     "n 4 size 1 OK\n"),
    # A file whose first line that is not a comment is a [section] header is
    # a manifest, whatever its name.
    ("g10.txt", "# a manifest\n\n" + MANIFEST_G10, "type 2^10 size 60 OK\n"),
])
def test_verify_reads_a_manifest_by_its_name_or_first_line(tmp_path, name, text, want):
    path = tmp_path / name
    path.write_text(text)
    assert run(["verify", str(path)]) == (0, want)


@pytest.mark.parametrize("name, edit", [
    ("type-2^10.man", None),
    ("bad.man", ("0,8 ; 14,19", "0,8 ; 14,18")),
    ("good.code", None),
    ("bad.code", ("0,5 ; 3,7\n", "0,5 ; 3,7\n0,5 ; 3,8\n")),
])
def test_verify_builds_the_kernel_masks_once(tmp_path, monkeypatch, name, edit):
    # Valid or not, manifest or code file: one build of the kernel's masks.
    from cccodes import core
    builds = []
    real = core._cells

    def counting(words):
        builds.append(len(words))
        return real(words)

    text = MANIFEST_G10
    if name.endswith(".code"):
        status, text = run(["develop", "c22/type-2^10.man"])
        assert status == 0
    path = tmp_path / name
    path.write_text(text.replace(*edit) if edit else text)
    monkeypatch.setattr(core, "_cells", counting)
    status, out = run(["verify", str(path)])
    assert status == (1 if "bad" in name else 0)
    assert len(builds) == 1 and out.splitlines()[0].endswith("FAIL" if status else "OK")


BUILD_USAGE = "design build wants: td <k> <m> | dm <g> | srf <t> <u>"


@pytest.mark.parametrize("argv, usage", [
    (["design", "verify"], "design verify wants: <file>"),
    (["design", "build", "td", "4"], BUILD_USAGE),
    (["design", "build", "dm"], BUILD_USAGE),
    (["design", "build", "srf", "2"], BUILD_USAGE),
])
def test_design_missing_argument_is_a_usage_error(capsys, argv, usage):
    status, _ = run(argv)
    assert status == 2
    assert capsys.readouterr().err == f"error: {usage}\n"


@pytest.mark.parametrize("k, m", [("-2", "3"), ("0", "5"), ("1", "3")])
def test_design_build_td_with_fewer_than_two_groups_is_a_data_error(capsys, k, m):
    status, out = run(["design", "build", "td", k, m])
    assert (status, out) == (2, "")
    assert capsys.readouterr().err == (
        f"error: a transversal design needs k >= 2, got k={k}\n")


def test_design_verify_of_a_negative_point_count_is_a_data_error(capsys, tmp_path):
    path = tmp_path / "td.design"
    path.write_text("kind=gdd\nn=-6\nk=-2\ngroups=\nblocks=\n\n\n")
    assert run(["design", "verify", str(path)]) == (2, "")
    assert capsys.readouterr().err == "error: line 2: want a count of at least 0: -6\n"


@pytest.mark.parametrize("holes, cell, want", [
    ("0\n1\n2", "5,7:0,1", "type-mismatch at (5, 7): cell outside [0, 3)"),
    ("0\n1\n2", "0,-1:0,1", "type-mismatch at (0, -1): cell outside [0, 3)"),
    ("0\n0", "0,1:0,1", "type-mismatch at (): groups do not partition [0, n)"),
    ("0\n5", "0,1:0,1", "type-mismatch at (): groups do not partition [0, n)"),
])
def test_room_frame_off_its_side_set_fails_verification(tmp_path, capsys, holes, cell, want):
    # Holes that do not partition [0, side), or a cell off it, are violations.
    from cccodes.constructions import ConstructionError, srf_to_gdc
    from cccodes.designs import read_design_text, verify_skew_room_frame

    text = f"kind=roomframe\nholes=\n{holes}\ncells=\n{cell}\n"
    path = tmp_path / "frame.design"
    path.write_text(text)
    status, out = run(["design", "verify", str(path)])
    assert status == 1 and out.startswith("FAIL\n  ") and capsys.readouterr().err == ""
    frame = read_design_text(text)
    assert want in map(str, verify_skew_room_frame(frame).violations)
    with pytest.raises(ConstructionError, match="^invalid skew Room frame: "):
        srf_to_gdc(frame)


@pytest.mark.parametrize("flag, value, what", [
    ("--budget-seconds", "nan", "seconds: nan"),
    ("--budget-seconds", "-1", "seconds: -1.0"),
    ("--budget-nodes", "-1", "nodes: -1"),
])
def test_malformed_search_budget_is_a_usage_error(capsys, flag, value, what):
    assert run(["search", "12", "--comp", "2,2", flag, value]) == (2, "")
    assert capsys.readouterr().err == f"error: want a search budget of at least 0 {what}\n"


@pytest.mark.parametrize("args", [["td", "4", "3"], ["td", "4", "5"], ["dm", "4"], ["dm", "12"],
                                  ["srf", "2", "5"]])
def test_every_built_design_reads_back_and_verifies(tmp_path, args):
    path = tmp_path / "built.design"
    assert run(["design", "build", *args, "--emit", str(path)]) == (0, f"OK -> {path}\n")
    assert run(["design", "verify", str(path)]) == (0, "OK\n")


@pytest.mark.parametrize("t", ["1", "2"])
def test_design_build_srf_with_one_hole_is_a_data_error(capsys, t):
    # One hole has no cross-hole pair, so no frame has cells to write.
    assert run(["design", "build", "srf", t, "1"]) == (2, "")
    assert capsys.readouterr().err == f"error: want at least two holes: [{t}]\n"


def test_design_verify_lists_every_violation(tmp_path, capsys):
    # The 4-GDD of type 2^7 cut to its first two blocks leaves 72 pairs of
    # points uncovered, each listed on its own line.
    text = (data_root() / "designs" / "gdd-4-2^7.design").read_text()
    head, blocks = text.split("blocks=\n")
    path = tmp_path / "two-blocks.design"
    path.write_text(head + "blocks=\n" + "".join(blocks.splitlines(True)[:2]))
    status, out = run(["design", "verify", str(path)])
    lines = out.splitlines()
    assert (status, lines[0], len(lines)) == (1, "FAIL", 73)
    assert all(line.startswith("  distance at (") for line in lines[1:])
    assert capsys.readouterr().err == ""


def _ccc(*argv, **kw):
    src = str(Path(cccodes.__file__).resolve().parents[1])
    return subprocess.Popen([sys.executable, "-m", "cccodes.cli", *argv],
                            env=dict(os.environ, PYTHONPATH=src), **kw)


def test_verify_into_a_reader_that_stops_after_one_line_exits_1_quietly(tmp_path):
    # As `ccc verify FILE | head -1`: the reader takes the FAIL line of
    # 45,751 and closes the pipe, which the verdict outlives.
    text = (data_root() / "manifests" / "c22" / "code-n61.man").read_text()
    man = tmp_path / "n61-d8.man"
    man.write_text(text.replace("distance = 6", "distance = 8"))
    with open(tmp_path / "err", "wb") as err:
        proc = _ccc("verify", str(man), stdout=subprocess.PIPE, stderr=err)
        first = proc.stdout.readline()
        proc.stdout.close()
        status = proc.wait()
    assert (first, status) == (b"type 1^61 size 610 FAIL\n", 1)
    assert (tmp_path / "err").read_bytes() == b""


def test_table_into_a_closed_pipe_exits_0_quietly():
    # The reader is gone before the first byte, so every write fails.
    r, w = os.pipe()
    os.close(r)
    try:
        proc = _ccc("table", "4..2000", "--format", "csv", stdout=w, stderr=subprocess.PIPE)
        _, err = proc.communicate()
    finally:
        os.close(w)
    assert (proc.returncode, err) == (0, b"")


@pytest.mark.parametrize("span", ["10..4", "4-10", "4..x", "5..4"])
def test_table_of_a_bad_range_is_a_usage_error(capsys, span):
    assert run(["table", span]) == (2, "")
    assert capsys.readouterr().err == f"error: bad range {span!r}; want e.g. 4..10\n"


def test_pipeline_result_that_fails_verification_lists_every_violation(tmp_path, capsys):
    # A corrupted 7-word code as a pipeline's result: `ccc build --pipeline`
    # exits 1 and lists what `ccc verify` of the code lists, all 22 of them.
    bad = tmp_path / "BAD.code"
    bad.write_text("n=9\ncomposition=2,2\ndistance=6\n" + "0,1 ; 2,3\n" * 5
                   + "0,1,4 ; 2\n0,5 ; 2,3\n")
    pipe = tmp_path / "bad.pipe"
    pipe.write_text(f"result codefile {bad}\n")
    verified = run(["verify", str(bad)])
    assert run(["build", "--pipeline", str(pipe)]) == verified
    status, out = verified
    assert (status, out.splitlines()[0], len(out.splitlines())) == (1, "n 9 size 7 FAIL", 23)
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# One property over the whole command line: argv drawn over every subcommand,
# with small arguments, shipped files and files the test itself wrote.

DATA = data_root()
SHIPPED = sorted(str(p.relative_to(DATA / p.relative_to(DATA).parts[0]))
                 for p in DATA.rglob("*") if p.is_file())
COMPS = st.sampled_from(["2,2", "3,1", "1,3", "2,1,1", "2,1", "4", "1",
                         "0,2", "2,-1", "", "x", "9,9"])
EDITS = st.sampled_from(["", "0", "-1", "99", "x", ",", ";", ":", "=", "\n", "#",
                         " ", "1,2", "kind", "dm"])


def _file(draw, where):
    # A shipped file by the name the CLI resolves, or one with a token edited.
    name = draw(st.sampled_from(SHIPPED))
    if draw(st.booleans()):
        return name
    text = next(DATA.glob(f"*/{name}")).read_text()
    tokens = re.findall(r"\w+|\W", text)
    tokens[draw(st.integers(0, len(tokens) - 1))] = draw(EDITS)
    path = where / f"edited{Path(name).suffix}"
    path.write_text("".join(tokens))
    return str(path)


def _argv(draw, where):
    """An argv over one subcommand, and the file its --emit names, if any."""
    n = str(draw(st.integers(-1, 12)))
    emit = draw(st.sampled_from([None, "out.code"]))
    cmd = draw(st.sampled_from(["verify", "develop", "bound", "search", "build",
                                "spectrum", "table", "design"]))
    if cmd == "verify":
        argv = [cmd, _file(draw, where)]
        emit = None
    elif cmd == "develop":
        argv = [cmd, _file(draw, where)]
    elif cmd == "bound":
        argv = [cmd, n, "--comp", draw(COMPS)]
        argv += draw(st.sampled_from([[], ["--method", "u"], ["--method", "johnson"],
                                      ["--method", "per-position"], ["--method", "all"]]))
        emit = None
    elif cmd == "search":
        argv = [cmd, n, "--comp", draw(COMPS), "--budget-nodes",
                str(draw(st.integers(0, 1_000)))]
        argv += draw(st.sampled_from([[], ["--d", "6"], ["--d", "4"], ["--d", "8"],
                                      ["--d", "9"], ["--d", "1"], ["--d", "0"]]))
        argv += draw(st.sampled_from([[], ["--budget-seconds", "0"],
                                      ["--budget-seconds", "inf"]]))
    elif cmd == "build":
        argv = [cmd] + draw(st.sampled_from([[n], [n, "--comp", draw(COMPS)], [],
                                             ["--pipeline", _file(draw, where)]]))
    elif cmd in ("spectrum", "table"):
        span = f"{draw(st.integers(-1, 12))}..{draw(st.integers(-1, 12))}"
        argv = [cmd, n if cmd == "spectrum" else span]
        argv += draw(st.sampled_from([[], ["--comp", draw(COMPS)]]))
        if cmd == "table":
            argv += draw(st.sampled_from([[], ["--format", "text"], ["--format", "csv"],
                                          ["--format", "md"]]))
        emit = None
    else:
        emit = draw(st.sampled_from([None, "out.design"]))
        what = draw(st.sampled_from(["verify", "td", "dm", "srf"]))
        if what == "verify":
            argv = [cmd, what, _file(draw, where)]
            emit = None
        elif what == "td":
            argv = [cmd, "build", what, str(draw(st.integers(-1, 8))),
                    str(draw(st.integers(-1, 8)))]
        elif what == "dm":
            argv = [cmd, "build", what, str(draw(st.integers(-1, 20)))]
        else:
            t = draw(st.integers(1, 8))
            argv = [cmd, "build", what, str(t), str(draw(st.integers(1, 8 // t)))]
    if emit:
        emit = str(where / emit)
        argv += ["--emit", emit]
    return argv, emit


def _columns(line: str, fmt: str) -> int:
    if fmt == "csv":
        return len(next(csv.reader([line])))
    if fmt == "md":
        return len(line.strip("|").split("|"))
    return len(line.split())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_every_command_exits_0_1_or_2_and_emits_what_verifies(tmp_path_factory, data):
    where = tmp_path_factory.mktemp("cli")
    argv, emit = _argv(data.draw, where)
    err = io.StringIO()
    with redirect_stderr(err):
        status, out = run(argv)
    assert status in (0, 1, 2)
    assert (status == 2) == err.getvalue().startswith("error: ")
    if status == 0 and emit:
        check = ["design", "verify", emit] if argv[0] == "design" else ["verify", emit]
        with redirect_stderr(io.StringIO()):
            assert run(check)[0] == 0
    if status == 0 and argv[0] == "table":
        lo, hi = map(int, argv[1].split(".."))
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
        lines = [line for line in out.splitlines() if not set(line) <= set("|-")]
        assert {_columns(line, fmt) for line in lines} == {1 + hi - lo + 1}


@pytest.mark.parametrize("argv, err", [
    (["spectrum", "12"], "error: the following arguments are required: --comp\n"
                         "usage: ccc spectrum [-h] --comp COMP n\n"),
    (["table", "-1..4"], "error: the following arguments are required: range\n"
                         "usage: ccc table [-h] [--comp COMP] [--format {text,csv,md}] range\n"),
    (["search", "8", "--comp", "2,2", "--d", "9"],
     "error: want a distance of at most twice the weight (8): 9\n"),
    (["search", "5", "--comp", "1"], "error: want a distance of at most twice the weight (2): 6\n"),
])
def test_usage_errors_and_distances_no_word_reaches_exit_2_from_main(capsys, argv, err):
    assert run(argv) == (2, "")
    assert capsys.readouterr().err == err


def test_manifest_distance_no_word_reaches_is_a_data_error(tmp_path, capsys):
    man = tmp_path / "far.man"
    man.write_text(MANIFEST_G10.replace("distance = 6", "distance = 9"))
    assert run(["verify", str(man)]) == (2, "")
    assert capsys.readouterr().err == (
        "error: line 2: want a distance of at most twice the weight (8): 9\n")


def test_one_class_search_witness_reads_back(tmp_path):
    # A one-class word is written with no `;` and read back as a word.
    path = tmp_path / "w.code"
    assert run(["search", "6", "--comp", "4", "--d", "4", "--emit", str(path)])[0] == 0
    assert path.read_text().splitlines()[3] == "0,1,2,3"
    assert run(["verify", str(path)]) == (0, "n 6 size 3 OK\n")
