"""CLI behaviour: exit codes, deterministic output, round-trips."""

import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import cccodes
from cccodes.cli import main


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        status = main(argv)
    return status, buf.getvalue()


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
    assert out.splitlines()[1] == "[2,2],1,1,3"


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
    b = run(["table", "4..10", "--threads", "4"])
    assert a == b


def test_design_build_srf_nonexistence_exit_code():
    status, out = run(["design", "build", "srf", "2", "4"])
    assert status == 1
    assert "none" in out


def test_design_verify_pbd_index_two_is_a_data_error(tmp_path, capsys):
    pbd = tmp_path / "pbd-3-3-2.design"
    pbd.write_text("kind=pbd\nv=3\nlambda=2\nk=3\nblocks=\n0,1,2\n0,1,2\n")
    status, _ = run(["design", "verify", str(pbd)])
    assert status == 2
    assert capsys.readouterr().err == "error: only index-1 PBDs read as GDDs\n"


def test_search_emit_roundtrip(tmp_path):
    out_file = tmp_path / "w9.code"
    status, out = run(["search", "9", "--comp", "2,2", "--emit", str(out_file)])
    assert status == 0 and out.startswith("exact 9 ")
    status, out = run(["verify", str(out_file)])
    assert status == 0 and "size 9 OK" in out


def test_pipeline_build():
    from cccodes.dataio import data_root
    status, out = run(["build", "--pipeline",
                       str(data_root() / "recipes" / "c22" / "n77.pipe")])
    assert status == 0
    assert "size 962 OK" in out


def test_cli_start_up_does_not_import_numpy():
    src = str(Path(cccodes.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import cccodes.cli, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_manifest_shift_without_arguments_is_a_data_error(tmp_path, capsys):
    man = tmp_path / "bad.man"
    man.write_text("[meta]\ncomposition = 2,2\ndistance = 6\n[classes]\nplain 20\n"
                   "[generator]\nshift\n[orbits]\nfull: 0,5 ; 3,7\n")
    status, _ = run(["verify", str(man)])
    assert status == 2
    assert capsys.readouterr().err == "error: line 7: bad shift line: 'shift'\n"


def test_pipeline_unbound_name_is_a_data_error(tmp_path, capsys):
    pipe = tmp_path / "bad.pipe"
    pipe.write_text("result fill nosuch 19:empty\n")
    status, _ = run(["build", "--pipeline", str(pipe)])
    assert status == 2
    assert capsys.readouterr().err == "error: unbound name 'nosuch'\n"
