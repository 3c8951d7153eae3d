"""Record the golden SHA-256 of every output the benchmark checks.

    python3 perfbench/golden.py

Writes perfbench/golden.json: the hash of `write_code_text` for every shipped
manifest development, every catalog recipe and every inflation that the
benchmark runs. Then it spot-checks that `ccc develop --emit` and
`ccc build --emit` write the same bytes, and exits 1 if they do not.

Run it only when a change is meant to alter emitted codes: the hashes are the
byte-identical `--emit` gate for every other change.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from run import child_env
from worker import BENCH, INFLATIONS, MANIFESTS, ROOT, SRC, Pass, developed, sha256

sys.path.insert(0, str(SRC))

from cccodes import catalog  # noqa: E402
from cccodes.constructions import inflate  # noqa: E402
from cccodes.core import Composition, write_code_text  # noqa: E402
from cccodes.designs import build_td  # noqa: E402

SPOT_MANIFESTS = ["c22/type-2^10.man", "c31/code-n28.man", "c31/type-36^6+27^1.man"]
SPOT_RECIPES = ["2,2/18", "2,2/77", "3,1/87"]


def emitted(rel: str, m: int | None = None) -> str:
    """Hash of the development of `rel`, inflated by m when m is given."""
    g = developed(Pass(traced=False), rel)[1]
    return sha256(write_code_text(g if m is None else inflate(g, m, build_td(4, m))))


def main() -> int:
    manifests = sorted(p.relative_to(MANIFESTS).as_posix() for p in MANIFESTS.rglob("*.man"))
    golden = {
        "manifests": {rel: emitted(rel) for rel in manifests},
        "recipes": {
            f"{r.composition}/{r.n}": sha256(write_code_text(
                catalog.build_optimal(r.n, Composition.parse(r.composition))))
            for r in catalog.list_recipes()},
        "inflate": {f"{rel}*{m}": emitted(rel, m) for rel, m, _type, _size in INFLATIONS},
    }
    (BENCH / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {sum(map(len, golden.values()))} hashes to {BENCH / 'golden.json'}")

    ok = True
    (BENCH / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "_work") as tmp:
        out = Path(tmp) / "out.code"
        runs = [(["develop", rel], golden["manifests"][rel]) for rel in SPOT_MANIFESTS]
        runs += [(["build", key.split("/")[1], "--comp", key.split("/")[0]], golden["recipes"][key])
                 for key in SPOT_RECIPES]
        for args, want in runs:
            subprocess.run([sys.executable, "-m", "cccodes.cli", *args, "--emit", str(out)],
                           cwd=ROOT, env=child_env(), check=True, capture_output=True)
            same = sha256(out.read_text()) == want
            ok &= same
            print(f"ccc {' '.join(args)} --emit: {'same bytes' if same else 'DIFFERENT bytes'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
