"""One pass of one benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED TRACED

Prints one JSON line: CPU and wall time of the timed section and of its two
parts, peak RSS, the share of the section's wall time that the hypervisor
took the CPUs away (steal), the checks attempted and failed, and, when TRACED
is 1, the per-layer timings and counts. CPU times include the `ccc` processes
the pass waits for. The timed section starts before cccodes is imported, so
every lru_cache in the program starts cold.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MANIFESTS = SRC / "cccodes" / "data" / "manifests"
GOLDEN_PATH = BENCH / "golden.json"

# Sizes from Table I of the paper, plus A(11, [3,1]) = 11.
TABLE = {
    (2, 2): {4: 1, 5: 1, 6: 3, 7: 3, 8: 5, 9: 9, 10: 15},
    (3, 1): {4: 1, 5: 1, 6: 2, 7: 2, 8: 4, 9: 6, 10: 10, 11: 11},
}
# (manifest, m, expected type, expected size) of each inflation, the [3,1]
# code between the two [2,2] codes. m = 27 and m = 49 are left out: with the
# dense verify kernel, m = 27 takes about a minute and 700 MB to verify, and
# m = 49 does not fit in a run.
INFLATIONS = [
    ("c22/type-2^10.man", 9, "18^10", 4860),
    ("c31/type-3^7.man", 16, "48^7", 10752),
    ("c22/type-2^10.man", 16, "32^10", 15360),
]
# The six largest shipped developments (2,754 to 5,616 words).
CLI_MANIFESTS = [
    "c31/type-36^6+27^1.man", "c31/type-9^23.man", "c31/type-27^6+18^1.man",
    "c22/type-18^6+33^1.man", "c31/type-27^6+9^1.man", "c31/type-9^18.man",
]
CLI_MOVES = 3          # point moves per corrupted file, plus one duplicated word
CLI_TIMEOUT_S = 60


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Pass:
    """Checks, part times and layer metrics of one pass.

    `call` times a call into the program only when traced: an untraced pass
    makes the same calls without the timer."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.attempted = 0
        self.failures: list[str] = []
        self.layers: dict[str, float] = defaultdict(float)
        self.cpu = {"a": 0.0, "b": 0.0, "": 0.0}
        self.wall = {"a": 0.0, "b": 0.0, "": 0.0}

    def item(self, part: str, key: str, fn, *args):
        """Run one item of the workload, adding its CPU and wall time to part
        "a", "b" or "" (neither). An exception from the program is a failed
        check."""
        c, t = cpu_seconds(), time.perf_counter()
        try:
            return fn(*args)
        except Exception as e:  # the program under test may raise anything
            self.check(False, f"{key}: {type(e).__name__}: {e}")
            return None
        finally:
            self.wall[part] += time.perf_counter() - t
            self.cpu[part] += cpu_seconds() - c

    def call(self, layer: str, fn, *args):
        if not self.traced:
            return fn(*args)
        t = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.layers[layer] += time.perf_counter() - t

    def count(self, name: str, k: float) -> None:
        self.layers[name] += k

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def verified(self, key: str, g, verify, *expect) -> None:
        """verify_gdc through the core layer, with its counts."""
        rep = self.call("core.verify_s", verify, g, *expect)
        n = len(g)
        self.count("core.verify_words", n)
        self.count("core.verify_pairs", n * (n - 1) // 2)
        self.count("core.violations", len(rep.violations))
        self.check(rep.ok, f"{key}: {rep.summary()}")

    def emitted(self, key: str, obj, write, want: str) -> str:
        """write_code_text through the core layer, checked against its golden hash."""
        text = self.call("core.write_s", write, obj)
        self.count("core.write_bytes", len(text.encode()))
        self.check(sha256(text) == want, f"{key}: emitted bytes differ from the golden hash")
        return text


def interleaved(a: list, b: list) -> list:
    """The items of parts a and b, each list in its own order, with the shorter
    list spread evenly through the longer. The host's speed drifts over
    seconds; interleaving samples both parts across the whole pass."""
    ranked = [((i + 0.5) / len(a), x) for i, x in enumerate(a)]
    ranked += [((j + 0.5) / len(b), y) for j, y in enumerate(b)]
    return [x for _, x in sorted(ranked, key=lambda r: r[0])]


def run_items(p: Pass, items: list) -> None:
    for part, key, fn, *args in items:
        p.item(part, key, fn, *args)


def developed(p: Pass, rel: str):
    """Parse and develop a shipped manifest through the group_action layer."""
    from cccodes.group_action import develop, parse_manifest

    m = p.call("group_action.parse_s", parse_manifest,
               (MANIFESTS / rel).read_text(), Path(rel).name)
    g = p.call("group_action.develop_s", develop, m)
    p.count("group_action.words", len(g))
    return m, g


def certify(p: Pass, golden: dict, seed: int) -> None:
    from cccodes import catalog
    from cccodes.core import Composition, read_code_text, verify_gdc, write_code_text

    def manifest(rel: str, want: str) -> None:
        m, g = developed(p, rel)
        p.verified(rel, g, verify_gdc, m.expected_type, m.expected_size)
        back = p.call("core.read_s", read_code_text, p.emitted(rel, g, write_code_text, want))
        p.check((back.code.n, back.code.composition, back.code.distance,
                 back.code.words, back.partition)
                == (g.code.n, g.code.composition, g.code.distance,
                    g.code.words, g.partition), f"{rel}: read(write(code)) != code")

    def recipe(key: str, want: str) -> None:
        comp, n = key.split("/")
        code = p.call("catalog.build_s", catalog.build_optimal, int(n), Composition.parse(comp))
        p.count("catalog.recipes", 1)
        p.emitted(key, code, write_code_text, want)

    run_items(p, interleaved(
        [("a", rel, manifest, rel, want) for rel, want in golden["manifests"].items()],
        [("b", key, recipe, key, want) for key, want in golden["recipes"].items()]))


def search(p: Pass, golden: dict, seed: int) -> None:
    from cccodes.core import Composition
    from cccodes.search import enumerate_codewords, max_code

    def one(tag: str, comp: Composition, n: int, size: int) -> None:
        words = p.call(f"search.{tag}.enum_s", enumerate_codewords, n, comp)
        p.count(f"search.{tag}.vertices", len(words))
        out = p.call(f"search.{tag}.max_code_s", max_code, n, 6, comp)
        p.count(f"search.{tag}.nodes", out.nodes)
        key = f"max_code({n}, [{comp}])"
        p.check(out.status == "exact", f"{key}: status {out.status}")
        p.check(out.size == size == len(out.witness), f"{key}: size {out.size} != {size}")
        witness = [w.supports for w in out.witness.words]
        p.check(out.witness.n == n and oracle.brute_force_ok(witness, n, 6, comp.weights),
                f"{key}: witness fails the brute-force distance scan")

    def table(part: str, comp: tuple[int, int], repeat: str = "") -> list:
        tag = "".join(map(str, comp))
        return [(part, f"search {tag} n={n}{repeat}", one, tag, Composition(comp), n, size)
                for n, size in TABLE[comp].items()]

    # The [2,2] table takes half the time of the [3,1] table, so it runs twice,
    # before and after the [3,1] table's longest search: each part then
    # averages the host's speed over about the same stretch of the pass.
    run_items(p, interleaved(table("a", (2, 2)) + table("a", (2, 2), " again"),
                             table("b", (3, 1))))


def inflated(p: Pass, rel: str, m: int, bases: dict):
    """Develop `rel` (once per pass) and inflate it by m through TD(4, m)."""
    from cccodes.constructions import inflate
    from cccodes.designs import build_td

    if rel not in bases:
        bases[rel] = developed(p, rel)[1]
    td = p.call("designs.build_td_s", build_td, 4, m)
    g = p.call("constructions.inflate_s", inflate, bases[rel], m, td)
    p.count("constructions.words", len(g))
    return g


def inflate_workload(p: Pass, golden: dict, seed: int) -> None:
    from cccodes.core import GdcType, verify_gdc, write_code_text

    bases: dict = {}

    def one(rel: str, m: int, gtype: str, size: int) -> None:
        key = f"{rel}*{m}"
        g = inflated(p, rel, m, bases)
        p.verified(key, g, verify_gdc, GdcType.parse(gtype), size)
        p.emitted(key, g, write_code_text, golden["inflate"][key])

    for rel, m, gtype, size in INFLATIONS:
        p.item("a" if rel.startswith("c22/") else "b", f"{rel}*{m}", one, rel, m, gtype, size)


def cli_verify(p: Pass, golden: dict, seed: int) -> None:
    from cccodes.core import write_code_text

    def valid_text(key: str) -> str:
        if key in golden["manifests"]:
            return p.emitted(key, developed(p, key)[1], write_code_text, golden["manifests"][key])
        rel, m = key.split("*")
        g = inflated(p, rel, int(m), {})
        return p.emitted(key, g, write_code_text, golden["inflate"][key])

    def run_cli(path: Path) -> subprocess.CompletedProcess:
        t = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "cccodes.cli", "verify", str(path)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        cold.append(time.perf_counter() - t)
        p.check("Traceback" not in proc.stderr, f"{path.name}: traceback on stderr")
        return proc

    def make(key: str, work: Path):
        """Write the valid file and its seeded corruption; predict the violations."""
        text = valid_text(key)
        f = oracle.parse_code_file(text)
        bad, touched = oracle.mutate(f, random.Random(f"{seed}:{key}"), CLI_MOVES)
        name = key.replace("/", "_").replace("*", "_x")
        good_path, bad_path = work / f"{name}.code", work / f"{name}.bad.code"
        good_path.write_text(text)
        bad_path.write_text(oracle.render_code_file(bad))
        return good_path, len(f.words), bad_path, len(bad.words), oracle.expected_violations(bad, touched)

    def accept(key: str, path: Path, size: int) -> None:
        proc = run_cli(path)
        p.check(proc.returncode == 0 and proc.stdout.partition("\n")[0].endswith(
            f" size {size} OK"), f"{key}: accept run: exit {proc.returncode}, {proc.stdout[:200]!r}")

    def reject(key: str, path: Path, size: int, expected: set) -> None:
        proc = run_cli(path)
        printed = oracle.printed_violations(proc.stdout)
        p.count("cli.violation_lines", len(printed))
        p.check(proc.returncode == 1 and proc.stdout.partition("\n")[0].endswith(
            f" size {size} FAIL"), f"{key}: reject run: exit {proc.returncode}, {proc.stdout[:200]!r}")
        p.check(len(printed) == len(expected) and set(printed) == expected,
                f"{key}: printed {len(printed)} violations, the oracle expects "
                f"{len(expected)}; differing: {sorted(set(printed) ^ expected)[:5]}")

    cold: list[float] = []
    (BENCH / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "_work") as tmp:
        for key in [*CLI_MANIFESTS, "c22/type-2^10.man*9"]:
            made = p.item("", f"{key} make", make, key, Path(tmp))
            if made:
                good_path, good_size, bad_path, bad_size, expected = made
                p.item("a", f"{key} accept", accept, key, good_path, good_size)
                p.item("b", f"{key} reject", reject, key, bad_path, bad_size, expected)
    if cold:
        p.layers["cli.cold_s"] = statistics.median(cold)


# This process and the `ccc` processes it waits for.
WHO = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its waited-for children.
    The kernel leaves out time that the hypervisor gave to other guests."""
    return sum(u.ru_utime + u.ru_stime for u in map(resource.getrusage, WHO))


def steal_ticks() -> int:
    """Clock ticks that the hypervisor took the CPUs away, over all CPUs;
    0 where /proc/stat has no steal column."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return 0
    return int(fields[8]) if len(fields) > 8 else 0
# Every workload takes the same arguments; only cli-verify uses the seed.
WORKLOADS = {"certify": certify, "search": search, "inflate": inflate_workload,
             "cli-verify": cli_verify}


def main() -> int:
    workload, seed, traced = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    p = Pass(traced)
    p.check("cccodes" not in sys.modules, "cccodes was imported before the timed section")
    cpu0, steal0, t0 = cpu_seconds(), steal_ticks(), time.perf_counter()
    cccodes = p.item("", "import cccodes", importlib.import_module, "cccodes")
    if cccodes is None or SRC not in Path(cccodes.__file__).resolve().parents:
        print(f"cannot import cccodes from {SRC}: {p.failures[-1:]}", file=sys.stderr)
        return 2
    WORKLOADS[workload](p, json.loads(GOLDEN_PATH.read_text()), seed)
    wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
    steal = (steal_ticks() - steal0) / os.sysconf("SC_CLK_TCK")

    import numpy
    result = {
        "cpu_s": cpu,
        "peak_rss_mb": max(resource.getrusage(who).ru_maxrss for who in WHO) / 1024,
        "part_a_cpu_s": p.cpu["a"],
        "part_b_cpu_s": p.cpu["b"],
        "wall_s": wall,
        "part_a_wall_s": p.wall["a"],
        "part_b_wall_s": p.wall["b"],
        "steal_frac": steal / (wall * (os.cpu_count() or 1)),
        "attempted": p.attempted,
        "failures": p.failures,
        "numpy": numpy.__version__,
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"],
    }
    if traced:
        for tag in ("22", "31"):
            if p.layers[f"search.{tag}.max_code_s"]:
                p.layers[f"search.{tag}.nodes_per_s"] = (
                    p.layers[f"search.{tag}.nodes"] / p.layers[f"search.{tag}.max_code_s"])
        result["layers"] = p.layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
