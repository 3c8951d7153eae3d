"""Compare the result lines of two sets of benchmark runs.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the last stdout line of several runs of one workload (one
JSON object per line), for example from

    for s in 1 2 3 4 5 6 7 8 9 10; do
        python3 perfbench/run.py --workload certify --seed $s --seconds 20 --trace 0 | tail -n 1
    done > BASE.jsonl

Prints, per metric, each side's median and quartile spread, the change of
the median, and the metric's bound from BENCHMARK.json. A metric is marked
WORSE when the new median is worse than the base median by more than the
bound, and UNRESOLVED when the base's own spread exceeds the bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(path: str) -> tuple[dict[str, list[float]], int]:
    values: dict[str, list[float]] = {}
    failed = 0
    for line in Path(path).read_text().splitlines():
        if line.strip():
            res = json.loads(line)
            failed += res["failed"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
    return values, failed


def summary(v: list[float]) -> tuple[float, float]:
    """Median and interquartile distance as a share of the median."""
    med = statistics.median(v)
    if len(v) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(v, n=4)
    return med, (q[2] - q[0]) / abs(med)


def main() -> int:
    base, base_failed = load(sys.argv[1])
    new, new_failed = load(sys.argv[2])
    print(f"failed checks: base {base_failed}, new {new_failed}")
    worse = False
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        name = m["name"]
        if name not in base or name not in new:
            continue
        (b, bs), (n, ns) = summary(base[name]), summary(new[name])
        change = (n - b) / abs(b) if b else 0.0
        verdict = ""
        if "bound" in m:
            regress = change if m["better"] == "lower" else -change
            if bs > m["bound"]:
                verdict = "UNRESOLVED"
            elif regress > m["bound"]:
                verdict, worse = "WORSE", True
        print(f"{name:28s} base {b:12.5g} ({bs:6.1%})  new {n:12.5g} ({ns:6.1%})  "
              f"change {change:+7.1%}  {('bound %.0f%%' % (100 * m['bound'])) if 'bound' in m else ''} {verdict}")
    return 1 if worse or new_failed > base_failed else 0


if __name__ == "__main__":
    sys.exit(main())
