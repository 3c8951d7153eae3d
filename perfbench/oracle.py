"""Checks that share no code with cccodes.

The benchmark does not trust the program's own verifier for its checks. This
module reads and writes the code interchange format itself, measures distance
on full vectors, and predicts the violation list that `ccc verify` must print
for a certified code after a few seeded mutations.

A word is a tuple of supports, one sorted tuple of points per nonzero symbol:
((symbol-1 points), (symbol-2 points)).
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass
class CodeFile:
    header: list[str]                      # the n=, composition=, distance= lines
    n: int
    distance: int
    groups: list[tuple[int, ...]] | None   # None for a plain code
    words: list[tuple[tuple[int, ...], ...]]


def parse_code_file(text: str) -> CodeFile:
    """Read the interchange format (no comments: the benchmark reads only
    files that the program emitted)."""
    header: list[str] = []
    fields: dict[str, str] = {}
    groups = None
    words = []
    for line in text.splitlines():
        if ";" in line:
            words.append(tuple(tuple(int(x) for x in part.split(",") if x.strip())
                               for part in line.split(";")))
        elif line == "groups=":
            groups = []
        elif groups is None or "=" in line:
            key, value = line.split("=", 1)
            fields[key] = value
            header.append(line)
        else:
            groups.append(tuple(int(x) for x in line.split(",")))
    return CodeFile(header, int(fields["n"]), int(fields["distance"]), groups, words)


def render_code_file(f: CodeFile) -> str:
    lines = list(f.header)
    if f.groups is not None:
        lines.append("groups=")
        lines += [",".join(map(str, g)) for g in f.groups]
    lines += [" ; ".join(",".join(map(str, cls)) for cls in w) for w in f.words]
    return "\n".join(lines) + "\n"


def full_vector(word, n: int) -> list[int]:
    v = [0] * n
    for symbol, cls in enumerate(word, start=1):
        for x in cls:
            v[x] = symbol
    return v


def brute_force_ok(words, n: int, distance: int, composition: tuple[int, ...]) -> bool:
    """Every word has the composition and every pair of full vectors differs
    in at least `distance` positions."""
    if any(tuple(len(cls) for cls in w) != composition for w in words):
        return False
    vecs = [full_vector(w, n) for w in words]
    return all(sum(a != b for a, b in zip(vecs[i], vecs[j])) >= distance
               for i in range(len(vecs)) for j in range(i + 1, len(vecs)))


def mutate(f: CodeFile, rng: random.Random, moves: int) -> tuple[CodeFile, set[int]]:
    """Move one point of `moves` distinct words to a point the word does not
    use, then append a copy of one word. Returns the new file and the indices
    of the words that changed."""
    words = list(f.words)
    touched = set(rng.sample(range(len(words)), moves))
    for i in sorted(touched):
        classes = [list(cls) for cls in words[i]]
        used = {x for cls in classes for x in cls}
        cls = rng.randrange(len(classes))
        classes[cls][rng.randrange(len(classes[cls]))] = rng.choice(
            [x for x in range(f.n) if x not in used])
        words[i] = tuple(tuple(sorted(c)) for c in classes)
    words.append(words[rng.randrange(len(words))])
    touched.add(len(words) - 1)
    return CodeFile(f.header, f.n, f.distance, f.groups, words), touched


def expected_violations(f: CodeFile, touched: set[int]) -> set[tuple[str, str, str]]:
    """(kind, witness, measured) of every violation, as `ccc verify` prints
    them, assuming that the words outside `touched` form a certified code.
    Only pairs that meet a touched word are scanned: O(len(touched) * N)."""
    vecs = [dict((x, s) for s, cls in enumerate(w, start=1) for x in cls)
            for w in f.words]
    out = set()
    pairs = {(min(i, j), max(i, j)) for i in touched for j in range(len(vecs)) if j != i}
    for i, j in pairs:
        a, b = vecs[i], vecs[j]
        d = sum(a.get(x) != b.get(x) for x in a.keys() | b.keys())
        if d == 0:
            out.add(("duplicate", str((i, j)), "0"))
        elif d < f.distance:
            out.add(("distance", str((i, j)), str(d)))
    if f.groups is not None:
        group_of = {x: k for k, g in enumerate(f.groups) for x in g}
        for i in touched:
            first: dict[int, int] = {}
            for x in sorted(vecs[i]):
                k = group_of[x]
                if k in first:
                    out.add(("group-hit", str((i, k)), f"points {first[k]} and {x}"))
                else:
                    first[k] = x
    return out


def printed_violations(stdout: str) -> list[tuple[str, str, str]]:
    """Parse the `  <kind> at <witness>: <measured>` lines of `ccc verify`."""
    out = []
    for line in stdout.splitlines():
        if line.startswith("  "):
            kind, rest = line[2:].split(" at ", 1)
            witness, measured = rest.split(": ", 1)
            out.append((kind, witness, measured))
    return out
