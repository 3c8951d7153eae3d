"""The spectrum of maximum code sizes and the executable recipe index.

The spectrum function encodes the final classification: closed-form exact
values outside literal exception tables, one-sided ranges on the two [2,2]
near-miss tables, and open entries bounded below by monotonicity (a code of
length n-1 zero-extends to length n) and above by the closed-form bound.

Exception tables are stored as literal data, transcribed once here and once,
independently, in the acceptance suite (double-entry bookkeeping).
"""

from __future__ import annotations

from functools import lru_cache

from .bounds import upper_bound
from .core import Code, Composition, _Record
from . import dataio, pipelines

__all__ = [
    "RecipeInfo",
    "SpectrumEntry",
    "build_optimal",
    "list_recipes",
    "spectrum",
]


# --------------------------------------------------------------------------
# Exception data for composition [2,2] (weight-4 distance-6 ternary codes)
# --------------------------------------------------------------------------

# literal small exact values below/off the closed form
LITERAL_22 = {4: 1, 5: 1, 7: 3, 8: 5, 11: 15}

# lengths where the exact value is open (bounded above by the closed form)
Q_OPEN_22 = frozenset({13, 16, 22, 59, 65, 71, 76, 88, 94, 124})

# exact value is U or U-1
Q_MINUS1_22 = frozenset(
    {14, 23, 29, 35, 41, 47, 53, 83}
    | {n for n in range(95, 324) if n % 24 in (11, 17, 23)}
    | {347, 353, 359, 371, 377})

# exact value is within U-2 .. U
Q_MINUS2_22 = frozenset({17, 89})

# --------------------------------------------------------------------------
# Exception data for composition [3,1], by residue i = n mod 9 on t = n div 9
# --------------------------------------------------------------------------

LITERAL_31 = {7: 2, 8: 4}

OPEN_T_31 = {
    1: frozenset({2}),
    4: frozenset({1, 5, 6, 7, 9, 10, 11, 13, 14, 15, 21, 25, 26}
                 | set(range(29, 82, 4))),
    5: frozenset(set(range(5, 16)) | {26}),
    7: frozenset({4, 5} | set(range(7, 17)) | {20, 26, 28}),
    8: frozenset(set(range(3, 13)) | {15, 23, 28}),
}

# published lower bounds for open lengths (beyond monotonicity)
KNOWN_LOWER = {(13, (2, 2)): 21}


class SpectrumEntry(_Record):
    __slots__ = ("n", "composition", "kind", "lo", "hi", "source")
    n: int
    composition: Composition
    kind: str  # "exact" | "range" | "open"
    lo: int
    hi: int
    source: str

    @property
    def exact(self) -> int | None:
        return self.lo if self.kind == "exact" else None


def spectrum(n: int, comp: Composition | tuple[int, ...]) -> SpectrumEntry:
    key = comp.weights if isinstance(comp, Composition) else tuple(comp)
    return _spectrum(n, key)


@lru_cache(maxsize=None)
def _spectrum(n: int, comp_key: tuple[int, ...]) -> SpectrumEntry:
    comp = Composition(comp_key)
    if n < 4:
        raise ValueError(f"spectrum starts at n=4, got {n}")
    hi = upper_bound(n, comp).value
    if comp_key == (2, 2):
        if n in LITERAL_22:
            v = LITERAL_22[n]
            return SpectrumEntry(n, comp, "exact", v, v, "literal-exception")
        if n in Q_OPEN_22:
            return SpectrumEntry(n, comp, "open", _open_lower(n, comp_key), hi,
                                 "open-case")
        if n in Q_MINUS1_22:
            return SpectrumEntry(n, comp, "range", hi - 1, hi, "one-below-table")
        if n in Q_MINUS2_22:
            return SpectrumEntry(n, comp, "range", hi - 2, hi, "two-below-table")
        return SpectrumEntry(n, comp, "exact", hi, hi, "closed-form")
    if comp_key == (3, 1):
        if n in LITERAL_31:
            v = LITERAL_31[n]
            return SpectrumEntry(n, comp, "exact", v, v, "literal-exception")
        t, i = divmod(n, 9)
        if t in OPEN_T_31.get(i, frozenset()):
            return SpectrumEntry(n, comp, "open", _open_lower(n, comp_key), hi,
                                 "open-case")
        return SpectrumEntry(n, comp, "exact", hi, hi, "closed-form")
    raise ValueError(f"spectrum covers compositions [2,2] and [3,1], got [{comp}]")


def _open_lower(n: int, comp_key: tuple[int, ...]) -> int:
    """Best shipped lower bound for an open length: a stated bound if any,
    else monotonicity from the nearest smaller settled length.  The words of
    a code of length m are words of length n > m, zero-extended, so
    ``Code(n, comp, 6, code.words)`` verifies whenever the code of length m
    does."""
    best = KNOWN_LOWER.get((n, comp_key), 1)
    m = n - 1
    while m >= 4:
        e = spectrum(m, comp_key)
        if e.kind != "open":
            return max(best, e.lo)
        m -= 1
    return best


# --------------------------------------------------------------------------
# Recipes
# --------------------------------------------------------------------------

class RecipeInfo(_Record):
    __slots__ = ("n", "composition", "recipe_id")
    n: int
    composition: str
    recipe_id: str


# kind: manifest (develop, read as a plain code) | witness (shipped code file)
#     | pipeline (declarative construction file) | shorten (delete the last
#       point of the optimal code one longer) | fill (fill each group of a
#       grouped manifest with the optimal code of the group's length, or an
#       empty code below the weight).  Every kind runs through the pipeline
#       runner, from the text that _recipe_text gives.
_R22: dict[int, tuple[str, str]] = {}
_R31: dict[int, tuple[str, str]] = {}


def _init_recipes() -> None:
    for n in range(4, 11):
        _R22[n] = ("witness", f"n{n}-22.code")
        _R31[n] = ("witness", f"n{n}-31.code")
    _R22[11] = ("witness", "n11-22.code")
    # --- [2,2]: cyclic developments that are codes outright
    for n in (12, 13, 14, 15, 17, 19, 25, 28, 31, 34, 37, 40, 43, 46, 49, 52,
              55, 58, 61, 67, 79, 85, 87, 103, 123):
        _R22[n] = ("manifest", f"c22/code-n{n}.man")
    # grouped codes whose underlying plain code is already optimal
    for n, rel in [
        (20, "c22/type-2^10.man"), (21, "c22/type-3^7.man"),
        (26, "c22/type-2^13.man"), (32, "c22/type-2^16.man"),
        (33, "c22/type-3^11.man"), (38, "c22/type-2^19.man"),
        (39, "c22/type-3^13.man"), (44, "c22/type-2^22.man"),
        (50, "c22/type-2^25.man"), (56, "c22/type-2^28.man"),
        (62, "c22/type-2^31.man"), (68, "c22/type-2^34.man"),
        (86, "c22/type-2^43.man"), (104, "c22/type-2^52.man"),
    ]:
        _R22[n] = ("manifest", rel)
    for n in (18, 24, 30, 36, 42, 48, 54, 60, 66, 78, 84, 102,
              27, 45, 51, 57):
        _R22[n] = ("shorten", str(n + 1))
    for n in (23, 29, 35, 41, 47, 53):
        _R22[n] = ("fill", f"c22/type-2^{(n - 5) // 2}+5^1.man")
    _R22[70] = ("fill", "c22/type-10^7.man")
    for n in (77, 80):
        _R22[n] = ("pipeline", f"c22/n{n}.pipe")

    # --- [3,1]
    _R31[11] = ("manifest", "c31/type-1^9+2^1.man")
    _R31[12] = ("manifest", "c31/type-1^9+3^1.man")
    for n in (14, 15, 16, 17, 18, 20, 22, 23, 25, 26, 28, 29, 31, 32, 34):
        _R31[n] = ("manifest", f"c31/code-n{n}.man")
    for n, rel in [(21, "c31/type-3^7.man"), (57, "c31/type-3^19.man")]:
        _R31[n] = ("manifest", rel)
    _R31[27] = ("shorten", "28")
    for n in (24, 33, 51, 69, 87):
        _R31[n] = ("fill", f"c31/type-1^{n - 6}+6^1.man")
    _R31[42] = ("fill", "c31/type-6^7.man")
    _R31[30] = ("pipeline", "c31/n30.pipe")


_init_recipes()


def _registry(comp: Composition) -> dict[int, tuple[str, str]]:
    if comp.weights == (2, 2):
        return _R22
    if comp.weights == (3, 1):
        return _R31
    raise ValueError(f"no recipes for composition [{comp}]")


def list_recipes() -> list[RecipeInfo]:
    out = []
    for comp, reg in ((Composition((2, 2)), _R22), (Composition((3, 1)), _R31)):
        for n in sorted(reg):
            kind, arg = reg[n]
            out.append(RecipeInfo(n, str(comp), f"{kind}:{arg}"))
    return out


class RecipeError(ValueError):
    pass


_STEPS = {
    "witness": "result codefile {arg}",
    "manifest": "result manifest {arg}",
    "shorten": "let src = code {arg} {comp}\nresult shorten src {n}",
}


def _recipe_text(n: int, comp: Composition) -> str:
    """The recipe for (n, comp) as pipeline text.  A fill recipe reads its
    manifest's declared type: each group size of at least the weight gets
    the catalog's optimal code of that length, each smaller one an empty
    code."""
    reg = _registry(comp)
    if n not in reg:
        raise RecipeError(f"no recipe for ({n}, [{comp}])")
    kind, arg = reg[n]
    if kind == "pipeline":
        return (dataio.data_root() / "recipes" / arg).read_text()
    if kind != "fill":
        return _STEPS[kind].format(arg=arg, comp=comp, n=n)
    gdc_type = dataio.load_manifest(arg).expected_type
    if gdc_type is None:
        raise RecipeError(f"fill recipe {arg} declares no group type")
    sizes = [s for s, _ in gdc_type.factors]
    lets = "".join(f"let c{s} = code {s} {comp}\n" for s in sizes if s >= comp.weight)
    fillers = ",".join(f"{s}:c{s}" if s >= comp.weight else f"{s}:empty" for s in sizes)
    return f"let g = manifest {arg}\n{lets}result fill g {fillers}\n"


@lru_cache(maxsize=None)
def build_optimal(n: int, comp: Composition) -> Code:
    """Run the recipe for (n, comp) as a pipeline, which verifies the result,
    and check the size against the spectrum (the exact value, or the recorded
    bound for lengths whose exact value is open).  The cache makes that one
    verification per code and process, for nested ``code`` steps too."""
    code = pipelines.run_pipeline_text(_recipe_text(n, comp)).as_code()
    entry = spectrum(n, comp.weights)
    if entry.kind == "exact":
        if len(code) != entry.exact:
            raise RecipeError(
                f"recipe size {len(code)} != exact spectrum value {entry.exact}")
    else:
        if not entry.lo <= len(code) <= entry.hi:
            raise RecipeError(
                f"recipe size {len(code)} outside spectrum bounds "
                f"[{entry.lo}, {entry.hi}]")
    return code
