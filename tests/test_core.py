"""Data-model and verification checks."""

import copy
import pickle
import random
from unittest.mock import patch
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cccodes.core import (
    Code,
    CodeTextError,
    Codeword,
    Composition,
    Gdc,
    GdcType,
    GroupPartition,
    VerificationReport,
    Violation,
    conflict_rows,
    gdc_type,
    hamming_distance,
    read_code_text,
    verify_expectations,
    verify_gdc,
    violations,
    write_code_text,
)


def _pair_scan_python(words: Sequence[Codeword], distance: int) -> list[Violation]:
    # Brute-force reference for the verifier's pair scan; tests compare the two.
    out = []
    for i in range(len(words)):
        wi = words[i]
        for j in range(i + 1, len(words)):
            d = hamming_distance(wi, words[j])
            if d == 0:
                out.append(Violation("duplicate", (i, j), 0))
            elif d < distance:
                out.append(Violation("distance", (i, j), d))
    return out


def w22(a, b, c, d, n=20):
    return Codeword(((a, b), (c, d)), n)


def test_hamming_identity_and_disjoint():
    u = w22(0, 5, 3, 7)
    assert hamming_distance(u, u) == 0
    v = w22(1, 6, 4, 8)
    assert hamming_distance(u, v) == 8


def test_hamming_symbol_swap():
    u = Codeword(((0, 1), (2, 3)), 4)
    v = Codeword(((2, 3), (0, 1)), 4)
    assert hamming_distance(u, v) == 4


def _full_vector(w: Codeword, n: int) -> list[int]:
    vec = [0] * n
    for s, cls in enumerate(w.supports):
        for x in cls:
            vec[x] = s + 1
    return vec


@st.composite
def _word_pairs(draw):
    # Two valid words of one length, each of any class count and sizes: a
    # shuffled [0, n) cut at sorted ends, the rest of it left at 0.
    n = draw(st.integers(1, 12))

    def word():
        points = draw(st.permutations(range(n)))
        ends = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
        return Codeword([points[a:b] for a, b in zip([0] + ends, ends)], n)

    return n, word(), word()


@settings(max_examples=400, deadline=None)
@given(_word_pairs())
def test_hamming_distance_matches_the_full_vectors(pair):
    n, u, v = pair
    want = sum(a != b for a, b in zip(_full_vector(u, n), _full_vector(v, n)))
    assert hamming_distance(u, v) == hamming_distance(v, u) == want


def test_a_word_hashes_as_its_supports():
    from cccodes.group_action import Permutation, orbit

    shift = Permutation([(x + 1) % 20 for x in range(20)])
    images = orbit(w22(0, 5, 3, 7), shift)
    assert len(images) == 20
    for k, w in enumerate(images):
        built = Codeword([reversed(cls) for cls in w.supports], 20)
        shifted = Codeword([[(x + k) % 20 for x in cls] for cls in w22(0, 5, 3, 7).supports], 20)
        assert w == built == shifted
        assert hash(w) == hash(built) == hash(shifted) == hash(w.supports)


def test_codeword_canonical_and_validation():
    u = Codeword(((5, 0), (7, 3)), 20)
    assert u.supports == ((0, 5), (3, 7))
    for classes, message in [
        (((-1, 2), (3, 4)), "point -1 outside ambient range [0, 5)"),
        (((0, 1), (2, 7, 6)), "point 6 outside ambient range [0, 5)"),
        (((0, 1), (5,)), "point 5 outside ambient range [0, 5)"),
        (((3, 1, 3), (0,)), "repeated point within a symbol class: (1, 3, 3)"),
        (((0, 1), (2, 1)), "symbol classes overlap: ((0, 1), (1, 2))"),
        # Two faults: the first class decides, and an overlap comes last.
        (((9, 9), (0,)), "point 9 outside ambient range [0, 5)"),
        (((1, 1), (7,)), "repeated point within a symbol class: (1, 1)"),
        (((0, 1), (1, 2), (-2,)), "point -2 outside ambient range [0, 5)"),
        (((0, 1), (1, 2), (3, 3)), "repeated point within a symbol class: (3, 3)"),
    ]:
        with pytest.raises(ValueError) as e:
            Codeword(classes, 5)
        assert str(e.value) == message


def _first_fault(classes, n):
    # Brute force: each class in order for range then repeats, then overlaps.
    sup = tuple(tuple(sorted(cls)) for cls in classes)
    for cls in sup:
        for x in cls:
            if not 0 <= x < n:
                return f"point {x} outside ambient range [0, {n})"
        if len(set(cls)) != len(cls):
            return f"repeated point within a symbol class: {cls}"
    points = [x for cls in sup for x in cls]
    if len(set(points)) != len(points):
        return f"symbol classes overlap: {sup}"
    return None


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 9).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.lists(st.integers(-2, n + 2), max_size=4), max_size=3))))
def test_codeword_validation_matches_brute_force(case):
    n, classes = case
    fault = _first_fault(classes, n)
    if fault is not None:
        with pytest.raises(ValueError) as e:
            Codeword(classes, n)
        assert str(e.value) == fault
        return
    w = Codeword(classes, n)
    assert w.supports == tuple(tuple(sorted(cls)) for cls in classes)


def test_repr_of_a_gdc_prints_the_type_of_groups_that_do_not_partition():
    # Point 1 lies in two groups and point 3 in none: the verifier lists that,
    # and repr still prints the group sizes.
    g = read_code_text("n=4\ncomposition=2,2\ndistance=6\ngroups=\n0,1\n1,2\n0,1 ; 2,3\n")
    assert repr(g) == "Gdc(Code(n=4, comp=[2,2], d=6, size=1), type=2^2)"
    with pytest.raises(ValueError, match="^groups do not partition"):
        gdc_type(g)
    assert "groups do not partition [0, n)" in verify_gdc(g).summary()


def test_value_records_compare_hash_and_print_by_value_and_stay_frozen():
    c = Composition((2, 2))
    assert repr(c) == "Composition(weights=(2, 2))"
    assert c == Composition((2, 2)) and c != (2, 2) and hash(c) == hash(((2, 2),))
    v = Violation("distance", (0, 1), 3)
    assert repr(v) == "Violation(kind='distance', witness=(0, 1), measured=3)"
    assert repr(GdcType.parse("2^3")) == "GdcType(factors=((2, 3),))"
    with pytest.raises(AttributeError, match="^cannot assign to field 'kind'$"):
        v.kind = "duplicate"
    with pytest.raises(AttributeError, match="^cannot delete field 'weights'$"):
        del c.weights
    for r in [c, v, VerificationReport((v,)), GroupPartition.of([(1, 0)]), GdcType.parse("2^3")]:
        assert pickle.loads(pickle.dumps(r)) == r == copy.deepcopy(r)
        assert hash(copy.copy(r)) == hash(r)


def _records():
    # One value of each record type of the package.
    from cccodes import bounds, catalog, dataio, designs, search
    from cccodes.group_action import Permutation
    code = read_code_text("n=4\ncomposition=2,2\ndistance=6\n0,1 ; 2,3\n")
    m = dataio.load_manifest("c22/type-2^10.man")
    return [code, Gdc(code, GroupPartition.singletons(4), ((tuple(range(4)), (1,), 1),)),
            Permutation([1, 0]), m, m.orbits[0], bounds.BoundValue(1, "general"),
            catalog.spectrum(20, (2, 2)), catalog.list_recipes()[0], designs.build_td(4, 3),
            designs.build_dm(5), designs.RoomFrame(((0,), (1,)), {}), search.SearchBudget(),
            search.max_code(4, 6, Composition((2, 2)))]


def test_every_record_is_frozen_and_compares_by_value():
    from cccodes.core import _Record
    for r in _records():
        assert isinstance(r, _Record)
        for name in type(r).__slots__:
            value = getattr(r, name)
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(r, name, value)
            with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                delattr(r, name)
            assert getattr(r, name) is value
        twin = copy.deepcopy(r)
        assert twin == r and twin is not r and pickle.loads(pickle.dumps(r)) == r


def test_metric_properties_random_triples():
    rng = random.Random(7)
    words = []
    while len(words) < 40:
        pts = rng.sample(range(12), 4)
        words.append(Codeword((tuple(pts[:2]), tuple(pts[2:])), 12))
    for _ in range(300):
        u, v, x = (rng.choice(words) for _ in range(3))
        duv = hamming_distance(u, v)
        assert duv == hamming_distance(v, u)
        assert (duv == 0) == (u == v)
        assert duv <= hamming_distance(u, x) + hamming_distance(x, v)
        # checkable support bound for weight-4 words
        overlap = len(set(u.support()) & set(v.support()))
        assert duv >= 8 - 2 * overlap


def test_verify_code_single_word_and_duplicates():
    c = Code(10, Composition((2, 2)), 6, [w22(0, 1, 2, 3, n=10)])
    assert verify_gdc(c).ok
    dup = Code(10, Composition((2, 2)), 6,
               [w22(0, 1, 2, 3, n=10), w22(1, 0, 3, 2, n=10)])
    rep = verify_gdc(dup)
    assert not rep.ok
    assert any(v.kind == "duplicate" for v in rep.violations)


def test_verify_code_flags_wrong_composition():
    c = Code(10, Composition((2, 2)), 6, [Codeword(((0, 1, 2), (3,)), 10)])
    rep = verify_gdc(c)
    assert any(v.kind == "composition" for v in rep.violations)


def test_verify_gdc_group_hit():
    words = [w22(0, 1, 2, 3, n=8)]
    part = GroupPartition.of([(0, 1), (2, 3), (4, 5), (6, 7)])
    g = Gdc(Code(8, Composition((2, 2)), 6, words), part)
    rep = verify_gdc(g)
    hits = [v for v in rep.violations if v.kind == "group-hit"]
    assert len(hits) == 2  # word meets both {0,1} and {2,3} twice


def test_gdc_type():
    part = GroupPartition.of([(i, i + 10) for i in range(10)])
    g = Gdc(Code(20, Composition((2, 2)), 6, []), part)
    assert str(gdc_type(g)) == "2^10"
    assert gdc_type(g) == GdcType.parse("2^10")

    singles = Gdc(Code(7, Composition((2, 2)), 6, []), GroupPartition.singletons(7))
    assert str(gdc_type(singles)) == "1^7"

    sizes = GdcType.of_sizes([24, 24, 24, 24, 36])
    assert sizes == GdcType.parse("24^4 36^1")


def test_verify_gdc_size_and_type_mismatch():
    part = GroupPartition.of([(0, 1), (2, 3), (4, 5), (6, 7)])
    g = Gdc(Code(8, Composition((2, 2)), 6, [w22(0, 2, 4, 6, n=8)]), part)
    rep = verify_gdc(g, expected_type=GdcType.parse("4^2"), expected_size=2)
    kinds = {v.kind for v in rep.violations}
    assert "size-mismatch" in kinds and "type-mismatch" in kinds
    assert verify_gdc(g, expected_type=GdcType.parse("2^4"), expected_size=1).ok


def test_verify_gdc_names_group_hits_of_a_word_with_a_point_outside_the_groups():
    # Point 9 lies in no group: it is reported, the word's repeat in group
    # 0 is named, and point 9 is passed over.
    word = Codeword(((0, 1), (2, 9)), 10)
    g = Gdc(Code(4, Composition((2, 2)), 6, [word]), GroupPartition.of([[0, 1], [2, 3]]))
    assert triples(verify_gdc(g).violations) == [
        ("composition", (0,), "point 9 outside [0, 4)"),
        ("group-hit", (0, 0), "points 0 and 1"),
    ]


def test_verify_gdc_keeps_the_expectations_when_the_partition_is_invalid():
    g = Gdc(Code(4, Composition((2, 2)), 6, [w22(0, 1, 2, 3, n=4)]),
            GroupPartition.of([[0, 1], [2]]))
    assert triples(verify_gdc(g, GdcType.parse("1^1 4^1"), expected_size=5).violations) == [
        ("group-hit", (), "groups do not partition [0, n)"),
        ("size-mismatch", (), "1 != 5"),
        ("type-mismatch", (), "1^1 2^1 != 1^1 4^1"),
    ]
    assert triples(verify_gdc(g).violations) == [
        ("group-hit", (), "groups do not partition [0, n)"),
    ]


def triples(violations):
    return [(v.kind, v.witness, v.measured) for v in violations]


def pair_violations(code):
    return triples(v for v in verify_gdc(code).violations if v.kind != "composition")


def test_conflict_pairs_agree_with_python():
    # The row kernel against the brute-force scan, on 350 words.
    rng = random.Random(3)
    words = []
    seen = set()
    while len(words) < 350:
        pts = rng.sample(range(40), 4)
        w = Codeword((tuple(pts[:2]), tuple(pts[2:])), 40)
        if w not in seen:
            seen.add(w)
            words.append(w)
    c = Code(40, Composition((2, 2)), 6, words)
    a = triples(_pair_scan_python(words, 6))
    assert pair_violations(c) == a
    assert len(a) > 0


def _random_word(rng, n, classes):
    pts = rng.sample(range(n), sum(classes))
    out, k = [], 0
    for size in classes:
        out.append(tuple(pts[k:k + size]))
        k += size
    return Codeword(out, n)


SHAPES = [(2, 2), (3, 1), (1, 3), (2, 1), (4,), (3, 2), (), (1,), (2, 1, 1), (1, 1, 1),
          (4, 4), (5, 2), (6,)]


def _random_words(rng, size, n):
    # Mixed compositions (weights 0 to 8 over 0 to 3 symbol classes, each no
    # heavier than n, so the rows take a threshold per weight and reach C and
    # D levels of 3 and more), with about one word in five a duplicate of an
    # earlier one.
    shapes = [shape for shape in SHAPES if sum(shape) <= n]
    words = []
    for _ in range(size):
        if words and rng.random() < 0.2:
            words.append(rng.choice(words))
        else:
            words.append(_random_word(rng, n, rng.choice(shapes)))
    return words


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 40),
       st.integers(0, 17), st.integers(5, 12))
def test_conflict_pairs_match_brute_force(rng, size, distance, n):
    # Codes of 0 and 1 words, d from 0 to 17.
    words = _random_words(rng, size, n)
    c = Code(n, Composition((2, 2)), distance, words)
    assert pair_violations(c) == triples(_pair_scan_python(words, distance))


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 30),
       st.integers(-1, 17), st.integers(5, 12))
def test_conflict_rows_match_brute_force(rng, size, distance, n):
    # One row per word in order, no self bit, symmetric, and bit j set exactly
    # when the two words lie closer than max(d, 1).  With weights up to 8,
    # d from -1 to 17 gives thresholds w_u + w_v - d + 1 at most 0 (a whole
    # weight class), above 2 * w_u (none), and in between.
    words = _random_words(rng, size, n)
    rows = list(conflict_rows(words, distance))
    assert [i for i, _ in rows] == list(range(size))
    for i, row in rows:
        assert not row >> i & 1
        for j in range(size):
            assert (row >> j & 1) == (rows[j][1] >> i & 1)
            if j != i:
                near = hamming_distance(words[i], words[j]) < max(distance, 1)
                assert (row >> j & 1) == near, (i, j)
        assert row >> size == 0


@pytest.mark.parametrize("distance", [1, 20, 21, 40, 41, 120])
def test_heavy_words_match_brute_force(distance):
    # Three 60-point one-class words, 20, 40 and 20 apart: a row walks 60
    # points through up to 60 C levels and 60 D levels.
    n = 80
    words = [Codeword([range(s, s + 60)], n) for s in (0, 10, 20)]
    for i, row in conflict_rows(words, distance):
        assert row == sum(1 << j for j in range(3)
                          if j != i and hamming_distance(words[i], words[j]) < distance)
    c = Code(n, Composition((60,)), distance, words)
    assert pair_violations(c) == triples(_pair_scan_python(words, distance))


@pytest.mark.parametrize("distance", [0, -1])
def test_duplicates_reported_at_nonpositive_distance(distance):
    # Large enough for the old dense kernel, which missed these at d <= 0.
    rng = random.Random(5)
    words = list(dict.fromkeys(_random_word(rng, 40, (2, 2)) for _ in range(320)))
    words.append(words[17])
    rep = verify_gdc(Code(40, Composition((2, 2)), distance, words))
    assert triples(rep.violations) == [("duplicate", (17, len(words) - 1), 0)]


def test_words_of_other_lengths_verify_at_the_code_s_length():
    # A word is its supports: words built for lengths 8 to 12 are words of
    # the code's length when their points fit it, and a point >= n is
    # reported per word, in word order; nothing raises.
    fits = [w22(0, 1, 2, 3, n=8), w22(4, 5, 6, 7, n=12), w22(0, 4, 8, 9, n=10)]
    assert verify_gdc(Code(10, Composition((2, 2)), 6, fits)).ok
    assert verify_gdc(Code(11, Composition((2, 2)), 6, fits)).ok
    assert hamming_distance(fits[0], fits[1]) == 8
    wide = [*fits, w22(1, 10, 5, 11, n=12), w22(3, 2, 7, 1, n=8)]
    assert triples(verify_gdc(Code(10, Composition((2, 2)), 6, wide)).violations) == [
        ("composition", (3,), "point 10 outside [0, 10)"),
        ("distance", (0, 4), 5),
    ]


def test_words_off_the_composition_are_still_scanned():
    words = [w22(0, 1, 2, 3, n=10), Codeword(((0, 1), (2,)), 10),
             Codeword(((), ()), 10), w22(4, 5, 6, 7, n=10)]
    rep = verify_gdc(Code(10, Composition((2, 2)), 6, words))
    assert triples(rep.violations) == [
        ("composition", (1,), "(2, 1)"),
        ("composition", (2,), "(0, 0)"),
        ("distance", (0, 1), 1),
        ("distance", (0, 2), 4),
        ("distance", (1, 2), 3),
        ("distance", (2, 3), 4),
    ]


def _group_hits(g):
    # Brute-force reference for verify_gdc's group-hit entries: each point, in
    # order, that meets a group an earlier point of its word already met.
    out = []
    for i, w in enumerate(g.code.words):
        pts = w.support()
        for b, x in enumerate(pts):
            k, grp = next((k, grp) for k, grp in enumerate(g.partition.groups) if x in grp)
            first = next((y for y in pts[:b] if y in grp), None)
            if first is not None:
                out.append(Violation("group-hit", (i, k), f"points {first} and {x}"))
    return out


@pytest.mark.parametrize("rel, seed", [("c22/type-2^10.man", 1), ("c31/type-3^7.man", 2),
                                       ("c22/type-10^7.man", 3)])
def test_verify_gdc_matches_brute_force_on_a_corrupted_development(rel, seed):
    # Seeded moves of one point each to a free point, every other one into
    # a group that the word already meets, and a duplicated word.
    from cccodes.dataio import develop_manifest
    g = develop_manifest(rel)
    rng = random.Random(seed)
    words = list(g.code.words)
    for move in range(8):
        i = rng.randrange(len(words))
        w = words[i]
        x, z = rng.sample(w.support(), 2)
        free = [p for p in range(g.n) if p not in w.support()]
        if move % 2 == 0:
            free = [p for p in free if any(z in grp and p in grp for grp in g.partition.groups)]
        y = rng.choice(free)
        words[i] = Codeword([[y if p == x else p for p in cls] for cls in w.supports], g.n)
    words.append(words[rng.randrange(len(words))])
    bad = Gdc(Code(g.n, g.code.composition, g.code.distance, words), g.partition)
    want = _pair_scan_python(words, g.code.distance) + _group_hits(bad)
    want.sort(key=lambda v: (v.witness, v.kind))
    got = verify_gdc(bad).violations
    assert triples(got) == triples(want)
    assert {v.kind for v in got} == {"distance", "duplicate", "group-hit"}


def _one_order(v):
    # The verifier's order: witness length, then witness, then kind.
    return len(v.witness), v.witness, v.kind


def _mixed_faults(rel, seed):
    # A shipped development with seeded faults of every kind: points moved to
    # free points (some into a group the word already meets), a point moved
    # between classes in two words, and a duplicated word.
    from cccodes.dataio import develop_manifest
    g = develop_manifest(rel)
    rng = random.Random(seed)
    words = list(g.code.words)
    for move in range(6):
        i = rng.randrange(len(words))
        w = words[i]
        x, z = rng.sample(w.support(), 2)
        free = [p for p in range(g.n) if p not in w.support()]
        if move % 2 == 0:
            free = [p for p in free if any(z in grp and p in grp for grp in g.partition.groups)]
        y = rng.choice(free)
        words[i] = Codeword([[y if p == x else p for p in cls] for cls in w.supports], g.n)
    for i in rng.sample(range(len(words)), 2):
        a, b = words[i].supports
        words[i] = Codeword([a + b[:1], b[1:]], g.n)
    words.append(words[rng.randrange(len(words))])
    return Gdc(Code(g.n, g.code.composition, g.code.distance, words), g.partition)


@pytest.mark.parametrize("rel, seed", [("c22/type-2^10.man", 4), ("c31/type-3^7.man", 5)])
def test_one_stream_in_one_order_for_report_and_cli(rel, seed, tmp_path):
    from contextlib import redirect_stdout
    from io import StringIO

    from cccodes.cli import main
    bad = _mixed_faults(rel, seed)
    expect = GdcType.parse("1^1"), len(bad) + 1
    words, comp = bad.code.words, bad.code.composition.weights
    want = list(verify_expectations(bad, *expect).violations)
    want += [Violation("composition", (i,), str(tuple(map(len, w.supports))))
             for i, w in enumerate(words) if tuple(map(len, w.supports)) != comp]
    want += _pair_scan_python(words, bad.code.distance) + _group_hits(bad)
    want.sort(key=_one_order)
    got = list(violations(bad, *expect))
    assert got == list(verify_gdc(bad, *expect).violations)
    assert triples(got) == triples(want)
    assert {v.kind for v in got} == {"size-mismatch", "type-mismatch", "composition",
                                     "distance", "duplicate", "group-hit"}
    # ccc verify prints the same stream, in the same order, under its header.
    path = tmp_path / "bad.code"
    path.write_text(write_code_text(bad))
    with redirect_stdout(StringIO()) as out:
        assert main(["verify", str(path)]) == 1
    head, *lines = out.getvalue().splitlines()
    assert head.endswith(f" size {len(bad)} FAIL")
    assert lines == [f"  {v}" for v in violations(bad)]


def test_the_first_violation_reads_one_conflict_row(monkeypatch):
    from cccodes import core
    from cccodes.dataio import develop_manifest
    code = develop_manifest("c22/code-n13.man").as_code()
    rows = []
    real = core._rows

    def counting(*args):
        for i, row in real(*args):
            rows.append(i)
            yield i, row

    monkeypatch.setattr(core, "_rows", counting)
    twin = Code(13, code.composition, 6, [*code.words, code.words[0]])
    assert next(violations(twin)) == Violation("duplicate", (0, 21), 0)
    assert rows == [0]


def test_relabeling_one_word_breaks_the_21_word_code():
    # swapping two coordinate labels inside a single word of a tight code
    # must surface as a distance violation
    from cccodes.dataio import develop_manifest
    code = develop_manifest("c22/code-n13.man").as_code()
    assert verify_gdc(code).ok and len(code) == 21
    words = list(code.words)
    w = words[0]
    a, b = w.support()[0], next(x for x in range(13) if x not in w.support())
    swap = list(range(13))
    swap[a], swap[b] = b, a
    words[0] = Codeword([[swap[x] for x in cls] for cls in w.supports], 13)
    mutated = Code(13, code.composition, 6, words)
    rep = verify_gdc(mutated)
    assert not rep.ok
    assert all(0 in v.witness for v in rep.violations)


def test_code_text_roundtrip():
    words = [w22(0, 5, 3, 7), w22(1, 6, 4, 8)]
    part = GroupPartition.of([(i, i + 10) for i in range(10)])
    g = Gdc(Code(20, Composition((2, 2)), 6, words), part)
    text = write_code_text(g)
    back = read_code_text(text)
    assert isinstance(back, Gdc)
    assert back.code.words == g.code.words
    assert back.partition == g.partition

    plain = read_code_text(write_code_text(g.code))
    assert isinstance(plain, Code)
    assert plain.words == g.code.words


def test_one_class_gdc_text_roundtrip():
    # A one-class word line looks like a group line: the groups= block ends
    # once its groups hold n points, so the words read back as words.
    words = [Codeword([[(x + k) % 13 for x in (0, 1, 3, 9)]], 13) for k in range(13)]
    g = Gdc(Code(13, Composition((4,)), 6, words), GroupPartition.singletons(13))
    assert read_code_text(write_code_text(g)) == g
    halves = Gdc(g.code, GroupPartition.of([range(6), range(6, 13)]))
    assert read_code_text(write_code_text(halves)) == halves


HEAD = "n=5\ncomposition=2,2\ndistance=6\n"


@pytest.mark.parametrize("text, message", [
    (HEAD + "0,1 ; 2,x\n", "line 4: invalid literal for int() with base 10: 'x'"),
    # An empty item is a fault, wherever it lies in the class.
    (HEAD + "0,,1 ; 2,3\n", "line 4: invalid literal for int() with base 10: ''"),
    (HEAD + "0,1, ; 2,3\n", "line 4: invalid literal for int() with base 10: ' '"),
    (HEAD + ",0,1 ; 2,3\n", "line 4: invalid literal for int() with base 10: ''"),
    (HEAD + "0,1 ; 2,9\n", "line 4: point 9 outside ambient range [0, 5)"),
    (HEAD + "0,1 ; 1,2\n", "line 4: symbol classes overlap: ((0, 1), (1, 2))"),
    (HEAD + "0,1 ; 2,3\nhello\n", "line 5: unparseable line: 'hello'"),
    (HEAD + "groups=\n0,1\n2,x\n", "line 6: invalid literal for int() with base 10: 'x'"),
    (HEAD + "groups=junk\n0,1\n2,3\n0,2 ; 1,3\n", "line 4: text after groups=: 'groups=junk'"),
    ("# comment\n\n0,1 ; 2,3\n" + HEAD,
     "line 3: codeword line before complete header: '0,1 ; 2,3'"),
    ("n=five\n", "line 1: invalid literal for int() with base 10: 'five'"),
    ("n=5\ncomposition=2,0\n", "line 2: composition entries must be positive: (2, 0)"),
    ("n=5\ncomposition=2,2\n", "missing header (n=, composition=, distance=)"),
    # n lies in [1, 10000]; no word is built for a larger one.
    ("n=100000000000\ncomposition=2,2\ndistance=6\n0,1 ; 2,99999999999\n",
     "line 1: want n in [1, 10000]: 'n=100000000000'"),
    ("n=-1\ncomposition=2,2\ndistance=6\n", "line 1: want n in [1, 10000]: 'n=-1'"),
    ("composition=2,2\nn=0\n", "line 2: want n in [1, 10000]: 'n=0'"),
    # Each header line comes once, before the first codeword line.
    (HEAD + "0,1 ; 2,3\nn=9\n", "line 5: header line after a codeword line: 'n=9'"),
    (HEAD + "groups=\n0,1,2,3,4\n0,1 ; 2,3\ngroups=\n",
     "line 7: header line after a codeword line: 'groups='"),
    (HEAD + "distance=5\n", "line 4: repeated header line: 'distance=5'"),
    # No two words of weight 4 lie further apart than 8.
    ("n=5\ncomposition=2,2\ndistance=9\n",
     "line 3: want a distance of at most twice the weight (8): 'distance=9'"),
    ("distance=100\nn=5\ncomposition=3,1\n0,1,2 ; 3\n",
     "line 3: want a distance of at most twice the weight (8): 'composition=3,1'"),
    (HEAD + "groups=\n0,1\ngroups=\n2,3,4\n", "line 6: repeated header line: 'groups='"),
])
def test_code_text_errors_are_typed_and_numbered(text, message):
    with pytest.raises(CodeTextError) as e:
        read_code_text(text)
    assert str(e.value) == message


def test_code_text_class_of_blank_text_is_empty():
    c = read_code_text(HEAD + "0,1 ; \n ; 2,3\n")
    assert [w.supports for w in c.words] == [((0, 1), ()), ((), (2, 3))]


def test_code_text_accepts_n_up_to_the_bound():
    c = read_code_text("n=10000\ncomposition=2,2\ndistance=6\n0,1 ; 2,9999\n")
    assert c.n == 10000 and verify_gdc(c).ok


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["n=6", "composition=2,2", "distance=6", "groups=",
                                 "0,1", "2,3,4,5", "0,1 ; 2,3", "1,5;0,4 # c", "x",
                                 "0,,1 ; 6", " ; 3", "", "# only"]), max_size=8))
def test_code_text_faults_raise_only_the_typed_error(lines):
    try:
        read_code_text("\n".join(lines))
    except CodeTextError as e:
        assert str(e).startswith("line ") or str(e).startswith("missing header")


def _written(obj) -> str:
    # The writer as it was, one join per word: the reference for the bytes.
    code = obj.as_code()
    lines = [f"n={code.n}", f"composition={code.composition}", f"distance={code.distance}"]
    if isinstance(obj, Gdc):
        lines.append("groups=")
        lines += [",".join(map(str, grp)) for grp in obj.partition.groups]
    lines += [" ; ".join([",".join(map(str, cls)) for cls in w.supports]) for w in code.words]
    return "\n".join(lines) + "\n"


@st.composite
def _codes(draw, comps=st.lists(st.integers(1, 3), min_size=1, max_size=3), off=True):
    # A code of a drawn composition; with ``off`` a word may take other class
    # sizes, empty classes and other class counts included.  Each word is a
    # shuffled [0, n) cut into classes of its sizes.
    comp = tuple(draw(comps))
    n = draw(st.integers(16, 24))
    words = []
    for _ in range(draw(st.integers(0, 6))):
        sizes = comp
        if off and draw(st.booleans()):
            sizes = draw(st.lists(st.integers(0, 4), max_size=4))
        points = iter(draw(st.permutations(range(n))))
        words.append(Codeword([[next(points) for _ in range(s)] for s in sizes], n))
    code = Code(n, Composition(comp), 6, words)
    return Gdc(code, GroupPartition.singletons(n)) if draw(st.booleans()) else code


@settings(max_examples=300, deadline=None)
@given(_codes())
def test_written_text_is_the_per_word_formula(obj):
    assert write_code_text(obj) == _written(obj)


def _outcome(text: str):
    # What read_code_text makes of ``text``: the code, or the error's message.
    try:
        obj = read_code_text(text)
    except CodeTextError as e:
        return str(e)
    code = obj.as_code()
    part = obj.partition if isinstance(obj, Gdc) else None
    return code.n, code.composition, code.distance, code.words, part


_FAULTS = ["none", "point >= n", "negative point", "repeated point", "overlapping classes",
           "unsorted class", "class of the wrong size", "non-digit token", "+3",
           "trailing blank line", "trailing comment", "header after a word"]


def _seed(fault: str, line: str, n: int) -> str:
    # ``line``, a written word, with ``fault`` in its first class of two or
    # more points (a drawn composition has one) or against its second class.
    classes = [cls.split(",") for cls in line.split(" ; ")]
    c = next(c for c, cls in enumerate(classes) if len(cls) > 1)
    cls, other = classes[c], classes[1 - c] if c < 2 else classes[0]
    if fault == "point >= n":
        cls[-1] = str(n + int(cls[-1]))
    elif fault == "negative point":
        cls[0] = "-" + cls[0]
    elif fault == "repeated point":
        cls[1] = cls[0]
    elif fault == "overlapping classes":
        other[0] = cls[0]
    elif fault == "unsorted class":
        cls.reverse()
    elif fault == "class of the wrong size":
        cls.pop()
    elif fault == "non-digit token":
        cls[0] = "x"
    elif fault == "+3":
        cls[0] = "+" + cls[0]
    return " ; ".join(",".join(cls) for cls in classes)


@settings(max_examples=400, deadline=None)
@given(_codes(comps=st.sampled_from([(2, 2), (3, 1), (1, 3), (2, 1, 1)]), off=False),
       st.sampled_from(_FAULTS), st.data())
def test_a_block_reads_as_the_line_reader_reads_it(obj, fault, data):
    # The same text ending in a comment line is read line by line only, as
    # the bulk pass takes no text with a comment.  A text in the writer's
    # form reads back without a word built by Codeword.__init__.
    code = obj.as_code()
    text = write_code_text(obj)
    if fault == "none":
        with patch.object(Codeword, "__init__", side_effect=AssertionError("a word built")):
            bulk = _outcome(text)
        assert bulk == _outcome(text + "# read line by line\n")
        assert bulk[3] == code.words
        return
    if fault == "trailing blank line":
        text += "\n"
    elif fault == "trailing comment":
        text += "# end\n"
    elif fault == "header after a word":
        text += "n=5\n"
    elif code.words:
        lines = text.splitlines()
        k = len(lines) - len(code.words) + data.draw(st.integers(0, len(code.words) - 1))
        lines[k] = _seed(fault, lines[k], code.n)
        text = "\n".join(lines) + "\n"
    assert _outcome(text) == _outcome(text + "# read line by line\n")
