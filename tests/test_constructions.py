"""The six code-building combinators, each checked by exhaustive verification."""

import hashlib

import pytest

from cccodes.bounds import upper_22, upper_31
from cccodes.constructions import (
    ConstructionError,
    adjoin_points,
    dm_to_gdc,
    empty_code,
    fill_groups,
    fundamental,
    inflate,
    shorten,
    srf_to_gdc,
)
from cccodes.core import (Code, Codeword, Composition, Gdc, GdcType,
                          GroupPartition, gdc_type, verify_gdc,
                          write_code_text)
from cccodes.dataio import data_root, develop_manifest, load_code
from cccodes.designs import Gdd, RoomFrame, build_dm, build_td, read_design_text

C22 = Composition((2, 2))
C31 = Composition((3, 1))


def shipped_frame():
    return read_design_text((data_root() / "designs" / "srf-2^5.design").read_text())


def test_srf_to_gdc_type_and_size():
    g = srf_to_gdc(shipped_frame())
    assert verify_gdc(g, GdcType.parse("12^5"), 480).ok


def test_srf_to_gdc_from_searched_room_square():
    from cccodes.designs import search_skew_room_frame
    f = search_skew_room_frame([1] * 7)
    assert f is not None
    g = srf_to_gdc(f)
    assert verify_gdc(g, GdcType.parse("6^7"), 252).ok  # 6 t^2 u(u-1)


def test_srf_to_gdc_rejects_invalid_frame():
    f = shipped_frame()
    cells = dict(f.cells)
    cells.popitem()
    with pytest.raises(ConstructionError):
        srf_to_gdc(RoomFrame(f.holes, cells))


def test_dm_to_gdc_sizes():
    for g, size in ((4, 32), (5, 50), (7, 98)):
        out = dm_to_gdc(build_dm(g))
        assert verify_gdc(out, GdcType.parse(f"{g}^4"), size).ok


def test_dm_to_gdc_needs_k4():
    dm = build_dm(5)
    from cccodes.designs import DifferenceMatrix
    with pytest.raises(ConstructionError):
        dm_to_gdc(DifferenceMatrix(5, 3, dm.rows[:3], (5,)))


def test_fill_empty_fillers_gives_plain_code():
    g = develop_manifest("c22/type-2^10.man")
    code = fill_groups(g, {2: empty_code(2, C22)})
    assert len(code) == 60 and code.n == 20
    assert verify_gdc(code).ok


def test_fill_10x7_with_optimal_tens():
    g = develop_manifest("c22/type-10^7.man")
    c10 = load_code("n10-22.code")
    code = fill_groups(g, {10: c10})
    assert len(code) == 700 + 7 * 15 == 805 == upper_22(70).value
    assert verify_gdc(code).ok


def test_fill_6x7_with_optimal_sixes():
    g = develop_manifest("c31/type-6^7.man")
    c6 = load_code("n6-31.code")
    code = fill_groups(g, {6: c6})
    assert len(code) == 182 == upper_31(42).value
    assert verify_gdc(code).ok


def test_fill_missing_size_is_error():
    g = develop_manifest("c22/type-2^10.man")
    with pytest.raises(ConstructionError, match="group size 2"):
        fill_groups(g, {3: empty_code(3, C22)})


def test_adjoin_one_point_chain_77():
    g = dm_to_gdc(build_dm(19))
    assert verify_gdc(g, GdcType.parse("19^4"), 722).ok
    c20 = fill_groups(develop_manifest("c22/type-2^10.man"),
                      {2: empty_code(2, C22)})
    code = adjoin_points(g, 1, c20, {19: c20})
    assert len(code) == 722 + 4 * 60 == 962 == upper_22(77).value
    assert verify_gdc(code).ok


def test_adjoin_zero_points_equals_fill():
    g = develop_manifest("c22/type-2^10.man")
    empty2 = empty_code(2, C22)
    filled = fill_groups(g, {2: empty2})
    adjoined = adjoin_points(g, 0, empty2, {2: empty2})
    assert set(filled.words) == set(adjoined.words)
    assert filled.n == adjoined.n


@pytest.mark.parametrize("first, filler", [("c31", "c31"), ("c31", "empty"),
                                           ("empty", "c31")])
def test_adjoin_rejects_a_filler_of_another_composition(first, filler):
    g = dm_to_gdc(build_dm(4))  # [2,2], type 4^4
    codes = {"c31": load_code("n5-31.code"), "empty": empty_code(5, C22)}
    with pytest.raises(ConstructionError, match="filler composition mismatch"):
        adjoin_points(g, 1, codes[first], {4: codes[filler]})


def test_adjoin_more_than_one_point_needs_grouped_fillers():
    # With y = 2 each filler must be a GDC of type 1^4 2^1 whose 2-group is
    # its final two points, which land on the ideal points.
    g = dm_to_gdc(build_dm(4))  # [2,2], type 4^4
    first = empty_code(6, C22)
    with pytest.raises(ConstructionError, match=r"^filler for size 4 must be a GDC of type 1\^4 2\^1$"):
        adjoin_points(g, 2, first, {4: empty_code(6, C22)})
    misplaced = Gdc(empty_code(6, C22), GroupPartition.of([[0, 1], [2], [3], [4], [5]]))
    with pytest.raises(ConstructionError, match="y-group on its final points"):
        adjoin_points(g, 2, first, {4: misplaced})


def _c31(n):
    # A one-word [3,1] code of length n: a filler of another composition.
    return Code(n, C31, 6, [Codeword(((0, 1, 2), (3,)), n)])


def _misplaced(n):
    # An empty [2,2] GDC of length n whose one 2-group is its first two points.
    return Gdc(empty_code(n, C22), GroupPartition.of([[0, 1]] + [[x] for x in range(2, n)]))


PLAIN = "filler for size 4 must be a GDC of type 1^4 2^1"
MISPLACED = "filler must be a GDC of type 1^s y^1 with the y-group on its final points"


# (faults, y, first code, filler of the groups of size 4, message).  The host
# is the [2,2] GDC of type 4^4, so each slot holds 4 + y points.  With y = 0
# a case also runs through fill_groups, where the filler fills every group.
FAULTS = [
    ("missing", 0, empty_code(4, C22), None, "no filler for group size 4"),
    ("composition", 0, empty_code(4, C22), _c31(4), "filler composition mismatch"),
    ("length", 0, empty_code(4, C22), empty_code(5, C22),
     "filler length 5 does not match slot of size 4"),
    ("composition+length", 0, empty_code(4, C22), _c31(5), "filler composition mismatch"),
    ("length", 1, empty_code(5, C22), empty_code(4, C22),
     "filler length 4 does not match slot of size 5"),
    ("first-length+missing", 1, empty_code(4, C22), None,
     "filler length 4 does not match slot of size 5"),
    ("first-composition+length", 1, _c31(5), empty_code(4, C22), "filler composition mismatch"),
    ("plain", 2, empty_code(6, C22), empty_code(6, C22), PLAIN),
    ("plain+length", 2, empty_code(6, C22), empty_code(7, C22), PLAIN),
    ("composition+plain", 2, empty_code(6, C22), _c31(6), "filler composition mismatch"),
    ("misplaced", 2, empty_code(6, C22), _misplaced(6), MISPLACED),
    ("misplaced+length", 2, empty_code(6, C22), _misplaced(7), MISPLACED),
    ("first-length+plain", 2, empty_code(5, C22), empty_code(6, C22),
     "filler length 5 does not match slot of size 6"),
]


@pytest.mark.parametrize("distance", [6, 8])
@pytest.mark.parametrize("faults, y, first, filler, message", FAULTS,
                         ids=[f"{case[0]}-y{case[1]}" for case in FAULTS])
def test_fill_and_adjoin_name_the_same_fault_first(faults, y, first, filler, message, distance):
    # Each fault is named in the same order by both constructions: the
    # distance, then group by group (the first code before the fillers)
    # the filler's presence, composition, type when y > 1, and length.
    g = dm_to_gdc(build_dm(4))  # [2,2], type 4^4
    host = Gdc(Code(g.n, C22, distance, g.code.words), g.partition)
    fillers = {} if filler is None else {4: filler}
    calls = [("adjoining", lambda: adjoin_points(host, y, first, fillers))]
    if y == 0:
        calls.append(("filling", lambda: fill_groups(host, fillers)))
    for job, call in calls:
        with pytest.raises(ConstructionError) as err:
            call()
        assert str(err.value) == (message if distance == 6 else f"{job} requires d <= 2(w-1)")


@pytest.mark.parametrize("y", [-1, -4])
def test_adjoin_refuses_fewer_than_zero_ideal_points(y):
    g = dm_to_gdc(build_dm(4))
    c4 = empty_code(4, C22)
    with pytest.raises(ConstructionError) as err:
        adjoin_points(g, y, c4, {4: c4})
    assert str(err.value) == f"want y >= 0 ideal points: {y}"


def _dm_words(d):
    # dm_to_gdc's words as first written, each through the validating Codeword.
    g, n = d.g, 4 * d.g
    words = []
    for j in range(g):
        col = [d.rows[i][j] for i in range(4)]
        for k in range(g):
            words.append(Codeword(((d.add(col[0], k), g + d.add(col[1], k)),
                                   (2 * g + d.add(col[2], k), 3 * g + d.add(col[3], k))), n))
            words.append(Codeword(((2 * g + d.add(col[2], k), 3 * g + d.add(col[3], k)),
                                   (d.add(col[0], d.add(1, k)), g + d.add(col[1], d.add(1, k)))), n))
    return words


def _srf_words(f):
    # srf_to_gdc's words as first written, each through the validating Codeword.
    n = 6 * f.side
    words = []
    for (r, c) in sorted(f.cells):
        a, b = sorted(f.cells[(r, c)])
        for j in range(6):
            words.append(Codeword(((6 * a + j, 6 * b + j),
                                   (6 * c + (1 + j) % 6, 6 * r + (4 + j) % 6)), n))
            words.append(Codeword(((6 * c + (4 + j) % 6, 6 * r + (1 + j) % 6),
                                   (6 * a + j, 6 * b + j)), n))
    return words


@pytest.mark.parametrize("g", [4, 5, 7, 8, 9, 12, 19])
def test_dm_to_gdc_words_are_the_reference_words(g):
    d = build_dm(g)
    assert list(dm_to_gdc(d).code.words) == _dm_words(d)


def test_srf_to_gdc_words_are_the_reference_words():
    from cccodes.designs import search_skew_room_frame
    for f in (shipped_frame(), search_skew_room_frame([1] * 7)):
        assert list(srf_to_gdc(f).code.words) == _srf_words(f)


def test_shorten_interior_point_relabels():
    code = Code(6, C22, 6, [Codeword(((0, 1), (2, 3)), 6),
                            Codeword(((1, 2), (4, 5)), 6),
                            Codeword(((0, 4), (3, 5)), 6)])
    short = shorten(code, 2)
    assert (short.n, short.composition, short.distance) == (5, C22, 6)
    assert short.words == (Codeword(((0, 3), (2, 4)), 5),)


def test_shorten_last_point_keeps_labels():
    code = develop_manifest("c22/code-n19.man").as_code()
    last = code.n - 1
    kept = [Codeword(w.supports, last) for w in code.words
            if last not in w.support()]
    short = shorten(code, last).words
    assert short == tuple(kept)
    # Relabelling is the identity below the point: the words are shared.
    assert all(a is b for a, b in zip(short, [w for w in code.words if last not in w.support()]))


@pytest.mark.parametrize("point", [0, 9, 18])
def test_shorten_verified_code_verifies(point):
    code = develop_manifest("c22/code-n19.man").as_code()
    assert verify_gdc(code).ok
    short = shorten(code, point)
    assert short.n == 18 and 0 < len(short) < len(code)
    assert verify_gdc(short).ok


def test_shorten_rejects_point_outside_code():
    with pytest.raises(ConstructionError, match="outside"):
        shorten(empty_code(5, C22), 5)


def test_fundamental_uniform_weight_4():
    td = build_td(4, 5)
    g = fundamental(td, 4, [dm_to_gdc(build_dm(4))])
    assert verify_gdc(g, GdcType.parse("20^4"), 800).ok
    assert g.code.composition == C22


def test_fundamental_uses_the_later_ingredient_of_a_type():
    td = build_td(4, 5)
    real = dm_to_gdc(build_dm(4))
    empty = Gdc(empty_code(16, C22), real.partition)
    assert gdc_type(empty) == gdc_type(real)
    assert len(fundamental(td, 4, [empty, real])) == 800
    assert len(fundamental(td, 4, [real, empty])) == 0


def test_fundamental_takes_the_composition_of_an_empty_ingredient():
    td = build_td(4, 5)
    real = dm_to_gdc(build_dm(4))
    empty = Gdc(empty_code(16, C31), real.partition)
    g = fundamental(td, 4, [empty])
    assert len(g) == 0 and g.code.composition == C31 and verify_gdc(g).ok


def test_fundamental_needs_a_block_to_label_its_result():
    one_group = Gdd(4, GroupPartition.of([range(4)]), (), frozenset({2}))
    with pytest.raises(ConstructionError, match="no block of two or more points"):
        fundamental(one_group, 4, [])


def test_fundamental_rejects_degenerate_weights():
    td = build_td(4, 5)
    with pytest.raises(ConstructionError):
        fundamental(td, 0, [])


def test_fundamental_missing_ingredient():
    td = build_td(4, 5)
    with pytest.raises(ConstructionError, match="no ingredient"):
        fundamental(td, 4, [])


def test_full_chain_2x40():
    td = build_td(4, 5)
    g20 = fundamental(td, 4, [dm_to_gdc(build_dm(4))])
    g = fill_groups(g20, {20: develop_manifest("c22/type-2^10.man")})
    assert verify_gdc(g, GdcType.parse("2^40"), 1040).ok
    assert len(g) == 1040 == upper_22(80).value


def test_inflate_by_3():
    g = inflate(develop_manifest("c22/type-2^10.man"), 3)
    assert verify_gdc(g, GdcType.parse("6^10"), 540).ok
    g31 = inflate(develop_manifest("c31/type-3^7.man"), 3)
    assert verify_gdc(g31, GdcType.parse("9^7"), 378).ok
    assert g31.code.composition == C31


def test_inflate_keeps_the_class_count():
    # Images are cut into the base word's classes, one or two or more.
    planar = [Codeword([[(x + k) % 13 for x in (0, 1, 3, 9)]], 13) for k in range(13)]
    g = Gdc(Code(13, Composition((4,)), 6, planar), GroupPartition.singletons(13))
    assert verify_gdc(inflate(g, 3), GdcType.parse("3^13"), 13 * 9).ok
    three = Gdc(Code(4, Composition((2, 1, 1)), 6, [Codeword(((0, 1), (2,), (3,)), 4)]),
                GroupPartition.singletons(4))
    assert verify_gdc(inflate(three, 3), GdcType.parse("3^4"), 9).ok


# SHA-256 of the emitted text of the three benchmark inflations, each
# through build_td(4, m): the word order and the bytes stay fixed.
INFLATED = {
    ("c22/type-2^10.man", 9): "4ed55b9e738935f2021bcc2928b6e9f71bb4871c7fbabb19529993ff8f7e30d5",
    ("c22/type-2^10.man", 16): "748f1a9bc9d59284fea39787fb9b8c688f48cab13a2be6f63ef9a79ce6648ba7",
    ("c31/type-3^7.man", 16): "995e937639ab49dc33c7a9e265bf95ddd849322a4d2849a4b64394b55e0a559e",
}


@pytest.mark.parametrize("rel, m", list(INFLATED))
def test_inflate_bytes_are_pinned(rel, m):
    g = inflate(develop_manifest(rel), m, build_td(4, m))
    assert hashlib.sha256(write_code_text(g).encode()).hexdigest() == INFLATED[rel, m]


def test_inflate_identity():
    base = develop_manifest("c22/type-2^10.man")
    out = inflate(base, 1)
    assert set(out.code.words) == set(base.code.words)
    assert gdc_type(out) == gdc_type(base)


def test_inflate_type_scales():
    base = develop_manifest("c22/type-2^10.man")
    out = inflate(base, 4)
    assert gdc_type(out) == GdcType.parse("8^10")
    assert len(out) == 60 * 16
    assert verify_gdc(out).ok
