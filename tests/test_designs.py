"""Ingredient designs: fields, TDs, difference matrices, Room frames, PBDs."""

from math import gcd

import pytest

from cccodes.core import GroupPartition, Violation
from cccodes.dataio import data_root
from cccodes.designs import (
    DesignError,
    DifferenceMatrix,
    Gdd,
    GfTable,
    Pbd,
    RoomFrame,
    build_dm,
    build_td,
    gdd_as_pbd,
    pbd_as_gdd,
    read_design_text,
    search_skew_room_frame,
    verify_dm,
    verify_gdd,
    verify_pbd,
    verify_skew_room_frame,
    write_design_text,
)


def load_design(name):
    return read_design_text((data_root() / "designs" / name).read_text())


def test_gf_tables_satisfy_axioms():
    for q in (2, 3, 5, 7, 4, 8, 9, 16, 25, 27, 49):
        GfTable(q).check_field_axioms()
    with pytest.raises(DesignError):
        GfTable(6)


def test_build_td_small():
    td = build_td(4, 5)
    assert len(td.blocks) == 25
    assert verify_gdd(td).ok
    assert verify_gdd(build_td(5, 5)).ok
    assert verify_gdd(build_td(7, 8)).ok
    assert verify_gdd(build_td(4, 3)).ok  # k = m+1 via the slope group
    with pytest.raises(DesignError):
        build_td(6, 4)


def test_build_td_full_pair_coverage_all_field_orders():
    for m in (3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 49):
        assert verify_gdd(build_td(4, m)).ok, m


def test_td_mutation_detected():
    td = build_td(4, 5)
    blocks = list(td.blocks)
    b0 = list(blocks[0])
    b0[1] = (b0[1] + 1 - 5) % 5 + 5  # swap to a different point of group 1
    blocks[0] = tuple(b0)
    bad = Gdd(td.n, td.partition, tuple(blocks), td.block_sizes)
    assert not verify_gdd(bad).ok


def test_dgdd_verifier_with_holes():
    # TD(4,4) over GF(4): dropping the a=0 blocks (which are exactly the rows
    # of constant field value) leaves a 4-DGDD of type (4,1^4)^4.
    td = build_td(4, 4)
    holes = GroupPartition.of([[i * 4 + v for i in range(4)] for v in range(4)])
    kept = tuple(b for b in td.blocks
                 if len({x % 4 for x in b}) > 1)  # drop constant-value blocks
    dgdd = Gdd(td.n, td.partition, kept, td.block_sizes)
    assert len(kept) == 12
    assert verify_gdd(dgdd, holes=holes).ok
    assert not verify_gdd(dgdd).ok  # hole pairs are uncovered without holes


def test_build_dm_multiplicative_examples():
    dm = build_dm(5)
    assert dm.rows == ((0, 0, 0, 0, 0), (0, 1, 2, 3, 4),
                       (0, 2, 4, 1, 3), (0, 3, 1, 4, 2))
    assert verify_dm(dm).ok
    assert verify_dm(build_dm(7)).ok


def test_build_dm_all_multiplicative_orders():
    for g in range(4, 102):
        if gcd(g, 6) == 1:
            assert verify_dm(build_dm(g)).ok, g


def test_build_dm_search_and_field_orders():
    for g in (4, 8, 9, 12, 16, 20, 27, 36):
        assert verify_dm(build_dm(g)).ok, g


def test_build_dm_excluded():
    for g in (3, 6, 10):
        with pytest.raises(DesignError):
            build_dm(g)


def test_dm_defect_detected():
    dm = build_dm(5)
    rows = [list(r) for r in dm.rows]
    rows[2][0] = rows[2][1]  # break the difference property
    assert not verify_dm(DifferenceMatrix(5, 4, tuple(tuple(r) for r in rows),
                                          (5,))).ok


def test_shipped_dm_data():
    dm = load_design("dm-4-4.design")
    assert isinstance(dm, DifferenceMatrix)
    assert verify_dm(dm).ok


def test_shipped_room_frame():
    f = load_design("srf-2^5.design")
    assert isinstance(f, RoomFrame)
    assert verify_skew_room_frame(f).ok
    assert len(f.cells) == 40


def test_room_frame_mutations():
    f = load_design("srf-2^5.design")
    cells = dict(f.cells)
    (rc1, p1), (rc2, p2) = list(cells.items())[:2]
    cells2 = dict(cells)
    cells2[rc2] = p1  # a pair now occurs twice
    assert not verify_skew_room_frame(RoomFrame(f.holes, cells2)).ok
    cells3 = dict(cells)
    r, c = rc1
    cells3[(c, r)] = cells3[rc1]  # both (i,j) and (j,i) filled
    rep = verify_skew_room_frame(RoomFrame(f.holes, cells3))
    assert any(v.kind == "duplicate" for v in rep.violations)


def test_srf_search_known_nonexistence():
    assert search_skew_room_frame([1] * 5) is None
    assert search_skew_room_frame([2] * 4) is None


def test_srf_search_is_deterministic_oracle():
    f = search_skew_room_frame([2] * 5)
    assert f is not None and verify_skew_room_frame(f).ok
    shipped = load_design("srf-2^5.design")
    assert f.cells == shipped.cells and f.holes == shipped.holes


def test_pbd_trivial_and_shipped():
    assert verify_pbd(Pbd(4, ((0, 1, 2, 3),), frozenset({4}), 1)).ok
    p = load_design("pbd-13-4.design")
    assert verify_pbd(p).ok
    broken = Pbd(13, p.blocks[1:], p.block_sizes, 1)
    a, b, c, d = p.blocks[0]
    pairs = sorted([(a, b), (a, c), (a, d), (b, c), (b, d), (c, d)])
    assert verify_pbd(broken).violations == tuple(
        Violation("distance", pair, "covered 0x") for pair in pairs)


def test_pbd_repeated_point_is_duplicate():
    p = Pbd(3, ((0, 1, 2), (0, 0)), frozenset({2, 3}), 1)
    assert verify_pbd(p).violations == (
        Violation("duplicate", (1,), "repeated point in block"),)


def test_point_outside_the_design_is_reported():
    p = Pbd(3, ((0, 1, 2), (1, 5)), frozenset({2, 3}), 1)
    assert verify_pbd(p).violations == (
        Violation("type-mismatch", (1,), "point 5 outside [0, 3)"),)
    # With holes the point is not looked up in the hole partition either.
    g = Gdd(4, GroupPartition.singletons(4),
            ((0, 2), (0, 3), (1, 2), (1, 3), (0, 7)), frozenset({2}))
    holes = GroupPartition.of([[0, 1], [2, 3]])
    assert verify_gdd(g, holes=holes).violations == (
        Violation("type-mismatch", (4,), "point 7 outside [0, 4)"),)


def test_pbd_index_above_one_is_rejected():
    with pytest.raises(DesignError, match="index-1"):
        verify_pbd(Pbd(3, ((0, 1, 2), (0, 1, 2)), frozenset({3}), 2))


def test_shipped_gdd_2x7():
    d = load_design("gdd-4-2^7.design")
    assert isinstance(d, Gdd)
    assert verify_gdd(d).ok
    assert len(d.blocks) == 14
    assert sorted(len(g) for g in d.partition.groups) == [2] * 7


def test_gdd_pbd_adapters():
    p = load_design("pbd-13-4.design")
    g = pbd_as_gdd(p)
    assert verify_gdd(g).ok
    back = gdd_as_pbd(g)
    assert verify_pbd(back).ok
    assert back.blocks == p.blocks


def test_design_text_roundtrip():
    for name in ("dm-4-4.design", "srf-2^5.design", "pbd-13-4.design",
                 "gdd-4-2^7.design"):
        obj = load_design(name)
        again = read_design_text(write_design_text(obj))
        assert type(again) is type(obj)
        assert write_design_text(again) == write_design_text(obj)
