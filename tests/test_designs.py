"""Ingredient designs: fields, TDs, difference matrices, Room frames, PBDs."""

import re
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cccodes import designs
from cccodes.core import GroupPartition, Violation
from cccodes.dataio import data_root
from cccodes.designs import (
    DesignError,
    DifferenceMatrix,
    Gdd,
    GfTable,
    RoomFrame,
    SearchExhausted,
    build_dm,
    build_td,
    read_design_text,
    search_skew_room_frame,
    verify_dm,
    verify_gdd,
    verify_skew_room_frame,
    write_design_text,
)


def load_design(name):
    return read_design_text((data_root() / "designs" / name).read_text())


def test_gf_tables_satisfy_axioms():
    # Inverses exhaustively; associativity and distributivity on a sample grid.
    for q in (2, 3, 5, 7, 4, 8, 9, 16, 25, 27, 49):
        gf = GfTable(q)
        add, mul = gf.add, gf.mul
        assert all(1 in mul[a] for a in range(1, q)), q
        sample = range(0, q, max(1, q // 7))
        for a, b, c in product(sample, repeat=3):
            assert mul[a][mul[b][c]] == mul[mul[a][b]][c], (q, a, b, c)
            assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]], (q, a, b, c)
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


@pytest.mark.parametrize("k, m", [(-2, 3), (0, 5), (1, 3), (1, 1)])
def test_build_td_needs_two_groups(k, m):
    with pytest.raises(DesignError) as err:
        build_td(k, m)
    assert str(err.value) == f"a transversal design needs k >= 2, got k={k}"


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


@pytest.mark.parametrize("hole_sizes", [[1] * 8, [1, 1, 2]])
def test_srf_search_refuses_an_odd_row_before_its_first_node(monkeypatch, hole_sizes):
    # A row in hole H holds each symbol outside H once, two to a cell, so an
    # odd n - |H| leaves no frame, and no node is searched to show it.
    monkeypatch.setattr(designs, "_NODE_BUDGET", 0)
    assert search_skew_room_frame(hole_sizes) is None


def test_srf_search_wants_every_hole_nonempty():
    with pytest.raises(DesignError, match=r"size >= 1: \[2, 2, 0, 2\]$"):
        search_skew_room_frame([2, 2, 0, 2])


# The search's own node count, pinned through the budget: a budget of that
# many nodes suffices and one node fewer raises SearchExhausted.
@pytest.mark.parametrize("hole_sizes, nodes", [
    ([2] * 5, 47_078), ([2] * 4, 5_289), ([1] * 5, 59), ([1] * 7, 294)])
def test_srf_search_node_counts(monkeypatch, hole_sizes, nodes):
    monkeypatch.setattr(designs, "_NODE_BUDGET", nodes)
    search_skew_room_frame(hole_sizes)
    monkeypatch.setattr(designs, "_NODE_BUDGET", nodes - 1)
    with pytest.raises(SearchExhausted):
        search_skew_room_frame(hole_sizes)


def test_srf_search_is_deterministic_oracle():
    f = search_skew_room_frame([2] * 5)
    assert f is not None and verify_skew_room_frame(f).ok
    shipped = load_design("srf-2^5.design")
    assert f.cells == shipped.cells and f.holes == shipped.holes


def pbd(v, blocks, sizes):
    """An index-1 PBD on v points: a GDD over singleton groups."""
    return Gdd(v, GroupPartition.singletons(v), blocks, frozenset(sizes))


def test_pbd_trivial_and_shipped():
    assert verify_gdd(pbd(4, ((0, 1, 2, 3),), {4})).ok
    p = load_design("pbd-13-4.design")
    assert verify_gdd(p).ok
    broken = pbd(13, p.blocks[1:], p.block_sizes)
    a, b, c, d = p.blocks[0]
    pairs = sorted([(a, b), (a, c), (a, d), (b, c), (b, d), (c, d)])
    assert verify_gdd(broken).violations == tuple(
        Violation("distance", pair, "covered 0x") for pair in pairs)


def test_pbd_repeated_point_is_duplicate():
    assert verify_gdd(pbd(3, ((0, 1, 2), (0, 0)), {2, 3})).violations == (
        Violation("duplicate", (1,), "repeated point in block"),)


def test_point_outside_the_design_is_reported():
    assert verify_gdd(pbd(3, ((0, 1, 2), (1, 5)), {2, 3})).violations == (
        Violation("type-mismatch", (1,), "point 5 outside [0, 3)"),)


def test_pbd_index_above_one_is_rejected():
    with pytest.raises(DesignError) as err:
        read_design_text("kind=pbd\nv=3\nk=3\nlambda=2\nblocks=\n0,1,2\n0,1,2\n")
    assert str(err.value) == "line 4: only index-1 PBDs read as GDDs"


def test_shipped_gdd_2x7():
    d = load_design("gdd-4-2^7.design")
    assert isinstance(d, Gdd)
    assert verify_gdd(d).ok
    assert len(d.blocks) == 14
    assert sorted(len(g) for g in d.partition.groups) == [2] * 7


def test_gdd_pbd_adapters():
    # A pbd file reads as the GDD over singleton groups, explicit index 1 or not.
    p = load_design("pbd-13-4.design")
    assert p == pbd(13, p.blocks, {4})
    text = "kind=pbd\nv=4\nk=4\nblocks=\n0,1,2,3\n"
    assert read_design_text(text) == read_design_text(text.replace("k=4", "k=4\nlambda=1"))


SHIPPED = ("dm-4-4.design", "srf-2^5.design", "pbd-13-4.design", "gdd-4-2^7.design")


def test_design_text_roundtrip():
    for name in SHIPPED:
        obj = load_design(name)
        again = read_design_text(write_design_text(obj))
        assert type(again) is type(obj)
        assert write_design_text(again) == write_design_text(obj)


@pytest.mark.parametrize("text, key", [
    ("kind=gdd\nn=2\ngroups=\n0\n1\nblocks=\n0,1\n", "k"),
    ("kind=gdd\nk=2\ngroups=\n0\n1\nblocks=\n0,1\n", "n"),
    ("kind=pbd\nk=2\nblocks=\n0,1\n", "v"),
    ("kind=dm\nk=3\nrows=\n0,0,0\n", "g"),
    ("kind=dm\ng=2\nrows=\n0,0,0\n", "k"),
])
def test_missing_header_key_is_a_design_error(text, key):
    with pytest.raises(DesignError) as err:
        read_design_text(text)
    assert str(err.value) == f"missing header {key}="


@pytest.mark.parametrize("text, message", [
    ("kind=roomframe\nholes=\n0,1\n2,3\ncells=\n0,1\n", "line 6: want R,C:A,B: '0,1'"),
    ("kind=roomframe\nholes=\n0,1\ncells=\n0,1,2:3,4\n",
     "line 5: want R,C:A,B: '0,1,2:3,4'"),
    ("kind=roomframe\nholes=\n0,1\ncells=\n0,1:2,b\n",
     "line 5: invalid literal for int() with base 10: 'b'"),
    ("kind=gdd\nn=2\nk=2\ngroups=\n0,a\n1\nblocks=\n0,1\n",
     "line 5: invalid literal for int() with base 10: 'a'"),
    ("kind=gdd\nn=two\nk=2\ngroups=\n0\n1\n", "line 2: invalid literal for int() with base 10: 'two'"),
    ("kind=pbd\nv=3\nk=3\nlambda=x\nblocks=\n0,1,2\n",
     "line 4: invalid literal for int() with base 10: 'x'"),
    ("kind=dm\ng=4\nk=2\nmoduli=2*2\nrows=\n0,0,0,0\n0,1,2,3\n",
     "line 4: invalid literal for int() with base 10: '2*2'"),
    ("kind=dm\ng=4\nk=2\nrows=\n0,0,0,0\n0,1,,3\n",
     "line 6: invalid literal for int() with base 10: ''"),
    ("# header\nkind=pbd\n0,1\n", "line 3: content before any section: '0,1'"),
    ("\nkind=bibd\n", "line 2: unknown design kind 'bibd'"),
    ("v=3\nblocks=\n0,1,2\n", "missing header kind="),
    ("kind=pbd\nv=4\nk=4\nblocs=\n0,1,2,3\n",
     "line 4: section blocs= is not part of a pbd file"),
    ("kind=pbd\nv=3\nk=3\nlamda=2\nblocks=\n0,1,2\n",
     "line 4: header lamda= is not part of a pbd file"),
    ("kind=roomframe\nn=4\nholes=\n0,1\n2,3\nrows=\n0,0\n",
     "line 2: header n= is not part of a roomframe file"),
    ("kind=dm\ng=2\nk=2\nrows=\n0,0\n0,1\nblocks=\n0,1\n",
     "line 7: section blocks= is not part of a dm file"),
    ("kind=pbd\nv=4\nv=7\nk=4\nblocks=\n0,1,2,3\n", "line 3: repeated header v="),
    ("kind=pbd\nkind = pbd\nv=4\nk=4\nblocks=\n0,1,2,3\n", "line 2: repeated header kind="),
    ("kind=pbd\nv=4\nk=4\nblocks=\n0,1,2,3\nblocks=\n0,1,2,3\n",
     "line 6: repeated section blocks="),
    ("kind=gdd\nn=-6\nk=-2\ngroups=\nblocks=\n\n", "line 2: want a count of at least 0: -6"),
    ("kind=pbd\nk=2\nv=-3\nblocks=\n", "line 3: want a count of at least 0: -3"),
    ("kind=gdd\nn=2\nk=2\ngroups=\n0\nblocks=\n0,1\ngroups=\n1\n",
     "line 8: repeated section groups="),
    ("kind=pbd\nv=4\nk=\nblocks=\n0,1,2,3\n",
     "line 3: invalid literal for int() with base 10: ''"),
    ("kind=gdd\nn =\nk=2\ngroups=\n0\n1\nblocks=\n0,1\n",
     "line 2: invalid literal for int() with base 10: ''"),
    ("kind=dm\ng=-3\nk=0\nrows=\n", "line 2: want a count of at least 1: -3"),
    ("kind=dm\ng=0\nk=2\nrows=\n", "line 2: want a count of at least 1: 0"),
    ("kind=dm\ng=2\nk=1\nmoduli=2\nrows=\n0,1\n", "line 3: want a count of at least 2: 1"),
    ("kind=dm\ng=4\nk=2\nmoduli=-2x-2\nrows=\n0,0,0,0\n0,1,2,3\n",
     "line 4: want a count of at least 1: -2"),
    ("kind=dm\ng=4\nk=2\nmoduli=0x4\nrows=\n0,0,0,0\n0,1,2,3\n",
     "line 4: want a count of at least 1: 0"),
    ("kind=dm\ng=4\nk=2\nmoduli=4x\nrows=\n0,0,0,0\n0,1,2,3\n",
     "line 4: invalid literal for int() with base 10: ''"),
    ("kind=roomframe\nholes=\ncells=\n", "line 2: want at least one line in section holes="),
    ("kind=roomframe\nholes=\n0,1\ncells=\n",
     "line 4: want at least one line in section cells="),
    ("# no holes\nkind=roomframe\ncells=\n0,1:2,3\n",
     "line 2: want at least one line in section holes="),
])
def test_design_text_errors_are_typed_and_numbered(text, message):
    with pytest.raises(DesignError) as err:
        read_design_text(text)
    assert str(err.value) == message


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.sampled_from((3, 4, 5, 7, 8, 9)).map(lambda m: build_td(4, m)),
                 st.sampled_from((4, 5, 7, 8, 9, 11, 12, 13, 16)).map(build_dm),
                 st.sampled_from(SHIPPED).map(load_design)))
def test_design_text_write_then_read_is_the_identity(obj):
    text = write_design_text(obj)
    assert read_design_text(text) == obj
    assert write_design_text(read_design_text(text)) == text


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SHIPPED), st.integers(min_value=0),
       st.sampled_from(["", "0", "-1", "99", "x", ",", ":", "=", "2x2", "\n", "#",
                        "kind", "gdd", "dm", " ", "1,2"]))
def test_mutated_design_text_raises_only_the_typed_error(name, where, token):
    tokens = re.findall(r"\w+|\W", (data_root() / "designs" / name).read_text())
    tokens[where % len(tokens)] = token
    try:
        read_design_text("".join(tokens))
    except DesignError as e:
        assert str(e).startswith(("line ", "missing header ")), str(e)
