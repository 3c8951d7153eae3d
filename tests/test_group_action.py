"""Manifest parsing and orbit development."""

import hashlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cccodes.core import (Codeword, GdcType, Violation, gdc_type, read_code_text, verify_gdc,
                          write_code_text)
from cccodes.dataio import develop_manifest, iter_manifest_paths, load_manifest
from cccodes.group_action import (
    DevelopmentError,
    ManifestError,
    Permutation,
    develop,
    orbit,
    parse_manifest,
)

MINIMAL = """
[meta]
composition = 2,2
distance = 6
[classes]
plain 20
[generator]
shift 1 on c0
[orbits]
full: 0,5 ; 3,7
"""


def test_orbit_full_cycle():
    m = parse_manifest(MINIMAL)
    words = orbit(Codeword(((0, 5), (3, 7)), 20), m.generator)
    assert len(words) == 20
    assert len(set(words)) == 20
    assert words[1].supports == ((1, 6), (4, 8))


def test_orbit_needs_a_generator_on_the_word_s_points():
    # Images are only sorted, so a generator on other points is refused.
    m = parse_manifest(MINIMAL)
    with pytest.raises(ValueError, match="^generator on 20 points, word with point 20$"):
        orbit(Codeword(((0, 5), (3, 20)), 21), m.generator)


def test_orbit_with_fixed_point():
    text = """
[meta]
composition = 3,1
distance = 6
[classes]
plain 12
inf 1
[generator]
shift 1 on c0
[orbits]
full: 0,4,8 ; inf
"""
    m = parse_manifest(text)
    words = orbit(m.orbits[0].base, m.generator)
    assert len(words) == 4  # {0,4,8} has set-period 4 under +1 mod 12


def test_orbit_pairs_with_set_period():
    # the [2,2] word with both classes of set-period 6 closes after 6 steps
    text = """
[meta]
composition = 2,2
distance = 6
[classes]
ring 12 x 2
[generator]
shift 1 on c0 c1
[orbits]
full: 0_0,6_0 ; 0_1,6_1
"""
    m = parse_manifest(text)
    assert len(orbit(m.orbits[0].base, m.generator)) == 6


def test_parse_resolves_labels_and_rejects_unknown():
    text = """
[meta]
composition = 2,2
distance = 6
[classes]
ring 27 x 3
[generator]
shift 1 on c0 c1 c2
[orbits]
full: 27_0,1_0 ; 2_1,3_2
"""
    with pytest.raises(ManifestError, match="unknown label"):
        parse_manifest(text)  # 27_0 out of range for Z27 (labels 0..26)
    ok = text.replace("27_0", "26_0")
    m = parse_manifest(ok)
    assert m.n == 81


def test_parse_rejects_bad_arity():
    bad = MINIMAL.replace("full: 0,5 ; 3,7", "full: 0,5,3 ; 7")
    with pytest.raises(ManifestError, match="arity"):
        parse_manifest(bad)


def test_non_bijective_generator():
    with pytest.raises(ManifestError, match="bijection"):
        Permutation([0, 0, 1])


def test_develop_lemma_2x10():
    g = develop_manifest("c22/type-2^10.man")
    assert len(g) == 60
    assert str(gdc_type(g)) == "2^10"
    assert verify_gdc(g, GdcType.parse("2^10"), 60).ok


def test_develop_6_5():
    g = develop_manifest("c22/type-6^5.man")
    assert len(g) == 120  # 6t(t-1) at t=5
    assert gdc_type(g) == GdcType.parse("6^5")


def test_develop_3_7_31():
    g = develop_manifest("c31/type-3^7.man")
    assert len(g) == 42  # 3t(3t+1) at t=2
    assert gdc_type(g) == GdcType.parse("3^7")


def test_develop_n17_code_with_infinity():
    g = develop_manifest("c22/code-n17.man")
    assert len(g) == 40
    assert g.n == 17


def test_develop_product_group_n25_with_one_generator():
    # Z5 x Z5 written as 20 orbits of length 5 under its first factor.
    m = load_manifest("c22/code-n25.man")
    g = develop(m)
    assert len(g) == 100 and len(m.orbits) == 20
    assert g.symmetry == ((m.generator.image, (5,) * 20, 1),)
    assert verify_gdc(g, m.expected_type, m.expected_size).ok


def test_short_orbit_truncation():
    g = develop_manifest("c31/type-1^36+5^1.man")
    assert len(g) == 173  # 13*12 + 6 + 4 + 4 + 3


def test_closure_under_generator():
    # develop(m) is closed under the generator for manifests of full orbits
    for rel in ["c22/type-2^10.man", "c31/type-9^4.man", "c22/code-n25.man"]:
        m = load_manifest(rel)
        assert all(o.length is None for o in m.orbits)
        g = develop(m)
        words = set(g.code.words)
        image = {Codeword([[m.generator.image[x] for x in cls] for cls in w.supports], m.n)
                 for w in words}
        assert image == words


def test_size_is_sum_of_orbit_lengths():
    m = load_manifest("c22/type-18^4.man")
    g = develop(m)
    total = 0
    for decl in m.orbits:
        assert decl.length is None
        total += len(orbit(decl.base, m.generator))
    assert total == len(g) == 648


def verify_declared(text):
    """Develop a manifest and verify it against its declared size and type."""
    m = parse_manifest(text)
    return verify_gdc(develop(m), m.expected_type, m.expected_size).violations


def test_cross_orbit_duplicate_is_error():
    # The second base word is the first one shifted once, so its orbit
    # repeats the first: word 20 + k equals word k + 1 (mod 20).
    dup = MINIMAL + "full: 1,6 ; 4,8\n"
    want = sorted((Violation("duplicate", ((k + 1) % 20, 20 + k), 0) for k in range(20)),
                  key=lambda v: v.witness)
    assert list(verify_declared(dup)) == want


def test_short_orbit_length_mismatch_is_error():
    text = """
[meta]
composition = 2,2
distance = 6
[classes]
plain 12
[generator]
shift 1 on c0
[orbits]
short 5: 0,6 ; 1,7
"""
    with pytest.raises(DevelopmentError, match="does not divide"):
        develop(parse_manifest(text))
    # longer than the full orbit (length 6): it would repeat its own words
    with pytest.raises(DevelopmentError, match="length 24 which does not divide "
                                               "the full orbit length 6"):
        develop(parse_manifest(text.replace("short 5", "short 24")))


def test_a_short_orbit_of_the_full_orbit_length_is_refused():
    # Written full, the orbit keeps the development's symmetry claim.
    assert develop(parse_manifest(MINIMAL)).symmetry is not None
    with pytest.raises(DevelopmentError, match="^: short orbit 0 declares length 20 which "
                       "does not divide the full orbit length 20 into shorter orbits$"):
        develop(parse_manifest(MINIMAL.replace("full:", "short 20:")))


# One SHA-256 over the written development of every shipped manifest, in
# path order: a rewrite of the manifests must not change a byte.
DEVELOPMENTS_SHA256 = "9aa9e5b6bef6836f91c7c5d284262c70eb1514c2f599cf5f62ac544ff31e63d8"


def test_shipped_developments_are_byte_identical():
    digest = hashlib.sha256()
    paths = iter_manifest_paths()
    for path in paths:
        g = develop(load_manifest(path))
        text = write_code_text(g)
        digest.update(text.encode())
        back = read_code_text(text)
        assert (back.code.words, back.partition) == (g.code.words, g.partition), path
    assert (len(paths), digest.hexdigest()) == (126, DEVELOPMENTS_SHA256)


def test_expected_size_mismatch_is_error():
    text = MINIMAL.replace("distance = 6", "distance = 6\nexpected_size = 21")
    assert verify_declared(text) == (Violation("size-mismatch", (), "20 != 21"),)


def test_expected_type_mismatch_is_error():
    text = MINIMAL.replace("distance = 6", "distance = 6\nexpected_type = 4^5")
    assert verify_declared(text) == (Violation("type-mismatch", (), "1^20 != 4^5"),)


def test_default_partition_is_singletons():
    m = parse_manifest(MINIMAL)
    g = develop(m)
    assert str(gdc_type(g)) == "1^20"


def edit(*pairs):
    """MINIMAL with each (old, new) replacement applied in turn."""
    text = MINIMAL
    for old, new in pairs:
        text = text.replace(old, new)
    return text


SECTIONS = "one of [meta], [classes], [generator], [groups], [orbits], each at most once"
META = "one of composition, distance, expected_size, expected_type = VALUE"
CLASSES = "plain M, ring M x K or inf K with M, K >= 1"
GENERATOR = "shift S on cK ..."
GROUPS = "coset S on cK, coset S across cK ..., whole cK ... or singletons cK ..."
ORBITS = "full: WORD or short L: WORD"
GROUPS_AT_9 = ("shift 1 on c0", "shift 1 on c0\n[groups]")


# MINIMAL's lines: 2 [meta], 3 composition, 4 distance, 5 [classes],
# 6 plain 20, 7 [generator], 8 shift, 9 [orbits], 10 the full orbit.
@pytest.mark.parametrize("text, message", [
    # sections
    (edit(("[generator]", "[group]")), f"line 7: want {SECTIONS}: '[group]'"),
    (edit(("shift 1 on c0", "shift 1 on c0\n[meta]")), f"line 9: want {SECTIONS}: '[meta]'"),
    (edit(("[meta]", "distance = 6\n[meta]")),
     "line 2: content before first section: 'distance = 6'"),
    (edit(("[orbits]\nfull: 0,5 ; 3,7\n", "")), "missing [orbits] section"),
    # [meta]
    (edit(("distance = 6", "distance = 6\nexpected_sise = 61")),
     f"line 5: want {META}: 'expected_sise = 61'"),
    (edit(("distance = 6", "")), "line 2: meta must declare composition and distance"),
    (edit(("= 6", "= six")), "line 4: invalid literal for int() with base 10: 'six'"),
    (edit(("distance = 6", "distance = 6\nexpected_type = 2^-1 3^7")),
     "line 5: want group sizes and counts of at least 1: '2^-1'"),
    (edit(("distance = 6", "distance = 6\nexpected_type = 3^7 2^0")),
     "line 5: want group sizes and counts of at least 1: '2^0'"),
    (edit(("distance = 6", "distance = 6\nexpected_type = 0^3")),
     "line 5: want group sizes and counts of at least 1: '0^3'"),
    (edit(("distance = 6", "distance = 6\nexpected_type = -2^3")),
     "line 5: want group sizes and counts of at least 1: '-2^3'"),
    (edit(("distance = 6", "distance = 6\nexpected_type = 2 0")),
     "line 5: want group sizes and counts of at least 1: '0'"),
    (edit(("distance = 6", "distance = 6\nexpected_type =")),
     "line 5: want at least one group size: ''"),
    (edit(("2,2", "2,0")), "line 3: composition entries must be positive: (2, 0)"),
    # [classes]
    (edit(("plain 20", "plain")), f"line 6: want {CLASSES}: 'plain'"),
    (edit(("plain 20", "ring 20")), f"line 6: want {CLASSES}: 'ring 20'"),
    (edit(("plain 20", "ring 4 x 0")), f"line 6: want {CLASSES}: 'ring 4 x 0'"),
    (edit(("plain 20", "plain 20\ninf 1\ninf 1")), "line 8: duplicate label 'inf'"),
    (edit(("plain 20", "plain 200000"), ("0,5 ; 3,7", "0,x ; 3,7")),
     "line 6: want at most 10000 points in all: 'plain 200000'"),
    (edit(("plain 20", "plain 20\nring 1000 x 10")),
     "line 7: want at most 10000 points in all: 'ring 1000 x 10'"),
    # [generator]
    (edit(("shift 1 on c0", "shift")), f"line 8: want {GENERATOR}: 'shift'"),
    (edit(("shift 1 on c0", "cycle 0 1 2")), f"line 8: want {GENERATOR}: 'cycle 0 1 2'"),
    (edit(("on c0", "on c1")), "line 8: unknown class 'c1'"),
    (edit(("plain 20", "plain 20\ninf 2"), ("on c0", "on c1")),
     "line 9: cannot shift an inf class"),
    (edit(("shift 1 on c0", "shift 1 on c0\n[generator2]\nshift 1 on c0")),
     f"line 9: want {SECTIONS}: '[generator2]'"),
    (edit(("shift 1 on c0", "rotate c0")), f"line 8: want {GENERATOR}: 'rotate c0'"),
    (edit(("shift 1 on c0", "shift 1 on c0\nshift 2 on c0")),
     "line 9: class c0 is shifted twice: 'shift 2 on c0'"),
    (edit(("on c0", "on c0 c0")), "line 8: class c0 is shifted twice: 'shift 1 on c0 c0'"),
    # [groups]
    (edit(GROUPS_AT_9, ("[orbits]", "coset 5\n[orbits]")), f"line 10: want {GROUPS}: 'coset 5'"),
    (edit(GROUPS_AT_9, ("[orbits]", "list 0,1\n[orbits]")), f"line 10: want {GROUPS}: 'list 0,1'"),
    (edit(GROUPS_AT_9, ("[orbits]", "coset 2 on c0 c0\n[orbits]")),
     f"line 10: want {GROUPS}: 'coset 2 on c0 c0'"),
    (edit(GROUPS_AT_9, ("[orbits]", "whole c0\nsingletons c0\n[orbits]")),
     "line 9: groups do not partition [0, n)"),
    (edit(GROUPS_AT_9, ("[orbits]", "coset 21 on c0\n[orbits]")),
     "line 10: want a coset step from 1 to 20: 'coset 21 on c0'"),
    (edit(GROUPS_AT_9, ("[orbits]", "coset 0 on c0\n[orbits]")),
     "line 10: want a coset step from 1 to 20: 'coset 0 on c0'"),
    (edit(("plain 20", "plain 18\nplain 2"), GROUPS_AT_9,
          ("[orbits]", "coset 400000 across c1 c0\n[orbits]")),
     "line 11: want a coset step from 1 to 18: 'coset 400000 across c1 c0'"),
    # [orbits]
    (edit(("full:", "short:")), f"line 10: want {ORBITS}: 'short: 0,5 ; 3,7'"),
    (edit(("full:", "short 0:")), f"line 10: want {ORBITS}: 'short 0: 0,5 ; 3,7'"),
    (edit(("full:", "full 3:")), f"line 10: want {ORBITS}: 'full 3: 0,5 ; 3,7'"),
    (edit(("full:", "full")), f"line 10: want {ORBITS}: 'full 0,5 ; 3,7'"),
    (edit(("full:", "short x:")), f"line 10: want {ORBITS}: 'short x: 0,5 ; 3,7'"),
    (edit(("full:", "short 2 5:")), f"line 10: want {ORBITS}: 'short 2 5: 0,5 ; 3,7'"),
    (edit(("full:", "fixed:")), f"line 10: want {ORBITS}: 'fixed: 0,5 ; 3,7'"),
    (edit(("0,5 ; 3,7", "0,5,3 ; 7")),
     "line 10: codeword arity does not match composition: 'full: 0,5,3 ; 7'"),
    (edit(("0,5 ; 3,7", "0,20 ; 3,7")), "line 10: unknown label '20'"),
    (edit(("0,5 ; 3,7", "0,,5 ; 3,7")), "line 10: unknown label ''"),
    (edit(("0,5 ; 3,7", "0,5 ; 5,7")), "line 10: symbol classes overlap: ((0, 5), (5, 7))"),
])
def test_malformed_manifest_raises_a_numbered_error(text, message):
    with pytest.raises(ManifestError) as err:
        parse_manifest(text)
    assert str(err.value) == message


SHIPPED = [path.read_text() for path in iter_manifest_paths()]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SHIPPED), st.integers(min_value=0),
       st.sampled_from(["", "0", "-1", "99", "x", ",", ":", "=", "2x2", "\n", "#",
                        "kind", "gdd", "dm", " ", "1,2"]))
def test_mutated_manifest_raises_only_the_typed_error(text, where, token):
    tokens = re.findall(r"\w+|\W", text)
    tokens[where % len(tokens)] = token
    try:
        parse_manifest("".join(tokens))
    except ManifestError as e:
        assert str(e).startswith(("line ", "missing [")), str(e)
