"""Manifest parsing and orbit development."""

import pytest

from cccodes.core import Codeword, GdcType, gdc_type, verify_gdc
from cccodes.dataio import develop_manifest, load_manifest
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


def test_develop_product_group_n25():
    m = load_manifest("c22/code-n25.man")
    assert m.generator2 is not None
    g = develop(m)
    assert len(g) == 100  # 4 orbits x 25 under the product action


def test_short_orbit_truncation():
    g = develop_manifest("c31/type-1^36+5^1.man")
    assert len(g) == 173  # 13*12 + 6 + 4 + 4 + 3


def test_closure_under_generator():
    # develop(m) is closed under the group for manifests without fixed words
    for rel in ["c22/type-2^10.man", "c31/type-9^4.man", "c22/code-n25.man"]:
        m = load_manifest(rel)
        assert not m.has_fixed_orbits
        g = develop(m)
        words = set(g.code.words)
        image = {m.generator.apply_word(w) for w in words}
        assert image == words
        if m.generator2 is not None:
            image2 = {m.generator2.apply_word(w) for w in words}
            assert image2 == words


def test_size_is_sum_of_orbit_lengths():
    m = load_manifest("c22/type-18^4.man")
    g = develop(m)
    total = 0
    for decl in m.orbits:
        assert decl.kind == "full"
        total += len(orbit(decl.base, m.generator))
    assert total == len(g) == 648


def test_cross_orbit_duplicate_is_error():
    dup = MINIMAL + "full: 1,6 ; 4,8\n"  # same orbit as the first base word
    with pytest.raises(DevelopmentError, match="orbits 0 and 1"):
        develop(parse_manifest(dup))


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


def test_expected_size_mismatch_is_error():
    text = MINIMAL.replace("distance = 6", "distance = 6\nexpected_size = 21")
    with pytest.raises(DevelopmentError, match="size"):
        develop(parse_manifest(text))


def test_expected_type_mismatch_is_error():
    text = MINIMAL.replace("distance = 6", "distance = 6\nexpected_type = 4^5")
    with pytest.raises(DevelopmentError, match="type"):
        develop(parse_manifest(text))


def test_default_partition_is_singletons():
    m = parse_manifest(MINIMAL)
    g = develop(m)
    assert str(gdc_type(g)) == "1^20"


@pytest.mark.parametrize("old, new, message", [
    ("shift 1 on c0", "shift", "line 8: bad shift line: 'shift'"),
    ("plain 20", "plain", "line 6: bad plain class: 'plain'"),
    ("shift 1 on c0", "shift 1 on c0\n[groups]\ncoset 5", "line 10: bad coset line: 'coset 5'"),
    ("full:", "short:", "line 10: bad orbit line: 'short: 0,5 ; 3,7'"),
])
def test_truncated_line_is_a_manifest_error_with_its_number(old, new, message):
    with pytest.raises(ManifestError) as err:
        parse_manifest(MINIMAL.replace(old, new))
    assert str(err.value) == message
