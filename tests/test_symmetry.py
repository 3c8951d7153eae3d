"""The symmetry claim of a development, and the verifier's scan of its cycle starts."""

import functools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cccodes import core
from cccodes.core import Code, Codeword, Gdc, verify_gdc
from cccodes.dataio import develop_manifest, iter_manifest_paths, load_manifest
from cccodes.group_action import develop, parse_manifest

# Z4 on four 4-cycles of words {k, k+4, k+8 ; inf0}; inf1 and inf2 are unused
# fixed points.  Any two words share only inf0, where they agree: distance 6.
FIXED_POINTS = """
[meta]
composition = 3,1
distance = 6
[classes]
plain 12
inf 3
[generator]
shift 1 on c0
[orbits]
full: 0,4,8 ; inf0
"""


@pytest.fixture
def scans(monkeypatch):
    """Per kernel scan, whether it reads every row, and how many rows it yields."""
    seen = []
    real = core._rows

    def recording(words, distance, cells, rows=None):
        scan = [rows is None, 0]
        seen.append(scan)
        for item in real(words, distance, cells, rows):
            scan[1] += 1
            yield item

    monkeypatch.setattr(core, "_rows", recording)
    return seen


def _starts(lengths):
    starts, i = [], 0
    for length in lengths:
        starts.append(i)
        i += length
    return starts


def _with(g, words, symmetry):
    out = Gdc(Code(g.n, g.code.composition, g.code.distance, words), g.partition)
    out.symmetry = symmetry
    return out


def test_shipped_developments_certify_on_their_cycle_starts(scans):
    split = Counter()
    starts = words = 0
    for path in iter_manifest_paths():
        m = load_manifest(path)
        g = develop(m)
        scans.clear()
        assert verify_gdc(g, m.expected_type, m.expected_size).ok, path.name
        if g.symmetry is None:
            assert any(o.kind == "short" for o in m.orbits)
            split["no claim"] += 1
            assert scans == [[True, len(g)]]
        elif scans == [[True, len(g)]]:
            split["claim fails"] += 1
        else:
            cycles = len(g.symmetry[1])
            assert scans == [[False, cycles]], path.name
            split["cycle starts"] += 1
            starts += cycles
            words += len(g)
    # No claim: 5 developments have a short orbit.  No claim fails.
    assert (split["cycle starts"], split["no claim"], split["claim fails"]) == (121, 5, 0)
    assert (starts, words) == (1437, 77620)


def test_a_fixed_base_that_the_generator_moves_fails_the_claim(scans):
    # code-n25 ends with the orbit {0,8,16 ; inf}, {4,12,20 ; inf} under
    # x -> x+4 (mod 24); the claim calls each of its two words fixed.
    g = develop_manifest("c31/code-n25.man")
    image, lengths = g.symmetry
    assert lengths[-1] == 2
    assert verify_gdc(_with(g, g.code.words, (image, lengths[:-1] + (1, 1)))).ok
    assert scans == [[True, 62]]


def test_a_set_cycle_start_row_scans_every_row(scans):
    # The second orbit repeats the first, shifted once: the claim holds, and
    # the first start's row holds the duplicate.
    g = develop(parse_manifest(FIXED_POINTS + "full: 1,5,9 ; inf0\n"))
    assert [v.kind for v in verify_gdc(g).violations] == ["duplicate"] * 4
    assert scans == [[False, 1], [True, 8]]


def test_fixed_point_change_fails_the_claim(scans):
    # Only masks at fixed points of the generator change, and the code stays
    # valid; a check that skipped fixed points would certify a false claim.
    g = develop(parse_manifest(FIXED_POINTS))
    assert verify_gdc(g).ok and scans == [[False, 1]]
    words = list(g.code.words)
    words[1] = Codeword(((1, 5, 9), (13,)), g.n)  # inf0 -> inf1
    scans.clear()
    assert verify_gdc(_with(g, words, g.symmetry)).ok
    assert scans == [[True, 4]]


def test_non_bijective_image_fails_the_claim(scans):
    # inf1 and inf2 both go to inf2.  No word meets either, so every mask
    # check passes: only the bijection check refuses the image.
    g = develop(parse_manifest(FIXED_POINTS))
    image, lengths = g.symmetry
    forged = image[:13] + (14, 14)
    assert image[13:] == (13, 14)
    assert verify_gdc(_with(g, g.code.words, (forged, lengths))).ok
    assert scans == [[True, 4]]


@pytest.mark.parametrize("lengths", [(3,), (5,), (1, 3), (2, 2), (0, 4)])
def test_forged_lengths_fail_the_claim(scans, lengths):
    g = develop(parse_manifest(FIXED_POINTS))
    assert verify_gdc(_with(g, g.code.words, (g.symmetry[0], lengths))).ok
    assert scans == [[True, 4]]


def test_words_swapped_across_cycles_fail_the_claim(scans):
    g = develop_manifest("c22/type-2^10.man")
    words = list(g.code.words)
    words[1], words[12] = words[12], words[1]
    assert verify_gdc(_with(g, words, g.symmetry)).ok
    assert scans == [[True, 60]]


# Small shipped developments: claims with cycles of one length and of two,
# and with fixed points.
SMALL = ["c22/type-2^10.man", "c31/type-3^7.man", "c22/code-n17.man",
         "c22/type-2^12+5^1.man", "c31/code-n23.man", "c31/code-n25.man",
         "c22/code-n13.man"]
FAULTS = ["move", "duplicate", "drop", "swap", "image", "lengths"]


@functools.cache
def _developed(rel):
    return develop_manifest(rel)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SMALL), st.sampled_from(FAULTS), st.randoms(use_true_random=False))
def test_claim_gives_the_report_of_the_full_scan(rel, fault, rng):
    # Each seeded fault, with the development's claim and without it.  A
    # duplicated or dropped word keeps the claim's lengths, or changes its
    # cycle's length to match.
    g = _developed(rel)
    words = list(g.code.words)
    image, lengths = list(g.symmetry[0]), list(g.symmetry[1])
    starts = _starts(lengths)
    i = rng.randrange(len(words))
    cycle = max(c for c, s in enumerate(starts) if s <= i)
    if fault == "move":
        x = rng.choice(words[i].support())
        y = rng.choice([p for p in range(g.n) if p not in words[i].support()])
        words[i] = Codeword([[y if p == x else p for p in cls] for cls in words[i].supports], g.n)
    elif fault in ("duplicate", "drop"):
        if fault == "duplicate":
            words.insert(i + 1, words[i])
        else:
            del words[i]
        if rng.random() < 0.5:
            lengths[cycle] += 1 if fault == "duplicate" else -1
    elif fault == "swap":
        j = rng.randrange(len(words))
        words[i], words[j] = words[j], words[i]
    elif fault == "image":
        a, b = rng.sample(range(g.n), 2)
        image[a] = image[b]
    else:
        lengths[cycle] += rng.choice([-1, 1])
        if rng.random() < 0.5 and len(lengths) > 1:
            lengths[(cycle + 1) % len(lengths)] -= lengths[cycle] - g.symmetry[1][cycle]
    want = verify_gdc(_with(g, words, None))
    assert verify_gdc(_with(g, words, (tuple(image), tuple(lengths)))) == want
