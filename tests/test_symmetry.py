"""The symmetry claims of developments and inflations, and the verifier's scan
of their cycle starts."""

import functools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cccodes import core
from cccodes.constructions import inflate
from cccodes.core import Code, Codeword, Gdc, verify_gdc
from cccodes.dataio import develop_manifest, iter_manifest_paths, load_manifest
from cccodes.designs import Gdd, build_td
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
    return Gdc(Code(g.n, g.code.composition, g.code.distance, words), g.partition, symmetry)


def test_shipped_developments_certify_on_their_cycle_starts(scans):
    split = Counter()
    starts = words = 0
    for path in iter_manifest_paths():
        m = load_manifest(path)
        g = develop(m)
        scans.clear()
        assert verify_gdc(g, m.expected_type, m.expected_size).ok, path.name
        if g.symmetry is None:
            assert any(o.length is not None for o in m.orbits)
            split["no claim"] += 1
            assert scans == [[True, len(g)]]
        elif scans == [[True, len(g)]]:
            split["claim fails"] += 1
        else:
            cycles = len(g.symmetry[0][1])
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
    (image, lengths, run), = g.symmetry
    assert lengths[-1] == 2 and run == 1
    assert verify_gdc(_with(g, g.code.words, ((image, lengths[:-1] + (1, 1), 1),))).ok
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
    (image, lengths, _), = g.symmetry
    forged = image[:13] + (14, 14)
    assert image[13:] == (13, 14)
    assert verify_gdc(_with(g, g.code.words, ((forged, lengths, 1),))).ok
    assert scans == [[True, 4]]


@pytest.mark.parametrize("lengths", [(3,), (5,), (1, 3), (2, 2), (0, 4)])
def test_forged_lengths_fail_the_claim(scans, lengths):
    g = develop(parse_manifest(FIXED_POINTS))
    assert verify_gdc(_with(g, g.code.words, ((g.symmetry[0][0], lengths, 1),))).ok
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
FAULTS = ["move", "outside", "duplicate", "drop", "swap", "image", "lengths"]


def _moved(w, n, fault, rng):
    # One point of w moved to a free point of [0, n), or outside it.
    x = rng.choice(w.support())
    free = (range(n, n + 3) if fault == "outside"
            else [p for p in range(n) if p not in w.support()])
    y = rng.choice(free)
    return Codeword([[y if p == x else p for p in cls] for cls in w.supports], n + 3)


@functools.cache
def _developed(rel):
    return develop_manifest(rel)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SMALL), st.sampled_from(FAULTS), st.randoms(use_true_random=False))
def test_claim_gives_the_report_of_the_full_scan(rel, fault, rng):
    # Each seeded fault, with the development's claim and without it.  A
    # duplicated or dropped word keeps the claim's lengths, or changes its
    # cycle's length to match.  An outside move sends a point to n, n+1 or n+2.
    g = _developed(rel)
    words = list(g.code.words)
    image, lengths = list(g.symmetry[0][0]), list(g.symmetry[0][1])
    starts = _starts(lengths)
    i = rng.randrange(len(words))
    cycle = max(c for c, s in enumerate(starts) if s <= i)
    if fault in ("move", "outside"):
        words[i] = _moved(words[i], g.n, fault, rng)
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
            lengths[(cycle + 1) % len(lengths)] -= lengths[cycle] - g.symmetry[0][1][cycle]
    want = verify_gdc(_with(g, words, None))
    assert verify_gdc(_with(g, words, ((tuple(image), tuple(lengths), 1),))) == want


# The two shipped inflate bases by every m with a TD(4, m) over GF(m): one
# claim when m is prime, several when m = p^e, and failing claims at m = 3,
# whose TD has a slope group.
INFLATIONS = [(rel, m) for rel in ("c22/type-2^10.man", "c31/type-3^7.man")
              for m in (3, 4, 5, 7, 8, 9)]
INFLATE_FAULTS = ["move", "outside", "swap", "duplicate", "cycle", "image", "run", "lengths"]


@functools.cache
def _inflated(rel, m):
    return inflate(_developed(rel), m, build_td(4, m))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(INFLATIONS), st.sampled_from(INFLATE_FAULTS),
       st.randoms(use_true_random=False))
def test_inflate_claims_give_the_report_of_the_full_scan(inflation, fault, rng):
    # Each seeded fault, in the words or in one claim, with the inflation's
    # claims and without them.  A duplicate overwrites a word, so the claims'
    # lengths still sum to N.
    g = _inflated(*inflation)
    words = list(g.code.words)
    claims = [list(claim) for claim in g.symmetry]
    claim = rng.choice(claims)
    i, j = rng.randrange(len(words)), rng.randrange(len(words))
    if fault in ("move", "outside"):
        words[i] = _moved(words[i], g.n, fault, rng)
    elif fault == "swap":
        words[i], words[j] = words[j], words[i]
    elif fault == "duplicate":
        words[j] = words[i]
    elif fault == "cycle":
        # One cycle of the first claim (run 1) copied onto another: that
        # claim still holds, and only the other claims can refuse the copy.
        p = g.symmetry[0][1][0]
        a, b = rng.sample(range(len(words) // p), 2)
        words[a * p:(a + 1) * p] = words[b * p:(b + 1) * p]
    elif fault == "image":
        # Two points trade images (still a permutation), or one takes another's.
        image = list(claim[0])
        a, b = rng.sample(range(g.n), 2)
        if rng.random() < 0.5:
            image[a], image[b] = image[b], image[a]
        else:
            image[a] = image[b]
        claim[0] = tuple(image)
    elif fault == "run":
        claim[2] = rng.choice([claim[2] + 1, claim[2] * 2, max(1, claim[2] // 2)])
        if rng.random() < 0.5:
            p = claim[1][0]
            claim[1] = (p,) * (len(words) // (p * claim[2]))
    else:
        lengths = list(claim[1])
        c = rng.randrange(len(lengths))
        lengths[c] += rng.choice([-1, 1])
        if rng.random() < 0.5 and len(lengths) > 1:
            lengths[(c + 1) % len(lengths)] -= lengths[c] - claim[1][c]
        claim[1] = tuple(lengths)
    want = verify_gdc(_with(g, words, None))
    assert verify_gdc(_with(g, words, tuple(map(tuple, claims)))) == want


def test_each_word_of_a_cycles_first_run_starts_it(scans):
    # The second claim of the m = 9 inflation alone (run 3, cycles of 9
    # words): a third of the words lie in a first run.
    g = _inflated("c22/type-2^10.man", 9)
    assert g.symmetry[1][2] == 3
    assert verify_gdc(_with(g, g.code.words, g.symmetry[1:])).ok
    assert scans == [[False, len(g) // 3]]


def test_a_copy_that_only_the_second_claim_refuses_scans_every_row(scans):
    # m = 9: the first claim's cycles are runs of 3 words.  Words 3-5 and 6-8
    # hold the TD blocks b = 3-5 and 6-8, so no start is among them, and
    # copying one cycle onto the other leaves the first claim exact.
    g = _inflated("c22/type-2^10.man", 9)
    words = list(g.code.words)
    words[3:6] = words[6:9]
    report = verify_gdc(_with(g, words, g.symmetry))
    assert [(v.kind, v.witness) for v in report.violations] == [
        ("duplicate", (3, 6)), ("duplicate", (4, 7)), ("duplicate", (5, 8))]
    assert scans == [[True, len(words)]]


@pytest.mark.parametrize("rel, m, rows", [("c22/type-2^10.man", 9, 540),
                                          ("c31/type-3^7.man", 16, 672),
                                          ("c22/type-2^10.man", 16, 960)])
def test_benchmark_inflations_certify_on_their_zero_translates(scans, rel, m, rows):
    # m = 3^2 and 2^4: two and four translation claims; only the words of the
    # TD blocks with b = 0 start a cycle under each, N/m of them.
    g = inflate(develop_manifest(rel), m, build_td(4, m))
    assert [(lengths[0], run) for _, lengths, run in g.symmetry] == (
        [(3, 1), (3, 3)] if m == 9 else [(2, 1), (2, 2), (2, 4), (2, 8)])
    assert verify_gdc(g).ok
    assert scans == [[False, rows]] and rows * m == len(g)


def test_a_td_in_another_block_order_scans_every_row(scans):
    # One block moved from the front to the back: the TD and the code stay
    # valid, the recorded translations no longer shift the words by their runs.
    td = build_td(4, 5)
    moved = Gdd(td.n, td.partition, td.blocks[1:] + td.blocks[:1], td.block_sizes)
    g = inflate(_developed("c22/type-2^10.man"), 5, moved)
    assert g.symmetry is not None
    assert verify_gdc(g).ok
    assert scans == [[True, len(g)]]


def test_a_word_outside_the_points_scans_every_row(scans):
    # A second cycle whose words lie wholly beyond n: every mask in [0, n)
    # keeps the claim exact, but words 5 and 6 conflict off the points the
    # claim sees, and neither starts a cycle.
    g = develop(parse_manifest(FIXED_POINTS))
    far = [Codeword(sup, 40) for sup in (((30, 31, 32), (33,)), ((15, 16, 17), (18,)),
                                         ((15, 16, 17), (19,)), ((20, 21, 22), (23,)))]
    image, lengths, run = g.symmetry[0]
    claimed = _with(g, [*g.code.words, *far], ((image, lengths + (4,), run),))
    report = verify_gdc(claimed)
    assert report == verify_gdc(_with(g, claimed.code.words, None))
    assert [(v.witness, v.measured) for v in report.violations] == [
        ((4,), "point 30 outside [0, 15)"), ((5,), "point 15 outside [0, 15)"),
        ((6,), "point 15 outside [0, 15)"), ((7,), "point 20 outside [0, 15)"),
        ((5, 6), 2)]
    assert scans[0] == [True, 8]
