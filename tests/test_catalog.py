"""Spectrum classification and recipe execution."""

import hashlib

import pytest

from cccodes import catalog, core
from cccodes.bounds import upper_22, upper_31
from cccodes.catalog import (RecipeError, build_optimal, list_recipes,
                             spectrum)
from cccodes.core import Code, Codeword, Composition, verify_gdc
from cccodes.dataio import data_root

C22 = Composition((2, 2))
C31 = Composition((3, 1))

TABLE_I_22 = {4: 1, 5: 1, 6: 3, 7: 3, 8: 5, 9: 9, 10: 15}
TABLE_I_31 = {4: 1, 5: 1, 6: 2, 7: 2, 8: 4, 9: 6, 10: 10}


def test_table_i_agreement():
    for n, v in TABLE_I_22.items():
        assert spectrum(n, C22).exact == v
    for n, v in TABLE_I_31.items():
        assert spectrum(n, C31).exact == v


def test_spectrum_examples():
    assert spectrum(11, C22).exact == 15
    e = spectrum(14, C22)
    assert (e.kind, e.lo, e.hi) == ("range", 27, 28)
    assert spectrum(7, C31).exact == 2
    assert spectrum(17, C22).lo == upper_22(17).value - 2
    e13 = spectrum(13, C22)
    assert e13.kind == "open" and e13.lo == 21 and e13.hi == 26
    e19 = spectrum(19, C31)
    assert e19.kind == "open" and e19.hi == 38


def test_spectrum_total_and_bounded():
    for n in range(4, 2001):
        for comp, upper in ((C22, upper_22), (C31, upper_31)):
            e = spectrum(n, comp)
            assert e.lo <= e.hi
            assert e.hi == upper(n).value or e.source == "literal-exception"
            if e.kind == "exact":
                assert e.lo == e.hi


def test_oracle_agreement_small_lengths():
    # the catalog's exact values match the independent search oracle
    from cccodes.search import max_code
    for comp in (C22, C31):
        for n in range(4, 10):
            assert spectrum(n, comp).exact == max_code(n, 6, comp).size


def test_spectrum_rejects_small_n():
    with pytest.raises(ValueError):
        spectrum(3, C22)


def test_build_examples():
    assert len(build_optimal(25, C22)) == 100
    assert len(build_optimal(12, C22)) == 18
    assert len(build_optimal(15, C31)) == 20


def test_build_open_length_witnesses():
    # open lengths with shipped witnesses build to the recorded lower bound
    assert len(build_optimal(13, C22)) == 21
    assert len(build_optimal(14, C22)) == 27
    assert len(build_optimal(17, C22)) == 40


def test_list_recipes_contains_expected():
    recipes = {(r.n, r.composition): r for r in list_recipes()}
    assert (13, "2,2") in recipes
    assert (28, "3,1") in recipes
    assert recipes[(28, "3,1")].recipe_id.endswith("code-n28.man")
    assert (17, "2,2") in recipes
    assert recipes[(17, "2,2")].recipe_id.endswith("code-n17.man")


def test_no_recipe_raises():
    with pytest.raises(RecipeError):
        build_optimal(16, C22)  # open length with no shipped construction


def test_every_recipe_builds_and_verifies():
    for r in list_recipes():
        comp = C22 if r.composition == "2,2" else C31
        code = build_optimal(r.n, comp)
        assert verify_gdc(code).ok, (r.n, r.composition)
        e = spectrum(r.n, comp)
        if e.kind == "exact":
            assert len(code) == e.exact, (r.n, r.composition)
        else:
            # A code of size hi would prove the length exact.
            assert e.lo <= len(code) < e.hi, (r.n, r.composition)


def test_a_recipe_code_zero_extends_to_the_next_length():
    # The monotonicity behind the open lengths' lower bounds: the words of a
    # code of length n, unchanged, form a code of length n + 1.
    recipes = [r for r in list_recipes() if r.n <= 40]
    for r in recipes:
        comp = Composition.parse(r.composition)
        code = build_optimal(r.n, comp)
        assert verify_gdc(Code(r.n + 1, comp, 6, code.words)).ok, r
    assert len(recipes) == 64


def test_every_recipe_word_is_a_valid_word():
    # Relabelled words are built unchecked: each must equal its validated copy.
    for r in list_recipes():
        code = build_optimal(r.n, Composition.parse(r.composition))
        assert all(w == Codeword(w.supports, code.n) for w in code.words), r


# SHA-256 over the emitted text of every recipe, in list_recipes() order.
RECIPE_BYTES = "859cb2ca0ecbc6865cd28417a681b60de7eabf63471b77817e03eb6f683d25cd"


def test_recipe_bytes_are_pinned():
    digest = hashlib.sha256()
    for r in list_recipes():
        code = build_optimal(r.n, Composition.parse(r.composition))
        digest.update(core.write_code_text(code).encode())
    assert len(list_recipes()) == 106
    assert digest.hexdigest() == RECIPE_BYTES


def test_recipe_and_code_files_are_the_ones_the_registry_names():
    named = {tuple(r.recipe_id.split(":", 1)) for r in list_recipes()}
    for kind, sub in (("pipeline", "recipes"), ("witness", "codes")):
        shipped = {p.relative_to(data_root() / sub).as_posix()
                   for p in (data_root() / sub).rglob("*") if p.is_file()}
        assert shipped == {arg for k, arg in named if k == kind}


def test_fill_reads_its_fillers_from_the_manifest_type():
    assert catalog._recipe_text(23, C22) == (
        "let g = manifest c22/type-2^9+5^1.man\n"
        "let c5 = code 5 2,2\n"
        "result fill g 2:empty,5:c5\n")
    assert sum(r.recipe_id.startswith("fill:") for r in list_recipes()) == 13


def test_fill_of_a_manifest_without_a_type_is_refused(cold_build, monkeypatch, tmp_path):
    text = (data_root() / "manifests" / "c22" / "code-n12.man").read_text()
    untyped = tmp_path / "untyped.man"
    untyped.write_text(text.replace("expected_type = 1^12\n", ""))
    monkeypatch.setitem(catalog._R22, 12, ("fill", str(untyped)))
    with pytest.raises(RecipeError, match=r"^fill recipe .*untyped.man declares no group type$"):
        build_optimal(12, C22)


@pytest.fixture
def cold_build():
    catalog.build_optimal.cache_clear()
    yield
    catalog.build_optimal.cache_clear()


def test_build_scans_each_artefact_once(cold_build, monkeypatch):
    # Every scan starts with one build of the kernel's masks.
    scanned = []
    real = core._cells

    def counting(words):
        scanned.append(words)
        return real(words)

    monkeypatch.setattr(core, "_cells", counting)
    code = build_optimal(23, C22)
    # the fill recipe at n = 23: the 1-word sub-code `code 5 2,2`, then the 79-word result
    assert sorted(len(words) for words in scanned) == [1, 79]
    assert any(words is code.words for words in scanned)
    build_optimal(23, C22)
    assert len(scanned) == 2


def test_corrupt_recipe_file_is_rejected(cold_build, monkeypatch, tmp_path):
    text = (data_root() / "codes" / "n9-22.code").read_text()
    bad = tmp_path / "n9-22.code"
    bad.write_text(text.replace("7,8 ; 2,4", "0,1 ; 2,3"))
    monkeypatch.setitem(catalog._R22, 9, ("witness", str(bad)))
    with pytest.raises(ValueError, match=r"^pipeline result fails verification: "
                                         r"1 violation\(s\): duplicate at \(0, 8\): 0$"):
        build_optimal(9, C22)


@pytest.mark.parametrize("n, message", [
    (9, r"^recipe size 1 != exact spectrum value 9$"),
    (13, r"^recipe size 1 outside spectrum bounds \[21, 26\]$"),
])
def test_recipe_of_the_wrong_size_is_refused(cold_build, monkeypatch, tmp_path, n, message):
    # A one-word code verifies, but its size is neither the exact value at
    # n = 9 nor inside the open range at n = 13.
    one = tmp_path / f"n{n}-one.code"
    one.write_text(f"n={n}\ncomposition=2,2\ndistance=6\n0,1 ; 2,3\n")
    monkeypatch.setitem(catalog._R22, n, ("witness", str(one)))
    with pytest.raises(RecipeError, match=message):
        build_optimal(n, C22)
