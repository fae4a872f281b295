"""Super denominators: the product and sum expansions must coincide."""

import pytest
from oracles import matrix_sl_terms, matrix_spo_terms, method_cone_product

from affinechar import superden
from affinechar.rootdata import root_system
from affinechar.superden import sl_product, sl_sum, spo_product, spo_sum

# the sl frame of n colours lives on A_{n-1}, the spo frame of n' on C_{n'}
SL3, SL4 = root_system("A", 2), root_system("A", 3)
SPO2, SPO3 = root_system("C", 2), root_system("C", 3)


def test_sl_frame_lowest_terms_by_hand():
    # at height 1 only five factors reach: two finite one-minus factors and
    # two geometric odd factors besides the constant
    s = sl_product(SL3, 1)
    assert s.terms == {
        (0, 0, 0, 0): 1,
        (1, 0, 0, 0): 1,
        (0, 1, 0, 0): -1,
        (0, 0, 1, 0): -1,
        (0, 0, 0, 1): 1,
    }


def test_spo_frame_nine_terms_by_hand():
    # (1-x2)(1-x3)(1-x2x3)(1-x0x1) / ((1-x0)(1-x1)(1-x0x2)(1-x1x2))
    # expanded through cone height 2
    s = spo_product(SPO2, 2)
    assert s.terms == {
        (0, 0, 0, 0): 1,
        (1, 0, 0, 0): 1,
        (0, 1, 0, 0): 1,
        (0, 0, 1, 0): -1,
        (0, 0, 0, 1): -1,
        (2, 0, 0, 0): 1,
        (0, 2, 0, 0): 1,
        (1, 0, 0, 1): -1,
        (0, 1, 0, 1): -1,
    }


@pytest.mark.parametrize("n,height", [(3, 12), (4, 10)])
def test_sl_product_equals_sum(n, height):
    rs = root_system("A", n - 1)
    p = sl_product(rs, height)
    s = sl_sum(rs, height)
    assert sorted(p.terms.items()) == sorted(s.terms.items())
    assert sorted(p.terms.items())[0] == ((0,) * (n + 1), 1)


@pytest.mark.parametrize("npr,height", [(2, 10), (3, 9)])
def test_spo_product_equals_sum(npr, height):
    rs = root_system("C", npr)
    p = spo_product(rs, height)
    s = spo_sum(rs, height)
    assert sorted(p.terms.items()) == sorted(s.terms.items())
    assert sorted(p.terms.items())[0] == ((0,) * (npr + 2), 1)


@pytest.mark.parametrize("build,size,height", [
    (sl_product, 3, 12), (spo_product, 2, 8),  # the verify all sizes
    (sl_product, 5, 7), (spo_product, 3, 9),
])
def test_cone_product_equals_the_method_path(monkeypatch, build, size,
                                             height):
    rs = (root_system("A", size - 1) if build is sl_product
          else root_system("C", size))
    got = build(rs, height)
    monkeypatch.setattr(superden, "cone_product", method_cone_product)
    want = build(rs, height)
    assert sorted(got.terms.items()) == sorted(want.terms.items())
    assert got.n_terms() == want.n_terms()


def test_frame_shapes():
    # one exponent per cone direction on every term
    assert {len(k) for k in sl_product(SL3, 2).terms} == {4}
    assert {len(k) for k in sl_sum(SL4, 2).terms} == {5}
    assert {len(k) for k in spo_product(SPO2, 2).terms} == {4}
    assert {len(k) for k in spo_sum(SPO3, 2).terms} == {5}


# -- the dominant-chamber walk against the whole-orbit matrix path ------------


@pytest.mark.parametrize("n,top", [(3, 12), (4, 12), (5, 12), (6, 8), (7, 4)])
def test_sl_sum_matches_the_matrix_path(n, top):
    # a sum truncated at height h is the top-height sum cut at h
    slow = matrix_sl_terms(n, top)
    rs = root_system("A", n - 1)
    for h in range(top + 1):
        assert sl_sum(rs, h).terms == {
            k: c for k, c in slow.items() if sum(k) <= h}


@pytest.mark.parametrize("npr", [2, 3, 4])
def test_spo_sum_matches_the_matrix_path(npr):
    slow = matrix_spo_terms(npr, 10)
    rs = root_system("C", npr)
    for h in range(11):
        assert spo_sum(rs, h).terms == {
            k: c for k, c in slow.items() if sum(k) <= h}

