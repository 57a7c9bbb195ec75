"""End-to-end acceptance checks.

One test (or a small group) per headline criterion, in order.  Each test
runs the ``posat.verify`` checks named by its labels, the same checks that
``posat verify`` runs; their docstrings state what each one asserts.  Where
a naive oracle of ``conftest`` reaches, it adds its own assertions after the
registry call.
"""

from __future__ import annotations

import pytest

from posat import catalog, verify, xell_upper_family
from posat.family import mask_of

from conftest import brute_has_induced_copy


def passes(*labels):
    for label in labels:
        ok, detail = verify.check(label)
        assert ok, f"{label}: {detail}"


def test_01_exact_minimum_yinv_and_x():
    passes("exact-yinv-n3", "exact-yinv-n4", "exact-x-n3")


def test_02_exact_minimum_fork():
    passes("exact-fork-n3", "exact-fork-n4")


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_03_upper_constructions_are_saturated(n):
    passes(f"y-upper-n{n}", f"x-upper-n{n}")


@pytest.mark.parametrize("n,ell", [(5, 2), (6, 2), (7, 3)])
def test_03_wedge_family_is_saturated(n, ell):
    passes(f"wedge-upper-n{n}-l{ell}")


@pytest.mark.parametrize("n,ell", [(5, 2), (6, 2), (7, 3)])
def test_03_xell_family_is_saturated(n, ell):
    passes(f"xell-upper-n{n}-l{ell}")
    if (n, ell) == (5, 2):
        F = xell_upper_family(n, ell)
        P = catalog("Xell", ell)
        assert not brute_has_induced_copy(F.members + (mask_of((1, 3)),), P)
        assert brute_has_induced_copy(F.members + (mask_of((1, 2, 3)),), P)


@pytest.mark.parametrize("n", [9, 16, 25])
def test_04_unique_pair_family(n):
    passes(f"unique-pairs-n{n}")


def test_04_unique_pair_family_n4():
    passes("unique-pairs-n4")


def test_05_pair_hypothesis_random_suite():
    passes("pair-hypothesis-suite")


def test_06_bruteforce_respects_the_edge_bound():
    passes(*(f"brute-max-n{n}" for n in range(1, 9)))


def test_06_bipartite_construction_attains_the_floor():
    passes("turan-1..20")


def test_07_contraction_invariants_random_suite():
    passes("contraction-suite")


def test_08_blow_up_keeps_witnesses_saturated():
    passes("blow-up-suite")


def test_09_legs_verdicts():
    passes("legs-verdicts")


def test_09_legs_injection_on_minimizers():
    passes("legs-injection")


@pytest.mark.parametrize("n", [3, 4])
def test_10_consistency_web(n):
    passes(f"consistency-web-n{n}")
