"""Diminishing-returns checks for the selection objective terms.

The two coverage terms and the class-balance term must be monotone with
diminishing returns -- the greedy guarantee leans on that.  The two
cardinality-penalty terms reassign every patch to its nearest exemplar
whenever the selection grows, and that global reshuffle breaks the
property; they get a documenting audit instead of an assertion.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import saco.selection as sel
from saco.data import PatchSet
from conftest import make_graphs, make_patches

ASSERTED = ("balance", "representative", "spatial")


def _instance(seed, m=18):
    patches = make_patches(seed, m=m)
    S, L = make_graphs(patches, k_nn=min(m - 1, 7))
    return patches, S, L


def _term_value(term, ids, patches, S, L):
    return sel.objective_terms(ids, S, L, PatchSet.of(patches).labels)[term]


def _random_chain(rng, m):
    """A proper chain A < B plus an element e outside B."""
    perm = rng.permutation(m)
    b = int(rng.integers(2, m - 1))
    a = int(rng.integers(1, b))
    return list(perm[:a]), list(perm[:b]), int(perm[b])


@pytest.mark.parametrize("term", ASSERTED)
@given(seed=st.integers(0, 2**16 - 1))
@settings(max_examples=30, deadline=None)
def test_monotone_diminishing_returns(term, seed):
    rng = np.random.default_rng([seed, 41])
    patches, S, L = _instance(seed % 97)
    A, B, e = _random_chain(rng, len(patches))
    gain_a = _term_value(term, A + [e], patches, S, L) - _term_value(
        term, A, patches, S, L
    )
    gain_b = _term_value(term, B + [e], patches, S, L) - _term_value(
        term, B, patches, S, L
    )
    assert gain_a >= gain_b - 1e-9
    assert gain_a >= -1e-12


@pytest.mark.parametrize("term", ASSERTED)
def test_empty_set_baseline(term):
    patches, S, L = _instance(3)
    assert _term_value(term, [], patches, S, L) == 0.0


def test_penalty_terms_violate_diminishing_returns():
    # Document the measured violation rate for the two penalty terms so a
    # change in their cluster model shows up here.  Reassignment example:
    # adding an exemplar can steal most of an existing cluster, and the
    # entropy / purity of the survivors moves the wrong way.
    patches, S, L = _instance(5, m=24)
    rng = np.random.default_rng(1234)
    trials = 400
    violations = {"discriminative": 0, "compact": 0}
    for _ in range(trials):
        A, B, e = _random_chain(rng, len(patches))
        for term in violations:
            gain_a = _term_value(term, A + [e], patches, S, L) - _term_value(
                term, A, patches, S, L
            )
            gain_b = _term_value(term, B + [e], patches, S, L) - _term_value(
                term, B, patches, S, L
            )
            if gain_a < gain_b - 1e-9:
                violations[term] += 1
    for term, count in violations.items():
        print(f"{term}: {count}/{trials} diminishing-returns violations")
        assert 0 < count < trials
