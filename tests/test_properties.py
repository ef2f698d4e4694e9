"""Property tests across the gluing layer boundaries, driven by hypothesis.

Examples are derandomized and bounded, so every run checks the same
cases in a fixed time.
"""

from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from kunzcone import (
    DomainError,
    EmbeddingSpec,
    GluingSpec,
    NumericalSemigroup,
    extend_poset,
    factor_monoscopic,
    glue,
    glued_poset,
    kunz_poset_of,
)


@st.composite
def gluing_specs(draw):
    """A valid GluingSpec over a base of multiplicity 2..8, beta 2..5."""
    m = draw(st.integers(2, 8))
    rest = draw(st.lists(st.integers(m + 1, 3 * m - 1), min_size=1, max_size=4))
    gens = [m, *rest]
    assume(gcd(*gens) == 1)
    S = NumericalSemigroup(gens)
    beta = draw(st.integers(2, 5))
    alpha = draw(st.integers(1, S.frobenius() + 3 * S.multiplicity))
    try:
        return GluingSpec(S, alpha, beta)
    except DomainError:
        assume(False)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(gluing_specs())
def test_extension_of_base_poset_is_glued_poset(spec):
    S, alpha, beta = spec.base, spec.alpha, spec.beta
    m = S.multiplicity
    n = beta * m
    augmented = alpha in S.apery_set(m)
    emb = EmbeddingSpec(n, beta, alpha % n)
    assert extend_poset(kunz_poset_of(S, m), emb, augmented=augmented) == glued_poset(spec)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(gluing_specs())
def test_factor_then_glue_round_trip(spec):
    T = glue(spec)
    triple = factor_monoscopic(T)
    assert triple is not None
    assert glue(GluingSpec(*triple)) == T
