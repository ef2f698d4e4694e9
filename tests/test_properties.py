"""Property tests across layer boundaries, driven by hypothesis.

Examples are derandomized and bounded, so every run checks the same
cases in a fixed time.
"""

import json
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from kunzcone import (
    APERY,
    KUNZ,
    ConeFace,
    CoordTuple,
    DomainError,
    EmbeddingSpec,
    GluingSpec,
    NumericalSemigroup,
    apply_automorphism,
    extend_poset,
    face_of,
    factor_monoscopic,
    from_kunz_tuple,
    glue,
    glued_poset,
    kunz_poset_of,
)
from kunzcone.cli import _dump, _json


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


@st.composite
def semigroups(draw, m_lo=2, m_hi=12):
    """A semigroup of multiplicity m_lo..m_hi with 1-4 more generators below 3m."""
    m = draw(st.integers(m_lo, m_hi))
    rest = draw(st.lists(st.integers(m + 1, 3 * m - 1), min_size=1, max_size=4))
    assume(gcd(m, *rest) == 1)
    return NumericalSemigroup([m, *rest])


@st.composite
def located_faces(draw):
    """A face from face_of over Z_n, n = 3..12: of a semigroup's Apery or
    Kunz tuple, or of a point vanishing exactly on d*Z_n (pinned classes)."""
    n = draw(st.integers(3, 12))
    divisors = [d for d in range(2, n) if n % d == 0]
    if divisors and draw(st.booleans()):
        d = draw(st.sampled_from(divisors))
        a, b = (draw(semigroups(d, d)).coordinates(d, APERY).entries for _ in range(2))
        return face_of(CoordTuple(n, APERY, tuple(a[i % d] + b[i % d] for i in range(n))))
    S = draw(semigroups(n, n))
    return face_of(S.coordinates(n, draw(st.sampled_from([APERY, KUNZ]))))


def _shape(face):
    P = face.kunz_poset
    return face.dimension, len(face.kunz_subgroup), len(P.relations()), len(P.covers())


@settings(derandomize=True, deadline=None, max_examples=150)
@given(located_faces(), st.data())
def test_face_shape_is_invariant_under_units(face, data):
    n = face.modulus
    u = data.draw(st.sampled_from([u for u in range(1, n) if gcd(u, n) == 1]))
    # the located face is trusted; its rebuild from the tight set is vetted
    for F in (face, ConeFace(n, face.tight)):
        assert _shape(apply_automorphism(F, u)) == _shape(F)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(semigroups(), st.data())
def test_kunz_round_trip(S, data):
    m = S.multiplicity
    m = data.draw(st.sampled_from([g for g in range(m, 3 * m) if S.contains(g)]))
    assert from_kunz_tuple(m, S.coordinates(m, KUNZ)) == S


_INTS = st.integers(-10**20, 10**20)
# quotes, backslashes, control characters and non-ASCII text, beside any text
_TEXT = st.one_of(
    st.text(max_size=6),
    st.lists(st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", "é", "☃", "\U0001f600", "a"]),
             max_size=6).map("".join),
)
_LEAVES = st.one_of(_INTS, st.booleans(), st.none(), st.floats(), _TEXT)
_LISTS = st.one_of(
    st.lists(st.one_of(_INTS, st.booleans()), max_size=6),  # bools mixed into int lists
    # int rows of one length (0 too: each prints []), as lists or tuples, and ragged rows
    st.integers(0, 3).flatmap(lambda w: st.one_of(
        st.lists(st.lists(_INTS, min_size=w, max_size=w), max_size=5),
        st.lists(st.tuples(*[_INTS] * w), max_size=5),
    )),
    st.lists(st.one_of(st.lists(_INTS, max_size=3), st.tuples(_INTS, _INTS)), max_size=5),
)
_DOCUMENTS = st.recursive(
    st.one_of(_LEAVES, _LISTS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(_DOCUMENTS)
def test_cli_writer_is_json_dumps(doc):
    expected = json.dumps(doc, sort_keys=True, indent=2)
    assert _json(doc, "\n") == expected
    assert _dump(doc, 1) == (expected + "\n", 1)


@pytest.mark.parametrize("key", [1, 2.5, None, True, (1, 2)])
def test_cli_writer_refuses_keys_that_are_not_str(key):
    # json.dumps would print these keys converted; the writer never prints them
    with pytest.raises(TypeError):
        _json({key: 0}, "\n")
    with pytest.raises(TypeError):
        _json([{"a": [{key: 0}]}], "\n")
