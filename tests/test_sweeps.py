"""Pinned reports of the verify suites: check counts, failure labels, and
a closed form that fails inside the gluing sweep."""

import json

import pytest

import kunzcone.sweeps as sweeps
from kunzcone import CheckFailed, NumericalSemigroup, run_suite
from kunzcone.cli import main


@pytest.mark.parametrize(
    "suite, seed, sizes, checks",
    [
        ("roundtrip", 0, {}, 600),
        ("roundtrip", 7, {}, 600),
        ("roundtrip", 3, {"max_m": 30}, 600),
        ("ega", 0, {}, 3310),
        ("ega", 7, {}, 3310),
        ("gluing", 0, {}, 2934),
        ("gluing", 7, {}, 2211),
        ("gluing", 3, {"max_m": 6, "max_beta": 3}, 612),
        ("embedding", 0, {}, 100),
        ("embedding", 7, {}, 100),
    ],
)
def test_check_counts(suite, seed, sizes, checks):
    assert run_suite(suite, seed, **sizes) == {
        "suite": suite,
        "seed": seed,
        "checks": checks,
        "failures": 0,
        "failed_checks": [],
    }


def test_unknown_suite():
    with pytest.raises(ValueError) as exc:
        run_suite("nope", 0)
    assert str(exc.value) == "unknown suite 'nope'; choose from roundtrip, ega, gluing, embedding"


def _undo_lost_at_7(real):
    # each round trip calls it twice; the second call, which should undo
    # the first, loses the face at multiplicity 7
    calls = []

    def undo_lost(obj, u):
        calls.append(obj)
        return None if obj.modulus == 7 and len(calls) % 2 == 0 else real(obj, u)

    return undo_lost


@pytest.mark.parametrize(
    "name, wrong, labels",
    [
        (
            "from_kunz_tuple",
            lambda real: lambda m, kunz: None if m == 7 else real(m, kunz),
            ["kunz round trip <7, 12, 13, 18>", "kunz round trip <7, 13>",
             "kunz round trip <7, 10, 16>"],
        ),
        (
            "kunz_poset_of",
            lambda real: lambda S, m: None if m == 7 else real(S, m),
            ["face data of <7, 12, 13, 18>", "face data of <7, 13>", "face data of <7, 10, 16>"],
        ),
        (
            "apply_automorphism",
            _undo_lost_at_7,
            ["automorphism round trip <7, 12, 13, 18> u=5", "automorphism round trip <7, 13> u=6",
             "automorphism round trip <7, 10, 16> u=3"],
        ),
    ],
)
def test_roundtrip_labels(monkeypatch, name, wrong, labels):
    # one of the three checks fails on each of the 16 samples of multiplicity 7
    monkeypatch.setattr(sweeps, name, wrong(getattr(sweeps, name)))
    report = run_suite("roundtrip", 0)
    assert (report["checks"], report["failures"]) == (600, 16)
    assert len(report["failed_checks"]) == 16
    assert report["failed_checks"][:3] == labels


def test_labels_are_formatted_only_on_a_miss(monkeypatch):
    # every label of these two suites formats a semigroup; gluing cannot take
    # part, as GluingSpec's rejection texts format their base
    def unprintable(self):
        raise AssertionError("a label was formatted")

    monkeypatch.setattr(NumericalSemigroup, "__str__", unprintable)
    for name, sizes, checks in (("roundtrip", {"max_m": 6}, 600), ("embedding", {}, 100)):
        assert run_suite(name, 0, **sizes) == {
            "suite": name, "seed": 0, "checks": checks, "failures": 0, "failed_checks": [],
        }


def test_frobenius_labels(monkeypatch):
    real = sweeps.ega_frobenius
    monkeypatch.setattr(sweeps, "ega_frobenius", lambda p: real(p) + (p.a == 5))
    report = run_suite("ega", 0)
    assert (report["checks"], report["failures"]) == (3310, 40)
    assert len(report["failed_checks"]) == 20
    assert report["failed_checks"][:3] == [
        "frobenius (a=5,h=1,k=1,d=1)",
        "frobenius (a=5,h=1,k=1,d=2)",
        "frobenius (a=5,h=1,k=1,d=3)",
    ]


def test_embedding_labels(monkeypatch):
    real = sweeps.verify_face_image
    monkeypatch.setattr(
        sweeps, "verify_face_image", lambda *args: {**real(*args), "plain_poset": False}
    )
    report = run_suite("embedding", 0)
    assert (report["checks"], report["failures"]) == (100, 25)
    assert len(report["failed_checks"]) == 20
    assert all(label.startswith("plain_poset n=") for label in report["failed_checks"])
    assert report["failed_checks"][:2] == [
        "plain_poset n=12 h=3 rho=7 <4, 11>",
        "plain_poset n=16 h=4 rho=1 <4, 9, 11>",
    ]


def test_glue_failure_is_one_failed_check(monkeypatch):
    # a CheckFailed from glue counts as that spec's closed-form check; the
    # sweep goes on and checks every other spec in full
    real = sweeps.glue
    seen = []

    def first_fails(spec):
        seen.append(spec)
        if len(seen) == 1:
            raise CheckFailed("glued generating set is not minimal")
        return real(spec)

    monkeypatch.setattr(sweeps, "glue", first_fails)
    report = run_suite("gluing", 3, max_m=6, max_beta=3)
    spec = seen[0]
    assert report["checks"] == 612 - 2
    assert report["failures"] == 1
    assert report["failed_checks"] == [
        f"gluing closed form ({spec.base}, a={spec.alpha}, b={spec.beta})"
    ]


def test_round_trip_glue_failure_is_one_failed_check(monkeypatch):
    # the second glue call is the first spec's factor round trip: its
    # CheckFailed fails that one check and the count stays as in a clean run
    real = sweeps.glue
    seen = []

    def second_fails(spec):
        seen.append(spec)
        if len(seen) == 2:
            raise CheckFailed("glued generating set is not minimal")
        return real(spec)

    monkeypatch.setattr(sweeps, "glue", second_fails)
    report = run_suite("gluing", 3, max_m=6, max_beta=3)
    spec = seen[0]
    assert report["checks"] == 612
    assert report["failures"] == 1
    assert report["failed_checks"] == [
        f"factor round trip ({spec.base}, a={spec.alpha}, b={spec.beta})"
    ]


def test_ega_rays_failure_is_a_failed_check(monkeypatch, capsys):
    # a CheckFailed from ega_rays is that tuple's "rays" check, and verify exits 1
    def fails(p):
        raise CheckFailed("rays do not sharpen the face")

    monkeypatch.setattr(sweeps, "ega_rays", fails)
    assert main(["verify", "--suite", "ega"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert (report["checks"], report["failures"]) == (3310, 198)
    assert report["failed_checks"][0] == "rays (a=5,h=1,k=2,d=1)"
    assert all(label.startswith("rays (a=") for label in report["failed_checks"])
