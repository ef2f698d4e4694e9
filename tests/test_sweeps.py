"""Pinned reports of the verify suites: check counts, failure labels, and
a closed form that fails inside the gluing sweep."""

import pytest

import kunzcone.sweeps as sweeps
from kunzcone import CheckFailed, run_suite


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
