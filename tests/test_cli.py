import io
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from math import gcd
from pathlib import Path
from unittest import mock

import pytest

import kunzcone.sweeps as sweeps
from kunzcone import (
    APERY,
    DomainError,
    GluingSpec,
    NumericalSemigroup,
    cli,
    face_of,
    glue,
    run_suite,
    semigroup,
)
from kunzcone.cli import MAX_EMBED_N, MAX_FACE_N, MAX_MODULUS, main
from kunzcone.sweeps import MAX_BETA, MAX_M


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_python(*args):
    """Run a fresh interpreter with ``args`` against this checkout's sources."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestInfo:
    def test_golden(self, capsys):
        data = run_json(capsys, "info", "--gens", "4,13,18")
        assert data == {
            "generators": [4, 13, 18],
            "multiplicity": 4,
            "embedding_dimension": 3,
            "frobenius": 27,
        }

    def test_minimalizes(self, capsys):
        data = run_json(capsys, "info", "--gens", "4,13,18,31")
        assert data["generators"] == [4, 13, 18]


class TestApery:
    def test_golden(self, capsys):
        data = run_json(capsys, "apery", "--gens", "4,13,18")
        assert data["modulus"] == 4
        assert data["apery"] == [0, 13, 18, 31]
        assert data["kunz"] == [0, 3, 4, 7]

    def test_explicit_modulus(self, capsys):
        data = run_json(capsys, "apery", "--gens", "4,13,18", "--m", "13")
        assert data["modulus"] == 13
        assert len(data["apery"]) == 13


class TestPoset:
    def test_json(self, capsys):
        data = run_json(capsys, "poset", "--gens", "4,13,18")
        assert data["relations"] == [[0, 1], [0, 2], [0, 3], [1, 3], [2, 3]]
        assert data["labels"]["3"] == 31

    def test_dot(self, capsys):
        code, out, _ = run_cli(capsys, "poset", "--gens", "4,13,18", "--dot")
        assert code == 0
        assert out.startswith("digraph kunz_poset {")
        assert out.count("->") == 4

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "poset.dot"
        code, out, _ = run_cli(
            capsys, "poset", "--gens", "4,13,18", "--dot", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("digraph kunz_poset {")

    def test_unwritable_out_is_two(self, capsys, tmp_path):
        target = tmp_path / "missing" / "poset.dot"
        code, out, err = run_cli(capsys, "poset", "--gens", "4,13,18", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err == f"usage error: cannot write {target}: No such file or directory\n"
        assert not target.parent.exists()


class TestFace:
    def test_golden(self, capsys):
        data = run_json(capsys, "face", "--gens", "4,13,18")
        assert data["tight"] == [[1, 2]]
        assert data["dimension"] == 2
        assert data["subgroup"] == [0]
        assert data["poset"]["relations"] == [[0, 1], [0, 2], [0, 3], [1, 3], [2, 3]]


class TestEga:
    def test_params_golden(self, capsys):
        data = run_json(capsys, "ega", "--params", "13,1,4,1")
        assert data["generators"] == [13, 14, 15, 16, 17]
        assert data["frobenius"] == 38
        assert data["face_dimension"] == 2
        assert data["rays"]["r"] == list(range(13))
        assert data["rays"]["t"] == [0, 10, 7, 4, 1, 11, 8, 5, 2, 12, 9, 6, 3]

    def test_no_rays_outside_regime(self, capsys):
        data = run_json(capsys, "ega", "--params", "7,2,1,3")
        assert data["face_dimension"] == 1
        assert "rays" not in data

    def test_detect(self, capsys):
        data = run_json(capsys, "ega", "--detect", "--gens", "11,12,14,16,18,20")
        assert data["detected"] == {"a": 11, "h": 2, "k": 5, "d": -2}

    def test_detect_none(self, capsys):
        data = run_json(capsys, "ega", "--detect", "--gens", "5,6,9")
        assert data["detected"] is None


class TestGlue:
    def test_golden(self, capsys):
        data = run_json(capsys, "glue", "--gens", "4,13,18", "--alpha", "31", "--beta", "3")
        assert data["glued"] == [12, 31, 39, 54]
        assert data["augmented"] is True
        assert data["face_dims"] == [2, 2]
        assert data["base_poset"]["relations"] == [[0, 1], [0, 2], [0, 3], [1, 3], [2, 3]]
        assert len(data["glued_poset"]["relations"]) > 0

    def test_plain(self, capsys):
        data = run_json(capsys, "glue", "--gens", "4,13,18", "--alpha", "43", "--beta", "3")
        assert data["glued"] == [12, 39, 43, 54]
        assert data["augmented"] is False

    def test_glued_face_runs_no_apery_closure(self, capsys, monkeypatch):
        # alpha = 17 < beta * m = 20, so T's multiplicity is 17 and Ap(T; 20) is
        # not its membership table: the glued face reads glued_poset's labels
        calls = []
        real = semigroup.apery_by_class
        monkeypatch.setattr(semigroup, "apery_by_class", lambda *a: calls.append(a) or real(*a))
        data = run_json(capsys, "glue", "--gens", "4,13,18", "--alpha", "17", "--beta", "5")
        assert calls == []
        T = NumericalSemigroup([17, 20, 65, 90])
        assert data["glued"] == list(T.generators)
        assert data["face_dims"][1] == face_of(T.coordinates(20, APERY)).dimension

    def test_augmented_and_glued_face_match_the_semigroup_reads(self, capsys):
        """On 40 seeded specs, ``augmented`` is ``alpha in Ap(S; m)`` and the
        glued face is that of T's own Apery tuple mod beta*m."""
        rng, seen, count = random.Random(29), set(), 0
        while count < 40:
            m = rng.choice([2, 2, 3, 4, 5, 6, 7])
            gens = [m, *rng.sample(range(m + 1, 4 * m), rng.randint(1, 3))]
            if gcd(*gens) != 1:
                continue
            S = NumericalSemigroup(gens)
            beta = rng.randint(2, 9)
            alpha = rng.choice([rng.randint(2, 12 * m), rng.choice(S.apery_set(S.multiplicity))])
            try:
                spec = GluingSpec(S, alpha, beta)
            except DomainError:
                continue
            n = beta * S.multiplicity
            argv = ["--gens", ",".join(map(str, gens)), "--alpha", str(alpha), "--beta", str(beta)]
            data = run_json(capsys, "glue", *argv)
            augmented = alpha in S.apery_set(S.multiplicity)
            assert data["augmented"] is augmented, argv
            assert data["face_dims"] == [
                face_of(S.coordinates(S.multiplicity, APERY)).dimension,
                face_of(glue(spec).coordinates(n, APERY)).dimension,
            ], argv
            seen.add((S.multiplicity == 2, augmented, alpha < n))
            count += 1
        assert {(a, b) for _, a, b in seen} == {(a, b) for a in (0, 1) for b in (0, 1)}
        assert any(two for two, _, _ in seen)


class TestEmbed:
    def test_golden(self, capsys):
        data = run_json(capsys, "embed", "--n", "12", "--hgen", "3", "--rho", "7")
        assert data["beta"] == 3
        assert data["subgroup"] == [0, 3, 6, 9]
        assert data["decomposition"]["7"] == [0, 1]
        assert data["beta_ray"] == [g % 3 for g in range(12)]

    @pytest.mark.parametrize("n", ["0", "3"])
    def test_small_modulus_is_one(self, capsys, n):
        # n = 0 must not reach h_gen % n
        code, out, err = run_cli(capsys, "embed", "--n", n, "--hgen", "0", "--rho", "1")
        assert code == 1
        assert out == ""
        assert err == (
            f"InvalidParams: need a proper nontrivial subgroup: n={n}, h_gen=0 "
            f"gives index {n}\n"
        )


    def test_huge_modulus_is_two(self, capsys, monkeypatch):
        # refused before the n-entry tables are built
        def never(*args, **kwargs):
            raise AssertionError("EmbeddingSpec reached")

        monkeypatch.setattr(cli, "EmbeddingSpec", never)
        code, out, err = run_cli(capsys, "embed", "--n", str(10**12), "--hgen", "3", "--rho", "7")
        assert code == 2
        assert out == ""
        assert err == f"usage error: embed needs --n <= {MAX_EMBED_N}\n"

    def test_largest_modulus_runs(self, capsys):
        data = run_json(capsys, "embed", "--n", str(MAX_EMBED_N), "--hgen", "2", "--rho", "1")
        assert data["beta"] == 2
        assert len(data["beta_ray"]) == MAX_EMBED_N


class TestModulusBound:
    @pytest.mark.parametrize("command", ["apery", "poset", "face"])
    def test_huge_m_is_two(self, capsys, monkeypatch, command):
        # refused before apery_by_class allocates an m-entry table
        def never(*args, **kwargs):
            raise AssertionError("apery_by_class reached")

        S = semigroup.NumericalSemigroup([3, 5])
        monkeypatch.setattr(semigroup, "apery_by_class", never)
        monkeypatch.setattr(cli, "NumericalSemigroup", lambda gens: S)
        code, out, err = run_cli(capsys, command, "--gens", "3,5", "--m", str(10**12))
        assert code == 2
        assert out == ""
        assert err == f"usage error: {command} needs --m <= {MAX_MODULUS}\n"

    def test_patched_name_is_the_one_apery_values_calls(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("apery_by_class reached")

        monkeypatch.setattr(semigroup, "apery_by_class", never)
        with pytest.raises(AssertionError, match="apery_by_class reached"):
            semigroup.NumericalSemigroup([3, 5]).apery_set(5)

    def test_largest_m_runs(self, capsys):
        data = run_json(capsys, "apery", "--gens", "3,5", "--m", str(MAX_MODULUS))
        assert data["modulus"] == MAX_MODULUS == MAX_EMBED_N
        assert len(data["apery"]) == len(data["kunz"]) == MAX_MODULUS
        # the class of 1 is first reached at m + 1, so its Kunz coordinate is 1
        assert data["kunz"][1] == 1


class TestMultiplicityBound:
    @pytest.mark.parametrize(
        "argv",
        [
            ["info"],
            ["apery"],
            ["poset"],
            ["face"],
            ["ega", "--detect"],
            ["glue", "--alpha", "7", "--beta", "2"],
        ],
    )
    def test_huge_multiplicity_is_two(self, capsys, monkeypatch, argv):
        # refused before the semigroup sizes an m-entry Apery table
        def never(gens):
            raise AssertionError("NumericalSemigroup reached")

        monkeypatch.setattr(cli, "NumericalSemigroup", never)
        gens = f"{10**10},{10**10 + 1}"
        code, out, err = run_cli(capsys, *argv, "--gens", gens)
        assert code == 2
        assert out == ""
        assert err == (
            f"usage error: {argv[0]} needs --gens with multiplicity <= {MAX_MODULUS}\n"
        )

    def test_largest_multiplicity_runs(self, capsys):
        m = MAX_MODULUS
        data = run_json(capsys, "info", "--gens", f"{m + 1},{m}")
        assert data["generators"] == [m, m + 1]
        assert data["multiplicity"] == m
        assert data["frobenius"] == m * (m + 1) - m - (m + 1)


class TestFamilySizeBound:
    """`ega --params` a and glue's beta times the multiplicity size tables
    too, so they are refused before `ega_new` or `GluingSpec` is built;
    glue also builds faces of T, so its bound is MAX_FACE_N."""

    @staticmethod
    def never(name):
        def fail(*args):
            raise AssertionError(f"{name} reached")

        return fail

    def test_huge_ega_a_is_two(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "ega_new", self.never("ega_new"))
        code, out, err = run_cli(capsys, "ega", "--params", f"{10**10},1,1,1")
        assert (code, out) == (2, "")
        assert err == f"usage error: ega needs --params with a <= {MAX_MODULUS}\n"

    def test_largest_ega_a_runs(self, capsys):
        a = MAX_MODULUS
        data = run_json(capsys, "ega", "--params", f"{a},1,1,1")
        assert data["generators"] == [a, a + 1]
        assert data["frobenius"] == a * (a + 1) - a - (a + 1)

    @pytest.mark.parametrize(
        "gens, beta",
        [("3,5", 10**10 + 1), ("2,5", MAX_MODULUS // 2 + 1), ("2,5", MAX_FACE_N // 2 + 1)],
    )
    def test_huge_glue_is_two(self, capsys, monkeypatch, gens, beta):
        monkeypatch.setattr(cli, "GluingSpec", self.never("GluingSpec"))
        code, out, err = run_cli(
            capsys, "glue", "--gens", gens, "--alpha", "8", "--beta", str(beta)
        )
        assert (code, out) == (2, "")
        assert err == (
            f"usage error: glue needs --beta times the multiplicity <= {MAX_FACE_N}\n"
        )

    def test_largest_glue_reaches_gluing_spec(self, capsys, monkeypatch):
        # a glued modulus of exactly MAX_FACE_N passes the bound; the
        # spec is stubbed because the face scan of T is O(n^2)
        reached = []

        def stub(S, alpha, beta):
            reached.append(beta * S.multiplicity)
            raise AssertionError("GluingSpec reached")

        monkeypatch.setattr(cli, "GluingSpec", stub)
        with pytest.raises(AssertionError, match="GluingSpec reached"):
            main(["glue", "--gens", "2,5", "--alpha", "7", "--beta", str(MAX_FACE_N // 2)])
        assert reached == [MAX_FACE_N]


class TestFaceSizeBound:
    """face, poset and ega with rays build a face or a poset, whose facet
    scan, tight list and echelon grow as n^2, so n above MAX_FACE_N is
    refused before the builder runs.  The builders are stubbed: at the
    bound itself they would take seconds."""

    ARGS = {
        "multiplicity": lambda n: ["--gens", f"{n},{n + 1}"],
        "m": lambda n: ["--gens", "3,5", "--m", str(n)],
    }

    @staticmethod
    def stub(monkeypatch, name):
        """Patch cli.<name> to record its arguments and stop the command."""
        calls = []

        def stop(*args):
            calls.append(args)
            raise AssertionError(f"{name} reached")

        monkeypatch.setattr(cli, name, stop)
        return calls

    @pytest.mark.parametrize("how", ["multiplicity", "m"])
    @pytest.mark.parametrize("command, builder", [("face", "face_of"), ("poset", "apery_poset")])
    def test_over_bound_is_two(self, capsys, monkeypatch, command, builder, how):
        calls = self.stub(monkeypatch, builder)
        code, out, err = run_cli(capsys, command, *self.ARGS[how](MAX_FACE_N + 1))
        assert (code, out, calls) == (2, "", [])
        assert err == (
            f"usage error: {command} needs --m (default: the multiplicity) <= {MAX_FACE_N}\n"
        )

    @pytest.mark.parametrize("how", ["multiplicity", "m"])
    @pytest.mark.parametrize("command, builder", [("face", "face_of"), ("poset", "apery_poset")])
    def test_largest_n_reaches_builder(self, monkeypatch, command, builder, how):
        calls = self.stub(monkeypatch, builder)
        with pytest.raises(AssertionError, match=f"{builder} reached"):
            main([command, *self.ARGS[how](MAX_FACE_N)])
        (args,) = calls
        modulus = args[0].modulus if builder == "face_of" else args[1]
        assert modulus == MAX_FACE_N

    def test_ega_rays_over_bound_is_two(self, capsys, monkeypatch):
        built = self.stub(monkeypatch, "ega_new"), self.stub(monkeypatch, "ega_rays")
        code, out, err = run_cli(capsys, "ega", "--params", f"{MAX_FACE_N + 1},1,5,1")
        assert (code, out, built) == (2, "", ([], []))
        assert err == f"usage error: ega with rays (1 < k < a - 2) needs a <= {MAX_FACE_N}\n"

    def test_largest_ega_rays_reach_ega_rays(self, monkeypatch):
        calls = self.stub(monkeypatch, "ega_rays")
        with pytest.raises(AssertionError, match="ega_rays reached"):
            main(["ega", "--params", f"{MAX_FACE_N},1,5,1"])
        assert [params.a for params, in calls] == [MAX_FACE_N]


class TestVerify:
    def test_roundtrip_suite(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "roundtrip", "--seed", "7", "--max-m", "8"
        )
        assert code == 0
        data = json.loads(out)
        assert data["suite"] == "roundtrip"
        assert data["seed"] == 7
        assert data["checks"] > 0
        assert data["failures"] == 0

    @pytest.mark.parametrize(
        "suite, flags, message",
        [
            ("roundtrip", ["--max-m", "1"], "needs --max-m >= 2"),
            ("ega", ["--max-m", "1"], "needs --max-m >= 2"),
            ("gluing", ["--max-m", "2"], "needs --max-m >= 3"),
            ("gluing", ["--max-beta", "1"], "needs --max-beta >= 2"),
        ],
    )
    def test_sizes_too_small_are_two(self, capsys, suite, flags, message):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, *flags)
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1] == f"usage error: verify --suite {suite} {message}"

    @pytest.mark.parametrize(
        "suite, flags",
        [
            ("roundtrip", ["--max-m", "2", "--max-beta", "1"]),
            ("ega", ["--max-m", "2", "--max-beta", "1"]),
            ("gluing", ["--max-m", "3", "--max-beta", "2"]),
        ],
    )
    def test_least_sizes_run_checks(self, capsys, suite, flags):
        # each bound applies only to the suites that read its flag
        data = run_json(capsys, "verify", "--suite", suite, *flags)
        assert data["checks"] > 0
        assert data["failures"] == 0

    @pytest.mark.parametrize(
        "suite, flags, message",
        [
            ("roundtrip", ["--max-m", str(10**12)], f"needs --max-m <= {MAX_M}"),
            ("ega", ["--max-m", str(10**12)], f"needs --max-m <= {MAX_M}"),
            ("gluing", ["--max-m", str(10**12)], f"needs --max-m <= {MAX_M}"),
            ("gluing", ["--max-beta", str(10**12)], f"needs --max-beta <= {MAX_BETA}"),
        ],
    )
    def test_sizes_too_large_are_two(self, capsys, monkeypatch, suite, flags, message):
        # refused before any sweep starts: the suite itself must never run
        def never(*args, **kwargs):
            raise AssertionError("run_suite reached")

        monkeypatch.setattr(cli, "run_suite", never)
        code, out, err = run_cli(capsys, "verify", "--suite", suite, *flags)
        assert code == 2
        assert out == ""
        assert err == f"usage error: verify --suite {suite} {message}\n"

    def test_largest_sizes_are_accepted(self, capsys, monkeypatch):
        seen = []

        def record(name, seed, **sizes):
            seen.append(sizes)
            return {"failures": 0}

        monkeypatch.setattr(cli, "run_suite", record)
        argv = ["--max-m", str(MAX_M), "--max-beta", str(MAX_BETA)]
        code, _, err = run_cli(capsys, "verify", "--suite", "gluing", *argv)
        assert code == 0, err
        assert seen == [{"max_m": MAX_M, "max_beta": MAX_BETA}]

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--suite", "ega", "--seed", "3", "--max-m", "8")
        _, out2, _ = run_cli(capsys, "verify", "--suite", "ega", "--seed", "3", "--max-m", "8")
        assert out1 == out2

    def test_failed_checks_exit_one(self, capsys, monkeypatch):
        # every plain poset reported wrong: 25 specs fail, the first 20 listed
        real = sweeps.verify_face_image
        monkeypatch.setattr(
            sweeps, "verify_face_image", lambda *args: {**real(*args), "plain_poset": False}
        )
        code, out, err = run_cli(capsys, "verify", "--suite", "embedding")
        assert (code, err) == (1, "")
        labels = [
            "n=12 h=3 rho=7 <4, 11>", "n=16 h=4 rho=1 <4, 9, 11>",
            "n=12 h=6 rho=11 <2, 5>", "n=15 h=3 rho=13 <5, 9, 11>",
            "n=8 h=4 rho=3 <2, 3>", "n=12 h=3 rho=7 <4, 11>",
            "n=6 h=3 rho=5 <2, 3>", "n=21 h=3 rho=8 <7, 8, 9>",
            "n=14 h=2 rho=9 <7, 11, 19>", "n=18 h=6 rho=1 <3, 4>",
            "n=21 h=3 rho=2 <7, 8, 10>", "n=16 h=8 rho=1 <2, 3>",
            "n=14 h=2 rho=11 <7, 20>", "n=14 h=2 rho=3 <7, 9, 17>",
            "n=22 h=2 rho=7 <11, 21, 28, 30>", "n=8 h=4 rho=1 <2, 5>",
            "n=6 h=3 rho=5 <2, 3>", "n=21 h=7 rho=4 <3, 7>",
            "n=21 h=7 rho=20 <3, 5>", "n=10 h=5 rho=9 <2, 5>",
        ]
        report = {
            "checks": 100,
            "failed_checks": ["plain_poset " + label for label in labels],
            "failures": 25,
            "seed": 0,
            "suite": "embedding",
        }
        assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"


class TestRunSuiteBounds:
    # the library entry point refuses the sizes the CLI refuses
    @pytest.mark.parametrize(
        "suite, sizes, message",
        [
            ("roundtrip", {"max_m": 1}, "suite roundtrip needs max_m >= 2"),
            ("gluing", {"max_beta": 1}, "suite gluing needs max_beta >= 2"),
            ("ega", {"max_m": 1}, "suite ega needs max_m >= 2"),
            ("gluing", {"max_m": 2}, "suite gluing needs max_m >= 3"),
            ("roundtrip", {"max_m": 10**12}, f"suite roundtrip needs max_m <= {MAX_M}"),
            ("gluing", {"max_beta": 10**12}, f"suite gluing needs max_beta <= {MAX_BETA}"),
        ],
    )
    def test_out_of_bounds_raise(self, suite, sizes, message):
        with pytest.raises(ValueError) as info:
            run_suite(suite, 0, **sizes)
        assert str(info.value) == message

    def test_embedding_reads_no_size(self):
        assert run_suite("embedding", 0, max_m=1, max_beta=1)["checks"] > 0


class TestExitCodes:
    def test_domain_error_is_one(self, capsys):
        code, out, err = run_cli(capsys, "info", "--gens", "4,6")
        assert code == 1
        assert out == ""
        assert err.startswith("NotCofinite:")

    def test_invalid_params_is_one(self, capsys):
        code, _, err = run_cli(capsys, "ega", "--params", "11,1,5,-2")
        assert code == 1
        assert err.startswith("InvalidParams:")

    def test_post_parse_usage_error_is_two(self, capsys):
        code, _, err = run_cli(capsys, "ega")
        assert code == 2
        assert err.startswith("usage error:")

    def test_detect_without_gens_is_two(self, capsys):
        code, _, err = run_cli(capsys, "ega", "--detect")
        assert code == 2
        assert err.startswith("usage error:")

    def test_argparse_errors_are_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["info"])
        assert exc.value.code == 2

    def test_bad_gens_text_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["info", "--gens", "4,x"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["info", "apery", "poset", "face", "glue"])
    @pytest.mark.parametrize("gens", ["0,5", "-3,5"])
    def test_nonpositive_gens_is_two(self, capsys, command, gens):
        extra = ["--alpha", "7", "--beta", "2"] if command == "glue" else []
        with pytest.raises(SystemExit) as exc:
            main([command, f"--gens={gens}", *extra])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        # argparse prints the usage synopsis, then the error on one line
        assert err.splitlines()[-1] == (
            f"kunzcone {command}: error: argument --gens: "
            f"generators must be positive, got {gens!r}"
        )

    @pytest.mark.parametrize("command", ["info", "apery", "poset", "face", "glue", "ega"])
    def test_negative_gens_as_separate_token_is_two(self, capsys, command):
        # "-3,5" after --gens must reach the generator check, not be read as a flag
        extra = ["--alpha", "7", "--beta", "2"] if command == "glue" else []
        with pytest.raises(SystemExit) as exc:
            main([command, "--gens", "-3,5", *extra])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"kunzcone {command}: error: argument --gens: "
            "generators must be positive, got '-3,5'"
        )

    def test_negative_params_as_separate_token_is_one(self, capsys):
        # "-5,1,2,3" after --params must reach ega_new, not be read as a flag
        code, out, err = run_cli(capsys, "ega", "--params", "-5,1,2,3")
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1] == "InvalidParams: need multiplicity a >= 2, got a=-5"

    @pytest.mark.parametrize("argv", [
        ["embed", "--n=--", "--hgen", "4", "--rho", "1"],
        ["glue", "--gens", "4,13,18", "--alpha=--", "--beta", "3"],
        ["apery", "--gens", "4,13,18", "--m=--"],
        ["verify", "--suite=--"],
        ["verify", "--suite", "roundtrip", "--seed=--"],
        ["poset", "--gens", "4,13,18", "--out=--"],
    ])
    def test_dash_dash_value_is_a_missing_value(self, capsys, argv):
        # argparse drops a '--' given as --flag=--, which left the flag an empty list
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        flag = next(arg for arg in argv if arg.endswith("=--"))[:-3]
        assert (out, err.splitlines()[-1]) == (
            "", f"kunzcone {argv[0]}: error: argument {flag}: expected one argument"
        )

    @pytest.mark.parametrize("command", ["apery", "poset", "face", "glue"])
    def test_trivial_semigroup_is_one(self, capsys, command):
        extra = ["--alpha", "2", "--beta", "3"] if command == "glue" else []
        code, out, err = run_cli(capsys, command, "--gens", "1", *extra)
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert err == "NoGaps: the semigroup contains every non-negative integer\n"


def _str_keys(doc) -> bool:
    if isinstance(doc, dict):
        return all(type(k) is str and _str_keys(v) for k, v in doc.items())
    if isinstance(doc, (list, tuple)):
        return all(map(_str_keys, doc))
    return True


class TestWriter:
    """stdout is ``json.dumps(doc, sort_keys=True, indent=2)`` of the document
    ``_dump`` received, written by the CLI's own writer."""

    COMMANDS = [
        (["info", "--gens", "4,13,18"], 0),
        (["apery", "--gens", "4,13,18", "--m", "13"], 0),
        (["poset", "--gens", "4,13,18"], 0),
        (["face", "--gens", "6,8,10,13,15,17"], 0),
        (["ega", "--params", "13,1,4,1"], 0),
        (["ega", "--detect", "--gens", "6,7,9,10"], 0),  # detects None
        (["glue", "--gens", "4,13,18", "--alpha", "31", "--beta", "3"], 0),
        (["embed", "--n", "12", "--hgen", "3", "--rho", "7"], 0),
        (["verify", "--suite", "embedding"], 1),
    ]

    def test_each_subcommand_prints_json_dumps(self, capsys, monkeypatch):
        assert {argv[0] for argv, _ in self.COMMANDS} == set(cli._COMMANDS)
        # every plain poset reported wrong, so the report lists failure labels
        real_check = sweeps.verify_face_image
        monkeypatch.setattr(
            sweeps, "verify_face_image", lambda *args: {**real_check(*args), "plain_poset": False}
        )
        docs = []
        real = cli._dump

        def spy(data, code=0):
            docs.append(data)
            return real(data, code)

        monkeypatch.setattr(cli, "_dump", spy)
        for argv, want in self.COMMANDS:
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (want, ""), argv
            assert len(docs) == 1, argv
            doc = docs.pop()
            assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n", argv
            assert _str_keys(doc), argv


class TestDeterminism:
    def test_byte_identical_json(self, capsys):
        _, out1, _ = run_cli(capsys, "face", "--gens", "6,8,10,13,15,17")
        _, out2, _ = run_cli(capsys, "face", "--gens", "6,8,10,13,15,17")
        assert out1 == out2
        assert out1.endswith("\n")


class TestOneParser:
    """`main` parses with the grammar built once at import."""

    COMMANDS = [
        ["info", "--gens", "4,13,18"],
        ["apery", "--gens", "4,13,18"],
        ["poset", "--gens", "4,13,18"],
        ["face", "--gens", "4,13,18"],
        ["ega", "--params", "5,1,2,1"],
        ["glue", "--gens", "3,5", "--alpha", "8", "--beta", "3"],
        ["embed", "--n", "12", "--hgen", "3", "--rho", "7"],
        ["verify", "--suite", "roundtrip", "--max-m", "6"],
    ]

    def test_main_builds_no_parser(self, capsys, monkeypatch):
        before = [run_cli(capsys, *argv) for argv in self.COMMANDS]
        assert all(code == 0 for code, _, _ in before)

        def never():
            raise AssertionError("build_parser reached")

        monkeypatch.setattr(cli, "build_parser", never)
        assert [run_cli(capsys, *argv) for argv in self.COMMANDS] == before
        assert {argv[0] for argv in self.COMMANDS} == set(cli._COMMANDS)

    def test_quick_calls_never_reach_the_top_parser(self, capsys, monkeypatch):
        before = [run_cli(capsys, *argv) for argv in self.COMMANDS]

        def never(*args, **kwargs):
            raise AssertionError("top parser reached")

        with monkeypatch.context() as patch:
            patch.setattr(cli._PARSER, "parse_args", never)
            patch.setattr(cli._PARSER, "parse_known_args", never)
            assert [run_cli(capsys, *argv) for argv in self.COMMANDS] == before
        # help, usage errors and odd first tokens still go to the top parser
        top_usage = cli._PARSER.format_usage()
        for argv, code, out, err in [
            ([], 2, "", top_usage + "kunzcone: error: the following arguments are required: command\n"),
            (["-h"], 0, cli._PARSER.format_help(), ""),
            (["bogus"], 2, "", top_usage + "kunzcone: error: argument command: invalid choice: "
             "'bogus' (choose from 'info', 'apery', 'poset', 'face', 'ega', 'glue', 'embed', 'verify')\n"),
        ]:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert (exc.value.code, *capsys.readouterr()) == (code, out, err), argv

    def test_build_parser_gives_the_same_grammar(self):
        parser = cli.build_parser()
        assert parser.format_help() == cli._PARSER.format_help()
        for argv in self.COMMANDS:
            assert parser.parse_args(argv) == cli._PARSER.parse_args(argv)

    @staticmethod
    def fresh(argv):
        """Run ``kunzcone argv`` as its own process against this checkout."""
        return fresh_python("-m", "kunzcone.cli", *argv)

    def test_reuse_carries_no_state(self, capsys):
        gens = ["--gens", "4,13,18"]
        verify = ["verify", "--suite", "roundtrip", "--max-m", "8"]
        calls = [
            ["poset", *gens, "--dot"],
            ["poset", *gens],
            [*verify, "--seed", "3"],
            verify,
            ["info"],
            ["info", *gens],
        ]
        seen = []
        for argv in calls:
            try:
                seen.append(run_cli(capsys, *argv))
            except SystemExit as exc:
                captured = capsys.readouterr()
                seen.append((exc.code, captured.out, captured.err))
        assert seen[0][1].startswith("digraph")
        assert json.loads(seen[1][1])["modulus"] == 4
        assert json.loads(seen[3][1])["seed"] == 0
        assert seen[4][0] == 2
        assert seen == [self.fresh(argv) for argv in calls]


class _Parsed(Exception):
    """Raised in place of running a command: carries the parsed Namespace."""


def _outcome(parse, argv):
    """What ``parse(argv)`` ends in, commands replaced by a recorder: the
    Namespace's vars() or the exit code, then stdout and stderr."""
    def record(args):
        raise _Parsed(args)

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), \
            mock.patch.object(cli, "_COMMANDS", dict.fromkeys(cli._COMMANDS, record)):
        try:
            result = vars(parse(list(argv)))
        except _Parsed as exc:
            result = vars(exc.args[0])
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _top_parse(argv):
    return cli._PARSER.parse_args(cli._join_dash_values(argv))


class TestParseParity:
    """`main` parses a subcommand's flags with that subcommand's parser alone;
    on every argv it ends as ``_PARSER.parse_args`` does: the same Namespace,
    or the same exit code, stdout and stderr."""

    # each subcommand's flags (None: takes no value), with values that parse and values that do not
    FLAGS = {
        "info": {"--gens": ["4,13,18", "-3,5", "4,x", ""]},
        "apery": {"--gens": ["4,13,18", "0,5"], "--m": ["13", "-1", "x"]},
        "poset": {"--gens": ["4,13,18", ",,"], "--m": ["4"], "--dot": None, "--out": ["o.txt", "-"]},
        "face": {"--gens": ["3,5"], "--m": ["5", "1e3"]},
        "ega": {"--params": ["5,1,2,1", "-5,1,2,3", "5,1"], "--detect": None, "--gens": ["6,7,9,10", "-4"]},
        "glue": {"--gens": ["3,5"], "--alpha": ["8", "-2"], "--beta": ["3", "x"]},
        "embed": {"--n": ["12", "-4", "x"], "--hgen": ["3", "-0"], "--rho": ["7", "3.5"]},
        "verify": {"--suite": ["roundtrip", "bogus"], "--seed": ["3", "-1"], "--max-m": ["6", "x"],
                   "--max-beta": ["2"]},
    }
    HOSTILE = ["-h", "--help", "--he", "--help=1", "-hx", "-x", "--foo", "--", "-", "--gens=-3,5", "--dot=1",
               "--se", "--max", "--m=", "extra", "", ",", "-3", " 5", "3, 5", "bogus", "poset", "verify",
               "--poset", "-info", "Poset", "glue "]

    def test_the_grammar_is_the_parsers(self):
        assert list(cli._PARSER.commands) == list(cli._COMMANDS) == list(self.FLAGS)
        for name, sub in cli._PARSER.commands.items():
            assert set(re.findall(r"--[\w-]+", sub.format_usage())) == set(self.FLAGS[name]), name

    def test_generated_command_lines(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def command_lines(draw):
            """A call of one subcommand from its real flags, with hostile tokens
            anywhere after its name and, now and then, an odd first token."""
            name = draw(st.sampled_from(list(self.FLAGS)))
            argv = [name]
            for _ in range(draw(st.integers(0, 6))):
                if draw(st.integers(0, 3)):  # 3 in 4: one of the subcommand's flags
                    flag, values = draw(st.sampled_from(list(self.FLAGS[name].items())))
                    if values is None:
                        argv.append(flag)
                    else:
                        value = draw(st.sampled_from(values))
                        argv += draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
                else:
                    argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(self.HOSTILE)))
            if draw(st.integers(0, 4)) == 0:  # before the name or in its place
                argv[:draw(st.integers(0, 1))] = [draw(st.sampled_from(self.HOSTILE))]
            return argv

        @hypothesis.settings(derandomize=True, deadline=None, max_examples=500)
        @hypothesis.given(command_lines())
        def check(argv):
            assert _outcome(main, argv) == _outcome(_top_parse, argv)

        check()

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["bogus"], ["poset", "-h"], ["--", "poset", "--gens", "3,5"],
        ["poset", "--", "--gens", "3,5"], ["--foo", "poset", "--gens", "3,5"],
        ["poset", "--gens", "3,5", "extra"], ["poset", "--gens", "3,5", "--bogus"],
        ["info", "--gens", "-3,5"], ["ega", "--params", "-5,1,2,3"],
    ])
    def test_fixed_command_lines(self, argv):
        # "-- poset ..." goes to _PARSER, so it ends as argparse on this Python has it
        assert _outcome(main, argv) == _outcome(_top_parse, argv)

    def test_usage_golden(self, capsys, monkeypatch):
        """Exit code and stderr of each command line in tests/golden/cli_usage.txt;
        leftover tokens are argparse's words under the top usage line."""
        # the golden was written with 80 columns, as argparse wraps usage lines to the terminal
        monkeypatch.setenv("COLUMNS", "80")
        blocks = (Path(__file__).parent / "golden" / "cli_usage.txt").read_text().split("$ kunzcone")
        assert len(blocks) == 19
        for block in blocks[1:]:
            argv, *err, code = block.rstrip("\n").split("\n")
            try:
                got = main(argv.split())
            except SystemExit as exc:
                got = exc.code
            want = (code, "", "".join(f"{line}\n" for line in err))
            assert (f"exit {got}", *capsys.readouterr()) == want, argv


class TestStartup:
    def test_bare_import_loads_no_typing(self):
        # -S: no site hooks, which may load typing on their own
        script = "import sys, kunzcone.cli; print('typing' in sys.modules)"
        assert fresh_python("-S", "-c", script) == (0, "False\n", "")

    def test_import_loads_no_dataclasses_inspect_or_fractions(self):
        # Fraction is imported on the first non-int coordinate entry, and
        # integral Fractions still collapse to int
        script = """if True:
            import sys
            import kunzcone.cli
            from kunzcone import KUNZ, CoordTuple
            print(sorted({"dataclasses", "inspect", "fractions"} & set(sys.modules)))
            from fractions import Fraction
            x = CoordTuple(3, KUNZ, (0, Fraction(4, 2), Fraction(1, 2)))
            print(x.entries, [type(v).__name__ for v in x.entries])
        """
        assert fresh_python("-c", script) == (
            0, "[]\n(0, 2, Fraction(1, 2)) ['int', 'int', 'Fraction']\n", ""
        )
