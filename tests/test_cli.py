import json

import pytest

import kunzcone.sweeps as sweeps
from kunzcone import cli, run_suite, semigroup
from kunzcone.cli import MAX_EMBED_N, MAX_MODULUS, main
from kunzcone.sweeps import MAX_BETA, MAX_M


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_largest_m_runs(self, capsys):
        data = run_json(capsys, "apery", "--gens", "3,5", "--m", str(MAX_MODULUS))
        assert data["modulus"] == MAX_MODULUS == MAX_EMBED_N
        assert len(data["apery"]) == len(data["kunz"]) == MAX_MODULUS
        # the class of 1 is first reached at m + 1, so its Kunz coordinate is 1
        assert data["kunz"][1] == 1


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

    @pytest.mark.parametrize("command", ["apery", "poset", "face", "glue"])
    def test_trivial_semigroup_is_one(self, capsys, command):
        extra = ["--alpha", "2", "--beta", "3"] if command == "glue" else []
        code, out, err = run_cli(capsys, command, "--gens", "1", *extra)
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert err == "NoGaps: the semigroup contains every non-negative integer\n"


class TestDeterminism:
    def test_byte_identical_json(self, capsys):
        _, out1, _ = run_cli(capsys, "face", "--gens", "6,8,10,13,15,17")
        _, out2, _ = run_cli(capsys, "face", "--gens", "6,8,10,13,15,17")
        assert out1 == out2
        assert out1.endswith("\n")
