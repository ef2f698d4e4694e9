"""Tests of the benchmark itself:  python3 -m pytest bench -q"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate
import checks
import inputs
import oracle
import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric(workload, trace, tmp_path):
    result, meta = run.run(workload, 3, 0.3, trace, tmp_path, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert meta["seed"] == 3 and meta["src_lines"]["total"] > 0


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(inputs.WORKLOADS)


def test_inputs_depend_only_on_seed():
    for workload in inputs.WORKLOADS:
        assert inputs.make(workload, 5, tiny=True) == inputs.make(workload, 5, tiny=True)
        assert inputs.make(workload, 5, tiny=True) != inputs.make(workload, 6, tiny=True)


def test_wrong_output_counts_as_failure():
    inp = inputs.make("semigroup_ega", 1, tiny=True)[0]
    out = {"errors": {"1": {"count": 2, "message": "ValueError: boom"}},
           "variants": {"0": {"d1": 3}}}
    summaries = {("0", "d1"): {"frobenius": -5}}
    attempted, failed, problems = run.check_outputs("semigroup_ega", [inp, inp], out, summaries)
    assert (attempted, failed) == (5, 5)
    assert any("frobenius" in p or "gens" in p for p in problems)


def test_best_ms_takes_fastest_run_at_nominal_speed():
    lat = {"0": [[2_000_000, 0], [1_500_000, 2]], "1": [[4_000_000, 1]]}
    assert run.best_ms(lat) == [1.5, 4.0]
    assert run.best_ms(lat, [calibrate.NOMINAL_NS] * 3) == [1.5, 4.0]
    assert run.best_ms(lat, [2 * calibrate.NOMINAL_NS] * 3) == [0.75, 2.0]


def _copy_checkout(dest: Path, with_library: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", dest / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    if with_library:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
        (dest / "tests").mkdir()
        shutil.copy(ROOT / "tests" / "oracles.py", dest / "tests" / "oracles.py")


def _bench(checkout: Path, workload: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.3", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=170,
    )


def test_broken_library_is_counted_not_crashed(tmp_path):
    _copy_checkout(tmp_path, with_library=True)
    semigroup = tmp_path / "src" / "kunzcone" / "semigroup.py"
    text = semigroup.read_text()
    wrong = text.replace("return max(self._apery_mult) - self.multiplicity",
                         "return max(self._apery_mult) - self.multiplicity + 1")
    assert wrong != text
    semigroup.write_text(wrong)
    proc = _bench(tmp_path, "semigroup_ega")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert "frobenius" in proc.stderr


def test_refuses_without_the_library(tmp_path):
    _copy_checkout(tmp_path, with_library=False)
    proc = _bench(tmp_path, "face_large")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_members_agree_with_dp_oracles():
    rng = random.Random(0)
    for _ in range(30):
        m = rng.randint(2, 9)
        gens = inputs.random_cofinite(rng, m, rng.randint(1, 3), 3 * m)
        members = oracle.Members(gens)
        assert members.apery(m) == oracle.dp.dp_apery(gens, m)
        assert members.frobenius() == oracle.dp.dp_frobenius(gens)
        assert members.minimal_generators() == oracle.dp.dp_minimal_generators(gens)
        assert [tuple(p) for p in members.poset_relations(m)] == \
            oracle.dp.dp_poset_relations(gens, m)


def test_rank_matches_numpy():
    np = pytest.importorskip("numpy")
    rng = random.Random(1)
    for _ in range(20):
        m = rng.randint(3, 25)
        gens = inputs.random_cofinite(rng, m, rng.randint(1, 3), 3 * m)
        pairs = oracle.tight_pairs(oracle.Members(gens).apery(m))
        rows = np.zeros((max(1, len(pairs)), m - 1))
        for r, (i, j) in enumerate(pairs):
            rows[r, i - 1] += 1
            rows[r, j - 1] += 1
            rows[r, (i + j) % m - 1] -= 1
        assert oracle.rank(pairs, m) == np.linalg.matrix_rank(rows)


def test_cli_golden_matches_a_known_answer():
    out = json.loads(checks.cli_stdout(["info", "--gens", "4,13,18,31"]))
    assert out == {"generators": [4, 13, 18], "multiplicity": 4,
                   "embedding_dimension": 3, "frobenius": 27}
    r, t = oracle.ega_rays(13, 1, 4, 1)
    assert r == list(range(13))
    assert t[1] == 13 - 13 // 4
