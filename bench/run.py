"""kunzcone benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload face_large --seed 1 --seconds 10 --trace 0

Run from a checkout of the repository; kunzcone is imported from its
``src``.  The last line of stdout is the JSON result
``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``.  The line
before it records the commit, Python version, nproc, seed and source
line counts; both are also written under ``bench/out/``.  See
``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MODULES = ("__init__", "arithmetic", "cli", "cone", "errors", "gluing", "linalg",
           "poset", "semigroup", "sweeps")
SETUP_SAMPLES = 10  # extra fresh processes timed for setup_s, besides the run's own
STARTUP_SAMPLES = 5
CHILD_TIMEOUT = 150


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _child_env() -> dict:
    """The caller's environment with kunzcone importable from SRC only."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def _worker(job: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py")],
        input=json.dumps(job), capture_output=True, text=True, env=_child_env(),
        timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout)
    if not Path(out["kunzcone"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"kunzcone was imported from {out['kunzcone']}, not {SRC}")
    return out


def _startup_ms(code: str, timed_inside: bool) -> float:
    """Median over fresh interpreters of either the wall time of the whole
    process or a time the child prints itself."""
    samples = []
    for _ in range(STARTUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=_child_env(), timeout=CHILD_TIMEOUT, check=True)
        wall = time.perf_counter() - t0
        samples.append(float(proc.stdout) if timed_inside else wall)
    return statistics.median(samples) * 1e3


def _scaled_setup_s(out: dict) -> float:
    """A worker's set-up time at the nominal host speed."""
    return out["setup_s"] * calibrate.NOMINAL_NS / out["setup_ref_ns"]


def src_lines() -> dict:
    counts = {}
    for name in MODULES:
        path = SRC / "kunzcone" / f"{name}.py"
        counts[name] = len(path.read_text(encoding="utf-8").splitlines()) if path.exists() else 0
    counts["total"] = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "kunzcone").glob("*.py")
    )
    return counts


def src_digest() -> str:
    """Digest of the package sources, which identifies the code measured
    also where the checkout is not a git work tree."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "kunzcone").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit() -> str:
    """HEAD commit when the checkout is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def check_outputs(workload: str, inputs: list, out: dict, summaries: dict) -> tuple[int, int, list]:
    """(attempted, failed, first problems) over every op the worker ran."""
    import checks

    problems = []
    attempted = failed = 0
    for key, err in out["errors"].items():
        attempted += err["count"]
        failed += err["count"]
        problems.append(f"input {key}: raised {err['message']}")
    for key, seen in out["variants"].items():
        inp = inputs[int(key)]
        for digest, count in seen.items():
            attempted += count
            reason = checks.problem(workload, inp, summaries[(key, digest)])
            if reason is not None:
                failed += count
                problems.append(f"input {key}: {reason}")
    return attempted, failed, problems[:10]


def read_summaries(path: Path) -> dict:
    summaries = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, digest, text = line.rstrip("\n").split("\t", 2)
            summaries[(key, digest)] = json.loads(text)
    return summaries


def best_ms(lat_ns: dict, ref_ns: list[int] | None = None) -> list[float]:
    """Each input's fastest run in ms, sorted.  The runs of one input are
    a whole pass apart, so a burst of the shared host's load that slows
    one of them seldom slows them all.

    With ``ref_ns``, each run is first scaled to the nominal host speed
    by the median reference-loop time of the six samples around its
    window, which takes out the host's slower drift."""
    if ref_ns is None:
        scale = [1.0] * (1 + max(w for runs in lat_ns.values() for _, w in runs))
    else:
        scale = [calibrate.NOMINAL_NS / statistics.median(ref_ns[max(0, w - 2):w + 4])
                 for w in range(len(ref_ns))]
    return sorted(min(ns * scale[w] for ns, w in runs) / 1e6 for runs in lat_ns.values())


def end_to_end(out: dict, setup: list[float]) -> dict:
    lat = best_ms(out["lat_ns"], out["ref_ns"])
    return {
        "ops_per_s": (len(lat) / sum(lat) * 1e3, "1/s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "op_p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[8]
                      if len(lat) > 1 else lat[0], "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (out["rss_kb"] / 1024, "MB"),
    }


# span name -> (its calls metric or None, its self-time metric); like every
# per-layer value except the cli startup medians, both are per traced op
_SPAN_METRICS = {
    "linalg.integer_rank": ("linalg.integer_rank.calls", "linalg.integer_rank.ms"),
    "cone.face_of": ("cone.face_of.calls", "cone.face_of.ms"),
    "cone.dimension": (None, "cone.dimension.ms"),
    "cone.kunz_subgroup": (None, "cone.kunz_subgroup.ms"),
    "cone.kunz_poset": (None, "cone.kunz_poset.ms"),
    "poset.construct": ("poset.construct.calls", "poset.construct.ms"),
    "poset.covers": ("poset.covers.calls", "poset.covers.ms"),
    "semigroup.construct": ("semigroup.construct.calls", "semigroup.construct.ms"),
    "semigroup.from_kunz_tuple": (None, "semigroup.from_kunz_tuple.ms"),
    "semigroup.apery_set": ("semigroup.apery_set.calls", "semigroup.apery_set.ms"),
    "semigroup.contains": ("semigroup.contains.calls", "semigroup.contains.ms"),
    "semigroup.coordinates": (None, "semigroup.coordinates.ms"),
    "semigroup.frobenius": (None, "semigroup.frobenius.ms"),
    "arithmetic.ega_new": (None, "arithmetic.ega_new.ms"),
    "arithmetic.ega_contains": ("arithmetic.ega_contains.calls", "arithmetic.ega_contains.ms"),
    "arithmetic.ega_frobenius": (None, "arithmetic.ega_frobenius.ms"),
    "arithmetic.ega_apery_grid": (None, "arithmetic.ega_apery_grid.ms"),
    "arithmetic.ega_kunz_poset": (None, "arithmetic.ega_kunz_poset.ms"),
    "arithmetic.ega_rays": (None, "arithmetic.ega_rays.ms"),
    "gluing.spec": (None, "gluing.spec.ms"),
    "gluing.glue": (None, "gluing.glue.ms"),
    "gluing.glued_apery": (None, "gluing.glued_apery.ms"),
    "gluing.glued_poset": (None, "gluing.glued_poset.ms"),
    "gluing.extend_poset": (None, "gluing.extend_poset.ms"),
    "gluing.factor_monoscopic": (None, "gluing.factor_monoscopic.ms"),
    "cli.process": (None, "cli.process_ms"),
    "cli.main": (None, "cli.main_ms"),
    "sweeps.run_suite": (None, "sweeps.run_suite.ms"),
}
_COUNTERS = ("linalg.rows_in", "linalg.rank", "cone.facets_scanned", "cone.tight_facets",
             "poset.ground_size", "poset.relations")
LAYERS = ("semigroup", "arithmetic", "poset", "cone", "linalg", "gluing", "sweeps", "cli",
          "bench")


def per_layer(workload: str, inputs: list, out: dict, failed: int, attempted: int) -> dict:
    agg = out["trace"]
    ops = sum(len(runs) for runs in out["lat_ns"].values())
    self_ms = {k: v / 1e6 / ops for k, v in agg["self_ns"].items()}
    calls = {k: v / ops for k, v in agg["calls"].items()}
    counts = agg["counts"]
    metrics = {}
    for span, (calls_name, ms_name) in _SPAN_METRICS.items():
        if calls_name:
            metrics[calls_name] = (calls.get(span, 0.0), "1/op")
        metrics[ms_name] = (self_ms.get(span, 0.0), "ms/op")
    for key in _COUNTERS:
        metrics[key] = (counts.get(key, 0) / ops, "1/op")
    rows = counts.get("linalg.rows_in", 0)
    metrics["linalg.useful_ratio"] = (counts.get("linalg.rank", 0) / rows if rows else 0.0,
                                      "ratio")
    metrics["gluing.specs"] = (len(inputs) if workload == "gluing_sweep" else 0, "count")
    metrics["gluing.augmented_share"] = (counts.get("gluing.augmented", 0) / ops, "ratio")
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (
            sum(v for k, v in self_ms.items() if k.split(".")[0] == layer), "ms/op")
    metrics["cli.interpreter_ms"] = (_startup_ms("pass", False), "ms")
    metrics["cli.import_ms"] = (_startup_ms(
        "import time; t = time.perf_counter(); import kunzcone.cli; "
        "print(time.perf_counter() - t)", True), "ms")
    traced, untraced = (sum(ns for runs in out[k].values() for ns, _ in runs)
                        for k in ("lat_ns", "untraced_lat_ns"))
    metrics["trace.overhead_ratio"] = (traced / untraced - 1, "ratio")
    metrics["fail_ratio"] = (failed / attempted, "ratio")
    for name, n in src_lines().items():
        metrics[f"src_lines.{name}"] = (n, "lines")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path,
        tiny: bool = False) -> tuple[dict, dict]:
    """Run one benchmark, writing spans and outputs to out_dir; returns
    (result, meta)."""
    import inputs as gen

    inputs = gen.make(workload, seed, tiny)
    warmup = gen.warmup(workload)
    base = {"workload": workload, "warmup": warmup, "inputs": [], "seconds": 0, "trace": False}
    setup = [] if trace else [
        _scaled_setup_s(_worker(dict(base, mode="setup"))) for _ in range(SETUP_SAMPLES)
    ]
    stem = f"{workload}-s{seed}-t{int(trace)}"
    job = dict(base, mode="run", inputs=inputs, seconds=seconds, trace=trace,
               summaries_path=str(out_dir / f"outputs-{stem}.jsonl"))
    if trace:
        job["spans_path"] = str(out_dir / f"spans-{stem}.jsonl")
    out = _worker(job)
    setup.append(_scaled_setup_s(out))

    summaries = read_summaries(Path(job["summaries_path"]))
    attempted, failed, problems = check_outputs(workload, inputs, out, summaries)
    for line in problems:
        print(f"bench: FAIL {workload} seed={seed} {line}", file=sys.stderr)
    if trace:
        metrics = per_layer(workload, inputs, out, failed, attempted)
    else:
        metrics = end_to_end(out, setup)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "commit": commit(), "python": platform.python_version(), "nproc": os.cpu_count(),
        "inputs": len(inputs), "op_samples": len(out["lat_ns"]),
        "passes": round(sum(map(len, out["lat_ns"].values())) / len(inputs), 2),
        "host_speed": round(calibrate.NOMINAL_NS / statistics.median(out["ref_ns"]), 4),
        "unscaled_op_p50_ms": statistics.median(best_ms(out["lat_ns"])),
        "src_sha256": src_digest(), "src_lines": src_lines(),
    }
    return result, meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (SRC / "kunzcone" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            return _fail(f"{needed.relative_to(ROOT)} is missing; run from a full checkout")
    import inputs as gen

    if args.workload not in gen.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {', '.join(gen.WORKLOADS)}")
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    result, meta = run(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    name = f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    (out_dir / name).write_text(json.dumps({"meta": meta, "result": result}, indent=2) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
