"""Child process that imports kunzcone and runs one workload's closed loop.

Reads a job as JSON on stdin and writes one JSON object on stdout:

- ``setup_s``: seconds for ``import kunzcone`` (and ``kunzcone.cli`` on
  cli_main) plus the fixed warm-up ops, and ``setup_ref_ns``, the
  median time of the reference loop (``calibrate.py``) right after;
- in "run" mode, the op latencies, the reference loop's times between
  them, how often each distinct output of each input occurred, the
  exceptions raised, the peak RSS and, when traced, the span aggregates.

The distinct outputs themselves go to the file ``summaries_path`` as
``index<TAB>digest<TAB>json`` lines, so that the worker's memory (and its
peak RSS) does not grow with the number of ops checked.

One client, closed loop: the next op starts when the previous one has
returned.  Inputs are taken in order, in passes over the whole list,
until the time is up; the latencies are kept per input, so that each
input's best time over the passes can be taken.  The reference loop
(``calibrate.py``) runs before the first op and then whenever
``WINDOW_S`` has passed since its last run; each latency is kept with
the number of the window it fell in.  When traced, each input runs once untraced and once traced, back
to back, so the two can be compared op for op.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import statistics
import time

WINDOW_S = 0.2  # time between runs of the reference loop
SETUP_REF_SAMPLES = 5


def main() -> int:
    job = json.load(sys.stdin)
    workload = job["workload"]
    t_start = time.perf_counter()
    import kunzcone

    if workload == "cli_main":
        import kunzcone.cli  # noqa: F401
    import calibrate
    import ops
    from tracing import NullTracer, Tracer

    run = getattr(ops, f"run_{workload}")
    summarize = getattr(ops, f"summarize_{workload}")
    null = NullTracer()
    for inp in job["warmup"]:
        run(inp, null)
    out = {"setup_s": time.perf_counter() - t_start, "kunzcone": kunzcone.__file__,
           "setup_ref_ns": statistics.median(
               calibrate.sample_ns() for _ in range(SETUP_REF_SAMPLES))}
    if job["mode"] == "setup":
        json.dump(out, sys.stdout)
        return 0

    inputs = job["inputs"]
    tracer = Tracer() if job["trace"] else None
    sides = [null] if tracer is None else [null, tracer]
    # per side: input index -> [latency, window] of each of its runs
    lat_ns: list[dict[int, list[list[int]]]] = [{} for _ in sides]
    ref_ns = [calibrate.sample_ns()]
    last_ref = time.perf_counter()
    variants: dict[int, dict[str, int]] = {}
    errors: dict[int, dict] = {}
    with open(job["summaries_path"], "w", encoding="utf-8") as summaries:
        deadline = time.perf_counter() + job["seconds"]
        i = 0
        while i == 0 or time.perf_counter() < deadline:
            idx = i % len(inputs)
            for side, tr in enumerate(sides):
                if tracer is not None:
                    tracer.op_id = i
                t0 = time.perf_counter_ns()
                try:
                    with tr.span("bench.op"):
                        raw = run(inputs[idx], tr)
                except Exception as exc:  # an op failure is counted, not fatal
                    lat_ns[side].setdefault(idx, []).append(
                        [time.perf_counter_ns() - t0, len(ref_ns) - 1])
                    err = errors.setdefault(
                        idx, {"count": 0, "message": f"{type(exc).__name__}: {exc}"})
                    err["count"] += 1
                    continue
                lat_ns[side].setdefault(idx, []).append(
                    [time.perf_counter_ns() - t0, len(ref_ns) - 1])
                text = json.dumps(summarize(raw), sort_keys=True)
                digest = hashlib.blake2b(text.encode(), digest_size=16).hexdigest()
                seen = variants.setdefault(idx, {})
                if digest not in seen:
                    seen[digest] = 0
                    summaries.write(f"{idx}\t{digest}\t{text}\n")
                seen[digest] += 1
            i += 1
            if time.perf_counter() - last_ref >= WINDOW_S:
                ref_ns.append(calibrate.sample_ns())
                last_ref = time.perf_counter()
        ref_ns.append(calibrate.sample_ns())

    out.update({
        "lat_ns": {str(k): v for k, v in lat_ns[-1].items()},
        "untraced_lat_ns": None if tracer is None else
        {str(k): v for k, v in lat_ns[0].items()},
        "ref_ns": ref_ns,
        "variants": {str(k): v for k, v in variants.items()},
        "errors": {str(k): v for k, v in errors.items()},
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    })
    if tracer is not None:
        out["trace"] = tracer.aggregate()
        tracer.write(job["spans_path"])
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
