"""farfield benchmark: times one workload from outside the package.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload meeting --seed 1 --seconds 52 --trace 0

Workloads (a single process, closed loop, one repetition after another):
  meeting     run_full on a 4-speaker, 4-channel simulated session, then a rerun
              into the same run dir, which reads the preprocess and diarize caches
  hypotheses  run_diarize_grid, run_fusion and compute_der on a 5 min session
              without audio

Set-up runs five times, each in a fresh process under another PYTHONHASHSEED,
and must write byte-identical inputs: once before the first repetition, and
the other four between repetitions, so that they sample the machine's speed
over the whole run rather than at its start. Repetitions run while the next
one is expected to end within --seconds of repetition time, which the set-ups
between them do not count against, at least two of them (three when
tracing). setup_s is the median of the five set-ups; rtf and rerun_rtf are
the wall seconds of all untraced repetitions over the session audio they
processed, which averages over every repetition of the run; per-layer timings
are medians over the traced repetitions. With --trace 1,
repetitions alternate traced and untraced: the first, traced, repetition gives
each layer's first call in the process, the later traced ones give the
per-layer medians, and the untraced ones the rtf that the tracing overhead is
measured against. The simulate layer works only in set-up (meeting simulates
its session), so a traced run then sets up once more in its own process and
takes the simulate.* numbers from that.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}; the line before it holds the environment and further detail.
"""

import os

# Fixed before numpy loads: one BLAS thread keeps runs on a shared machine steady.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
SETUPS = 5
SETUP_TIMEOUT_S = 120
# Reported for a workload that has no such output (see CHANGES.md): a constant,
# so it never moves, and never 0, so a relative spread stays defined.
NOT_APPLICABLE = 1.0


def setup(workload: str, seed: int, out: Path, hashseed: int) -> dict:
    """Write the workload's inputs in a fresh process; returns its set-up time and digest."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hashseed))
    done = subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    import scipy

    import farfield.kernels

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/meminfo") as fh:
        mem_kb = int(next(line for line in fh if line.startswith("MemTotal")).split()[1])
    return {
        "nproc": os.cpu_count(),
        "memory_mb": mem_kb // 1024,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "kernel_backend": farfield.kernels.BACKEND,
    }


def traced_setup(tracer, workload: str, seed: int, out: Path) -> dict:
    """Set up once in this process under the tracer; returns its simulate.* numbers."""
    import inputs
    from spans import layer_metrics

    out.mkdir(parents=True)
    tracer.install()
    try:
        start = perf_counter()
        inputs.MAKERS[workload](out, seed)
        wall = perf_counter() - start
    finally:
        tracer.uninstall()
    return {k: v for k, v in layer_metrics(tracer.take(), wall).items()
            if k.startswith("simulate.")}


def measure(workload, tracer, work: Path, seconds: float, traced: bool, between) -> dict:
    """Closed loop of repetitions; returns per-repetition timings and failures.

    ``between()`` runs after each repetition, outside its timing and outside
    the seconds given to the repetitions.
    """
    from spans import layer_metrics

    reps = []  # (index, traced, first_s, rerun_s, layer metrics or None), passed only
    failures = []
    start = perf_counter()
    between_s = 0.0
    last_s = 0.0
    index = 0
    # at least two repetitions (three when tracing), and then only those
    # expected to end within the time given
    while (index < (3 if traced else 2)
           or perf_counter() - start - between_s + last_s <= seconds):
        rep_start = perf_counter()
        run_dir = work / f"run{index}"
        trace_this = traced and index % 2 == 0
        try:
            if trace_this:
                tracer.install()
            try:
                first_s, rerun_s, outputs = workload.repetition(run_dir)
            finally:
                tracer.uninstall()
            wall_s = perf_counter() - rep_start
            spans = tracer.take()
            workload.check(outputs)
            layers = layer_metrics(spans, wall_s) if trace_this else None
            reps.append((index, trace_this, first_s, rerun_s, layers))
        except Exception:  # a failed repetition is counted, never fatal
            failures.append(traceback.format_exc(limit=3))
            tracer.take()
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        last_s = perf_counter() - rep_start
        between_start = perf_counter()
        between()
        between_s += perf_counter() - between_start
        index += 1
    return {"attempted": index, "reps": reps, "failures": failures}


def main() -> int:
    if not (SRC / "farfield" / "__init__.py").is_file():
        print(f"error: no farfield package under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import farfield

    if Path(farfield.__file__).resolve().parent != (SRC / "farfield").resolve():
        print(f"error: farfield imported from {farfield.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []

        def next_setup():
            if len(setups) < SETUPS:
                i = len(setups)
                setups.append(setup(args.workload, args.seed, work / f"inputs{i}",
                                    hashseed=i + 1))

        next_setup()
        tracer = Tracer()
        workload = WORKLOADS[args.workload](work / "inputs0")
        run = measure(workload, tracer, work, args.seconds, traced=bool(args.trace),
                      between=next_setup)
        while len(setups) < SETUPS:  # a run too short to fit them between repetitions
            next_setup()
        if args.trace:  # after the repetitions, which keep the process's first calls
            setup_layers = traced_setup(tracer, args.workload, args.seed, work / "traced-inputs")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    digests = {s["digest"] for s in setups}
    failed = len(run["failures"])
    correct = failed == 0 and len(digests) == 1
    if not run["reps"]:
        print("error: every repetition failed:\n" + "\n".join(run["failures"]), file=sys.stderr)
        return 1
    audio_s = workload.audio_s
    untraced = [r for r in run["reps"] if not r[1]] or run["reps"]
    rtf = statistics.fmean(r[2] for r in untraced) / audio_s
    quality = dict(workload.quality or {})
    reruns = [r[3] for r in untraced if r[3] is not None]
    if reruns:
        quality["rerun_rtf"] = statistics.fmean(reruns) / audio_s
    end_to_end = {
        "rtf": rtf,
        "rerun_rtf": quality.get("rerun_rtf", NOT_APPLICABLE),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": peak_rss_mb,
        "success_rate": 1.0 - failed / run["attempted"],
        "der": quality.get("der", NOT_APPLICABLE),
        "si_sdr_db": quality.get("si_sdr_db", NOT_APPLICABLE),
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment(),
        "input_digest": sorted(digests),
        "setup_s": [s["setup_s"] for s in setups],
        "audio_s": audio_s,
        "repetitions": [{"index": r[0], "traced": r[1], "first_s": r[2], "rerun_s": r[3]}
                        for r in run["reps"]],
        "failures": run["failures"],
        "error_rate": failed / run["attempted"],
        "not_applicable": sorted(k for k in ("rerun_rtf", "der", "si_sdr_db")
                                 if k not in quality),
    }
    if args.trace:
        from spans import COLD_METRICS, median_metrics

        # warm: the first repetition of the process is traced for the first calls only
        traced = [r for r in run["reps"] if r[1] and r[0] > 0] \
            or [r for r in run["reps"] if r[1]]
        if not traced:
            print("error: every traced repetition failed", file=sys.stderr)
            return 1
        layers = {**median_metrics([r[4] for r in traced]), **setup_layers}
        for metric, span in COLD_METRICS.items():
            layers[metric] = tracer.first_call.get(span, 0.0)
        layers["trace.overhead_rtf"] = statistics.fmean(r[2] for r in traced) / audio_s - rtf
        detail["untraced_end_to_end"] = end_to_end
        detail["first_call_s"] = tracer.first_call
        wanted = spec["per_layer"]
    else:
        layers = end_to_end
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": run["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
