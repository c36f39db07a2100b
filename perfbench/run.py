"""qnsem benchmark: seeded verification workloads, timed end to end, with a
separate traced run for per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload paper_demo --seed 0 --seconds 30 --trace 0

or, for every workload's wall_s, setup_s, peak_rss_mb and fail_frac:

    for w in paper_demo lattice_search formula_dag; do
        python3 perfbench/run.py --workload $w --seed 0 --seconds 30 --trace 0 | tail -3
    done

Workloads (see BENCHMARK.json for why each was chosen): ``paper_demo``,
``lattice_search`` and ``formula_dag``.  A workload is a list of jobs; a pass
runs every job once.  With ``--trace 0`` the benchmark sets up (import,
inputs, warm-up; timed here and in two fresh processes), then repeats passes
until ``--seconds`` would be exceeded, at least twice, and reports the median
pass as ``wall_s``.  With ``--trace 1`` it runs one plain pass and two traced
passes, reports the per-layer metrics of the last one and saves its spans
under ``.bench_out/``; the two traced passes must agree on every count.

Every job's output is checked against a known answer after its pass; a job
that raises or answers wrongly is counted in ``failed`` and the run goes on.
``correct`` is false when an answer is wrong, when a job raises (except a
RecursionError of a job its workload tolerates, see ``Workload.tolerated``),
when passes disagree or when traced counts differ.
The last three lines of output are ``summary {...}`` (pass times, fail_frac,
failed jobs, digests of the checked outputs and counts), ``env {...}`` and
the result object.
"""

from __future__ import annotations

import os

# single-threaded BLAS, fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper_demo", "lattice_search", "formula_dag")
SETUP_SAMPLES = 3
MIN_PASSES = 2
TRACED_PASSES = 2
# counts that must repeat exactly between two traced passes
EXACT_SUFFIXES = (".calls", ".rows", ".nodes", "valuations_visited")


def set_up(workload: str, seed: int):
    """Import qnsem, build the inputs and run one smallest job per class."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import qnsem
    except ImportError as exc:
        sys.exit(f"cannot import qnsem from {ROOT / 'src'}: {exc}")
    if Path(qnsem.__file__).resolve().parent != ROOT / "src" / "qnsem":
        sys.exit(f"qnsem was imported from {qnsem.__file__}, not from this checkout")
    import workloads

    built = workloads.build(workload, seed, ROOT)
    for job in built.warmup:
        try:
            job.run()
        except Exception:  # the measured passes record the failure
            pass
    return built, time.perf_counter() - start


def setup_in_fresh_process(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        capture_output=True, text=True, timeout=170, cwd=ROOT, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_pass(jobs) -> tuple[list[float], list]:
    """Run every job once, timing only its program calls."""
    gc.collect()
    times, outputs = [], []
    for job in jobs:
        start = time.perf_counter()
        try:
            outputs.append((True, job.run()))
        except Exception as exc:  # recorded per job; the run goes on
            outputs.append((False, type(exc).__name__))
        times.append(time.perf_counter() - start)
    return times, outputs


class Verdicts:
    """Failures, wrong answers and the per-pass digest of the checked outputs."""

    def __init__(self, tolerated: frozenset[str]):
        self.tolerated = tolerated
        self.attempted = 0
        self.failed: dict[str, str] = {}
        self.failures = 0
        self.wrong: dict[str, str] = {}
        self.digests: set[str] = set()

    def check(self, jobs, outputs) -> None:
        import known  # after set-up, which times the first numpy import

        summary = []
        for job, (ok, out) in zip(jobs, outputs):
            self.attempted += 1
            if not ok:
                self.failed[job.id] = out
                self.failures += 1
                summary.append((job.id, "raised", out))
                if not (out == "RecursionError" and job.id in self.tolerated):
                    self.wrong[job.id] = f"raised {out}"
                continue
            try:
                summary.append((job.id, job.check(out)))
            except known.WrongVerdict as exc:
                self.wrong[job.id] = str(exc)
            except Exception as exc:  # a malformed output is a wrong answer too
                self.wrong[job.id] = f"{type(exc).__name__}: {exc}"
            if job.id in self.wrong:
                self.failed[job.id] = "WrongVerdict"
                self.failures += 1
                summary.append((job.id, "wrong"))
        self.digests.add(hashlib.sha256(repr(summary).encode()).hexdigest())


def measure(built, seconds: float, verdicts: Verdicts) -> list[list[float]]:
    """Job times of each pass, passes repeated while the next fits in ``seconds``."""
    passes: list[list[float]] = []
    while len(passes) < MIN_PASSES or sum(map(sum, passes)) + sum(passes[-1]) <= seconds:
        times, outputs = run_pass(built.jobs)
        passes.append(times)
        verdicts.check(built.jobs, outputs)
    return passes


def traced_run(built, workload: str, seed: int, verdicts: Verdicts):
    import tracing

    cpu = time.process_time()
    _, outputs = run_pass(built.jobs)
    cpu = time.process_time() - cpu
    verdicts.check(built.jobs, outputs)

    tracer = tracing.install()
    layers = []
    for _ in range(TRACED_PASSES):
        mark = tracer.mark()
        _, outputs = run_pass(built.jobs)
        verdicts.check(built.jobs, outputs)
        layers.append(tracer.metrics(mark))
    tracer.write(ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.npz", mark)

    counts = [{k: v for k, v in layer.items() if k.endswith(EXACT_SUFFIXES)} for layer in layers]
    metrics = dict(layers[-1])
    metrics["process.cpu_s"] = cpu
    return metrics, tracing.LAYER_METRICS, all(c == counts[0] for c in counts), hashlib.sha256(
        json.dumps(counts[0], sort_keys=True).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    built, own_setup = set_up(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    verdicts = Verdicts(built.tolerated)
    selfcheck_ok = True
    try:
        built.selfcheck()
    except Exception as exc:  # an expected answer the slow reference disputes
        selfcheck_ok = False
        verdicts.wrong["selfcheck"] = f"{type(exc).__name__}: {exc}"

    summary: dict = {}
    if args.trace:
        metrics, units, counts_repeat, counts_digest = traced_run(built, args.workload, args.seed, verdicts)
        summary.update(counts_repeat=counts_repeat, counts_digest=counts_digest)
    else:
        setup = [own_setup] + [setup_in_fresh_process(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        passes = measure(built, args.seconds, verdicts)
        times = [sum(p) for p in passes]
        metrics = {
            "wall_s": statistics.median(times),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        counts_repeat = True
        summary.update(pass_s=times, setup_samples_s=setup)

    deterministic = len(verdicts.digests) == 1
    correct = selfcheck_ok and not verdicts.wrong and deterministic and counts_repeat
    summary.update(
        fail_frac=verdicts.failures / verdicts.attempted,
        failed_jobs=verdicts.failed,
        wrong=verdicts.wrong,
        passes_agree=deterministic,
        verdict_digest=sorted(verdicts.digests),
    )
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "QNSEM_TOL": os.environ.get("QNSEM_TOL"),
        "recursion_limit": sys.getrecursionlimit(),
    }
    print("summary " + json.dumps(summary, sort_keys=True))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": verdicts.attempted,
        "failed": verdicts.failures,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
