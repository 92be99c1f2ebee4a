"""Benchmark of gnlstab's certified pipeline.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; gnlstab is imported from the
checkout's ``src/``.  One process runs one workload: a single client in a
closed loop calls ``gnlstab.cli.main`` in-process, starting the next op
when the previous one has returned, for about ``--seconds`` (an op is not
started when the previous op's duration says it would end past the
deadline; at least one op always runs).  BLAS and OpenMP are pinned to one
thread before numpy is imported: on a two-core machine more threads
measure the scheduler, not gnlstab.

``--trace 0`` reports the end-to-end metrics (op_s, setup_s, peak_rss_mb).
``--trace 1`` runs the same ops untraced for half the time and traced for
the other half, and reports the per-layer metrics plus the tracing
overhead; it fails unless the traced report files are byte-identical to
the untraced ones and every wrapped attribute is restored.  Every op's
physics outputs are checked against ``reference.json``.  The last stdout
line is one JSON object with keys correct, attempted, failed, metrics;
details (environment, samples, failures, spans) go to
``.perfbench_out/<workload>/`` in the checkout.  ``--workload all`` runs
every workload in its own process and prints a table.
"""
from __future__ import annotations

import os

# must precede the first numpy import, in this process and in its children
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import physics  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload, run_commands  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"

#: fresh interpreters timed per run for setup_s (the median is reported)
SETUP_REPEATS = 9

END_TO_END_UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
#: per-layer metrics in the result line; the seconds of layers that some
#: workload never calls (scan.eig_s, scan.crosscheck_s, scan.row_s, evolve.s,
#: evolve.step_us, serialize.load_s) appear as shares and rates instead,
#: and in full in the result file
PER_LAYER_UNITS = {
    "waves.s": "s",
    "waves.minimize_calls": "count",
    "waves.newton_s": "s",
    "waves.failed": "count",
    "spectral.basis_matrix_calls": "count",
    "spectral.basis_matrix_s": "s",
    "hill.build_hill_calls": "count",
    "hill.build_block_calls": "count",
    "hill.assembly_self_s": "s",
    "hill.eigh_calls": "count",
    "hill.eigh_s": "s",
    "scan.rows": "count",
    "scan.bisection_rows": "count",
    "scan.row_rate": "1/s",
    "scan.eig_calls": "count",
    "scan.eig_dim": "count",
    "scan.eig_pct": "%",
    "scan.eig_gflop": "GFLOP",
    "scan.eig_gflops_per_s": "GFLOP/s",
    "scan.crosscheck_pct": "%",
    "scan.hypotheses_calls": "count",
    "scan.hypotheses_eigh_calls": "count",
    "scan.hypotheses_eigh_s": "s",
    "scan.hypotheses_s": "s",
    "evolve.pct": "%",
    "evolve.steps": "count",
    "evolve.steps_per_s": "1/s",
    "serialize.s": "s",
    "serialize.report_bytes": "B",
    "serialize.load_pct": "%",
    "cli.self_s": "s",
    "trace.op_s": "s",
    "trace.overhead_s": "s",
}


def say(text: str) -> None:
    print(f"perfbench {text}", flush=True)


def import_cli():
    """gnlstab.cli from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import gnlstab.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import gnlstab from {SRC}: {exc}")
    origin = Path(gnlstab.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: gnlstab was imported from {origin}, not from {SRC}")
    return gnlstab.cli


def _openblas_threads(package) -> int | None:
    """Thread count reported by the OpenBLAS bundled with ``package``."""
    libs = Path(package.__file__).parent.with_name(package.__name__ + ".libs")
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    for package in (numpy, scipy):
        try:
            info = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            info = {}
        blas[package.__name__] = {
            "name": info.get("name", "unknown"),
            "version": info.get("version", "unknown"),
            "threads": _openblas_threads(package),
        }
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": PINNED_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
    }


def workload_shape(workload: Workload, seed: int) -> dict:
    from gnlstab import FULL, SINE, ParityBasis, build_grid

    kind = {"full": FULL, "odd": SINE}[workload.sector]
    d = ParityBasis(kind, build_grid(1.0, workload.modes)).dimension
    shape = {"N": workload.modes, "sector": workload.sector, "d": d,
             "kappa_steps": workload.kappa_steps}
    if workload.kappa_steps:
        shape["kappa_start"] = workload.kappa_start(seed)
    return shape


def measure_setup() -> float:
    """Seconds from starting a fresh interpreter until ``import gnlstab`` returns."""
    code = "import sys, time; sys.path.insert(0, sys.argv[1]); import gnlstab; print(time.time())"
    start = time.time()
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout.split()[-1]) - start


def _reset(out: Path) -> None:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)


def _files(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _size(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir())


def run_phase(cli, workload, seed, seconds, out, reference, tracer=None, between=None) -> list:
    """Closed loop of ops for about ``seconds``; one record per op.

    ``between()``, when given, runs before each op; its time does not count
    toward ``seconds``.
    """
    commands = workload.commands(seed, workload.modes, out)
    expected = reference["workloads"][workload.name]
    around = None
    if tracer is not None:
        def around(argv):
            return tracer.span("cli.main", "cli")
    records = []
    start = time.perf_counter()
    while True:
        if between is not None:
            t0 = time.perf_counter()
            between()
            start += time.perf_counter() - t0
        _reset(out)
        if tracer is not None:
            tracer.op = len(records)
        t0 = time.perf_counter()
        codes, text, error = run_commands(cli.main, commands, around)
        elapsed = time.perf_counter() - t0
        problems = []
        if error is not None:
            problems.append(f"uncaught {error}")
        elif any(codes) or len(codes) != len(commands):
            problems.append(f"exit codes {codes}: {text.strip().splitlines()[-1:]}")
        else:
            try:
                observed = physics.observe(workload.kind, out)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"unreadable report: {type(exc).__name__}: {exc}")
            else:
                problems += physics.check(observed, expected, reference["tolerances"],
                                          seed == DEFAULT_SEED)
        # only the first op's bytes are kept (tracer self-check), so the
        # benchmark's own memory does not grow with the op count
        records.append({
            "seconds": elapsed,
            "problems": problems,
            "bytes": _size(out),
            "files": None if records else _files(out),
        })
        if time.perf_counter() - start + elapsed > seconds:
            return records


def tail(samples: list) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 11:
        return f"no percentile has 10 samples beyond it (n={n} ops)"
    k = n - 10
    return f"p{100.0 * k / n:.1f} {sorted(samples)[k - 1]:.4f} s (n={n} ops)"


def report_failures(records: list, label: str) -> int:
    failed = 0
    for i, record in enumerate(records):
        if record["problems"]:
            failed += 1
            say(f"FAILED {label} op {i}: " + "; ".join(record["problems"]))
    return failed


def run_workload(args) -> int:
    cli = import_cli()
    workload = WORKLOADS[args.workload]
    reference = physics.load_reference()
    out_dir = OUT_ROOT / workload.name
    env = environment()
    shape = workload_shape(workload, args.seed)
    say(f"env {json.dumps(env)}")
    say(f"workload {workload.name} seed={args.seed} {json.dumps(shape)}")

    warm_codes, _, warm_error = run_commands(
        cli.main, workload.commands(args.seed, workload.warmup_modes, out_dir / "warmup")
    )
    if warm_error or any(warm_codes):
        say(f"warm-up at N={workload.warmup_modes} did not pass: {warm_codes} {warm_error}")

    run_dir = out_dir / "op"
    result = {"workload": workload.name, "seed": args.seed, "env": env, "shape": shape}
    if not args.trace:
        # set-up samples are spread over the run, one before each op, so
        # they see the same machine load as the ops
        setup = []

        def sample_setup():
            if len(setup) < SETUP_REPEATS:
                setup.append(measure_setup())

        records = run_phase(cli, workload, args.seed, args.seconds, run_dir, reference,
                            between=sample_setup)
        while len(setup) < SETUP_REPEATS:
            sample_setup()
        result["setup_samples"] = setup
        failed = report_failures(records, "untraced")
        samples = [r["seconds"] for r in records]
        metrics = {
            "op_s": statistics.median(samples),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        say(f"op_s median {metrics['op_s']:.4f} s; {tail(samples)}")
        say(f"failed_frac {failed}/{len(records)} = {failed / len(records):g}")
        attempted, correct = len(records), failed == 0
        result["op_samples"] = samples
    else:
        half = 0.5 * args.seconds
        plain = run_phase(cli, workload, args.seed, half, run_dir, reference)
        tracer = Tracer(time.perf_counter)
        tracer.install()
        try:
            traced = run_phase(cli, workload, args.seed, half, run_dir, reference, tracer)
        finally:
            unrestored = tracer.uninstall()
        failed = report_failures(plain, "untraced") + report_failures(traced, "traced")
        self_check = tracer.problems() + [f"{name} not restored" for name in unrestored]
        if traced[0]["files"] != plain[0]["files"]:
            self_check.append("traced report files differ from the untraced ones")
        for problem in self_check:
            say(f"TRACER CHECK FAILED: {problem}")
        per_op = []
        for op, record in enumerate(traced):
            values = layer_metrics(tracer, op)
            values["serialize.report_bytes"] = record["bytes"]
            per_op.append(values)
        metrics = {key: statistics.median(v[key] for v in per_op) for key in per_op[0]}
        plain_s = statistics.median(r["seconds"] for r in plain)
        metrics["trace.op_s"] = statistics.median(r["seconds"] for r in traced)
        metrics["trace.overhead_s"] = metrics["trace.op_s"] - plain_s
        units = PER_LAYER_UNITS
        op_s = metrics["trace.op_s"]
        say(f"traced op_s {op_s:.4f} s, untraced {plain_s:.4f} s, "
            f"overhead {metrics['trace.overhead_s']:+.4f} s")
        say("layers " + json.dumps({k: round(v, 6) for k, v in metrics.items()}))
        say(f"share of traced op_s: scan.eig_s {metrics['scan.eig_s'] / op_s:.1%}, "
            f"hill.eigh_s + scan.hypotheses_eigh_s "
            f"{(metrics['hill.eigh_s'] + metrics['scan.hypotheses_eigh_s']) / op_s:.1%}")
        attempted = len(plain) + len(traced)
        correct = failed == 0 and not self_check
        result["tracer_problems"] = self_check
        (out_dir / "trace_spans.json").write_text(json.dumps(tracer.records()), encoding="utf-8")

    result["metrics"] = metrics
    (out_dir / f"result_trace{int(args.trace)}.json").write_text(
        json.dumps(result, indent=1), encoding="utf-8"
    )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; a table of its metrics."""
    rows = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"perfbench: workload {name} exited with {done.returncode}")
        rows[name] = json.loads(done.stdout.strip().splitlines()[-1])
    for name, row in rows.items():
        cells = [f"{k} {m['value']:.6g} {m['unit']}" for k, m in row["metrics"].items()]
        cells.append(f"failed_frac {row['failed'] / row['attempted']:g} "
                     f"({row['failed']}/{row['attempted']} ops)")
        print(f"{name}: " + ", ".join(cells))
    print(json.dumps({
        "correct": all(r["correct"] for r in rows.values()),
        "attempted": sum(r["attempted"] for r in rows.values()),
        "failed": sum(r["failed"] for r in rows.values()),
        "metrics": {name: r["metrics"] for name, r in rows.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
