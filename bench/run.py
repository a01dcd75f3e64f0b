"""Benchmark of the shleibniz verification engine.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics, ``--trace 1`` the per-layer ones (see bench/README.md).  Every pass
and every set-up runs in a fresh interpreter, one at a time.  Every job's
output is checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit code is
0 only when every job was correct.

``--write-reference`` stores the report digests of the default seed's jobs in
bench/reference.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
OUT = BENCH / "out"

DEFAULT_SEED = 0
MIN_SETUPS = 3
SETUP_SHARE = 0.2
MIN_PASSES = 3
COLD_REPEATS = 3
# worker.calibrate() on the reference host (bench/README.md) at its usual speed
REFERENCE_CALIBRATION_S = 0.1
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "verify_s": "s",
    "tuples_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}
RUNNER_COMMANDS = ("report-all", "check-sh", "check-codifferential")
# per-layer metrics read off span self times in the traced pass
SPAN_METRICS = (
    "document.parse",
    "derived.build_sh_structure",
    "derived.build_codifferential",
    "derived.check_sh_leibniz",
    "derived.check_codifferential",
    "derived.check_key_lemma",
    "multiop.nary_bracket",
    "multiop.n_i_d",
    "multiop.check_leibniz_identity",
    "coalgebra.hom_bracket",
    "coalgebra.check_dual_leibniz",
    "coalgebra.check_coderivation_axiom",
    "gauge.check_gauge_equivalence",
    "gauge.check_deformation",
    "report.render",
)
# kernel name -> name of its work count metric
KERNELS = {
    "coalgebra.comultiply": "coalgebra.comultiply_terms",
    "coalgebra.lift": "coalgebra.lift_terms",
    "gauge.exp_xi": "gauge.exp_xi_terms",
    "graded.signed_unshuffles": "graded.signed_unshuffles_count",
    "graded.element_arith": "graded.element_arith_ops",
}


class WorkerError(RuntimeError):
    pass


def worker(mode: str, spec: dict) -> dict:
    """Run one measurement in a fresh interpreter and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), mode],
        input=json.dumps(spec),
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def job_key(job, text: str) -> str:
    payload = json.dumps([job.command, job.spec()["options"], text])
    return hashlib.sha256(payload.encode()).hexdigest()


class Checker:
    """Counts attempted and failed jobs across every pass of a run."""

    def __init__(self, workload, reference: dict):
        self.workload = workload
        self.keys = [job_key(job, workload.docs[job.doc]) for job in workload.jobs]
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, results: list[dict]) -> None:
        jobs = self.workload.jobs
        self.attempted += len(jobs)
        bad: set[int] = set()

        def fail(index: int, why: str) -> None:
            bad.add(index)
            self.failures.append(f"{jobs[index].command} {jobs[index].doc}: {why}")

        routes: dict[str, dict[str, int]] = {}
        for index, (job, key, got) in enumerate(zip(jobs, self.keys, results)):
            if "error" in got:
                fail(index, f"raised {got['error']}")
                continue
            routes.setdefault(job.doc, {})[job.command] = index
            if got["passed"] != job.expect_pass:
                fail(index, f"verdict {got['passed']}, expected {job.expect_pass}")
            elif key in self.reference and self.reference[key]["digest"] != got["digest"]:
                fail(index, "report differs from the reference")
        # the sh identities and the squared codifferential fail together, from
        # the same lowest weight on (weight = word length + 1)
        for pair in routes.values():
            if len(pair) == 2:
                sh = results[pair["check-sh"]]["first_weight"]
                cod = results[pair["check-codifferential"]]["first_weight"]
                if sh != cod:
                    fail(pair["check-codifferential"], f"first failing weight {cod}, check-sh {sh}")
        self.failed += len(bad)


def load_reference() -> dict:
    if REFERENCE.is_file():
        return json.loads(REFERENCE.read_text(encoding="utf-8"))
    return {}


def pass_spec(workload) -> dict:
    return {
        "docs": workload.docs,
        "jobs": [job.spec() for job in workload.jobs],
        "probes": [job.spec() for job in workload.probes],
    }


def measure_end_to_end(workload, seconds: float, checker: Checker) -> dict:
    from shleibniz.document import parse_document

    import workloads

    spec = pass_spec(workload)
    spec["probes"] = []
    setup_spec = {"docs": workload.docs}
    setups: list[dict] = []
    passes: list[dict] = []
    walls: list[float] = []
    setup_wall = 0.0
    started = time.perf_counter()
    # set-ups interleave with the passes, so both see the same machine, and
    # take about SETUP_SHARE of the run
    while True:
        began = time.perf_counter()
        time_up = len(passes) >= MIN_PASSES and (
            began - started + statistics.median(walls) > seconds
        )
        if time_up and len(setups) >= MIN_SETUPS:
            break
        if time_up or setup_wall <= SETUP_SHARE * (began - started):
            setups.append(worker("setup", setup_spec))
            setup_wall += time.perf_counter() - began
        else:
            passes.append(worker("pass", spec))
            walls.append(time.perf_counter() - began)
            checker.check(passes[-1]["jobs"])

    docs = {name: parse_document(text) for name, text in workload.docs.items()}
    tuples = sum(workloads.scope(docs[j.doc], j.command, j.options) for j in workload.jobs)
    verify_s = statistics.median(at_reference_speed(p, "verify_s") for p in passes)
    return {
        "verify_s": verify_s,
        "tuples_per_s": tuples / verify_s,
        "setup_s": statistics.median(at_reference_speed(s, "setup_s") for s in setups),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "ok_share": 1 - checker.failed / checker.attempted,
        "_tuples": tuples,
        "_wall_verify_s": statistics.median(p["verify_s"] for p in passes),
        "_wall_setup_s": statistics.median(s["setup_s"] for s in setups),
        "_calibration_s": statistics.median(p["calibration_s"] for p in passes + setups),
        "_passes": len(passes),
        "_setups": len(setups),
    }


def at_reference_speed(result: dict, key: str) -> float:
    """A measured wall time scaled to the machine speed at which the
    worker's calibration loop takes REFERENCE_CALIBRATION_S."""
    return result[key] * REFERENCE_CALIBRATION_S / result["calibration_s"]


def cold_validate_s(text: str) -> float:
    """Wall time of `shleibniz validate -` in a new process, median of a few."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    times = []
    for _ in range(COLD_REPEATS):
        began = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "shleibniz.cli", "validate", "-"],
            input=text,
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=env,
            timeout=WORKER_TIMEOUT_S,
        )
        times.append(time.perf_counter() - began)
        if proc.returncode != 0:
            raise WorkerError(f"validate exited {proc.returncode}: {proc.stderr.strip()}")
    return statistics.median(times)


def measure_layers(workload, seed: int, checker: Checker) -> dict:
    import workloads

    spec = pass_spec(workload)
    plain = worker("pass", spec)
    checker.check(plain["jobs"])
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload.name}-seed{seed}.jsonl"
    traced = worker("trace", dict(spec, trace_file=str(trace_file)))
    checker.check(traced["jobs"])
    sh_const = {
        job.doc: job.options.max_const
        for job in workload.jobs
        if job.command in ("check-sh", "report-all") and workloads.has_family(workload.docs[job.doc])
    }
    kernels = worker(
        "kernels",
        {
            "docs": workload.docs,
            "kernel_doc": workload.kernel_doc,
            "comultiply_lengths": list(workload.comultiply_lengths),
            "lift_len": workload.lift_len,
            "sh_const": sh_const,
        },
    )

    metrics = {}
    for command in RUNNER_COMMANDS:
        runs = [r["s"] for j, r in zip(workload.jobs, plain["jobs"]) if j.command == command]
        runs += [r["s"] for j, r in zip(workload.probes, plain["probes"]) if j.command == command]
        metrics[f"runner.{command}_s"] = sum(runs)
    metrics["cli.cold_validate_s"] = cold_validate_s(workload.docs[workload.kernel_doc])
    for name in SPAN_METRICS:
        metrics[f"{name}_s"] = traced["self_s"].get(name, 0.0)
    for name, count_name in KERNELS.items():
        seconds, count = kernels[name]
        metrics[f"{name}_s"] = seconds
        metrics[count_name] = count
    metrics["derived.l_density"] = kernels["derived.l_density"]
    metrics["derived.sh_live_ratio"] = kernels["derived.sh_live_ratio"]
    metrics["trace.coverage"] = traced["coverage"]
    metrics["trace.overhead"] = traced["traced_s"] / plain["verify_s"]
    metrics["_spans"] = traced["spans"]
    return metrics


def layer_units() -> dict[str, str]:
    units = {f"runner.{c}_s": "s" for c in RUNNER_COMMANDS}
    units["cli.cold_validate_s"] = "s"
    units.update({f"{name}_s": "s" for name in SPAN_METRICS})
    for name, count_name in KERNELS.items():
        units[f"{name}_s"] = "s"
        units[count_name] = "count"
    units.update(
        {
            "derived.l_density": "ratio",
            "derived.sh_live_ratio": "ratio",
            "trace.coverage": "ratio",
            "trace.overhead": "ratio",
        }
    )
    return units


def write_reference() -> None:
    import workloads

    reference = {}
    for name in workloads.MAKERS:
        workload = workloads.build(name, DEFAULT_SEED)
        results = worker("pass", dict(pass_spec(workload), probes=[]))["jobs"]
        for job, got in zip(workload.jobs, results):
            if "error" in got or got["passed"] != job.expect_pass:
                raise SystemExit(f"{name}: {job.command} {job.doc} is not as expected: {got}")
            reference[job_key(job, workload.docs[job.doc])] = {
                "job": f"{name} {job.command} {job.doc}",
                "digest": got["digest"],
            }
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("corpus", "sh-sparse", "sh-dense"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "shleibniz" / "__init__.py").is_file():
        print(f"error: no engine sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    import workloads

    workload = workloads.build(args.workload, args.seed)
    checker = Checker(workload, load_reference())
    try:
        if args.trace:
            metrics = measure_layers(workload, args.seed, checker)
            units = layer_units()
        else:
            metrics = measure_end_to_end(workload, args.seconds, checker)
            units = END_TO_END_UNITS
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = checker.attempted
    print(f"workload {workload.name}, seed {args.seed}, jobs {len(workload.jobs)}")
    for key, value in metrics.items():
        if key.startswith("_"):
            print(f"  ({key[1:]}: {value})")
    for key in units:
        print(f"  {key}: {metrics[key]:.6g} {units[key]}")
    print(f"  fail_share: {checker.failed / attempted:.6g} ({checker.failed} of {attempted} jobs)")
    for failure in checker.failures:
        print(f"  FAILED {failure}")
    result = {
        "correct": checker.failed == 0,
        "attempted": attempted,
        "failed": checker.failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }
    print(json.dumps(result))
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
