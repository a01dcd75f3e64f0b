"""One measurement in a fresh interpreter; ``run.py`` starts one per pass.

Usage: ``python3 bench/worker.py <setup|pass|trace|kernels>`` with a JSON
spec on standard input; prints one JSON object on standard output.  The
engine is imported inside each mode, so ``setup`` can time the import and no
cache survives from one measurement to the next.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

KERNEL_REPEATS = 5


def report_digest(text: str) -> str:
    """Digest of a text report without its elapsed line."""
    kept = [line for line in text.splitlines() if not line.startswith("elapsed:")]
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()


def _first_failing_weight(report) -> int | None:
    """Lowest weight of a failing sh identity, read off either route.

    Only the lowest weight is comparable: a failure at weight w makes the
    squared codifferential nonzero on longer words too, through the subwords
    it acts on, while the sh identities of higher weight may still hold.
    """
    violations = [v for r in report.results for v in r.violations]
    if report.command == "check-sh":
        return min((v.site[0] for v in violations), default=None)
    if report.command == "check-codifferential":
        return min((len(v.site) + 1 for v in violations), default=None)
    return None


def _run_job(docs: dict, job: dict, around=contextlib.nullcontext) -> dict:
    """run_command plus render_text, as a user waits for them, timed."""
    from shleibniz.report import render_text
    from shleibniz.runner import RunOptions, run_command

    options = RunOptions(**job["options"])
    started = time.perf_counter()
    try:
        with around():
            report = run_command(job["command"], docs[job["doc"]], options)
            text = render_text(report)
    except Exception as exc:  # recorded as a failed job, never fatal
        return {"s": time.perf_counter() - started, "error": repr(exc)}
    return {
        "s": time.perf_counter() - started,
        "passed": report.passed,
        "digest": report_digest(text),
        "first_weight": _first_failing_weight(report),
    }


def calibrate() -> float:
    """Seconds for a fixed Fraction-and-dict loop that never touches the engine.

    Every measuring process times it before importing the engine and again
    after the measured work; run.py scales measured times by it, so that a
    slow spell of the machine does not read as a slower engine.
    """
    started = time.perf_counter()
    acc: dict[tuple[int, int], Fraction] = {}
    for i in range(1, 20000):
        key = (i % 7, i % 5)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 13 - 6, i % 11 + 1)
    return time.perf_counter() - started


def mode_setup(spec: dict) -> dict:
    before = calibrate()
    started = time.perf_counter()
    import shleibniz  # noqa: F401
    import shleibniz.cli  # noqa: F401
    from shleibniz import build_codifferential, build_sh_structure, parse_document

    for text in spec["docs"].values():
        doc = parse_document(text)
        fam = doc.to_family()
        doc.to_gauge()
        if fam is not None:
            build_sh_structure(fam)
            build_codifferential(fam)
    setup_s = time.perf_counter() - started
    return {"setup_s": setup_s, "calibration_s": (before + calibrate()) / 2}


def mode_pass(spec: dict) -> dict:
    before = calibrate()
    import shleibniz  # noqa: F401

    jobs = [_run_job(spec["docs"], job) for job in spec["jobs"]]
    probes = [_run_job(spec["docs"], job) for job in spec["probes"]]
    return {
        "verify_s": sum(j["s"] for j in jobs),
        "calibration_s": (before + calibrate()) / 2,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": jobs,
        "probes": probes,
    }


def mode_trace(spec: dict) -> dict:
    import shleibniz  # noqa: F401

    import spans

    recorder = spans.Recorder()
    spans.install(recorder)
    job_span = functools.partial(recorder.span, "job")
    probe_span = functools.partial(recorder.span, "probe")
    jobs = [_run_job(spec["docs"], job, job_span) for job in spec["jobs"]]
    for job in spec["probes"]:
        _run_job(spec["docs"], job, probe_span)
    recorder.write(spec["trace_file"])
    return {
        "traced_s": sum(j["s"] for j in jobs),
        "jobs": jobs,
        "self_s": recorder.self_times(),
        "coverage": recorder.coverage(),
        "spans": len(recorder.spans),
    }


def _timed(kernel, *args) -> tuple[float, int]:
    """Median time of KERNEL_REPEATS calls, and the work count they report."""
    times, counts = [], set()
    for _ in range(KERNEL_REPEATS):
        started = time.perf_counter()
        counts.add(kernel(*args))
        times.append(time.perf_counter() - started)
    if len(counts) != 1:
        raise RuntimeError(f"{kernel.__name__} counted {sorted(counts)} on repeats")
    return statistics.median(times), counts.pop()


def _words(d: int, lengths) -> list[tuple[int, ...]]:
    return [w for n in lengths for w in itertools.product(range(d), repeat=n)]


def k_comultiply(basis, words) -> int:
    from shleibniz import comultiply

    return sum(len(comultiply(basis, w).terms) for w in words)


def k_lift(spec, words) -> int:
    from shleibniz import evaluate_coderivation

    return sum(len(evaluate_coderivation(spec, w).terms) for w in words)


def k_exp_xi(spec, words) -> int:
    from shleibniz import exp_xi

    return sum(len(exp_xi(spec, w).terms) for w in words)


def k_signed_unshuffles() -> int:
    """unshuffles + koszul_sign over every split with p + q <= 5, every parity."""
    from shleibniz import koszul_sign, unshuffles

    count = 0
    for n in range(1, 6):
        for parities in itertools.product((0, 1), repeat=n):
            for p in range(n + 1):
                for sigma in unshuffles(p, n - p):
                    koszul_sign(sigma, parities)
                    count += 1
    return count


def k_element_arith(basis) -> int:
    """Element and TensorElement add, scale and subtract on every pair."""
    from shleibniz import Element, TensorElement

    d = len(basis)
    vectors = [Element(basis, {i: Fraction(i + 1, 2)}) for i in range(d)]
    tensors = [TensorElement(basis, {w: Fraction(sum(w) + 1, 3)}) for w in _words(d, (2,))]
    ops = 0
    for group in (vectors, tensors):
        for x, y in itertools.product(group, repeat=2):
            (x + y).scale(3) - y
            ops += 3
    return ops


def _live_ratio(structure, max_const: int) -> tuple[int, int]:
    """Tuples of the sh identities up to max_const with some inner key
    (the arguments of the inner l_j) among l_j's nonzero constants."""
    ops = structure.ops
    d = len(structure.basis)
    live = total = 0
    for w in range(2, max_const + 1):
        pairs = [(w - j, j) for j in range(1, w) if w - j <= len(ops) and j <= len(ops)]
        if not pairs:
            continue
        for xs in itertools.product(range(d), repeat=w - 1):
            total += 1
            live += any(
                tuple(xs[p] for p in inner) + (xs[k - 1],) in ops[j - 1].constants
                for _, j in pairs
                for k in range(j, w)
                for inner in itertools.combinations(range(k - 1), j - 1)
            )
    return live, total


def mode_kernels(spec: dict) -> dict:
    from shleibniz import build_codifferential, build_sh_structure, build_xi, parse_document

    docs = {name: parse_document(text) for name, text in spec["docs"].items()}
    kernel = docs[spec["kernel_doc"]]
    basis = kernel.to_basis()
    fam = kernel.to_family()
    d = len(basis)
    out = {}
    words = _words(d, spec["comultiply_lengths"])
    out["coalgebra.comultiply"] = _timed(k_comultiply, basis, words)
    short = _words(d, range(1, spec["lift_len"] + 1))
    out["coalgebra.lift"] = _timed(k_lift, build_codifferential(fam), short)
    out["gauge.exp_xi"] = _timed(k_exp_xi, build_xi(kernel.to_gauge()), short)
    out["graded.signed_unshuffles"] = _timed(k_signed_unshuffles)
    out["graded.element_arith"] = _timed(k_element_arith, basis)

    nonzero = tabulated = live = enumerated = 0
    for name, doc in docs.items():
        fam = doc.to_family()
        if fam is None:
            continue
        structure = build_sh_structure(fam)
        n = len(doc.basis)
        nonzero += sum(len(op.constants) for op in structure.ops)
        tabulated += sum(n**i for i in range(1, len(structure.ops) + 1))
        const = spec["sh_const"].get(name)
        if const:
            a, b = _live_ratio(structure, const)
            live, enumerated = live + a, enumerated + b
    out["derived.l_density"] = nonzero / tabulated
    out["derived.sh_live_ratio"] = live / enumerated
    return out


MODES = {"setup": mode_setup, "pass": mode_pass, "trace": mode_trace, "kernels": mode_kernels}

if __name__ == "__main__":
    spec = json.load(sys.stdin)
    print(json.dumps(MODES[sys.argv[1]](spec)))
