"""The benchmark's workloads: which documents, which commands, which flags.

A workload is a list of jobs, each one ``run_command`` call on one document.
Inputs are made from the seed alone: the shipped fixtures, and direct sums,
tensor products and perturbations built from them by ``gen``.  Every valid
generated input is checked at generation with the engine's own
``check-leibniz`` and ``check-deformation``.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from itertools import product

from shleibniz.document import AlgebraDocument, serialize_document
from shleibniz.fixtures import fixture_names, fixture_text, load_fixture
from shleibniz.runner import run_command, RunOptions

import gen

# report-all below the default flags (6, 4, 3): at the defaults one corpus
# pass takes about 24 s, too long to repeat within one run; these flags still
# reach every section of report-all on every fixture
CORPUS_OPTIONS = RunOptions(max_const=5, max_word_len=3, max_arity=2)

# identity weight per generated input; check-codifferential runs at word
# length max_const - 1, the same weights through the other route
SPARSE_SUMS = ((("endo2", "heis3w"), 4), (("heis3w", "heisab", "l2b"), 3))
DENSE_CONST = 4

_PREFIXES = ("a", "b", "p", "q", "u", "v", "x", "y")

# smallest scopes the commands accept, for the per-command probes
PROBE_OPTIONS = RunOptions(max_const=2, max_word_len=1, max_arity=1)


@dataclass
class Job:
    doc: str
    command: str
    options: RunOptions
    expect_pass: bool

    def spec(self) -> dict:
        return {"doc": self.doc, "command": self.command, "options": asdict(self.options)}


@dataclass
class Workload:
    name: str
    docs: dict[str, str]  # document name -> text, in run order
    jobs: list[Job]
    # document whose basis and operations feed the kernel measurements, the
    # word lengths the comultiplication kernel enumerates, and the longest
    # word the lift and exp_xi kernels see (the jobs' own word length)
    kernel_doc: str
    comultiply_lengths: tuple[int, ...]
    lift_len: int
    probes: list[Job] = field(default_factory=list)


def has_family(text: str) -> bool:
    return "[delta 0]" in text


def _validated(doc: AlgebraDocument) -> str:
    """Serialised text of a generated input that the engine accepts as valid."""
    text = serialize_document(doc)
    for command in ("check-leibniz", "check-deformation"):
        if not run_command(command, text).passed:
            raise RuntimeError(f"generated input {doc.name} fails {command}")
    return text


def _sh_pair(name: str, const: int, expect_pass: bool) -> list[Job]:
    return [
        Job(name, "check-sh", RunOptions(max_const=const), expect_pass),
        Job(name, "check-codifferential", RunOptions(max_word_len=const - 1), expect_pass),
    ]


def _probes(workload: Workload) -> list[Job]:
    """One smallest-scope call, on the smallest document, of every per-command
    metric's command that the workload's own jobs do not run, so that every
    per-command time is a measurement."""
    present = {job.command for job in workload.jobs}
    with_family = [n for n, text in workload.docs.items() if has_family(text)]
    smallest = min(with_family, key=lambda n: len(workload.docs[n]))
    return [
        Job(smallest, command, PROBE_OPTIONS, True)
        for command in ("report-all", "check-sh", "check-codifferential")
        if command not in present
    ]


def corpus(rng: random.Random) -> Workload:
    names = list(fixture_names())
    rng.shuffle(names)
    docs = {n: fixture_text(n) for n in names}
    jobs = [Job(n, "report-all", CORPUS_OPTIONS, True) for n in names]
    return Workload("corpus", docs, jobs, "endo2", (3, 4, 5), CORPUS_OPTIONS.max_word_len)


def sh_sparse(rng: random.Random) -> Workload:
    docs: dict[str, str] = {}
    jobs: list[Job] = []
    for summands, const in SPARSE_SUMS:
        order = list(summands)
        rng.shuffle(order)
        prefixes = [p + "_" for p in rng.sample(_PREFIXES, len(order))]
        name = "+".join(order)
        docs[name] = _validated(
            gen.direct_sum([load_fixture(s) for s in order], prefixes, name)
        )
        jobs += _sh_pair(name, const, True)
    kernel = next(iter(docs))
    return Workload("sh-sparse", docs, jobs, kernel, (3, 4), SPARSE_SUMS[0][1] - 1)


def sh_dense(rng: random.Random) -> Workload:
    products = {
        f"{base}xt": gen.tensor_dual_numbers(load_fixture(base), f"{base}xt")
        for base in ("endo2", "heis3w")
    }
    source, target = rng.choice(gen.perturbation_candidates(products["endo2xt"]))
    bad_name = f"endo2xt+{source}>{target}"
    bad = gen.perturb(products["endo2xt"], source, target, bad_name)
    entries = [(n, _validated(d), True) for n, d in products.items()]
    entries.append((bad_name, serialize_document(bad), False))
    rng.shuffle(entries)
    docs = {n: text for n, text, _ in entries}
    jobs = [job for n, _, ok in entries for job in _sh_pair(n, DENSE_CONST, ok)]
    return Workload("sh-dense", docs, jobs, "endo2xt", (3, 4), DENSE_CONST - 1)


MAKERS = {"corpus": corpus, "sh-sparse": sh_sparse, "sh-dense": sh_dense}


def build(name: str, seed: int) -> Workload:
    workload = MAKERS[name](random.Random(seed))
    workload.probes = _probes(workload)
    return workload


def _words(d: int, max_len: int) -> int:
    return sum(d**n for n in range(1, max_len + 1))


def scope(doc: AlgebraDocument, command: str, options: RunOptions) -> int:
    """Basis tuples and tensor words the command's checks enumerate.

    Computed from dimension, family order, the nonzero shipped derivations and
    the scope flags alone, so no change to the engine can move it.
    """
    d = len(doc.basis)
    n_ops = len(doc.deltas)  # l_1 .. l_{order+1}
    sh = sum(d ** (w - 1) for w in range(2, options.max_const + 1) if w <= 2 * n_ops)
    codiff = _words(d, options.max_word_len)
    if command == "check-sh":
        return sh
    if command == "check-codifferential":
        return codiff
    if command != "report-all":
        raise ValueError(f"no scope formula for {command}")
    deltas = [e for e in doc.deltas if e]
    gauges = [e for e in doc.gauges if e]
    words = _words(d, options.max_word_len)
    total = d**3  # Leibniz identity on every triple
    # dual-Leibniz coassociativity, then the coderivation axiom for the bracket
    # and every nonzero delta and gauge generator
    total += words * (2 + len(deltas) + len(gauges))
    if doc.deltas:
        total += len(doc.deltas) * (d * d + d)  # derivation rule, square-zero ladder
        total += sh + codiff
        pool = len(set(deltas)) + len(set(gauges))
        arities = range(1, options.max_arity + 1)
        total += pool**2 * sum(d ** (i + j - 1) for i, j in product(arities, arities))
        if doc.gauges:
            total += 3 * words  # conjugation, comultiplicativity, inverse per word
    return total
