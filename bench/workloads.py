"""The three workloads. Each is driven by one closed-loop client: the next
call starts only after the previous one has returned, in this process,
with no threads or pools; the `verify` child process runs while the
parent waits.

A workload builds its inputs in `setup`, runs one measured operation per
`op` call and checks the outputs of each operation outside its timing.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import process_time

import corpus
import gates
from harness import SpeedMeter, cpu_seconds, peak_rss_mb, span

# Longest a single CLI subprocess may take before it counts as hung.
SUBPROCESS_TIMEOUT_S = 150


@dataclass
class Op:
    """One measured operation: a verify run, a monotonicity sweep or a corpus pass.

    `wall` and `cpu` are raw seconds, `calibrated` is `wall` in ref_s
    (see harness.SpeedMeter)."""

    wall: float
    calibrated: float
    cpu: float
    items: int
    attempted: int
    problems: list = field(default_factory=list)
    failed: int = 0
    latencies: list = field(default_factory=list)


def program_env(root: Path) -> dict:
    """Environment for a `python -m gaindex` child that runs the checkout's source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def cli_command(*argv: str) -> list:
    return [sys.executable, "-m", "gaindex", *argv]


def run_cli(meter: SpeedMeter, root: Path, command: list, stderr) -> tuple:
    """Run a CLI child to its end while the parent waits, stopped whenever
    `meter` samples its speed; returns (exit code, stdout bytes)."""
    proc = subprocess.Popen(command, cwd=root, env=program_env(root),
                            stdout=subprocess.PIPE, stderr=stderr)
    meter.watch(proc, SUBPROCESS_TIMEOUT_S)
    try:
        stdout = proc.stdout.read()
        proc.stdout.close()
        return proc.wait(), stdout
    finally:
        meter.watch(None)


class Workload:
    """What the three workloads share; `item` names what items_per_s counts."""

    item = ""

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir

    def setup(self, gx, seed: int) -> None:
        """Build the inputs from `seed`, with `gx` the freshly imported gaindex."""

    def op(self, tracer, request) -> Op:
        raise NotImplementedError

    def finish(self) -> list:
        """Checks run once after the measured operations, as a list of Ops."""
        return []

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()


class Verify(Workload):
    """`gaindex verify 3..12 --format json` as a subprocess, start-up included."""

    item = "classes"

    def __init__(self, root: Path, workdir: Path):
        super().__init__(root, workdir)
        lo, hi = gates.VERIFY_ORDERS
        self.command = cli_command("verify", f"{lo}..{hi}", "--format", "json")

    def op(self, tracer, request) -> Op:
        cpu0 = cpu_seconds(resource.RUSAGE_CHILDREN)
        with open(self.workdir / "verify.stderr", "wb") as err, SpeedMeter() as meter:
            with span(tracer, "cli.verify", request):
                returncode, stdout = run_cli(meter, self.root, self.command, err)
        cpu = cpu_seconds(resource.RUSAGE_CHILDREN) - cpu0
        problems = gates.check_verify(returncode, stdout)
        items = 0 if problems else sum(gates.A001429.values())
        return Op(meter.wall, meter.calibrated, cpu, items, attempted=1, problems=problems,
                  failed=int(bool(problems)))

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(resource.RUSAGE_CHILDREN)


class Monotonicity(Workload):
    """`verify_monotonicity(n)` in process for every order in MONOTONICITY_ORDERS."""

    item = "applications"

    def __init__(self, root: Path, workdir: Path):
        super().__init__(root, workdir)
        lo, hi = gates.MONOTONICITY_ORDERS
        self.orders = range(lo, hi + 1)

    def setup(self, gx, seed: int) -> None:
        self.verify_monotonicity = gx.enumeration.verify_monotonicity

    def op(self, tracer, request) -> Op:
        reports, problems = [], []
        with SpeedMeter() as meter:
            cpu0 = process_time()
            for n in self.orders:
                with span(tracer, "enumeration.verify_monotonicity", request, n=n):
                    try:
                        reports.append(self.verify_monotonicity(n).to_dict())
                    except Exception:
                        problems.append([f"n={n}: " + traceback.format_exc(limit=3)])
        cpu = process_time() - cpu0 - meter.sampling
        problems.extend(p for p in map(gates.check_monotonicity, reports) if p)
        items = sum(r["total_applications"] for r in reports)
        return Op(meter.wall, meter.calibrated, cpu, items, attempted=len(self.orders),
                  problems=[x for p in problems for x in p], failed=len(problems))


class Reduce(Workload):
    """`gaindex.cli.main(["reduce", PATH, "--format", "json", "--out", ...])`
    in process, one corpus file at a time."""

    item = "graphs"

    def __init__(self, root: Path, workdir: Path):
        super().__init__(root, workdir)
        self.expected: list | None = None  # per-graph output digests of the first pass

    def setup(self, gx, seed: int) -> None:
        self.main = gx.cli.main
        self.texts = corpus.make_corpus(seed)
        self.paths = corpus.write(self.texts, self.workdir, "g")
        self.orders = [int(text.split(None, 1)[0]) for text in self.texts]

    def reduce(self, path: Path) -> tuple:
        """Reduce one file through the CLI; returns (output bytes or None, problems)."""
        out = path.with_suffix(".json")
        try:
            code = self.main(["reduce", str(path), "--format", "json", "--out", str(out)])
        except Exception:
            return None, [f"{path.name}: " + traceback.format_exc(limit=3)]
        if code != 0:
            return None, [f"{path.name}: reduce exited with {code}"]
        return out.read_bytes(), []

    def op(self, tracer, request) -> Op:
        latencies, results = [], []
        with SpeedMeter() as meter:
            cpu0 = process_time()
            for i, path in enumerate(self.paths):
                t = meter.clock()
                with span(tracer, "cli.main", f"{request}/g{i}"):
                    results.append(self.reduce(path))
                latencies.append(meter.clock() - t)
        cpu = process_time() - cpu0 - meter.sampling

        digests = [None if out is None else gates.sha256(out) for out, _ in results]
        problems = []
        for i, (out, errors) in enumerate(results):
            if errors:
                problems.append(errors)
            elif self.expected is None:
                problems.append(gates.check_reduce(self.orders[i], out))
            elif digests[i] != self.expected[i]:
                problems.append([f"g{i:03d}: output differs from the first pass"])
        if self.expected is None:
            self.expected = digests
        failed = sum(1 for p in problems if p)
        return Op(meter.wall, meter.calibrated, cpu, len(self.paths) - failed, attempted=len(self.paths),
                  problems=[x for p in problems for x in p], failed=failed, latencies=latencies)

    def finish(self) -> list:
        """Byte-exact outputs for the pinned golden graphs."""
        texts = corpus.make_corpus(gates.GOLDEN_SEED, len(gates.GOLDEN_REDUCE_SHA256))
        problems = []
        for path, want in zip(corpus.write(texts, self.workdir, "golden"), gates.GOLDEN_REDUCE_SHA256):
            out, errors = self.reduce(path)
            if not errors and gates.sha256(out) != want:
                errors = [f"{path.name}: output differs from the pinned digest"]
            if errors:
                problems.append(errors)
        return [Op(0.0, 0.0, 0.0, 0, attempted=len(texts),
                   problems=[x for p in problems for x in p], failed=len(problems))]


WORKLOADS = {"verify": Verify, "monotonicity": Monotonicity, "reduce": Reduce}
