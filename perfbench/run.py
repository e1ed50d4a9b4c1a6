"""Benchmark of the schurmzv library and command line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (each a closed loop with one client; see BENCHMARK.json for why):

* ``fillings``      exact Jacobi-Trudi checks on random small hosts
* ``closed_forms``  (1,3) checkerboards by the stair and the column route
* ``regularize``    regularized Jacobi-Trudi checks, caches warming up
* ``cli``           one ``python -m schurmzv.cli`` subprocess per call

``--trace 0`` loops over the seeded operations for S seconds of scaled
time in a fresh interpreter and prints the end-to-end metrics: times are
scaled to a reference host speed by calibration points timed among the
ops (see ``CAL_REF_MS``), and the unscaled figures go to the result file.
``--trace 1`` runs a fixed prefix of the operations twice, each time in a
fresh interpreter: once plain and once with every public function wrapped
in a span, and prints the per-layer metrics; their work counts repeat
exactly for a given seed.  Either way every result is checked against an
independent route outside the timed region, a result file is written
under ``perfbench/results/``, and the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The program is imported
from ``src/`` of the checkout and nowhere else.

Which layer metric should move which end-to-end metric on which workload,
and the baseline figures, are in ``perfbench/baseline.json``.  The
benchmark's own tests: ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "results"

WORKLOADS = ("fillings", "closed_forms", "regularize", "cli")
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 5
# The chain-expansion oracle checks ORACLE_SAMPLES fillings ops, drawn
# from the first ORACLE_SPAN.
ORACLE_SAMPLES = 24
ORACLE_SPAN = 300
CHILD_TIMEOUT = 150
CLI_TIMEOUT = 60

# Host speed.  A shared host runs the same code up to 1.7 times slower while
# another tenant uses the sibling hardware thread, in bursts of milliseconds
# to minutes.  The loop therefore interleaves a fixed piece of pure-Python
# work (a calibration point) with the ops, with its clock stopped, and every
# reported time is scaled to a host on which one point takes CAL_REF_MS:
# about the mean speed of a shared 2-vCPU 2.0 GHz Xeon VM under Python 3.11,
# so that a loop there takes about its nominal time.
CAL_REF_MS = 4.0
CAL_EVERY = 0.1  # seconds of loop time between calibration points
CAL_UNITS = 20  # calibration units in one point
CAL_WINDOW = 5  # points either side of an op that give its speed factor
WALL_LIMIT = 1.25  # a loop ends after this many times its scaled length
SETUP_CAL_POINTS = 40  # points timed around each set-up, half before, half after

# Operations in one fixed pass of a --trace 1 run.
TRACE_OPS = {"fillings": 320, "closed_forms": 40, "regularize": 300, "cli": 33}


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_library() -> None:
    """Import schurmzv from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import schurmzv

    if Path(schurmzv.__file__).resolve().parent != SRC / "schurmzv":
        raise SystemExit(f"schurmzv imported from {schurmzv.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# workloads: set-up, one operation, the check of one result


REG_BLOCK = 250  # regularize ops drawn at a time


class Verdict(NamedTuple):
    """The checked outcome of one executed op."""

    i: int  # index of the op
    ran: bool  # returned without raising
    why: Optional[str]  # what is wrong with it, or None
    keep: object  # what the checks after the loop need, or None


class Workload:
    """The seeded inputs of one workload, drawn block by block as needed.

    Set-up draws the first block; ``extend`` draws the next one from the same
    generator, so op i is the same whenever it is drawn, and a run never
    replays an input.
    """

    def __init__(self, name: str, seed: int, workdir: Path):
        import workloads as W

        self.W = W
        self.name = name
        self.workdir = workdir
        self.rng = random.Random(f"{name}:{seed}")
        self.files = 0
        self.spawner: Optional[Spawner] = None
        self.ops: List[object] = []
        self.oracle_ops = set(random.Random(f"oracle:{seed}").sample(range(ORACLE_SPAN), ORACLE_SAMPLES))
        self.extend()

    def extend(self) -> None:
        W, rng = self.W, self.rng
        if self.name == "fillings":
            self.ops += W.stratified_block(rng, W.FILLINGS_QUOTAS, W.draw_fillings)
        elif self.name == "closed_forms":
            self.ops += W.stratified_block(rng, W.CLOSED_QUOTAS, W.draw_checkerboard)
        elif self.name == "regularize":
            self.ops += [W.draw_regularize(rng) for _ in range(REG_BLOCK)]
        else:
            self.ops += W.make_cli_round(rng, self.write)

    def op(self, i: int):
        while i >= len(self.ops):
            self.extend()
        return self.ops[i]

    def write(self, text: str) -> str:
        """Store one CLI input file in the work directory; return its path."""
        self.files += 1
        path = self.workdir / f"in{self.files:04d}.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def execute(self, op, traced_cli: Optional[str] = None):
        W = self.W
        if self.name == "fillings":
            return W.fillings_run(op)
        if self.name == "closed_forms":
            return W.closed_run(op)
        if self.name == "regularize":
            return W.reg_run(op)
        if traced_cli is None:
            cmd = [sys.executable, "-m", "schurmzv.cli"] + op.argv
        else:
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), traced_cli] + op.argv
        self.start()
        return self.spawner.call(cmd)

    def start(self) -> None:
        """Start what the ops need besides their inputs: the CLI calls' spawner."""
        if self.name == "cli" and self.spawner is None:
            self.spawner = Spawner(self.workdir)

    def close(self) -> None:
        """Stop the spawner, if one was started."""
        if self.spawner is not None:
            self.spawner.close()
            self.spawner = None

    def check(self, op, result) -> Optional[str]:
        """Describe what is wrong with one result, or return None."""
        W = self.W
        if self.name == "fillings":
            return None if result.equal else "tableau sum differs from the determinant"
        if self.name == "closed_forms":
            stair, column = result
            return None if stair == column else "stair and column routes differ"
        if self.name == "regularize":
            ok = result.max_discrepancy <= W.REG_TOL
            return None if ok else f"max discrepancy {result.max_discrepancy:.3e}"
        code, stdout, _ = result
        if code != 0:
            return f"exit code {code}"
        return W.cli_check(op, W.parse_cli_output(stdout))

    def verdict(self, i: int, result, err: Optional[str]) -> Verdict:
        """Check op i's result, or take its error; keep only what check_all needs.

        Kept: a CLI call's peak RSS, and the tableau sum of the fillings ops
        the oracle will check.  Nothing else of a result outlives its check,
        so the memory a loop holds does not grow with the ops it completes.
        """
        why, keep = err, None
        if err is None:
            try:
                why = self.check(self.ops[i], result)
            except Exception as exc:  # an unreadable result is a failed op
                why = f"check raised {type(exc).__name__}: {exc}"
            if self.name == "cli":
                keep = result[2]
            elif self.name == "fillings" and i in self.oracle_ops:
                keep = result.lhs
        return Verdict(i, err is None, why, keep)

    def check_all(self, done: Sequence[Verdict]) -> Tuple[int, List[str]]:
        """Count the failed executions, running the fillings oracle on its ops.

        Returns the number of executions that failed and what went wrong.
        """
        bad = {pos: f"op {v.i}: {v.why}" for pos, v in enumerate(done) if v.why}
        if self.name == "fillings":
            for pos, v in enumerate(done):
                if v.keep is not None and self.W.fillings_oracle(self.ops[v.i]) != v.keep:
                    bad[pos] = f"op {v.i}: chain-expansion oracle differs from the tableau sum"
        return len(bad), list(bad.values())


class Spawner:
    """A small process that starts the CLI calls (perfbench/spawner.py).

    Started outside the timed region and stopped by ``close``; a call's
    latency, timed around ``call``, includes the round trip to it.
    """

    def __init__(self, workdir: Path):
        self.out, self.err = str(workdir / "call.out"), str(workdir / "call.err")
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(BENCH / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True,
        )

    def call(self, cmd: List[str]) -> Tuple[int, bytes, float]:
        """One command-line call: exit code, standard output, peak RSS in MB."""
        self.proc.stdin.write(json.dumps([self.out, self.err, CLI_TIMEOUT] + cmd) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"the spawner stopped (exit code {self.proc.poll()})")
        code, kib = json.loads(reply)
        return code, Path(self.out).read_bytes(), kib / 1024.0

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CLI_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def calibration_unit() -> int:
    """Fraction sums and tuple-keyed dict updates, like the library's inner loops."""
    total = Fraction(0)
    seen: Dict[Tuple[int, int], int] = {}
    for i in range(1, 41):
        total += Fraction(i, i * i + 1)
        key = (i % 5, i % 3)
        seen[key] = seen.get(key, 0) + i
    return total.numerator % 97 + len(seen)


def calibration_point() -> float:
    """Milliseconds taken by CAL_UNITS calibration units."""
    t0 = perf_counter()
    for _ in range(CAL_UNITS):
        calibration_unit()
    return 1000 * (perf_counter() - t0)


def speed_factor(points: Sequence[float]) -> float:
    """What to multiply a time measured among these points by.

    The mean, not the median: a unit runs either at full speed or slowed by
    the sibling thread, and the ops in between see the mean of the two.
    """
    return CAL_REF_MS / statistics.fmean(points)


def op_factors(marks: Sequence[int], cal: Sequence[float]) -> List[float]:
    """The speed factor of each op, from the CAL_WINDOW points either side.

    ``marks[i]`` is the index of the last calibration point before op i.
    """
    return [speed_factor(cal[max(0, k - CAL_WINDOW + 1): k + CAL_WINDOW + 1]) for k in marks]


def timed_setup(name: str, seed: int, workdir: Path) -> Tuple[float, Workload]:
    """Import the library and generate the inputs; the time is setup_s."""
    t0 = perf_counter()
    import_library()
    wl = Workload(name, seed, workdir)
    return perf_counter() - t0, wl


# ---------------------------------------------------------------------------
# measurement


class Loop(NamedTuple):
    """What a closed loop measured."""

    seconds: float  # loop time, leaving out the pauses
    lat: List[float]  # latency of each op, in seconds
    factors: List[float]  # speed factor of each op
    done: List[Verdict]  # the checked outcome of each op


def closed_loop(wl: Workload, seconds: float) -> Loop:
    """Run ops back to back, each once, in list order, for ``seconds`` of scaled time.

    Between ops, with the clock stopped, each result is checked and
    dropped, more inputs are drawn when needed, and every CAL_EVERY seconds
    a calibration point is timed.  The loop ends when its time, scaled by
    the mean of the calibration points so far, reaches ``seconds``, so a run
    does about the same work whatever the host's speed: caches warm up as
    far, and as much memory is held.  On a host more than WALL_LIMIT times
    slower than the reference it ends at WALL_LIMIT * ``seconds``.
    """
    lat: List[float] = []
    done: List[Verdict] = []
    cal: List[float] = []
    marks: List[int] = []
    paused = 0.0
    next_cal = 0.0
    t0 = perf_counter()
    while True:
        elapsed = perf_counter() - t0 - paused
        if cal and (elapsed * CAL_REF_MS * len(cal) / sum(cal) >= seconds or elapsed >= WALL_LIMIT * seconds):
            break
        i = len(done)
        if i == len(wl.ops) or elapsed >= next_cal:
            s = perf_counter()
            if i == len(wl.ops):
                wl.extend()
            if elapsed >= next_cal:
                cal.append(calibration_point())
                next_cal += CAL_EVERY
            paused += perf_counter() - s
        marks.append(len(cal) - 1)
        s = perf_counter()
        try:
            result, err = wl.execute(wl.ops[i]), None
        except Exception as exc:  # a failed op is counted, not fatal
            result, err = None, f"{type(exc).__name__}: {exc}"
        lat.append(perf_counter() - s)
        s = perf_counter()
        done.append(wl.verdict(i, result, err))
        paused += perf_counter() - s
    loop_s = perf_counter() - t0 - paused
    cal.append(calibration_point())
    return Loop(loop_s, lat, op_factors(marks, cal), done)


def percentile(values: Sequence[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_child(args: Sequence[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py")] + list(args),
        capture_output=True, cwd=ROOT, timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"child {args} failed ({proc.returncode}):\n{proc.stderr.decode()}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def import_seconds() -> List[float]:
    """Fresh interpreters that only import schurmzv.cli, timed inside."""
    code = "import time; t = time.perf_counter(); import schurmzv.cli; print(time.perf_counter() - t)"
    out = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, env=child_env(),
            cwd=ROOT, timeout=CLI_TIMEOUT, check=True,
        )
        out.append(float(proc.stdout))
    return out


def environment(args) -> dict:
    import numpy

    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# ---------------------------------------------------------------------------
# modes


def loop_probe(args) -> dict:
    """--probe loop: set up, run the closed loop, check; in a fresh interpreter.

    The process, and the CLI calls it starts, keep to one CPU, so that the
    calibration points time the CPU the ops run on.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        setup_cal = [calibration_point() for _ in range(SETUP_CAL_POINTS // 2)]
        setup_s, wl = timed_setup(args.workload, args.seed, Path(work))
        setup_cal += [calibration_point() for _ in range(SETUP_CAL_POINTS // 2)]
        setup = {"setup_raw_s": setup_s, "setup_s": setup_s * speed_factor(setup_cal)}
        if args.seconds <= 0:
            return setup
        wl.start()
        try:
            cpu0 = time.process_time()
            loop = closed_loop(wl, args.seconds)
            cpu_share = (time.process_time() - cpu0) / loop.seconds
        finally:
            wl.close()
        if wl.name == "cli":  # the peak of the median call
            rss = statistics.median(v.keep for v in loop.done if v.ran)
        else:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed, problems = wl.check_all(loop.done)
    return {
        **setup,
        "loop_s": loop.seconds,
        "loop_cpu_over_wall": cpu_share,
        "attempted": len(loop.done),
        "completed": sum(v.ran for v in loop.done),
        "failed": failed,
        "problems": problems[:20],
        "ops_drawn": len(wl.ops),
        "peak_rss_mb": rss,
        "speed_factor_median": statistics.median(loop.factors),
        "raw_latencies_ms": [1000 * x for x in loop.lat],
        "latencies_ms": [1000 * x * f for x, f in zip(loop.lat, loop.factors)],
    }


def measure(args) -> Tuple[dict, dict]:
    """--trace 0: the end-to-end metrics of one timed loop.

    The loop and each extra set-up sample run in fresh interpreters, so
    set-up is measured SETUP_SAMPLES times and reported as the median.
    Times are scaled by the speed factor of the calibration points timed
    among them; the unscaled figures go to the result file.
    """
    base = ["--probe", "loop", "--workload", args.workload, "--seed", str(args.seed)]
    loop = run_child(base + ["--seconds", repr(args.seconds)])
    extra = [run_child(base + ["--seconds", "0"]) for _ in range(SETUP_SAMPLES - 1)]
    setups = [loop["setup_s"]] + [x["setup_s"] for x in extra]
    raw_lat = loop.pop("raw_latencies_ms")
    lat = loop.pop("latencies_ms")
    metrics = {
        "ops_per_s": (loop["completed"] / (sum(lat) / 1000), "1/s"),
        "op_p50_ms": (percentile(lat, 50), "ms"),
        "op_p90_ms": (percentile(lat, 90), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (loop["peak_rss_mb"], "MB"),
    }
    details = {
        **loop,
        "unscaled": {
            "ops_per_s": loop["completed"] / loop["loop_s"],
            "op_p50_ms": percentile(raw_lat, 50),
            "op_p90_ms": percentile(raw_lat, 90),
            "setup_s": statistics.median([loop["setup_raw_s"]] + [x["setup_raw_s"] for x in extra]),
        },
        "setup_samples_s": setups,
        "latencies_ms": lat,
    }
    return metrics, details


def fixed_pass(args) -> dict:
    """--probe pass: one fixed prefix of the ops, plain or traced, checked after."""
    import tracing

    with tempfile.TemporaryDirectory(dir=OUT) as work:
        _, wl = timed_setup(args.workload, args.seed, Path(work))
        ops = range(TRACE_OPS[wl.name])
        wl.op(ops[-1])  # draw the whole prefix before the clock starts
        tracer = tracing.Tracer() if args.traced else None
        span_files: List[str] = []
        done, lat = [], []
        if tracer is not None and wl.name != "cli":
            tracer.install()
        wl.start()
        t0 = perf_counter()
        try:
            for i in ops:
                s = perf_counter()
                result, err = None, None
                try:
                    if tracer is None:
                        result = wl.execute(wl.ops[i])
                    elif wl.name == "cli":
                        span_files.append(str(Path(work) / f"spans{i:04d}.json"))
                        result = wl.execute(wl.ops[i], traced_cli=span_files[-1])
                    else:
                        result = tracer.span("bench.op", wl.execute, wl.ops[i])
                except Exception as exc:  # a failed op is counted, not fatal
                    err = f"{type(exc).__name__}: {exc}"
                lat.append(perf_counter() - s)
                done.append((i, result, err))
        finally:
            pass_s = perf_counter() - t0
            wl.close()
            if tracer is not None:
                tracer.uninstall()
        failed, problems = wl.check_all([wl.verdict(*x) for x in done])
        out = {"pass_s": pass_s, "attempted": len(done), "failed": failed, "problems": problems[:20]}
        if wl.name == "cli":
            by_kind: Dict[str, List[float]] = {}
            for (i, _, _), x in zip(done, lat):
                by_kind.setdefault(wl.ops[i].kind, []).append(x)
            out["kind_ms"] = {k: 1000 * statistics.median(v) for k, v in by_kind.items()}
            out["output_bytes"] = sum(len(r[1]) for _, r, err in done if err is None)
        if tracer is None:
            return out
        if wl.name == "cli":
            span_sets, caches = [], {}
            for path in span_files:
                data = json.loads(Path(path).read_text(encoding="utf-8"))
                span_sets.append(data["spans"])
                for key, v in data["caches"].items():
                    caches[key] = caches.get(key, 0) + v
        else:
            span_sets, caches = [tracer.spans], tracing.cache_sizes()
    out["layers"] = tracing.summarize(span_sets, wl.W.fillings_count)
    out["caches"] = caches
    out["spans"] = sum(len(s) for s in span_sets)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans-{os.getpid()}.jsonl.gz"
    with gzip.open(spans_path, "wt", encoding="utf-8") as fh:
        for n, spans in enumerate(span_sets):
            for s in spans:
                fh.write(json.dumps([n] + s) + "\n")
    out["spans_file"] = str(spans_path.relative_to(ROOT))
    return out


def trace(args) -> Tuple[dict, dict]:
    """--trace 1: a plain and a traced pass in fresh interpreters."""
    import_library()
    import workloads as W

    base = ["--probe", "pass", "--workload", args.workload, "--seed", str(args.seed)]
    plain = run_child(base + ["--traced", "0"])
    traced = run_child(base + ["--traced", "1"])
    imports = import_seconds()
    caches = traced["caches"]
    lookups = caches["stuffle.product.hits"] + caches["stuffle.product.misses"]
    metrics = {name: (value, unit_of(name)) for name, value in traced["layers"].items()}
    metrics.update({
        "mzv.numeric.cache_entries": (caches["mzv.numeric.cache_entries"], "count"),
        "stuffle.regularize.cache_entries": (caches["stuffle.regularize.cache_entries"], "count"),
        "stuffle.product.cache_entries": (caches["stuffle.product.cache_entries"], "count"),
        "stuffle.product.hit_ratio": (caches["stuffle.product.hits"] / lookups if lookups else 0.0, "ratio"),
        "cli.import_s": (statistics.median(imports), "s"),
        "cli.output_bytes": (plain.get("output_bytes", 0), "bytes"),
        "trace.overhead_ratio": (traced["pass_s"] / plain["pass_s"], "ratio"),
    })
    for kind in W.CLI_KINDS:
        metrics[f"cli.{kind}.p50_ms"] = (plain.get("kind_ms", {}).get(kind, 0.0), "ms")
    details = {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "problems": plain["problems"] + traced["problems"],
        "plain_pass_s": plain["pass_s"],
        "traced_pass_s": traced["pass_s"],
        "spans": traced["spans"],
        "spans_file": traced["spans_file"],
        "import_samples_s": imports,
    }
    return metrics, details


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    return "count"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("loop", "pass"), help=argparse.SUPPRESS)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "schurmzv" / "__init__.py").is_file():
        print(f"error: no schurmzv sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.probe == "loop":
        print(json.dumps(loop_probe(args)))
        return 0
    if args.probe == "pass":
        print(json.dumps(fixed_pass(args)))
        return 0

    metrics, details = (trace if args.trace else measure)(args)
    import_library()
    record = environment(args)
    points = [calibration_point() for _ in range(SETUP_CAL_POINTS)]
    record["host_drift"] = {
        "calibration_point_ms": statistics.fmean(points),
        "speed_factor": speed_factor(points),
    }
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record.update(details)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    result_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    result_file.write_text(json.dumps(record, indent=1), encoding="utf-8")

    attempted, failed = details["attempted"], details["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  result file {result_file.relative_to(ROOT)}")
    for problem in details["problems"]:
        print(f"FAILED {problem}")
    if not args.trace:
        n = len(details["latencies_ms"])
        print(f"{n} ops in {details['loop_s']:.2f} s, {n - int(0.9 * n)} latency samples above p90")
        print(f"median speed factor {details['speed_factor_median']:.4g}; unscaled: "
              + ", ".join(f"{k} = {v:.6g}" for k, v in details["unscaled"].items()))
    print(f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
