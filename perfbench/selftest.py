"""Tests of the benchmark itself: python3 perfbench/selftest.py

Kept out of the library's pytest suite on purpose (the file name does not
match test_*.py): the benchmark is not part of the library, and some of
these tests start fresh interpreters and take tens of seconds.
"""

import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

run.import_library()
run.OUT.mkdir(exist_ok=True)

import tracing  # noqa: E402
import workloads as W  # noqa: E402
from schurmzv import evaluate, shapes  # noqa: E402

SEED = 7


def exact_counts(metrics: dict) -> dict:
    keep = ("evaluate.fillings", "mzv.expand.indices", "symbolic.det.output_terms", "symbolic.det.max_n")
    return {
        k: v for k, v in metrics.items()
        if k in keep or k.endswith(".calls") or k.endswith(".cache_entries") or k.endswith(".hits")
        or k.endswith(".misses")
    }


class Generators(unittest.TestCase):
    def test_fillings_count_matches_enumeration(self):
        rng = random.Random(1)
        for _ in range(40):
            shape = W.random_connected_shape(rng, rng.randint(1, 6))
            M = rng.randint(1, 6)
            want = sum(1 for _ in evaluate.enumerate_ssyt(shape, M))
            self.assertEqual(W.fillings_count(shape.lam, shape.mu, M), want, (shape, M))

    def test_ribbon_shape_of_steps(self):
        for steps in (("U", "R", "U"), ("R", "R"), ("U",), ()):
            lam, mu = W.cells_lam_mu(W.ribbon_cells(steps))
            self.assertEqual(shapes.make_skew(lam, mu).n_cells, len(steps) + 1)

    def test_same_seed_same_inputs(self):
        for name in ("fillings", "closed_forms", "regularize"):
            with tempfile.TemporaryDirectory(dir=run.OUT) as work:
                one, two = run.Workload(name, SEED, Path(work)), run.Workload(name, SEED, Path(work))
                a = [one.op(i) for i in range(300)]
                b = [two.op(i) for i in range(300)]
            key = (lambda op: (op.k.shape, op.k.by_content, getattr(op, "M", None),
                               getattr(op, "guide", None)))
            self.assertEqual([key(o) for o in a], [key(o) for o in b], name)


class Smoke(unittest.TestCase):
    def test_in_process_workloads_do_not_fail(self):
        for name in ("fillings", "closed_forms", "regularize"):
            with tempfile.TemporaryDirectory(dir=run.OUT) as work:
                _, wl = run.timed_setup(name, SEED, Path(work))
                loop = run.closed_loop(wl, 0.5)
                failed, problems = wl.check_all(loop.done)
            self.assertGreater(len(loop.done), 0, name)
            self.assertEqual(failed, 0, (name, problems))
            self.assertEqual(len(loop.factors), len(loop.done), name)

    def test_loop_draws_more_inputs_instead_of_replaying(self):
        with tempfile.TemporaryDirectory(dir=run.OUT) as work:
            _, wl = run.timed_setup("regularize", SEED, Path(work))
            first = wl.ops[:3]
            del wl.ops[3:]
            done = run.closed_loop(wl, 0.5).done
        self.assertGreater(len(done), 3)
        self.assertEqual([v.i for v in done], list(range(len(done))))
        self.assertEqual(wl.ops[:3], first)
        self.assertGreaterEqual(len(wl.ops), len(done))

    def test_block_quotas_follow_the_counts(self):
        self.assertEqual(W.block_quotas((1, 1, 2), 8), (2, 2, 4))
        self.assertEqual(sum(W.FILLINGS_QUOTAS), W.FILLINGS_BLOCK)
        self.assertEqual(sum(W.CLOSED_QUOTAS), W.CLOSED_BLOCK)
        for counts, quotas in ((W.FILLINGS_COUNTS, W.FILLINGS_QUOTAS), (W.CLOSED_COUNTS, W.CLOSED_QUOTAS)):
            block = sum(quotas)
            for c, q in zip(counts, quotas):
                self.assertLess(abs(q - block * c / sum(counts)), 1, (counts, quotas))

    def test_oracle_catches_a_wrong_tableau_sum(self):
        with tempfile.TemporaryDirectory(dir=run.OUT) as work:
            wl = run.Workload("fillings", SEED, Path(work))
        i = min(wl.oracle_ops)
        v = wl.verdict(i, W.fillings_run(wl.op(i)), None)
        self.assertEqual(wl.check_all([v]), (0, []))
        failed, _ = wl.check_all([v._replace(keep=v.keep + 1)])
        self.assertEqual(failed, 1)

    def test_every_prefix_of_a_block_keeps_the_class_shares(self):
        def draw(r):
            c = r.randrange(len(quotas))
            return c, (c, r.random())

        rng = random.Random(SEED)
        for quotas in (W.FILLINGS_QUOTAS, W.CLOSED_QUOTAS):
            block = W.stratified_block(rng, quotas, draw)
            self.assertEqual(len(block), sum(quotas))
            for m in range(1, len(block) + 1):
                prefix = [c for c, _ in block[:m]]
                for c, q in enumerate(quotas):
                    self.assertLess(abs(prefix.count(c) - m * q / len(block)), 2, (quotas, m, c))

    def test_speed_factors_come_from_nearby_points(self):
        self.assertAlmostEqual(run.speed_factor([run.CAL_REF_MS / 2] * 3), 2.0)
        cal = [run.CAL_REF_MS] * 15 + [2 * run.CAL_REF_MS] * 15
        slow, fast = run.op_factors([2, 25], cal)
        self.assertAlmostEqual(slow, 1.0)
        self.assertAlmostEqual(fast, 0.5)

    def test_spawner_reports_the_call_not_the_caller(self):
        ballast = bytes(range(256)) * (320 * 2**12)  # 320 MiB, more than a call's peak
        with tempfile.TemporaryDirectory(dir=run.OUT) as work:
            spawner = run.Spawner(Path(work))
            try:
                code, out, rss = spawner.call([sys.executable, "-c", "print('hi'); raise SystemExit(3)"])
            finally:
                spawner.close()
        self.assertEqual((code, out), (3, b"hi\n"))
        self.assertLess(rss, len(ballast) / 2**20 / 2)
        self.assertEqual(spawner.proc.returncode, 0)

    def test_command_prints_result_line(self):
        proc = subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"), "--workload", "cli", "--seed", str(SEED),
             "--seconds", "1", "--trace", "0"],
            capture_output=True, cwd=run.ROOT, timeout=120,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr.decode())
        last = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(last["correct"])
        self.assertEqual(last["failed"], 0)
        self.assertEqual(
            set(last["metrics"]), {"ops_per_s", "op_p50_ms", "op_p90_ms", "setup_s", "peak_rss_mb"}
        )

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
            dest = Path(bare) / "perfbench"
            dest.mkdir()
            for path in run.BENCH.glob("*.py"):
                shutil.copy(path, dest)
            if (run.ROOT / "BENCHMARK.json").is_file():
                shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "fillings", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                capture_output=True, cwd=bare, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn(b'"correct"', proc.stdout)


class Tracing(unittest.TestCase):
    def traced_ops(self):
        tracer = tracing.Tracer()
        with tempfile.TemporaryDirectory(dir=run.OUT) as work:
            suites = [run.Workload(n, SEED, Path(work)) for n in ("fillings", "closed_forms", "regularize")]
            tracer.install()
            try:
                for wl in suites:
                    for op in wl.ops[:15]:
                        tracer.span("bench.op", wl.execute, op)
            finally:
                tracer.uninstall()
        return tracer.spans

    def test_self_times_add_up_to_each_op(self):
        spans = self.traced_ops()
        own = tracing.self_times(spans)
        total = {}
        for s, t in zip(spans, own):
            root = s
            while root[1] >= 0:
                root = spans[root[1]]
            total[root[0]] = total.get(root[0], 0.0) + t
        roots = [s for s in spans if s[1] < 0]
        self.assertEqual(len(roots), 45)
        self.assertTrue(all(s[2] == "bench.op" for s in roots))
        for s in roots:
            self.assertAlmostEqual(total[s[0]], s[4] - s[3], delta=1e-9)

    def test_install_rebinds_every_copy_and_uninstall_restores(self):
        modules = {n: m for n, m in sys.modules.items() if n == "schurmzv" or n.startswith("schurmzv.")}
        before = {(n, k): v for n, m in modules.items() for k, v in vars(m).items()}
        tracer = tracing.Tracer()
        tracer.install()
        try:
            cli, ev, mz, st = (sys.modules[f"schurmzv.{m}"] for m in ("cli", "evaluate", "mzv", "stuffle"))
            self.assertIs(cli.truncated_schur_zeta, ev.truncated_schur_zeta)
            self.assertIs(ev.truncated_schur_zeta.__wrapped__, before[("schurmzv.evaluate", "truncated_schur_zeta")])
            self.assertIs(st.numeric_mzv, mz.numeric_mzv)
            self.assertTrue(hasattr(mz.numeric_mzv, "__wrapped__"))
        finally:
            tracer.uninstall()
        after = {(n, k): v for n, m in modules.items() for k, v in vars(m).items()}
        self.assertEqual(before.keys(), after.keys())
        changed = [key for key in before if before[key] is not after[key]]
        self.assertEqual(changed, [])

    def test_work_counts_repeat_for_one_seed(self):
        for name in run.WORKLOADS:
            args = ["--probe", "pass", "--workload", name, "--seed", str(SEED), "--traced", "1"]
            first, second = run.run_child(args), run.run_child(args)
            for out in (first, second):
                self.assertEqual(out["failed"], 0, (name, out["problems"]))
            a = exact_counts({**first["layers"], **first["caches"]})
            b = exact_counts({**second["layers"], **second["caches"]})
            self.assertEqual(a, b, name)
            self.assertGreater(sum(a.values()), 0, name)


if __name__ == "__main__":
    unittest.main(verbosity=2)
