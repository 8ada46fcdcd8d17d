"""Tests of the benchmark's own code: generators, tracer, self time, oracles.

    python3 -m pytest bench/test_bench.py -q
"""
from __future__ import annotations

import gc
import itertools
import sys
import unittest
from unittest import mock
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from oracles import OracleError  # noqa: E402

dc = workloads.load_engine()

SMALL = {
    "fit_scenes": dict(trees=12, scenes=6),
    "collapse_chain": dict(chains=4),
    "query_store": dict(persons=6, queries=12, enum_every=6),
    "learn_scenes": dict(batches=2, batch=4),
}


def small(name: str, seed: int = 0):
    workload = workloads.WORKLOADS[name](seed, **SMALL[name])
    workload.setup(dc)
    return workload


def golden_task():
    task = dc.build_task(dc.parse_kb(oracles.GOLDEN_KB), dc.parse_scenario(oracles.GOLDEN_SCENARIO))
    dc.fit_run(task)
    return task


class TestGenerators(unittest.TestCase):
    def test_same_seed_same_workload(self):
        for name, cls in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertEqual(vars(cls(7)), vars(cls(7)))

    def test_other_seed_other_workload(self):
        for name, cls in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertNotEqual(vars(cls(7)), vars(cls(8)))

    def test_seeds_vary_details_not_the_mix(self):
        def objects(text):
            ids = [line.split("as=")[1] for line in text.splitlines() if line.startswith("input o")]
            return len({inst.split(".")[0] for inst in ids})

        for seed in (3, 4):
            fit = workloads.FitScenes(seed)
            counts = [objects(text) for text in fit.scene_texts]
            self.assertEqual(counts.count(2), counts.count(3))
            query = workloads.QueryStore(seed)
            kinds = [kind for kind, _ in query.queries]
            self.assertEqual(
                (kinds.count("direct"), kinds.count("reasoned"), kinds.count("enumerate")),
                (9, 89, 2),
            )
            learn = workloads.LearnScenes(seed)
            scenes = [text for batch in learn.batch_texts for text in batch]
            two = [text for text in scenes if len({line.split()[1][:2] for line in text.splitlines()
                                                   if line.startswith("input")}) == 2]
            self.assertEqual(len(two), round(learn.TWO_SHARE * len(scenes)))
        self.assertEqual(sorted(workloads.CollapseChain(3).lengths),
                         sorted(workloads.CollapseChain(4).lengths))


class TestRunOps(unittest.TestCase):
    def test_engine_exceptions_are_counted_with_their_type(self):
        class Flaky(workloads.Workload):
            name = "flaky"

            def input_index(self, i):
                return i

            def op(self, i):
                if i % 3 == 0:
                    raise KeyError(f"k{i}")
                return i

            def check(self, i, out):
                pass

        samples, failures, busy = run.run_ops(Flaky(), range(9))
        self.assertEqual([i for i, _ in samples], [1, 2, 4, 5, 7, 8])
        self.assertEqual([(op, kind) for op, _, kind, _ in failures],
                         [(0, "KeyError"), (3, "KeyError"), (6, "KeyError")])
        self.assertGreater(busy, 0.0)

    class Cycle(workloads.Workload):
        """Three inputs; the second always raises."""

        name = "cycle"

        def inputs(self):
            return 3

        def op(self, i):
            if i % 3 == 1:
                raise KeyError(f"k{i}")
            return i

        def check(self, i, out):
            pass

    def test_a_timed_run_finishes_the_first_pass(self):
        with mock.patch.object(run, "MIN_OPS", 0):
            samples, failures, _ = run.run_ops(self.Cycle(), itertools.count(), deadline=0.0)
        self.assertEqual(len(samples) + len(failures), 3)

    def test_first_pass_failures_and_repeated_outcomes(self):
        workload = self.Cycle()
        samples, failures, _ = run.run_ops(workload, range(8))
        self.assertEqual(len(failures), 3)
        self.assertEqual([(op, kind) for op, _, kind, _ in run.first_pass(workload, samples, failures)],
                         [(1, "KeyError")])
        samples.append((10, 0.001))  # op 10 repeats op 1, which raised
        with self.assertRaises(OracleError):
            run.first_pass(workload, samples, failures)

    def test_wrong_output_stops_the_run(self):
        workload = small("collapse_chain")
        workload.check = lambda i, out: oracles.check_chain(dc, workload.net, ["c0n0"], "c0n0")
        with self.assertRaises(OracleError):
            run.run_ops(workload, range(2))


class TestHostProbe(unittest.TestCase):
    def test_scale_is_a_power_of_reference_over_median_and_gc_stays_on(self):
        probe = run.HostProbe()
        probe.sample()
        self.assertTrue(gc.isenabled())
        self.assertEqual(len(probe.times), 1)
        probe.times = [0.002, 0.008, 0.004]
        self.assertAlmostEqual(probe.scale(), (run.PROBE_REF_S / 0.004) ** run.PROBE_EXPONENT)


class TestTracer(unittest.TestCase):
    def _snapshot(self):
        found = {}
        for key, module in sys.modules.items():
            if key == "dcnet" or key.startswith("dcnet."):
                for attr, value in vars(module).items():
                    found[(key, attr)] = id(value)
        for cls in (dc.CognitiveNetwork, dc.ContributionLedger, dc.Trace):
            for attr, value in vars(cls).items():
                found[(cls.__name__, attr)] = id(value)
        return found

    def test_wrappers_are_removed_after_a_traced_run(self):
        before = self._snapshot()
        tracer = spans.Tracer(dc)
        tracer.install()
        try:
            self.assertTrue(hasattr(dc.belongs_to, "__wrapped__"))
            self.assertTrue(hasattr(sys.modules["dcnet.growth"].belongs_to, "__wrapped__"))
            with tracer.op(0):
                golden_task()
        finally:
            tracer.uninstall()
        self.assertEqual(self._snapshot(), before)
        self.assertFalse(hasattr(dc.belongs_to, "__wrapped__"))
        metrics = tracer.layer_metrics()
        self.assertGreater(metrics["core.belongs_to.calls"], 0)
        self.assertGreater(metrics["growth.fit_step.calls"], 0)
        self.assertGreater(metrics["trace.events"], 0)

    def test_calls_outside_an_op_are_not_recorded(self):
        tracer = spans.Tracer(dc)
        tracer.install()
        try:
            golden_task()
        finally:
            tracer.uninstall()
        self.assertEqual(tracer.span_count, 0)
        self.assertEqual(tracer.layer_metrics()["core.belongs_to.calls"], 0)

    def test_online_self_time_matches_the_span_tree(self):
        tracer = spans.Tracer(dc)
        tracer.install()
        try:
            with tracer.op(0):
                golden_task()
        finally:
            tracer.uninstall()
        self.assertEqual(len(tracer.spans), tracer.span_count)
        offline = spans.self_times(tracer.spans)
        by_name: dict[str, float] = {}
        for span in tracer.spans:
            by_name[span.name] = by_name.get(span.name, 0.0) + offline[span.span_id]
        for name, agg in tracer.aggs.items():
            if agg.calls:
                self.assertAlmostEqual(agg.self_s, by_name[name], delta=1e-9)


class TestSelfTime(unittest.TestCase):
    def test_hand_built_tree(self):
        S = spans.Span
        tree = [
            S(1, None, "root", 0, 0.0, 10.0),
            S(2, 1, "a", 0, 1.0, 4.0),
            S(3, 2, "c", 0, 2.0, 3.0),
            S(4, 3, "f", 0, 2.5, 3.5),  # runs past its parent: clipped to 2.5..3.0
            S(5, 1, "b", 0, 5.0, 9.0),
            S(6, 5, "d", 0, 5.0, 6.0),
            S(7, 5, "e", 0, 7.0, 8.5),
            S(8, 5, "g", 0, 8.0, 8.25),  # overlaps its sibling e: covered once
        ]
        got = spans.self_times(tree)
        expected = {1: 3.0, 2: 2.0, 3: 0.5, 4: 1.0, 5: 1.5, 6: 1.0, 7: 1.5, 8: 0.25}
        for span_id, value in expected.items():
            self.assertAlmostEqual(got[span_id], value, places=12, msg=f"span {span_id}")


class TestOracles(unittest.TestCase):
    def test_golden_scene(self):
        cells, statuses = oracles.golden_cells(dc)
        oracles.check_golden(cells, statuses)
        bad = dict(cells)
        bad[("step2", "face1")] += 1e-6
        with self.assertRaises(OracleError):
            oracles.check_golden(bad, statuses)
        with self.assertRaises(OracleError):
            oracles.check_golden(cells, {**statuses, "egg1": "collapsed"})

    def test_fit_ledger_replay(self):
        workload = small("fit_scenes")
        task = workload.op(0)
        oracles.check_fit_task(dc, task)
        state = task.states[0]
        victim = next(e for e in state.content_ids()
                      if state.net.state(e).status is dc.Status.SUPERPOSED)
        state.net.state(victim).result_prob = min(1.0, state.net.state(victim).result_prob + 0.01)
        with self.assertRaises(OracleError):
            oracles.check_fit_task(dc, task)

    def test_fit_xor_partners(self):
        task = golden_task()
        oracles.check_fit_task(dc, task)
        task.states[0].net.state("egg1").status = dc.Status.COLLAPSED
        task.states[0].net.state("egg1").result_prob = 1.0
        task.states[0].net.state("egg1").input_prob = 1.0
        with self.assertRaises(OracleError):
            oracles.check_fit_task(dc, task)

    def test_session_roundtrip(self):
        task = golden_task()
        save_s, load_s, size = oracles.check_session_roundtrip(dc.session_save, dc.session_load, task)
        self.assertGreater(size, 0)

        def lossy_load(payload):
            resumed = dc.session_load(payload)
            resumed.processed += 1
            return resumed

        with self.assertRaises(OracleError):
            oracles.check_session_roundtrip(dc.session_save, lossy_load, task)

    def test_chain(self):
        workload = small("collapse_chain")
        chain = workload.op(0)
        workload.check(0, chain)
        workload.net.state(f"c{chain}n1").status = dc.Status.SUPERPOSED
        with self.assertRaises(OracleError):
            workload.check(0, chain)
        workload = small("collapse_chain")
        chain = workload.op(0)
        workload.net.state(f"r{chain}").status = dc.Status.SUPERPOSED
        with self.assertRaises(OracleError):
            workload.check(0, chain)

    def test_query(self):
        workload = small("query_store")
        outs = {kind: (i, workload.op(i)) for i, (kind, _) in enumerate(workload.queries)}
        for i, out in outs.values():
            workload.check(i, out)
        workload.finish()

        i, direct = outs["direct"]
        i_r, reasoned = outs["reasoned"]
        i_e, enumeration = outs["enumerate"]
        direct.answers[0].explanation.append("conv#9")
        with self.assertRaises(OracleError):
            workload.check(i, direct)
        reasoned.answers[0].explanation.clear()
        with self.assertRaises(OracleError):
            workload.check(i_r, reasoned)
        reasoned.answers.append(reasoned.answers[0])
        with self.assertRaises(OracleError):
            workload.check(i_r, reasoned)
        with self.assertRaises(OracleError):
            workload.check(i_e, enumeration[:-1])
        workload.store.add_concept(dc.Concept(id="intruder"))
        with self.assertRaises(OracleError):
            workload.finish()

    def test_learning(self):
        workload = small("learn_scenes")
        kb, report = workload.op(0)
        workload.check(0, (kb, report))

        candidate = next(iter(report.candidates.values()))
        candidate.success_count = candidate.trial_count + 1
        with self.assertRaises(OracleError):
            workload.check(0, (kb, report))

        kb, report = workload.op(0)
        root = next(iter(report.estimates))
        member = next(iter(report.estimates[root]))
        report.estimates[root][member] = (1.5, 1.0)
        with self.assertRaises(OracleError):
            workload.check(0, (kb, report))

        kb, report = workload.op(0)
        kb.add_concept(dc.Concept(id="#ghost"))  # serializes to a comment line
        with self.assertRaises(OracleError):
            workload.check(0, (kb, report))


if __name__ == "__main__":
    unittest.main()
