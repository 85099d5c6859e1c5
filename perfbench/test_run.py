"""Tests of the benchmark's own arithmetic: the tail-percentile rule,
paper_err_pct on the Fig. 11 geomeans, the hash/failure accounting and
the metric definitions.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import collections
import unittest

import run


def run_record(name="TDRAM/is.D", hash_="00000000000000ff", **fields):
    """A harness job record with the fields the accounting reads."""
    rec = {"name": name, "hash": hash_, "demands": 100,
           "check_events": 0, "check_violations": 0}
    rec.update(fields)
    return rec


def checked(**fields):
    """A record of the check pass, whose checker saw events."""
    return run_record(checked=True, check_events=500, **fields)


class TailPercentile(unittest.TestCase):
    def test_p84_of_one_grid_leaves_ten_samples_beyond(self):
        self.assertEqual(run.tail_rank(64), 54)
        self.assertEqual(run.samples_beyond(64), 10)

    def test_ten_beyond_needs_at_least_63_samples(self):
        self.assertEqual(run.samples_beyond(63), 10)
        self.assertEqual(run.samples_beyond(62), 9)
        self.assertEqual(run.samples_beyond(128), 20)

    def test_nearest_rank_value_of_unsorted_samples(self):
        samples = [float(x) for x in range(64, 0, -1)]
        self.assertEqual(run.tail_percentile(samples), 54.0)
        self.assertEqual(run.tail_percentile(samples, 50), 32.0)

    def test_few_samples_fall_back_to_the_largest(self):
        self.assertEqual(run.tail_percentile([2.0, 1.0]), 2.0)
        self.assertEqual(run.tail_percentile([3.0]), 3.0)
        self.assertEqual(run.samples_beyond(2), 0)


def grid(speedups, profiles=("bt.C", "is.D")):
    """Runs of a grid in which TDRAM is speedups[d] times faster than d
    on every profile."""
    jobs = []
    for p in profiles:
        jobs.append({"name": f"TDRAM/{p}", "sim_ns": 1000.0})
        for d, s in speedups.items():
            jobs.append({"name": f"{d}/{p}", "sim_ns": 1000.0 * s})
    return jobs


class PaperError(unittest.TestCase):
    def test_current_fig11_geomeans_give_2_30_percent(self):
        measured = {"CascadeLake": 1.208, "Alloy": 1.221, "BEAR": 1.071,
                    "NDC": 1.052}
        self.assertAlmostEqual(run.paper_err_pct(measured), 2.303,
                               places=3)

    def test_the_paper_numbers_give_zero(self):
        self.assertAlmostEqual(run.paper_err_pct(run.PAPER_SPEEDUP), 0.0)

    def test_speedups_come_from_runtimes(self):
        speedups = run.tdram_speedups(grid(run.PAPER_SPEEDUP))
        for design, paper in run.PAPER_SPEEDUP.items():
            self.assertAlmostEqual(speedups[design], paper)

    def test_speedup_is_a_geomean_over_profiles(self):
        jobs = grid({d: 1.0 for d in run.PAPER_SPEEDUP})
        for j in jobs:
            if j["name"].endswith("/is.D") and j["name"] != "TDRAM/is.D":
                j["sim_ns"] *= 4
        for s in run.tdram_speedups(jobs).values():
            self.assertAlmostEqual(s, 2.0)


class Accounting(unittest.TestCase):
    def test_matching_runs_pass(self):
        runs = [checked(), run_record(), run_record()]
        self.assertEqual(run.account(runs), (3, 0, {}))

    def test_the_check_pass_anchors_later_hashes(self):
        runs = [checked(), run_record(hash_="1"), run_record()]
        self.assertEqual(run.account(runs),
                         (3, 1, {"reportJson hash mismatch": 1}))

    def test_each_configuration_has_its_own_reference(self):
        runs = [checked(name="A/x", hash_="1"),
                checked(name="B/x", hash_="2"),
                run_record(name="A/x", hash_="1"),
                run_record(name="B/x", hash_="2")]
        self.assertEqual(run.account(runs), (4, 0, {}))

    def test_every_failure_kind_counts_once(self):
        runs = [checked(check_violations=3),
                run_record(name="idle", checked=True),
                run_record(name="empty", demands=0),
                {"name": "measure", "crashed": True}]
        attempted, failed, reasons = run.account(runs)
        self.assertEqual((attempted, failed), (4, 4))
        self.assertEqual(reasons, {"protocol violations": 1,
                                   "checker saw no events": 1,
                                   "zero demands": 1,
                                   "crash or nonzero exit": 1})

    def test_a_crashed_phase_loses_all_its_runs(self):
        runs = run.phase_runs("check", None, 64)
        self.assertEqual(run.account(runs)[:2], (64, 64))

    def test_digest_covers_every_hash(self):
        a = [run_record(name="A/x", hash_="1"),
             run_record(name="B/x", hash_="2")]
        b = [run_record(name="A/x", hash_="1"),
             run_record(name="B/x", hash_="3")]
        self.assertNotEqual(run.digest(a), run.digest(b))
        self.assertEqual(run.digest(a), run.digest(list(a)))


def measured(job_walls, sim_ns=2e6, demands=1000):
    """A measure phase; job_walls holds, per repetition, the wall
    seconds of each run, and the runs of a repetition follow each
    other."""
    reps, t = [], 0.0
    for walls in job_walls:
        jobs, start = [], t
        for i, w in enumerate(walls):
            jobs.append({"name": f"TDRAM/p{i}", "start_s": t,
                         "end_s": t + w, "sim_ns": sim_ns,
                         "demands": demands})
            t += w
        reps.append({"start_s": start, "wall_s": t - start, "jobs": jobs})
    return {"setup_s": [[0.003, 0.001, 0.002], [0.004, 0.005, 0.006]],
            "reps": reps, "peak_rss_kb": 2048, "workers": 1}


class Metrics(unittest.TestCase):
    def test_times_come_from_the_fastest_repetition(self):
        m = run.end_to_end(measured([[2.0], [1.0], [4.0]]))
        self.assertEqual(m["wall_s"], (1.0, "s"))
        self.assertAlmostEqual(m["sim_us_per_s"][0], 2000.0)
        self.assertAlmostEqual(m["demands_per_s"][0], 1000.0)
        self.assertEqual(m["job_s_p50"], (1.0, "s"))
        self.assertEqual(m["job_s_p84"], (1.0, "s"))
        self.assertEqual(m["peak_rss_mb"], (2.0, "MB"))

    def test_setup_is_the_fastest_batch_median(self):
        m = run.end_to_end(measured([[1.0]]))
        self.assertEqual(m["setup_s"], (0.002, "s"))

    def test_each_run_counts_with_its_fastest_repetition(self):
        m = run.end_to_end(measured([[1.0, 9.0, 3.0], [5.0, 2.0, 4.0]]))
        self.assertEqual(m["wall_s"], (11.0, "s"))
        # Fastest per run: 1, 2 and 3 seconds.
        self.assertEqual(m["job_s_p50"], (2.0, "s"))
        self.assertEqual(m["job_s_p84"], (3.0, "s"))

    def test_span_totals_are_per_repetition_without_setup_probes(self):
        spans = [
            {"id": 0, "name": "bench.setup", "sim": -1, "parent": -1,
             "start_s": 0.0, "end_s": 1.0},
            {"id": 1, "name": "system.setup", "sim": -1, "parent": 0,
             "start_s": 0.0, "end_s": 0.5},
            {"id": 2, "name": "bench.rep", "sim": -1, "parent": -1,
             "start_s": 1.0, "end_s": 3.0},
            {"id": 3, "name": "sim.job", "sim": 0, "parent": 2,
             "start_s": 1.0, "end_s": 3.0},
            {"id": 4, "name": "sim.loop", "sim": 0, "parent": 3,
             "start_s": 1.5, "end_s": 3.0},
        ]
        self.assertEqual(run.span_totals(spans),
                         [{"bench.rep": 2.0, "sim.job": 2.0,
                           "sim.loop": 1.5}])

    def test_layer_times_come_from_the_fastest_traced_repetition(self):
        def rep_spans(first_id, start, loop_s):
            rep, job = first_id, first_id + 1
            return [
                {"id": rep, "name": "bench.rep", "sim": -1, "parent": -1,
                 "start_s": start, "end_s": start + loop_s + 1.0},
                {"id": job, "name": "sim.job", "sim": 0, "parent": rep,
                 "start_s": start, "end_s": start + loop_s + 1.0},
                {"id": job + 1, "name": "workload.warmup", "sim": 0,
                 "parent": job, "start_s": start, "end_s": start + 1.0},
                {"id": job + 2, "name": "sim.loop", "sim": 0,
                 "parent": job, "start_s": start + 1.0,
                 "end_s": start + 1.0 + loop_s},
                {"id": job + 3, "name": "system.setup", "sim": 0,
                 "parent": job, "start_s": start, "end_s": start},
            ]
        spans = rep_spans(0, 0.0, 5.0) + rep_spans(5, 10.0, 3.0)
        job = collections.defaultdict(int, name="TDRAM/mg.D", demands=10)
        traced = {"workers": 1, "reps": [{"wall_s": 6.0, "jobs": [job]},
                                         {"wall_s": 4.0, "jobs": [job]}]}
        untraced = {"reps": [{"wall_s": 5.0, "jobs": [job]}]}
        m = run.per_layer(traced, spans, untraced, None, "mgd_tdram")
        self.assertEqual(m["sim.loop_s"], (3.0, "s"))
        self.assertEqual(m["workload.warmup_s"], (1.0, "s"))
        self.assertAlmostEqual(m["bench.trace_overhead_frac"][0], -0.2)
        self.assertAlmostEqual(m["bench.span_coverage"][0], 1.0)

    def test_coverage_counts_layer_spans_against_worker_time(self):
        reps = [{"bench.rep": 2.0, "sim.job": 7.0, "system.setup": 0.5,
                 "workload.warmup": 2.5, "sim.loop": 3.0,
                 "bench.collect": 0.5, "system.teardown": 0.5}]
        self.assertAlmostEqual(run.span_coverage(reps, 4), 6.0 / 8.0)
        self.assertAlmostEqual(run.span_coverage(reps, 3), 1.0)


if __name__ == "__main__":
    unittest.main()
