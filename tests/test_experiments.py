import json
import math
import statistics
from fractions import Fraction

import pytest

from widthlab import (
    CUT_RANK_FUNCTION,
    CapExceeded,
    ExperimentConfig,
    balanced_cut_lower_bound,
    bell,
    bell_asymptotic_check,
    booleanwidth,
    boolw_vs_rw_experiment,
    envelope_curve,
    galois_number,
    lemma1_experiment,
    log2_int,
    mix_seed,
    rank,
    rankwidth,
    sample_gnp_half,
    sample_matrix,
    scaling_experiment,
    submatrix,
    write_report,
)
from widthlab.experiments import _bell_table, render_summary, render_table, write_table
from widthlab.gf2 import exhaustive_work


def small_cfg(name, n_values=(6,), trials=3, seed=11, **kw):
    return ExperimentConfig(
        name=name, n_values=tuple(n_values), trials=trials, master_seed=seed, **kw
    )


class TestConfigValidation:
    def test_empty_n_list(self):
        with pytest.raises(ValueError, match="empty n list"):
            lemma1_experiment(small_cfg("lemma1", n_values=()))

    def test_zero_trials(self):
        with pytest.raises(ValueError, match="at least one"):
            lemma1_experiment(small_cfg("lemma1", trials=0))

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            lemma1_experiment(small_cfg("lemma1", mode="guess"))

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one(self, jobs):
        for run, name in ((lemma1_experiment, "lemma1"), (scaling_experiment, "scaling")):
            with pytest.raises(ValueError, match="jobs must be at least 1"):
                run(small_cfg(name), jobs=jobs)

    def test_repeated_n(self):
        with pytest.raises(ValueError, match="n = 6 appears more than once"):
            scaling_experiment(small_cfg("scaling", n_values=(6, 6), trials=2))
        with pytest.raises(ValueError, match="n = 4 appears more than once"):
            lemma1_experiment(small_cfg("lemma1", n_values=(3, 4, 5, 4)))

    def test_first_fault_in_list_order(self):
        # n = 2 is below the minimum, but the repeat comes first in the list
        with pytest.raises(ValueError, match="n = 4 appears more than once"):
            lemma1_experiment(small_cfg("lemma1", n_values=(4, 4, 2)))
        with pytest.raises(ValueError, match="n = 2 below the minimum 3 for lemma1"):
            lemma1_experiment(small_cfg("lemma1", n_values=(4, 2, 4)))
        # the width cap is checked in the same pass
        with pytest.raises(CapExceeded, match="n = 17 above the exact width cap 16"):
            scaling_experiment(small_cfg("scaling", n_values=(4, 17, 2)))
        with pytest.raises(ValueError, match="n = 2 below the minimum 3 for scaling"):
            scaling_experiment(small_cfg("scaling", n_values=(4, 2, 17)))

    @pytest.mark.parametrize(
        "run, name, other",
        [
            (lemma1_experiment, "lemma1", "scaling"),
            (scaling_experiment, "scaling", "boolw-rw"),
            (boolw_vs_rw_experiment, "boolw-rw", "lemma1"),
        ],
    )
    def test_config_named_for_another_experiment(self, run, name, other):
        # the name is echoed in every report, so it must be the one that ran
        message = f"the {name} experiment was given a config named '{other}'"
        with pytest.raises(ValueError, match=message):
            run(small_cfg(other))


class TestLemma1Experiment:
    def test_trial_records_verify_at_witness(self):
        report = lemma1_experiment(small_cfg("lemma1", n_values=(6, 9), trials=4))
        assert report.columns[0] == "n"
        for rec in report.records:
            m = sample_matrix(rec["n"], rec["n"], rec["seed"])
            assert rank(submatrix(m, rec["rowset"], rec["colset"])) == rec["mu"]
            assert rec["certified"] is True

    def test_summaries_recomputable(self):
        report = lemma1_experiment(small_cfg("lemma1", n_values=(6,), trials=5))
        mus = [r["mu"] for r in report.records]
        s = report.summaries[0]
        assert s["median_mu"] == statistics.median(mus)
        assert s["mean_mu"] == statistics.fmean(mus)
        assert s["frac_mu_le_n6"] == sum(1 for v in mus if v <= 1) / 5

    @pytest.mark.parametrize("trials", [3, 4])
    def test_median_is_a_float_for_any_trial_count(self, trials):
        report = lemma1_experiment(small_cfg("lemma1", n_values=(6,), trials=trials))
        assert type(report.summaries[0]["median_mu"]) is float
        assert "median_mu=" + format(report.summaries[0]["median_mu"], ".6f") in render_summary(
            report
        )

    def test_sampled_mode_flagged(self):
        report = lemma1_experiment(small_cfg("lemma1", trials=2, mode="sampled"))
        assert all(r["certified"] is False for r in report.records)
        assert report.summaries[0]["certified_all"] is False

    def test_cap_falls_back_to_sampled(self):
        report = lemma1_experiment(small_cfg("lemma1", trials=2, work_cap=10))
        assert all(r["certified"] is False for r in report.records)

    def test_work_cap_at_the_work_count_is_exhaustive(self):
        work = exhaustive_work(6, 6, 2, 4)
        at = lemma1_experiment(small_cfg("lemma1", trials=2, work_cap=work))
        below = lemma1_experiment(small_cfg("lemma1", trials=2, work_cap=work - 1))
        assert all(r["certified"] is True for r in at.records)
        assert all(r["certified"] is False for r in below.records)

    def test_n20_is_certified_under_the_default_cap(self):
        report = lemma1_experiment(small_cfg("lemma1", n_values=(20,), trials=1))
        (rec,) = report.records
        assert rec["certified"] is True
        matrix = sample_matrix(20, 20, rec["seed"])
        assert rank(submatrix(matrix, rec["rowset"], rec["colset"])) == rec["mu"]

    def test_sampled_bounds_exhaustive_per_trial(self):
        exact = lemma1_experiment(small_cfg("lemma1", trials=4))
        sampled = lemma1_experiment(small_cfg("lemma1", trials=4, mode="sampled"))
        for a, b in zip(exact.records, sampled.records):
            assert b["mu"] >= a["mu"]

    def test_deterministic_reruns(self):
        a = lemma1_experiment(small_cfg("lemma1", n_values=(6, 9), trials=3))
        b = lemma1_experiment(small_cfg("lemma1", n_values=(6, 9), trials=3))
        assert a == b

    def test_parallel_matches_serial(self):
        cfg = small_cfg("lemma1", n_values=(6, 9), trials=3)
        assert lemma1_experiment(cfg, jobs=2) == lemma1_experiment(cfg, jobs=1)


class TestScalingExperiment:
    def test_structural_bounds_per_trial(self):
        report = scaling_experiment(small_cfg("scaling", n_values=(8,), trials=4))
        for rec in report.records:
            assert rec["lb"] <= rec["rw"] <= rec["n"] - 1
            assert rec["rw_over_n"] == rec["rw"] / rec["n"]

    def test_records_match_the_public_engines(self):
        # The trial takes lb from the rank table before its DP runs.  Read
        # after the DP, these seeds give a larger lb on some small graphs.
        report = scaling_experiment(small_cfg("scaling", n_values=(4, 5, 6), trials=12))
        for rec in report.records:
            g = sample_gnp_half(rec["n"], rec["seed"])
            assert rec["rw"] == int(rankwidth(g).value)
            assert rec["boolw"] == booleanwidth(g).value
            assert rec["lb"] == int(balanced_cut_lower_bound(g, CUT_RANK_FUNCTION)[0])

    def test_cap_rejected(self):
        with pytest.raises(Exception, match="cap"):
            scaling_experiment(small_cfg("scaling", n_values=(20,), trials=1))

    def test_deterministic(self):
        cfg = small_cfg("scaling", n_values=(6, 8), trials=2)
        assert scaling_experiment(cfg) == scaling_experiment(cfg)


class TestBoolwRwExperiment:
    def test_records_match_the_public_engines(self):
        # the trial runs the engines' DP on half tables it fills itself; its
        # values and its audit of its witness trees must agree with the
        # public engines
        report = boolw_vs_rw_experiment(small_cfg("boolw-rw", n_values=(1, 2, 5, 7), trials=8))
        for rec in report.records:
            g = sample_gnp_half(rec["n"], rec["seed"])
            rw = int(rankwidth(g).value)
            boolw = booleanwidth(g).value
            assert rec["rw"] == rw
            assert repr(rec["boolw"]) == repr(boolw)
            assert rec["log2_galois_rw"] == log2_int(galois_number(rw))
            assert rec["cut_violations"] == 0
            assert rec["graph_ok"] is (boolw <= rec["log2_galois_rw"] + 1e-12)

    def test_no_violations_and_complete_graph_control(self):
        report = boolw_vs_rw_experiment(small_cfg("boolw-rw", n_values=(6, 8), trials=3))
        for rec in report.records:
            assert rec["cut_violations"] == 0
            assert rec["graph_ok"] is True
            assert rec["boolw"] <= rec["log2_galois_rw"] + 1e-12
        assert all(s["total_cut_violations"] == 0 for s in report.summaries)

    def test_galois_log_growth_context(self):
        # log2 G_r stays under r(r+1)/2 + 2 at small r, framing the
        # rw log rw target
        for r in range(13):
            assert log2_int(galois_number(r)) <= r * (r + 1) / 2 + 2


class TestEnvelopeCurve:
    def test_value_at_ten(self):
        table = envelope_curve([10])
        n, log2_env, value = table.rows[0]
        assert abs(value - 1.624e-16) / 1.624e-16 < 0.01
        assert value == pytest.approx(3**30 / 2**100, rel=1e-12)

    def test_log_space_at_three(self):
        table = envelope_curve([3])
        assert table.rows[0][1] == pytest.approx(9 * math.log2(3) - 9, abs=1e-12)
        assert table.rows[0][1] > 0  # bound vacuous at small n

    def test_strictly_decreasing_from_five(self):
        table = envelope_curve(range(5, 51))
        logs = [row[1] for row in table.rows]
        assert all(b < a for a, b in zip(logs, logs[1:]))

    def test_log_space_agrees_with_direct(self):
        for n, log2_env, value in envelope_curve(range(1, 36)).rows:
            direct = float(Fraction(3 ** (3 * n), 2 ** (n * n)))
            assert direct == pytest.approx(2.0**log2_env, rel=1e-10)

    def test_repeated_n_rejected(self):
        with pytest.raises(ValueError, match="n = 6 appears more than once in the n list"):
            envelope_curve([6, 4, 6])

    def test_n_bounds(self):
        with pytest.raises(ValueError, match="n = -1 below the minimum 0 for envelope"):
            envelope_curve([3, -1])
        with pytest.raises(ValueError, match="n = 501 above the maximum 500 for envelope"):
            envelope_curve([3, 501])
        assert envelope_curve([36, 500]).rows[1] == (500, 1500 * math.log2(3) - 250000, 0.0)

    def test_value_is_the_rounded_exact_rational(self):
        for n, _, value in envelope_curve(range(0, 60)).rows:
            assert value == float(Fraction(3 ** (3 * n), 2 ** (n * n)))


class TestBellAsymptoticCheck:
    def test_examples(self):
        table = bell_asymptotic_check(5)
        rows = {row[0]: row for row in table.rows}
        assert rows[5][1] == pytest.approx(math.log2(52), abs=1e-12)
        assert rows[5][2] == pytest.approx(5 * math.log2(5), abs=1e-12)
        assert rows[3][1] == pytest.approx(math.log2(5), abs=1e-12)

    def test_margin_finite_everywhere(self):
        table = bell_asymptotic_check(60)
        assert all(math.isfinite(row[4]) for row in table.rows)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            bell_asymptotic_check(2)
        with pytest.raises(ValueError):
            bell_asymptotic_check(501)

    def test_listed_n_in_list_order(self):
        rows = {row[0]: row for row in bell_asymptotic_check(12).rows}
        assert _bell_table([9, 4, 12]).rows == (rows[9], rows[4], rows[12])
        assert _bell_table(range(3, 13)) == bell_asymptotic_check(12)

    @pytest.mark.parametrize(
        "n_values, message",
        [
            ((9, 4, 4), "n = 4 appears more than once"),
            ((4, 2), "n = 2 below the minimum 3 for bell"),
            ((501,), "n = 501 above the maximum 500 for bell"),
        ],
    )
    def test_listed_n_checked(self, n_values, message):
        with pytest.raises(ValueError, match=message):
            _bell_table(n_values)


class TestReportSerialization:
    def test_csv_shape(self, tmp_path):
        report = lemma1_experiment(small_cfg("lemma1", trials=2))
        path = tmp_path / "r.csv"
        write_report(report, "csv", path)
        lines = path.read_text().splitlines()
        preamble = [ln for ln in lines if ln.startswith("#")]
        assert "# experiment=lemma1" in preamble
        assert "# generator=splitmix64" in preamble
        assert "# master_seed=11" in preamble
        header_idx = len(preamble)
        assert lines[header_idx] == ",".join(report.columns)
        assert len(lines) == header_idx + 1 + len(report.records)

    def test_jsonl_round_trip_summaries(self, tmp_path):
        report = lemma1_experiment(small_cfg("lemma1", n_values=(6, 9), trials=4))
        path = tmp_path / "r.jsonl"
        write_report(report, "jsonl", path)
        lines = path.read_text().splitlines()
        *trials, tail = [json.loads(ln) for ln in lines]
        assert len(trials) == len(report.records)
        tail_cfg = tail["config"]
        assert tail_cfg["master_seed"] == 11 and tail_cfg["mode"] == "exhaustive"
        assert tail["generator"] == "splitmix64"
        # recompute summaries from the parsed trial records
        for summary in tail["summaries"]:
            mus = [t["mu"] for t in trials if t["n"] == summary["n"]]
            assert summary["median_mu"] == statistics.median(mus)
            assert summary["mean_mu"] == statistics.fmean(mus)
            assert summary["min_mu"] == min(mus) and summary["max_mu"] == max(mus)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = small_cfg("lemma1", n_values=(6,), trials=3)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_report(lemma1_experiment(cfg), "jsonl", p1)
        write_report(lemma1_experiment(cfg), "jsonl", p2)
        assert p1.read_bytes() == p2.read_bytes()
        c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report(lemma1_experiment(cfg), "csv", c1)
        write_report(lemma1_experiment(cfg, jobs=2), "csv", c2)
        assert c1.read_bytes() == c2.read_bytes()

    def test_unknown_format(self, tmp_path):
        report = lemma1_experiment(small_cfg("lemma1", trials=1))
        with pytest.raises(ValueError, match="format"):
            write_report(report, "xml", tmp_path / "r.xml")

    def test_empty_report_degenerates_cleanly(self, tmp_path):
        from widthlab import ExperimentReport

        columns = ("n", "trial", "seed", "mu", "rowset", "colset", "certified")
        empty = ExperimentReport(
            config=small_cfg("lemma1", trials=1),
            generator="splitmix64",
            version="0.1.0",
            columns=columns,
            records=(),
            summaries=(),
        )
        write_report(empty, "csv", tmp_path / "e.csv")
        lines = (tmp_path / "e.csv").read_text().splitlines()
        assert lines[-1] == ",".join(columns)  # preamble + header only
        write_report(empty, "jsonl", tmp_path / "e.jsonl")
        objs = [json.loads(ln) for ln in (tmp_path / "e.jsonl").read_text().splitlines()]
        assert len(objs) == 1 and "summaries" in objs[0]

    def test_io_error_carries_path(self, tmp_path):
        report = lemma1_experiment(small_cfg("lemma1", trials=1))
        target = tmp_path / "missing" / "r.csv"
        with pytest.raises(OSError, match="missing"):
            write_report(report, "csv", target)

    def test_table_writers(self, tmp_path):
        table = envelope_curve([3, 10])
        write_table(table, "csv", tmp_path / "t.csv")
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[0] == "n,log2_envelope,envelope"
        assert len(lines) == 3
        write_table(table, "jsonl", tmp_path / "t.jsonl")
        objs = [json.loads(ln) for ln in (tmp_path / "t.jsonl").read_text().splitlines()]
        assert objs[1]["n"] == 10

    def test_render_helpers_deterministic(self):
        report = lemma1_experiment(small_cfg("lemma1", trials=2))
        assert render_summary(report) == render_summary(report)
        t = envelope_curve([10])
        out = render_table(t, float_formats={"envelope": "{:.6e}"})
        assert "1.624195e-16" in out


class TestPoolFallback:
    def test_serial_fallback_is_announced_and_identical(self, monkeypatch, capsys):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise OSError("no process pool here")

        cfg = small_cfg("lemma1", n_values=(6, 9), trials=2)
        serial = lemma1_experiment(cfg, jobs=1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert lemma1_experiment(cfg, jobs=2) == serial
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "serially" in err

    def test_pool_no_larger_than_the_trials(self, monkeypatch):
        import concurrent.futures

        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize):
                return map(fn, tasks)

        cfg = small_cfg("scaling", n_values=(6,), trials=2)
        serial = scaling_experiment(cfg, jobs=1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        assert scaling_experiment(cfg, jobs=8) == serial
        assert sizes == [2]
