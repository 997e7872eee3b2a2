"""Pipeline, serialization and command-line behaviour."""

import argparse
import json
import math
import re
import warnings
from dataclasses import fields
from pathlib import Path

import pytest

from stratexp.cli import _PARSER, _SETTINGS, DEFAULT_ESTIMATORS, main
from stratexp.datasets import SYNTHETIC_SAMPLE_SIZES, synthetic_csv_path
from stratexp.errors import ConfigError
from stratexp.estimators import EstimatorKind, EstimatorSpec
from stratexp.population import load_population_file
from stratexp.report import (
    CHOICES,
    EstimatorRequest,
    EstimatorRow,
    RunConfig,
    emit,
    report_as_dict,
    run,
)
from stratexp.verify import exact_bias_mse, monte_carlo


def base_config(**overrides) -> RunConfig:
    defaults = dict(
        population=synthetic_csv_path(),
        sample_sizes=SYNTHETIC_SAMPLE_SIZES,
        estimators=(
            EstimatorRequest.parse("t1s"),
            EstimatorRequest.parse("t2s"),
            EstimatorRequest.parse("t3s:optimize"),
            EstimatorRequest.parse("t4s:optimize"),
        ),
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def _leaves(value):
    """The scalars of a JSON-shaped value, in document order."""
    if isinstance(value, dict):
        for v in value.values():
            yield from _leaves(v)
    elif isinstance(value, list):
        for v in value:
            yield from _leaves(v)
    else:
        yield value


class TestEstimatorRequest:
    def test_parse_forms(self):
        assert EstimatorRequest.parse("t1s").kind is EstimatorKind.T1S
        assert EstimatorRequest.parse("T3S:0.5").parameter == 0.5
        assert EstimatorRequest.parse("t4s:optimize").optimize
        assert EstimatorRequest.parse("t3s: optimize").optimize
        assert EstimatorRequest.parse("t3s: 0.5").parameter == 0.5
        assert EstimatorRequest.parse("t3s:-1.5").label() == "t3s:-1.5"

    @pytest.mark.parametrize("text", ["t3s :0.5", " t3s : 0.5 ", "T3S\t:0.5", "t3s: 0.5"])
    def test_spaces_around_the_kind_and_the_parameter(self, text, capsys):
        assert EstimatorRequest.parse(text) == EstimatorRequest.parse("t3s:0.5")
        argv = ["--population", synthetic_csv_path(), "--n", "A=3", "--n", "B=3", "--order", "1"]
        assert main([*argv, "--estimator", text]) == 0
        assert "t3s:0.5" in capsys.readouterr().out

    def test_label_keeps_every_digit_of_the_constant(self):
        labels = [EstimatorRequest.parse(t).label() for t in ("t3s:0.1234567", "t3s:0.1234568")]
        assert labels == ["t3s:0.1234567", "t3s:0.1234568"]
        # constants that ':g' already renders exactly keep that text
        for text, label in [
            ("t3s:0.5", "t3s:0.5"),
            ("t4s:0.25", "t4s:0.25"),
            ("t3s:-0.5", "t3s:-0.5"),
            ("t4s:0.75", "t4s:0.75"),
            ("t3s:1.5", "t3s:1.5"),
            ("t3s:1e6", "t3s:1e+06"),
        ]:
            assert EstimatorRequest.parse(text).label() == label

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigError):
            EstimatorRequest.parse("t9s")
        with pytest.raises(ConfigError):
            EstimatorRequest.parse("t3s:often")
        with pytest.raises(ConfigError):
            EstimatorRequest.parse("t3s")  # parameter required
        with pytest.raises(ConfigError):
            EstimatorRequest.parse("t1s:0.5")  # no parameter allowed
        for text in ("t1s:", "t2s: ", "t3s:", "t4s: ", "t3s:  \t"):
            with pytest.raises(ConfigError, match="empty parameter"):
                EstimatorRequest.parse(text)


class TestRunConfig:
    def test_replicates_iff_mc(self):
        with pytest.raises(ConfigError, match="requires replicates"):
            base_config(verify="mc")
        with pytest.raises(ConfigError, match="only meaningful"):
            base_config(replicates=100)
        cfg = base_config(verify="mc", replicates=100)
        assert cfg.replicates == 100

    def test_choice_validation(self):
        with pytest.raises(ConfigError):
            base_config(order="3")
        with pytest.raises(ConfigError):
            base_config(verify="sometimes")
        with pytest.raises(ConfigError):
            base_config(format="xml")
        with pytest.raises(ConfigError):
            base_config(estimators=())


class TestPipeline:
    def test_rows_and_optimizer_metadata(self):
        report = run(base_config())
        assert [r.label for r in report.rows] == [
            "t1s", "t2s", "t3s:optimize", "t4s:optimize",
        ]
        assert set(report.optimizer_outcomes) == {"t3s:optimize", "t4s:optimize"}
        for outs in report.optimizer_outcomes.values():
            assert outs["order1"].method == "closed_form"
            assert outs["order2"].method == "numeric"
        t3_row = report.rows[2]
        assert t3_row.parameter_order1 == pytest.approx(
            report.optimizer_outcomes["t3s:optimize"]["order1"].parameter
        )
        assert t3_row.parameter_order2 == pytest.approx(
            report.optimizer_outcomes["t3s:optimize"]["order2"].parameter
        )

    def test_order_one_only(self):
        report = run(base_config(order="1"))
        row = report.rows[0]
        assert row.bias1 is not None and row.bias2 is None
        assert row.mse2 is None

    def test_exact_columns(self):
        report = run(base_config(verify="exact"))
        for row in report.rows:
            assert row.bias_exact is not None
            assert row.mse_exact is not None

    def test_mc_columns(self):
        report = run(base_config(verify="mc", replicates=500, seed=3))
        row = report.rows[0]
        assert row.mc_bias is not None
        assert row.mc_bias_se > 0
        assert row.mc_skipped == 0

    @pytest.mark.parametrize("order", ["1", "2", "both"])
    def test_exact_columns_take_the_highest_orders_constant(self, order):
        """Each :optimize row's exact columns are those of its constant at
        the highest requested order, bit for bit; at order "both" the
        order-1 constant would give other values."""
        report = run(base_config(verify="exact", order=order))
        pop = load_population_file(synthetic_csv_path(), dict(SYNTHETIC_SAMPLE_SIZES))
        top = "parameter_order1" if order == "1" else "parameter_order2"
        for row in report.rows[2:]:
            assert row.label.endswith(":optimize")
            ((b, m),) = exact_bias_mse(pop, [EstimatorSpec(row.kind, getattr(row, top))])
            assert (row.bias_exact.hex(), row.mse_exact.hex()) == (b.hex(), m.hex())
            if order == "both":
                other = exact_bias_mse(pop, [EstimatorSpec(row.kind, row.parameter_order1)])
                assert other != [(b, m)]

    @pytest.mark.parametrize("order", ["1", "2", "both"])
    def test_mc_columns_take_the_highest_orders_constant(self, order):
        """The same for the Monte Carlo columns, against one ``monte_carlo``
        call on every row's constant at that order."""
        report = run(base_config(verify="mc", replicates=200, seed=11, order=order))
        pop = load_population_file(synthetic_csv_path(), dict(SYNTHETIC_SAMPLE_SIZES))
        top = "parameter_order1" if order == "1" else "parameter_order2"
        specs = [EstimatorSpec(row.kind, getattr(row, top)) for row in report.rows]
        mc = monte_carlo(pop, specs, replicates=200, seed=11)
        for row, b, m in list(zip(report.rows, mc.bias, mc.mse))[2:]:
            assert row.label.endswith(":optimize")
            got = (row.mc_bias, row.mc_bias_se, row.mc_mse, row.mc_mse_se)
            want = (b.mean, b.standard_error, m.mean, m.standard_error)
            assert [x.hex() for x in got] == [x.hex() for x in want]
            assert row.mc_skipped == mc.skipped
        if order == "both":
            specs = [EstimatorSpec(row.kind, row.parameter_order1) for row in report.rows]
            other = monte_carlo(pop, specs, replicates=200, seed=11)
            assert [b.mean for b in other.bias[2:]] != [row.mc_bias for row in report.rows[2:]]

    def test_printed_columns_only_for_ratio_product(self):
        report = run(base_config(printed_mode=True))
        assert report.rows[0].printed_bias2 is not None
        assert report.rows[0].printed_bias2_delta != 0.0
        assert report.rows[1].printed_mse2_delta != 0.0
        assert report.rows[2].printed_bias2 is None
        assert report.rows[3].printed_bias2 is None

    def test_corrections_disclosed(self):
        report = run(base_config())
        text = " ".join(report.corrections)
        assert report.corrections
        assert "W_h = N_h / N" in text
        assert "-13/48" in text and "73/384" in text
        assert "cross-stratum" in text

    def test_mc_draws_each_replicate_once_for_all_estimators(self, monkeypatch):
        import stratexp.verify

        resets = []
        philox = stratexp.verify._philox
        monkeypatch.setattr(
            stratexp.verify,
            "_philox",
            lambda seed, rep: resets.append(rep) or philox(seed, rep),
        )
        report = run(base_config(verify="mc", replicates=50, seed=3))
        assert len(report.rows) == 4
        # one Philox reset per replicate, shared by the four estimators
        assert resets == list(range(50))

    def test_exact_builds_each_stratum_combination_once(self, monkeypatch):
        import math

        import stratexp.verify

        calls = []
        means = stratexp.verify.stratum_means
        monkeypatch.setattr(
            stratexp.verify,
            "stratum_means",
            lambda *args: calls.append(args) or means(*args),
        )
        report = run(base_config(verify="exact"))
        assert len(report.rows) == 4
        # One call per stratum, N = (6, 7), n = (3, 3): a row per combination.
        rows = [(s.id, len(idx)) for s, idx in calls]
        assert rows == [("A", math.comb(6, 3)), ("B", math.comb(7, 3))]

    def test_mc_starts_no_thread(self, monkeypatch):
        import threading

        def refuse(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        report = run(base_config(verify="mc", replicates=50, seed=3, workers=4))
        assert report.rows[0].mc_skipped == 0

    def test_exact_verify_refused_over_limit(self):
        from stratexp.errors import EnumerationLimitError

        with pytest.raises(EnumerationLimitError, match="Monte Carlo"):
            run(base_config(verify="exact", max_enum=100))

    def test_nonpositive_auxiliary_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("stratum,x,y\nA,1,2\nA,-1,3\nA,2,4\nA,3,5\nA,4,6\n")
        from stratexp.errors import PopulationError

        cfg = base_config(population=str(bad), sample_sizes={"A": 2})
        with pytest.raises(PopulationError, match="x <= 0"):
            run(cfg)


class TestEmission:
    def test_json_determinism(self):
        cfg = base_config(
            verify="mc", replicates=300, seed=11, format="json"
        )
        a = emit(run(cfg))
        b = emit(run(cfg))
        assert a == b

    def test_json_roundtrip_values(self):
        report = run(base_config(verify="exact", printed_mode=True))
        text = emit(report, "json")
        parsed = json.loads(text)
        direct = report_as_dict(report)
        # every float is written as its shortest round-trip repr, so it
        # reads back bit for bit, and as a float
        want, got = list(_leaves(direct)), list(_leaves(parsed))
        assert len(want) == len(got)
        for w, g in zip(want, got):
            assert type(g) is type(w)
            assert (g.hex() == w.hex()) if isinstance(w, float) else (g == w)
        assert f'"bias1": {report.rows[0].bias1!r},' in text

    def test_json_bracket_reads_back_as_floats(self):
        optimizer = json.loads(emit(run(base_config()), "json"))["optimizer"]
        assert optimizer["t3s:optimize"]["order2"]["bracket"] == [-4.0, 4.0]
        assert optimizer["t4s:optimize"]["order2"]["bracket"] == [-2.0, 3.0]
        for outcomes in optimizer.values():
            assert all(type(b) is float for b in outcomes["order2"]["bracket"])

    def test_integral_floats_read_back_as_floats(self, tmp_path):
        """x = 1..5 is symmetric, so V03 is exactly 0.0; one stratum has weight 1.0."""
        pop = tmp_path / "symmetric.csv"
        pop.write_text("stratum,x,y\nA,1,2\nA,2,3\nA,3,5\nA,4,4\nA,5,7\n")
        report = run(base_config(population=str(pop), sample_sizes={"A": 2}))
        parsed = json.loads(emit(report, "json"))
        assert parsed["moments"]["V03"] == 0.0
        assert type(parsed["moments"]["V03"]) is float
        assert parsed["population"]["strata"][0]["weight"] == 1.0
        assert type(parsed["population"]["strata"][0]["weight"]) is float

    def test_csv_shape(self):
        report = run(base_config())
        lines = emit(report, "csv").strip().splitlines()
        assert lines[0].startswith("estimator,metric,")
        assert len(lines) == 1 + 2 * len(report.rows)
        assert lines[1].split(",")[:3] == ["t1s", "bias", repr(report.rows[0].bias1)]

    def test_table_contains_rows_and_metadata(self):
        report = run(base_config(verify="exact"))
        text = emit(report, "table")
        assert "t3s:optimize" in text
        assert "bias exact" in text
        assert "corrections applied:" in text
        assert "seed = 0" in text

    def test_table_flags_negative_mse(self):
        row = EstimatorRow(
            label="t3s:9", kind=EstimatorKind.T3S,
            parameter_order1=9.0, parameter_order2=9.0,
            bias1=0.1, mse1=0.2, bias2=0.1, mse2=-0.5,
            warnings=("negative_mse2",),
        )
        report = run(base_config())
        hacked = type(report)(
            config=report.config,
            strata=report.strata,
            ybar=report.ybar,
            xbar=report.xbar,
            moments=report.moments,
            rows=(row,),
            optimizer_outcomes={},
            corrections=report.corrections,
        )
        text = emit(hacked, "table")
        assert "-0.5 !" in text
        assert "series breakdown" in text

    def test_unknown_format(self):
        report = run(base_config())
        with pytest.raises(ConfigError):
            emit(report, "yaml")


ROW_KEYS = [
    "estimator", "kind", "parameter_order1", "parameter_order2",
    "bias1", "mse1", "bias2", "mse2",
]
PRINTED_KEYS = ["printed_bias2", "printed_mse2", "printed_bias2_delta", "printed_mse2_delta"]
EXACT_KEYS = ["bias_exact", "mse_exact"]
MC_KEYS = ["mc_bias", "mc_bias_se", "mc_mse", "mc_mse_se", "mc_skipped"]
CSV_HEADER = (
    "estimator,metric,first_order,second_order,printed_second_order,"
    "exact,mc_estimate,mc_standard_error"
)


def _table_cells(line: str) -> list[str]:
    """A table line's cells: columns are two or more spaces apart, and no
    heading or cell holds two spaces in a row."""
    return re.split(r" {2,}", line)


class TestReportLayout:
    """The keys, columns and headings of each format, over every combination
    of order, oracle and printed mode on the synthetic population."""

    @pytest.fixture(
        scope="class",
        params=[
            (order, verify, printed)
            for order in ("1", "2", "both")
            for verify in ("none", "exact", "mc")
            for printed in (False, True)
        ],
        ids=lambda p: f"order{p[0]}-{p[1]}-{'printed' if p[2] else 'plain'}",
    )
    def case(self, request):
        order, verify, printed = request.param
        replicates = 20 if verify == "mc" else None
        report = run(base_config(
            order=order, verify=verify, printed_mode=printed, replicates=replicates, seed=3,
        ))
        # the legacy closed forms exist for t1s and t2s at second order
        has_printed = [printed and order != "1" and i < 2 for i in range(len(report.rows))]
        return report, order, verify, has_printed

    def test_json_row_and_optimizer_keys(self, case):
        report, order, verify, has_printed = case
        parsed = json.loads(emit(report, "json"))
        for row, printed in zip(parsed["estimators"], has_printed):
            want = ROW_KEYS + (PRINTED_KEYS if printed else [])
            want += {"none": [], "exact": EXACT_KEYS, "mc": MC_KEYS}[verify]
            assert list(row) == want + ["warnings"]
            assert (row["bias1"] is None) == (order == "2")
            assert (row["bias2"] is None) == (order == "1")
        orders = {"1": ["order1"], "2": ["order2"], "both": ["order1", "order2"]}[order]
        assert list(parsed["optimizer"]) == ["t3s:optimize", "t4s:optimize"]
        for outcomes in parsed["optimizer"].values():
            assert list(outcomes) == orders
            for outcome in outcomes.values():
                assert list(outcome) == [
                    "parameter", "objective", "order", "method",
                    "bracket", "iterations", "objective_negative",
                ]
                assert type(outcome["bracket"]) is list

    def test_csv_cells(self, case):
        report, order, verify, has_printed = case
        lines = emit(report, "csv").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * len(report.rows)
        for i, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert len(cells) == 8
            assert cells[:2] == [report.rows[i // 2].label, ("bias", "mse")[i % 2]]
            filled = [
                order != "2",
                order != "1",
                has_printed[i // 2],
                verify == "exact",
                verify == "mc",
                verify == "mc",
            ]
            assert [cell != "" for cell in cells[2:]] == filled

    def test_table_header(self, case):
        report, _, verify, has_printed = case
        headings = ["estimator", "bias(1)", "bias(2)", "mse(1)", "mse(2)"]
        if any(has_printed):
            headings += ["bias(2) printed", "mse(2) printed"]
        headings += {
            "none": [],
            "exact": ["bias exact", "mse exact"],
            "mc": ["mc bias (se)", "mc mse (se)"],
        }[verify]
        lines = emit(report, "table").splitlines()
        assert _table_cells(lines[0]) == headings
        assert _table_cells(lines[1]) == ["-" * len(c) for c in _table_cells(lines[1])]

    def test_table_dashes_where_only_t1s_t2s_are_printed(self):
        report = run(base_config(printed_mode=True))
        lines = emit(report, "table").splitlines()
        assert _table_cells(lines[0])[5:] == ["bias(2) printed", "mse(2) printed"]
        body = [_table_cells(line) for line in lines[2 : 2 + len(report.rows)]]
        assert [cells[0] for cells in body] == ["t1s", "t2s", "t3s:optimize", "t4s:optimize"]
        for row, cells in zip(report.rows, body):
            assert len(cells) == 7
            if row.label in ("t1s", "t2s"):
                assert cells[5:] == [
                    format(row.printed_bias2, ".6g"), format(row.printed_mse2, ".6g")
                ]
            else:
                assert cells[5:] == ["-", "-"]


class TestCli:
    def test_defaults_and_exit_zero(self, capsys):
        code = main(["--population", synthetic_csv_path(), "--n", "A=3", "--n", "B=3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "t3s:optimize" in out

    def test_json_byte_determinism(self, capsys):
        argv = [
            "--population", synthetic_csv_path(),
            "--n", "A=3", "--n", "B=3",
            "--verify", "mc", "--replicates", "300", "--seed", "5",
            "--format", "json",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_validation_error_exit_one(self, capsys):
        code = main(["--population", "/nonexistent.csv", "--n", "A=3"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_computation_error_exit_two(self, capsys):
        code = main([
            "--population", synthetic_csv_path(),
            "--n", "A=3", "--n", "B=3",
            "--verify", "exact", "--max-enum", "10",
        ])
        assert code == 2
        assert "Monte Carlo" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "verify",
        [["--verify", "exact"], ["--verify", "mc", "--replicates", "10"]],
        ids=["exact", "mc"],
    )
    def test_estimator_overflow_exit_two(self, capsys, verify):
        """exp(1e6 z) overflows: a typed error with exit 2, never skipped as a replicate."""
        code = main([
            "--population", synthetic_csv_path(),
            "--n", "A=3", "--n", "B=3",
            "--estimator", "t3s:1e6",
            *verify,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "computation failed: ComputationError" in err
        assert "t3s(alpha=1e+06) overflows" in err
        assert "failed on sample with index sets" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "estimator, verify",
        [
            ("t3s:12000", ["--verify", "exact"]),
            ("t3s:8000", ["--verify", "mc", "--replicates", "50"]),
        ],
        ids=["exact", "mc"],
    )
    def test_oracle_overflow_exit_two(self, capsys, estimator, verify):
        """Finite estimates whose squares leave the float range: exit 2, not nan or a traceback."""
        code = main([
            "--population", synthetic_csv_path(),
            "--n", "A=3", "--n", "B=3",
            "--estimator", estimator, "--format", "json",
            *verify,
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "computation failed: ComputationError" in captured.err
        assert f"t3s(alpha={estimator[4:]}) overflows" in captured.err

    def test_moment_overflow_exit_two(self, capsys, tmp_path):
        """C30 / ybar^3 overflows: a typed error with exit 2, never "inf" in the report."""
        pop = tmp_path / "v30.csv"
        pop.write_text(
            "stratum,x,y\nA,1,-30000\nA,2,-30000\nA,3,-30000\nA,4,90000\nA,5,5e-99\n"
        )
        code = main([
            "--population", str(pop), "--n", "A=2",
            "--order", "1", "--estimator", "t1s", "--format", "json",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "stratexp: computation failed: ComputationError: "
            "V30 = inf is outside the float range; rescale x or y\n"
        )

    @staticmethod
    def _lopsided_stratum(tmp_path, y: float) -> str:
        """100 units: ten at ``y`` and ninety at 0."""
        csv = tmp_path / "lopsided.csv"
        csv.write_text("stratum,x,y\n" + "".join(
            f"A,{i},{y if i <= 10 else 0.0!r}\n" for i in range(1, 101)
        ))
        return str(csv)

    def test_moment_in_range_whose_sum_is_not_exit_zero(self, tmp_path, capsys):
        """y = -5.53e102 on ten of 100 units: the sum of (y - y_mean)^3 leaves
        the float range, but C30 does not, so the report runs."""
        pop = self._lopsided_stratum(tmp_path, -5.53e102)
        code = main(["--population", pop, "--n", "A=10", "--estimator", "t1s", "--format", "json"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert json.loads(captured.out)["estimators"][0]["mse2"] > 0

    def test_moment_past_the_float_range_exit_two(self, tmp_path, capsys):
        """y = -2e103 on ten of 100 units: (y - y_mean)^3, and so C30, is past
        the float range."""
        pop = self._lopsided_stratum(tmp_path, -2e103)
        assert main(["--population", pop, "--n", "A=10", "--estimator", "t1s"]) == 2
        assert capsys.readouterr().err == (
            "stratexp: computation failed: ComputationError: stratum 'A': "
            "central moment C30 = -inf is not a normal float; rescale x or y\n"
        )

    def test_close_constants_keep_distinct_labels(self, capsys):
        code = main([
            "--population", synthetic_csv_path(),
            "--n", "A=3", "--n", "B=3",
            "--estimator", "t3s:0.1234567", "--estimator", "t3s:0.1234568",
            "--format", "json",
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        labels = ["t3s:0.1234567", "t3s:0.1234568"]
        assert out["config"]["estimators"] == labels
        assert [row["estimator"] for row in out["estimators"]] == labels

    def test_close_constants_name_their_own_failure(self, capsys):
        """The first request fails, and the error names its constant, not the second's."""
        code = main([
            "--population", synthetic_csv_path(),
            "--n", "A=3", "--n", "B=3",
            "--estimator", "t3s:1.0000001e6", "--estimator", "t3s:1e6",
            "--verify", "exact",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "estimator t3s(alpha=1000000.1) failed on sample" in err
        assert "1e+06" not in err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_seed_beyond_64_bits_is_a_config_error(self, tmp_path, capsys, source):
        """2**64 would draw the replicates of seed 0 while echoing another seed."""
        def argv(seed: int) -> list[str]:
            if source == "flag":
                return [
                    "--population", synthetic_csv_path(),
                    "--n", "A=3", "--n", "B=3",
                    "--verify", "mc", "--replicates", "5", "--seed", str(seed),
                ]
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({
                "population": synthetic_csv_path(),
                "sample_sizes": {"A": 3, "B": 3},
                "verify": "mc",
                "replicates": 5,
                "seed": seed,
            }))
            return ["--config", str(cfg)]

        assert main(argv(2**64)) == 1
        err = capsys.readouterr().err
        assert "ConfigError" in err
        assert "seed must be in [0, 2**64)" in err
        assert main(argv(2**64 - 1)) == 0

    @staticmethod
    def _estimator_argv(tmp_path, source: str, estimator: str) -> list[str]:
        """Argv requesting one estimator by flag or through a config file."""
        if source == "flag":
            return [
                "--population", synthetic_csv_path(),
                "--n", "A=3", "--n", "B=3",
                "--estimator", estimator,
            ]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "population": synthetic_csv_path(),
            "sample_sizes": {"A": 3, "B": 3},
            "estimators": [estimator],
        }))
        return ["--config", str(cfg)]

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("estimator", ["t3s:inf", "t3s:-inf", "t3s:nan", "t4s:inf"])
    def test_non_finite_parameter_is_a_config_error(self, tmp_path, capsys, source, estimator):
        assert main(self._estimator_argv(tmp_path, source, estimator)) == 1
        err = capsys.readouterr().err
        assert "ConfigError" in err
        assert "parameter must be finite" in err

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "estimator, label",
        [("t3s:1e200", "t3s(alpha=1e+200)"), ("t4s:1e308", "t4s(theta=1e+308)")],
    )
    def test_series_overflow_exit_two(self, tmp_path, capsys, source, estimator, label):
        """A weight beyond the float range is a typed error naming the estimator."""
        assert main(self._estimator_argv(tmp_path, source, estimator)) == 2
        err = capsys.readouterr().err
        assert "computation failed: ComputationError" in err
        assert f"{label} overflows" in err

    @pytest.mark.parametrize("order", ["1", "2"])
    @pytest.mark.parametrize("estimator", ["t3s:optimize", "t4s:optimize"])
    def test_constant_auxiliary_has_no_optimum(self, tmp_path, capsys, order, estimator):
        """x = 0.1 everywhere: V02 = 0 exactly, and neither order picks a constant."""
        csv = tmp_path / "flat.csv"
        ys = {"A": [1.0, 2.5, 4.0, 3.0], "B": [2.0, 7.0, 1.5, 3.25, 9.0, 4.0]}
        csv.write_text("stratum,x,y\n" + "".join(
            f"{label},0.1,{y}\n" for label, col in ys.items() for y in col
        ))
        code = main([
            "--population", str(csv), "--n", "A=2", "--n", "B=2",
            "--estimator", estimator, "--order", order,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "DegenerateAuxiliaryError" in err
        assert "V02 = 0" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--order", "3"],
            ["--verify", "maybe"],
            ["--format", "xml"],
            ["--seed", "abc"],
            ["--replicates", "x"],
            ["--max-enum", "1.5"],
            ["--bogus"],
        ],
        ids=["order", "verify", "format", "seed", "replicates", "max-enum", "unknown"],
    )
    def test_invalid_flag_is_a_config_error(self, capsys, flags):
        """A bad flag exits 1 as a bad config value does; argparse's SystemExit(2) would escape."""
        code = main([
            "--population", synthetic_csv_path(), "--n", "A=3", "--n", "B=3", *flags,
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("stratexp: error: ConfigError: ")
        assert "usage:" not in captured.err

    @pytest.mark.parametrize(
        "key, value", [("order", "3"), ("verify", "maybe"), ("format", "xml")]
    )
    def test_flag_and_config_value_give_one_message(self, tmp_path, capsys, key, value):
        assert main([
            "--population", synthetic_csv_path(), "--n", "A=3", "--n", "B=3",
            f"--{key}", value,
        ]) == 1
        flag_err = capsys.readouterr().err
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "population": synthetic_csv_path(),
            "sample_sizes": {"A": 3, "B": 3},
            key: value,
        }))
        assert main(["--config", str(cfg)]) == 1
        assert capsys.readouterr().err == flag_err
        assert f"ConfigError: {key} must be one of" in flag_err

    def test_calls_share_one_parser_without_state(self, monkeypatch, capsys):
        """main builds no ArgumentParser, and one call's flags do not reach the next."""
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        base = ["--population", synthetic_csv_path(), "--n", "A=3", "--n", "B=3"]
        assert main([*base, "--estimator", "t1s", "--format", "json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main([*base[:-2], "--format", "json"]) == 1  # B has no size now
        assert "missing sample sizes for strata: ['B']" in capsys.readouterr().err
        assert main([*base, "--format", "json"]) == 0
        third = json.loads(capsys.readouterr().out)
        assert built == []
        assert first["config"]["estimators"] == ["t1s"]
        assert third["config"]["estimators"] == ["t1s", "t2s", "t3s:optimize", "t4s:optimize"]

    @pytest.mark.parametrize("column, scale", [("x", 1e-200), ("y", 1e150)])
    def test_extreme_scale_exit_two(self, tmp_path, capsys, column, scale):
        """x scaled by 1e-200 or y by 1e150 leaves the normal floats: exit 2, no traceback."""
        x_scale, y_scale = (scale, 1.0) if column == "x" else (1.0, scale)
        rows = [("A", 2.0, 3.0), ("A", 3.5, 4.5), ("A", 1.25, 2.0), ("A", 4.0, 6.25),
                ("B", 5.0, 8.0), ("B", 6.5, 9.5), ("B", 4.25, 7.25), ("B", 7.0, 11.0)]
        csv = tmp_path / "scaled.csv"
        csv.write_text("stratum,x,y\n" + "".join(
            f"{h},{x * x_scale!r},{y * y_scale!r}\n" for h, x, y in rows
        ))
        code = main(["--population", str(csv), "--n", "A=2", "--n", "B=2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "computation failed: MomentNormalizationError" in err
        assert "is not a normal float" in err

    @pytest.mark.parametrize("column", ["x", "y"])
    def test_column_sum_overflow_exit_two(self, tmp_path, capsys, column):
        """Five units of 1e308 in one column sum beyond the float range: exit 2."""
        csv = tmp_path / "huge.csv"
        csv.write_text("stratum,x,y\n" + "".join(
            f"A,{'1e308' if column == 'x' else i},{'1e308' if column == 'y' else i}\n"
            for i in range(1, 6)
        ))
        assert main(["--population", str(csv), "--n", "A=2"]) == 2
        assert capsys.readouterr().err == (
            "stratexp: computation failed: ComputationError: stratum 'A': "
            f"column {column} sums beyond the float range; rescale x or y\n"
        )

    def test_deviation_overflow_prints_only_the_error(self, tmp_path, capsys):
        """y = ±1.7e308 sums in range, but a deviation y - mean overflows: exit 2,
        and NumPy's overflow warning never reaches stderr."""
        csv = tmp_path / "alternating.csv"
        csv.write_text("stratum,x,y\n" + "".join(
            f"A,{i},{'-' if i % 2 == 0 else ''}1.7e308\n" for i in range(1, 6)
        ))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["--population", str(csv), "--n", "A=2"])
        assert code == 2
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = capsys.readouterr().err
        assert "RuntimeWarning" not in err
        assert err == (
            "stratexp: computation failed: ComputationError: stratum 'A': "
            "column y deviates from its mean beyond the float range; rescale x or y\n"
        )

    def test_bad_design_string(self, capsys):
        code = main(["--population", synthetic_csv_path(), "--n", "A3"])
        assert code == 1

    def test_missing_population(self, capsys):
        assert main(["--n", "A=3"]) == 1

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "population": synthetic_csv_path(),
            "sample_sizes": {"A": 3, "B": 3},
            "estimators": ["t1s", "t3s:2.0"],
            "order": "1",
            "format": "csv",
        }))
        assert main(["--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("estimator,metric,")
        assert "t3s:2" in out
        # flag overrides the file's format
        assert main(["--config", str(cfg), "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert out.lstrip().startswith("{")

    def test_repeated_stratum_in_flags_is_an_error(self, capsys):
        code = main([
            "--population", synthetic_csv_path(), "--n", "A=3", "--n", "B=3", "--n", "A=5",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "stratexp: error: ValidationError: --n stratum 'A' is given twice\n"
        )

    @pytest.mark.parametrize("form", ["flags", "config"])
    def test_spaces_around_a_design_label_are_stripped(self, tmp_path, capsys, form):
        """As the population file's labels are: "A =3", " A=3" and a
        config key "B\t" name strata A and B."""
        base = ["--population", synthetic_csv_path(), "--format", "json"]
        assert main([*base, "--n", "A=3", "--n", "B=3"]) == 0
        want = capsys.readouterr()
        if form == "flags":
            argv = [*base, "--n", "A =3", "--n", " B= 3"]
        else:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({"sample_sizes": {" A ": 3, "B\t": 3}}))
            argv = [*base, "--config", str(cfg)]
        assert main(argv) == 0
        assert capsys.readouterr() == want

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--n", " =3"], "--n expects STRATUM=SIZE, got ' =3'"),
            (["--n", "A=3", "--n", "B=3", "--n", "A =5"], "--n stratum 'A' is given twice"),
            (["--n", " B=3", "--n", "A=3", "--n", "B\t=3"], "--n stratum 'B' is given twice"),
        ],
        ids=["blank", "repeated", "both-padded"],
    )
    def test_a_stripped_label_that_is_blank_or_repeats(self, capsys, flags, message):
        assert main(["--population", synthetic_csv_path(), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"stratexp: error: ValidationError: {message}\n"

    def test_a_config_label_that_repeats_once_stripped(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "population": synthetic_csv_path(), "sample_sizes": {"A": 3, "B": 3, "A ": 5},
        }))
        assert main(["--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"stratexp: error: ValidationError: config file {str(cfg)!r}: "
            "sample_sizes stratum 'A' is given twice\n"
        )

    @pytest.mark.parametrize("label", [" ", "", "\t"])
    def test_a_config_label_that_is_blank_once_stripped(self, tmp_path, capsys, label):
        """Refused where the file is read, naming it, as ``--n " =1"`` is
        refused where the flag is parsed; not later as an unknown stratum."""
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "population": synthetic_csv_path(), "sample_sizes": {label: 1, "A": 3, "B": 3},
        }))
        assert main(["--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"stratexp: error: ValidationError: config file {str(cfg)!r}: "
            f"sample_sizes stratum label {label!r} is blank\n"
        )

    @pytest.mark.parametrize(
        "text, key",
        [
            ('"sample_sizes": {"A": 3, "B": 3, "A": 5}', "A"),
            ('"sample_sizes": {"A": 3, "B": 3}, "order": "1", "order": "2"', "order"),
        ],
        ids=["sample_sizes", "order"],
    )
    def test_repeated_config_key_is_an_error(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "run.json"
        cfg.write_text("{" + f'"population": {json.dumps(synthetic_csv_path())}, {text}' + "}")
        assert main(["--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"stratexp: error: ValidationError: config file {str(cfg)!r}: "
            f"key {key!r} is given twice\n"
        )

    def test_config_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"population": "x", "bogus": 1}))
        assert main(["--config", str(cfg)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("printed_mode", "false"),
            ("printed_mode", 1),
            ("seed", 1.9),
            ("workers", 2.7),
            ("max_enum", True),
            ("replicates", "100"),
            ("replicates", 100.5),
            ("seed", "abc"),
            ("order", 1),
            ("verify", 0),
            ("format", None),
            ("population", 5),
            ("sample_sizes", [3, 3]),
            ("estimators", "t1s"),
        ],
    )
    def test_config_value_types(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "population": synthetic_csv_path(),
            "sample_sizes": {"A": 3, "B": 3},
            "verify": "mc",
            "replicates": 10,
            key: value,
        }))
        assert main(["--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "ConfigError" in err
        assert f"config {key} must be a JSON" in err

    def test_empty_estimator_list_is_a_config_error(self, tmp_path, capsys):
        """Only an absent key takes the default estimators; an empty list is an error."""
        cfg = tmp_path / "run.json"
        settings = {"population": synthetic_csv_path(), "sample_sizes": {"A": 3, "B": 3}}
        cfg.write_text(json.dumps({**settings, "estimators": []}))
        assert main(["--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "stratexp: error: ConfigError: no estimators requested\n"
        assert captured.out == ""
        cfg.write_text(json.dumps(settings))
        assert main(["--config", str(cfg), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["estimators"] == list(DEFAULT_ESTIMATORS)

    @pytest.mark.parametrize(
        "content",
        [
            "stratum,x,y\nA,1,2\nA,2,3\nA,3,5\ncaf\xe9,1,2\ncaf\xe9,2,3\n".encode("latin-1"),
            "stratum,x,y\nA,1,2\nA,2,3\nA,3,5\n".encode("utf-16"),
        ],
        ids=["latin1-label", "utf16"],
    )
    def test_non_utf8_population_is_a_population_error(self, tmp_path, capsys, content):
        path = tmp_path / "population.csv"
        path.write_bytes(content)
        assert main(["--population", str(path), "--n", "A=2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"stratexp: error: PopulationError: population file {str(path)!r} is not UTF-8 text"
        )
        assert "Traceback" not in err

    def test_non_utf8_config_is_a_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_bytes('{"population": "caf\xe9.csv"}'.encode("latin-1"))
        assert main(["--config", str(cfg), "--n", "A=2"]) == 1
        assert capsys.readouterr().err.startswith(
            f"stratexp: error: ValidationError: config file {str(cfg)!r} is not UTF-8 text"
        )

    def test_csv_error_is_a_population_error_with_line(self, tmp_path, capsys):
        """A field past the csv module's size limit names its line, exit 1."""
        path = tmp_path / "population.csv"
        path.write_text("stratum,x,y\nA,1,2\nA," + "1" * 200_000 + ",3\nA,3,5\n")
        assert main(["--population", str(path), "--n", "A=2"]) == 1
        assert capsys.readouterr().err == (
            "stratexp: error: PopulationError: line 3: field larger than field limit (131072)\n"
        )

    @pytest.mark.parametrize("replicates", [2**62, 2**70], ids=["2**62", "2**70"])
    def test_unallocatable_replicates_exit_two(self, capsys, replicates):
        """Counts NumPy refuses before allocating anything: exit 2, naming the count."""
        code = main([
            "--population", synthetic_csv_path(),
            "--n", "A=3", "--n", "B=3",
            "--verify", "mc", "--replicates", str(replicates),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"stratexp: computation failed: ComputationError: cannot allocate {replicates} "
            "Monte Carlo replicates"
        )

    def test_unallocatable_combination_means_exit_two(self, capsys, tmp_path):
        """C(100, 20) combination means are more than NumPy can index: exit
        2, naming the stratum and the count, with no traceback."""
        pop = tmp_path / "big.csv"
        pop.write_text("stratum,x,y\n" + "".join(f"A,{u},{u * u % 17}\n" for u in range(1, 101)))
        code = main([
            "--population", str(pop), "--n", "A=20",
            "--verify", "exact", "--max-enum", str(10**21),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(
            "stratexp: computation failed: ComputationError: stratum 'A': cannot "
            f"allocate the means of its {math.comb(100, 20)} combinations"
        )
        assert "Traceback" not in err

    def test_space_past_numpy_index_range_exit_two(self, capsys, tmp_path):
        """20 strata of 10 units, n_h = 5: 252**20 ~ 1.1e48 joint samples are
        within --max-enum but past what NumPy can index: exit 2, no traceback."""
        pop = tmp_path / "wide.csv"
        pop.write_text("stratum,x,y\n" + "".join(
            f"S{h},{u},{u * u % 17 + 1}\n" for h in range(20) for u in range(1, 11)
        ))
        code = main([
            "--population", str(pop), *(f"--n=S{h}=5" for h in range(20)),
            "--verify", "exact", "--max-enum", str(10**60),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(
            f"stratexp: computation failed: EnumerationLimitError: joint sample space "
            f"has {252**20} samples, more than NumPy can index"
        )
        assert "Traceback" not in captured.err

    def test_optimize_flag_is_unknown(self, capsys):
        """``:optimize`` is the one spelling; ``--optimize`` is no flag."""
        code = main([
            "--population", synthetic_csv_path(),
            "--n", "A=3", "--n", "B=3",
            "--estimator", "t3s:optimize", "--optimize",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "stratexp: error: ConfigError: unrecognized arguments: --optimize\n"
        )

    def test_optimize_config_key_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "population": synthetic_csv_path(),
            "sample_sizes": {"A": 3, "B": 3},
            "optimize": True,
        }))
        assert main(["--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "stratexp: error: ValidationError: unknown config keys: ['optimize']\n"
        )

    def test_bare_t3s_without_optimize_fails(self, capsys):
        code = main([
            "--population", synthetic_csv_path(),
            "--n", "A=3", "--n", "B=3",
            "--estimator", "t3s",
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "stratexp: error: ConfigError: t3s needs either a numeric alpha or ':optimize'\n"
        )


class TestOneDeclarationPerSetting:
    """``cli._SETTINGS`` declares every flag and config key, ``report.CHOICES``
    every choice set, and ``RunConfig``'s fields the JSON config echo."""

    def test_parser_dests_are_the_settings(self):
        dests = {action.dest for action in _PARSER._actions}
        assert dests - {"help"} == {"config", *_SETTINGS}

    def test_settings_are_the_run_config_fields(self):
        assert set(_SETTINGS) == {f.name for f in fields(RunConfig)}

    def test_json_config_echoes_every_field_but_format_in_order(self):
        echo = report_as_dict(run(base_config(format="json")))["config"]
        assert list(echo) == [f.name for f in fields(RunConfig) if f.name != "format"]

    def test_choice_flags_show_their_choices(self):
        text = _PARSER.format_help()
        for key, values in CHOICES.items():
            assert f"{_SETTINGS[key][1]} {{{','.join(values)}}}" in text

    def test_readme_options_table_names_every_setting(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        text = readme.read_text(encoding="utf-8")
        table = text.split("| flag | config key (JSON type) | meaning |\n")[1].split("\n\n")[0]
        row = re.compile(r"\| `(--[\w-]+)[^`]*` \| `(\w+)`")
        rows = [row.match(line) for line in table.splitlines()[1:]]
        assert all(rows)
        assert {row[1] for row in rows} == {flag for _, flag, _ in _SETTINGS.values()}
        assert {row[2] for row in rows} == set(_SETTINGS)
