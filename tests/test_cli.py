"""Command-line interface: subcommands, files, exit codes."""

from __future__ import annotations

import pytest

from bloomclock import NumericError
from bloomclock.cli import main


def test_run_prints_metrics(capsys):
    code = main(["run", "--topology", "complete", "--n", "10", "--m", "3", "--k", "2",
                 "--gsn-limit", "400", "--runs", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "seed 1" in out and "seed 2" in out
    assert "mean over 2 seeds" in out


def test_run_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "artifacts"
    code = main(["run", "--n", "10", "--m", "3", "--gsn-limit", "400", "--runs", "2",
                 "--out", str(out)])
    assert code == 0
    assert (out / "run.csv").exists() and (out / "run.json").exists()


def test_run_accepts_ratio_width(capsys):
    assert main(["run", "--n", "50", "--m-ratio", "0.1", "--gsn-limit", "800", "--runs", "1"]) == 0


def test_run_with_slice_overrides(capsys):
    code = main(["run", "--n", "10", "--m", "3", "--gsn-limit", "200", "--runs", "1",
                 "--slice-start", "20", "--slice-stride", "10"])
    assert code == 0
    assert "tp=" in capsys.readouterr().out


def test_run_star_with_messages_per_client(capsys):
    code = main(["run", "--topology", "star", "--n", "5", "--m", "2", "--runs", "1",
                 "--messages-per-client", "20", "--slice-start", "10", "--slice-stride", "25"])
    assert code == 0


def test_run_rejects_width_conflict(capsys):
    assert main(["run", "--n", "10", "--m", "3", "--m-ratio", "0.1", "--runs", "1"]) == 2
    assert main(["run", "--n", "10", "--runs", "1"]) == 2


def test_bad_config_exits_two(capsys):
    assert main(["run", "--topology", "complete", "--n", "1", "--m", "2", "--runs", "1"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_numeric_error_exits_three(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise NumericError("did not converge")

    monkeypatch.setattr("bloomclock.cli.experiments.run_experiment", boom)
    assert main(["run", "--n", "10", "--m", "3", "--runs", "1"]) == 3
    assert "numeric error" in capsys.readouterr().err


def test_sweep_with_average_over(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep", "--n", "10", "--m", "2", "3", "--k", "1", "2", "--pri", "0",
                 "--gsn-limit", "300", "--runs", "1", "--average-over", "m", "--out", str(out)])
    assert code == 0
    assert (out / "sweep.csv").exists()
    assert (out / "sweep.json").exists()
    assert (out / "sweep_grouped.csv").exists()
    grouped = (out / "sweep_grouped.csv").read_text().splitlines()
    assert grouped[0] == "topology,n,k,pr_i,precision,accuracy,recall,fpr,alpha"
    assert len(grouped) == 3


def test_curve_to_stdout(capsys):
    code = main(["curve", "--n", "10", "--m", "3", "--gsn-limit", "400", "--seed", "3",
                 "--y-gsn", "100", "--z-to", "150"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "z_gsn,pr_p,pr_fp_step,pr_fp_smooth,outcome"
    assert len(lines) == 51


def test_curve_writes_file(tmp_path, capsys):
    out = tmp_path / "curve"
    code = main(["curve", "--n", "10", "--m", "3", "--gsn-limit", "400", "--seed", "3",
                 "--y-gsn", "100", "--z-to", "150", "--out", str(out)])
    assert code == 0
    assert (out / "curve.csv").read_text().splitlines()[0] == "z_gsn,pr_p,pr_fp_step,pr_fp_smooth,outcome"


def test_curve_stdout_rows_match_the_file(tmp_path, capsys):
    args = ["curve", "--n", "10", "--m", "3", "--gsn-limit", "400", "--seed", "3", "--y-gsn", "100", "--z-to", "150"]
    assert main(args) == 0
    printed = capsys.readouterr().out
    assert main(args + ["--out", str(tmp_path)]) == 0
    written = (tmp_path / "curve.csv").read_bytes().decode()
    assert "\r" not in printed
    assert written == printed.replace("\n", "\r\n")


def test_curve_and_trace_take_one_seed(capsys):
    # Only run and sweep average over seeds; a seed list elsewhere is a usage error.
    for command in ("curve", "trace"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--n", "10", "--m", "3", "--gsn-limit", "400", "--runs", "3"])
        assert exc.value.code == 2


def test_slice_flags_are_usage_errors_off_run_and_sweep(tmp_path, capsys):
    # curve and trace classify no slice, so they do not accept its flags.
    commands = (
        ["curve", "--n", "10", "--m", "3", "--gsn-limit", "400", "--y-gsn", "100", "--z-to", "150"],
        ["trace", "--n", "10", "--m", "3", "--gsn-limit", "400", "--out", str(tmp_path)],
    )
    for command in commands:
        for flag in ("--slice-start", "--slice-stride"):
            with pytest.raises(SystemExit) as exc:
                main(command + [flag, "7"])
            assert exc.value.code == 2
            assert flag in capsys.readouterr().err
    assert not (tmp_path / "trace.txt").exists()


def test_trace_without_out_exits_before_running(monkeypatch, capsys):
    def no_run(config):
        raise AssertionError("trace ran the simulation without an --out directory")

    monkeypatch.setattr("bloomclock.cli.run", no_run)
    assert main(["trace", "--n", "150", "--m", "15"]) == 2
    assert "--out" in capsys.readouterr().err


def test_field_the_topology_ignores_exits_two(tmp_path, capsys):
    assert main(["run", "--topology", "star", "--n", "5", "--m", "2", "--gsn-limit", "7", "--runs", "1"]) == 2
    assert main(["curve", "--n", "10", "--m", "3", "--messages-per-client", "4"]) == 2
    out = tmp_path / "tr"
    assert main(["trace", "--topology", "star", "--n", "3", "--m", "2", "--out", str(out)]) == 0
    path = out / "trace.txt"
    text = path.read_text()
    assert '"gsn_limit": null' in text
    path.write_text(text.replace('"gsn_limit": null', '"gsn_limit": 7', 1))
    capsys.readouterr()
    assert main(["trace", "--load", str(path)]) == 2
    assert "gsn_limit" in capsys.readouterr().err


def test_curve_range_error_exits_two(capsys):
    assert main(["curve", "--n", "10", "--m", "3", "--gsn-limit", "400",
                 "--y-gsn", "100", "--z-to", "5000"]) == 2


def test_trace_write_then_verify(tmp_path, capsys):
    out = tmp_path / "tr"
    assert main(["trace", "--topology", "star", "--n", "6", "--m", "3", "--seed", "2",
                 "--out", str(out)]) == 0
    assert main(["trace", "--load", str(out / "trace.txt")]) == 0
    assert "replay check passed" in capsys.readouterr().out


def test_trace_load_rejects_corrupt_file(tmp_path, capsys):
    out = tmp_path / "tr"
    main(["trace", "--n", "6", "--m", "3", "--seed", "2", "--gsn-limit", "100", "--out", str(out)])
    path = out / "trace.txt"
    lines = path.read_text().splitlines()
    lines[5] = lines[5].replace("|", ";", 2)
    path.write_text("\n".join(lines) + "\n")
    assert main(["trace", "--load", str(path)]) == 2


def test_trace_load_reports_a_malformed_line_as_a_trace_error(tmp_path, capsys):
    out = tmp_path / "tr"
    main(["trace", "--n", "6", "--m", "3", "--seed", "2", "--gsn-limit", "100", "--out", str(out)])
    path = out / "trace.txt"
    lines = path.read_text().splitlines()
    lines[5] = lines[5].replace("|", ";", 2)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["trace", "--load", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("trace error: line 6: ") and err.count("\n") == 1


def test_trace_load_rejects_a_truncated_trace(tmp_path, capsys):
    out = tmp_path / "tr"
    assert main(["trace", "--topology", "star", "--n", "6", "--m", "3", "--seed", "2", "--out", str(out)]) == 0
    path = out / "trace.txt"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:20]))
    capsys.readouterr()
    assert main(["trace", "--load", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "trace error: trace holds 18 events, but its config runs 144\n"


def test_trace_load_missing_file_exits_two(tmp_path, capsys):
    assert main(["trace", "--load", str(tmp_path / "no-such-trace.txt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("I/O error:") and err.count("\n") == 1


def test_out_directory_that_cannot_be_made_exits_two(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["trace", "--n", "6", "--m", "3", "--seed", "2", "--gsn-limit", "100",
                 "--out", str(blocker / "tr")])
    assert code == 2
    assert capsys.readouterr().err.startswith("I/O error:")


def _bump_bloom(parts):
    bloom = parts[8].split(",")
    bloom[0] = str(int(bloom[0]) + 1)
    parts[8] = ",".join(bloom)


def _bump_sender(parts):
    parts[4] = str((int(parts[4]) + 1) % 11)


def test_trace_load_rejects_tampered_timestamps(tmp_path, capsys):
    out = tmp_path / "tr"
    assert main(["trace", "--topology", "star", "--n", "10", "--m", "3", "--seed", "2", "--out", str(out)]) == 0
    text = (out / "trace.txt").read_text()
    # Line 8 holds gsn 6; a Bloom counter and the sender field are edited in turn.
    for edit in (_bump_bloom, _bump_sender):
        lines = text.splitlines()
        parts = lines[7].split("|")
        edit(parts)
        lines[7] = "|".join(parts)
        path = tmp_path / f"{edit.__name__}.txt"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["trace", "--load", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "gsn 6" in err, (edit.__name__, err)


def test_trace_without_mode_exits_two(capsys):
    assert main(["trace"]) == 2


def test_deterministic_artifact_bytes(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    args = ["run", "--n", "12", "--m", "3", "--gsn-limit", "500", "--seed", "4", "--seed", "9"]
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert (first / "run.json").read_bytes() == (second / "run.json").read_bytes()
    assert (first / "run.csv").read_bytes() == (second / "run.csv").read_bytes()
