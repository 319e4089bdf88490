"""The CLI rejects bad option values before any simulation runs."""

import pytest

import repro.experiments.scenarios as scenarios
from repro import cli


@pytest.fixture
def runs(monkeypatch):
    """Replace every experiment runner, and the live run behind 'report',
    with a recorder: a rejected command line must never reach one."""
    calls = []

    def record(*args, **kwargs):
        calls.append(args)
        raise AssertionError("simulation started")

    for name in cli.RUNNERS:
        monkeypatch.setitem(cli.RUNNERS, name, record)
    monkeypatch.setattr(scenarios, "build_app", record)
    return calls


def rejected(argv, capsys, runs):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv, out=lambda line: None)
    assert exit_info.value.code == 2
    assert runs == []
    return capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["-1", "-3"])
def test_negative_jobs_rejected(jobs, capsys, runs):
    assert "--jobs" in rejected(["chaos", "--quick", "--jobs", jobs],
                                capsys, runs)


def test_jobs_zero_still_means_one_per_core(monkeypatch):
    seen = []

    class Result:
        def format_table(self):
            return ""

    def record(args, trace_out):
        seen.append(args.jobs)
        return Result(), None

    monkeypatch.setitem(cli.RUNNERS, "chaos", record)
    assert cli.main(["chaos", "--quick", "--jobs", "0"],
                    out=lambda line: None) == 0
    assert seen == [0]


@pytest.mark.parametrize("repetitions", ["0", "-2"])
def test_repetitions_below_one_rejected(repetitions, capsys, runs):
    assert "--repetitions" in rejected(
        ["table1", "--quick", "--repetitions", repetitions], capsys, runs)


@pytest.mark.parametrize("option,experiment", [
    ("--svg", "chaos"), ("--trace-out", "chaos"), ("--prom", "report")])
def test_output_in_missing_directory_rejected(option, experiment, tmp_path,
                                              capsys, runs):
    target = tmp_path / "missing" / "out.file"
    err = rejected([experiment, "--quick", option, str(target)],
                   capsys, runs)
    assert option in err and "does not exist" in err

