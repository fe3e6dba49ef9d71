"""Command-line entry point."""

import pytest

from repro.__main__ import main


def test_no_args_prints_usage(capsys):
    assert main([]) == 2
    assert "python -m repro" in capsys.readouterr().out


def test_unknown_command(capsys):
    assert main(["frobnicate"]) == 2


def test_suite_listing(capsys):
    assert main(["suite"]) == 0
    out = capsys.readouterr().out
    assert "af_shell10" in out
    assert "thermal2" in out


def test_fig6a_table(capsys):
    assert main(["fig6a"]) == 0
    out = capsys.readouterr().out
    assert "AP256" in out
    assert "coal_kge_w64 = 307.0" in out


def test_stream_command(capsys):
    assert main(["stream", "msc01440", "MLP64"]) == 0
    out = capsys.readouterr().out
    assert "indirect_bw_gbps" in out


def test_sweep_command(capsys):
    assert main(["sweep", "msc01440,pwtk", "MLPnc,MLP64", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "MLP64" in out
    assert "msc01440" in out


def test_fig4_quick_canary(capsys):
    assert main(["fig4", "--quick"]) == 0
    assert "coal_rate" in capsys.readouterr().out


def test_unknown_flag_is_an_error(capsys):
    assert main(["fig4", "--frobnicate"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_workers_flag_requires_integer(capsys):
    assert main(["fig4", "--workers", "two"]) == 1
    assert "invalid int value" in capsys.readouterr().err


def test_stream_honors_model_and_nnz(capsys):
    assert main(["stream", "msc01440", "MLP64", "--model", "cycle", "--nnz", "2000"]) == 0
    assert "indirect_bw_gbps" in capsys.readouterr().out
    assert main(["stream", "msc01440", "MLP64", "--workers", "2"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_paramless_experiments_reject_engine_flags(capsys):
    assert main(["table1", "--quick"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert main(["fig6a"]) == 0


def test_zero_workers_flag_is_an_error(capsys):
    assert main(["fig4", "--workers", "0"]) == 1
    assert "at least one worker" in capsys.readouterr().err
    assert main(["fig4", "--nnz", "500"]) == 1
    assert "max_nnz must be an integer >= 1000" in capsys.readouterr().err


def test_suite_rejects_flags(capsys):
    assert main(["suite", "--nnz", "2000"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_help_flag(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "report run --quick" in out
    assert "--store DIR" in out


def test_report_rejects_unknown_subcommand(capsys):
    assert main(["report", "frobnicate"]) == 1
    assert "invalid choice" in capsys.readouterr().err


def test_report_render_rejects_engine_flags(capsys):
    assert main(["report", "render", "--workers", "2"]) == 1
    assert "store alone" in capsys.readouterr().err
    assert main(["report", "render", "--check"]) == 1
    assert "store alone" in capsys.readouterr().err


def test_report_flag_validation_matches_sweep(capsys):
    assert main(["report", "--nnz", "500"]) == 1
    assert "max_nnz must be an integer >= 1000" in capsys.readouterr().err
    assert main(["report", "--workers", "0"]) == 1
    assert "at least one worker" in capsys.readouterr().err
    assert main(["report", "--model", "rtl"]) == 1
    assert "unknown adapter model" in capsys.readouterr().err


def test_experiments_reject_report_flags(capsys):
    assert main(["fig4", "--store", "somewhere"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_report_run_render_check_round_trip(tmp_path, capsys):
    store = str(tmp_path / "store")
    doc = str(tmp_path / "EXPERIMENTS.md")
    args = ["--store", store, "--out", doc]
    assert main(["report", "run", "--quick", *args]) == 0
    out = capsys.readouterr().out
    assert "claims + manifest" in out

    before = (tmp_path / "EXPERIMENTS.md").read_bytes()
    assert main(["report", "render", *args]) == 0
    capsys.readouterr()
    assert (tmp_path / "EXPERIMENTS.md").read_bytes() == before

    assert main(["report", "--quick", "--check", *args]) == 0
    assert "check clean" in capsys.readouterr().out

    (tmp_path / "EXPERIMENTS.md").write_text("tampered\n")
    assert main(["report", "check", *args]) == 1
    assert "DRIFT" in capsys.readouterr().out


def test_report_render_with_store_defaults_doc_beside_it(tmp_path, capsys, monkeypatch):
    # An explicit --store without --out must write the document next to
    # that store, never onto the committed EXPERIMENTS.md.
    store = str(tmp_path / "store")
    assert main(["report", "run", "--quick", "--store", store]) == 0
    capsys.readouterr()
    assert (tmp_path / "store" / "EXPERIMENTS.md").is_file()
    monkeypatch.chdir(tmp_path)  # a committed doc here would be clobbered
    assert main(["report", "render", "--store", store]) == 0
    capsys.readouterr()
    assert not (tmp_path / "EXPERIMENTS.md").exists()


def test_stray_positionals_are_rejected(capsys):
    assert main(["fig6a", "garbage", "-workers", "4"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert main(["suite", "extra"]) == 1


def test_corpus_list(capsys):
    assert main(["corpus", "list"]) == 0
    out = capsys.readouterr().out
    assert "quick" in out and "full" in out and "suitesparse-demo" in out
    assert main(["corpus", "list", "quick"]) == 0
    out = capsys.readouterr().out
    assert "tiny_banded" in out and "generator" in out


def test_corpus_run_offline_smoke(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CORPUS_CACHE", str(tmp_path / "cache"))
    args = [
        "corpus", "run", "--quick", "--offline",
        "--store", str(tmp_path / "store"), "--variants", "MLPnc,MLP64",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "corpus: 7 groups — 7 computed, 0 skipped, 0 failed" in out
    assert "fixture" in out  # roll-up table includes the fixture family
    # resume: everything journaled, nothing recomputed
    assert main(args) == 0
    assert "0 computed, 7 skipped" in capsys.readouterr().out


def test_corpus_flag_validation(capsys):
    assert main(["corpus"]) == 1
    assert "required" in capsys.readouterr().err
    assert main(["corpus", "run", "--full", "--quick"]) == 1
    assert "not allowed with" in capsys.readouterr().err
    assert main(["corpus", "run", "--kind", "system"]) == 1
    assert "support kinds" in capsys.readouterr().err
    assert main(["corpus", "run", "--nnz", "12"]) == 1
    assert "max_nnz must be an integer >= 1000" in capsys.readouterr().err
    # a bad variant fails before the corpus starts (no progress lines)
    assert main(["corpus", "run", "--variants", "BOGUS"]) == 1
    out, err = capsys.readouterr()
    assert "unknown adapter variant" in err and not out
    assert main(["corpus", "frobnicate"]) == 1
    assert main(["corpus", "run", "--frobnicate"]) == 1
