"""Command line behavior: output text, files, exit codes."""

import io
import json
from pathlib import Path

import pytest

from helpers import DEMO_EDGES, DEMO_SENTENCE, fixture_path, fixture_text

from wordactors import cli

GOLDEN_ETN = fixture_path("etn_golden.dot")


def test_parse_prints_the_reading(capsys):
    assert cli.main(["parse", *DEMO_SENTENCE]) == 0
    out = capsys.readouterr().out
    assert out == "reading 1\n" + "\n".join(DEMO_EDGES) + "\n"


def test_parse_empty_sentence_exits_2(capsys):
    assert cli.main(["parse"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no complete reading" in captured.err


def test_parse_unknown_word_exits_1(capsys):
    assert cli.main(["parse", "Compaq", "zzz"]) == 1
    assert "unknown word 'zzz'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["parse", "--seed", "x", "mit"],
                                  ["parse", "--bogus", "mit"],
                                  ["etn", "--bogus"],
                                  ["oracle-compare", "--seeds", "-2"],
                                  ["oracle-compare", "--steps", "0"],
                                  ["parse", "--steps", "0", "Atari"],
                                  ["parse", "--steps", "-5", "Atari"]])
def test_usage_errors_exit_1_not_2(argv, capsys):
    # 2 is reserved for "no complete reading"
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: wordactors")
    assert "error:" in err


def test_zero_seeds_and_one_step_are_accepted(capsys):
    # the lowest counts that are not usage errors
    assert cli.main(["oracle-compare", "--seeds", "0"]) == 0
    assert capsys.readouterr().out == "14 sentences, 0 seeds, 0 mismatches\n"
    # one delivery is too few for any parse, but it is a valid ceiling
    assert cli.main(["parse", "--steps", "1", "Atari"]) == 1
    assert "step ceiling 1 exceeded" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["parse", "--help"])
    assert exit_.value.code == 0
    assert "--seed" in capsys.readouterr().out


def test_parse_lenient_flag(capsys):
    assert cli.main(["parse", "--lenient", "eine", "zzz", "Harddisk"]) == 0
    assert "Harddisk" in capsys.readouterr().out


def test_parse_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("Siemens liefert einen Rechner\n"))
    assert cli.main(["parse", "--stdin"]) == 0
    assert "liefert —subj→ Siemens" in capsys.readouterr().out


def test_parse_rejects_two_sentence_sources(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("mit"))
    assert cli.main(["parse", "--stdin", "Compaq"]) == 1
    assert "both" in capsys.readouterr().err


def test_parse_two_readings_are_separated(capsys):
    code = cli.main(["parse", "--kb", fixture_path("demo_permissive.kb"), *DEMO_SENTENCE])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("reading ") == 2
    assert "\n\nreading 2\n" in out


def test_parse_writes_byte_stable_artifacts(tmp_path, capsys):
    paths = []
    for run in ("one", "two"):
        trace = tmp_path / f"{run}.jsonl"
        dot = tmp_path / f"{run}.dot"
        assert cli.main(["parse", "--seed", "5", "--trace", str(trace),
                         "--dot", str(dot), *DEMO_SENTENCE]) == 0
        paths.append((trace, dot))
    capsys.readouterr()
    (t1, d1), (t2, d2) = paths
    assert t1.read_bytes() == t2.read_bytes()
    assert d1.read_bytes() == d2.read_bytes()
    first = json.loads(t1.read_text().splitlines()[0])
    assert sorted(first) == ["causes", "id", "key", "params", "stateVersion", "target"]
    assert "digraph events" in d1.read_text()


@pytest.mark.parametrize("argv, message", [
    (["--steps", "3", "Compaq", "liefert", "einen", "Rechner"], "step ceiling 3 exceeded"),
    (["Compaq", "liefert", "einen", "Kasten"], "unknown word 'Kasten'"),
])
def test_failed_parse_still_writes_its_trace(argv, message, tmp_path, capsys):
    trace, dot = tmp_path / "t.jsonl", tmp_path / "t.dot"
    assert cli.main(["parse", "--trace", str(trace), "--dot", str(dot), *argv]) == 1
    assert message in capsys.readouterr().err
    ids = [json.loads(line)["id"] for line in trace.read_text().splitlines()]
    assert ids == list(range(len(ids))) and len(ids) > 1
    text = dot.read_text()
    assert text.startswith("digraph events {") and f"  e{ids[-1]} [label=" in text


def test_etn_prints_the_network(capsys):
    assert cli.main(["etn"]) == 0
    assert capsys.readouterr().out == fixture_text("etn_golden.dot")


def test_etn_golden_match(capsys):
    assert cli.main(["etn", "--golden", GOLDEN_ETN]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_etn_golden_mismatch_names_edges(tmp_path, capsys):
    lines = fixture_text("etn_golden.dot").splitlines()
    removed = next(l for l in lines if "receipt -> scanNext" in l)
    tampered = tmp_path / "etn.dot"
    tampered.write_text("\n".join(l for l in lines if l is not removed) + "\n")
    assert cli.main(["etn", "--golden", str(tampered)]) == 1
    out = capsys.readouterr().out
    assert "unexpected: receipt -> scanNext;" in out


def test_etn_jsonl_export(tmp_path, capsys):
    target = tmp_path / "etn.jsonl"
    assert cli.main(["etn", "--trace", str(target)]) == 0
    capsys.readouterr()
    lines = target.read_text().splitlines()
    assert len(lines) == 21
    assert sorted(json.loads(lines[0])) == ["from", "guard", "plumbing", "to"]


def test_validate_bundled_fixtures(capsys):
    assert cli.main(["validate"]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_validate_reports_diagnostics(tmp_path, capsys):
    bad = tmp_path / "bad.lex"
    bad.write_text("wordclass a : ghost { }\n")
    assert cli.main(["validate", "--lexicon", str(bad)]) == 1
    assert "unresolved parent 'ghost'" in capsys.readouterr().out


def test_validate_names_the_line_of_each_diagnostic(tmp_path, capsys):
    bad = tmp_path / "bad.lex"
    bad.write_text("wordclass a { }\n\nwordclass b : zzz {\n}\n")
    assert cli.main(["validate", "--lexicon", str(bad)]) == 1
    assert capsys.readouterr().out == "line 3: word class 'b': unresolved parent 'zzz'\n"


def test_parse_refuses_a_broken_lexicon(tmp_path, capsys):
    bad = tmp_path / "bad.lex"
    bad.write_text("wordclass a : ghost { }\n")
    assert cli.main(["parse", "--lexicon", str(bad), "mit"]) == 1
    assert "error:" in capsys.readouterr().err


def test_oracle_compare_bundled_corpus(capsys):
    assert cli.main(["oracle-compare", "--seeds", "3"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("3 seeds, 0 mismatches\n")


def test_oracle_compare_flags_wrong_expectations(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("2 | eine Harddisk\n")
    assert cli.main(["oracle-compare", str(corpus), "--seeds", "2"]) == 1
    out = capsys.readouterr().out
    assert "count mismatch" in out
    assert "1 mismatches" in out


def test_oracle_compare_accepts_long_sentences(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    sentence = "Compaq entwickelt einen Notebook" + 3 * " mit einer Harddisk"
    assert len(sentence.split()) == 13
    corpus.write_text(f"1 | {sentence}\n")
    assert cli.main(["oracle-compare", str(corpus), "--seeds", "3"]) == 0
    assert capsys.readouterr().out == "1 sentences, 3 seeds, 0 mismatches\n"


def test_oracle_compare_reports_a_crashing_run_and_goes_on(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("Compaq liefert einer Harddisk\n")
    # three deliveries cannot finish any parse: every run raises
    assert cli.main(["oracle-compare", str(corpus), "--steps", "3", "--seeds", "2"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3
    for seed, line in enumerate(out[:2]):
        assert line.startswith(f"crash: 'Compaq liefert einer Harddisk' seed {seed}: "
                               "LivelockError: possible livelock: step ceiling 3 exceeded")
    assert out[2] == "1 sentences, 2 seeds, 2 mismatches"


def test_oracle_compare_reports_a_reference_crash_and_goes_on(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("1 | Compaq liefert einen Rechner\n1 | Compaq zzz\n")
    # the reference cannot parse the second line: no seed of it is run
    assert cli.main(["oracle-compare", str(corpus), "--seeds", "2"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "crash: 'Compaq zzz' reference: LexiconError: unknown word 'zzz' at position 2",
        "2 sentences, 2 seeds, 1 mismatches"]


def test_oracle_compare_rejects_bad_counts(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("many | mit\n")
    assert cli.main(["oracle-compare", str(corpus)]) == 1
    assert "bad expected count" in capsys.readouterr().err


def test_missing_file_is_an_error_not_a_crash(capsys):
    assert cli.main(["parse", "--lexicon", "/no/such/file.lex", "mit"]) == 1
    assert "error:" in capsys.readouterr().err
