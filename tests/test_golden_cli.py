"""Every command of the golden CLI corpus prints and exits as recorded.

The corpus and the script that writes it live in `tests/golden/`.
"""

import json

from golden import cli_corpus


def _corpus() -> list[dict]:
    with open(cli_corpus.CORPUS, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def test_corpus_lists_the_writer_commands():
    assert [line["argv"] for line in _corpus()] == cli_corpus.commands()


def test_every_command_replays_unchanged(monkeypatch):
    monkeypatch.chdir(cli_corpus.ROOT)
    monkeypatch.setenv("COLUMNS", cli_corpus.COLUMNS)
    changed = [line["argv"] for line in _corpus() if cli_corpus.replay(line["argv"]) != line]
    assert changed == []


def test_corpus_pins_each_document_error_and_exit_code():
    lines = _corpus()
    errors = [line["stderr"] for line in lines]
    for kind in ("tokenizer spec", "distribution file", "transducer document", "table"):
        assert any(err.startswith(f"error: bad {kind}: ") for err in errors), kind
    assert {line["exit"] for line in lines} == {0, 1, 2}
    assert all("Traceback" not in err for err in errors)
