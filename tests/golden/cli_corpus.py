"""The golden CLI corpus: a fixed list of commands and what the CLI answers to each.

`cli.jsonl` holds one JSON object per command: its argv, stdout, stderr and
exit code. `tests/test_golden_cli.py` replays every line through `cli.main`
and compares all four fields. Paths in argv are relative to the repository
root, and argparse wraps its usage text at COLUMNS, so both the writer and
the replay run from the root with COLUMNS fixed.

Rewrite the corpus, from the repository root, with

    PYTHONPATH=src python tests/golden/cli_corpus.py

A change that means to alter an output rewrites the corpus and lists each
changed command. A rewrite that absorbs an unintended change hides a defect.
argparse's text for an unknown subcommand differs between Python patch
releases, so no command here names one.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from tokcheck import cli

ROOT = Path(__file__).resolve().parents[2]
CORPUS = Path(__file__).resolve().parent / "cli.jsonl"
COLUMNS = "80"

D = "tests/data/"
G = "tests/golden/"
THE, BPE, FIG1 = D + "the_vocab.json", D + "the_bpe.json", D + "fig1.json"
UNIFORM, STOCHASTIC = G + "uniform.json", G + "stochastic.json"
QDIST, PSTAR, FIG1_PSTAR = D + "the_qdist.json", D + "the_pstar.json", D + "fig1_pstar.json"
MISSING = D + "nope.json"
UNK, NOT_OPEN = G + "spec_unk.json", G + "spec_not_open.json"
MUNCH_TABLE, BPE_TABLE = G + "spec_munch_table_decoder.json", G + "spec_bpe_table_decoder.json"
NO_SPELLINGS_CONSTRUCTIVE = G + "spec_constructive_no_spellings.json"
UNIFORM_NOT_OPEN = G + "spec_uniform_not_open.json"
UNIFORM_TABLE = G + "spec_uniform_table_decoder.json"
AB_PSTAR = G + "ab_pstar.json"
BAD_SPECS = [D + "malformed.json", MISSING] + [
    G + name
    for name in (
        "spec_missing_encoder.json",
        "spec_duplicate_labels.json",
        "spec_empty_spelling.json",
        "spec_bad_merge.json",
        "spec_unknown_encoder.json",
        "spec_unknown_decoder.json",
        "spec_no_spellings.json",
        "spec_not_object.json",
        "table_sum.json",
        "table_negative.json",
        "table_missing_row.json",
        "table_row_shape.json",
        "table_duplicate_row.json",
        "table_bad_rational.json",
        "table_empty.json",
    )
]
BAD_DISTS = [D + "malformed.json", MISSING] + [
    G + name
    for name in (
        "dist_sum.json",
        "dist_missing_prob.json",
        "dist_duplicate.json",
        "dist_negative.json",
        "dist_not_list.json",
    )
]
TRANSDUCERS = [D + "munch_transducer.json", D + "munch_transducer_bad.json"]
BAD_TRANSDUCERS = [D + "malformed.json", MISSING] + [
    G + name
    for name in (
        "transducer_missing_terminal.json",
        "transducer_unknown_label.json",
        "transducer_bad_initial.json",
        "transducer_bad_output.json",
        "transducer_partial.json",
    )
]


def _len(n: int) -> list[str]:
    return ["--max-len", str(n)]


def commands() -> list[list[str]]:
    """Every command of the corpus, in a fixed order."""
    cmds: list[list[str]] = []

    # check
    for spec in (THE, BPE, UNIFORM):
        for n in range(6):
            cmds.append(["check", spec, *_len(n)])
            cmds.append(["check", spec, *_len(n), "--json"])
    for spec in (FIG1, STOCHASTIC):
        cmds += [["check", spec], ["check", spec, "--json"], ["check", spec, *_len(3)]]
    cmds += [
        ["check", THE, *_len(3), "--trials", "0"],
        ["check", THE, *_len(3), "--trials", "3", "--seed", "7", "--json"],
        ["check", BPE, *_len(4), "--seed", "11"],
        ["check", UNIFORM, *_len(2), "--trials", "1", "--json"],
    ]
    for spec in BAD_SPECS:
        cmds.append(["check", spec])
    cmds += [["check", D + "malformed.json", "--json"], ["check", MISSING, "--json"]]
    cmds += [
        ["check", THE, "--max-len", "-1"],
        ["check", THE, "--max-len", "x"],
        ["check", FIG1, "--trials", "-3"],
        ["check", FIG1, "--trials", "1.5"],
        ["check", FIG1, "--seed", "x"],
        ["check"],
        [],
    ]

    # preimages
    texts = ["", "ε", "t", "th", "the", "hehe", "t|h|e", "thethe", "eeeee", "x", "t|x"]
    for spec in (THE, BPE):
        for n in (0, 1, 2, 3, 5):
            for text in texts:
                cmds.append(["preimages", spec, *_len(n), "--text", text])
    for text in ("", "s1", "s2", "s3", "s2s3", "d1"):
        cmds.append(["preimages", FIG1, "--text", text])
    for text in ("the", "hehe", "", "e"):
        cmds.append(["preimages", UNIFORM, *_len(4), "--text", text])
    cmds += [
        ["preimages", STOCHASTIC, "--text", "a"],
        ["preimages", THE, *_len(3)],
        ["preimages", D + "malformed.json", "--text", "t"],
    ]

    # marginalize
    for spec in (THE, BPE):
        for n in range(8):
            cmds.append(["marginalize", spec, QDIST, *_len(n), "--all"])
    for n in (1, 3, 5, 7):
        for text in ("the", "t", "", "th", "he", "thethe", "x"):
            cmds.append(["marginalize", THE, QDIST, *_len(n), "--text", text])
    cmds += [
        ["marginalize", THE, PSTAR, *_len(3), "--all"],
        ["marginalize", THE, PSTAR, *_len(3), "--text", "the"],
        ["marginalize", UNIFORM, QDIST, *_len(3), "--all"],
        ["marginalize", UNIFORM, QDIST, *_len(3), "--text", "the"],
        ["marginalize", FIG1, QDIST, "--all"],
        ["marginalize", FIG1, FIG1_PSTAR, "--all"],
        ["marginalize", STOCHASTIC, G + "xy_qdist.json", "--all"],
        ["marginalize", STOCHASTIC, G + "xy_qdist.json", "--text", "a"],
    ]
    for dist in BAD_DISTS:
        cmds.append(["marginalize", THE, dist, *_len(3), "--all"])
        cmds.append(["marginalize", THE, dist, *_len(3), "--text", "t"])
    cmds += [
        ["marginalize", THE, QDIST, *_len(3)],
        ["marginalize", THE, QDIST, *_len(3), "--all", "--text", "the"],
        ["marginalize", THE, *_len(3), "--all"],
    ]

    # simulate
    for n in (1, 3, 5):
        for schedule in ("10,100", "1,2,3"):
            for seed in ("0", "5"):
                cmds.append(
                    ["simulate", THE, PSTAR, *_len(n), "--schedule", schedule, "--seed", seed]
                )
    cmds += [
        ["simulate", THE, PSTAR, *_len(3)],
        ["simulate", BPE, PSTAR, *_len(3), "--schedule", "10,100"],
        ["simulate", UNIFORM, PSTAR, *_len(3), "--schedule", "10,100", "--seed", "1"],
        ["simulate", FIG1, FIG1_PSTAR],
        ["simulate", FIG1, FIG1_PSTAR, "--schedule", "10,100,1000", "--seed", "3"],
        ["simulate", STOCHASTIC, G + "ab_pstar.json", "--schedule", "10,100"],
        ["simulate", FIG1, PSTAR],
        ["simulate", THE, QDIST, *_len(3)],
    ]
    for schedule in ("0,10", "10,5", "10,10", "a,b", "", ",", "1.5", "--schedule=-5"):
        arg = [schedule] if schedule.startswith("--") else ["--schedule", schedule]
        cmds.append(["simulate", FIG1, FIG1_PSTAR, *arg])
    for dist in BAD_DISTS:
        cmds.append(["simulate", THE, dist, *_len(3), "--schedule", "10"])

    # transduce
    runs = [
        ["--text", "the"],
        ["--text", "thethe"],
        ["--text", ""],
        ["--text", "x"],
        ["--verify-max-len", "0"],
        ["--verify-max-len", "3"],
        ["--verify-max-len", "5"],
        ["--text", "hethe", "--verify-max-len", "4"],
        [],
    ]
    for extra in runs:
        cmds.append(["transduce", BPE, *extra])
        cmds.append(["transduce", THE, *extra])
        for machine in TRANSDUCERS:
            cmds.append(["transduce", THE, *extra, "--transducer", machine])
    for n in (0, 1, 3, 5):
        cmds.append(["transduce", THE, *_len(n), "--text", "thehe", "--verify-max-len", "3"])
    for machine in BAD_TRANSDUCERS:
        cmds.append(["transduce", THE, "--transducer", machine, "--text", "the"])
        cmds.append(["transduce", THE, "--transducer", machine, "--verify-max-len", "2"])
    cmds += [
        ["transduce", BPE, "--text", "thethe", "--verify-max-len", "4"],
        ["transduce", UNIFORM, "--text", "the"],
        ["transduce", FIG1, "--text", "s1"],
        ["transduce", G + "spec_no_spellings.json", "--text", "a"],
        ["transduce", THE, "--verify-max-len", "-1"],
    ]

    # spec loader: an unk token, a vocab that is not open, constructive encoders
    # over a table decoder, and a constructive encoder without spellings
    loader_specs = [
        (UNK, 3, ["the", "x", "thx"]),
        (NOT_OPEN, 1, ["the", "x"]),
        (MUNCH_TABLE, 1, ["ab", "b"]),
        (BPE_TABLE, 1, ["ab", "b"]),
        (NO_SPELLINGS_CONSTRUCTIVE, 1, ["a"]),
    ]
    for spec, n, spec_texts in loader_specs:
        for check_n in (0, 1, 2):
            cmds.append(["check", spec, *_len(check_n)])
        cmds.append(["check", spec, *_len(n), "--json"])
        for text in spec_texts:
            cmds.append(["preimages", spec, *_len(n), "--text", text])
            cmds.append(["transduce", spec, *_len(n), "--text", text, "--verify-max-len", "2"])

    # the uniform encoder over a vocab that is not open and over a table decoder
    for spec, p_star, q in ((UNIFORM_NOT_OPEN, PSTAR, QDIST), (UNIFORM_TABLE, AB_PSTAR, AB_PSTAR)):
        for n in (0, 1, 2):
            cmds.append(["check", spec, *_len(n)])
            cmds.append(["check", spec, *_len(n), "--json"])
            cmds.append(["simulate", spec, p_star, *_len(n)])
            cmds.append(["marginalize", spec, q, *_len(n), "--all"])
    return cmds


def replay(argv: list[str]) -> dict:
    """Run one command in process; argparse's usage errors exit through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def write() -> int:
    """Replay every command from the repository root and write the corpus; return the count."""
    os.chdir(ROOT)
    os.environ["COLUMNS"] = COLUMNS
    lines = [json.dumps(replay(argv), ensure_ascii=False) for argv in commands()]
    CORPUS.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return len(lines)


if __name__ == "__main__":
    print(f"wrote {write()} commands to {CORPUS.relative_to(ROOT)}")
