import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tokcheck as tk
from tokcheck import cli

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_exact_spec(capsys):
    code, out, _ = run_cli(capsys, "check", DATA / "the_vocab.json", "--max-len", "4")
    assert code == 0
    assert "exact: true" in out
    assert "multiplicative decoder: true" in out
    assert "prefix monotone: true" in out


def test_check_fig1_spec(capsys):
    code, out, _ = run_cli(capsys, "check", DATA / "fig1.json")
    assert code == 1
    assert "exact: false, witness s1" in out
    assert "multiplicative decoder: not applicable" in out


def test_check_json_report(capsys):
    code, out, _ = run_cli(capsys, "check", DATA / "fig1.json", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["exact"] is False and doc["witness"] == "s1"
    assert doc["classification"]["deterministic_encoder"] is True
    assert doc["classification"]["multiplicative_decoder"] is None


def test_check_malformed_spec(capsys):
    code, _, err = run_cli(capsys, "check", DATA / "malformed.json")
    assert code == 2
    assert "error:" in err


def test_check_missing_file(capsys):
    code, _, err = run_cli(capsys, "check", DATA / "nope.json")
    assert code == 2
    assert "error:" in err


def test_check_empty_truncation(capsys):
    code, out, _ = run_cli(capsys, "check", DATA / "the_vocab.json", "--max-len", "0")
    assert code == 0
    assert "trivial kernel: not applicable (truncation admits no token)" in out


def run_cli_usage_error(capsys, *argv):
    """Run a command argparse must reject; return its one error line."""
    with pytest.raises(SystemExit) as exc:
        cli.main([str(a) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1
    return errors[0]


def test_check_negative_trials(capsys):
    line = run_cli_usage_error(capsys, "check", DATA / "fig1.json", "--trials", "-3")
    assert "argument --trials: must be >= 0" in line


def test_simulate_schedule_not_integers(capsys):
    line = run_cli_usage_error(
        capsys, "simulate", DATA / "fig1.json", DATA / "fig1_pstar.json", "--schedule", "100,abc"
    )
    assert "argument --schedule: expected comma-separated integers" in line


def test_simulate_schedule_not_increasing(capsys):
    line = run_cli_usage_error(
        capsys, "simulate", DATA / "fig1.json", DATA / "fig1_pstar.json", "--schedule", "100,100"
    )
    assert "argument --schedule: sample counts must be positive and strictly increasing" in line


def test_transduce_negative_verify_max_len(capsys):
    line = run_cli_usage_error(
        capsys, "transduce", DATA / "the_vocab.json", "--verify-max-len", "-1"
    )
    assert "argument --verify-max-len: must be >= 0" in line


def test_preimages_the(capsys):
    code, out, _ = run_cli(capsys, "preimages", DATA / "the_vocab.json", "--text", "the")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["t|he", "th|e", "t|h|e", "bound: 155"]


def test_preimages_empty_text(capsys):
    code, out, _ = run_cli(capsys, "preimages", DATA / "the_vocab.json", "--text", "ε")
    assert code == 0
    assert out.strip().splitlines() == ["ε", "bound: 0"]


def test_preimages_text_beyond_truncation(capsys):
    # at --max-len 2 the split t|h|e is outside the token space: refused, not answered in part
    code, out, err = run_cli(
        capsys, "preimages", DATA / "the_vocab.json", "--max-len", "2", "--text", "the"
    )
    assert code == 2
    assert out == ""
    assert "OutOfTruncation" in err and "> truncation 2" in err
    code, out, _ = run_cli(
        capsys, "preimages", DATA / "the_vocab.json", "--max-len", "2", "--text", "th"
    )
    assert code == 0
    assert out.strip().splitlines() == ["th", "t|h", "bound: 30"]


def test_preimages_not_eligible(capsys, tmp_path):
    # fig1's decoder with token d3 decoding to the empty text
    spec = json.loads((DATA / "fig1.json").read_text(encoding="utf-8"))
    spec["decoder"]["table"][3] = ["d3", [["ε", "1"]]]
    path = tmp_path / "fig1_empty_token.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, _, err = run_cli(capsys, "preimages", path, "--text", "s1")
    assert code == 2
    assert err == (
        "error: DecoderNotEligible: trivial kernel: false, witness d3, "
        "token decodes to the empty string\n"
    )


def test_preimages_of_a_table_decoder_below_truncation_2(capsys):
    # fig1's decoder sends ε to ε and no token to ε, so it is eligible at truncation 1
    code, out, _ = run_cli(capsys, "preimages", DATA / "fig1.json", "--text", "s2")
    assert code == 0
    assert out.splitlines() == ["d1", "d2", "bound: 3"]
    code, out, _ = run_cli(capsys, "preimages", DATA / "fig1.json", "--text", "s1")
    assert code == 0
    assert out.splitlines() == ["bound: 3"]


@pytest.mark.parametrize("text, want", [("t", ["t", "bound: 5"]), ("ε", ["ε", "bound: 0"])])
def test_preimages_at_truncation_1(capsys, text, want):
    code, out, err = run_cli(
        capsys, "preimages", DATA / "the_vocab.json", "--max-len", "1", "--text", text
    )
    assert (code, out.splitlines(), err) == (0, want, "")


def test_preimages_of_the_empty_text_at_truncation_0(capsys):
    code, out, _ = run_cli(
        capsys, "preimages", DATA / "the_vocab.json", "--max-len", "0", "--text", "ε"
    )
    assert (code, out.splitlines()) == (0, ["ε", "bound: 0"])


@pytest.mark.parametrize("text, want", [("t", "1/2"), ("ε", "1/4")])
def test_marginalize_at_truncation_1(capsys, tmp_path, text, want):
    path = tmp_path / "q.json"
    path.write_text(
        json.dumps([{"string": "t", "prob": "1/2"}, {"string": "ε", "prob": "1/4"},
                    {"string": "h", "prob": "1/4"}]),
        encoding="utf-8",
    )
    args = ["marginalize", DATA / "the_vocab.json", path, "--max-len", "1"]
    assert run_cli(capsys, *args, "--text", text) == (0, want + "\n", "")
    code, out, _ = run_cli(capsys, *args, "--all")
    assert (code, out.splitlines()) == (0, ["ε\t1/4", "t\t1/2", "h\t1/4", "total: 1"])


def test_marginalize_text(capsys):
    code, out, _ = run_cli(
        capsys, "marginalize", DATA / "the_vocab.json", DATA / "the_qdist.json",
        "--text", "the", "--max-len", "3",
    )
    assert code == 0
    assert out.strip() == "7/20"


def test_marginalize_all_sums_to_one(capsys):
    code, out, _ = run_cli(
        capsys, "marginalize", DATA / "the_vocab.json", DATA / "the_qdist.json",
        "--all", "--max-len", "3",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "total: 1"  # q is supported on decodable sequences only
    values = dict(line.split("\t") for line in lines[:-1])
    assert values["the"] == "7/20"
    assert values["t"] == "13/20"


def test_marginalize_all_lists_no_text(capsys, monkeypatch):
    # every marginal is read off the decoded support; no space of texts is listed
    bundle = cli.load_spec(str(DATA / "the_vocab.json"), 5)
    sigma = bundle.tokenizer.char_space.alphabet
    strings = tk.Space.strings

    def strings_of_tokens_only(space):
        assert space.alphabet != sigma, f"listed the texts of {space}"
        return strings(space)

    monkeypatch.setattr(cli, "load_spec", lambda path, max_len: bundle)
    monkeypatch.setattr(tk.Space, "strings", strings_of_tokens_only)
    code, out, _ = run_cli(
        capsys, "marginalize", DATA / "the_vocab.json", DATA / "the_qdist.json",
        "--all", "--max-len", "5",
    )
    assert code == 0
    assert out == "t\t13/20\nthe\t7/20\ntotal: 1\n"


def test_marginalize_off_support(capsys):
    code, out, _ = run_cli(
        capsys, "marginalize", DATA / "the_vocab.json", DATA / "the_qdist.json",
        "--text", "ht", "--max-len", "3",
    )
    assert code == 0
    assert out.strip() == "0"


def test_marginalize_text_beyond_truncation(capsys):
    code, out, err = run_cli(
        capsys, "marginalize", DATA / "the_vocab.json", DATA / "the_qdist.json",
        "--text", "thet", "--max-len", "3",
    )
    assert code == 2
    assert out == ""
    assert "OutOfTruncation" in err and "> truncation 3" in err


def test_simulate_fig1(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", DATA / "fig1.json", DATA / "fig1_pstar.json",
        "--schedule", "100,1000,10000", "--seed", "7",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert "bias: 2/5" in lines
    final_tv = Fraction(lines[2].split("\t")[1])
    assert abs(float(final_tv) - 0.4) <= 0.02


def test_simulate_exact_spec_zero_bias(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", DATA / "the_vocab.json", DATA / "the_pstar.json",
        "--schedule", "100,1000", "--max-len", "3",
    )
    assert code == 0
    assert "bias: 0" in out


def test_simulate_output_is_pinned(capsys):
    """Full output for fixed seeds: any change to the draws changes these lines."""
    code, out, _ = run_cli(
        capsys, "simulate", DATA / "fig1.json", DATA / "fig1_pstar.json",
        "--schedule", "100,1000,10000", "--seed", "7",
    )
    assert code == 0
    assert out == (
        "100\t41/100\t0.410000\n"
        "1000\t199/500\t0.398000\n"
        "10000\t252/625\t0.403200\n"
        "bias: 2/5\n"
        "converged: false (tolerance 1/20)\n"
    )
    code, out, _ = run_cli(
        capsys, "simulate", DATA / "the_vocab.json", DATA / "the_pstar.json", "--max-len", "3"
    )
    assert code == 0
    assert out == (
        "100\t1/150\t0.006667\n"
        "1000\t11/1500\t0.007333\n"
        "10000\t14/1875\t0.007467\n"
        "bias: 0\n"
        "converged: false (tolerance 1/20)\n"
    )


def test_simulate_missing_dist(capsys):
    code, _, err = run_cli(capsys, "simulate", DATA / "the_vocab.json", DATA / "no_dist.json")
    assert code == 2
    assert "error:" in err


def test_transduce_text_and_verify(capsys):
    code, out, _ = run_cli(
        capsys, "transduce", DATA / "the_vocab.json", "--text", "the",
        "--verify-max-len", "8",
    )
    assert code == 0
    assert out.strip().splitlines() == ["th|e", "equivalent: true"]


def test_transduce_empty_input(capsys):
    code, out, _ = run_cli(capsys, "transduce", DATA / "the_vocab.json", "--text", "ε")
    assert code == 0
    assert out.strip() == "ε"


def test_transduce_from_file(capsys):
    code, out, _ = run_cli(
        capsys, "transduce", DATA / "the_vocab.json", "--text", "hethe",
        "--transducer", DATA / "munch_transducer.json", "--verify-max-len", "6",
    )
    assert code == 0
    assert out.strip().splitlines() == ["he|th|e", "equivalent: true"]


def test_transduce_corrupted_file(capsys):
    code, out, _ = run_cli(
        capsys, "transduce", DATA / "the_vocab.json",
        "--transducer", DATA / "munch_transducer_bad.json", "--verify-max-len", "4",
    )
    assert code == 1
    assert "equivalent: false, witness t" in out


def test_transduce_missing_transducer_file(capsys):
    code, _, err = run_cli(
        capsys, "transduce", DATA / "the_vocab.json", "--transducer", DATA / "nope.json"
    )
    assert code == 2
    assert f"error: cannot read {DATA / 'nope.json'}" in err


def test_transduce_transducer_not_json(capsys, tmp_path):
    path = tmp_path / "machine.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "transduce", DATA / "the_vocab.json", "--transducer", path)
    assert code == 2
    assert f"error: {path} is not valid JSON" in err


def test_check_negative_max_len(capsys):
    line = run_cli_usage_error(capsys, "check", DATA / "the_vocab.json", "--max-len", "-1")
    assert "argument --max-len: must be >= 0" in line


def test_dist_round_trip(vocab):
    space = tk.Space(vocab.delta, 3)
    original = cli.load_dist(DATA / "the_qdist.json", space)
    rows = cli.dist_rows(original)
    reparsed = tk.Dist(space, {tk.parse_str(vocab.delta, r["string"]): Fraction(r["prob"]) for r in rows})
    assert reparsed == original


def test_transducer_round_trip(vocab):
    machine = tk.build_maximal_munch_transducer(vocab)
    doc = cli.transducer_to_json(machine)
    reparsed = cli.transducer_from_json(json.loads(json.dumps(doc)), vocab.sigma, vocab.delta)
    assert reparsed == machine


def test_table_round_trip(fig1):
    t, _ = fig1
    rows = cli.table_rows(t.encoder)
    raw = cli._parse_table(rows, t.char_space.alphabet, t.token_space.alphabet)
    rebuilt = cli._table_map(raw, t.char_space, t.token_space)
    assert rebuilt == t.encoder


def test_spec_round_trip_through_check(capsys, tmp_path):
    # serialize the fig1 encoder/decoder tables back into a spec document and
    # confirm the reparsed tokenizer produces identical verdicts
    bundle = cli.load_spec(str(DATA / "fig1.json"), 5)
    doc = {
        "alphabet": list(bundle.tokenizer.char_space.alphabet.labels),
        "vocab": [{"token": lab} for lab in bundle.tokenizer.token_space.alphabet.labels],
        "encoder": {"type": "table", "table": cli.table_rows(bundle.tokenizer.encoder)},
        "decoder": {"type": "table", "table": cli.table_rows(bundle.tokenizer.decoder)},
    }
    path = tmp_path / "fig1_rt.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    rebuilt = cli.load_spec(str(path), 5)
    assert rebuilt.tokenizer.encoder == bundle.tokenizer.encoder
    assert rebuilt.tokenizer.decoder == bundle.tokenizer.decoder


@pytest.mark.parametrize("side", ["encoder", "decoder"])
def test_empty_spec_table(capsys, tmp_path, side):
    doc = json.loads((DATA / "fig1.json").read_text(encoding="utf-8"))
    doc[side]["table"] = []
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    code, _, err = run_cli(capsys, "check", path)
    assert code == 2
    assert f"error: {side} table is empty; it must cover the whole domain" in err


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    spec = DATA / "the_vocab.json"
    proc = subprocess.run(
        [sys.executable, "-m", "tokcheck", "preimages", str(spec), "--text", "the"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "t|he\nth|e\nt|h|e\nbound: 155\n"


def test_check_bpe_spec(capsys):
    code, out, err = run_cli(capsys, "check", DATA / "the_bpe.json", "--max-len", "3")
    assert (code, err) == (0, "")
    assert out == (
        "exact: true\n"
        "deterministic encoder: true\n"
        "deterministic decoder: true\n"
        "bijective: true\n"
        "multiplicative decoder: true\n"
        "trivial kernel: true\n"
        "prefix monotone: true\n"
        "probe: exact; consistent on 50 random distributions and all point masses\n"
    )


def test_preimages_bpe_spec(capsys):
    code, out, err = run_cli(capsys, "preimages", DATA / "the_bpe.json", "--text", "the")
    assert (code, err) == (0, "")
    assert out == "t|he\nth|e\nt|h|e\nbound: 155\n"


def test_check_rejects_a_merge_that_can_never_fire(capsys, tmp_path):
    doc = {
        "alphabet": ["a", "b", "c"],
        "vocab": [{"token": sp, "spelling": sp} for sp in ("a", "b", "c", "abc")],
        "encoder": {"type": "bpe", "merges": [["ab", "c"]]},
        "decoder": {"type": "concat"},
    }
    path = tmp_path / "inert_merge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "check", path, "--max-len", "3")
    assert (code, out) == (2, "")
    assert err == (
        "error: bad tokenizer spec: merge (ab, c) can never fire: "
        "its part 'ab' does not spell any vocab entry\n"
    )
