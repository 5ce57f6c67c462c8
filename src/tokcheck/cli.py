"""Command-line surface and JSON file formats.

Documents are UTF-8 JSON. Probabilities cross the boundary as exact
rational strings ("1/5"). Tokenizer specs declare a character alphabet, a
vocabulary, and an encoder/decoder description each of which is either
constructive (maximal_munch, bpe, uniform, concat) or an explicit kernel
table; abstract tokenizers are expressed as table maps over opaque labels.

Exit codes: 0 success or property true, 1 property false (witness printed),
2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from . import sim
from .dist import Dist
from .encoders import (
    MergeList,
    Vocab,
    _bpe_encoder,
    _uniform_encoder,
    concat_decoder,
    maximal_munch_encode,
    munch_encoder,
)
from .errors import ParseError, TokcheckError
from .stochmap import StochMap, pushforward
from .strings import CHARACTERS, TOKENS, Alphabet, Space, parse_str
from .tokenizer import (
    Tokenizer,
    classify,
    exact_iff_all_consistent_probe,
    marginalize,
    preimage_bound,
    preimages,
    require_eligible_decoder,
)
from .transducer import SubseqTransducer, build_maximal_munch_transducer, equivalent_on, run


@dataclass
class SpecBundle:
    tokenizer: Tokenizer
    vocab: Vocab | None
    encoder_type: str
    decoder_type: str


def _fraction(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}: {exc}") from None


def _parse_table(rows, dom_alpha: Alphabet, cod_alpha: Alphabet):
    """Parse [(input, [(output, prob), ...]), ...] into Str-keyed raw rows."""
    parsed = {}
    for item in rows:
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise ParseError(f"table row must be [input, outputs], got {item!r}")
        x = parse_str(dom_alpha, item[0])
        if x in parsed:
            raise ParseError(f"duplicate table row for {item[0]!r}")
        parsed[x] = {parse_str(cod_alpha, out): _fraction(pr) for out, pr in item[1]}
    return parsed


@contextmanager
def _document(kind: str):
    """Report a malformed document's error as ParseError("bad <kind>: ...")."""
    try:
        yield
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, TokcheckError) as exc:
        raise ParseError(f"bad {kind}: {exc}") from exc


def _table_map(raw: dict, dom_space: Space, cod_space: Space) -> StochMap:
    """The map of `_parse_table`'s rows, which must cover the whole domain space."""
    missing = dom_space.size() - len(raw)
    if missing:
        raise ParseError(f"table is missing {missing} row(s); it must cover the whole domain")
    with _document("table"):
        kernel = {x: Dist(cod_space, mass) for x, mass in raw.items()}
        return StochMap(dom_space, cod_space, kernel)


def table_rows(f: StochMap) -> list:
    """Serialize a map's kernel as [(input, [(output, prob), ...]), ...]."""
    return [
        [x.render(), [[y.render(), str(row.mass[y])] for y in row.support()]]
        for x, row in f.rows()
    ]


def _read_json(path: str):
    """Parse a JSON file; unreadable or malformed files raise ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None


def load_spec(path: str, max_len: int) -> SpecBundle:
    doc = _read_json(path)
    with _document("tokenizer spec"):
        return _build_spec(doc, max_len)


def _build_spec(doc: dict, max_len: int) -> SpecBundle:
    sigma = Alphabet(tuple(doc["alphabet"]), CHARACTERS)
    entries = doc["vocab"]
    delta = Alphabet(tuple(e["token"] for e in entries), TOKENS)
    vocab = None
    if all("spelling" in e for e in entries):
        vocab = Vocab.from_texts(sigma, [(e["token"], e["spelling"]) for e in entries])
    enc_doc, dec_doc = doc["encoder"], doc["decoder"]
    enc_type, dec_type = enc_doc["type"], dec_doc["type"]

    if enc_type == "table":
        enc_raw = _parse_table(enc_doc["table"], sigma, delta)
        if not enc_raw:
            raise ParseError("encoder table is empty; it must cover the whole domain")
        n = max(len(x) for x in enc_raw)
    else:
        n = max_len
    if dec_type == "table":
        dec_raw = _parse_table(dec_doc["table"], delta, sigma)
        if not dec_raw:
            raise ParseError("decoder table is empty; it must cover the whole domain")
        m = max(len(x) for x in dec_raw)
        n_out = max(n, max((len(y) for row in dec_raw.values() for y in row), default=0))
    else:
        if vocab is None:
            raise ParseError("constructive decoders need a spelling for every vocab entry")
        m = n
    char_space, token_space = Space(sigma, n), Space(delta, m)

    if enc_type == "table":
        encoder = _table_map(enc_raw, char_space, token_space)
    elif enc_type in ("maximal_munch", "bpe", "uniform"):
        if vocab is None:
            raise ParseError("constructive encoders need a spelling for every vocab entry")
        if enc_type == "maximal_munch":
            encoder = munch_encoder(vocab, n, enc_doc.get("unk_token"), m)
        elif enc_type == "bpe":
            merges = MergeList.from_texts(vocab, [tuple(p) for p in enc_doc["merges"]])
            encoder = _bpe_encoder(vocab, merges, char_space, token_space)
        else:
            encoder = _uniform_encoder(vocab, char_space, token_space)
    else:
        raise ParseError(f"unknown encoder type {enc_type!r}")

    if dec_type == "table":
        decoder = _table_map(dec_raw, token_space, Space(sigma, n_out))
    elif dec_type == "concat":
        decoder = concat_decoder(vocab, m)
    else:
        raise ParseError(f"unknown decoder type {dec_type!r}")
    return SpecBundle(Tokenizer(encoder, decoder), vocab, enc_type, dec_type)


def load_dist(path: str, space: Space) -> Dist:
    doc = _read_json(path)
    with _document("distribution file"):
        mass = {}
        for item in doc:
            s = parse_str(space.alphabet, item["string"])
            if s in mass:
                raise ParseError(f"duplicate entry for {item['string']!r}")
            mass[s] = _fraction(item["prob"])
        return Dist(space, mass)


def dist_rows(d: Dist) -> list:
    return [{"string": s.render(), "prob": str(d.mass[s])} for s in d.support()]


def transducer_to_json(t: SubseqTransducer) -> dict:
    return {
        "states": list(t.states),
        "initial": t.initial,
        "transitions": [
            {
                "from": q,
                "in": t.input_alphabet.labels[a],
                "to": t.next_state[(q, a)],
                "out": t.output[(q, a)].render(),
            }
            for (q, a) in sorted(t.next_state)
        ],
        "terminal": [{"state": q, "out": t.terminal[q].render()} for q in t.states],
    }


def transducer_from_json(doc: dict, sigma: Alphabet, delta: Alphabet) -> SubseqTransducer:
    with _document("transducer document"):
        next_state, output = {}, {}
        for tr in doc["transitions"]:
            key = (tr["from"], sigma.index(tr["in"]))
            next_state[key] = tr["to"]
            output[key] = parse_str(delta, tr["out"])
        terminal = {row["state"]: parse_str(delta, row["out"]) for row in doc["terminal"]}
        return SubseqTransducer(
            states=tuple(doc["states"]),
            input_alphabet=sigma,
            output_alphabet=delta,
            initial=doc["initial"],
            next_state=next_state,
            output=output,
            terminal=terminal,
        )


def _cmd_check(args, bundle: SpecBundle) -> int:
    t = bundle.tokenizer
    report = classify(t)
    probe = exact_iff_all_consistent_probe(t, trials=args.trials, seed=args.seed)
    # the probe's exactness is `is_exact`'s verdict, its counterexample that verdict's witness
    exact = probe.exact
    if args.json:
        doc = {
            "exact": exact,
            "witness": None if exact else probe.counterexample.render(),
            "classification": {name: v.ok for name, v in report.verdicts()},
            "probe": probe.describe(),
        }
        print(json.dumps(doc, ensure_ascii=False))
    else:
        if exact:
            print("exact: true")
        else:
            print(f"exact: false, witness {probe.counterexample.render()}")
        for line in report.lines():
            print(line)
        print(f"probe: {probe.describe()}")
    return 0 if exact else 1


def _cmd_preimages(args, bundle: SpecBundle) -> int:
    t = bundle.tokenizer
    sigma = parse_str(t.char_space.alphabet, args.text)
    for delta in preimages(t, sigma):
        print(delta.render())
    print(f"bound: {preimage_bound(len(sigma), len(t.token_space.alphabet))}")
    return 0


def _cmd_marginalize(args, bundle: SpecBundle) -> int:
    t = bundle.tokenizer
    q = load_dist(args.dist, t.token_space)
    if args.text is not None:
        print(marginalize(t, q, parse_str(t.char_space.alphabet, args.text)))
        return 0
    # one pushforward of q through the decoder holds the marginal of every text
    require_eligible_decoder(t)
    decoded = pushforward(t.decoder, q)
    total = Fraction(0)
    for sigma in decoded.support():
        if sigma in t.char_space:
            print(f"{sigma.render()}\t{decoded.mass[sigma]}")
            total += decoded.mass[sigma]
    print(f"total: {total}")
    return 0


def _cmd_simulate(args, bundle: SpecBundle) -> int:
    t = bundle.tokenizer
    p_star = load_dist(args.dist, t.char_space)
    summary = sim.run_estimation(t, p_star, args.schedule, seed=args.seed)
    for n, tv in summary.rows():
        print(f"{n}\t{tv}\t{float(tv):.6f}")
    print(f"bias: {summary.bias}")
    print(f"converged: {'true' if summary.converged else 'false'} (tolerance {summary.tolerance})")
    return 0


def _cmd_transduce(args, bundle: SpecBundle) -> int:
    if bundle.vocab is None:
        raise ParseError("transduce needs a vocabulary with spellings")
    vocab = bundle.vocab
    if args.transducer:
        machine = transducer_from_json(_read_json(args.transducer), vocab.sigma, vocab.delta)
    else:
        machine = build_maximal_munch_transducer(vocab)
    if args.text is not None:
        gamma = parse_str(vocab.sigma, args.text)
        print(run(machine, gamma).render())
    if args.verify_max_len is not None:
        verdict = equivalent_on(
            machine, lambda s: maximal_munch_encode(vocab, s), args.verify_max_len
        )
        if verdict:
            print("equivalent: true")
        else:
            gamma, got, want = verdict.witness
            print(f"equivalent: false, witness {gamma.render()} -> {got.render()} (expected {want.render()})")
            return 1
    return 0


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _schedule(text: str) -> list[int]:
    """Comma-separated sample counts, each positive and larger than the one before."""
    try:
        counts = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if not counts:
        raise argparse.ArgumentTypeError("needs at least one sample count")
    if counts[0] < 1 or any(b <= a for a, b in zip(counts, counts[1:])):
        raise argparse.ArgumentTypeError(
            f"sample counts must be positive and strictly increasing, got {text!r}"
        )
    return counts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tokcheck", description="Tokenizer soundness checks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("spec", help="tokenizer spec JSON file")
        p.add_argument(
            "--max-len", type=_nonnegative_int, default=5, help="truncation for constructive specs"
        )

    p = sub.add_parser("check", help="exactness, classification, and the consistency probe")
    common(p)
    p.add_argument("--trials", type=_nonnegative_int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("preimages", help="token sequences decoding to a text")
    common(p)
    p.add_argument("--text", required=True)
    p.set_defaults(func=_cmd_preimages)

    p = sub.add_parser("marginalize", help="mass a token distribution puts on a text")
    common(p)
    p.add_argument("dist", help="distribution JSON over token sequences")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--text")
    group.add_argument("--all", action="store_true")
    p.set_defaults(func=_cmd_marginalize)

    p = sub.add_parser("simulate", help="estimation trace through the tokenizer")
    common(p)
    p.add_argument("dist", help="target distribution JSON over texts")
    p.add_argument("--schedule", type=_schedule, default="100,1000,10000")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("transduce", help="run and verify the greedy-encoder transducer")
    common(p)
    p.add_argument("--text")
    p.add_argument("--verify-max-len", type=_nonnegative_int, default=None)
    p.add_argument("--transducer", help="transducer JSON to use instead of building one")
    p.set_defaults(func=_cmd_transduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, load_spec(args.spec, args.max_len))
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TokcheckError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
