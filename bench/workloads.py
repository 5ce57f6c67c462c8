"""The benchmark's workloads, their seeded inputs and their correctness checks.

Each workload runs in passes. A pass sets up every tokenizer, table and
transducer its ops read, then runs its ops one after another, each op
starting when the previous verdict returns. `setup`, `ops`, `run` and
`check` are the whole interface the runner uses.

Every call into tokcheck goes through a `spans.Tracer`. With tracing on,
the composite calls `cli.load_spec`, `munch_tokenizer`,
`uniform_tokenizer`, `run_estimation` and `equivalent_on` are replayed as
the public calls they make, each in its own span, and the runner checks
that the replay returns what the composite returned.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import product
from pathlib import Path

import tokcheck as tk
from tokcheck import cli

import reference as ref

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
THE_SPEC = DATA / "the_vocab.json"
THE_QDIST = DATA / "the_qdist.json"
THE_PSTAR = DATA / "the_pstar.json"
FIG1_SPEC = DATA / "fig1.json"
FIG1_PSTAR = DATA / "fig1_pstar.json"
INPUTS = (THE_SPEC, THE_QDIST, THE_PSTAR, FIG1_SPEC, FIG1_PSTAR)

PROBE_TRIALS = 50
SCHEDULE = (1000, 10000, 30000)

# Hand-derived answers. The qdist puts 1/10 on t|he, 1/5 on th|e, 1/20 on
# t|h|e and 13/20 on t; only th|e is a greedy encoding.
THE_EXPECTED = {
    "marginals": {"the": Fraction(7, 20), "t": Fraction(13, 20)},
    "spurious": Fraction(3, 20),
    "preimages_total": {7: 8730},
}
# fig1 round trip: s1 -> d1 -> s2, s2 -> d3 -> s3, s3 -> d3 -> s3. With
# p* = (1/5, 2/5, 2/5) the decoded law is (0, 1/5, 4/5), at TV 2/5.
FIG1_ROUNDTRIP = {(): (), (0,): (1,), (1,): (2,), (2,): (2,)}
FIG1_BIAS = Fraction(2, 5)


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _all_strings(alphabet: tk.Alphabet, max_len: int) -> list[tk.Str]:
    return list(tk.enumerate_strings(alphabet, max_len))


def strings(tr, alphabet: tk.Alphabet, max_len: int) -> list[tk.Str]:
    texts = tr.call("strings.enumerate", _all_strings, alphabet, max_len)
    tr.counts["strings.rows"] += len(texts)
    return texts


def space_size(k: int, max_len: int) -> int:
    return sum(k**i for i in range(max_len + 1))


# --- set-up calls, replayed when tracing -----------------------------------


def _count_tables(tr, t: tk.Tokenizer) -> None:
    tr.counts["stochmap.rows_tabulated"] += len(t.encoder.kernel) + len(t.decoder.kernel)
    tr.counts["encoders.decoder_rows"] += len(t.decoder.kernel)


def _concat_decoder(tr, vocab: tk.Vocab, max_len: int) -> tk.StochMap:
    decoder = tr.table("encoders.concat_decoder", tk.concat_decoder, vocab, max_len)
    tr.counts["encoders.decoder_rows"] += len(decoder.kernel)
    return decoder


def _tabulated(tr, vocab: tk.Vocab, max_len: int, encode) -> tk.Tokenizer:
    """A tokenizer over texts of length <= max_len, built as its two tables."""
    encoder = tr.table(
        "stochmap.materialize",
        tk.materialize,
        encode,
        tk.Space(vocab.sigma, max_len),
        tk.Space(vocab.delta, max_len),
    )
    return tk.Tokenizer(encoder, _concat_decoder(tr, vocab, max_len))


def load_munch_spec(tr, path: Path, max_len: int) -> cli.SpecBundle:
    """cli.load_spec on a maximal_munch/concat spec."""
    if not tr.enabled:
        bundle = cli.load_spec(str(path), max_len)
        _count_tables(tr, bundle.tokenizer)
        return bundle
    with tr.span("cli.load_spec"):
        doc = _read_json(path)
        if doc["encoder"] != {"type": "maximal_munch"} or doc["decoder"] != {"type": "concat"}:
            raise ValueError(f"{path.name} is not a maximal_munch/concat spec")
        sigma = tk.Alphabet(tuple(doc["alphabet"]))
        vocab = tk.Vocab.from_texts(sigma, [(e["token"], e["spelling"]) for e in doc["vocab"]])
        t = _tabulated(tr, vocab, max_len, lambda s: tk.maximal_munch_encode(vocab, s, None))
        return cli.SpecBundle(t, vocab, "maximal_munch", "concat")


def munch_tokenizer(tr, vocab: tk.Vocab, max_len: int) -> tk.Tokenizer:
    if not tr.enabled:
        t = tk.munch_tokenizer(vocab, max_len)
        _count_tables(tr, t)
        return t
    with tr.span("encoders.munch_tokenizer"):
        return _tabulated(tr, vocab, max_len, lambda s: tk.maximal_munch_encode(vocab, s, None))


def uniform_tokenizer(tr, vocab: tk.Vocab, max_len: int) -> tk.Tokenizer:
    if not tr.enabled:
        t = tk.uniform_tokenizer(vocab, max_len)
        _count_tables(tr, t)
        return t
    with tr.span("encoders.uniform_tokenizer"):
        return _tabulated(tr, vocab, max_len, lambda s: tk.uniform_segmenter(vocab, s))


def build_transducer(tr, vocab: tk.Vocab) -> tk.SubseqTransducer:
    machine = tr.call("transducer.build", tk.build_maximal_munch_transducer, vocab)
    tr.counts["transducer.states"] += len(machine.states)
    return machine


# --- op calls --------------------------------------------------------------


def preimages(tr, t: tk.Tokenizer, text: tk.Str) -> list[tk.Str]:
    found = tr.call("tokenizer.preimages", tk.preimages, t, text)
    tr.counts["tokenizer.preimages_found"] += len(found)
    return found


def equivalent_on(tr, machine: tk.SubseqTransducer, vocab: tk.Vocab, max_len: int) -> tk.Verdict:
    if not tr.enabled:
        return tk.equivalent_on(machine, lambda s: tk.maximal_munch_encode(vocab, s), max_len)
    with tr.span("transducer.equivalent_on"):
        for gamma in strings(tr, machine.input_alphabet, max_len):
            got = tr.call("transducer.run", tk.run, machine, gamma)
            want = tr.call("encoders.encode", tk.maximal_munch_encode, vocab, gamma)
            if got != want:
                return tk.Verdict.failed((gamma, got, want))
        return tk.Verdict.passed()


def run_estimation(tr, t: tk.Tokenizer, p_star: tk.Dist, seed: int) -> tk.SimSummary:
    if not tr.enabled:
        summary = tk.run_estimation(t, p_star, SCHEDULE, seed)
    else:
        with tr.span("sim.run_estimation"):
            target = p_star.embedded(t.decoder.cod_space)
            steps, tvs = [], []
            for n in SCHEDULE:
                draws = tr.call("dist.sample", tk.sample, p_star, seed ^ n, n)
                estimate = tr.call("dist.empirical", tk.empirical, draws, p_star.space)
                q_n = tr.call("stochmap.pushforward", tk.pushforward, t.encoder, estimate)
                decoded = tr.call("stochmap.pushforward", tk.pushforward, t.decoder, q_n)
                steps.append((n, decoded))
                tvs.append(tr.call("dist.tv", tk.tv_distance, decoded, target))
            bias = tr.call("sim.bias", tk.bias, t, p_star)
            summary = tk.SimSummary(
                tk.EstimatorTrace(tuple(steps), target), tuple(tvs), bias,
                tk.sim.CONVERGENCE_TOLERANCE,
            )
    tr.counts["dist.samples_drawn"] += sum(n for n, _ in summary.trace.steps)
    return summary


# --- shared checks ---------------------------------------------------------


def _check_verdicts(verdicts: dict) -> list[str]:
    return [f"{name}: {v.describe()}" for name, v in verdicts.items() if v.ok is not True]


def _classification(report) -> dict:
    return {f.name: getattr(report, f.name) for f in fields(report)}


def _check_encoder(t: tk.Tokenizer, spellings, texts) -> list[str]:
    """The tabulated greedy encoder against the reference longest match."""
    problems = []
    for s in texts:
        row = t.encoder.kernel[s].mass
        want = ref.greedy_encode(spellings, s.syms)
        if len(row) != 1 or next(iter(row)).syms != want:
            problems.append(f"encoder row {s.render()}")
    return problems


def _check_preimages(spellings, texts, found) -> list[str]:
    problems = []
    for s, pre in zip(texts, found, strict=True):
        keys = [ref.canonical(d.syms) for d in pre]
        if (
            len(pre) != ref.count_segmentations(spellings, s.syms)
            or any(ref.spell(spellings, d.syms) != s.syms for d in pre)
            or any(a >= b for a, b in zip(keys, keys[1:]))
        ):
            problems.append(f"preimages of {s.render()}")
    return problems


# --- workloads -------------------------------------------------------------


@dataclass
class TheState:
    tokenizer: tk.Tokenizer
    qdist: tk.Dist
    spellings: list[tuple[int, ...]]
    labels: tuple[str, ...]

    def built(self):
        return [(self.tokenizer.encoder, self.tokenizer.decoder)]


class TheN7:
    """Every verdict on the five-token `the` vocab at n, on a fresh tokenizer per op.

    decoder_eligibility caches on the Tokenizer, so each pass (one set-up,
    one op) builds the tokenizer again.
    """

    name = "the-n7"

    def __init__(self, n: int = 7, expected: dict = THE_EXPECTED):
        self.n = n
        self.expected = expected

    def setup(self, tr, rng) -> TheState:
        bundle = load_munch_spec(tr, THE_SPEC, self.n)
        t = bundle.tokenizer
        qdist = tr.call("cli.load_dist", cli.load_dist, str(THE_QDIST), t.token_space)
        doc = _read_json(THE_SPEC)
        labels = tuple(doc["alphabet"])
        spellings = [ref.parse(labels, e["spelling"]) for e in doc["vocab"]]
        return TheState(t, qdist, spellings, labels)

    def ops(self, state: TheState, rng) -> list[int]:
        return [rng.getrandbits(31)]  # the probe's seed

    def run(self, tr, state: TheState, probe_seed: int) -> dict:
        t, q = state.tokenizer, state.qdist
        texts = strings(tr, t.char_space.alphabet, t.char_space.max_len)
        vocab_size = len(t.token_space.alphabet)
        return {
            "texts": texts,
            "is_exact": tr.call("tokenizer.is_exact", tk.is_exact, t),
            "classify": tr.call("tokenizer.classify", tk.classify, t),
            "probe": tr.call(
                "tokenizer.probe", tk.exact_iff_all_consistent_probe, t, PROBE_TRIALS, probe_seed
            ),
            "eligibility": tr.call("tokenizer.eligibility", tk.decoder_eligibility, t),
            "preimages": [preimages(tr, t, s) for s in texts],
            "bounds": [
                tr.call("tokenizer.preimage_bound", tk.preimage_bound, len(s), vocab_size)
                for s in texts
            ],
            "marginals": [tr.call("tokenizer.marginalize", tk.marginalize, t, q, s) for s in texts],
            "spurious": tr.call("tokenizer.spurious", tk.spurious_ambiguity_mass, t, q),
        }

    def check(self, state: TheState, probe_seed: int, out: dict) -> list[str]:
        texts = out["texts"]
        v = len(state.spellings)
        problems = _check_verdicts(
            {
                "is_exact": out["is_exact"],
                **_classification(out["classify"]),
                "eligibility": out["eligibility"],
            }
        )
        probe = out["probe"]
        if not (probe.exact and probe.ok and probe.trials == PROBE_TRIALS):
            problems.append(f"probe: {probe.describe()}")
        if len(texts) != space_size(len(state.labels), self.n):
            problems.append(f"{len(texts)} texts enumerated")
        problems += _check_encoder(state.tokenizer, state.spellings, texts)
        problems += _check_preimages(state.spellings, texts, out["preimages"])
        total = sum(map(len, out["preimages"]))
        if total != self.expected["preimages_total"].get(self.n, total):
            problems.append(f"{total} preimages in all")
        for s, pre, bound in zip(texts, out["preimages"], out["bounds"]):
            if s.syms and (bound != sum(v**i for i in range(1, len(s) + 1)) or len(pre) > bound):
                problems.append(f"preimage bound at {s.render()}")
        want = {ref.parse(state.labels, k): m for k, m in self.expected["marginals"].items()}
        for s, m in zip(texts, out["marginals"]):
            if m != want.get(s.syms, 0):
                problems.append(f"marginal of {s.render()} is {m}")
        if out["spurious"] != self.expected["spurious"]:
            problems.append(f"spurious mass {out['spurious']}")
        return problems


def random_open_vocab(rng, i: int) -> tuple[str, list[str]]:
    """The i-th vocab of a pass: |Σ| = 2 + i mod 3 and 1 + (i // 3) mod 5 extra spellings.

    Sizes cycle through every combination, and the j-th extra spelling is
    2 + (i + j) mod 3 characters long, so the mix of op sizes is the same
    from seed to seed; the seed picks the characters.
    """
    labels = "abcd"[: 2 + i % 3]
    spellings = list(labels)
    for j in range(1 + (i // 3) % 5):
        while True:
            s = "".join(rng.choice(labels) for _ in range(2 + (i + j) % 3))
            if s not in spellings:
                break
        spellings.append(s)
    return labels, spellings


@dataclass
class SweepCase:
    vocab: tk.Vocab
    tokenizer: tk.Tokenizer
    machine: tk.SubseqTransducer
    spellings: list[tuple[int, ...]]


@dataclass
class SweepState:
    cases: list[SweepCase]

    def built(self):
        return [(c.tokenizer.encoder, c.tokenizer.decoder, c.machine) for c in self.cases]


class VocabSweep:
    """Many small uneven ops: random open vocabs, tokenizers at n, one transducer each."""

    name = "vocab-sweep"

    def __init__(self, vocabs: int = 100, n: int = 3, verify_len: int = 6):
        self.vocabs = vocabs
        self.n = n
        self.verify_len = verify_len

    def setup(self, tr, rng) -> SweepState:
        cases = []
        for i in range(self.vocabs):
            labels, texts = random_open_vocab(rng, i)
            vocab = tk.Vocab.from_texts(tk.Alphabet(tuple(labels)), [(s, s) for s in texts])
            cases.append(
                SweepCase(
                    vocab,
                    munch_tokenizer(tr, vocab, self.n),
                    build_transducer(tr, vocab),
                    [ref.parse(tuple(labels), s) for s in texts],
                )
            )
        return SweepState(cases)

    def ops(self, state: SweepState, rng) -> list[int]:
        return list(range(len(state.cases)))

    def run(self, tr, state: SweepState, i: int) -> dict:
        case = state.cases[i]
        t = case.tokenizer
        texts = strings(tr, t.char_space.alphabet, t.char_space.max_len)
        return {
            "texts": texts,
            "is_exact": tr.call("tokenizer.is_exact", tk.is_exact, t),
            "classify": tr.call("tokenizer.classify", tk.classify, t),
            "eligibility": tr.call("tokenizer.eligibility", tk.decoder_eligibility, t),
            "preimages": [preimages(tr, t, s) for s in texts],
            "equivalent": equivalent_on(tr, case.machine, case.vocab, self.verify_len),
        }

    def check(self, state: SweepState, i: int, out: dict) -> list[str]:
        case = state.cases[i]
        texts = out["texts"]
        problems = _check_verdicts(
            {
                "is_exact": out["is_exact"],
                **_classification(out["classify"]),
                "eligibility": out["eligibility"],
                "equivalent_on": out["equivalent"],
            }
        )
        if len(texts) != space_size(len(case.vocab.sigma), self.n):
            problems.append(f"{len(texts)} texts enumerated")
        problems += _check_encoder(case.tokenizer, case.spellings, texts)
        problems += _check_preimages(case.spellings, texts, out["preimages"])
        return [f"vocab {i}: {p}" for p in problems]


def random_pstar(rng, labels: tuple[str, ...], max_len: int, size: int = 40, total: int = 200) -> dict:
    """Random masses k/total on `size` random strings.

    The fixed total keeps the common denominator, and with it the cost of
    each draw in `dist.sample`, the same from seed to seed.
    """
    pool = [s for n in range(max_len + 1) for s in product(range(len(labels)), repeat=n)]
    support = rng.sample(pool, size)
    cuts = sorted(rng.sample(range(1, total), size - 1))
    counts = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
    return {s: Fraction(k, total) for s, k in zip(support, counts)}


def _read_pstar(path: Path, labels: tuple[str, ...]) -> dict:
    return {ref.parse(labels, e["string"]): Fraction(e["prob"]) for e in _read_json(path)}


@dataclass
class Pair:
    tokenizer: tk.Tokenizer
    p_star: tk.Dist
    mass: dict  # p_star as the reference sees it
    roundtrip: dict | None  # decode(encode(x)) for each x; None for an exact tokenizer
    bias: Fraction


@dataclass
class EstimateState:
    pairs: list[Pair]

    def built(self):
        return [(p.tokenizer.encoder, p.tokenizer.decoder, p.p_star) for p in self.pairs]


# Ops on the two random 40-string p* cost about 1.5 times those on the
# small p* files. Running the file pairs twice as often keeps the median and
# the 90th percentile inside a cluster of op costs, not on a boundary.
PAIR_CYCLE = (0, 3, 1, 0, 3, 2)


class Estimate:
    """run_estimation over four (tokenizer, p*) pairs; reads tables, builds none per op."""

    name = "estimate"

    def __init__(self, ops: int = 100, n: int = 5):
        self.count = ops
        self.n = n

    def setup(self, tr, rng) -> EstimateState:
        bundle = load_munch_spec(tr, THE_SPEC, self.n)
        munch = bundle.tokenizer
        labels = munch.char_space.alphabet.labels
        the_mass = _read_pstar(THE_PSTAR, labels)
        the_pstar = tr.call("cli.load_dist", cli.load_dist, str(THE_PSTAR), munch.char_space)
        rand_mass = random_pstar(rng, labels, self.n)
        rand_pstar = tk.Dist(
            munch.char_space,
            {tk.Str(munch.char_space.alphabet, s): m for s, m in rand_mass.items()},
        )
        uniform = uniform_tokenizer(tr, bundle.vocab, self.n)
        fig1 = tr.call("cli.load_spec", cli.load_spec, str(FIG1_SPEC), 1).tokenizer
        fig1_labels = fig1.char_space.alphabet.labels
        fig1_pstar = tr.call("cli.load_dist", cli.load_dist, str(FIG1_PSTAR), fig1.char_space)
        return EstimateState(
            [
                Pair(munch, the_pstar, the_mass, None, Fraction(0)),
                Pair(munch, rand_pstar, rand_mass, None, Fraction(0)),
                Pair(uniform, rand_pstar, rand_mass, None, Fraction(0)),
                Pair(fig1, fig1_pstar, _read_pstar(FIG1_PSTAR, fig1_labels), FIG1_ROUNDTRIP,
                     FIG1_BIAS),
            ]
        )

    def ops(self, state: EstimateState, rng) -> list[tuple[int, int]]:
        return [(PAIR_CYCLE[i % len(PAIR_CYCLE)], rng.getrandbits(31)) for i in range(self.count)]

    def run(self, tr, state: EstimateState, op: tuple[int, int]) -> tk.SimSummary:
        pair, seed = op
        p = state.pairs[pair]
        return run_estimation(tr, p.tokenizer, p.p_star, seed)

    def check(self, state: EstimateState, op: tuple[int, int], out: tk.SimSummary) -> list[str]:
        pair, seed = op
        p = state.pairs[pair]
        problems = []
        if [n for n, _ in out.trace.steps] != list(SCHEDULE) or len(out.tvs) != len(SCHEDULE):
            problems.append("schedule not followed")
        for n, got in zip(SCHEDULE, out.tvs):
            decoded = ref.push(ref.draw_counts(p.mass, seed ^ n, n), p.roundtrip)
            want = ref.tv({s: Fraction(c, n) for s, c in decoded.items()}, p.mass)
            if got != want:
                problems.append(f"tv at {n} is {got}, expected {want}")
        if out.bias != p.bias:
            problems.append(f"bias {out.bias}, expected {p.bias}")
        return [f"pair {pair} seed {seed}: {x}" for x in problems]


WORKLOADS = {w.name: w for w in (TheN7, VocabSweep, Estimate)}
