"""Shared constructions for the test suite: fixtures' guts and random generators."""

import math
import random
from fractions import Fraction

import tokcheck as tk
from tokcheck.dist import random_dist
from tokcheck.errors import (
    MissingBaseCharacter,
    NoMatchingPrefix,
    ParseError,
    SpaceMismatch,
    VocabNotOpen,
)


def dist_from(space, items):
    """Build a Dist from {rendered string: mass} with parsed keys."""
    return tk.Dist(
        space, {tk.parse_str(space.alphabet, text): Fraction(m) for text, m in items.items()}
    )


def table_map(dom_space, cod_space, rows):
    """Build a StochMap from {input: output} or {input: {output: mass}} rendered labels."""
    kernel = {}
    for text, out in rows.items():
        x = tk.parse_str(dom_space.alphabet, text)
        if isinstance(out, str):
            kernel[x] = tk.point_mass(tk.parse_str(cod_space.alphabet, out), cod_space)
        else:
            kernel[x] = dist_from(cod_space, out)
    return tk.StochMap(dom_space, cod_space, kernel)


def fig1_pieces():
    """The inconsistent two-arrow table tokenizer over abstract points, with its p*."""
    sigma = tk.Alphabet(("s1", "s2", "s3"))
    delta = tk.Alphabet(("d1", "d2", "d3"), tk.TOKENS)
    cs, ts = tk.Space(sigma, 1), tk.Space(delta, 1)
    encoder = table_map(cs, ts, {"ε": "ε", "s1": "d1", "s2": "d3", "s3": "d3"})
    decoder = table_map(ts, cs, {"ε": "ε", "d1": "s2", "d2": "s2", "d3": "s3"})
    p_star = dist_from(cs, {"s1": "1/5", "s2": "2/5", "s3": "2/5"})
    return tk.Tokenizer(encoder, decoder), p_star


def swap_pieces():
    """A tokenizer whose round trip transposes two points: consistent for equal masses, not exact."""
    sigma = tk.Alphabet(("x1", "x2", "x3"))
    delta = tk.Alphabet(("y1", "y2", "y3"), tk.TOKENS)
    cs, ts = tk.Space(sigma, 1), tk.Space(delta, 1)
    encoder = table_map(cs, ts, {"ε": "ε", "x1": "y1", "x2": "y2", "x3": "y3"})
    decoder = table_map(ts, cs, {"ε": "ε", "y1": "x2", "y2": "x1", "y3": "x3"})
    p_equal = dist_from(cs, {"x1": "1/4", "x2": "1/4", "x3": "1/2"})
    return tk.Tokenizer(encoder, decoder), p_equal


def the_vocab():
    """The five-token vocabulary over {t, h, e} used throughout."""
    sigma = tk.Alphabet(("t", "h", "e"))
    return tk.Vocab.from_texts(
        sigma, [("t", "t"), ("h", "h"), ("e", "e"), ("th", "th"), ("he", "he")]
    )


def random_map(dom_space, cod_space, rng, max_support=4):
    kernel = {x: random_dist(cod_space, rng, max_support) for x in dom_space.strings()}
    return tk.StochMap(dom_space, cod_space, kernel)


def random_open_vocab(rng, max_sigma=3, max_spelling=3, max_extras=3):
    """A random open vocabulary: all single characters plus a few longer spellings."""
    k = rng.randint(1, max_sigma)
    labels = tuple("abcd"[:k])
    sigma = tk.Alphabet(labels)
    entries = [(lab, lab) for lab in labels]
    seen = {(i,) for i in range(k)}
    for _ in range(rng.randint(0, max_extras)):
        length = rng.randint(2, max_spelling)
        syms = tuple(rng.randrange(k) for _ in range(length))
        if syms in seen:
            continue
        seen.add(syms)
        text = "".join(labels[i] for i in syms)
        entries.append((text, text))
    return tk.Vocab.from_texts(sigma, entries)


def corrupt_first_unit_row(t):
    """Redirect the decoder row at the encoding of the first length-1 text."""
    first = min((s for s in t.char_space.strings() if len(s) == 1), key=tk.Str.sort_key)
    target = t.encoder.values[first]
    wrong = next(s for s in t.decoder.cod_space.strings() if s != first)
    kernel = dict(t.decoder.kernel)
    kernel[target] = tk.point_mass(wrong, t.decoder.cod_space)
    return tk.Tokenizer(t.encoder, tk.StochMap(t.decoder.dom_space, t.decoder.cod_space, kernel))


def oracle_greedy_encode(vocab, sigma, unk_token=None):
    """Greedy longest match by scanning every vocab entry at each position."""
    unk_index = None if unk_token is None else vocab.delta.index(unk_token)
    text = sigma.syms
    out = []
    pos = 0
    while pos < len(text):
        best, best_len = None, 0
        for j, (_, sp) in enumerate(vocab.entries):
            n = len(sp.syms)
            if n > best_len and text[pos : pos + n] == sp.syms:
                best, best_len = j, n
        if best is None:
            if unk_index is None:
                raise NoMatchingPrefix(pos)
            out.append(unk_index)
            pos += 1
        else:
            out.append(best)
            pos += best_len
    return tk.Str(vocab.delta, out)


def oracle_munch_encoder(vocab, max_len, unk_token=None, out_max_len=None):
    """The greedy encoder tabulated eagerly: `maximal_munch_encode` on every text of the space."""
    char_space = tk.Space(vocab.sigma, max_len)
    token_space = tk.Space(vocab.delta, max_len if out_max_len is None else out_max_len)
    encode = lambda s: tk.maximal_munch_encode(vocab, s, unk_token)
    return tk.materialize(encode, char_space, token_space)


def oracle_bpe_encoder(vocab, merges, max_len, out_max_len=None):
    """The merge-based encoder tabulated eagerly: `bpe_encode` on every text of the space."""
    char_space = tk.Space(vocab.sigma, max_len)
    token_space = tk.Space(vocab.delta, max_len if out_max_len is None else out_max_len)
    return tk.materialize(lambda s: tk.bpe_encode(vocab, merges, s), char_space, token_space)


def oracle_uniform_encoder(vocab, max_len, out_max_len=None):
    """The uniform encoder tabulated eagerly: `uniform_segmenter` on every text of the space."""
    char_space = tk.Space(vocab.sigma, max_len)
    token_space = tk.Space(vocab.delta, max_len if out_max_len is None else out_max_len)
    return tk.materialize(lambda s: tk.uniform_segmenter(vocab, s), char_space, token_space)


def oracle_longest_match(vocab, syms, pos=0):
    """Longest match by probing every length from the longest spelling down to 1."""
    for n in range(min(vocab.max_spelling_len, len(syms) - pos), 0, -1):
        j = vocab.token_by_spelling(syms[pos : pos + n])
        if j is not None:
            return j
    return None


def greedy_outcome(encode, *args):
    """An encoding, or the position a NoMatchingPrefix reports."""
    try:
        return encode(*args)
    except NoMatchingPrefix as exc:
        return ("no match", exc.position)


def oracle_parse_str(alphabet, text):
    """Greedy label parse of "|"-free text by scanning every label at each position."""
    if text in ("", "ε"):
        return tk.Str(alphabet, ())
    syms = []
    pos = 0
    while pos < len(text):
        best = None
        for i, lab in enumerate(alphabet.labels):
            if text.startswith(lab, pos) and (best is None or len(lab) > len(alphabet.labels[best])):
                best = i
        if best is None:
            raise ParseError(f"cannot parse {text!r}: no label matches at position {pos}")
        syms.append(best)
        pos += len(alphabet.labels[best])
    return tk.Str(alphabet, syms)


def tabulated_twin(spellings, dom_space, cod_space):
    """The table map sending each token sequence to its concatenated spellings, every row stored."""

    def concatenate(delta):
        return tk.Str(cod_space.alphabet, [c for j in delta.syms for c in spellings[j].syms])

    return tk.materialize(concatenate, dom_space, cod_space)


def oracle_values(decoder):
    """Point values of a deterministic map, or None if any row is stochastic."""
    if any(len(row.mass) != 1 for row in decoder.kernel.values()):
        return None
    return {x: next(iter(row.mass)) for x, row in decoder.kernel.items()}


def oracle_multiplicative(decoder, short_truncations=False):
    """Brute-force multiplicativity: every (left, right) pair in canonical order.

    Below a truncation of 2 the verdict is not applicable, as `classify`
    reports it, unless short_truncations asks for the pairs to be checked
    there too, as eligibility does.
    """
    values = oracle_values(decoder)
    if values is None:
        return tk.Verdict.not_applicable("decoder is stochastic")
    m = decoder.dom_space.max_len
    if m < 2 and not short_truncations:
        return tk.Verdict.not_applicable("truncation admits no nonempty concatenation")
    alpha = decoder.dom_space.alphabet
    for left in tk.enumerate_strings(alpha, m):
        for right in tk.enumerate_strings(alpha, m - len(left)):
            if values[tk.concat(left, right)] != tk.concat(values[left], values[right]):
                return tk.Verdict.failed((left, right))
    return tk.Verdict.passed()


def oracle_prefix_monotone(decoder):
    """Brute-force prefix monotonicity: every (prefix, string) pair in canonical order."""
    values = oracle_values(decoder)
    if values is None:
        return tk.Verdict.not_applicable("decoder is stochastic")
    for delta in decoder.dom_space.strings():
        for i in range(len(delta)):
            prefix = tk.Str(delta.alphabet, delta.syms[:i])
            if not tk.is_prefix(values[prefix], values[delta]):
                return tk.Verdict.failed((prefix, delta))
    return tk.Verdict.passed()


def oracle_eligibility(decoder):
    """Deterministic, multiplicative and no token in the domain decoding to the empty string.

    Every truncation is decided: below 2, multiplicativity is f(ε) = ε.
    """
    if oracle_values(decoder) is None:
        return tk.Verdict.failed(None, "decoder is stochastic")
    mult = oracle_multiplicative(decoder, short_truncations=True)
    if not mult:
        return tk.Verdict.failed(mult.witness, f"multiplicativity: {mult.describe()}")
    alpha = decoder.dom_space.alphabet
    for i in range(len(alpha) if decoder.dom_space.max_len else 0):
        token = tk.Str(alpha, (i,))
        if len(decoder.values[token]) == 0:
            note = "trivial kernel: false, witness " + token.render()
            return tk.Verdict.failed(token, note + ", token decodes to the empty string")
    return tk.Verdict.passed()


def oracle_random_dist(space, rng, max_support=6):
    """The random distribution drawn by sampling the listed strings of the space."""
    pool = list(space.strings())
    k = rng.randint(1, min(max_support, len(pool)))
    support = rng.sample(pool, k)
    weights = [rng.randint(1, 9) for _ in support]
    total = sum(weights)
    return tk.Dist(space, {s: Fraction(w, total) for s, w in zip(support, weights)})


def oracle_pushforward(f, p):
    """Pushforward through every kernel row, the result checked again as a new `Dist`."""
    if p.space != f.dom_space:
        raise SpaceMismatch("distribution does not live over the map's domain")
    acc = {}
    for x, px in p.mass.items():
        for y, pyx in f.kernel[x].mass.items():
            acc[y] = acc.get(y, Fraction(0)) + px * pyx
    return tk.Dist(f.cod_space, acc)


def oracle_is_exact(t):
    """Exactness by summing the full round-trip row at every domain string."""
    for sigma in t.char_space.strings():
        row = {}
        for delta, pd in t.encoder.kernel[sigma].mass.items():
            for out, po in t.decoder.kernel[delta].mass.items():
                row[out] = row.get(out, Fraction(0)) + pd * po
        if row != {sigma: Fraction(1)}:
            return tk.Verdict.failed(sigma)
    return tk.Verdict.passed()


def oracle_probe(t, trials=100, seed=0):
    """The exactness/consistency probe that also pushes every point mass through the round trip."""
    exact = oracle_is_exact(t)
    space = t.char_space
    if exact:
        rng = random.Random(seed)
        for _ in range(trials):
            p = oracle_random_dist(space, rng)
            v = tk.is_consistent_wrt(t, p)
            if not v:
                return tk.ProbeReport(True, trials, False, p, "random distribution not preserved")
        for x in space.strings():
            v = tk.is_consistent_wrt(t, tk.point_mass(x, space))
            if not v:
                return tk.ProbeReport(True, trials, False, x, "point mass not preserved")
        return tk.ProbeReport(True, trials, True)
    sigma = exact.witness
    inconsistent = not tk.is_consistent_wrt(t, tk.point_mass(sigma, space))
    return tk.ProbeReport(False, 0, inconsistent, sigma)


def oracle_marginalize(t, q, sigma):
    """Marginal mass of sigma as the sum of q over its preimages."""
    if q.space != t.token_space:
        raise SpaceMismatch("distribution must live over the token space")
    return sum((q.mass_of(delta) for delta in tk.preimages(t, sigma)), Fraction(0))


def oracle_equivalent_on(t, encode, max_len):
    """Transducer against a direct encoder by a full `run` of every input in canonical order."""
    for gamma in tk.enumerate_strings(t.input_alphabet, max_len):
        got = tk.run(t, gamma)
        want = encode(gamma)
        if got != want:
            return tk.Verdict.failed((gamma, got, want))
    return tk.Verdict.passed()


def oracle_sample(p, seed, n):
    """Inverse-CDF sampling by a hand-written binary search over the cumulative counts."""
    support = p.support()
    denom = math.lcm(*(p.mass[s].denominator for s in support))
    cuts = []
    acc = 0
    for s in support:
        acc += int(p.mass[s] * denom)
        cuts.append(acc)
    rng = random.Random(seed)
    draws = []
    for _ in range(n):
        r = rng.randrange(denom)
        lo, hi = 0, len(cuts) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if r < cuts[mid]:
                hi = mid
            else:
                lo = mid + 1
        draws.append(support[lo])
    return draws


def oracle_run_estimation(t, p_star, schedule, seed=0):
    """Every step sampled in full: sample, empirical, encoder and decoder pushforwards, TV.

    The bias pushes p_star through both maps.
    """
    target = p_star.embedded(t.decoder.cod_space)
    steps, tvs = [], []
    for n in schedule:
        estimate = tk.empirical(tk.sample(p_star, seed ^ n, n), p_star.space)
        decoded = tk.pushforward(t.decoder, tk.pushforward(t.encoder, estimate))
        steps.append((n, decoded))
        tvs.append(tk.tv_distance(decoded, target))
    decoded = tk.pushforward(t.decoder, tk.pushforward(t.encoder, p_star))
    return tk.SimSummary(
        tk.EstimatorTrace(tuple(steps), target),
        tuple(tvs),
        tk.tv_distance(decoded, target),
        tk.sim.CONVERGENCE_TOLERANCE,
    )


def oracle_factorizations(target, pieces, max_parts):
    """Factorizations by a depth-first walk over the piece list, sorted into canonical order."""
    found = []
    stack = []

    def walk(pos):
        if pos == len(target):
            found.append(tuple(stack))
            return
        if len(stack) >= max_parts:
            return
        for j, piece in enumerate(pieces):
            if target[pos : pos + len(piece)] == piece:
                stack.append(j)
                walk(pos + len(piece))
                stack.pop()

    walk(0)
    found.sort(key=lambda parts: (len(parts), parts))
    return found


def oracle_is_injective(f):
    """Injectivity by a first pass that detects a collision and a scan of every pair of rows."""
    first_hit = {}
    collided = False
    for x, row in f.rows():
        for y in row.mass:
            if y in first_hit and first_hit[y] != x:
                collided = True
                break
            first_hit[y] = x
        if collided:
            break
    if not collided:
        return tk.Verdict.passed()
    ordered = [x for x, _ in f.rows()]
    supports = {x: frozenset(f.kernel[x].mass) for x in ordered}
    for i, x in enumerate(ordered):
        for xp in ordered[i + 1 :]:
            overlap = supports[x] & supports[xp]
            if overlap:
                return tk.Verdict.failed((x, xp, min(overlap, key=tk.Str.sort_key)))
    raise AssertionError("collision detected but no witness found")


def oracle_bpe_encode(vocab, merges, sigma):
    """Merge-based encoding that repeats each merge's pass until it changes nothing."""
    seq = []
    for c in sigma.syms:
        j = vocab.token_by_spelling((c,))
        if j is None:
            raise MissingBaseCharacter(
                f"character {vocab.sigma.labels[c]!r} has no single-character vocab entry"
            )
        seq.append(j)
    for left, right in merges.pairs:
        left_j = vocab.token_by_spelling(left.syms)
        right_j = vocab.token_by_spelling(right.syms)
        merged = vocab.token_by_spelling(left.syms + right.syms)
        while True:
            out = []
            i = 0
            changed = False
            while i < len(seq):
                if i + 1 < len(seq) and seq[i] == left_j and seq[i + 1] == right_j:
                    out.append(merged)
                    i += 2
                    changed = True
                else:
                    out.append(seq[i])
                    i += 1
            seq = out
            if not changed:
                break
    return tk.Str(vocab.delta, seq)


def oracle_build_maximal_munch_transducer(vocab):
    """The greedy transducer with its states found by a worklist from the empty buffer."""
    if not vocab.is_open:
        raise VocabNotOpen("the transducer construction needs an open vocabulary")
    sigma, delta = vocab.sigma, vocab.delta
    strict_prefixes = {()}
    for _, sp in vocab.entries:
        for i in range(1, len(sp.syms)):
            strict_prefixes.add(sp.syms[:i])

    def settle(buf):
        emitted = []
        while buf not in strict_prefixes:
            j = oracle_longest_match(vocab, buf)
            emitted.append(j)
            buf = buf[len(vocab.spelling(j)) :]
        return buf, emitted

    def name(buf):
        return "·".join(sigma.labels[i] for i in buf) if buf else "ε"

    states = [()]
    seen = {()}
    next_state, output = {}, {}
    pos = 0
    while pos < len(states):
        buf = states[pos]
        pos += 1
        for a in range(len(sigma)):
            new_buf, emitted = settle(buf + (a,))
            if new_buf not in seen:
                seen.add(new_buf)
                states.append(new_buf)
            next_state[(name(buf), a)] = name(new_buf)
            output[(name(buf), a)] = tk.Str(delta, emitted)
    terminal = {name(buf): oracle_greedy_encode(vocab, tk.Str(sigma, buf)) for buf in states}
    names = tuple(name(buf) for buf in states)
    if len(set(names)) != len(names):
        raise ValueError("buffer names collide; use distinct character labels")
    return tk.SubseqTransducer(
        states=names,
        input_alphabet=sigma,
        output_alphabet=delta,
        initial="ε",
        next_state=next_state,
        output=output,
        terminal=terminal,
    )
