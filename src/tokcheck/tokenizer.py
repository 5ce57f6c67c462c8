"""Tokenizer pairs and their soundness checkers.

A tokenizer is an encoder/decoder pair of stochastic maps between a
character space and a token space. The checkers here decide, with exact
arithmetic over the truncated spaces: consistency with respect to a
distribution, exactness, structural classification (determinism,
bijectivity, multiplicativity, trivial kernel, prefix monotonicity),
preimage enumeration with its finiteness bound, marginalization, spurious
ambiguity mass, and the bounded-variation probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Sequence

from .dist import Dist
from .errors import (
    AlphabetMismatch,
    DecoderNotEligible,
    EncoderNotDeterministic,
    NotDeterministic,
    OutOfTruncation,
    SpaceMismatch,
)
from .reports import ClassificationReport, ProbeReport, Verdict
from .stochmap import StochMap, is_deterministic, pushforward
from .strings import Str, concat, enumerate_strings, factorizations, is_prefix, left_distance


@dataclass(frozen=True, eq=False)
class Tokenizer:
    """An encoder from texts to token sequences paired with a decoder back."""

    encoder: StochMap
    decoder: StochMap

    def __post_init__(self):
        if self.encoder.cod_space != self.decoder.dom_space:
            raise SpaceMismatch("encoder codomain must equal decoder domain")
        if self.decoder.cod_space.alphabet != self.encoder.dom_space.alphabet:
            raise SpaceMismatch("decoder must map back to the encoder's character alphabet")
        if self.decoder.cod_space.max_len < self.encoder.dom_space.max_len:
            raise SpaceMismatch("decoder output truncation must cover the encoder domain")

    @property
    def char_space(self):
        return self.encoder.dom_space

    @property
    def token_space(self):
        return self.encoder.cod_space


def _exact_by_construction(t: Tokenizer) -> bool:
    """Whether the encoder is a section of the decoder's homomorphism.

    The encoder records the spelling list whose homomorphism sends every
    atom of each of its rows back to the text, and a decoder built from the
    same spellings is that homomorphism on every atom.
    """
    section_of = t.encoder.section_of
    return section_of is not None and section_of == t.decoder.spellings


def is_exact(t: Tokenizer) -> Verdict:
    """True iff decode after encode is the identity on every domain string.

    The encoder's rows run in canonical order, so the walk stops at the
    first failing string, the witness. An encoder that is a section of the
    decoder's homomorphism passes without reading a row. When both maps are
    deterministic, the symbols each encoder value decodes to are compared
    with those of its text, building no row; the Tokenizer constructor
    guarantees that every value lies in the decoder's domain and every text
    in its codomain. Otherwise each encoder row is pushed through the
    decoder in full.
    """
    if _exact_by_construction(t):
        return Verdict.passed()
    values, decoded = t.encoder.values, t.decoder.values
    if values is not None and decoded is not None:
        image = decoded.image
        failing = (sigma for sigma, delta in values.items() if image(delta) != sigma.syms)
    else:
        rows = t.encoder.rows()
        failing = (s for s, row in rows if pushforward(t.decoder, row).mass != {s: Fraction(1)})
    witness = next(failing, None)
    return Verdict.passed() if witness is None else Verdict.failed(witness)


def is_consistent_wrt(t: Tokenizer, p: Dist) -> Verdict:
    """True iff pushing p through encode-then-decode returns p exactly.

    The witness is the first string, in canonical order, where the two
    distributions disagree, together with both masses.
    """
    if p.space != t.char_space:
        raise SpaceMismatch("distribution must live over the encoder's domain space")
    r = pushforward(t.decoder, pushforward(t.encoder, p))
    for x in sorted(r.mass.keys() | p.mass.keys(), key=Str.sort_key):
        got, want = r.mass_of(x), p.mass_of(x)
        if got != want:
            return Verdict.failed((x, got, want))
    return Verdict.passed()


def exact_iff_all_consistent_probe(t: Tokenizer, trials: int = 100, seed: int = 0) -> ProbeReport:
    """Probe the equivalence between exactness and universal consistency.

    Consistency with the point mass on x holds iff the round-trip row at x
    is that point mass, so `is_exact` decides every point mass, and by the
    linearity of pushforward every distribution. So an exact tokenizer is
    reported consistent on `trials` random distributions without pushing
    any through either map, and `seed`, which would draw them, is accepted
    but not read. If the tokenizer is not exact, `is_exact`'s witness is the
    first string the round trip moves, so the point mass on it is
    inconsistent without pushing it through either map. A negative `trials`
    raises ValueError.
    """
    if trials < 0:
        raise ValueError("trials must be >= 0")
    exact = is_exact(t)
    if exact:
        return ProbeReport(True, trials, True)
    return ProbeReport(False, 0, True, exact.witness)


def _token_images(decoder: StochMap) -> Sequence[Str]:
    """The decoded value of each one-token sequence of a deterministic decoder, in token order."""
    if decoder.spellings is not None:
        return decoder.spellings
    alpha = decoder.dom_space.alphabet
    return [decoder.values[Str(alpha, (i,))] for i in range(len(alpha))]


def _multiplicative_verdict(decoder: StochMap) -> Verdict:
    """Whether f(u·v) = f(u)·f(v) for every pair with |u| + |v| <= m, at every m.

    A decoder built from spellings is a homomorphism, so this holds by
    construction. For a table decoder only left factors of length at most 1
    are checked, one pair per row: the ε row gives (ε, ε), which fails iff
    f(ε) ≠ ε, and each row a·w gives (a, w). These checks imply every pair,
    by induction on the length of the left factor:
    f(a·u·v) = f(a)·f(u·v) = f(a)·f(u)·f(v) = f(a·u)·f(v).
    So if any pair fails, a pair with a left factor of length at most 1
    fails too, and all such pairs come before every longer left factor in
    canonical pair order (left, then right, each by length and then
    lexicographically). The witness, the first failing checked pair in that
    order, is therefore the first (left, right) pair a full scan would
    report. Values are compared as symbol tuples, and only the rows that
    can be factors, those of length below max(m, 2), are indexed by them.
    Below m = 2 the only pairs are (ε, x) and (x, ε), so the property is
    f(ε) = ε; `classify` reports it as not applicable there.
    """
    values = decoder.values
    if values is None:
        return Verdict.not_applicable("decoder is stochastic")
    if decoder.spellings is not None:
        return Verdict.passed()
    m = max(decoder.dom_space.max_len, 2)
    short = {x.syms: y.syms for x, y in values.items() if len(x) < m}
    failed = [x.syms for x, y in values.items() if y.syms != short[x.syms[:1]] + short[x.syms[1:]]]
    if not failed:
        return Verdict.passed()
    first = min(failed, key=lambda d: (d[:1], len(d), d))
    alpha = decoder.dom_space.alphabet
    return Verdict.failed((Str(alpha, first[:1]), Str(alpha, first[1:])))


def _trivial_kernel_verdict(decoder: StochMap) -> Verdict:
    if decoder.values is None:
        return Verdict.not_applicable("decoder is stochastic")
    if decoder.dom_space.max_len == 0:
        return Verdict.not_applicable("truncation admits no token")
    alpha = decoder.dom_space.alphabet
    for i, image in enumerate(_token_images(decoder)):
        if len(image) == 0:
            return Verdict.failed(Str(alpha, (i,)), "token decodes to the empty string")
    return Verdict.passed()


def _prefix_monotone_verdict(decoder: StochMap) -> Verdict:
    values = decoder.values
    if values is None:
        return Verdict.not_applicable("decoder is stochastic")
    alpha = decoder.dom_space.alphabet
    for delta, out in values.items():
        for i in range(len(delta)):
            prefix = Str(alpha, delta.syms[:i])
            if not is_prefix(values[prefix], out):
                return Verdict.failed((prefix, delta))
    return Verdict.passed()


def classify(t: Tokenizer) -> ClassificationReport:
    """Structural report: determinism, bijectivity, multiplicativity, kernel, monotonicity."""
    det_enc = is_deterministic(t.encoder)
    det_dec = is_deterministic(t.decoder)
    exact = is_exact(t)
    if det_enc and exact:
        bijective = Verdict.passed()
    elif not det_enc:
        bijective = Verdict.failed(det_enc.witness, "encoder is stochastic")
    else:
        bijective = Verdict.failed(exact.witness, "not exact")
    multiplicative = _multiplicative_verdict(t.decoder)
    if multiplicative.applicable and t.decoder.dom_space.max_len < 2:
        multiplicative = Verdict.not_applicable("truncation admits no nonempty concatenation")
    # f(δ) = f(prefix)·f(rest) makes every multiplicative decoder prefix monotone
    prefix_monotone = (
        Verdict.passed() if multiplicative else _prefix_monotone_verdict(t.decoder)
    )
    return ClassificationReport(
        deterministic_encoder=det_enc,
        deterministic_decoder=det_dec,
        bijective=bijective,
        multiplicative_decoder=multiplicative,
        trivial_kernel=_trivial_kernel_verdict(t.decoder),
        prefix_monotone=prefix_monotone,
    )


def decoder_eligibility(t: Tokenizer) -> Verdict:
    """Eligibility of the decoder for preimage enumeration.

    Requires a deterministic decoder that is multiplicative with a trivial
    kernel over its truncated domain, at every truncation: below m = 2
    that means f(ε) = ε and no token in the domain decodes to ε. A decoder
    built from spellings is a homomorphism, so it is eligible once no
    spelling is empty, and only a failing verdict is built in full. A
    table decoder is decided from its values on every call.
    """
    decoder = t.decoder
    spellings = decoder.spellings
    if spellings is not None and all(sp.syms for sp in spellings):
        return Verdict.passed()
    if decoder.values is None:
        return Verdict.failed(None, "decoder is stochastic")
    mult = _multiplicative_verdict(decoder)
    if not mult:
        return Verdict.failed(mult.witness, f"multiplicativity: {mult.describe()}")
    triv = _trivial_kernel_verdict(decoder)
    if triv.ok is False:  # not applicable only at m = 0, where no token is in the domain
        return Verdict.failed(triv.witness, f"trivial kernel: {triv.describe()}")
    return Verdict.passed()


def require_eligible_decoder(t: Tokenizer) -> None:
    """Raise `DecoderNotEligible` unless the decoder is eligible for preimage queries."""
    verdict = decoder_eligibility(t)
    if not verdict:
        raise DecoderNotEligible(verdict.note or "decoder not eligible")


def _require_preimage_query(t: Tokenizer, sigma: Str) -> None:
    """Raise unless the decoder is eligible and sigma is a text of the character space.

    A text longer than the character truncation lies outside the spaces the
    tokenizer is defined on, and the token truncation may cut off some of its
    preimages, so it is refused rather than answered in part.
    """
    require_eligible_decoder(t)
    alphabet = t.char_space.alphabet
    if not (sigma.alphabet is alphabet or sigma.alphabet == alphabet):
        raise AlphabetMismatch("input text is not over the decoder's output alphabet")
    t.char_space.require(sigma)


def preimages(t: Tokenizer, sigma: Str) -> list[Str]:
    """All token sequences in the decoder's domain that decode to sigma.

    One `factorizations` walk over the decoder's token spellings, which may
    repeat. Eligibility of the decoder guarantees every preimage is at most
    |sigma| tokens long, so the search is complete within the truncation.
    Results in canonical order.
    """
    _require_preimage_query(t, sigma)
    max_tokens = min(len(sigma), t.token_space.max_len)
    # a table decoder's token images exist only where its domain holds tokens
    pieces = [s.syms for s in _token_images(t.decoder)] if max_tokens else []
    token_alpha = t.token_space.alphabet
    return [
        Str._wrap(token_alpha, parts) for parts in factorizations(sigma.syms, pieces, max_tokens)
    ]


def preimage_bound(n: int, vocab_size: int) -> int:
    """Upper bound on the number of preimages of a length-n text: sum of |vocab|^i, i=1..n.

    The empty text is not covered by the bound (its only preimage under an
    eligible decoder is the empty token sequence). The geometric sum is
    taken in closed form.
    """
    if n < 0:
        raise ValueError("length must be >= 0")
    if vocab_size == 1:
        return n
    return vocab_size * (vocab_size**n - 1) // (vocab_size - 1)


def marginalize(t: Tokenizer, q: Dist, sigma: Str) -> Fraction:
    """Total mass q places on token sequences decoding to sigma.

    Under an eligible decoder those sequences are sigma's preimages, and
    every one of them in q's support lies in the token space, so the mass is
    the sum of q over the atoms of its support that decode to sigma. For the
    empty text that is q(ε) alone, since a trivial kernel decodes only ε to
    ε. An eligible decoder is deterministic, so the symbols each atom
    decodes to are compared with sigma's: q lives over the token space,
    which is the decoder's domain, and sigma lies in the character space,
    which the decoder's codomain covers, so neither needs checking per atom.
    """
    if q.space != t.token_space:
        raise SpaceMismatch("distribution must live over the token space")
    _require_preimage_query(t, sigma)
    image, syms = t.decoder.values.image, sigma.syms
    return sum((m for delta, m in q.mass.items() if image(delta) == syms), Fraction(0))


def spurious_ambiguity_mass(t: Tokenizer, q: Dist) -> Fraction:
    """Mass q places outside the image of a deterministic encoder.

    An atom outside the image is spurious only if its text lies in the
    character space. A text past the character truncation may well encode
    to that atom, but the truncated encoder does not say, so such an atom is
    refused with `OutOfTruncation`, as `preimages` refuses such a text; the
    first one in canonical order is named. When the encoder is a section of
    the decoder's homomorphism, an atom is in the image exactly when it
    decodes into the character space and its text encodes back to it, so
    only the rows of q's support are read.
    """
    if not is_deterministic(t.encoder):
        raise EncoderNotDeterministic("spurious ambiguity is defined for deterministic encoders")
    if q.space != t.token_space:
        raise SpaceMismatch("distribution must live over the token space")
    values = t.encoder.values
    if _exact_by_construction(t):
        decoded = t.decoder.values
        outside = [
            delta
            for delta in q.support()
            if (text := decoded[delta]) not in t.char_space or values[text] != delta
        ]
    else:
        image = set(values.values())
        outside = [delta for delta in q.support() if delta not in image]
    for delta in outside:
        for text in t.decoder.kernel[delta].mass:
            if text not in t.char_space:
                raise OutOfTruncation(
                    f"{delta!r} decodes to {text!r}, of length {len(text)} > truncation "
                    f"{t.char_space.max_len}"
                )
    return sum((q.mass[delta] for delta in outside), Fraction(0))


def bounded_variation_probe(f: StochMap, k: int) -> tuple[int, tuple[Str, Str]]:
    """Largest output distance over all domain pairs within input distance k.

    Exhaustive at desk scale: pairs are enumerated as a shared prefix plus
    two suffixes of total length at most k that diverge immediately, which
    covers each qualifying pair exactly once.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if f.values is None:
        raise NotDeterministic("bounded variation probe requires a deterministic map")
    values = dict(f.values)  # a spelling map computes each value on lookup; read each once
    alpha = f.dom_space.alphabet
    m = f.dom_space.max_len
    # canonical order lists strings by length, so each group is one length's strings
    suffixes = [list(group) for _, group in groupby(enumerate_strings(alpha, min(k, m)), key=len)]
    first = f.dom_space.empty()
    best, witness = 0, (first, first)
    for c in f.dom_space.strings():
        budget = min(k, m - len(c))
        for lu in range(budget + 1):
            max_lv = min(budget, k - lu)
            for u in suffixes[lu]:
                gamma_u = concat(c, u)
                out_u = values[gamma_u]
                for lv in range(lu, max_lv + 1):
                    for v in suffixes[lv]:
                        if lu == 0 and lv == 0:
                            continue
                        if lu and lv:
                            if u.syms[0] == v.syms[0]:
                                continue  # counted under the longer shared prefix
                            if lu == lv and v.syms < u.syms:
                                continue  # unordered pairs once
                        gamma_v = concat(c, v)
                        d = left_distance(out_u, values[gamma_v])
                        if d > best:
                            best, witness = d, (gamma_u, gamma_v)
    return best, witness
