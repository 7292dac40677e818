"""How numpy's Generator turns PCG64 raw words into draws.

integers(0, r) with r below 2^32 maps a 32-bit half-word h, low half of a word
first, to (h r) >> 32 (Lemire's method), and rejects h where (h r) mod 2^32 is
below (2^32 - r) mod r; the bit generator keeps an unread high half as a carry
that the next half-word read takes first.  random() maps a word w to
(w >> 11) 2^-53.  The chain, the drift trials and the annealer decode their
draws by these rules; decoder_agrees checks them once per process, and after a
failed check, or at a half-word that integers would reject, fallback's calls
make the remaining draws; a chain state's generator on another bit generator
makes its own draws by its calls.  A chain iteration draws s_n m proposal
signs, one uniform, then l_nr m relaxation signs; tests/oracles.py draws them
one Generator call per segment, as the reference the decoded draws must match.
"""
from __future__ import annotations

import functools

import numpy as np

def lemire(halves: np.ndarray, r: int, out: np.ndarray | None = None):
    """integers(0, r) of each uint32 half-word: (values, rejected).  At r = 2 the
    value is the top bit, one compare h >= 2^31 (far cheaper than the product
    over a chain block), written into `out` (a bool array) if given."""
    if r == 2:
        top = np.greater_equal(halves, np.uint32(1 << 31), out=out)
        return top.view(np.uint8), np.zeros(top.shape, dtype=bool)
    m = np.asarray(halves, dtype=np.uint64) * np.uint64(r)
    return m >> np.uint64(32), (m & np.uint64(0xFFFFFFFF)) < np.uint64((2**32 - r) % r)


def uniform(words: np.ndarray) -> np.ndarray:
    """random() of each raw word w: (w >> 11) 2^-53."""
    return (words >> np.uint64(11)) * 2.0**-53


def fallback(seed, words: int = 0) -> np.random.Generator:
    """The Generator whose calls make every draw past the first `words` raw words
    of default_rng(seed)'s stream."""
    rng = np.random.default_rng(seed)
    if words:
        rng.bit_generator.advance(words)
    return rng


class SignPlan:
    """Which half-word of random_raw(words) each draw of `iters` chain iterations
    reads, given whether a carry is waiting: an iteration draws s signs
    (integers(0, 2) * 2 - 1 each), one uniform, then rl signs."""

    def __init__(self, iters: int, s: int, rl: int, carry: int) -> None:
        self.shape, self.carry = (iters, s + rl), carry
        i = np.arange(iters)
        # iteration i's uniform follows ceil((signs so far - carry) / 2) sign words
        self.unif = (i * (s + rl) + s - carry + 1) // 2 + i
        self.words = (iters * (s + rl) - carry + 1) // 2 + iters
        # a sign half left unread is the carry at the end; the generator also keeps
        # the high half of the last sign word it drew, read or not
        self.end_carry = carry + 2 * (self.words - iters) - iters * (s + rl)
        sign_words = np.ones(self.words, dtype=bool)
        sign_words[self.unif] = False
        last = np.flatnonzero(sign_words)[-1:]
        self.last_high = 2 * int(last[0]) + 1 if len(last) else None

    def decode(self, raw: np.ndarray, carry: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """int8 +-1 signs (..., iters, s + rl) and uniforms (..., iters) from raw
        words (..., words); carry is the waiting half-word, if any."""
        # one flag per half-word, after a spare slot and the waiting carry, so that
        # the two halves of a word are one uint16 and a uniform's word drops out whole
        bits = np.empty(raw.shape[:-1] + (2 * self.words + 2,), dtype=bool)
        lemire(np.uint32(carry), 2, out=bits[..., 1])
        lemire(raw.view(np.uint32), 2, out=bits[..., 2:])
        stream = np.delete(bits.view(np.uint16), self.unif + 1, axis=-1).view(bool)
        first = 2 - self.carry
        signs = stream[..., first : first + self.shape[0] * self.shape[1]]
        signs = signs.reshape(raw.shape[:-1] + self.shape).view(np.int8) * 2 - 1
        return signs, uniform(raw[..., self.unif])


# a run of equal blocks needs two plans, one for each carry
sign_plan = functools.lru_cache(maxsize=4)(SignPlan)


def block_draws(bitgen, iters: int, s: int, rl: int) -> tuple[np.ndarray, np.ndarray]:
    """The draws of `iters` chain iterations decoded from one random_raw call,
    leaving bitgen's carry where drawing them one call at a time leaves it."""
    state = bitgen.state
    plan = sign_plan(iters, s, rl, state["has_uint32"])
    raw = bitgen.random_raw(plan.words)
    after = bitgen.state
    after["has_uint32"] = plan.end_carry
    if plan.last_high is not None:
        after["uinteger"] = int(raw.view(np.uint32)[plan.last_high])
    bitgen.state = after
    return plan.decode(raw, state["uinteger"] if state["has_uint32"] else 0)


def call_draws(rng: np.random.Generator, iters: int, s: int, rl: int) -> tuple[np.ndarray, ...]:
    """chain_draws' draws made one Generator call per segment: for each iteration
    s signs, one uniform, then rl signs."""
    signs, unif = np.empty((iters, s + rl), dtype=np.int8), np.empty(iters)
    for i in range(iters):
        signs[i, :s] = rng.integers(0, 2, size=s, dtype=np.int64) * 2 - 1
        unif[i] = rng.random()
        signs[i, s:] = rng.integers(0, 2, size=rl, dtype=np.int64) * 2 - 1  # rl = 0 draws nothing
    return signs, unif


def chain_draws(rng: np.random.Generator, iters: int, s: int, rl: int) -> tuple[np.ndarray, ...]:
    """Signs (iters, s + rl) and uniforms (iters,) of `iters` chain iterations, as
    call_draws draws them and leaving rng where it does: decoded from one
    random_raw call of a PCG64, the bit generator decoder_agrees checks, or made
    by rng's calls for any other or where decoder_agrees fails."""
    if type(rng.bit_generator) is np.random.PCG64 and decoder_agrees():
        return block_draws(rng.bit_generator, iters, s, rl)
    return call_draws(rng, iters, s, rl)


def trial_draws(seeds, s: int, rl: int, signs: np.ndarray, unif: np.ndarray, words: int) -> None:
    """Fill signs (k, s + rl) and unif (k,) with one iteration's draws for each of
    k trials, each from a fresh PCG64 on its own seed sequence, holding about
    `words` raw words at a time."""
    if not decoder_agrees():
        for i, seed in enumerate(seeds):
            (signs[i],), (unif[i],) = call_draws(fallback(seed), 1, s, rl)
        return
    plan = sign_plan(1, s, rl, 0)
    chunk = max(1, words // plan.words)
    for c in range(0, len(seeds), chunk):
        raw = np.stack([np.random.PCG64(seed).random_raw(plan.words)
                        for seed in seeds[c : c + chunk]])
        got, got_unif = plan.decode(raw)
        signs[c : c + chunk] = got[:, 0]
        unif[c : c + chunk] = got_unif[:, 0]


def _anneal_words(bitgen, r: int, words: int):
    """Each raw word of bitgen, `words` at a time, as (its pair, or None where
    integers(0, r, size=2) would reject a half, and its uniform)."""
    while True:
        raw = bitgen.random_raw(words)
        values, rejected = lemire(raw.view(np.uint32), r)
        pairs = values.reshape(-1, 2).tolist()
        for j in np.flatnonzero(rejected.reshape(-1, 2).any(axis=1)).tolist():
            pairs[j] = None
        yield from zip(pairs, uniform(raw).tolist())


class AnnealDraws:
    """The annealer's draws from np.random.default_rng(seed): pair() gives
    integers(0, r, size=2), uniform() gives random(), in the order called.

    Without a rejection no draw leaves a carry, so each draw is one word of the
    stream, decoded `words` at a time.  At a word whose pair would be rejected,
    or from the start where decoder_agrees fails, fallback's calls make the draws.
    """

    def __init__(self, seed: int, r: int, words: int) -> None:
        self.seed, self.r, self.read = seed, r, 0  # words read
        self.decoded = _anneal_words(np.random.default_rng(seed).bit_generator, r, words)
        self.rng = None if decoder_agrees() else fallback(seed)

    def pair(self):
        if self.rng is None:
            pair, _ = next(self.decoded)
            if pair is not None:
                self.read += 1
                return pair
            self.rng = fallback(self.seed, self.read)
        return self.rng.integers(0, self.r, size=2)

    def uniform(self) -> float:
        if self.rng is None:
            self.read += 1
            return next(self.decoded)[1]
        return self.rng.random()


@functools.cache
def decoder_agrees() -> bool:
    """Whether this numpy's Generator draws by the rules above, checked from seed 0:
    a pair and a uniform at r = 9, 16 and 40; then fallback past those six words
    and the generator that drew them each draw 3 signs, leaving a carry, and two
    iterations of 5 signs, a uniform and 6 signs, by block_draws and call_draws,
    to the same draws and states.  No advance, or no has_uint32, fails."""
    seq, bitgen = np.random.default_rng(0), np.random.default_rng(0).bit_generator
    for r in (9, 16, 40):
        decoded = _anneal_words(bitgen, r, 2)
        pair, unif = next(decoded)[0], next(decoded)[1]
        if pair != seq.integers(0, r, size=2).tolist() or unif != seq.random():
            return False
    try:
        blk = fallback(0, 6)
    except AttributeError:  # a bit generator that cannot jump ahead
        return False
    for g in (seq, blk):
        g.integers(0, 2, size=3, dtype=np.int64)
    try:
        got = block_draws(blk.bit_generator, 2, 5, 6)
    except KeyError:  # a state without the waiting half-word
        return False
    same = all(map(np.array_equal, got, call_draws(seq, 2, 5, 6)))
    return same and blk.bit_generator.state == seq.bit_generator.state
