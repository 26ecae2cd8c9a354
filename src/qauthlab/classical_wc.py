"""Classical authentication with key recycling, checked by exhaustion.

The scheme: Alice appends ``h_k(x) xor t`` to her message x, where h is drawn
from an almost-strongly-universal family and t is a fresh one-time pad over
the tag space; Bob accepts iff the tag verifies. The hash key k is recycled
afterwards, the pad t is consumed.

Everything at these sizes is computed exactly: the family parameter eps_asu2
is established by brute force over all key pairs, and the real-vs-ideal
advantage is maximized in closed form over every deterministic substitution
map (the per-observed-tag decomposition makes that a finite maximization even
though the raw strategy space is astronomically large).

Conventions for this module: probability distributions are classical, and two
figures are reported for each experiment. ``advantage`` is the distinguishing
probability sum |p - q| / 2 (total variation), the quantity the family
parameter eps_asu2 genuinely bounds; ``advantage_one_norm`` is the same
difference in the package-wide full 1-norm, which is exactly twice that. The
two conventions differ by the factor 2 for classical records, and the
acceptance checks compare like with like.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

# ---------------------------------------------------------------------------
# GF(2^w) arithmetic, small and exhaustive
# ---------------------------------------------------------------------------

# one irreducible polynomial per field size we support (w <= 8)
_IRREDUCIBLE = {
    1: 0b11,          # x + 1
    2: 0b111,         # x^2 + x + 1
    3: 0b1011,        # x^3 + x + 1
    4: 0b10011,       # x^4 + x + 1
    5: 0b100101,      # x^5 + x^2 + 1
    6: 0b1000011,     # x^6 + x + 1
    7: 0b10000011,    # x^7 + x + 1
    8: 0b100011011,   # x^8 + x^4 + x^3 + x + 1
}


def gf_mul(a: int, b: int, w: int) -> int:
    """Carry-less multiply modulo the field polynomial of GF(2^w)."""
    poly = _IRREDUCIBLE[w]
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> w:
            a ^= poly
    return out


def gf_pow(a: int, k: int, w: int) -> int:
    out = 1
    for _ in range(k):
        out = gf_mul(out, a, w)
    return out


# ---------------------------------------------------------------------------
# hash families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HashFamily:
    """A finite keyed hash family with a brute-force-verified eps_asu2.

    The almost-strong-universality parameter is defined through
        Pr_k[h_k(x) = a and h_k(x') = b] <= eps_asu2 / |tags|
    for all x != x' and all tag pairs (a, b), together with exact single-point
    uniformity Pr_k[h_k(x) = a] = 1 / |tags|. Both are established by looping
    over every key, never assumed from the construction.
    """

    keys: tuple
    message_space: tuple
    tag_space: tuple
    evaluate: Callable[[object, object], int]
    eps_asu2: float
    label: str = ""


class FamilyVerificationError(ValueError):
    pass


def verify_asu2(
    keys, message_space, tag_space, evaluate
) -> float:
    """Brute-force eps_asu2 and the single-point uniformity check.

    Returns |tags| * max_{x != x', a, b} Pr_k[h(x) = a, h(x') = b]. Raises if
    any single-point distribution deviates from exact uniformity.
    """
    keys = list(keys)
    tags = list(tag_space)
    msgs = list(message_space)
    nk, nt = len(keys), len(tags)
    values = {x: [evaluate(k, x) for k in keys] for x in msgs}
    for x in msgs:
        counts: dict[int, int] = {}
        for v in values[x]:
            counts[v] = counts.get(v, 0) + 1
        if len(counts) != nt or any(c * nt != nk for c in counts.values()):
            raise FamilyVerificationError(
                f"single-point distribution for message {x!r} is not uniform"
            )
    worst = 0
    for i, x in enumerate(msgs):
        vx = values[x]
        for xp in msgs[i + 1 :]:
            vp = values[xp]
            pair_counts: dict[tuple[int, int], int] = {}
            for a, b in zip(vx, vp):
                pair_counts[(a, b)] = pair_counts.get((a, b), 0) + 1
            worst = max(worst, max(pair_counts.values()))
    return worst * nt / nk


def poly_hash_family(field_bits: int, message_len: int) -> HashFamily:
    """Affine polynomial hashing over GF(2^field_bits).

    Key = (c, d), message = a tuple of ``message_len`` field elements, tag =
    d xor sum_i m_i c^i. The offset d makes single-point outputs exactly
    uniform, and two distinct messages collide on a prescribed tag difference
    for at most ``message_len`` slopes c, so eps_asu2 = message_len / 2^w
    (re-verified exhaustively here, not assumed).

    A family over slope-only keys cannot be almost-strongly universal: with
    |keys| = |tags| the pair condition forces eps = 1. The offset half of the
    key is what buys the pairwise near-independence.
    """
    w, L = field_bits, message_len
    if w not in _IRREDUCIBLE or w > 8:
        raise ValueError("field_bits must be between 1 and 8")
    if not 1 <= L <= 4:
        raise ValueError("message_len must be between 1 and 4 for exhaustive checks")
    q = 1 << w
    keys = tuple((c, d) for c in range(q) for d in range(q))
    msgs = tuple(_field_tuples(q, L))
    tags = tuple(range(q))

    def evaluate(key, msg) -> int:
        c, d = key
        out = d
        for i, coeff in enumerate(msg, start=1):
            out ^= gf_mul(coeff, gf_pow(c, i, w), w)
        return out

    eps = verify_asu2(keys, msgs, tags, evaluate)
    return HashFamily(keys, msgs, tags, evaluate, eps, label=f"affine-poly-w{w}-L{L}")


def _field_tuples(q: int, length: int):
    if length == 1:
        for a in range(q):
            yield (a,)
        return
    for a in range(q):
        for rest in _field_tuples(q, length - 1):
            yield (a,) + rest


# ---------------------------------------------------------------------------
# the authenticated channel and its ideal twin
# ---------------------------------------------------------------------------


def wc_send(x, hash_key, pad: int, family: HashFamily) -> tuple[object, int]:
    """Alice's wire message: (x, h_k(x) xor t)."""
    return x, family.evaluate(hash_key, x) ^ pad


def wc_verify(received, hash_key, pad: int, family: HashFamily) -> bool:
    x_prime, tag_prime = received
    return tag_prime == family.evaluate(hash_key, x_prime) ^ pad


@dataclass(frozen=True)
class WcAdvantageReport:
    family: str
    eps_asu2: float
    input_message: object
    advantage: float            # distinguishing probability (total variation)
    advantage_one_norm: float   # same difference in the full 1-norm
    best_substitution: dict
    passed: bool

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "eps_asu2": self.eps_asu2,
            "input_message": list(self.input_message)
            if isinstance(self.input_message, tuple)
            else self.input_message,
            "advantage": self.advantage,
            "advantage_one_norm": self.advantage_one_norm,
            "best_substitution": self.best_substitution,
            "pass": self.passed,
        }


def substitution_advantage(
    family: HashFamily, x_in, candidate: tuple
) -> float:
    """Distinguishing probability when every observed tag is rewritten to the
    fixed candidate (x', delta) with tag' = tag xor delta.

    Acceptance in the real protocol depends only on
    h_k(x') xor h_k(x_in) == delta (the pad cancels), so the advantage is the
    fraction of keys satisfying that relation, unless the substitution is the
    identity (x' == x_in, delta == 0), which both sides accept identically.
    """
    x_prime, delta = candidate
    if x_prime == x_in and delta == 0:
        return 0.0
    hits = sum(
        1
        for k in family.keys
        if family.evaluate(k, x_prime) ^ family.evaluate(k, x_in) == delta
    )
    return hits / len(family.keys)


def wc_kg_advantage(
    family: HashFamily,
    x_in=None,
    substitution: Callable[[object, int], tuple] | None = None,
) -> WcAdvantageReport:
    """Exact real-vs-ideal advantage, maximized over deterministic substitutions.

    The environment sees the wire pair, Bob's output, and the recycled hash
    key. Because the observed tag is uniform and part of the record, the
    advantage decomposes per observed tag, and each tag's best rewrite is a
    finite maximization; the result is therefore the exact maximum over the
    full (astronomically large) deterministic strategy space. Passing an
    explicit ``substitution`` map evaluates that one strategy instead.
    """
    msgs = list(family.message_space)
    inputs = [x_in] if x_in is not None else msgs
    best = 0.0
    best_info: dict = {"substitution": "identity"}
    for x0 in inputs:
        if substitution is not None:
            val = _explicit_substitution_advantage(family, x0, substitution)
            info = {"substitution": "explicit", "input": str(x0)}
        else:
            val, info = _max_substitution_advantage(family, x0)
        if val > best:
            best, best_info = val, info
    return WcAdvantageReport(
        family=family.label,
        eps_asu2=family.eps_asu2,
        input_message=inputs[0] if len(inputs) == 1 else "all",
        advantage=best,
        advantage_one_norm=2.0 * best,
        best_substitution=best_info,
        passed=best <= family.eps_asu2 + 1e-12,
    )


def _max_substitution_advantage(family: HashFamily, x0) -> tuple[float, dict]:
    nk = len(family.keys)
    base = [family.evaluate(k, x0) for k in family.keys]
    best = 0.0
    info: dict = {"substitution": "identity"}
    for x_prime in family.message_space:
        diffs: dict[int, int] = {}
        for k, h0 in zip(family.keys, base):
            d = family.evaluate(k, x_prime) ^ h0
            diffs[d] = diffs.get(d, 0) + 1
        for delta, hits in diffs.items():
            if x_prime == x0 and delta == 0:
                continue
            if hits / nk > best:
                best = hits / nk
                info = {
                    "substitution": "rewrite",
                    "input": str(x0),
                    "to_message": str(x_prime),
                    "tag_xor": delta,
                }
    return best, info


def _explicit_substitution_advantage(family, x0, substitution) -> float:
    """Per-observed-tag advantage of one concrete substitution map.

    Sums, over observed tags tau, the distinguishing mass contributed by the
    keys that make Bob accept a forged pair; identical outputs cancel exactly.
    """
    nk = len(family.keys)
    nt = len(family.tag_space)
    total = 0.0
    for tau in family.tag_space:
        x_prime, tag_prime = substitution(x0, tau)
        if x_prime == x0 and tag_prime == tau:
            continue
        hits = sum(
            1
            for k in family.keys
            if family.evaluate(k, x_prime) ^ family.evaluate(k, x0) == (tag_prime ^ tau)
        )
        total += hits / (nk * nt)
    return total


def completeness_exact(family: HashFamily) -> bool:
    """No tampering: for every message, hash key and pad, the wire message
    from ``wc_send`` passes ``wc_verify`` and delivers the message. Fails for
    a family whose tag is not a function of (key, message)."""
    for x in family.message_space:
        for k in family.keys:
            for t in family.tag_space:
                wire = wc_send(x, k, t, family)
                if wire[0] != x or not wc_verify(wire, k, t, family):
                    return False
    return True


# ---------------------------------------------------------------------------
# the key-leak exhibit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KeyLeakReport:
    strategy: str
    accept_probability: float
    leakage_bits: float
    entropy_bound_bits: float
    guessed_key: object
    passed: bool  # leak strictly positive for the tampering strategy

    def to_json(self) -> dict:
        return {
            "strategy": self.strategy,
            "accept_probability": self.accept_probability,
            "leakage_bits": self.leakage_bits,
            "entropy_bound_bits": self.entropy_bound_bits,
            "guessed_key": list(self.guessed_key)
            if isinstance(self.guessed_key, tuple)
            else self.guessed_key,
            "pass": self.passed,
        }


def _binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def key_leak_demo(family: HashFamily, honest: bool = False) -> KeyLeakReport:
    """Recycling leaks: guess a key, tamper consistently, watch accept/reject.

    The adversary guesses a key value k0, picks x' != x, and rewrites the wire
    tag by h_k0(x') xor h_k0(x). Acceptance then depends deterministically on
    the real key (the pad cancels), so the accept/reject output carries
    H(accept) bits of mutual information about the recycled key: strictly
    positive whenever the forgery neither always fails nor always succeeds.
    With ``honest=True`` the message is forwarded untouched and the leak is 0.
    """
    msgs = list(family.message_space)
    x = msgs[0]
    if honest:
        return KeyLeakReport("honest", 1.0, 0.0, 0.0, guessed_key="-", passed=True)
    x_prime = msgs[1]
    k0 = family.keys[0]
    delta = family.evaluate(k0, x_prime) ^ family.evaluate(k0, x)
    hits = sum(
        1
        for k in family.keys
        if family.evaluate(k, x_prime) ^ family.evaluate(k, x) == delta
    )
    p_acc = hits / len(family.keys)
    # verdict is a deterministic function of the key, so I(K; verdict) = H(verdict)
    leak = _binary_entropy(p_acc)
    return KeyLeakReport(
        strategy="guess-and-tamper",
        accept_probability=p_acc,
        leakage_bits=leak,
        entropy_bound_bits=_binary_entropy(p_acc),
        guessed_key=k0,
        passed=leak > 0.0,
    )
