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

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

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


def gf_mul(a, b, w: int):
    """Carry-less multiply modulo the field polynomial of GF(2^w) of two field
    elements (below 2^w), as ints or, broadcast, as int arrays: w fixed steps,
    each adding a where b's low bit is set, then doubling a and reducing it
    by the polynomial."""
    poly = _IRREDUCIBLE[w]
    out = 0
    for _ in range(w):
        out ^= a * (b & 1)
        b = b >> 1
        a = a << 1
        a = a ^ (a >> w) * poly
    return out


# ---------------------------------------------------------------------------
# hash families
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HashFamily:
    """A finite keyed hash family with a brute-force-verified eps_asu2.

    The almost-strong-universality parameter is defined through
        Pr_k[h_k(x) = a and h_k(x') = b] <= eps_asu2 / |tags|
    for all x != x' and all tag pairs (a, b), together with exact single-point
    uniformity Pr_k[h_k(x) = a] = 1 / |tags|. Both are counted over every key,
    never assumed, in ``table[i, j]``: the tag of message i under key j.
    """

    keys: tuple
    message_space: tuple
    tag_space: tuple
    evaluate: Callable[[object, object], int]
    eps_asu2: float
    table: np.ndarray
    hits: np.ndarray  # read-only, the second count of ``_pair_counts``
    label: str = ""


class FamilyVerificationError(ValueError):
    pass


# poly_hash_family refuses |messages|^2 * |keys| above this before any work
WC_COST_LIMIT = 1 << 24


def _row_counts(values: np.ndarray) -> np.ndarray:
    """counts[i, v] = how often the int v >= 0 occurs in row i of ``values``."""
    width = int(values.max()) + 1
    flat = (np.arange(len(values))[:, None] * width + values).ravel()
    return np.bincount(flat, minlength=len(values) * width).reshape(len(values), width)


def _pair_counts(table: np.ndarray) -> tuple[int, np.ndarray]:
    """Each message pair i < j read once, for two counts kept apart so that a
    fault in one cannot hide in the other: the most keys that give one tag
    pair (a, b) to (x_i, x_j), over all pairs, and the read-only hits[i, j],
    the most keys that give one tag difference delta (0 for j <= i). Each
    step writes each count's bin codes in place into one buffer: a code plus
    its row's bin offset, the offsets taken once."""
    nm, width = len(table), int(table.max()) + 1
    worst, hits = 0, np.zeros((nm, nm), dtype=np.int64)
    # one buffer for both counts' codes, written in place with no temporary
    # per step: at w6-L1 a fresh array per count and step took about 30x the
    # page faults (29,000 against 1,000 a call) and 1.7x the time
    buf = np.empty_like(table[1:])
    joint_rows = np.arange(nm - 1)[:, None] * (width * width)
    diff_rows = np.arange(nm - 1)[:, None] * width
    for i in range(nm - 1):
        later, out, k = table[i + 1 :], buf[i:], nm - 1 - i
        # every (a, b) tag pair of x_i against each later x', one row per x'
        np.add(later, table[i] * width, out=out)
        out += joint_rows[:k]
        worst = max(worst, int(np.bincount(out.ravel()).max()))
        np.bitwise_xor(later, table[i], out=out)
        out += diff_rows[:k]
        hits[i, i + 1 :] = np.bincount(out.ravel(), minlength=k * width).reshape(k, width).max(axis=1)
    hits.setflags(write=False)
    return worst, hits


def _verify_table(table: np.ndarray, msgs: list, n_tags: int) -> tuple[float, np.ndarray]:
    """(eps_asu2, hits) of a tag table whose single points are uniform."""
    nk = table.shape[1]
    # every tag that occurs occurs nk / n_tags times, so exactly n_tags occur
    counts = _row_counts(table)
    skewed = np.flatnonzero(~np.all((counts == 0) | (counts * n_tags == nk), axis=1))
    if skewed.size:
        raise FamilyVerificationError(
            f"single-point distribution for message {msgs[skewed[0]]!r} is not uniform"
        )
    worst, hits = _pair_counts(table)
    return worst * n_tags / nk, hits


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
    if q ** (2 * L + 2) > WC_COST_LIMIT:
        raise ValueError(
            f"wc cost |messages|^2 * |keys| = {q ** L}^2 * {q * q} = {q ** (2 * L + 2)} "
            f"exceeds the limit 2^24 = {WC_COST_LIMIT} (field_bits={w}, msg_len={L})"
        )
    keys = tuple((c, d) for c in range(q) for d in range(q))
    msgs = tuple(itertools.product(range(q), repeat=L))
    tags = tuple(range(q))

    def evaluate(key, msg) -> int:
        c, d = key
        out, power = d, c
        for coeff in msg:
            out ^= gf_mul(coeff, power, w)
            power = gf_mul(power, c, w)
        return out

    # the table by Horner's rule, c (m_1 + c (m_2 + ... + c m_L)), over the
    # field's multiplication table; row i of `digits` is m_(i+1) of every message
    mul = gf_mul(np.arange(q)[:, None], np.arange(q), w)
    digits = np.indices((q,) * L).reshape(L, -1)
    horner = np.zeros((q**L, q), dtype=np.int64)
    for coeff in digits[::-1]:
        horner = mul[horner ^ coeff[:, None], np.arange(q)]
    # key (c, d) sits at column c * q + d
    table = (horner[:, :, None] ^ np.arange(q)).reshape(q**L, q * q)
    eps, hits = _verify_table(table, list(msgs), q)
    return HashFamily(keys, msgs, tags, evaluate, eps, table, hits, label=f"affine-poly-w{w}-L{L}")


# ---------------------------------------------------------------------------
# the real-vs-ideal substitution advantage
# ---------------------------------------------------------------------------


def wc_kg_advantage(family: HashFamily) -> dict:
    """Exact real-vs-ideal advantage, maximized over deterministic substitutions.

    The environment sees the wire pair, Bob's output, and the recycled hash
    key. Because the observed tag is uniform and part of the record, the
    advantage decomposes per observed tag, and each tag's best rewrite is a
    finite maximization; the result is therefore the exact maximum over the
    full (astronomically large) deterministic strategy space.

    The best rewrite of input x_i to x_j hits #{k : T_ik ^ T_jk = delta} keys
    for its best delta, a count symmetric in (i, j), so over all inputs each
    unordered message pair is counted once, in row i < j (``family.hits``,
    counted while the family is verified). That is enough: the
    first input in message order with the most hits is the smaller index of a
    best pair, and its first best partner (``_best_rewrite``) comes after it.
    """
    top = family.hits.max(axis=1)
    r = int(np.argmax(top))
    best, best_info = 0.0, {"substitution": "identity"}
    if top[r] > 0:
        best, best_info = int(top[r]) / family.table.shape[1], _best_rewrite(family, r, family.hits[r])
    return {
        "family": family.label,
        "eps_asu2": family.eps_asu2,
        # the advantage is maximized over every input message
        "input_message": "all",
        "advantage": best,
        "advantage_one_norm": 2.0 * best,
        "best_substitution": best_info,
        "pass": best <= family.eps_asu2 + 1e-12,
    }


def _best_rewrite(family: HashFamily, i: int, hits: np.ndarray) -> dict:
    """Best rewrite (x', delta) of input x_i, given ``hits[j]``, the most keys
    any delta takes x_i to x_j on (0 for j = i and for pairs not counted): the
    first x' in message order with the most keys, and within it the delta
    that the earliest key gives."""
    table = family.table
    j = int(np.argmax(hits))
    diffs = table[j] ^ table[i]
    first_key = int(np.argmax(np.bincount(diffs)[diffs] == hits[j]))
    return {
        "substitution": "rewrite",
        "input": str(family.message_space[i]),
        "to_message": str(family.message_space[j]),
        "tag_xor": int(diffs[first_key]),
    }


# ---------------------------------------------------------------------------
# the key-leak exhibit
# ---------------------------------------------------------------------------


def _binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def key_leak_demo(family: HashFamily, honest: bool = False) -> dict:
    """Recycling leaks: guess a key, tamper consistently, watch accept/reject.

    The adversary guesses a key value k0, picks x' != x, and rewrites the wire
    tag by h_k0(x') xor h_k0(x). ``leakage_bits`` is the mutual information
    I(K; verdict) of the joint distribution of the hash key and Bob's verdict
    over every (key, pad) pair, read off the tag table; ``entropy_bound_bits``
    is H(verdict), which it reaches when the pad cancels and the verdict is a
    function of the key. With ``honest=True`` the message is forwarded
    untouched and the leak is 0.
    """
    table = family.table
    nk, nt = table.shape[1], len(family.tag_space)
    x_prime, delta = (0, 0) if honest else (1, int(table[1, 0] ^ table[0, 0]))
    # accepts[k] = pads t for which Bob accepts the wire (x', h_k(x) ^ t ^ delta)
    pads = np.asarray(family.tag_space)
    sent = table[0][:, None] ^ pads
    accepts = np.count_nonzero((sent ^ delta) == (table[x_prime][:, None] ^ pads), axis=1)
    p_acc = int(accepts.sum()) / (nk * nt)
    # H(verdict | key), summed over the distinct per-key accept counts
    values, n_keys = np.unique(accepts, return_counts=True)
    h_given_key = sum(int(c) / nk * _binary_entropy(int(a) / nt) for a, c in zip(values, n_keys))
    h_verdict = _binary_entropy(p_acc)
    leak = h_verdict - h_given_key
    key = "-" if honest else family.keys[0]
    return {
        "strategy": "honest" if honest else "guess-and-tamper",
        "accept_probability": p_acc,
        "leakage_bits": leak,
        "entropy_bound_bits": h_verdict,
        "guessed_key": list(key) if isinstance(key, tuple) else key,
        # the leak is strictly positive for the tampering strategy
        "pass": leak == 0.0 if honest else leak > 0.0,
    }
