"""Stabilizer codes, syndrome arithmetic, encoders, and purity-test families.

A code here encodes m logical qubits into n = m + s physical ones via s
independent commuting Hermitian Pauli generators. A purity-test family is a
uniformly weighted list of such codes whose worst-case undetected fraction
over all nontrivial Pauli errors has been established by exhaustive search
(``verify_ptc``), never assumed.

Detection convention: an error counts as detected by a code if it flips at
least one syndrome bit, or if it lies in the code's stabilizer group (up to
phase) and therefore acts trivially on every codeword. Errors that commute
with all generators without being stabilizers are the harmful ones; they pass
the syndrome comparison while corrupting the logical content.

A code is its generators' labels x << n | z (``StabilizerCode.labels``);
generator i is the Hermitian Pauli +(i^|x&z|) X^x Z^z of label i. One check,
``_admits``, accepts a label that commutes with the accepted ones and lies
outside their GF(2) span: the sampler and ``StabilizerCode`` both use it.
The detection count ``_missed_counts`` reads the labels and forms no
syndrome bit. A code's projector onto its zero syndrome is the average of
its stabilizer group S, so the code is silent on an error (x, z) exactly
when 2^-s sum over (X, Z) in S of (-1)^(x.Z + z.X) is 1, and that sum is 0
otherwise. Summed over codes, this is the two-sided Walsh-Hadamard transform
of the histogram H[X, Z] of every code's group labels: with the +-1 table
W[a, b] = (-1)^(a.b), 2^s times the number of silent codes is
(W H^T W)[x, z]. Two small products count every error under every code,
less each code's 2^s stabilizers. The count is a sum over codes:
``search_ptc`` adds each new code's count to a running total.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .pauli import PauliString, hermitian_pauli, pauli_matrix
from .qmath import InvariantError


class CodeError(ValueError):
    """Raised for malformed generator sets or inconsistent family parameters."""


FAMILY_SCHEMA = "qauthlab-ptc-family/1"


# verify_ptc refuses 4^n * (2n + |codes|) above this before any work. It is
# a conservative bound, not the size of an array: the character sum's arrays
# hold 4^n entries each. It also keeps that sum exact in float32, whose
# partial sums reach |codes| 2^s <= |codes| 2^n < 2^24 under it
PTC_COST_LIMIT = 1 << 24

# the largest n = m + s at which search_ptc searches a family and
# ucharness.ptp_soundness_exact computes its exact soundness
PTC_MAX_N = 6

# random_stabilizer_code gives up after this many candidate generators
MAX_CANDIDATES = 100_000


def _admits(labels: list[int], pivots: list[int], label: int, n: int) -> bool:
    """Whether generator ``label`` (x << n | z) commutes with each accepted
    label in ``labels`` (the parity of (x & Z) ^ (z & X) is even) and lies
    outside their GF(2) span, whose reduced basis, largest first, is
    ``pivots`` (it does not reduce to 0; label 0 always does). An admitted
    label is appended to ``labels`` and its reduced row to ``pivots``."""
    x, z = label >> n, label & ((1 << n) - 1)
    if any(((x & g) ^ (z & g >> n)).bit_count() & 1 for g in labels):
        return False
    row = label
    for p in pivots:
        row = min(row, row ^ p)
    if not row:
        return False
    labels.append(label)
    pivots.append(row)
    pivots.sort(reverse=True)
    return True


@dataclass(frozen=True)
class StabilizerCode:
    """m-into-n stabilizer code: the labels x << n | z of its s independent
    commuting generators, each the Hermitian Pauli +(i^|x&z|) X^x Z^z."""

    n: int
    labels: tuple[int, ...]

    def __post_init__(self):
        labels = tuple(self.labels)
        if not labels:
            raise CodeError("need at least one generator")
        accepted: list[int] = []
        pivots: list[int] = []
        for label in labels:
            if label >> 2 * self.n or not _admits(accepted, pivots, label, self.n):
                raise CodeError(
                    f"generator label {label} lies outside 4^{self.n}, anticommutes with an "
                    "earlier generator or lies in their span"
                )
        object.__setattr__(self, "labels", labels)

    @property
    def generators(self) -> tuple[PauliString, ...]:
        """Each label's Hermitian Pauli, built on every read."""
        low = (1 << self.n) - 1
        return tuple(hermitian_pauli(self.n, label >> self.n, label & low) for label in self.labels)

    @property
    def s(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return self.n - self.s


def _parameters(codes: Sequence[StabilizerCode]) -> tuple[int, int]:
    """The (n, s) of every code of a nonempty family."""
    shapes = {(c.n, c.s) for c in codes}
    if len(shapes) != 1:
        raise CodeError("family mixes code parameters" if shapes else "empty family")
    return shapes.pop()


def verify_ptc(codes: Sequence[StabilizerCode]) -> float:
    """Exhaustive worst-case undetected fraction of a uniformly weighted family.

    Covers all 4^n - 1 nontrivial Pauli errors at once: the number of codes
    with a zero syndrome on each error is a character sum over each code's
    stabilizer group (see the module docstring), less each code's
    stabilizers. Returns the maximum, over errors, of the fraction of
    codes that fail to detect. This is the family's security parameter and
    the only way this package ever assigns one. Raises ``CodeError`` before
    any work when 4^n * (2n + |codes|) exceeds PTC_COST_LIMIT.
    """
    return _worst_error(_missed_counts(codes), len(codes))[0]


@lru_cache(maxsize=None)
def _parity_table(n: int) -> np.ndarray:
    """Read-only 2^n x 2^n table of (-1)^(a.b), -1 where a & b has odd
    parity, as float32 1.0 or -1.0."""
    bits = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(np.float32)
    table = 1.0 - 2.0 * ((bits @ bits.T) % 2)
    table.setflags(write=False)
    return table


def _worst_error(missed: np.ndarray, size: int) -> tuple[float, int]:
    """(missed fraction, label) at the first largest count, never the identity."""
    worst = 1 + int(np.argmax(missed[1:]))
    return int(missed[worst]) / size, worst


def _missed_counts(codes: Sequence[StabilizerCode]) -> np.ndarray:
    """int64 count, at each error label x << n | z, of the codes that miss it
    (a zero syndrome, not a stabilizer); see ``verify_ptc`` for the guards."""
    n, s = _parameters(codes)
    cost = 4**n * (2 * n + len(codes))
    if cost > PTC_COST_LIMIT:
        raise CodeError(
            f"verify_ptc cost 4^n * (2n + |codes|) = 4^{n} * ({2 * n} + {len(codes)}) = {cost} "
            f"exceeds the limit 2^24 = {PTC_COST_LIMIT}"
        )
    # generator i of code c's stored label x << n | z at [c, i]
    labels = np.array([label for c in codes for label in c.labels]).reshape(len(codes), s)
    # every code's 2^s stabilizer group labels X << n | Z, the identity among
    # them, counted at hist[X << n | Z]
    group = np.zeros((len(codes), 1), dtype=np.int64)
    for i in range(s):
        group = np.concatenate([group, group ^ labels[:, i : i + 1]], axis=1)
    hist = np.bincount(group.ravel(), minlength=1 << 2 * n)
    # 2^s silent[x, z] sums (-1)^(x.Z + z.X) over every code's group: rows x
    # meet the Z halves and columns z the X halves. Every partial sum is a
    # whole number of size at most |codes| 2^s < 2^24, so float32 keeps it exact
    sign = _parity_table(n)
    counts = hist.astype(np.float32).reshape(1 << n, 1 << n)
    silent = (sign @ counts.T @ sign).astype(np.int64).ravel() >> s
    # stabilizers (the identity among them) are silent but act trivially, so
    # they are detected: take each code's group labels off the count
    return silent - hist


@dataclass(frozen=True)
class PtcFamily:
    """A verified purity-test family: codes, parameters, measured epsilon."""

    codes: tuple[StabilizerCode, ...]
    epsilon_verified: float
    seed: int | None = None
    met_target: bool = True

    def __post_init__(self):
        object.__setattr__(self, "codes", tuple(self.codes))
        _parameters(self.codes)
        if self.m < 1:
            raise CodeError(f"a family must encode at least one qubit; its codes have m = {self.m}")
        # the caches keyed by (family, attack) hash it on every lookup
        object.__setattr__(self, "_hash", hash((self.codes, self.epsilon_verified, self.seed, self.met_target)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def m(self) -> int:
        return self.codes[0].m

    @property
    def s(self) -> int:
        return self.codes[0].s

    @property
    def n(self) -> int:
        return self.codes[0].n

    def to_json(self) -> dict:
        return {
            "schema": FAMILY_SCHEMA,
            "m": self.m,
            "s": self.s,
            "epsilon_verified": self.epsilon_verified,
            "seed": self.seed,
            "met_target": self.met_target,
            "codes": [[g.to_text() for g in c.generators] for c in self.codes],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "PtcFamily":
        def code_from_texts(texts) -> StabilizerCode:
            paulis = [PauliString.from_text(text) for text in texts]
            lengths = {p.n for p in paulis}
            if len(lengths) != 1:
                raise CodeError(f"a code needs generator texts of one length, got lengths {sorted(lengths)}")
            (n,) = lengths
            return StabilizerCode(n, tuple(p.x << n | p.z for p in paulis))

        try:
            codes = tuple(code_from_texts(texts) for texts in payload["codes"])
            family = cls(
                codes,
                float(payload["epsilon_verified"]),
                payload.get("seed"),
                bool(payload.get("met_target", True)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CodeError(f"malformed family payload: {exc}") from exc
        # a file may leave these fields out, but one it declares must hold,
        # as the same JSON type (true and 1.0 equal 1 in Python)
        for name, value in (("schema", FAMILY_SCHEMA), ("m", family.m), ("s", family.s)):
            if name in payload and (type(payload[name]) is not type(value) or payload[name] != value):
                raise CodeError(f"family file declares {name} = {payload[name]!r}, but its codes give {value!r}")
        return family

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "PtcFamily":
        """The family in the file at ``path``: read on every call, parsed and
        validated once per text (``_parsed``)."""
        with open(path) as fh:
            return _parsed(cls, fh.read())


@lru_cache(maxsize=8)
def _parsed(cls, text: str) -> PtcFamily:
    # a malformed text is not kept, so it raises on every load
    return cls.from_json(json.loads(text))


def ptc_epsilon_formula(m: int, s: int) -> float:
    """Reference detection-failure rate 2 (1 + m/s) / (1 + 2^s) for an
    efficiently constructible family at the same (m, s)."""
    return 2.0 * (1.0 + m / s) / (1.0 + 2.0**s)


def cost_formulas(m: int, s: int) -> tuple[int, float]:
    """(qubits sent, key bits consumed) for the authentication scheme:
    m + s qubits and 2m + s + log2(2^s + 1) key bits."""
    if m < 1 or s < 1:
        raise CodeError("need m, s >= 1")
    return m + s, 2 * m + s + math.log2(2.0**s + 1.0)


def random_stabilizer_code(n: int, s: int, rng: np.random.Generator) -> StabilizerCode:
    """Uniform-ish random code: rejection-sample commuting independent generators.

    Each candidate (x, z) is two consecutive ``rng.integers(0, 2^n)`` draws,
    kept if ``_admits`` its label x << n | z. Candidates are drawn in chunks
    of ``2^(s+1)``, each one array draw; an array draw takes the same numbers
    from the generator as that many scalar draws, so after the last chunk the
    state is restored and exactly the candidates used are drawn again. The
    generator ends where one scalar draw per mask would leave it, and the
    codes are those of that scalar loop. Raises ``CodeError`` after
    MAX_CANDIDATES candidates without s generators.
    """
    if s < 1 or s > n:
        raise CodeError(f"bad parameters n={n}, s={s}")
    labels: list[int] = []
    pivots: list[int] = []
    drawn = 0
    while drawn < MAX_CANDIDATES:
        chunk = min(2 << s, MAX_CANDIDATES - drawn)
        start = rng.bit_generator.state
        pairs = rng.integers(0, 1 << n, size=2 * chunk).tolist()
        for used in range(1, chunk + 1):
            label = pairs[2 * used - 2] << n | pairs[2 * used - 1]
            if _admits(labels, pivots, label, n) and len(labels) == s:
                rng.bit_generator.state = start
                rng.integers(0, 1 << n, size=2 * used)
                return StabilizerCode(n, tuple(labels))
        drawn += chunk
    raise CodeError("could not sample independent commuting generators")


def search_ptc(
    m: int,
    s: int,
    target_eps: float,
    budget: int = 200,
    seed: int = 0,
) -> PtcFamily:
    """Randomized search for a family meeting ``target_eps``, verified exactly.

    Tries growing family sizes; within a trial, repairs the family by adding
    codes that detect the current worst error. The running count is the
    grown family's exact count, so the returned ``epsilon_verified`` is always
    that measured value (``qauthlab ptc`` re-verifies it). If the budget runs
    out the best family found is returned with ``met_target=False``; callers
    decide whether that is fatal.
    """
    n = m + s
    if n > PTC_MAX_N:
        raise CodeError(f"exhaustive verification is limited to n <= {PTC_MAX_N}")
    if budget < 1:
        raise CodeError(f"the search needs a budget of at least 1 trial, got {budget}")
    rng = np.random.default_rng(seed)
    best: tuple[float, list[StabilizerCode]] | None = None
    sizes = (8, 12, 16, 24, 32, 48, 64)
    for trial in range(budget):
        size = sizes[trial % len(sizes)]
        codes = [random_stabilizer_code(n, s, rng) for _ in range(size)]
        missed = _missed_counts(codes)
        eps, worst = _worst_error(missed, len(codes))
        repairs = 0
        while eps > target_eps and repairs < 48:
            cand = random_stabilizer_code(n, s, rng)
            cand_missed = _missed_counts([cand])
            if cand_missed[worst] == 0:  # the candidate detects the worst error
                codes.append(cand)
                missed += cand_missed
                eps, worst = _worst_error(missed, len(codes))
            repairs += 1
        if best is None or eps < best[0] or (eps == best[0] and len(codes) < len(best[1])):
            best = (eps, list(codes))
        if eps <= target_eps:
            return PtcFamily(tuple(codes), eps, seed=seed, met_target=True)
    return PtcFamily(tuple(best[1]), best[0], seed=seed, met_target=False)


def encoding_unitary(code: StabilizerCode) -> np.ndarray:
    """The code's read-only unitary encoder, built by explicit projector chains
    onto syndrome subspaces. Column (y * 2^m + l) is the l-th basis codeword
    of the syndrome-y subspace, so the input is read as a syndrome register
    (most significant) next to a logical register; the decoder is its
    conjugate transpose.

    For each syndrome pattern y the projector prod_i (I + (-1)^{y_i} g_i) / 2
    has rank 2^m; an orthonormal basis of its range provides the codewords.
    The logical basis inside each subspace is an arbitrary (deterministic)
    choice; nothing downstream relies on aligning logical labels across
    different syndrome values, because mismatched syndromes are rejected.
    A ``StabilizerCode`` has independent commuting generators, so a
    subspace of the wrong rank or an encoder that is not unitary is an
    ``InvariantError``.
    """
    n, s, m = code.n, code.s, code.m
    d = 1 << n
    gens = [pauli_matrix(g) for g in code.generators]
    cols = np.zeros((d, d), dtype=complex)
    for y in range(1 << s):
        proj = np.eye(d, dtype=complex)
        for i, g in enumerate(gens):
            sign = -1.0 if (y >> i) & 1 else 1.0
            proj = proj @ ((np.eye(d) + sign * g) / 2.0)
        u_, sv, _ = np.linalg.svd(proj)
        if sv[(1 << m) - 1] < 0.5 or ((1 << m) < d and sv[1 << m] > 0.5):
            raise InvariantError("degenerate generator set: syndrome subspace rank is off")
        cols[:, y * (1 << m) : (y + 1) * (1 << m)] = u_[:, : 1 << m]
    if not np.allclose(cols.conj().T @ cols, np.eye(d), atol=1e-10):
        raise InvariantError("encoder failed unitarity check")
    cols.setflags(write=False)
    return cols
