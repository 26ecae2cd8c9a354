"""The benchmark's workloads: set-up and job lists.

A job is one unit of verified report: one attack's advantage report, or one
exhaustive verification. Each workload's inputs come from the benchmark seed;
the seed changes the inputs, never the amount of work.

- ``uc-s3``: ``qauthlab uc --attack <name>`` for each of the 27 attacks of the
  m=1, s=3 standard suite, on the committed 14-code family (epsilon 2/7) and
  the input ``random-<seed>``. Almost all time is in hybrid / protocols /
  ucharness.
- ``psqa-s3``: ``approx_psqa.psqa_advantage``, called as ``qauthlab psqa``
  calls it, for each of the 25 T-only attacks of the s=3 suite, with a K=16
  cipher and a message drawn from the seed. Same engine, many tiny sweeps,
  no repeated protocol runs.
- ``exhaustive``: no state vectors. ``codes.verify_ptc`` on 32 seeded random
  64-code families at n=6, ``qauthlab ptp-soundness`` on the fixture, and
  ``qauthlab wc`` at (field bits 5, length 1) and (3, 2). It is the control
  that engine changes must leave flat.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

FIXTURE = "perfbench/fixtures/family-m1-s3.json"
DEFAULT_SEED = 1
WORKLOADS = ("uc-s3", "psqa-s3", "exhaustive")

VERIFY_FAMILIES = 32
VERIFY_CODES = 64
VERIFY_N, VERIFY_S = 6, 3
CIPHER_SIZE = 16
IDENTITY_TOL = 1e-9


@dataclass
class Job:
    name: str
    run: Callable[[], tuple[int, object]]
    seed_dependent: bool = True
    exact_keys: frozenset = frozenset()
    check: Callable[[object], list[str]] = field(default=lambda report: [])


def run_cli(argv: list[str]) -> tuple[int, object]:
    """``qauthlab <argv>`` in this process, as (exit code, parsed JSON report)."""
    from qauthlab import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    text = buf.getvalue()
    return code, json.loads(text) if text.strip() else None


def load_fixture():
    """The committed family, re-verified exhaustively, with its encoders built.

    The encoders are built here because the first job would otherwise pay for
    that lazy step.
    """
    from qauthlab import codes, protocols

    family = codes.PtcFamily.load(FIXTURE)
    eps = codes.verify_ptc(family.codes)
    if eps != family.epsilon_verified:
        raise RuntimeError(f"fixture epsilon {family.epsilon_verified} but verify_ptc gives {eps}")
    build = getattr(protocols, "_family_encoders", None)
    if build is not None:
        build(family)
    return family


def _uc_check(report) -> list[str]:
    results = report.get("results") or []
    if len(results) != 1:
        return [f"expected one uc result, got {len(results)}"]
    checks = results[0]["checks"]
    problems = [
        f"{key} gap {checks[key]}"
        for key in ("teleported_twin_identity", "entanglement_forms_identity")
        if not checks[key] < IDENTITY_TOL
    ]
    if checks["identities_ok"] is not True:
        problems.append("identities_ok is false")
    return problems


def uc_jobs(seed: int) -> list[Job]:
    from qauthlab.adversary import standard_suite

    load_fixture()
    jobs = []
    for attack in standard_suite(1, 3):
        argv = ["uc", "--m", "1", "--s", "3", "--family", FIXTURE, "--attack", attack.name(),
                "--input", f"random-{seed}", "--seed", str(seed)]
        jobs.append(Job(f"uc:{attack.name()}", lambda argv=argv: run_cli(argv),
                        exact_keys=frozenset({"epsilon", "epsilon_used"}), check=_uc_check))
    return jobs


def psqa_jobs(seed: int) -> list[Job]:
    from qauthlab import approx_psqa
    from qauthlab.adversary import standard_suite
    from qauthlab.qmath import haar_unitary

    family = load_fixture()
    # drawn as `qauthlab psqa --seed <seed> --K 16` draws them
    cipher = approx_psqa.sample_cipher(family.m, CIPHER_SIZE, seed)
    vec = haar_unitary(1 << family.m, np.random.default_rng(seed))[:, 0]

    def job(attack):
        rep = approx_psqa.psqa_advantage(vec, cipher, family, attack)
        return 0, json.loads(json.dumps(rep.to_json(), sort_keys=True))

    return [
        Job(f"psqa:{attack.name()}", lambda attack=attack: job(attack),
            exact_keys=frozenset({"epsilon_used"}))
        for attack in standard_suite(family.m, family.s)
        if attack.acts_on == ("T",)
    ]


def oracle_epsilon(code_list) -> float:
    """Independent numpy recomputation of ``verify_ptc``: the largest fraction
    of codes that miss one nontrivial Pauli error (zero syndrome, outside the
    stabilizer group)."""
    n = code_list[0].n
    side = 1 << n
    ex = np.arange(side, dtype=np.int64)[:, None]
    ez = np.arange(side, dtype=np.int64)[None, :]
    missed = np.zeros((side, side), dtype=np.int64)
    for code in code_list:
        silent = np.ones((side, side), dtype=bool)
        group = {(0, 0)}
        for g in code.generators:
            parity = (np.bitwise_count(ex & g.z) + np.bitwise_count(ez & g.x)) & 1
            silent &= parity == 0
            group |= {(x ^ g.x, z ^ g.z) for x, z in group}
        in_group = np.zeros((side, side), dtype=bool)
        for x, z in group:
            in_group[x, z] = True
        missed += silent & ~in_group
    missed[0, 0] = 0
    return int(missed.max()) / len(code_list)


def exhaustive_jobs(seed: int) -> list[Job]:
    from qauthlab import codes

    load_fixture()
    rng = np.random.default_rng(seed)
    families = [
        [codes.random_stabilizer_code(VERIFY_N, VERIFY_S, rng) for _ in range(VERIFY_CODES)]
        for _ in range(VERIFY_FAMILIES)
    ]
    oracle: dict[int, float] = {}

    def verify(i):
        return 0, {"epsilon": codes.verify_ptc(families[i])}

    def verify_check(i, report):
        if i not in oracle:
            oracle[i] = oracle_epsilon(families[i])
        eps = report["epsilon"]
        return [] if eps == oracle[i] else [f"verify_ptc gives {eps}, recomputation {oracle[i]}"]

    jobs = [
        Job(f"verify_ptc:{i:02d}", lambda i=i: verify(i), exact_keys=frozenset({"epsilon"}),
            check=lambda report, i=i: verify_check(i, report))
        for i in range(VERIFY_FAMILIES)
    ]

    def ptp_check(report):
        res = report["results"]
        return [] if res["within_epsilon"] is True else ["soundness exceeds epsilon"]

    jobs.append(Job("ptp-soundness", lambda: run_cli(["ptp-soundness", "--family", FIXTURE]),
                    seed_dependent=False, exact_keys=frozenset({"epsilon_verified"}),
                    check=ptp_check))
    wc_exact = frozenset({"advantage", "advantage_one_norm", "eps_asu2"})
    for bits, length in ((5, 1), (3, 2)):
        argv = ["wc", "--field-bits", str(bits), "--msg-len", str(length)]
        jobs.append(Job(f"wc:w{bits}-L{length}", lambda argv=argv: run_cli(argv),
                        seed_dependent=False, exact_keys=wc_exact))
    return jobs


def make_jobs(workload: str, seed: int) -> list[Job]:
    """Set up ``workload`` at ``seed`` and return its job list."""
    return {"uc-s3": uc_jobs, "psqa-s3": psqa_jobs, "exhaustive": exhaustive_jobs}[workload](seed)
