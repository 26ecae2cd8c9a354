"""Command-line front end: configure, run, and report the experiments.

Subcommands
-----------
ptc            search (or re-verify) a purity-test family and compare the
               measured detection-failure rate against the reference formula
uc             run the circuit-identity checks, entanglement advantages, and
               authentication advantages over an attack suite
ptp-soundness  exact worst-case soundness of a family's bilateral test
wc             classical authentication: exhaustive substitution advantage,
               or the key-leak exhibit with --leak-demo
psqa           pure-state authentication with a sampled cipher
lemmas         residuals of the two transpose identities on every matrix unit

Reports are JSON (one object per experiment, schema qauthlab-report/1, sorted
keys). Everything except the elapsed_seconds field is byte-identical across
reruns with the same seed and configuration. Exit codes: 0 all checks pass,
1 a bound or verification failed, 2 configuration error, 3 an internal
invariant failed (a fault in the program; the message names the check).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .adversary import AttackDescriptor, purified_input, standard_suite
from .approx_psqa import check_cipher_size, psqa_advantage, rsp_scale, rsp_twin_identity, sample_cipher
from .classical_wc import key_leak_demo, poly_hash_family, wc_kg_advantage
from .codes import PTC_MAX_N, PtcFamily, cost_formulas, ptc_epsilon_formula, search_ptc, verify_ptc
from .hybrid import InvariantError
from .protocols import ebit_ptc, ebit_ptp, run_qa_kg, run_tqa_kg
from .qmath import StateVector, haar_unitary, transpose_trick_residual, encoder_postselection_residual
from .ucharness import (
    STATE_LEVEL_MAX_N,
    ebit_report,
    ptp_soundness_exact,
    qa_kg_report,
    run_qa_kg_ideal,
)

PASS, BOUND_FAIL, CONFIG_FAIL, INVARIANT_FAIL = 0, 1, 2, 3

# The largest search ``--budget``; a larger one is refused as a configuration
# error before any work. On a 2-core x86 host with one BLAS thread, a
# family-search trial at n = 6 with a target it cannot reach takes 1.2 to
# 10.5 ms (m = 5, s = 1 to m = 1, s = 5), so this bounds a search at about
# 2 minutes.
MAX_BUDGET = 10**4


def _report(command: str, config: dict, results, started: float) -> dict:
    return {
        "schema": "qauthlab-report/1",
        "version": __version__,
        "command": command,
        "config": config,
        "elapsed_seconds": round(time.time() - started, 3),
        "results": results,
    }


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _load_or_search_family(args, max_n: int | None = None) -> PtcFamily:
    """The loaded or searched family; an ``--out`` that is or is not in a
    directory, with ``max_n`` a family on more than ``max_n`` qubits, a bad
    ``--input`` spec, an ``--attack`` outside the standard suite, more
    ``--attacks`` than the suite has T-only attacks, a cipher (``--K``) that
    ``approx_psqa.check_cipher_size`` refuses and a search ``--budget`` above
    MAX_BUDGET are refused before any search starts."""
    out = getattr(args, "out", None)
    if out and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or ".")):
        raise ValueError(f"--out {out!r} is a directory or not in one")
    family = PtcFamily.load(args.family) if getattr(args, "family", None) else None
    m, s = (family.m, family.s) if family is not None else (args.m, args.s)
    if max_n is not None and m + s > max_n:
        raise ValueError(
            f"{args.command} is limited to n <= {max_n}; this family has n = m + s = {m + s}"
        )
    if getattr(args, "cipher_size", None) is not None:
        check_cipher_size(m, args.cipher_size)
    if getattr(args, "input", None) is not None:
        purified_input(args.input, m)  # refuses a bad input spec before the search
    attack = getattr(args, "attack", "standard")
    if attack != "standard" and attack not in [a.name() for a in standard_suite(m, s)]:
        raise ValueError(f"no attack named {attack!r} in the standard suite")
    if getattr(args, "attacks", None) is not None:
        t_only = sum(a.acts_on == ("T",) for a in standard_suite(m, s))
        if args.attacks > t_only:
            raise ValueError(
                f"--attacks {args.attacks} is more than the {t_only} T-only attacks of the "
                f"standard suite at m = {m}, s = {s}"
            )
    if family is not None:
        return family
    if args.budget > MAX_BUDGET:
        raise ValueError(f"--budget {args.budget} is above the limit {MAX_BUDGET} search trials")
    target = args.target_eps if args.target_eps is not None else ptc_epsilon_formula(args.m, args.s)
    return search_ptc(args.m, args.s, target, budget=args.budget, seed=args.seed)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_ptc(args) -> int:
    started = time.time()
    family = _load_or_search_family(args)
    formula = ptc_epsilon_formula(family.m, family.s)
    re_eps = verify_ptc(family.codes)
    qubits, key_bits_formula = cost_formulas(family.m, family.s)
    stored_ok = re_eps == family.epsilon_verified
    meets_formula = re_eps <= formula + 1e-12
    results = {
        "family_size": len(family.codes),
        "epsilon_verified": family.epsilon_verified,
        "epsilon_reverified": re_eps,
        "epsilon_formula": formula,
        "meets_formula": meets_formula,
        # meets_formula cannot fail where the formula reads 1 or more
        "formula_vacuous": formula >= 1.0,
        "stored_matches_reverification": stored_ok,
        "met_target": family.met_target,
        "qubits_sent": qubits,
        # the verified family's key: a Pauli pad, a syndrome, a code index
        "key_bits": 2 * family.m + family.s + math.log2(len(family.codes)),
        "key_bits_formula": key_bits_formula,
    }
    if args.out:
        family.save(args.out)
    _emit(_report("ptc", _config_echo(args), results, started), None)
    return PASS if (stored_ok and meets_formula and family.met_target) else BOUND_FAIL


def _uc_single(family: PtcFamily, attack: AttackDescriptor, psi: StateVector) -> dict:
    # each final state is built once and shared by the checks that read it
    qa_real = run_qa_kg(psi, family, attack)
    ebit_real = ebit_ptp(family, attack)
    twin_gap = qa_real.distance(run_tqa_kg(psi, family, attack))
    forms_gap = ebit_ptc(family, attack).distance(ebit_real)
    ebit_rep = ebit_report(family, attack, ebit_real)
    extras = ebit_rep.extras
    # the overlap defect d = Tr[S_AB (I - perfect ebits)] of the accept-conditional state
    defect = extras["overlap_defect"]
    qa_rep = qa_kg_report(family, attack, qa_real, run_qa_kg_ideal(psi, family, attack))
    eps = family.epsilon_verified
    checks = {
        "teleported_twin_identity": twin_gap,
        "entanglement_forms_identity": forms_gap,
        "identities_ok": bool(twin_gap < 1e-9 and forms_gap < 1e-9),
        "factored_matches_direct": bool(abs(ebit_rep.advantage - extras["advantage_factored"]) < 1e-9),
        # the accept fidelity to perfect ebits (x) the E-marginal obeys F >= (1 - d)^2
        "fidelity_chain_ok": bool(extras["fidelity_acc"] >= (1.0 - defect) ** 2 - 1e-9),
        # the purity-test soundness statement: p_acc * (1 - <Phi|rho|Phi>) <= eps
        "acc_defect_ok": bool(ebit_rep.p_acc * defect <= eps + 1e-9),
    }
    # the four boolean checks (the other two are the distances they test)
    ok = all(v for v in checks.values() if isinstance(v, bool)) and ebit_rep.passed and qa_rep.passed
    return {
        "attack": attack.name(),
        "checks": checks,
        "ebit": ebit_rep.to_json(),
        "qa_kg": qa_rep.to_json(),
        "pass": bool(ok),
    }


def cmd_uc(args) -> int:
    started = time.time()
    family = _load_or_search_family(args, STATE_LEVEL_MAX_N)
    suite = [a for a in standard_suite(family.m, family.s) if args.attack in ("standard", a.name())]
    psi = purified_input(args.input, family.m)
    results = [_uc_single(family, attack, psi) for attack in suite]
    all_ok = all(r["pass"] for r in results)
    report = _report(
        "uc",
        _config_echo(args, family_size=len(family.codes), epsilon=family.epsilon_verified),
        results,
        started,
    )
    _emit(report, args.out)
    return PASS if all_ok else BOUND_FAIL


def cmd_ptp_soundness(args) -> int:
    started = time.time()
    family = _load_or_search_family(args, PTC_MAX_N)
    exact = ptp_soundness_exact(family)
    ok = exact <= family.epsilon_verified + 1e-9
    results = {
        "soundness_exact": exact,
        "epsilon_verified": family.epsilon_verified,
        "within_epsilon": bool(ok),
    }
    _emit(_report("ptp-soundness", _config_echo(args), results, started), None)
    return PASS if ok else BOUND_FAIL


def cmd_wc(args) -> int:
    started = time.time()
    family = poly_hash_family(args.field_bits, args.msg_len)
    if args.leak_demo:
        leak = key_leak_demo(family)
        results, passed = {"family": family.label, "eps_asu2": family.eps_asu2, "leak": leak}, leak["pass"]
    else:
        rep = wc_kg_advantage(family)
        results, passed = {"advantage": rep}, rep["pass"]
    _emit(_report("wc", _config_echo(args), results, started), None)
    return PASS if passed else BOUND_FAIL


def cmd_psqa(args) -> int:
    started = time.time()
    family = _load_or_search_family(args, STATE_LEVEL_MAX_N)
    cipher = sample_cipher(family.m, args.cipher_size, args.seed)
    rng = np.random.default_rng(args.seed)
    vec = haar_unitary(1 << family.m, rng)[:, 0]
    suite = standard_suite(family.m, family.s)
    picks = [a for a in suite if a.acts_on == ("T",)][: args.attacks]
    results = []
    for attack in picks:
        rep = psqa_advantage(vec, cipher, family, attack).to_json()
        # the remote-preparation twin against the protocol, like uc's
        # teleported_twin_identity
        twin_gap = rsp_twin_identity(vec, cipher, family, attack)
        results.append({**rep, "rsp_twin_identity": twin_gap, "pass": bool(rep["pass"] and twin_gap < 1e-9)})
    all_ok = all(r["pass"] for r in results)
    report = _report(
        "psqa",
        _config_echo(
            args,
            delta_measured=cipher.delta_measured,
            failure_probability=rsp_scale(cipher, vec)[-1],
        ),
        results,
        started,
    )
    _emit(report, args.out)
    return PASS if all_ok else BOUND_FAIL


def cmd_lemmas(args) -> int:
    started = time.time()
    # both residuals are norms of a map linear in the matrix, so a map that
    # vanishes on every matrix unit of a shape (the rows of an identity,
    # reshaped) vanishes on every matrix of that shape
    worst_relocate = max(
        transpose_trick_residual(unit)
        for d1 in range(1, 7)
        for d2 in range(1, 7)
        for unit in np.eye(d2 * d1).reshape(-1, d2, d1)
    )
    worst_post = max(
        encoder_postselection_residual(unit, y, d, d2)
        for d in (2, 3)
        for d2 in (2, 3)
        for unit in np.eye((d * d2) ** 2).reshape(-1, d * d2, d * d2)
        for y in range(d)
    )
    ok = worst_relocate < 1e-12 and worst_post < 1e-12
    results = {
        "relocation_identity_max_residual": worst_relocate,
        "postselection_identity_max_residual": worst_post,
        "tolerance": 1e-12,
        "pass": bool(ok),
    }
    _emit(_report("lemmas", _config_echo(args), results, started), None)
    return PASS if ok else BOUND_FAIL


def _config_echo(args, **extra) -> dict:
    skip = {"func"}
    cfg = {k: v for k, v in vars(args).items() if k not in skip and v is not None}
    cfg.update(extra)
    return cfg


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _positive(text: str) -> int:
    """argparse type: an int of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not at least 1")
    return value


def _family_args(sub):
    sub.add_argument("--m", type=_positive, default=1, help="logical qubits")
    sub.add_argument("--s", type=_positive, default=2, help="syndrome qubits")
    sub.add_argument("--family", type=str, default=None, help="load a saved family JSON")
    sub.add_argument("--target-eps", type=float, default=None, dest="target_eps",
                     help="search target (default: the reference formula value)")
    sub.add_argument("--budget", type=_positive, default=200, help="search trials")
    sub.add_argument("--seed", type=int, default=0, help="seed (mandatory for randomized steps)")


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (``parse_args`` does not
    change it)."""
    parser = argparse.ArgumentParser(
        prog="qauthlab",
        description="quantum message authentication with key recycling: "
        "executable checks at small qubit counts",
    )
    parser.add_argument("--version", action="version", version=f"qauthlab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("ptc", help="search/verify a purity-test family")
    _family_args(p)
    p.add_argument("--out", type=str, default=None, help="write the family JSON here")
    p.set_defaults(func=cmd_ptc)

    p = subs.add_parser("uc", help="identity checks and security bounds over a suite")
    _family_args(p)
    p.add_argument("--suite", type=str, default="standard", choices=["standard"])
    p.add_argument("--attack", type=str, default="standard",
                   help="one attack label from the suite, or 'standard' for all")
    p.add_argument("--input", type=str, default="entangled",
                   help="message input spec: basis-<k> | plus | entangled | random-<seed>")
    p.add_argument("--out", type=str, default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_uc)

    p = subs.add_parser("ptp-soundness", help="exact worst-case soundness of a family")
    _family_args(p)
    p.set_defaults(func=cmd_ptp_soundness)

    p = subs.add_parser("wc", help="classical authentication with key recycling")
    p.add_argument("--field-bits", type=int, default=3, dest="field_bits")
    p.add_argument("--msg-len", type=int, default=1, dest="msg_len")
    p.add_argument("--leak-demo", action="store_true", dest="leak_demo")
    p.set_defaults(func=cmd_wc)

    p = subs.add_parser("psqa", help="pure-state authentication with a sampled cipher")
    _family_args(p)
    p.add_argument("--K", type=_positive, default=16, dest="cipher_size", help="cipher size")
    p.add_argument("--attacks", type=_positive, default=6, help="number of suite attacks to run")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_psqa)

    p = subs.add_parser("lemmas", help="transpose-identity residuals on every matrix unit")
    p.set_defaults(func=cmd_lemmas)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, matching our configuration-error code
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InvariantError, KeyError) as exc:
        # no input path raises KeyError (family files report CodeError), so
        # one is a fault in the program, such as a record_get miss
        print(f"internal invariant violated: {exc!r}", file=sys.stderr)
        return INVARIANT_FAIL
    except MemoryError as exc:
        # a configuration above a cost limit is refused before any work, so
        # running out of memory is a fault in the program, not a failed bound
        print(f"internal invariant violated: {args.command} ran out of memory ({exc!r})", file=sys.stderr)
        return INVARIANT_FAIL
    except (ValueError, OSError) as exc:
        # OSError: a --family or --out path that is missing, a directory or unreadable
        print(f"configuration error: {exc}", file=sys.stderr)
        return CONFIG_FAIL


if __name__ == "__main__":
    sys.exit(main())
