"""Source mutants and the tests that must kill them.

Each entry of MUTANTS is one edit of one source file: the old text (found
there exactly once), the new text, and the test expected to fail on the
edited source. ``python tests/mutants.py`` runs each entry in its own copy
of the repository in a temporary directory: the named test must pass there
as it is, and fail once the edit is applied. It exits 1 if any named test
passes on its mutant (the mutant survives), fails without it, or any old
text is not found exactly once. The catalogue starts with the mutants in
the engine's branch path, which the per-branch records of the key sweep
used to guard: each check that replaced them is seen to fail. Then come
``ebit_ptp``'s reject record (I/d on A times one Gram of the other registers
but B), the fixed states that ``FinalState.replaced`` puts on records
(EBIT-PTC's I/d on reject, the ideal's perfect ebits on accept), the blocks
that ``hybrid._blocks`` builds on kept registers only (from the Gram the
transfer traced over the receiver), corrects on a kept receiver once they
are sorted (fix[v] on the rows of the block, then on those of its conjugate
transpose) and that ``key_sweep`` sums per record, run after run of key
values, the check that every key of ``key_sweep`` is a complete instrument,
the transpose in the failure element of ``approx_psqa.rsp_key``, the runs of
records of ``FinalState.distance``, the field product's reduction, the two
counts of the classical family's one pass over message pairs and their bin
offsets, the generator labels that the family parser reads, the commutation
and span test that every code passes (``codes._admits``), the refusal of a
family whose codes differ in size, of a family file whose declared m, s or
schema differs from its codes', or of a code whose generator texts differ in
length, the halves of the detection count's character sum over each code's
stabilizer group, the key that ``ptc`` reports for the family it verified,
the XOR blocks of the soundness operator Omega, the probe that stands in for
its entries off the blocks, ``uc``'s ``identities_ok``,
``factored_matches_direct``, ``fidelity_chain_ok`` and ``acc_defect_ok`` and
``psqa``'s gate on ``rsp_twin_identity`` at their tolerances of 1e-9, and the
verdicts of ``ptp-soundness`` (``within_epsilon``), of each ``uc`` advantage
report and of the classical family's advantage.

Run it from anywhere; it takes about two to three minutes on one core.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    test: str


MUTANTS = (
    # the transfer's branch layout: y and ysyn swapped. Every report moves by
    # at most roundoff (the two axes are summed over alike), so only a
    # bit-for-bit comparison of the chunks sees it
    Mutant(
        "transfer-swaps-y-and-ysyn",
        "src/qauthlab/protocols.py",
        ".transpose(0, 6, 2, 1, 3, 4, 5, 7)",
        ".transpose(0, 2, 6, 1, 3, 4, 5, 7)",
        "tests/test_transfer_oracle.py",
    ),
    # the accept class: y == ysyn + 1 instead of y == ysyn
    Mutant(
        "accept-class-off-the-diagonal",
        "src/qauthlab/protocols.py",
        "np.eye(dy, dtype=bool)",
        "np.eye(dy, k=1, dtype=bool)",
        "tests/test_key_sweep_oracle.py::test_the_transfer_holds_its_two_verdict_classes",
    ),
    # ebit_ptp's accept weights without the receiver's syndrome probability
    Mutant(
        "ebit-ptp-accept-weight-drops-the-receiver",
        "src/qauthlab/protocols.py",
        "weights = p[ts, ys] / len(encs)",
        "weights = p_y[ts, ys] / len(encs)",
        "tests/test_ebit_ptp_bits.py::test_accept_blocks_bitwise_and_reject_blocks_close",
    ),
    # ebit_ptp's accept blocks summed last branch first: the same terms in
    # another order, which only the bit-for-bit comparison sees
    Mutant(
        "ebit-ptp-accept-sum-reversed",
        "src/qauthlab/protocols.py",
        "np.add.reduce(rhos[start : k + 1], axis=0)",
        "np.add.reduce(rhos[start : k + 1][::-1], axis=0)",
        "tests/test_ebit_ptp_bits.py::test_accept_blocks_bitwise_and_reject_blocks_close",
    ),
    # ebit_ptp's reject record: I/d on A without its 1/d
    Mutant(
        "ebit-ptp-reject-identity-on-a",
        "src/qauthlab/protocols.py",
        "np.kron(np.eye(dm) / dm, rejected)",
        "np.kron(np.eye(dm), rejected)",
        "tests/test_ebit_ptp_bits.py::test_accept_blocks_bitwise_and_reject_blocks_close",
    ),
    # ebit_ptp's reject Gram with the accept branches (y == ysyn) left in
    Mutant(
        "ebit-ptp-reject-gram-keeps-the-accept-diagonal",
        "src/qauthlab/protocols.py",
        "        got[:, diag, diag] = 0.0\n",
        "",
        "tests/test_ebit_ptp_bits.py::test_accept_blocks_bitwise_and_reject_blocks_close",
    ),
    # ebit_ptc's error state without I/d on A (ebit_ptp builds its own):
    # the bilateral form, which mixes A itself, no longer matches it
    Mutant(
        "ebit-reject-keeps-a",
        "src/qauthlab/protocols.py",
        "    return final.replaced(",
        "    return final\n    return final.replaced(",
        "tests/test_protocols.py::test_entanglement_forms_identity_per_attack",
    ),
    # _blocks with the receiver's correction skipped where the receiver is
    # kept (where it is dropped, it cancels and is skipped anyway)
    Mutant(
        "blocks-skip-the-correction-on-a-kept-receiver",
        "src/qauthlab/hybrid.py",
        "        for _ in range(2):\n"
        "            rho = np.matmul(fix, rho.reshape(n, before, dim, after * d)).reshape(n, d, d)\n"
        "            rho = np.conjugate(rho, out=rho).transpose(0, 2, 1).copy()\n",
        "",
        "tests/test_blocks_oracle.py::test_blocks_match_the_build_then_trace_oracle",
    ),
    # the receiver corrected through the plain transpose, not the conjugate
    # one, which is F rho F^T: the Pauli pads are real, so only the psqa
    # sweeps' Haar cipher sees it
    Mutant(
        "blocks-receiver-correction-without-conj",
        "src/qauthlab/hybrid.py",
        "rho = np.conjugate(rho, out=rho).transpose(0, 2, 1).copy()",
        "rho = rho.transpose(0, 2, 1).copy()",
        "tests/test_blocks_oracle.py::test_blocks_match_the_build_then_trace_oracle[run_psqa_kg]",
    ),
    # the transfer's Gram for records that drop the receiver traced over E
    # instead of the receiver
    Mutant(
        "transfer-traces-e-for-the-receiver",
        "src/qauthlab/hybrid.py",
        'at = reg_positions(self.out, ("T",))',
        'at = reg_positions(self.out, ("E",))',
        "tests/test_blocks_oracle.py::test_blocks_match_the_build_then_trace_oracle",
    ),
    # a record of several key values (a REJ record over the pads) keeps only
    # the block of its first value
    Mutant(
        "key-sweep-record-keeps-its-first-row",
        "src/qauthlab/hybrid.py",
        "rho = rhos[start] if n == 1 else np.add.reduce(rhos[start : start + n])",
        "rho = rhos[start]",
        "tests/test_key_sweep_oracle.py::test_engine_matches_the_per_slice_oracle",
    ),
    # key_sweep skips its last run of key values: one value per run at
    # budget 1, so a pad's blocks go missing
    Mutant(
        "key-sweep-skips-the-last-run-of-key-values",
        "src/qauthlab/hybrid.py",
        "for lo in range(0, len(vals), per):",
        "for lo in range(0, len(vals) - per, per):",
        "tests/test_transfer_oracle.py::test_one_code_key_value_and_record_per_run_match_the_default_budget",
    ),
    # FinalState.distance skips its last run of records of each shape: one
    # record per run at budget 1, so that record counts 0
    Mutant(
        "distance-skips-the-last-run-of-records",
        "src/qauthlab/hybrid.py",
        "for lo in range(0, len(at), per):",
        "for lo in range(0, len(at) - per, per):",
        "tests/test_hybrid.py::test_distance_matches_the_per_record_svd_sum",
    ),
    # _blocks summing the dropped input-side registers against the wrong
    # axis of the first product
    Mutant(
        "blocks-sum-dropped-inputs-against-the-output",
        "src/qauthlab/hybrid.py",
        "    if dg > 1:\n        half = half.transpose(0, 1, 2, 4, 3, 5)\n",
        "",
        "tests/test_blocks_oracle.py::test_blocks_match_the_build_then_trace_oracle",
    ),
    # key_sweep applies a key without checking that it is a complete
    # instrument: a pad missing a unitary still fails the total weight, but
    # not with the completeness check's message
    Mutant(
        "key-sweep-skips-the-instrument-check",
        "src/qauthlab/hybrid.py",
        "if not defect <= 1e-10:",
        "if False:",
        "tests/test_hybrid.py::test_key_sweep_refuses_a_key_that_is_not_a_complete_instrument",
    ),
    # the preparation measurement's failure element F = I - S/M, without the
    # transpose of S: the total weight is blind to it (S and S^T weigh alike
    # on half of a maximally entangled pair), and the exact cipher's S = 2I
    # is symmetric, so only a sampled cipher shows it
    Mutant(
        "rsp-failure-element-untransposed",
        "src/qauthlab/approx_psqa.py",
        "np.eye(d, dtype=complex) - total.T / scale",
        "np.eye(d, dtype=complex) - total / scale",
        "tests/test_approx_psqa.py::test_rsp_scale_reads_the_keys_failure_element",
    ),
    # the ideal's perfect ebits put on the reject records, which hold no B
    Mutant(
        "ebit-ideal-phi-on-reject",
        "src/qauthlab/ucharness.py",
        "real.replaced(_is_acc,",
        "real.replaced(lambda rec: not _is_acc(rec),",
        "tests/test_ucharness.py::test_eta_ideal_puts_perfect_ebits_on_accept_only",
    ),
    # the field product without its reduction by the polynomial
    Mutant(
        "gf-mul-without-the-reduction",
        "src/qauthlab/classical_wc.py",
        "        a = a ^ (a >> w) * poly\n",
        "",
        "tests/test_classical_wc.py::test_field_arithmetic",
    ),
    # the joint tag pair (a, b) read as the sum a + b, which merges pairs
    Mutant(
        "wc-joint-count-merges-tag-pairs",
        "src/qauthlab/classical_wc.py",
        "np.add(later, table[i] * width, out=out)",
        "np.add(later, table[i], out=out)",
        "tests/test_classical_wc.py::test_pair_counts_match_a_scalar_count",
    ),
    # the joint count's rows offset by width, not width^2: the bins of one
    # later message overlap those of the next
    Mutant(
        "wc-joint-bin-offset-by-width",
        "src/qauthlab/classical_wc.py",
        "joint_rows = np.arange(nm - 1)[:, None] * (width * width)",
        "joint_rows = np.arange(nm - 1)[:, None] * width",
        "tests/test_classical_wc.py::test_pair_counts_match_a_scalar_count",
    ),
    # every later message's tag differences taken against x_0, not x_i
    Mutant(
        "wc-hits-count-against-the-first-message",
        "src/qauthlab/classical_wc.py",
        "np.bitwise_xor(later, table[i], out=out)",
        "np.bitwise_xor(later, table[0], out=out)",
        "tests/test_classical_wc.py::test_pair_counts_match_a_scalar_count",
    ),
    # the family parser's label with its halves swapped, z << n | x: the
    # code checks are blind to it (swapping every label's halves keeps
    # commutation and independence), the parsed labels are not
    Mutant(
        "parser-label-z-over-x",
        "src/qauthlab/codes.py",
        "tuple(p.x << n | p.z for p in paulis)",
        "tuple(p.z << n | p.x for p in paulis)",
        "tests/test_codes.py::test_generator_text_parses_to_x_over_z",
    ),
    # the commutation test of _admits with its halves swapped: the parity of
    # (x & X) ^ (z & Z), which admits X and Z on one qubit together
    Mutant(
        "admits-commutation-halves-swapped",
        "src/qauthlab/codes.py",
        "((x & g) ^ (z & g >> n))",
        "((x & g >> n) ^ (z & g))",
        "tests/test_codes.py::test_code_validation",
    ),
    # _admits without the pivot reduction: only label 0 is refused as lying
    # in the span, so a repeated or product generator is admitted
    Mutant(
        "admits-skips-the-pivot-reduction",
        "src/qauthlab/codes.py",
        "        row = min(row, row ^ p)\n",
        "        pass\n",
        "tests/test_codes.py::test_code_validation",
    ),
    # a family whose codes differ in size is built, and the encoders of its
    # codes are stacked before anything refuses it
    Mutant(
        "family-skips-the-mixed-size-check",
        "src/qauthlab/codes.py",
        "        _parameters(self.codes)\n",
        "",
        "tests/test_cli.py::test_family_file_of_mixed_code_sizes_exits_two_before_any_encoder",
    ),
    # a family file's declared m, s and schema are never compared with its
    # codes, so a file declaring another size loads as its codes' size
    Mutant(
        "family-skips-the-declared-parameter-check",
        "src/qauthlab/codes.py",
        "            if name in payload and (type(payload[name]) is not type(value) or payload[name] != value):",
        "            if False:",
        "tests/test_codes.py::test_a_declared_parameter_the_codes_disagree_with_is_refused",
    ),
    # the parser reads a code's n from its first generator text alone
    Mutant(
        "parser-skips-the-text-length-check",
        "src/qauthlab/codes.py",
        "            if len(lengths) != 1:",
        "            lengths = {paulis[0].n} if paulis else lengths\n            if len(lengths) != 1:",
        "tests/test_codes.py::test_a_code_whose_generator_texts_differ_in_length_is_refused",
    ),
    # the character sum with the two halves of the group labels swapped:
    # rows x meet the X halves and columns z the Z halves
    Mutant(
        "character-sum-swaps-the-halves",
        "src/qauthlab/codes.py",
        "sign @ counts.T @ sign",
        "sign @ counts @ sign",
        "tests/test_codes.py::test_missed_counts_match_the_int64_form",
    ),
    # ptc's key priced at the formula's 2^s + 1 codes, not the family's size
    Mutant(
        "ptc-key-bits-from-the-formula",
        "src/qauthlab/cli.py",
        "math.log2(len(family.codes))",
        "math.log2(2**family.s + 1)",
        "tests/test_cli.py::test_ptc_reports_the_key_of_the_family_it_verified",
    ),
    # the soundness probe compares the blocks applied to a (x) b with
    # themselves, not with Omega (a (x) b) from the projectors
    Mutant(
        "soundness-probe-compares-the-blocks-with-themselves",
        "src/qauthlab/ucharness.py",
        "np.abs(routed - probe[np.arange(dt), xor])",
        "np.abs(routed - routed)",
        "tests/test_ucharness.py::test_soundness_refuses_entries_off_the_xor_blocks",
    ),
    # the blocks' first term from M_c, not M_(i ^ k)
    Mutant(
        "soundness-blocks-first-term-reads-m-c",
        "src/qauthlab/ucharness.py",
        "first = grams[xor, ar[:, None], xor[:, :, None]]",
        "first = grams[ar[:, None, None], ar[:, None], xor[:, :, None]]",
        "tests/test_ucharness.py::test_gram_soundness_operator_matches_the_accept_decoder_stack",
    ),
    # the blocks' Phi term without its 2^-m
    Mutant(
        "soundness-blocks-drop-the-two-to-the-minus-m",
        "src/qauthlab/ucharness.py",
        "blocks = first - grams * (1.0 / dm)",
        "blocks = first - grams",
        "tests/test_ucharness.py::test_gram_soundness_operator_matches_the_accept_decoder_stack",
    ),
    # identities_ok loosened from 1e-9 to 1e-3: only a tampered form whose
    # gap lies between the two tells them apart
    Mutant(
        "identities-ok-loosened-to-1e-3",
        "src/qauthlab/cli.py",
        "bool(twin_gap < 1e-9 and forms_gap < 1e-9)",
        "bool(twin_gap < 1e-3 and forms_gap < 1e-3)",
        "tests/test_cli.py::test_uc_small_forms_gap_fails_identities_ok",
    ),
    # factored_matches_direct loosened from 1e-9 to 1e-3: a factored form
    # read 1e-6 too high tells them apart
    Mutant(
        "factored-matches-direct-loosened-to-1e-3",
        "src/qauthlab/cli.py",
        'abs(ebit_rep.advantage - extras["advantage_factored"]) < 1e-9',
        'abs(ebit_rep.advantage - extras["advantage_factored"]) < 1e-3',
        "tests/test_cli.py::test_uc_small_factored_gap_fails_factored_matches_direct",
    ),
    # fidelity_chain_ok loosened from 1e-9 to 1e-2: an accept fidelity read
    # 1e-6 too low tells them apart
    Mutant(
        "fidelity-chain-ok-loosened-to-1e-2",
        "src/qauthlab/cli.py",
        'extras["fidelity_acc"] >= (1.0 - defect) ** 2 - 1e-9',
        'extras["fidelity_acc"] >= (1.0 - defect) ** 2 - 1e-2',
        "tests/test_cli.py::test_uc_small_fidelity_dip_fails_fidelity_chain_ok",
    ),
    # acc_defect_ok loosened from 1e-9 to 1e-1: X0's soundness product of
    # 0.25 against a stated eps of 0.2 tells them apart
    Mutant(
        "acc-defect-ok-loosened-to-1e-1",
        "src/qauthlab/cli.py",
        "ebit_rep.p_acc * defect <= eps + 1e-9",
        "ebit_rep.p_acc * defect <= eps + 1e-1",
        "tests/test_cli.py::test_uc_understated_epsilon_exits_one",
    ),
    # psqa's gate on rsp_twin_identity loosened from 1e-9 to 1e-3: a twin
    # mixed with 1e-6 of I/d on accept tells them apart
    Mutant(
        "psqa-twin-gate-loosened-to-1e-3",
        "src/qauthlab/cli.py",
        'rep["pass"] and twin_gap < 1e-9',
        'rep["pass"] and twin_gap < 1e-3',
        "tests/test_cli.py::test_psqa_small_twin_gap_fails_the_attack",
    ),
    # ptp-soundness's verdict passes whatever the exact value
    Mutant(
        "ptp-soundness-within-epsilon-always-true",
        "src/qauthlab/cli.py",
        "ok = exact <= family.epsilon_verified + 1e-9",
        "ok = True",
        "tests/test_cli.py::test_ptp_soundness_understated_epsilon_exits_one",
    ),
    # every advantage report passes whatever its bound
    Mutant(
        "advantage-report-always-passes",
        "src/qauthlab/ucharness.py",
        "passed=bool(advantage <= bound + ADVANTAGE_TOL),",
        "passed=True,",
        "tests/test_cli.py::test_uc_understated_epsilon_fails_both_bounds",
    ),
    # the classical family's advantage passes whatever its stated eps_asu2
    Mutant(
        "wc-advantage-always-passes",
        "src/qauthlab/classical_wc.py",
        '"pass": best <= family.eps_asu2 + 1e-12,',
        '"pass": True,',
        "tests/test_classical_wc.py::test_an_understated_eps_fails_the_advantage_check",
    ),
)

IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "perfbench-out")


def _pytest(copy: Path, test: str) -> int:
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test]
    return subprocess.run(command, cwd=copy, env=env, capture_output=True, timeout=1200).returncode


def run(mutant: Mutant, workdir: Path) -> str:
    """Run ``mutant``'s test in a copy of the repository under ``workdir``,
    before and after the edit: "killed", "SURVIVED", or what went wrong."""
    copy = workdir / mutant.name
    shutil.copytree(ROOT, copy, ignore=IGNORED)
    source = copy / mutant.path
    text = source.read_text()
    if text.count(mutant.old) != 1:
        return f"NOT APPLIED: the old text occurs {text.count(mutant.old)} times in {mutant.path}"
    if _pytest(copy, mutant.test) != 0:
        return "ERROR: the test fails without the mutant"
    source.write_text(text.replace(mutant.old, mutant.new))
    # pytest exits 1 when a test fails; any other code is a collection or
    # usage error, which kills nothing
    code = _pytest(copy, mutant.test)
    return {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR: pytest exited {code}")


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        for mutant in MUTANTS:
            verdict = run(mutant, Path(tmp))
            failed += verdict != "killed"
            print(f"{mutant.name}: {verdict} ({mutant.test})", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
