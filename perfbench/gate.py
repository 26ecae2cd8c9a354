"""Correctness gate for benchmark jobs.

A job's report is checked in two ways. Against a stored reference (reports
recorded from the same job list at the default seed): numbers agree to 1e-12,
while booleans, strings, integers and the fields named as exact rationals
(epsilon values, classical advantages) agree exactly; ``elapsed_seconds`` is
ignored. And on its own terms at every seed: the exit code is 0, no ``pass``
flag anywhere in the report is false, and the job's extra checks (identity
gaps, independent recomputation) hold.
"""

from __future__ import annotations

import copy
import math

TOLERANCE = 1e-12
IGNORED = frozenset({"elapsed_seconds"})


def compare(report, reference, exact_keys=frozenset(), path="") -> list[str]:
    """Every place where ``report`` deviates from ``reference``."""
    if isinstance(reference, dict):
        if not isinstance(report, dict):
            return [f"{path}: expected an object"]
        keys = (set(reference) | set(report)) - IGNORED
        out: list[str] = []
        for key in sorted(keys):
            if key not in report or key not in reference:
                out.append(f"{path}/{key}: present on one side only")
            else:
                out += compare(report[key], reference[key], exact_keys, f"{path}/{key}")
        return out
    if isinstance(reference, list):
        if not isinstance(report, list) or len(report) != len(reference):
            return [f"{path}: expected a list of {len(reference)}"]
        out = []
        for i, (got, want) in enumerate(zip(report, reference)):
            out += compare(got, want, exact_keys, f"{path}[{i}]")
        return out
    if isinstance(reference, float) and not isinstance(report, bool) and isinstance(report, (int, float)):
        exact = path.rsplit("/", 1)[-1] in exact_keys
        ok = report == reference if exact else math.isclose(
            report, reference, rel_tol=0.0, abs_tol=TOLERANCE * max(1.0, abs(reference))
        )
        return [] if ok else [f"{path}: {report!r} != {reference!r}"]
    if type(report) is not type(reference) or report != reference:
        return [f"{path}: {report!r} != {reference!r}"]
    return []


def false_pass_flags(report, path="") -> list[str]:
    """Paths of every ``pass`` field that is not true."""
    out: list[str] = []
    if isinstance(report, dict):
        for key, value in report.items():
            if key == "pass" and value is not True:
                out.append(f"{path}/pass is {value!r}")
            out += false_pass_flags(value, f"{path}/{key}")
    elif isinstance(report, list):
        for i, value in enumerate(report):
            out += false_pass_flags(value, f"{path}[{i}]")
    return out


def check(job, exit_code: int, report, reference) -> list[str]:
    """All reasons the job counts as failed; empty when it passed."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    if report is None:
        return problems + ["no report"]
    problems += false_pass_flags(report)
    problems += job.check(report)
    if reference is not None:
        problems += compare(report, reference, job.exact_keys)
    return problems


def _first_leaf(node, want):
    """(container, key) of the first leaf for which ``want(key, value)`` holds."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        if isinstance(value, (dict, list)):
            found = _first_leaf(value, want)
            if found:
                return found
        elif want(key, value):
            return node, key
    return None


def _mutant(report, want):
    """A copy of ``report`` with its first ``want`` leaf flipped or moved by 1e-9."""
    mutated = copy.deepcopy(report)
    leaf = _first_leaf(mutated, want)
    if leaf is None:
        return None
    node, key = leaf
    node[key] = (not node[key]) if isinstance(node[key], bool) else node[key] + 1e-9
    return mutated


def negative_control(jobs, references) -> dict[str, tuple[str, bool]]:
    """Feed the gate one reference with a number moved by 1e-9 (a toleranced
    number where the workload has one) and one with a ``pass`` flag flipped;
    report, for each, the job used and whether the gate counted it as failed."""

    def toleranced(job):
        return lambda k, v: isinstance(v, float) and k not in job.exact_keys | IGNORED

    def any_number(job):
        return lambda k, v: isinstance(v, float) and k not in IGNORED

    def pass_flag(job):
        return lambda k, v: k == "pass" and isinstance(v, bool)

    result = {}
    for label, kinds in (("number_moved_1e-9", (toleranced, any_number)),
                         ("pass_flipped", (pass_flag,))):
        candidates = ((job, _mutant(references[job.name], kind(job))) for kind in kinds for job in jobs)
        job, mutated = next(((j, m) for j, m in candidates if m is not None), (None, None))
        if job is None:
            result[label] = ("no job has such a field", False)
        else:
            result[label] = (job.name, bool(check(job, 0, mutated, references[job.name])))
    return result
