"""Every function in ``src/qauthlab`` is run by some CLI subcommand.

The experiments are what the package is for, so a module-level function or
a method of a module-level class that no subcommand enters is code only the
tests reach. The subcommands run once each, at small size, in a fresh
interpreter under ``sys.setprofile``: a fresh process, because the caches
(``cli.build_parser``, ``protocols._family_encoders``, ``_attack_pieces`` and
``_transfer``) would otherwise hide functions that an earlier test
already ran. ``ast`` then lists the ``def``s that were never entered.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# ``{family}`` and ``{out}`` are files in a scratch directory; the first
# command writes the family the later ones load
COMMANDS = (
    ("ptc", "--m", "1", "--s", "2", "--seed", "1", "--target-eps", "0.55", "--out", "{family}"),
    # this search repairs a code, which adds the code's own detection count
    # to the family's; it misses its target, so it exits 1
    ("ptc", "--m", "1", "--s", "1", "--seed", "1", "--target-eps", "0.4", "--budget", "3"),
    ("uc", "--family", "{family}", "--attack", "depol-0.5", "--input", "random-1"),
    ("uc", "--m", "1", "--s", "1", "--seed", "1", "--attack", "swap-held"),
    ("ptp-soundness", "--family", "{family}"),
    ("wc",),
    ("wc", "--leak-demo"),
    ("psqa", "--family", "{family}", "--attacks", "1", "--out", "{out}"),
    ("lemmas",),
)

# records the (file, first line) of every code object entered under the
# package directory, from before the package is imported
_PROFILED_RUN = r"""
import contextlib, io, json, sys
package, commands = sys.argv[1], json.loads(sys.argv[2])
entered = set()

def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(package):
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(profile)
from qauthlab import cli
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in commands:
        codes.append(cli.main(argv))
sys.setprofile(None)
print(json.dumps({"exit_codes": codes, "entered": sorted(entered)}))
"""


def _defs(path: Path):
    """(qualified name, first line) of each module-level ``def`` and each
    ``def`` in the body of a module-level class; the first line is the first
    decorator's, as in ``co_firstlineno``."""
    for node in ast.parse(path.read_text()).body:
        owner, body = ("", [node]) if not isinstance(node, ast.ClassDef) else (node.name + ".", node.body)
        for item in body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([item.lineno] + [d.lineno for d in item.decorator_list])
                yield owner + item.name, first


def never_entered(commands, scratch: Path, src: Path = SRC) -> list[str]:
    """Run ``commands`` in a fresh interpreter that imports ``src``'s
    package, and name each ``def`` of the package that none of them entered,
    as ``module.name`` or ``module.Class.name``."""
    package = (src / "qauthlab").resolve()
    files = {"family": str(scratch / "family.json"), "out": str(scratch / "report.json")}
    argvs = [[arg.format(**files) for arg in argv] for argv in commands]
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run(
        [sys.executable, "-c", _PROFILED_RUN, str(package) + os.sep, json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    result = json.loads(run.stdout.splitlines()[-1])
    # 0 or 1: the command ran to its report (2 and 3 stop before or inside it)
    assert set(result["exit_codes"]) <= {0, 1}, (result["exit_codes"], run.stderr)
    entered = {(file, line) for file, line in result["entered"]}
    return [
        f"{path.stem}.{name}"
        for path in sorted(package.glob("*.py"))
        for name, line in _defs(path)
        if (str(path), line) not in entered
    ]


def test_every_function_in_src_is_entered_by_a_subcommand(tmp_path):
    assert never_entered(COMMANDS, tmp_path) == []


def test_the_checker_names_what_a_subcommand_alone_runs(tmp_path):
    # negative control: without the wc commands the hash family is never built
    missing = never_entered([argv for argv in COMMANDS if argv[0] != "wc"], tmp_path)
    assert "classical_wc.poly_hash_family" in missing
