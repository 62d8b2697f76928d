"""The CLI transcript: the exit code, stdout and stderr of a fixed list of
pin2k calls, each run in process through cli.main.

    python tests/cli_transcript.py

rewrites tests/golden/cli_transcript.txt, which tests/test_cli.py compares
with a fresh transcript byte for byte.  Each call is written as its command
line after "$ ", then its stdout as printed, then each stderr line after
"! ", then "exit N" and a blank line.  The calls are every README command,
every xi row, the brieskorn classes of a few m, every bounds and bauer
action, ring and ideal examples, one input per error class of the README's
exit codes that an input can reach, and one call per usage message.  No
call asks for --help, whose layout is argparse's.
"""

import contextlib
import io
import itertools
import os
import re
import shlex
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "cli_transcript.txt"
README = HERE.parent / "README.md"


def readme_commands():
    """The pin2k lines of README's sh blocks."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    return [line for block in blocks for line in block.splitlines() if line.startswith("pin2k ")]


BRIESKORN_M = [7, 11, 13, 17, 23, 25, 601, 4001]
BOUNDS = [
    "definite --kappa0 2 --kappa1 0 --b2 8",
    "definite --kappa0 0 --kappa1 2 --b2 8",
    "relative --kappa0 0 --kappa1 2 --p 1 --q 1",
    "relative --kappa0 0 --kappa1 0 --p 3 --q 2",
    "relative --p -3 --q -5",
    "split --p 1 --q 1 --kappa1 2",
    "split --p 2 --q 2 --non-split --refined",
    "furuta --p 2 --q 3",
    "furuta --p 2 --q 2",
    "conjecture --p 2 --q 5",
    "conjecture --p 2 --q 3",
    "orbifold --p 1 --q 2 --b2plus 1 --mubar 2",
    "orbifold --p 2 --q 1",
    "orbifold --q 1 --b2plus -4",
    "rokhlin --kappa0 0 --kappa1 1 --p 1",
    "rokhlin --kappa0 0 --kappa1 0 --p 1",
    "bohr-lee --kappa 3",
]
BAUER = [
    "canonical",
    "canonical --pieces 4",
    "canonical --pieces 3 --non-split-boundary 2",
    "check --chain '[{\"p\":2,\"q\":3,\"boundary\":{\"kappa\":0,\"kg_split\":true,\"name\":\"S3\"}},{\"p\":0,\"q\":1}]'",
]
RING = ["(1 - w)*(1 - w)", "z^3 - 2*w", "h^2 - c~", "-1 + z", "(1+z)^5*w"]
IDEAL_GENS = ["w,z", "z^2, 2*z, 4", "4*w, z^2", "z - 2"]
IDEAL_CONTAINS = ["--gens z^2 --element 2*w", "--gens '2*w, z^3' --element 'z^4 + 4*w'"]
ERRORS = [
    # a domain error, a parse error with its byte offset, and each input bound
    "ideal k --gens 3*z",
    "ring eval 'w +'",
    "bauer check --chain '{\"p\":1}'",
    "bauer check --chain '[{\"p\":2,\"q\":3,\"boundry\":{\"kappa\":-9,\"kg_split\":true}}]'",
    "bauer check --chain '[{\"p\":2,\"q\":2,\"q\":3}]'",
    "bauer check --chain '[{\"p\":1,\"q\":-1}]'",
    "ring eval " + "(" * 101 + "1" + ")" * 101,
    "ring eval 2^99999999999",
    "ring eval '(%s)^264'" % " + ".join(f"z^{k}" for k in range(16)),
    "ring wmul '(1+z)^2046*(1+z)^2046'",
    "ring wmul '((1+z)^2046+0)*((1+z)^2046+0)'",
    "ring restrict z^2000000",
    "ideal info --gens 'z^2000+1,2'",
    "ring eval " + "+".join(["z^2000000"] * 100),
    "ideal k --gens " + ",".join(["z^2000000"] * 100),
    "ring eval １２",
    "bauer canonical --pieces 3 --non-split-boundary 7",
    "ring eval " + "7" * 5000,
    "ring eval 2^20000",
    "brieskorn kappa 2 3 1000001",
    "brieskorn kappa 2 5 11",
    "xi show 'Sigma(2,3,9)'",
    "brieskorn table --max-m 100001",
    "bauer canonical --pieces 100001",
    "PIN2K_KMAX=257 pin2k ideal witness --gens 1",
    "PIN2K_KMAX=2 pin2k ideal witness --gens z^3",
]
USAGE = [
    "",
    "ring",
    "ideal contains --gens z",
    "brieskorn kappa 2 3",
    "bounds furuta --p x",
    "brieskorn kappa 2 3 eleven",
    "brieskorn kappa 2 3 11 --orient x",
    "bogus",
    "ring bogus 1",
    "bauer canonical --pieces",
    "bounds split --json=1",
    "xi show S3 extra",
    "ring --json eval 1",
    "bounds furuta --p 2 --r 3",
    "bounds split --js",
]


def calls():
    """Every call of the transcript, as the tokens of its command line, each once."""
    from pin2k.bounds import _XI_TABLE_ROWS

    lines = [*readme_commands()]
    for row in _XI_TABLE_ROWS:
        # a row that starts with - follows --, so --json comes before it
        spelt = f"-- {shlex.quote(row)}" if row.startswith("-") else shlex.quote(row)
        lines += [f"pin2k xi show {spelt}", f"pin2k xi show --json {spelt}"]
    lines += ["pin2k xi table", "pin2k xi table --json"]
    for action, m, orient, json_flag in itertools.product(["class", "kappa"], BRIESKORN_M, "+-", ["", " --json"]):
        lines.append(f"pin2k brieskorn {action} 2 3 {m} --orient {orient}{json_flag}")
    lines += [f"pin2k bounds {call}{json_flag}" for call in BOUNDS for json_flag in ("", " --json")]
    lines += [f"pin2k bauer {call}{json_flag}" for call in BAUER for json_flag in ("", " --json")]
    for action, expr in itertools.product(["eval", "augment", "restrict", "wmul"], RING):
        lines.append(f"pin2k ring {action} {shlex.quote(expr)}")
    for action, gens in itertools.product(["k", "info", "split", "zw", "witness"], IDEAL_GENS):
        lines.append(f"pin2k ideal {action} --gens {shlex.quote(gens)}")
    lines += [f"pin2k ideal contains {call}" for call in IDEAL_CONTAINS]
    lines += [call if call.startswith("PIN2K_") else f"pin2k {call}" for call in ERRORS]
    lines += [f"pin2k {call}".rstrip() for call in USAGE]
    return list(dict.fromkeys(tuple(shlex.split(line, comments=True)) for line in lines))


def run(tokens):
    """The transcript block of one call: its stdout, its stderr and its exit
    code, with PIN2K_KMAX set only as its command line sets it."""
    at = tokens.index("pin2k")
    env, argv = dict(token.split("=", 1) for token in tokens[:at]), list(tokens[at + 1 :])
    from pin2k import cli

    saved = os.environ.pop("PIN2K_KMAX", None)
    os.environ.update(env)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as stop:
                code = stop.code
    finally:
        os.environ.pop("PIN2K_KMAX", None)
        if saved is not None:
            os.environ["PIN2K_KMAX"] = saved
    text = out.getvalue()
    if text and not text.endswith("\n"):
        text += "\n[no newline at end of stdout]\n"
    errors = "".join(f"! {error}\n" for error in err.getvalue().splitlines())
    return f"$ {shlex.join([*tokens[:at], 'pin2k', *argv])}\n{text}{errors}exit {code}\n\n"


def transcript():
    return "".join(run(tokens) for tokens in calls())


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    GOLDEN.write_text(transcript(), encoding="utf-8", newline="\n")
    print(f"wrote {GOLDEN}")
