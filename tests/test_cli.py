import argparse
import ast
import contextlib
import functools
import io
import itertools
import json
import os
import re
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cli_transcript
from pin2k import cli

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    return code, json.loads(out)


class TestExitCodes:
    def test_satisfied_is_zero(self, capsys):
        code, out, _ = run(capsys, "bounds", "split", "--p", "2", "--q", "3")
        assert code == 0 and out.startswith("Satisfied")
        for action in ("furuta", "conjecture"):  # inapplicable is no violation either
            assert run(capsys, "bounds", action, "--p", "1") == (
                0,
                "Inapplicable: needs q > 0 and p >= 0, got p=1, q=0\n",
                "",
            )

    def test_violated_is_one(self, capsys):
        code, out, _ = run(capsys, "bounds", "split", "--p", "2", "--q", "2")
        assert code == 1 and out.startswith("Violated")

    def test_domain_error_is_two(self, capsys):
        code, _, err = run(capsys, "ideal", "k", "--gens", "3*z")
        assert code == 2
        assert err.strip().startswith("error:") and err.count("\n") == 1

    def test_parse_error_is_two(self, capsys):
        code, _, err = run(capsys, "ring", "eval", "w +")
        assert code == 2 and "byte" in err

    def test_usage_error_is_two(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["bogus"])
        assert info.value.code == 2

    def test_internal_error_is_three(self, capsys, monkeypatch):
        def crash(args):
            raise RuntimeError("boom\r\nagain")

        monkeypatch.setattr(cli, "_cmd_ring", crash)
        code, out, err = run(capsys, "ring", "eval", "1")
        assert (code, out, err) == (3, "", "internal error: RuntimeError: boom\\r\\nagain\n")

    def test_memory_error_is_two(self, capsys, monkeypatch):
        def exhaust(args):
            raise MemoryError

        monkeypatch.setattr(cli, "_cmd_ring", exhaust)
        code, out, err = run(capsys, "ring", "eval", "1")
        assert (code, out, err) == (2, "", "error: out of memory\n")

    def test_closed_stdout_is_zero(self):
        # about 220 kB of output, more than a pipe holds, so the writer is
        # still writing when the reader closes the pipe
        proc = subprocess.Popen(
            [sys.executable, "-m", "pin2k.cli", "ring", "eval", "(1+z)^1000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert proc.stdout.read(9) == b"1 + 1000*"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""
        proc.stderr.close()

    @pytest.mark.parametrize("action", ["eval", "augment", "wmul"])
    def test_answer_over_the_digit_limit_is_two(self, capsys, action):
        for json_flag in ((), ("--json",)):
            code, out, err = run(capsys, "ring", action, "2^20000", *json_flag)
            assert code == 2 and out == ""
            assert err == (
                "error: the answer has an integer of more than 4300 digits, the output limit "
                "(set PYTHONINTMAXSTRDIGITS to raise it)\n"
            )
        code, out, _ = run(capsys, "ring", action, "2^14000")
        assert code == 0 and len(out) > 4200


class TestMalformedInput:
    """Inputs that once crashed or were silently accepted end in one error line."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("bauer", "check", "--chain", '{"p":1}'), "chain must be a JSON list"),
            (("bauer", "check", "--chain", '[{"p":1}]'), "chain entry 0: 'q' is missing"),
            (("bauer", "check", "--chain", "[1]"), "chain entry 0 is not an object"),
            (("bauer", "check", "--chain", '[{"p":true,"q":3}]'), "'p' must be an integer"),
            (("bauer", "check", "--chain", '[{"p":2,"q":2.5}]'), "'q' must be an integer"),
            (
                ("bauer", "check", "--chain", '[{"p":2,"q":3,"boundary":{"kappa":0}}]'),
                "boundary of chain entry 0: 'kg_split' is missing",
            ),
            (
                ("bauer", "check", "--chain", '[{"p":2,"q":3,"boundary":{"kappa":"0","kg_split":true}}]'),
                "'kappa' must be an integer",
            ),
            (
                ("bauer", "check", "--chain", '[{"p":2,"q":3,"boundary":{"kappa":0,"kg_split":1}}]'),
                "'kg_split' must be a boolean",
            ),
            (
                ("bauer", "check", "--chain", '[{"p":2,"q":3,"boundary":{"kappa":0,"kg_split":true,"name":7}}]'),
                "'name' must be a string",
            ),
            (("bauer", "check", "--chain", '[{"p":2,"q":3,"boundary":[]}]'), "boundary of chain entry 0 is not"),
            (("bauer", "check", "--chain", "[" * 3000 + "]" * 3000), "nested too deeply"),
            (("ring", "eval", "(" * 3000 + "1" + ")" * 3000), "nesting deeper than 100 at byte 100"),
            (("ring", "eval", "--", "-" * 3000 + "1"), "nesting deeper than 100 at byte 100"),
            (("ring", "eval", "\uff11\uff12"), "at byte 0"),
            (("ring", "eval", "z^\u00b2"), "at byte 2"),
            (("ideal", "k", "--gens", "z, \u00b2"), "unexpected character '\u00b2' at byte 0"),
            (("bauer", "canonical", "--pieces", "3", "--non-split-boundary", "7"), "(valid: 1..2)"),
            (("bauer", "canonical", "--pieces", "3", "--non-split-boundary", "0"), "(valid: 1..2)"),
            (("bauer", "canonical", "--pieces", "1", "--non-split-boundary", "1"), "(valid: none"),
            (("ring", "eval", "7" * 5000), "integer literal has 5000 digits, over the limit of 4300 at byte 0"),
            (("bauer", "check", "--chain", '[{"p":%s,"q":3}]' % ("7" * 5000)), "more than 4300 digits"),
            (("brieskorn", "kappa", "2", "3", str(10**23 + 1)), f"m = {10**23 + 1} is over the limit of 1000000"),
            (("brieskorn", "class", "2", "3", str(10**12 + 1), "--orient", "-"), "over the limit of 1000000"),
            (("brieskorn", "class", "2", "3", "1000001"), "m = 1000001 is over the limit of 1000000"),
            (("xi", "show", f"Sigma(2,3,{10**23 + 1})"), "over the limit of 1000000"),
            (("brieskorn", "table", "--max-m", "1000001"), "--max-m 1000001 is over the limit of 100000"),
            (("brieskorn", "table", "--max-m", "100001"), "--max-m 100001 is over the limit of 100000"),
            (("bauer", "canonical", "--pieces", "100001"), "100001 pieces is over the limit of 100000"),
            (("bauer", "canonical", "--pieces", str(10**11)), f"{10**11} pieces is over the limit of 100000"),
            (("ring", "eval", ""), "error: unexpected end of input at byte 0\n"),
            (("ring", "eval", "1+"), "error: unexpected end of input at byte 2\n"),
            (("ring", "eval", "(1"), "error: expected ')', found end of input at byte 2\n"),
            (("ring", "eval", "2^"), "error: expected 'int', found end of input at byte 2\n"),
            (
                ("bauer", "check", "--chain", '[{"p":2,"q":3,"boundry":{"kappa":-9,"kg_split":true}}]'),
                "error: chain entry 0: unknown key 'boundry'\n",
            ),
            (
                ("bauer", "check", "--chain", '[{"p":2,"q":3,"boundary":{"kappa":0,"kg_split":true,"kg_spilt":1}}]'),
                "error: boundary of chain entry 0: unknown key 'kg_spilt'\n",
            ),
            (("bauer", "check", "--chain", '[{"p":2,"q":3},{"p":2,"q":3,"P":1}]'), "chain entry 1: unknown key 'P'"),
            (("bauer", "check", "--chain", '[{"p":2,"q":3,"":0}]'), "chain entry 0: unknown key ''"),
            (("bauer", "check", "--chain", '[{"p":2,"q":2,"q":3}]'), "error: bad chain JSON: repeated key 'q'\n"),
            (("bauer", "check", "--chain", '[{"p":2,"q":3,"q":2}]'), "error: bad chain JSON: repeated key 'q'\n"),
            (
                ("bauer", "check", "--chain", '[{"p":2,"q":3,"boundary":{"kappa":0,"kg_split":true,"kappa":-9}}]'),
                "error: bad chain JSON: repeated key 'kappa'\n",
            ),
            (("ring", "eval", "1 )"), "error: trailing input ')' at byte 2\n"),
            (
                ("bauer", "check", "--chain", "{"),
                "error: bad chain JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n",
            ),
        ],
    )
    def test_one_error_line(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


# The flags each bounds action reads: the inputs of the check it runs.
BOUNDS_READS = {
    "definite": ["--kappa0", "--kappa1", "--b2"],
    "relative": ["--kappa0", "--kappa1", "--p", "--q"],
    "split": ["--kappa0", "--kappa1", "--p", "--q", "--refined", "--non-split"],
    "furuta": ["--p", "--q"],
    "conjecture": ["--p", "--q"],
    "orbifold": ["--p", "--q", "--b2plus", "--mubar"],
    "rokhlin": ["--kappa0", "--kappa1", "--p"],
    "bohr-lee": ["--kappa"],
}
BOUNDS_FLAGS = {"--p": ("1",), "--q": ("3",), "--b2": ("8",), "--kappa0": ("0",), "--kappa1": ("0",)}
BOUNDS_FLAGS.update({"--kappa": ("2",), "--b2plus": ("1",), "--mubar": ("2",), "--refined": (), "--non-split": ()})
CHAIN = '[{"p":2,"q":3}]'

# (command, action) -> (a valid call, arguments it does not read).  The
# unread arguments are those that the command accepted for another of its
# actions; the ring actions, ideal contains and xi show read all of theirs,
# so they get another command's flag.
ACTIONS = {
    **{("ring", a): ((a, "1 + z"), [("--gens", "w")]) for a in ("eval", "augment", "restrict", "wmul")},
    **{("ideal", a): ((a, "--gens", "w,z"), [("--element", "w")]) for a in ("k", "info", "split", "zw", "witness")},
    ("ideal", "contains"): (("contains", "--gens", "w,z", "--element", "w"), [("--max-m", "7")]),
    ("brieskorn", "kappa"): (("kappa", "2", "3", "11"), [("--max-m", "40")]),
    ("brieskorn", "class"): (("class", "2", "3", "11"), [("--max-m", "40")]),
    ("brieskorn", "table"): (("table", "--max-m", "40"), [("--orient", "-"), ("2", "3", "11")]),
    **{
        ("bounds", a): (
            (a, *(arg for flag in reads for arg in (flag, *BOUNDS_FLAGS[flag]))),
            [(flag, *value) for flag, value in BOUNDS_FLAGS.items() if flag not in reads],
        )
        for a, reads in BOUNDS_READS.items()
    },
    ("xi", "table"): (("table",), [("S3",)]),
    ("xi", "show"): (("show", "S3"), [("--pieces", "2")]),
    ("bauer", "canonical"): (("canonical", "--pieces", "3", "--non-split-boundary", "1"), [("--chain", CHAIN)]),
    ("bauer", "check"): (("check", "--chain", CHAIN), [("--pieces", "2"), ("--non-split-boundary", "1")]),
}


def usage_error(capsys, *argv):
    """stdout and stderr of a call that argparse rejects, after checking its exit code."""
    with pytest.raises(SystemExit) as info:
        cli.main(list(argv))
    out, err = capsys.readouterr()
    assert info.value.code == 2, (argv, out, err)
    return out, err


class TestUsage:
    """Each action parses exactly the arguments it reads; argparse's errors
    follow the same one-line contract as every other error."""

    @pytest.mark.parametrize("command,action", list(ACTIONS))
    def test_unread_argument_is_an_error(self, capsys, command, action):
        valid, unread = ACTIONS[command, action]
        code, out, err = run(capsys, command, *valid)
        assert code in (0, 1) and out and err == ""
        for extra in unread:
            out, err = usage_error(capsys, command, *valid, *extra)
            assert out == "" and err == f"error: unrecognized arguments: {' '.join(extra)}\n"

    def test_unread_cases_cover_every_action(self, capsys):
        # an unknown action is refused with the list of the command's actions
        commands = sorted({command for command, _ in ACTIONS})
        for command in commands:
            _, err = usage_error(capsys, command, "no-such-action")
            listed = re.findall(r"'([^']+)'", err.partition("choose from")[2])
            assert sorted(listed) == sorted(a for c, a in ACTIONS if c == command)
        _, err = usage_error(capsys, "no-such-command")
        assert sorted(re.findall(r"'([^']+)'", err.partition("choose from")[2])) == commands

    @pytest.mark.parametrize(
        "argv,message",
        [
            ((), "the following arguments are required: command"),
            (("ring",), "the following arguments are required: action"),
            (("ideal", "contains", "--gens", "z"), "the following arguments are required: --element"),
            (("brieskorn", "kappa", "2", "3"), "the following arguments are required: m"),
            (("bounds", "furuta", "--p", "x"), "argument --p: invalid int value: 'x'"),
            (("brieskorn", "kappa", "2", "3", "eleven"), "argument m: invalid int value: 'eleven'"),
            (("bauer", "canonical", "--pieces"), "argument --pieces: expected one argument"),
            (("brieskorn", "kappa", "2", "3", "11", "--orient", "x"), "argument --orient: invalid choice: 'x'"),
            (("ring", "bogus", "1"), "argument action: invalid choice: 'bogus'"),
            (("bogus",), "argument command: invalid choice: 'bogus'"),
            (("ring", "--json", "eval", "1"), "unrecognized arguments: --json"),
            (("xi", "show", "S3", "extra"), "unrecognized arguments: extra"),
        ],
    )
    def test_argparse_error_is_one_line(self, capsys, argv, message):
        out, err = usage_error(capsys, *argv)
        assert out == "" and err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [(), *sorted({(command,) for command, _ in ACTIONS}), *ACTIONS],
        ids=lambda argv: " ".join(argv) or "pin2k",
    )
    def test_help(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            cli.main([*argv, "--help"])
        out, err = capsys.readouterr()
        assert info.value.code == 0 and err == ""
        assert out.startswith(" ".join(["usage: pin2k", *argv]))


def test_readme_has_cli_examples():
    assert len(cli_transcript.readme_commands()) >= 10


@pytest.mark.parametrize("line", cli_transcript.readme_commands())
def test_readme_example(capsys, line):
    # exit 1 only where the example's comment says so
    code, out, err = run(capsys, *shlex.split(line, comments=True)[1:])
    assert (code, err) == (1 if "exit 1" in line else 0, "") and out


def test_transcript_is_golden():
    # every call of tests/cli_transcript.py answers as when the golden file
    # was written: exit code, stdout and stderr, byte for byte
    assert cli_transcript.transcript() == cli_transcript.GOLDEN.read_bytes().decode("utf-8")


class TestRing:
    def test_eval(self, capsys):
        code, out, _ = run(capsys, "ring", "eval", "(1 - w)*(1 - w)")
        assert code == 0 and out.strip() == "1"

    def test_json_matches_table(self, capsys):
        _, out, _ = run(capsys, "ring", "wmul", "3 + z")
        _, payload = run_json(capsys, "ring", "wmul", "3 + z")
        assert out.strip() == str(payload["w_multiplier"]) == "5"
        _, out, _ = run(capsys, "ring", "restrict", "z^3")
        _, payload = run_json(capsys, "ring", "restrict", "z^3")
        expected = "-theta^-3 + 6*theta^-2 - 15*theta^-1 + 20 - 15*theta + 6*theta^2 - theta^3"
        assert out == payload["restriction"] + "\n" == expected + "\n"


    @pytest.mark.parametrize(
        "action,expr,head,tail",
        [
            ("restrict", "z^2000", "theta^-2000 - 4000*theta^-1999 + ", " - 4000*theta^1999 + theta^2000\n"),
            ("eval", "z^200000", "z^200000", "z^200000\n"),
        ],
        ids=["restrict", "eval"],
    )
    def test_powers_and_restriction_are_closed_forms(self, capsys, action, expr, head, tail):
        # x^n takes one power of the w-multiplier and the restriction sums
        # binomials; a ring product per factor and Laurent products per power
        # of z made these calls take about 4 s and 9 s
        start = time.perf_counter()
        code, out, _ = run(capsys, "ring", action, expr)
        elapsed = time.perf_counter() - start
        assert code == 0 and out.startswith(head) and out.endswith(tail)
        assert elapsed < 1, f"ring {action} {expr} took {elapsed:.2f}s"

    @pytest.mark.parametrize("expr", ["z^99999999999", "2^99999999999", "w^99999999999", "(1+z)^4000"])
    def test_power_over_the_size_cap_is_two(self, expr):
        # in a subprocess held to 1 GB of address space and 20 s, so that a
        # power computed without the cap fails the test rather than the host
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, resource.getrlimit(resource.RLIMIT_AS)[1]))

        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pin2k.cli", "ring", "eval", expr],
            capture_output=True,
            text=True,
            timeout=20,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            preexec_fn=limit_memory,
        )
        elapsed = time.perf_counter() - start
        assert (proc.returncode, proc.stdout) == (2, "")
        assert re.fullmatch(r"error: a power of up to \d+ bits is over the limit of 4194304\n", proc.stderr)
        assert elapsed < 1, f"ring eval {expr} took {elapsed:.2f}s"

    def test_restriction_over_the_work_cap_is_two(self):
        # z^2000000 passes the ^ cap, but its restriction would sum 4e6
        # binomials of up to 4e6 bits; held to 1 GB and 20 s as above
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, resource.getrlimit(resource.RLIMIT_AS)[1]))

        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pin2k.cli", "ring", "restrict", "z^2000000"],
            capture_output=True,
            text=True,
            timeout=20,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            preexec_fn=limit_memory,
        )
        elapsed = time.perf_counter() - start
        assert (proc.returncode, proc.stdout) == (2, "")
        assert re.fullmatch(r"error: a restriction of work \d+ is over the limit of 2147483648\n", proc.stderr)
        assert elapsed < 1, f"ring restrict z^2000000 took {elapsed:.2f}s"

    @pytest.mark.parametrize("base,n", [(255, 45), (15, 264)])
    def test_power_over_the_work_cap_is_two(self, base, n):
        # (1 + z + ... + z^base)^n passes the size cap, but its products took
        # about 12 s and 3.5 s; held to 1 GB and 20 s as above
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, resource.getrlimit(resource.RLIMIT_AS)[1]))

        expr = "(%s)^%d" % (" + ".join(f"z^{k}" for k in range(base + 1)), n)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pin2k.cli", "ring", "eval", expr],
            capture_output=True,
            text=True,
            timeout=20,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            preexec_fn=limit_memory,
        )
        elapsed = time.perf_counter() - start
        assert (proc.returncode, proc.stdout) == (2, "")
        assert re.fullmatch(r"error: a power of work \d+ is over the limit of 8589934592\n", proc.stderr)
        assert elapsed < 1, f"ring eval (1 + ... + z^{base})^{n} took {elapsed:.2f}s"

    def test_product_over_the_work_cap_is_two(self):
        # (1+z)^2046 passes both power caps, but the product of two took about
        # 18 s; it is refused before either power is taken.  Held to 1 GB and
        # 20 s as above
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, resource.getrlimit(resource.RLIMIT_AS)[1]))

        def wmul(expr):
            return subprocess.run(
                [sys.executable, "-m", "pin2k.cli", "ring", "wmul", expr],
                capture_output=True,
                text=True,
                timeout=20,
                env=dict(os.environ, PYTHONPATH=str(SRC)),
                preexec_fn=limit_memory,
            )

        start = time.perf_counter()
        proc = wmul("(1+z)^2046*(1+z)^2046")
        elapsed = time.perf_counter() - start
        assert (proc.returncode, proc.stdout) == (2, "")
        assert re.fullmatch(r"error: a product of work \d+ is over the limit of 8589934592\n", proc.stderr)
        assert elapsed < 2, f"ring wmul (1+z)^2046*(1+z)^2046 took {elapsed:.2f}s"
        # parenthesized factors pass their bounds up unevaluated: this took
        # both powers, about 3.8 s, before it was refused
        start = time.perf_counter()
        proc = wmul("((1+z)^2046)*((1+z)^2046)")
        elapsed = time.perf_counter() - start
        assert (proc.returncode, proc.stdout) == (2, "")
        assert re.fullmatch(r"error: a product of work \d+ is over the limit of 8589934592\n", proc.stderr)
        assert elapsed < 2, f"ring wmul ((1+z)^2046)*((1+z)^2046) took {elapsed:.2f}s"
        # a sum passes up bounds read off its terms' bounds: this took both
        # powers, about 2.8 s, before it was refused
        start = time.perf_counter()
        proc = wmul("((1+z)^2046+0)*((1+z)^2046+0)")
        elapsed = time.perf_counter() - start
        assert (proc.returncode, proc.stdout) == (2, "")
        assert re.fullmatch(r"error: a product of work \d+ is over the limit of 8589934592\n", proc.stderr)
        assert elapsed < 1, f"ring wmul ((1+z)^2046+0)*((1+z)^2046+0) took {elapsed:.2f}s"
        # half the degree is under the cap and answered
        proc = wmul("(1+z)^1023*(1+z)^1023")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{3**2046}\n", "")


class TestProcess:
    """`python -m pin2k.cli` ends in cli.run, which flushes stdout and stderr
    and leaves through os._exit, skipping the interpreter's teardown."""

    @staticmethod
    def pin2k(*argv):
        return subprocess.run(
            [sys.executable, "-m", "pin2k.cli", *argv],
            capture_output=True,
            timeout=60,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )

    def test_long_output_arrives_whole(self):
        proc = self.pin2k("brieskorn", "table", "--max-m", "100000")
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert len(proc.stdout.splitlines()) == 2 * len([m for m in range(7, 100001) if m % 2 and m % 3])
        assert proc.stdout.endswith(b"kappa(Sigma(2,3,99997)) = 0\nkappa(-Sigma(2,3,99997)) = 0\n")

    def test_xi_table_is_golden(self):
        proc = self.pin2k("xi", "table")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, (GOLDEN / "xi_table.txt").read_bytes(), b"")

    def test_exit_codes(self):
        proc = self.pin2k("ring", "--json", "eval", "1")
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", b"error: unrecognized arguments: --json\n")
        proc = self.pin2k("bounds", "split", "--p", "2", "--q", "2")
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, b"Violated: 0 + 2 >= 0 + 2 + 1\n", b"")
        proc = self.pin2k("ring", "eval", "--help")
        assert (proc.returncode, proc.stderr) == (0, b"") and proc.stdout.startswith(b"usage: pin2k ring eval ")

    def test_closed_streams_end_without_a_traceback(self):
        # a stream closed before start-up is None in sys; main reports the
        # write to a closed stdout as before, and the exit flushes only what is open
        for fd, code in [(1, 3), (2, 2)]:
            proc = subprocess.run(
                [sys.executable, "-m", "pin2k.cli", "ring", "eval", "w +" if fd == 2 else "1"],
                capture_output=True,
                timeout=60,
                env=dict(os.environ, PYTHONPATH=str(SRC)),
                preexec_fn=lambda: os.close(fd),
            )
            assert proc.returncode == code and b"Traceback" not in proc.stdout + proc.stderr

    def test_installed_script_runs_what_main_module_runs(self):
        script = re.search(r'^pin2k = "pin2k\.cli:(\w+)"$', (SRC.parent / "pyproject.toml").read_text(), re.M)
        tree = ast.parse((SRC / "pin2k" / "cli.py").read_text(encoding="utf-8"))
        guard = [node for node in tree.body if isinstance(node, ast.If) and "__main__" in ast.unparse(node.test)]
        assert [ast.unparse(node) for node in guard[0].body] == [f"{script.group(1)}()"] == ["run()"]


class TestIdeal:
    def test_k_example(self, capsys):
        code, out, _ = run(capsys, "ideal", "k", "--gens", "w,z")
        assert code == 0 and out.strip() == "k = 1"

    def test_info_schema(self, capsys):
        code, payload = run_json(capsys, "ideal", "info", "--gens", "w,z")
        assert code == 0
        assert payload == {
            "generators": ["w", "z"],
            "basis": ["w", "z"],
            "e": 2,
            "d": 1,
            "k": 1,
            "kg_split": False,
        }
        # 3 has an odd factor, so the ideal has no k
        code, payload = run_json(capsys, "ideal", "info", "--gens", "3")
        assert code == 0 and payload["k"] is None and payload["e"] == 3
        # the text holds the same numbers: the basis line, then key = value
        # lines with lower-case booleans; the zero ideal's basis is (0)
        for gens, basis, e in [("0", "(0)", 0), ("3", "3*w, 3", 3)]:
            text = f"basis: {basis}\ne = {e}\nd = {e}\nk = None\nkg_split = false\n"
            assert run(capsys, "ideal", "info", "--gens", gens) == (0, text, "")

    def test_output_reparses_as_input(self, capsys):
        _, payload = run_json(capsys, "ideal", "info", "--gens", "z^2, 2*z, 4")
        code, second = run_json(capsys, "ideal", "info", "--gens", ",".join(payload["basis"]))
        assert code == 0
        assert {k: second[k] for k in ("basis", "e", "d", "k", "kg_split")} == {
            k: payload[k] for k in ("basis", "e", "d", "k", "kg_split")
        }

    def test_completion_over_the_degree_cap_is_two(self, capsys):
        # the pool of this ideal would hold 200000 elements of up to 200000
        # coefficients: the call ran for over 5 minutes and reached 3.7 GB;
        # k completes nothing, so it is not capped
        start = time.perf_counter()
        code, out, err = run(capsys, "ideal", "info", "--gens", "z^200000+1,2")
        elapsed = time.perf_counter() - start
        assert (code, out, err) == (2, "", "error: a generator of degree 200000 is over the limit of 1024\n")
        assert elapsed < 1, f"ideal info --gens z^200000+1,2 took {elapsed:.2f}s"
        assert run(capsys, "ideal", "k", "--gens", "z^200000+1,2") == (0, "k = 0\n", "")

    def test_k_reads_e_without_completing(self, capsys, monkeypatch):
        # k is read off e, the gcd of the generators' w-multipliers; completing
        # this ideal first made the call take about 19 s
        start = time.perf_counter()
        code, out, _ = run(capsys, "ideal", "k", "--gens", "z^5000,2")
        elapsed = time.perf_counter() - start
        assert code == 0 and out == "k = 1\n"
        assert elapsed < 0.5, f"ideal k --gens z^5000,2 took {elapsed:.2f}s"
        # the errors keep their order: the cap first, then the parse
        monkeypatch.setenv("PIN2K_KMAX", "257")
        with pytest.raises(SystemExit):
            cli.main(["ideal", "k", "--gens", "z^"])
        assert "PIN2K_KMAX" in capsys.readouterr().err
        monkeypatch.delenv("PIN2K_KMAX")
        for gens, message in [("z^", "found end of input at byte 2"), ("3*z", "6 has an odd factor"), ("0", "trivial")]:
            code, out, err = run(capsys, "ideal", "k", "--gens", gens)
            assert code == 2 and out == "" and err.count("\n") == 1 and message in err

    def test_contains(self, capsys):
        code, payload = run_json(capsys, "ideal", "contains", "--gens", "z^2", "--element", "2*w")
        assert code == 0 and payload["contains"] is False

    def test_kmax_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PIN2K_KMAX", "2")
        code, _, err = run(capsys, "ideal", "witness", "--gens", "z^3")
        assert code == 2 and "up to 2" in err
        monkeypatch.setenv("PIN2K_KMAX", "8")
        code, out, _ = run(capsys, "ideal", "witness", "--gens", "z^3")
        assert code == 0 and out.strip() == "nilpotence exponent = 4"
        monkeypatch.setenv("PIN2K_KMAX", "256")
        code, out, _ = run(capsys, "ideal", "witness", "--gens", "z^3")
        assert code == 0 and out.strip() == "nilpotence exponent = 4"
        monkeypatch.setenv("PIN2K_KMAX", "0")
        code, out, _ = run(capsys, "ideal", "witness", "--gens", "1")
        assert code == 0 and out.strip() == "nilpotence exponent = 0"
        bad = {
            "x": "PIN2K_KMAX must be an integer",
            "257": f"PIN2K_KMAX = 257 is over the limit of {cli.MAX_KMAX}",
            "-1": f"PIN2K_KMAX = -1 is negative; the valid range is 0..{cli.MAX_KMAX}",
            "-3": f"PIN2K_KMAX = -3 is negative; the valid range is 0..{cli.MAX_KMAX}",
        }
        for value, message in bad.items():
            monkeypatch.setenv("PIN2K_KMAX", value)
            for action in ("witness", "zw"):
                with pytest.raises(SystemExit) as exit_info:
                    cli.main(["ideal", action, "--gens", "1"])
                captured = capsys.readouterr()
                assert exit_info.value.code == 2 and captured.out == ""
                assert captured.err == f"error: {message}\n"


class TestBrieskorn:
    def test_kappa_example(self, capsys):
        code, out, _ = run(capsys, "brieskorn", "kappa", "2", "3", "11", "--orient", "-")
        assert code == 0 and out.strip() == "kappa = 0"

    def test_class_payload(self, capsys):
        code, payload = run_json(capsys, "brieskorn", "class", "2", "3", "7", "--orient", "+")
        assert code == 0
        assert payload["brieskorn"] == [2, 3, 7]
        assert payload["kappa"] == 1
        assert payload["n"] == "1/2"
        assert payload["kg_split"] is False
        assert payload["blocks"] == ["SuspG"]
        # the text: the blocks line, then key = value lines with lower-case booleans
        for argv, text in [
            (("13", "--orient", "-"), "blocks: S^0 v S^0 G+\nm = 0\nn = 0\nkappa = 0\nkg_split = true\n"),
            (("23",), "blocks: SuspG v S^1 G+\nm = 0\nn = 0\nkappa = 2\nkg_split = false\n"),
        ]:
            assert run(capsys, "brieskorn", "class", "2", "3", *argv) == (0, text, "")

    @pytest.mark.parametrize(
        "m,orient,blocks",
        [
            ("13", "+", ["(C~^0 + H^1)^+", "S^3 G+"]),
            ("13", "-", ["S^0", "S^0 G+"]),
            ("11", "-", ["SuspT"]),
            ("23", "+", ["SuspG", "S^1 G+"]),
        ],
    )
    def test_class_blocks(self, capsys, m, orient, blocks):
        code, payload = run_json(capsys, "brieskorn", "class", "2", "3", m, "--orient", orient)
        assert code == 0 and payload["blocks"] == blocks

    def test_rejects_other_seifert_data(self, capsys):
        code, _, err = run(capsys, "brieskorn", "kappa", "2", "5", "11")
        assert code == 2 and "Sigma(2,3,m)" in err
        code, _, _ = run(capsys, "brieskorn", "kappa", "2", "3", "9")
        assert code == 2

    def test_table_consistency(self, capsys):
        code, payload = run_json(capsys, "brieskorn", "table", "--max-m", "40")
        assert code == 0
        values = {(r["m"], r["orientation"]): r["kappa"] for r in payload["rows"]}
        assert values[(11, "+")] == 2 and values[(11, "-")] == 0
        assert values[(37, "+")] == 0 and values[(31, "-")] == 1

    def test_table_reads_kappa_off_the_family(self, capsys):
        # kappa depends only on m mod 12 and the orientation; building a
        # class per m made this call take about 1.6 s
        family_kappa = {11: ("2", "0"), 7: ("1", "1"), 1: ("0", "0"), 5: ("1", "-1")}
        start = time.perf_counter()
        code = cli.main(["brieskorn", "table", "--max-m", "4000"])
        elapsed = time.perf_counter() - start
        lines = capsys.readouterr().out.splitlines()
        assert code == 0 and len(lines) == 2 * len([m for m in range(7, 4001) if m % 2 and m % 3])
        for line in lines:
            sign, m, kappa = re.fullmatch(r"kappa\((-?)Sigma\(2,3,(\d+)\)\) = (-?\d+)", line).groups()
            assert kappa == family_kappa[int(m) % 12][1 if sign else 0], line
        assert elapsed < 1.0, f"brieskorn table --max-m 4000 took {elapsed:.2f}s"

    def test_kappa_text_reads_kappa_off_the_family(self, capsys):
        # the text prints only kappa; building the class of m and its dual
        # made this call take about 1.6 s
        start = time.perf_counter()
        code, out, _ = run(capsys, "brieskorn", "kappa", "2", "3", "999997", "--orient", "-")
        elapsed = time.perf_counter() - start
        assert code == 0 and out == "kappa = 0\n"
        assert elapsed < 0.5, f"brieskorn kappa 2 3 999997 --orient - took {elapsed:.2f}s"

    def test_output_reparses_as_input(self, capsys):
        _, payload = run_json(capsys, "brieskorn", "class", "2", "3", "23", "--orient", "-")
        a, b, m = payload["brieskorn"]
        code, second = run_json(
            capsys, "brieskorn", "class", str(a), str(b), str(m), "--orient", payload["orientation"]
        )
        assert code == 0 and second == payload


class TestXiAndBauer:
    def test_golden_table(self, capsys):
        code, out, _ = run(capsys, "xi", "table")
        assert code == 0
        assert out.encode() == (GOLDEN / "xi_table.txt").read_bytes()

    def test_json_rows_match_table_numbers(self, capsys):
        _, payload = run_json(capsys, "xi", "table")
        by_name = {row["manifold"]: row for row in payload["rows"]}
        assert by_name["S^3"]["exact"] == -1
        assert by_name["Sigma(2,3,11)"]["exact"] == 0
        assert by_name["Sigma(2,3,12n-1)"]["exact"] is None
        assert by_name["-Sigma(2,3,12n+5)"]["exact"] == -2

    def test_show(self, capsys):
        code, out, _ = run(capsys, "xi", "show", "Sigma(2,3,11)")
        assert code == 0 and out.strip() == "xi(Sigma(2,3,11)) = 0"
        code, out, _ = run(capsys, "xi", "show", "--", "-Sigma(2,3,12n-1)")
        assert code == 0 and out.strip() == "xi(-Sigma(2,3,12n-1)) = -1"
        assert run(capsys, "xi", "show", "Sigma(2,3,12n-1)") == (0, "xi(Sigma(2,3,12n-1)) in [-1, 0]\n", "")
        assert run(capsys, "xi", "show", "S3") == (0, "xi(S^3) = -1\n", "")

    def test_unknown_manifold(self, capsys):
        code, _, err = run(capsys, "xi", "show", "Sigma(2,3,9)")
        assert code == 2

    def test_bauer_canonical(self, capsys):
        code, out, _ = run(capsys, "bauer", "canonical", "--pieces", "3")
        assert code == 1 and out.startswith("Violated")
        code, out, _ = run(
            capsys, "bauer", "canonical", "--pieces", "3", "--non-split-boundary", "1"
        )
        assert code == 0 and out.startswith("Inapplicable")

    def test_bauer_check_json_roundtrip(self, capsys):
        code, payload = run_json(capsys, "bauer", "canonical", "--pieces", "2")
        assert code == 1
        code2, payload2 = run_json(capsys, "bauer", "check", "--chain", json.dumps(payload["chain"]))
        assert code2 == 1 and payload2["status"] == payload["status"]

    def test_bauer_single_k3_piece(self, capsys):
        chain = json.dumps([{"p": 2, "q": 3}])
        code, payload = run_json(capsys, "bauer", "check", "--chain", chain)
        assert code == 0 and payload["status"] == "satisfied"


class TestOutputConsistency:
    def test_table_and_json_report_identical_numbers(self, capsys):
        golden = [("2", "2", "violated"), ("2", "3", "satisfied"), ("0", "1", "satisfied")]
        for p, q, status in golden:
            _, out, _ = run(capsys, "bounds", "split", "--p", p, "--q", q)
            _, payload = run_json(capsys, "bounds", "split", "--p", p, "--q", q)
            assert payload["status"] == status
            assert out.lower().startswith(status)
            assert payload["inequality"] in out

    def test_repeated_runs_are_byte_identical(self, capsys):
        first = run(capsys, "xi", "table")
        second = run(capsys, "xi", "table")
        assert first == second
        a = run_json(capsys, "ideal", "info", "--gens", "w,z")
        b = run_json(capsys, "ideal", "info", "--gens", "w,z")
        assert a == b


# -- the parser against argparse, and main on drawn argv ---------------------------------

COMMANDS = cli._commands()
ARGUMENTS = [
    argument for _, _, actions in COMMANDS.values() for arguments in actions.values() for argument in arguments
]
POSITIONALS = {name for name, _ in ARGUMENTS if name[0] != "-"}
FLAGS = sorted({name for name, _ in ARGUMENTS if name[0] == "-"} | {"--json", "-h", "--help"})
INTS = ["0", "1", "2", "3", "7", "11", "-3", "1_0", " 5"]
TEXTS = {
    "expr": ["1 + z", "-1 + z", "w", "z^2", "-"],
    "--gens": ["w,z", "z", "2*w", "z^2, 2*z, 4"],
    "--element": ["w", "2*w", "-1"],
    "manifold": ["S3", "Sigma(2,3,11)", "-Sigma(2,3,12n-1)"],
    "--chain": ['[{"p":2,"q":3}]', "[]", "{"],
}
# tokens that take each parsing rule: flags spelt with =, abbreviated or
# grouped, unknown flags, negative numbers, a value with a space, --, -
ODD = ["--", "-", "", "x", "-3", "-1.5", "-3\n", "-z", "--bogus", "--js", "--p=2", "--json=1", "--orient=-"]
ODD += ["--orient=", "-h=x", "--help=", "-hh", "-hx", "--=x", "eval", "table", "ring"]


def spelt(argument):
    """An argument as a call writes it, with values that it takes and some
    that it refuses: a positional, a flag and its value, --flag=value or a
    switch."""
    name, options = argument
    if "action" in options:
        return st.sampled_from([[name], [name], [f"{name}=1"]])
    if "choices" in options:
        value = st.sampled_from([*options["choices"], "x"])
    elif options.get("type") is int:
        value = st.sampled_from(INTS + ["x", ""])
    else:
        value = st.sampled_from(TEXTS[name])
    if name[0] != "-":
        return value.map(lambda value: [value])
    return value.flatmap(lambda value: st.sampled_from([[name, value], [f"{name}={value}"]]))


@st.composite
def argvs(draw):
    """An argv: a command, an action and that action's arguments, with now
    and then a refused value, up to three tokens from anywhere put in
    anywhere, or the end cut off."""
    command = draw(st.sampled_from([*COMMANDS, "bogus"]))
    actions = COMMANDS[command][2] if command in COMMANDS else {}
    action = draw(st.sampled_from([*actions, "bogus"]))
    arguments = [*actions.get(action, []), cli._JSON]
    argv = [command, action]
    for argument in arguments:
        if argument[0][0] != "-" or argument[1].get("required") or draw(st.booleans()):
            argv += draw(spelt(argument))
    stray = st.one_of(
        st.sampled_from(arguments).flatmap(spelt),
        st.sampled_from(ARGUMENTS).flatmap(spelt),
        st.sampled_from(FLAGS + ODD).map(lambda token: [token]),
    )
    for tokens in draw(st.lists(stray, max_size=3)):
        at = draw(st.integers(0, len(argv)))
        argv[at:at] = tokens
    return argv[: draw(st.integers(0, len(argv)))] if draw(st.integers(0, 9)) == 0 else argv


class ArgparseUsage(Exception):
    """A usage error of the reference parser, with argparse's message."""


class ReferenceParser(argparse.ArgumentParser):
    def error(self, message):
        raise ArgparseUsage(message)


@functools.cache
def reference_parser():
    """argparse built from cli's tables, as pin2k parsed before it had its
    own parser: a sub-parser per (command, action) declaring the arguments
    of the action's table and --json, and no abbreviations at any level."""
    parser = ReferenceParser(prog="pin2k", allow_abbrev=False)
    command_ps = parser.add_subparsers(dest="command", required=True)
    for command, (_, _, actions) in COMMANDS.items():
        action_ps = command_ps.add_parser(command, allow_abbrev=False).add_subparsers(dest="action", required=True)
        for action, arguments in actions.items():
            action_p = action_ps.add_parser(action, allow_abbrev=False)
            for name, options in [*arguments, cli._JSON]:
                action_p.add_argument(name, **options)
    return parser


def outcome(parse, argv):
    """("ok", fields), ("help", the level's prog) or ("error", message)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            fields = vars(parse(list(argv)))
    except ArgparseUsage as exc:  # argparse quotes tokens raw; cli escapes their line breaks
        return "error", str(exc).translate(cli._LINE_BREAKS)
    except SystemExit as exc:
        if exc.code:
            assert exc.code == 2 and out.getvalue() == "" and err.getvalue().startswith("error: ")
            return "error", err.getvalue()[len("error: ") :].removesuffix("\n")
        words = out.getvalue().split()[1:]  # the words after "usage:"
        return "help", list(itertools.takewhile(lambda word: word[0] not in "[<{-" and word not in POSITIONALS, words))
    return "ok", fields


# one argv for each edge rule of argparse's reading, run every time
@example(["xi", "show", "--", "S3"])
@example(["ring", "eval", "1", "--"])
@example(["xi", "table", "--"])
@example(["brieskorn", "kappa", "2", "--", "3", "11"])
@example(["--", "ring", "eval", "1"])
@example(["ring", "--", "eval", "1"])
@example(["ring", "eval", "-hh"])
@example(["ring", "-hx"])
@example(["-h=x"])
@example(["bounds", "furuta", "--p", "-3", "--q=x"])
@example(["bounds", "furuta", "--p", "--"])
@example(["bounds", "split", "--json=1"])
@example(["bounds", "split", "--js"])
@example(["ring", "eval", "-1 + z"])
@example(["ring", "eval", "-z"])
@example(["ring", "eval", "-3\n"])
@example(["bounds", "definite", "-3\n"])
@example(["--bogus", "ring", "--json", "eval", "1", "x"])
@settings(max_examples=400, deadline=None)
@given(argvs())
def test_parser_agrees_with_argparse(argv):
    # accept or reject, every parsed field, the level whose --help runs and
    # every error message; and main answers with an exit code
    mine = outcome(lambda argv: cli._parse(argv, COMMANDS), argv)
    assert mine == outcome(reference_parser().parse_args, argv), argv
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
            assert code in (0, 2), argv
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert code == {"help": 0, "error": 2}.get(mine[0], code), argv
    # exactly one error line, even where the message quotes a token that
    # holds a line break
    if code < 2:
        assert err.getvalue() == "", argv
    else:
        assert err.getvalue().startswith("error: ") and len(err.getvalue().splitlines()) == 1, (argv, err.getvalue())
