"""In-process fuzzer of the exit-code contract on the two free-text inputs.

Ring expressions and --chain JSON are the inputs a user writes freely.
Whatever is drawn, cli.main ends in exit 0 with an answer, exit 2 with
exactly one `error:` line, or exit 1 with a Violated verdict of `bauer
check`; never in exit 3 or an exception.  Powers stay small, so an example
takes milliseconds; a timer bounds each one, so a slow input fails rather
than stalls the suite.
"""

import contextlib
import io
import json
import signal

from hypothesis import example, given, settings
from hypothesis import strategies as st

# bounds and ring too, before any timer runs: an alarm that fires while a
# module is being imported did not reach the caller
from pin2k import bounds, cli, ring  # noqa: F401

# seconds an example may run before it counts as a hang
EXAMPLE_BUDGET = 1.0

# both generator sets and integers; then what the grammar refuses or reads
# only in place: non-ASCII digits, halves of c~, other letters and operators
ATOMS = ["w", "z", "c~", "h", "0", "1", "2", "7", "12"]
ODD = ["٣", "²", "c", "~", "x", "(", ")", "^", "*", "+", "-", " "]

# exponents: small ones, and one far over the size cap, refused before it is taken
EXPONENTS = st.one_of(st.integers(0, 5), st.just(99999999999))

expressions = st.recursive(
    st.sampled_from(ATOMS),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", " + ", "*-"]), inner).map("".join),
        st.tuples(inner, EXPONENTS).map(lambda pair: f"({pair[0]})^{pair[1]}"),
        inner.map(lambda e: f"-{e}"),
        inner.map(lambda e: f"({e})"),
    ),
    max_leaves=8,
)


@st.composite
def ring_texts(draw):
    """An expression, nested by parentheses or unary minus up to one past
    the parser's limit of 100, with now and then a token put in anywhere."""
    text = draw(expressions)
    depth = draw(st.sampled_from([0, 0, 0, 1, 2, 3, 100, 101]))
    if draw(st.booleans()):
        text = "(" * depth + text + ")" * depth
    else:
        text = "-" * depth + text
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(ATOMS + ODD)) + text[at:]
    return text


json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 5),
        st.sampled_from([10**30, -(10**30), 2.5, "0", "K3", ""]),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["p", "q", "boundary", "kappa", "kg_split", "name", "P"]), inner, max_size=4),
    ),
    max_leaves=10,
)
boundaries = st.fixed_dictionaries(
    {"kappa": st.integers(-3, 3), "kg_split": st.booleans()}, optional={"name": st.just("Y")}
)
pieces = st.fixed_dictionaries({"p": st.integers(-1, 8), "q": st.integers(0, 8), "boundary": boundaries})


@st.composite
def chain_texts(draw):
    """A --chain: a list of well-formed pieces, any JSON value, or either
    with its text cut short or a character put in."""
    if draw(st.integers(0, 3)):
        value = draw(st.lists(pieces, min_size=1, max_size=4))
        if draw(st.booleans()):
            del value[-1]["boundary"]  # only the final boundary may be left out
    else:
        value = draw(json_values)
    text = json.dumps(value)
    edit = draw(st.integers(0, 7))
    if edit == 0:
        text = text[: -draw(st.integers(1, len(text)))]
    elif edit == 1:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(list('{}[],:"0e-') + ["tru", "NaN", "Infinity"])) + text[at:]
    return text


class Hang(BaseException):
    """An example over its budget; not an Exception, so that cli.main's
    handler for internal errors lets it through."""


def _hang(signum, frame):
    raise Hang


def check_call(argv):
    """Runs cli.main(argv) under the timer and checks how it ends."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _hang)
    signal.setitimer(signal.ITIMER_REAL, EXAMPLE_BUDGET)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as stop:
                code = stop.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert out and err == "", (argv, out, err)
    elif code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    else:  # a violated verdict, in text or in JSON
        verdict = json.loads(out)["status"] if "--json" in argv else out.partition(":")[0].lower()
        assert (code, argv[0], verdict, err) == (1, "bauer", "violated", ""), (argv, code, out, err)


@example("eval", "(" * 100 + "z" + ")" * 100)
@example("eval", "(" * 101 + "z" + ")" * 101)
@example("wmul", "-" * 101 + "1")
@example("augment", "٣*z")
@example("restrict", "((1+h)^5*(c~)^99999999999)^5")
@settings(max_examples=250, deadline=None, database=None)
@given(st.sampled_from(sorted(cli._RING)), ring_texts())
def test_ring_expressions_end_in_the_contract(action, text):
    check_call(["ring", action, "--", text])


@example('[{"p":2,"q":2}]', False)
@example('[{"p":2,"q":2}]', True)
@example('[{"p":1,"q":-1}]', False)
@example('[{"p":1,"q":-1}]', True)
@example("{", True)
@example('[{"p":2,"q":3,"boundary":{"kappa":0,"kg_split":true,"name":"Y"}}]', True)
@settings(max_examples=200, deadline=None, database=None)
@given(chain_texts(), st.booleans())
def test_chains_end_in_the_contract(text, as_json):
    check_call(["bauer", "check", "--chain", text, *["--json"] * as_json])
