"""Command-line front end.

Exit codes: 0 for satisfied verdicts and successful computations, 1 for a
violated verdict, 2 for usage errors, for what pin2k refuses (a Pin2kError),
for running out of memory and for an answer over CPython's output digit
limit, 3 for any other exception, a bare ValueError included: an internal
error.
Each (command, action) pair takes the arguments that its table declares,
and --json, after the action; table and JSON output carry the same numbers.
The environment variable PIN2K_KMAX overrides the search cap used by ideal
queries, from 0 up to MAX_KMAX.

Each subcommand imports the layers it runs when it runs, and json only for
--json or a --chain, so start-up pays for nothing else.  For the same
reason a plain call is read directly against those tables: the command,
one of its actions, then only that action's flags and --json spelt in
full, and values that are - or do not start with -.  Every other command
line goes to argparse, imported only for it and built from the same
tables, which gives every usage error, every --help and its own rules for
--, --flag=value and negative numbers.  The process ends in run() without
the interpreter's teardown.
"""

import os
import sys
from types import SimpleNamespace

from . import _DIGIT_LIMIT_MESSAGE, Pin2kError, _cap, _int


# The capped searches grow about cubically with the cap: `ideal witness --gens
# "z+2"` takes 0.7 to 1 s at this cap, as a subprocess on a 2-vCPU Xeon.
MAX_KMAX = 256


def _k_max():
    from .ideals import K_MAX_DEFAULT

    try:
        k_max = _int(os.environ.get("PIN2K_KMAX", K_MAX_DEFAULT), "PIN2K_KMAX: an integer")
    except ValueError:
        raise Pin2kError("PIN2K_KMAX must be an integer") from None
    if k_max < 0:
        raise Pin2kError(f"PIN2K_KMAX = {k_max} is negative; the valid range is 0..{MAX_KMAX}")
    _cap("PIN2K_KMAX = {}", k_max, MAX_KMAX)
    return k_max


# Each character that str.splitlines ends a line at, mapped to its escape, so
# that an error quoting a raw argv token stays on one line.
_LINE_BREAKS = {ord(ch): repr(ch)[1:-1] for ch in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def _usage_error(message):
    print(f"error: {message}".translate(_LINE_BREAKS), file=sys.stderr)
    return 2


def _emit(args, table_text, payload):
    if args.json:
        import json

        print(json.dumps(payload, sort_keys=True))
    elif table_text:  # an empty table prints nothing
        print(table_text)


def _report(payload, name, sep):
    """The text of a report: a `name: items` line of payload[name] joined by
    sep, (0) if it has none, then a `key = value` line for each key after name
    in payload, booleans in lower case."""
    keys = list(payload)
    lines = [f"{name}: " + (sep.join(payload[name]) or "(0)")]
    for key in keys[keys.index(name) + 1 :]:
        value = payload[key]
        lines.append(f"{key} = {str(value).lower() if type(value) is bool else value}")
    return "\n".join(lines)


# -- ring ----------------------------------------------------------------------

# Each command's table maps its actions to the arguments each one reads
# besides --json, as (name, options) in argparse's add_argument terms (type,
# choices, default, required, dest, store_true/store_false, help); _plain
# reads exactly these, and the argparse parser adds them as they stand.
_RING = dict.fromkeys(["eval", "augment", "restrict", "wmul"], [("expr", {})])


def _cmd_ring(args):
    from . import ring

    x = ring.parse(args.expr)
    if args.action == "eval":
        key, value = "normal_form", str(x)
    elif args.action == "augment":
        key, value = "augment", x.augment()
    elif args.action == "restrict":
        key, value = "restriction", str(x.restrict_s1())
    else:  # wmul
        key, value = "w_multiplier", x.w_multiplier()
    return str(value), {"expr": args.expr, key: value}


# -- ideal ---------------------------------------------------------------------

_GENS = ("--gens", {"required": True, "help": "comma-separated generator expressions"})
_IDEAL = dict.fromkeys(["k", "info", "split", "zw", "witness"], [_GENS])
_IDEAL["contains"] = [_GENS, ("--element", {"required": True, "help": "element expression for membership tests"})]


def _cmd_ideal(args):
    from . import ideals, ring

    k_max = _k_max()
    gens = ring.parse(args.gens, items=True)
    form = None if args.action == "k" else ideals.ideal_from_generators(gens)  # k reads only e
    if args.action == "k":
        k = ideals.k_from_e(ideals.w_gcd(gens))
        text, payload = f"k = {k}", {"k": k}
    elif args.action == "info":
        try:
            k = form.k_invariant()
        except ideals.IdealError:
            k = None
        payload = {**form._asdict(), "basis": [str(b) for b in form.basis], "k": k, "kg_split": form.is_kg_split()}
        text = _report(payload, "basis", ", ")
    elif args.action == "contains":
        x = ring.parse(args.element)
        verdict = form.contains(x)
        text = "member" if verdict else "not a member"
        payload = {"element": str(x), "contains": verdict}
    elif args.action == "split":
        split = form.is_kg_split()
        text = "split" if split else "not split"
        payload = {"kg_split": split}
    elif args.action == "zw":
        k = form.zw_exponent(k_max)
        text, payload = f"zw exponent = {k}", {"zw_exponent": k}
    else:  # witness
        k = form.nilpotence_exponent(k_max)
        text, payload = f"nilpotence exponent = {k}", {"nilpotence_exponent": k}
    payload["generators"] = [str(g) for g in gens]
    return text, payload


# -- brieskorn -------------------------------------------------------------------


def _brieskorn_payload(m, orientation):
    from . import spectra

    cls = spectra.brieskorn_class(m, orientation)
    return {
        "brieskorn": [2, 3, m],
        "orientation": orientation,
        "blocks": cls.space.labels(),
        "m": cls.m,
        "n": str(cls.n),
        "kappa": spectra.brieskorn_kappa(m, orientation),
        "kg_split": cls.is_floer_kg_split(),
    }


# The table costs time linear in --max-m: well under 1 s at the cap.
MAX_TABLE_M = 10**5

_SEIFERT = [(name, {"type": int}) for name in "abm"] + [("--orient", {"choices": ["+", "-"], "default": "+"})]
_BRIESKORN = {"kappa": _SEIFERT, "class": _SEIFERT, "table": [("--max-m", {"type": int, "default": 601})]}


def _cmd_brieskorn(args):
    from . import spectra

    if args.action == "table":
        _cap("--max-m {}", args.max_m, MAX_TABLE_M, spectra.UnsupportedSeifertDataError)
        ms = [m for m in range(7, args.max_m + 1) if m % 2 and m % 3]
        kappas = [(m, o, spectra.brieskorn_kappa(m, o)) for m in ms for o in "+-"]
        rows = [{"m": m, "orientation": o, "kappa": kappa} for m, o, kappa in kappas]
        # the reversed orientation's label starts with -
        lines = [f"kappa({o.strip('+')}Sigma(2,3,{m})) = {kappa}" for m, o, kappa in kappas]
        return "\n".join(lines), {"rows": rows}

    if (args.a, args.b) != (2, 3):
        raise spectra.UnsupportedSeifertDataError(f"only Sigma(2,3,m) is supported, got ({args.a},{args.b},...)")
    if args.action == "kappa":  # only the JSON lists the blocks of the class of m
        kappa = spectra.brieskorn_kappa(args.m, args.orient)
        return f"kappa = {kappa}", _brieskorn_payload(args.m, args.orient) if args.json else None
    payload = _brieskorn_payload(args.m, args.orient)  # class
    return _report(payload, "blocks", " v "), payload


# -- bounds ----------------------------------------------------------------------


def _verdict_result(verdict, **extra):
    """A verdict's answer: its text, its JSON and, unlike any other answer, its exit code."""
    from .bounds import Status

    code = 1 if verdict.status is Status.VIOLATED else 0
    return f"{verdict.status.capitalize()}: {verdict.inequality}", {**verdict._asdict(), **extra}, code


_INT = {"type": int, "default": 0}
_KAPPAS, _PQ = [("--kappa0", _INT), ("--kappa1", _INT)], [("--p", _INT), ("--q", _INT)]
_SPLIT_FLAGS = [
    ("--non-split", {"action": "store_false", "dest": "y0_kg_split"}),
    ("--refined", {"action": "store_true", "dest": "parity_refined"}),
]
_ORBIFOLD_FLAGS = [("--b2plus", {**_INT, "dest": "b2plus_filling"}), ("--mubar", {**_INT, "dest": "mu_bar"})]

# action -> (the pin2k.bounds function it calls, its arguments); the dest of
# each argument names a parameter of that function, so the parse is the call
_BOUNDS = {
    "definite": ("definite_bound", [*_KAPPAS, ("--b2", _INT)]),
    "relative": ("relative_10_8", _KAPPAS + _PQ),
    "split": ("split_bound", _KAPPAS + _PQ + _SPLIT_FLAGS),
    "furuta": ("furuta_closed", _PQ),
    "conjecture": ("conjecture_11_8", _PQ),
    "orbifold": ("orbifold_bound", _PQ + _ORBIFOLD_FLAGS),
    "rokhlin": ("rokhlin_consistency", [*_KAPPAS, _PQ[0]]),
    "bohr-lee": ("bohr_lee_bound", [("--kappa", _INT)]),
}


def _cmd_bounds(args):
    from . import bounds as fb

    params = {key: value for key, value in vars(args).items() if key not in ("command", "action", "json")}
    result = getattr(fb, _BOUNDS[args.action][0])(**params)
    if args.action == "bohr-lee":
        return f"m(-Y)/2 <= {result}", {"kappa": args.kappa, "bound": result}
    return _verdict_result(result)


# -- xi ----------------------------------------------------------------------------

_XI = {"table": [], "show": [("manifold", {"help": 'e.g. "Sigma(2,3,11)", "-Sigma(2,3,12n-5)", "S3"'})]}


def _cmd_xi(args):
    from . import bounds as fb

    rows = fb.xi_table_rows() if args.action == "table" else [fb.xi_bounds(args.manifold)]
    payloads = [{**row._asdict(), "manifold": row.manifold.label()} for row in rows]
    if args.action == "table":
        return fb.emit_xi_table(rows), {"rows": payloads}
    (row,), (payload,) = rows, payloads
    return f"xi({payload['manifold']}) {row.xi_text('= ')}", payload


# -- bauer ---------------------------------------------------------------------------

_BAUER = {
    "canonical": [
        ("--pieces", {"type": int, "default": 1, "help": "number of pieces in the canonical chain"}),
        ("--non-split-boundary", {"type": int}),
    ],
    "check": [("--chain", {"required": True, "help": "JSON list of {p, q, boundary} entries"})],
}


def _cmd_bauer(args):
    from . import bounds as fb

    if args.action == "canonical":
        chain = fb.canonical_bauer_chain(args.pieces, args.non_split_boundary)
    else:  # check
        chain = fb.parse_chain(args.chain)
    verdict = fb.bauer_chain_check(chain)
    if not args.json:  # only the JSON echoes the chain
        return _verdict_result(verdict)
    echo = [{**form._asdict(), "boundary": None if b is None else b._asdict()} for form, b in chain]
    return _verdict_result(verdict, chain=echo)


# -- parser ----------------------------------------------------------------------------

_JSON = ("--json", {"action": "store_true", "help": "print the answer as one JSON object"})


def _commands():
    """command -> (help, handler, action -> arguments), built at call time so
    that a handler patched into this module is the one that runs."""
    bounds = {action: arguments for action, (_, arguments) in _BOUNDS.items()}
    return {
        "ring": ("representation-ring arithmetic", _cmd_ring, _RING),
        "ideal": ("ideal canonical forms and invariants", _cmd_ideal, _IDEAL),
        "brieskorn": ("spectrum classes of Sigma(2,3,m)", _cmd_brieskorn, _BRIESKORN),
        "bounds": ("intersection-form admissibility checks", _cmd_bounds, bounds),
        "xi": ("bounds on the maximal p - q over spin fillings", _cmd_xi, _XI),
        "bauer": ("decomposition-chain exclusion checks", _cmd_bauer, _BAUER),
    }


def _plain(argv, commands):
    """The fields of a plain call as a SimpleNamespace, or None for any other argv.

    A plain call is a command, one of its actions, and then only the
    action's flags and --json, each spelt in full, and values: - or any
    token that does not start with -.  A flag that takes a value reads the
    next token, which must be a value; the other values fill the
    positionals in order.  Each value passes its type and choices, every
    required argument is given and no token is left over.  An integer
    value over CPython's digit limit raises a Pin2kError instead, as
    argparse words it.
    """
    if len(argv) < 2 or argv[0] not in commands or argv[1] not in commands[argv[0]][2]:
        return None
    fields, flags, positionals, missing = {"command": argv[0], "action": argv[1]}, {}, [], set()
    for name, options in [*commands[argv[0]][2][argv[1]], _JSON]:
        dest = options.get("dest", name.lstrip("-").replace("-", "_"))
        if name[0] != "-":
            positionals.append((dest, options))
            continue
        flags[name] = dest, options
        fields[dest] = options["action"] == "store_false" if "action" in options else options.get("default")
        if options.get("required"):
            missing.add(name)
    tokens = iter(argv[2:])
    for token in tokens:
        if token in flags:
            missing.discard(token)
            name, (dest, options) = token, flags[token]
            if "action" in options:  # a switch
                fields[dest] = options["action"] == "store_true"
                continue
            token = next(tokens, None)
        elif positionals:
            dest, options = positionals.pop(0)
            name = dest  # as argparse names a positional
        else:
            return None
        if token is None or token[:1] == "-" and token != "-":
            return None
        try:  # int is the one type of the tables
            value = _int(token, f"argument {name}: an integer") if "type" in options else token
        except ValueError:
            return None
        if "choices" in options and value not in options["choices"]:
            return None
        fields[dest] = value
    return None if positionals or missing else SimpleNamespace(**fields)


def _raise_usage(parser, message):
    """error() of the argparse parsers: one error line, exit code 2 and no
    usage block."""
    raise SystemExit(_usage_error(message))


def _argparser(argv, commands):
    """argparse over the command tables, for every argv that is not a plain
    call: a sub-parser per command, and per action of each command that argv
    names, since argparse reads only that one; no abbreviations at any
    level."""
    import argparse
    from functools import partial

    # int, refusing a token over the digit limit as _plain does, rather than
    # quoting the whole token
    read_int = partial(_int, what="an integer", error=argparse.ArgumentTypeError)
    parser_class = type("_Parser", (argparse.ArgumentParser,), {"error": _raise_usage})
    about = "Exact calculator for Pin(2) representation-ring ideals, spectrum classes and spin intersection forms."
    parser = parser_class(prog="pin2k", description=about, allow_abbrev=False)
    command_parsers = parser.add_subparsers(dest="command", required=True)
    for command, (summary, _, actions) in commands.items():
        command_parser = command_parsers.add_parser(command, help=summary, description=summary, allow_abbrev=False)
        if command not in argv:
            continue
        action_parsers = command_parser.add_subparsers(dest="action", required=True)
        for action, arguments in actions.items():
            action_parser = action_parsers.add_parser(action, description=summary, allow_abbrev=False)
            action_parser.register("type", int, read_int)  # its errors still name the type int
            for name, options in [*arguments, _JSON]:
                action_parser.add_argument(name, **options)
    return parser


def _parse(argv, commands):
    """The fields of argv: a plain call's read directly, any other argv's by argparse."""
    return _plain(argv, commands) or _argparser(argv, commands).parse_args(argv)


def main(argv=None):
    """Runs one pin2k call, prints the answer that its handler returns and
    returns its exit code; a usage error or --help raises SystemExit instead."""
    argv = sys.argv[1:] if argv is None else argv
    commands = _commands()
    try:
        args = _parse(argv, commands)
        text, payload, *code = commands[args.command][1](args)  # a verdict's answer adds its exit code
        _emit(args, text, payload)
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
        return code[0] if code else 0
    except BrokenPipeError:
        # the reader closed stdout, which ends the output; point it at devnull
        # so that the flush at exit stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except Pin2kError as err:  # a refusal of the input, never a bug
        return _usage_error(str(err))
    except MemoryError:  # too large an input, not a bug
        return _usage_error("out of memory")
    except Exception as err:
        if isinstance(err, ValueError) and str(err).startswith(_DIGIT_LIMIT_MESSAGE):
            # printing an exact answer; input digit runs are refused where they are read
            return _usage_error(
                f"the answer has an integer of more than {sys.get_int_max_str_digits()} digits, "
                "the output limit (set PYTHONINTMAXSTRDIGITS to raise it)"
            )
        # a bug, not a verdict: keep it off exit codes 1 and 2
        print(f"internal error: {type(err).__name__}: {err}".translate(_LINE_BREAKS), file=sys.stderr)
        return 3


def run():
    """The pin2k process: main, then os._exit, which skips the interpreter's
    teardown (freeing every module, a last garbage collection).  pin2k opens
    no files, starts no threads and registers no atexit hooks, so flushing
    stdout and stderr is all of that teardown it needs."""
    try:
        code = main()
    except SystemExit as stop:
        code = stop.code
    for stream in (sys.stdout, sys.stderr):  # only --help text can be left: main flushes the answers
        try:
            if stream is not None:  # None when the process started with it closed
                stream.flush()
        except OSError:  # the reader closed the pipe, as in main: the output just ends
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
