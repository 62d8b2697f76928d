"""Command-line front end.

Exit codes: 0 for satisfied verdicts and successful computations, 1 for a
violated verdict, 2 for usage or domain errors, 3 for an internal error.
Each (command, action) pair has its own parser, which takes the arguments
that action reads and --json, after the action; table and JSON output carry
the same numbers.  The environment variable PIN2K_KMAX overrides the search
cap used by ideal queries, from 0 up to MAX_KMAX.

Each subcommand imports the layers it runs when it runs, and json only for
--json or a --chain, so start-up pays for nothing else.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import Pin2kError


# The capped searches grow about cubically with the cap: `ideal witness --gens
# "z+2"` takes about 2 s at this cap.
MAX_KMAX = 256


def _k_max():
    from .ideals import K_MAX_DEFAULT

    try:
        k_max = int(os.environ.get("PIN2K_KMAX", K_MAX_DEFAULT))
    except ValueError:
        raise SystemExit(_usage_error("PIN2K_KMAX must be an integer"))
    if k_max < 0:
        raise SystemExit(_usage_error(f"PIN2K_KMAX = {k_max} is negative; the valid range is 0..{MAX_KMAX}"))
    if k_max > MAX_KMAX:
        raise SystemExit(_usage_error(f"PIN2K_KMAX = {k_max} is over the limit of {MAX_KMAX}"))
    return k_max


# How CPython's ValueError for an int/str conversion over
# sys.get_int_max_str_digits() begins.
_DIGIT_LIMIT_MESSAGE = "Exceeds the limit ("


def _usage_error(message):
    print(f"error: {message}", file=sys.stderr)
    return 2


def _emit(args, table_text, payload):
    if args.json:
        import json

        print(json.dumps(payload, sort_keys=True))
    else:
        print(table_text)


def _frac_json(value):
    """A Fraction as JSON: an integer, or the string "a/b"."""
    return int(value) if value.denominator == 1 else str(value)


# -- ring ----------------------------------------------------------------------

# Each command's table maps its actions to the arguments each one reads
# besides --json, as (name, add_argument options); build_parser declares
# exactly these.
_RING = dict.fromkeys(["eval", "augment", "restrict", "wmul"], [("expr", {})])


def _cmd_ring(args):
    from . import ring

    x = ring.parse(args.expr)
    if args.action == "eval":
        _emit(args, str(x), {"expr": args.expr, "normal_form": str(x)})
    elif args.action == "augment":
        _emit(args, str(x.augment()), {"expr": args.expr, "augment": x.augment()})
    elif args.action == "restrict":
        img = x.restrict_s1()
        _emit(args, str(img), {"expr": args.expr, "restriction": str(img)})
    else:  # wmul
        _emit(args, str(x.w_multiplier()), {"expr": args.expr, "w_multiplier": x.w_multiplier()})
    return 0


# -- ideal ---------------------------------------------------------------------

_GENS = ("--gens", {"required": True, "help": "comma-separated generator expressions"})
_IDEAL = dict.fromkeys(["k", "info", "split", "zw", "witness"], [_GENS])
_IDEAL["contains"] = [_GENS, ("--element", {"required": True, "help": "element expression for membership tests"})]


def _parse_gens(text):
    from . import ring

    items = [piece.strip() for piece in text.split(",")]
    return [ring.parse(piece) for piece in items if piece]


def _cmd_ideal(args):
    from . import ideals, ring

    k_max = _k_max()
    gens = _parse_gens(args.gens)
    form = None if args.action == "k" else ideals.ideal_from_generators(gens)  # k reads only e
    if args.action == "k":
        k = ideals.k_from_e(ideals.w_gcd(gens))
        text, payload = f"k = {k}", {"k": k}
    elif args.action == "info":
        try:
            k = form.k_invariant()
        except ideals.IdealError:
            k = None
        payload = {
            "basis": [str(b) for b in form.basis],
            "e": form.e,
            "d": form.d,
            "k": k,
            "kg_split": form.is_kg_split(),
        }
        text = "\n".join(
            [
                "basis: " + (", ".join(payload["basis"]) or "(0)"),
                f"e = {payload['e']}",
                f"d = {payload['d']}",
                f"k = {payload['k']}",
                f"kg_split = {str(payload['kg_split']).lower()}",
            ]
        )
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
    _emit(args, text, payload)
    return 0


# -- brieskorn -------------------------------------------------------------------


def _check_seifert(a, b):
    from . import spectra

    if (a, b) != (2, 3):
        raise spectra.UnsupportedSeifertDataError(f"only Sigma(2,3,m) is supported, got ({a},{b},...)")


def _brieskorn_payload(m, orientation):
    from . import spectra

    cls = spectra.brieskorn_class(m, orientation)
    return {
        "brieskorn": [2, 3, m],
        "orientation": orientation,
        "blocks": cls.labels(),
        "m": cls.m,
        "n": str(cls.n),
        "kappa": _frac_json(cls.kappa()),
        "kg_split": cls.is_floer_kg_split(),
    }


# The table costs time linear in --max-m: well under 1 s at the cap.
MAX_TABLE_M = 10**5

_SEIFERT = [(name, {"type": int}) for name in "abm"] + [("--orient", {"choices": ["+", "-"], "default": "+"})]
_BRIESKORN = {"kappa": _SEIFERT, "class": _SEIFERT, "table": [("--max-m", {"type": int, "default": 601})]}


def _cmd_brieskorn(args):
    from . import spectra

    if args.action == "table":
        if args.max_m > MAX_TABLE_M:
            raise spectra.UnsupportedSeifertDataError(f"--max-m {args.max_m} is over the limit of {MAX_TABLE_M}")
        rows = []
        for m in range(7, args.max_m + 1):
            if m % 2 == 0 or m % 3 == 0:
                continue
            for orient in ("+", "-"):
                kappa = spectra.brieskorn_kappa(m, orient)
                rows.append({"m": m, "orientation": orient, "kappa": _frac_json(kappa)})
        if args.json:
            import json

            print(json.dumps({"rows": rows}, sort_keys=True))
        else:
            for row in rows:
                sign = "" if row["orientation"] == "+" else "-"
                print(f"kappa({sign}Sigma(2,3,{row['m']})) = {row['kappa']}")
        return 0

    _check_seifert(args.a, args.b)
    if args.action == "kappa":
        # kappa is constant on the family of m; only the JSON, which lists the
        # blocks, needs the class of m
        kappa = spectra.brieskorn_kappa(args.m, args.orient)
        _emit(args, f"kappa = {_frac_json(kappa)}", _brieskorn_payload(args.m, args.orient) if args.json else None)
    else:  # class
        payload = _brieskorn_payload(args.m, args.orient)
        text = "\n".join(
            [
                "blocks: " + " v ".join(payload["blocks"]),
                f"m = {payload['m']}",
                f"n = {payload['n']}",
                f"kappa = {payload['kappa']}",
                f"kg_split = {str(payload['kg_split']).lower()}",
            ]
        )
        _emit(args, text, payload)
    return 0


# -- bounds ----------------------------------------------------------------------


def _verdict_result(args, verdict, extra=None):
    payload = {"status": verdict.status.value, "inequality": verdict.inequality}
    if extra:
        payload.update(extra)
    _emit(args, f"{verdict.status.value.capitalize()}: {verdict.inequality}", payload)
    return verdict.exit_code()


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

    params = {key: value for key, value in vars(args).items() if key not in ("command", "action", "json", "func")}
    result = getattr(fb, _BOUNDS[args.action][0])(**params)
    if args.action == "bohr-lee":
        _emit(args, f"m(-Y)/2 <= {result}", {"kappa": args.kappa, "bound": result})
        return 0
    return _verdict_result(args, result)


# -- xi ----------------------------------------------------------------------------

_XI = {"table": [], "show": [("manifold", {"help": 'e.g. "Sigma(2,3,11)", "-Sigma(2,3,12n-5)", "S3"'})]}


def _xi_row_payload(row):
    return {
        "manifold": row.manifold.label(),
        "lower": row.lower,
        "upper_filling": row.upper_filling,
        "upper_orbifold": row.upper_orbifold,
        "upper_kappa": row.upper_kappa,
        "upper": row.upper,
        "exact": row.exact,
    }


def _cmd_xi(args):
    from . import bounds as fb

    if args.action == "table":
        if args.json:
            import json

            rows = [_xi_row_payload(r) for r in fb.xi_table_rows()]
            print(json.dumps({"rows": rows}, sort_keys=True))
        else:
            sys.stdout.write(fb.emit_xi_table())
        return 0
    row = fb.xi_bounds(args.manifold)
    payload = _xi_row_payload(row)
    if row.exact is not None:
        text = f"xi({row.manifold.label()}) = {row.exact}"
    else:
        text = f"xi({row.manifold.label()}) in [{row.lower}, {row.upper}]"
    _emit(args, text, payload)
    return 0


# -- bauer ---------------------------------------------------------------------------

_BAUER = {
    "canonical": [
        ("--pieces", {"type": int, "default": 1, "help": "number of pieces in the canonical chain"}),
        ("--non-split-boundary", {"type": int}),
    ],
    "check": [("--chain", {"required": True, "help": "JSON list of {p, q, boundary} entries"})],
}

_JSON_KINDS = {int: "an integer", bool: "a boolean", str: "a string"}


def _chain_from_json(text):
    """The chain a --chain argument spells; MalformedChainError unless it is a
    list of {"p": int, "q": int, "boundary": null or {"kappa": int,
    "kg_split": bool, "name": str}} objects ("boundary" and "name" optional).
    The keys must match exactly: any other key, a misspelt one say, or a
    repeated one, is an error rather than ignored."""
    import json

    from . import bounds as fb

    def check_keys(obj, keys, where):
        for key in obj:
            if key not in keys:
                raise fb.MalformedChainError(f"{where}: unknown key {key!r}")

    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise fb.MalformedChainError(f"bad chain JSON: repeated key {key!r}")
            obj[key] = value
        return obj

    def field(obj, key, kind, where, default=None):
        if key not in obj and default is None:
            raise fb.MalformedChainError(f"{where}: {key!r} is missing")
        value = obj.get(key, default)
        if type(value) is not kind:  # rejects true/false where an integer belongs
            raise fb.MalformedChainError(f"{where}: {key!r} must be {_JSON_KINDS[kind]}")
        return value

    try:
        raw = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as err:
        raise fb.MalformedChainError(f"bad chain JSON: {err}") from None
    except RecursionError:
        raise fb.MalformedChainError("bad chain JSON: nested too deeply") from None
    except ValueError:  # the only other ValueError json raises: an integer over the digit limit
        limit = sys.get_int_max_str_digits()
        raise fb.MalformedChainError(f"bad chain JSON: an integer has more than {limit} digits") from None
    if not isinstance(raw, list):
        raise fb.MalformedChainError("chain must be a JSON list of {p, q, boundary} objects")
    chain = []
    for i, entry in enumerate(raw):
        where = f"chain entry {i}"
        if not isinstance(entry, dict):
            raise fb.MalformedChainError(f"{where} is not an object")
        check_keys(entry, ("p", "q", "boundary"), where)
        form = fb.IntersectionForm(field(entry, "p", int, where), field(entry, "q", int, where))
        boundary = entry.get("boundary")
        if boundary is not None:
            where = f"boundary of {where}"
            if not isinstance(boundary, dict):
                raise fb.MalformedChainError(f"{where} is not an object")
            check_keys(boundary, ("kappa", "kg_split", "name"), where)
            boundary = fb.BoundaryData(
                field(boundary, "kappa", int, where),
                field(boundary, "kg_split", bool, where),
                field(boundary, "name", str, where, default=""),
            )
        chain.append((form, boundary))
    return chain


def _cmd_bauer(args):
    from . import bounds as fb

    if args.action == "canonical":
        chain = fb.canonical_bauer_chain(args.pieces, args.non_split_boundary)
    else:  # check
        chain = _chain_from_json(args.chain)
    verdict = fb.bauer_chain_check(chain)
    extra = {
        "chain": [
            {
                "p": form.p,
                "q": form.q,
                "boundary": None
                if boundary is None
                else {"kappa": boundary.kappa, "kg_split": boundary.kg_split, "name": boundary.name},
            }
            for form, boundary in chain
        ]
    }
    return _verdict_result(args, verdict, extra)


# -- parser ----------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error like every other error: one line, exit code 2."""

    def error(self, message):
        raise SystemExit(_usage_error(message))


def build_parser(argv):
    """The pin2k parser: one sub-parser per (command, action) that declares
    the arguments in that command's table and nothing else.  Only the
    commands named in argv get their action parsers: those are most of the
    build time.
    """
    commands = {  # command -> (help, handler, action -> arguments)
        "ring": ("representation-ring arithmetic", _cmd_ring, _RING),
        "ideal": ("ideal canonical forms and invariants", _cmd_ideal, _IDEAL),
        "brieskorn": ("spectrum classes of Sigma(2,3,m)", _cmd_brieskorn, _BRIESKORN),
        "bounds": (
            "intersection-form admissibility checks",
            _cmd_bounds,
            {action: arguments for action, (_, arguments) in _BOUNDS.items()},
        ),
        "xi": ("bounds on the maximal p - q over spin fillings", _cmd_xi, _XI),
        "bauer": ("decomposition-chain exclusion checks", _cmd_bauer, _BAUER),
    }
    parser = _Parser(
        prog="pin2k",
        description="Exact calculator for Pin(2) representation-ring ideals, "
        "spectrum-class invariants, and spin intersection-form bounds.",
    )
    command_ps = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, handler, actions) in commands.items():
        command_p = command_ps.add_parser(command, help=help_text)
        command_p.set_defaults(func=handler)
        if command in argv:
            action_ps = command_p.add_subparsers(dest="action", required=True)
            for action, arguments in actions.items():
                # no abbreviations: orbifold would read --b2 as --b2plus
                action_p = action_ps.add_parser(action, allow_abbrev=False)
                for name, options in arguments:
                    action_p.add_argument(name, **options)
                action_p.add_argument("--json", action="store_true")
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed stdout, which ends the output; point it at devnull
        # so that the flush at interpreter exit stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (Pin2kError, ValueError) as err:
        message = str(err)
        if message.startswith(_DIGIT_LIMIT_MESSAGE):
            # printing an exact answer; input digit runs are rejected where they are read
            message = (
                f"the answer has an integer of more than {sys.get_int_max_str_digits()} digits, "
                "the output limit (set PYTHONINTMAXSTRDIGITS to raise it)"
            )
        return _usage_error(message)
    except Exception as err:  # a bug, not a verdict: keep it off exit codes 1 and 2
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
