"""Command-line front end.

Exit codes: 0 for satisfied verdicts and successful computations, 1 for a
violated verdict, 2 for usage or domain errors, 3 for an internal error.
Every subcommand takes --json; table and JSON output carry the same
numbers.  The environment variable PIN2K_KMAX overrides the search cap used
by ideal queries.

Each subcommand imports the layers it runs when it runs, and json only for
--json or a --chain, so start-up pays for nothing else.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import Pin2kError


def _k_max():
    from .ideals import K_MAX_DEFAULT

    try:
        return int(os.environ.get("PIN2K_KMAX", K_MAX_DEFAULT))
    except ValueError:
        raise SystemExit(_usage_error("PIN2K_KMAX must be an integer"))


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


def _frac_str(value):
    from fractions import Fraction

    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _frac_json(value):
    from fractions import Fraction

    value = Fraction(value)
    return int(value) if value.denominator == 1 else _frac_str(value)


# -- ring ----------------------------------------------------------------------


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


def _parse_gens(text):
    from . import ring

    items = [piece.strip() for piece in text.split(",")]
    return [ring.parse(piece) for piece in items if piece]


def _cmd_ideal(args):
    from . import ideals, ring

    k_max = _k_max()
    gens = _parse_gens(args.gens)
    form = ideals.ideal_from_generators(gens)
    if args.action == "k":
        k = form.k_invariant()
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
        "n": _frac_str(cls.n),
        "kappa": _frac_json(cls.kappa()),
        "kg_split": cls.is_floer_kg_split(),
    }


def _cmd_brieskorn(args):
    if args.action == "table":
        from . import spectra

        if args.max_m > spectra.MAX_M:
            raise spectra.UnsupportedSeifertDataError(f"--max-m {args.max_m} is over the limit of {spectra.MAX_M}")
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
    payload = _brieskorn_payload(args.m, args.orient)
    if args.action == "kappa":
        _emit(args, f"kappa = {payload['kappa']}", payload)
    else:  # class
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


def _cmd_bounds(args):
    from . import bounds as fb

    if args.action == "definite":
        v = fb.definite_bound(args.kappa0, args.kappa1, args.b2)
    elif args.action == "relative":
        v = fb.relative_10_8(args.kappa0, args.kappa1, args.p, args.q)
    elif args.action == "split":
        v = fb.split_bound(
            args.kappa0, args.kappa1, args.p, args.q,
            y0_kg_split=not args.non_split, parity_refined=args.refined,
        )
    elif args.action == "furuta":
        v = fb.furuta_closed(args.p, args.q)
    elif args.action == "conjecture":
        v = fb.conjecture_11_8(args.p, args.q)
    elif args.action == "orbifold":
        v = fb.orbifold_bound(args.p, args.q, args.b2plus, args.mubar)
    elif args.action == "rokhlin":
        v = fb.rokhlin_consistency(args.kappa0, args.kappa1, args.p)
    else:  # bohr-lee
        bound = fb.bohr_lee_bound(args.kappa)
        _emit(args, f"m(-Y)/2 <= {bound}", {"kappa": args.kappa, "bound": bound})
        return 0
    return _verdict_result(args, v)


# -- xi ----------------------------------------------------------------------------


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


_JSON_KINDS = {int: "an integer", bool: "a boolean", str: "a string"}


def _chain_from_json(text):
    """The chain a --chain argument spells; MalformedChainError unless it is a
    list of {"p": int, "q": int, "boundary": null or {"kappa": int,
    "kg_split": bool, "name": str}} objects ("boundary" and "name" optional)."""
    import json

    from . import bounds as fb

    def field(obj, key, kind, where, default=None):
        if key not in obj and default is None:
            raise fb.MalformedChainError(f"{where}: {key!r} is missing")
        value = obj.get(key, default)
        if type(value) is not kind:  # rejects true/false where an integer belongs
            raise fb.MalformedChainError(f"{where}: {key!r} must be {_JSON_KINDS[kind]}")
        return value

    try:
        raw = json.loads(text)
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
        form = fb.IntersectionForm(field(entry, "p", int, where), field(entry, "q", int, where))
        boundary = entry.get("boundary")
        if boundary is not None:
            where = f"boundary of {where}"
            if not isinstance(boundary, dict):
                raise fb.MalformedChainError(f"{where} is not an object")
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pin2k",
        description="Exact calculator for Pin(2) representation-ring ideals, "
        "spectrum-class invariants, and spin intersection-form bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ring_p = sub.add_parser("ring", help="representation-ring arithmetic")
    ring_p.add_argument("action", choices=["eval", "augment", "restrict", "wmul"])
    ring_p.add_argument("expr")
    ring_p.add_argument("--json", action="store_true")
    ring_p.set_defaults(func=_cmd_ring)

    ideal_p = sub.add_parser("ideal", help="ideal canonical forms and invariants")
    ideal_p.add_argument("action", choices=["k", "info", "contains", "split", "zw", "witness"])
    ideal_p.add_argument("--gens", required=True, help="comma-separated generator expressions")
    ideal_p.add_argument("--element", help="element expression for membership tests")
    ideal_p.add_argument("--json", action="store_true")
    ideal_p.set_defaults(func=_cmd_ideal)

    brisk_p = sub.add_parser("brieskorn", help="spectrum classes of Sigma(2,3,m)")
    brisk_p.add_argument("action", choices=["kappa", "class", "table"])
    brisk_p.add_argument("a", nargs="?", type=int, default=2)
    brisk_p.add_argument("b", nargs="?", type=int, default=3)
    brisk_p.add_argument("m", nargs="?", type=int)
    brisk_p.add_argument("--orient", choices=["+", "-"], default="+")
    brisk_p.add_argument("--max-m", type=int, default=601)
    brisk_p.add_argument("--json", action="store_true")
    brisk_p.set_defaults(func=_cmd_brieskorn)

    bounds_p = sub.add_parser("bounds", help="intersection-form admissibility checks")
    bounds_p.add_argument(
        "action",
        choices=["definite", "relative", "split", "furuta", "conjecture", "orbifold", "rokhlin", "bohr-lee"],
    )
    bounds_p.add_argument("--p", type=int, default=0)
    bounds_p.add_argument("--q", type=int, default=0)
    bounds_p.add_argument("--b2", type=int, default=0)
    bounds_p.add_argument("--kappa0", type=int, default=0)
    bounds_p.add_argument("--kappa1", type=int, default=0)
    bounds_p.add_argument("--kappa", type=int, default=0)
    bounds_p.add_argument("--b2plus", type=int, default=0)
    bounds_p.add_argument("--mubar", type=int, default=0)
    bounds_p.add_argument("--refined", action="store_true")
    bounds_p.add_argument("--non-split", action="store_true")
    bounds_p.add_argument("--json", action="store_true")
    bounds_p.set_defaults(func=_cmd_bounds)

    xi_p = sub.add_parser("xi", help="bounds on the maximal p - q over spin fillings")
    xi_p.add_argument("action", choices=["table", "show"])
    xi_p.add_argument("manifold", nargs="?", help='e.g. "Sigma(2,3,11)", "-Sigma(2,3,12n-5)", "S3"')
    xi_p.add_argument("--json", action="store_true")
    xi_p.set_defaults(func=_cmd_xi)

    bauer_p = sub.add_parser("bauer", help="decomposition-chain exclusion checks")
    bauer_p.add_argument("action", choices=["canonical", "check"])
    bauer_p.add_argument("--pieces", type=int, default=1, help="number of pieces in the canonical chain")
    bauer_p.add_argument("--non-split-boundary", type=int, default=None)
    bauer_p.add_argument("--chain", help="JSON list of {p, q, boundary} entries")
    bauer_p.set_defaults(func=_cmd_bauer)
    bauer_p.add_argument("--json", action="store_true")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "action", None) == "contains" and not args.element:
        return _usage_error("ideal contains requires --element")
    if args.command == "xi" and args.action == "show" and not args.manifold:
        return _usage_error("xi show requires a manifold argument")
    if args.command == "brieskorn" and args.action != "table" and args.m is None:
        return _usage_error("brieskorn kappa/class require three Seifert parameters")
    if args.command == "bauer" and args.action == "check" and not args.chain:
        return _usage_error("bauer check requires --chain")
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
