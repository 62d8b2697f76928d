import os
import subprocess
import sys
from pathlib import Path

import pytest

import pin2k

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs `pin2k` with the given arguments through cli.main (none: import only)
# and prints the pin2k modules and the start-up costs watched here, if
# loaded.  -S keeps site's own imports out of the picture.
PROBE = """
import sys
from pin2k import cli
if sys.argv[1:]:
    cli.main(sys.argv[1:])
watched = ("json", "fractions", "dataclasses", "inspect", "argparse", "gettext", "locale", "__future__")
print(" ".join(sorted(m for m in sys.modules if m.startswith("pin2k") or m in watched)))
"""


def loaded_modules(*argv):
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return set(proc.stdout.splitlines()[-1].split())


@pytest.mark.parametrize(
    "argv,layers",
    [
        ((), set()),
        (("ring", "eval", "z + 1"), {"ring"}),
        (("ideal", "info", "--gens", "w,z"), {"ring", "ideals"}),
        (("ideal", "contains", "--gens", "z^2", "--element", "2*w"), {"ring", "ideals"}),
        (("bounds", "furuta", "--p", "2", "--q", "3"), {"bounds"}),
        (("bounds", "split", "--p", "2", "--q", "3", "--non-split", "--refined"), {"bounds"}),
        (("bauer", "canonical", "--pieces", "3"), {"bounds"}),
        (("bauer", "check", "--chain", '[{"p": 2, "q": 3}]'), {"bounds"}),
        (("brieskorn", "kappa", "2", "3", "11"), {"spectra"}),
        (("brieskorn", "kappa", "2", "3", "7", "--orient", "-"), {"spectra"}),
        (("xi", "show", "S3"), {"spectra", "bounds"}),
        (("brieskorn", "class", "2", "3", "13", "--orient", "-"), {"spectra"}),
        (("brieskorn", "table", "--max-m", "100"), {"spectra"}),
        (("xi", "table"), {"spectra", "bounds"}),
    ],
)
def test_each_command_loads_only_its_layers(argv, layers):
    # no path may load dataclasses, inspect, argparse, gettext, locale or
    # __future__: all are start-up cost only.  json comes with --json, and
    # with --chain, whose argument is JSON; fractions only where a kappa is
    # printed, the brieskorn and xi commands
    expected = {"pin2k", "pin2k.cli"} | {f"pin2k.{layer}" for layer in layers}
    if "--chain" in argv:
        expected.add("json")
    if argv[:1] in (("brieskorn",), ("xi",)):
        expected.add("fractions")
    assert loaded_modules(*argv) == expected
    if argv:
        assert loaded_modules(*argv, "--json") == expected | {"json"}


@pytest.mark.parametrize("name", pin2k.__all__)
def test_public_names_resolve_to_their_home_objects(name):
    value = getattr(pin2k, name)
    if name in ("bounds", "ideals", "ring", "spectra"):
        assert value is sys.modules[f"pin2k.{name}"]
    else:
        assert value.__module__.startswith("pin2k.")
        assert getattr(sys.modules[value.__module__], name) is value


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(pin2k, "no_such_name")


def test_domain_errors_share_one_base():
    from pin2k.bounds import BoundsError
    from pin2k.ideals import IdealError
    from pin2k.ring import ParseError
    from pin2k.spectra import SpectraError

    for error in (BoundsError, IdealError, ParseError, SpectraError):
        assert issubclass(error, pin2k.Pin2kError), error
    assert issubclass(ParseError, ValueError)
