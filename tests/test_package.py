import json
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


# Lists dir(pin2k) and the layers loaded then, then reads pin2k.bounds as
# the first import of any layer and prints what it got and what is loaded.
LAZY_PROBE = """
import json, sys
import pin2k
listed = dir(pin2k)
layers = sorted(m for m in sys.modules if m.startswith("pin2k."))
bounds = pin2k.bounds
print(json.dumps([sorted(set(pin2k.__all__) - set(listed)), layers, bounds is sys.modules["pin2k.bounds"],
                  sorted(m for m in sys.modules if m.startswith("pin2k."))]))
"""


def test_lazy_exports_in_a_fresh_interpreter():
    # in this process the layers are already imported, so the package's
    # __getattr__ never meets a layer name and nothing calls its __dir__
    proc = subprocess.run(
        [sys.executable, "-S", "-c", LAZY_PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    unlisted, layers_after_dir, is_the_module, layers_after_read = json.loads(proc.stdout)
    assert unlisted == [] and layers_after_dir == []
    assert is_the_module and layers_after_read == ["pin2k.bounds"]


def test_domain_errors_share_one_base():
    from pin2k.bounds import BoundsError
    from pin2k.ideals import IdealError
    from pin2k.ring import ParseError
    from pin2k.spectra import SpectraError

    for error in (BoundsError, IdealError, ParseError, SpectraError):
        assert issubclass(error, pin2k.Pin2kError), error


@pytest.mark.parametrize(
    "refuse",
    [
        lambda: pin2k.ring.parse("(1+z)^5000"),
        lambda: pin2k.ring.parse("z^23170").restrict_s1(),
        lambda: pin2k.ideals.ideal_from_generators([pin2k.ring.parse("z^1025")]),
    ],
    ids=["power", "restriction", "completion-degree"],
)
def test_size_refusals_are_domain_errors(refuse):
    # a size cap refuses the input, which the CLI reports as exit 2; a bare
    # ValueError would be a bug (exit 3)
    with pytest.raises(pin2k.Pin2kError, match="is over the limit of"):
        refuse()
