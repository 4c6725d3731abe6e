"""The package imports nothing outside the standard library."""

import json
import os
import subprocess
import sys

import repro

# Run in a fresh interpreter: modules loaded before any import (by
# ``site`` and its .pth files) are the baseline; importing every
# ``repro`` module may add only standard-library and ``repro`` ones.
# Python 3.9 has no ``sys.stdlib_module_names``, so a module is
# standard library when it has no file (built-in, frozen) or its file
# lies under sysconfig's stdlib paths but outside site-packages.
PROBE = r"""
import json, os, pkgutil, sys, sysconfig
baseline = set(sys.modules)
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    __import__(info.name)
paths = sysconfig.get_paths()
stdlib = tuple(os.path.realpath(paths[key]) + os.sep
               for key in ("stdlib", "platstdlib"))
site = tuple(os.path.realpath(paths[key]) + os.sep
             for key in ("purelib", "platlib"))

def third_party(name, module):
    if name == "repro" or name.startswith("repro."):
        return False
    filename = getattr(module, "__file__", None)
    # Built-in modules have no file; a namespace package has only dirs.
    places = [filename] if filename else \
        list(getattr(module, "__path__", []))
    for place in places:
        real = os.path.realpath(place) + os.sep
        if not real.startswith(stdlib) or real.startswith(site):
            return True
    return False

print(json.dumps(sorted(
    name for name, module in list(sys.modules.items())
    if name not in baseline and module is not None
    and third_party(name, module))))
"""


def test_no_third_party_imports():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                 if p])
    result = subprocess.run([sys.executable, "-c", PROBE], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == []
