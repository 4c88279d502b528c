"""The package imports nothing outside the standard library, and its CLI starts without dataclasses."""

import subprocess
import sys
from pathlib import Path

import voxgen

# Runs in a fresh interpreter, with -B because -I ignores PYTHONDONTWRITEBYTECODE
# and the probe would otherwise write bytecode caches into the checkout it
# imports. The modules loaded before voxgen are left out:
# site may preload some that are not in the standard library, such as
# setuptools' _distutils_hack or a sitecustomize.
PROBE = """
import importlib, pkgutil, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import voxgen
for info in pkgutil.walk_packages(voxgen.__path__, "voxgen."):
    importlib.import_module(info.name)
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print("\\n".join(sorted(added - set(sys.stdlib_module_names) - {"voxgen"})))
"""


def test_every_module_imports_only_the_standard_library():
    src = Path(voxgen.__file__).resolve().parent.parent
    probe = subprocess.run([sys.executable, "-I", "-B", "-c", PROBE, str(src)], capture_output=True, text=True, timeout=60)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.split() == []


# What `import voxgen.cli` loads sets every command's start-up cost. dataclasses
# alone brings inspect, ast, dis and tokenize, which no command needs.
COLD_START_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import voxgen.cli
print(" ".join(sorted({"dataclasses", "inspect"} & set(sys.modules))))
"""


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = Path(voxgen.__file__).resolve().parent.parent
    probe = subprocess.run(
        [sys.executable, "-I", "-B", "-c", COLD_START_PROBE, str(src)], capture_output=True, text=True, timeout=60
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.split() == []
