import os
import subprocess
import sys
from pathlib import Path

import gapgauge


def test_every_export_resolves():
    missing = [name for name in gapgauge.__all__ if not hasattr(gapgauge, name)]
    assert missing == []
    assert len(set(gapgauge.__all__)) == len(gapgauge.__all__)


def test_runtime_imports_only_the_standard_library_and_numpy():
    # Modules loaded before the import are the interpreter's start-up hooks
    # (site-packages .pth files), not the package's.
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import gapgauge, gapgauge.cli\n"
            "tops = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
            "print(' '.join(sorted(tops - set(sys.stdlib_module_names))))\n")
    source_root = str(Path(gapgauge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [source_root, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.split() == ["gapgauge", "numpy"]
