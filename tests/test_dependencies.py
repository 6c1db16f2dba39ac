"""The package has no runtime dependencies.  numpy, the last one, must
stay out: a figure run in a fresh interpreter never imports it."""

import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_figure_run_never_loads_numpy():
    script = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {str(SRC)!r})
        from repro.bench.harness import BenchScale, run_matrix
        run_matrix(BenchScale.quick(), workloads=("array",),
                   schemes=("baseline", "lazy", "eager", "plp",
                            "bmf-ideal", "scue"))
        print("numpy" in sys.modules)
    """)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"
