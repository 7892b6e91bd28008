"""The benchmark's span tracer (benchmarks/tracing.py) still installs over the
package: it looks up every TRACED name of each loaded locc_purity module with
getattr, so a traced name that leaves its module breaks the traced benchmark
run. The check runs in a fresh process, because install patches every loaded
locc_purity module."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys

sys.path[:0] = [{src!r}, {bench!r}]
import locc_purity.cli
from locc_purity import protocol, states
from tracing import Tracer

loaded = {{name: mod for name, mod in sys.modules.items() if name.startswith("locc_purity")}}
before = {{name: dict(vars(mod)) for name, mod in loaded.items()}}
tracer = Tracer()
tracer.install()
assert tracer._patched
rho = states.build_state(states.StateSpec(d=2, kind="random_mixed", seed=7))
tracer.root(lambda: protocol.run_test(rho, 2, 3))
tracer.uninstall()
funcs = tracer.summary()["funcs"]
assert funcs["protocol.run_test"][1] == 1, funcs
for name, mod in loaded.items():
    for attr, value in before[name].items():
        assert vars(mod)[attr] is value, (name, attr)
print("ok")
"""


def test_benchmark_tracer_installs_over_the_package():
    script = SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "benchmarks"))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
