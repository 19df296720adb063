"""The per-call timer of ``tools/callbench.py`` on the working tree."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "callbench.py"
_SPEC = importlib.util.spec_from_file_location("callbench", _PATH)
callbench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(callbench)

CALLS = [f"at {label} {count}" for label in ("bichromatic", "random n=4", "random n=8")
         for count in ("scalar", 16, 64, 512)]
CALLS += ["modes_at_many 1", "modes_at_many 17", "modes_at_many 2048",
          "H 2ls 24", "H pulse train 24", "H sparse 24", "on_grid pulse train 1024"]


def test_times_every_listed_call_once(capsys):
    callbench.main(["--repeat", "1", "--seconds", "0.001"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["call", "µs"]
    rows = {line[:28].strip(): float(line[28:]) for line in lines[1:]}
    assert list(rows) == CALLS
    assert all(value > 0.0 for value in rows.values())
